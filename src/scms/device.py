"""End-entity device lifecycle.

A device bootstraps through the DCM (out of band), then drives its own
credential lifecycle over the bus, always through the location obscurer
proxy for RA- and MA-bound traffic: it requests pseudonym certificates
with fresh caterpillar seeds, downloads weekly batches, verifies the
issuer's signature over each encrypted packet (catching response-key
substitution), reconstructs each private key and rejects any certificate
whose key check fails; failed packages are quarantined and reported.

Operationally it signs basic safety messages under a rotating pseudonym
certificate, validates received messages (certificate binding, trust
chain, CRL state), files encrypted misbehavior reports, and maintains a
capacity-capped CRL store with priority eviction plus jurisdiction checks
on which generator may revoke which series.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .bus import Envelope, MessageBus
from .butterfly import (
    ENCRYPTION,
    ReconstructionValue,
    TimeIndex,
    cocoon_private,
    reconstruct_private,
)
from .certmodel import (
    CertType,
    Certificate,
    Crl,
    LinkageRevocation,
    SignedMessage,
    check_crl_signature,
    crl_check,
    decode_composite,
    sign_message,
    verify_chain,
    verify_message,
)
from .crypto import (
    DeterministicRandom,
    KeyPair,
    Scalar,
    hybrid_decrypt,
    hybrid_encrypt,
    mul_g,
)
from .crypto.hybrid import HybridCiphertext
from .encoding import decode, encode
from .errors import DecryptionError, ParseError, ScmsError
from .linkage import expand_revocation_entry
from .rootmgmt import Ballot, TrustState, check_policy_artifact


@dataclass
class FixedIntervalRotation:
    """Change the signing certificate every `minutes` simulated minutes."""

    minutes: int = 5

    def choose(self, available: int, minute: int) -> int:
        return (minute // self.minutes) % available


class DeviceCrlStore:
    """Capacity-capped CRL storage with priority eviction.

    Keeps the latest accepted CRL per (CRACA, series), subject to the
    entry capacity: when over capacity the lowest-priority entries are
    dropped first (oldest first within a priority class). A CRL is
    accepted only if its generator is pinned for that series and the
    signature verifies.

    This is the device's only CRL memory: the device binds it as its trust
    store's ``crls``, so chain validation and BSM validation both read it
    through ``crl_check``, and an evicted entry no longer revokes.
    """

    def __init__(self, capacity: int = 10_000):
        self.capacity = capacity
        self._jurisdiction: dict[bytes, set[int]] = {}
        self._crlg_certs: dict[bytes, Certificate] = {}
        self._meta: dict[tuple[bytes, int], tuple[int, int]] = {}
        self._entries: list[dict] = []
        self._arrivals = 0
        self.version = 0
        self._lv_cache: dict[tuple, frozenset[bytes]] = {}

    def pin_generator(self, crlg_cert: Certificate, series: list[int]) -> None:
        self._crlg_certs[crlg_cert.cert_id()] = crlg_cert
        self._jurisdiction[crlg_cert.cert_id()] = set(series)

    def add_crl(self, crl: Crl) -> bool:
        crlg_cert = self._crlg_certs.get(crl.crlg_cert_id)
        if crlg_cert is None:
            return False
        if crl.series not in self._jurisdiction.get(crl.crlg_cert_id, set()):
            return False  # generator outside its jurisdiction
        if not check_crl_signature(crl, crlg_cert):
            return False
        key = (crl.craca_id, crl.series)
        current = self._meta.get(key)
        if current is not None and current[0] >= crl.sequence:
            return False
        self._meta[key] = (crl.sequence, crl.issue_period)
        self._entries = [
            e for e in self._entries
            if not (e["craca"] == crl.craca_id and e["series"] == crl.series)
        ]
        for entry in crl.linkage_entries:
            self._arrivals += 1
            self._entries.append({
                "craca": crl.craca_id, "series": crl.series, "kind": "linkage",
                "priority": entry.priority, "arrival": self._arrivals,
                "entry": entry,
            })
        for entry in crl.certid_entries:
            self._arrivals += 1
            self._entries.append({
                "craca": crl.craca_id, "series": crl.series, "kind": "certid",
                "priority": entry.priority, "arrival": self._arrivals,
                "entry": entry,
            })
        if len(self._entries) > self.capacity:
            kept = sorted(
                self._entries, key=lambda e: (-e["priority"], -e["arrival"])
            )[: self.capacity]
            self._entries = sorted(kept, key=lambda e: e["arrival"])
        self.version += 1
        return True

    def entry_count(self) -> int:
        return len(self._entries)

    def entries(self) -> list[dict]:
        return list(self._entries)

    def has_crl(self, craca: bytes, series: int) -> bool:
        return (craca, series) in self._meta

    def revoked_lvs(self, craca: bytes, series: int, period: int) -> frozenset[bytes]:
        key = (craca, series, self.version, period)
        cached = self._lv_cache.get(key)
        if cached is None:
            values = set()
            for e in self._entries:
                if e["kind"] != "linkage" or e["craca"] != craca or e["series"] != series:
                    continue
                entry: LinkageRevocation = e["entry"]
                if entry.i <= period:
                    for lv in expand_revocation_entry(entry.to_entry(), period):
                        values.add(lv.value)
            cached = frozenset(values)
            self._lv_cache[key] = cached
        return cached

    def revoked_cert_ids(self, craca: bytes, series: int) -> set[bytes]:
        return {
            e["entry"].cert_id
            for e in self._entries
            if e["kind"] == "certid" and e["craca"] == craca
            and e["series"] == series
        }

    def snapshot_bytes(self) -> bytes:
        """Retained entries re-serialized in the grouped CRL wire layout,
        one unsigned list per (CRACA, series)."""
        buckets: dict[tuple[bytes, int], Crl] = {}
        for e in sorted(self._entries, key=lambda e: e["arrival"]):
            key = (e["craca"], e["series"])
            crl = buckets.get(key)
            if crl is None:
                sequence, issue_period = self._meta[key]
                crl = Crl(
                    series=e["series"], craca_id=e["craca"],
                    issue_period=issue_period, sequence=sequence,
                    crlg_cert_id=b"\x00" * 8,
                )
                buckets[key] = crl
            if e["kind"] == "linkage":
                crl.linkage_entries.append(e["entry"])
            else:
                crl.certid_entries.append(e["entry"])
        out = bytearray()
        for key in sorted(buckets, key=str):
            raw = buckets[key].tbs_bytes()
            out += len(raw).to_bytes(4, "big")
            out += raw
        return bytes(out)


class Device:
    """One OBE or RSE end entity."""

    def __init__(
        self,
        device_id: str,
        bus: MessageBus,
        rng: DeterministicRandom,
        model: str = "obe-model-a",
        rotation: FixedIntervalRotation | None = None,
        crl_capacity: int = 10_000,
    ):
        self.id = device_id
        self.bus = bus
        self.clock = bus.clock
        self.rng = rng.child(device_id)
        self.model = model
        self.rotation = rotation or FixedIntervalRotation()
        self.bus.register(device_id, self)

        self.enrollment_key: KeyPair | None = None
        self.enrollment_cert_bytes: bytes | None = None
        self.handle_id: str | None = None
        self.trust: TrustState | None = None
        self.crl_store = DeviceCrlStore(capacity=crl_capacity)
        self.pca_cert: Certificate | None = None
        self.ma_enc_key = None
        self.ra_enc_key = None
        self.pg_cert: Certificate | None = None
        self.policy_versions: dict[str, int] = {}
        self.policy: dict = {}

        self.caterpillar: dict | None = None
        self.certs: dict[int, list[dict]] = {}
        self.quarantined: list[dict] = []
        self.app_certs: list[dict] = []
        self.provision_status: str | None = None
        self.last_deny_reason: str | None = None
        self.bsm_seq = 0
        self.received: list[tuple[bool, str]] = []
        self.reject_counts: dict[str, int] = {}
        self.mitm_detected = 0
        self._verified_certs: set[bytes] = set()
        self._trust_version = 0
        self._pending_reenroll: dict | None = None

    # --- bootstrap (out-of-band, via DCM) ---

    def bootstrap(self, dcm, ctype: CertType = CertType.OBE_ENROLLMENT,
                  subject_info: str | None = None) -> None:
        self.enrollment_key = KeyPair.generate(self.rng)
        bundle = dcm.enroll(
            self.model, self.enrollment_key.public, ctype=ctype,
            subject_info=subject_info,
        )
        self.install_bundle(bundle)

    def install_bundle(self, bundle: dict) -> None:
        self.enrollment_cert_bytes = bundle["enrollment_cert"]
        self.handle_id = hashlib.sha256(self.enrollment_cert_bytes).digest()[:8].hex()
        electors = [Certificate.decode(raw) for raw in bundle["electors"]]
        self.trust = TrustState(electors)
        self.trust.store.crls = self.crl_store
        for raw in bundle["roots"]:
            cert = Certificate.decode(raw)
            self.trust.store.add_cert(cert)
            self.trust.store.endorse_root(cert.cert_id())
        for name in ("ica", "pca", "eca", "ma", "pg", "crlg"):
            cert = Certificate.decode(bundle[name])
            self.trust.store.add_cert(cert)
        self.pca_cert = Certificate.decode(bundle["pca"])
        ma_cert = Certificate.decode(bundle["ma"])
        ra_cert = Certificate.decode(bundle["ra"])
        self.trust.store.add_cert(ra_cert)
        self.ma_enc_key = ma_cert.enc_key
        self.ra_enc_key = ra_cert.enc_key
        self.pg_cert = Certificate.decode(bundle["pg"])
        crlg_cert = Certificate.decode(bundle["crlg"])
        self.crl_store.pin_generator(crlg_cert, bundle["crlg_series"])
        for name in ("gpf", "gccf"):
            if name in bundle:
                artifact = check_policy_artifact(
                    bundle[name], self.pg_cert,
                    self.policy_versions.get(name, 0),
                )
                if artifact is not None:
                    self.policy_versions[name] = artifact.version
                    if name == "gpf":
                        self.policy = artifact.body
                    else:
                        for chain in artifact.body["chains"]:
                            for raw in chain:
                                self.trust.store.add_cert(Certificate.decode(raw))
        self._bump_trust()

    def _bump_trust(self) -> None:
        self._trust_version += 1
        self._verified_certs.clear()

    @property
    def bootstrapped(self) -> bool:
        return self.enrollment_cert_bytes is not None

    # --- messaging helpers ---

    def _via_lop(self, dst: str, mtype: str, body: dict) -> None:
        self.bus.send(Envelope(self.id, "lop", "lop.fwd", {
            "dst": dst, "mtype": mtype, "body": body,
        }))

    def _encrypt_to_ra(self, value: dict) -> bytes:
        return hybrid_encrypt(self.ra_enc_key, encode(value), self.rng).encode()

    def handle(self, env: Envelope) -> None:
        handler = getattr(self, "on_" + env.mtype.replace(".", "_"), None)
        if handler is None:
            raise ScmsError(f"device cannot handle message {env.mtype!r}")
        handler(env)

    # --- certificate request (step 1) ---

    def request_certs(self, start: int, n_periods: int, j_max: int = 20,
                      psid: int = 32) -> None:
        if not self.bootstrapped:
            raise ScmsError("device is not bootstrapped")
        a = self.rng.scalar()
        h = self.rng.scalar()
        self.caterpillar = {
            "a": a,
            "h": h,
            "k_sign": self.rng.randbytes(16),
            "k_enc": self.rng.randbytes(16),
            "start": start,
            "n_periods": n_periods,
            "j_max": j_max,
            "psid": psid,
        }
        request = {
            "A": mul_g(a).encode(),
            "H": mul_g(h).encode(),
            "k_sign": self.caterpillar["k_sign"],
            "k_enc": self.caterpillar["k_enc"],
            "start": start,
            "n_periods": n_periods,
            "j_max": j_max,
            "psid": psid,
        }
        enrollment_cert = Certificate.decode(self.enrollment_cert_bytes)
        msg = sign_message(
            self.enrollment_key.private, enrollment_cert, encode(request)
        )
        self._via_lop("ra", "provision.request", {
            "blob": self._encrypt_to_ra({"req": msg.encode()}),
            "reply_ref": self.rng.randbytes(8),
        })

    def on_provision_ack(self, env) -> None:
        self.provision_status = "acknowledged"

    def on_provision_deny(self, env) -> None:
        self.provision_status = "denied"
        self.last_deny_reason = env.payload["reason"]

    # --- batch download and key reconstruction (steps 4-6, device side) ---

    def download_batch(self, period: int) -> None:
        self._via_lop("ra", "batch.request", {
            "handle": self.handle_id,
            "period": period,
            "reply_ref": self.rng.randbytes(8),
        })

    def on_batch_response(self, env) -> None:
        if "error" in env.payload:
            self.provision_status = f"batch-{env.payload['error']}"
            return
        for item in env.payload["items"]:
            self._install_package(item)

    def _install_package(self, package_bytes: bytes) -> None:
        try:
            package = SignedMessage.decode(package_bytes)
        except ParseError:
            self._quarantine(package_bytes, "unparseable package")
            return
        if package.cert_id != self.pca_cert.cert_id() or not verify_message(
            package, self.pca_cert
        ):
            # covers the response-key substitution attack: the issuer's
            # signature no longer matches the delivered ciphertext
            self.mitm_detected += 1
            self._quarantine(package_bytes, "issuer signature mismatch")
            return
        envelope = decode(package.payload)
        index = TimeIndex(envelope["i"], envelope["j"])
        cat = self.caterpillar
        enc_priv = cocoon_private(cat["h"], cat["k_enc"], ENCRYPTION, index)
        try:
            plain = hybrid_decrypt(
                enc_priv, HybridCiphertext.decode(envelope["ct"])
            )
        except DecryptionError:
            self._quarantine(package_bytes, "response decryption failed")
            return
        content = decode(plain)
        cert = Certificate.decode(content["cert"])
        b_prime = reconstruct_private(
            cat["a"], cat["k_sign"], index,
            ReconstructionValue(Scalar.from_bytes(content["c"])),
        )
        if mul_g(b_prime) != cert.subject_key:
            self._quarantine(package_bytes, "reconstructed key mismatch")
            return
        if cert.valid_from != index.i or cert.linkage_value is None:
            self._quarantine(package_bytes, "certificate content mismatch")
            return
        self.certs.setdefault(index.i, []).append({
            "cert": cert,
            "cert_bytes": content["cert"],
            "priv": b_prime,
            "j": index.j,
        })

    def _quarantine(self, package_bytes: bytes, reason: str) -> None:
        self.quarantined.append({
            "digest": hashlib.sha256(package_bytes).digest(),
            "reason": reason,
        })
        if self.ma_enc_key is not None:
            report = encode({
                "kind": "install-failure",
                "evidence": hashlib.sha256(package_bytes).digest(),
                "reason": reason,
            })
            blob = hybrid_encrypt(self.ma_enc_key, report, self.rng).encode()
            self._via_lop("ra", "mb.report", {"blob": blob})

    # --- application / identification certificates ---

    def request_app_certs(self, ctype: CertType, validities: list[list[int]],
                          psid: int, with_enc_key: bool = False) -> None:
        self.app_signing_key = KeyPair.generate(self.rng)
        request = {
            "ctype": int(ctype),
            "pubkey": self.app_signing_key.public.encode(),
            "psid": psid,
            "validities": validities,
            "subject_info": self.model,
        }
        if with_enc_key:
            self.app_enc_key = KeyPair.generate(self.rng)
            request["enc_pubkey"] = self.app_enc_key.public.encode()
        enrollment_cert = Certificate.decode(self.enrollment_cert_bytes)
        msg = sign_message(
            self.enrollment_key.private, enrollment_cert, encode(request)
        )
        self._via_lop("ra", "app.request", {
            "blob": self._encrypt_to_ra({"req": msg.encode()}),
            "reply_ref": self.rng.randbytes(8),
        })

    def on_app_issued(self, env) -> None:
        for raw in env.payload["certs"]:
            self.app_certs.append({
                "cert": Certificate.decode(raw), "cert_bytes": raw,
                "priv": self.app_signing_key.private,
            })

    # --- BSM signing with rotation ---

    def current_certs(self) -> list[dict]:
        return [
            c for c in self.certs.get(self.clock.period, [])
            if c["cert"].valid_at(self.clock.period)
        ]

    def sign_bsm(self, position: list[int], speed: int) -> bytes | None:
        available = self.current_certs()
        if not available:
            return None
        chosen = available[self.rotation.choose(len(available), self.clock.minute)]
        self.bsm_seq += 1
        payload = encode({
            "p": self.clock.period,
            "m": self.clock.minute,
            "pos": position,
            "speed": speed,
            "seq": self.bsm_seq,
        })
        msg = sign_message(chosen["priv"], chosen["cert"], payload)
        return msg.encode()

    def broadcast_bsm(self, peers: list[str], position: list[int],
                      speed: int) -> bytes | None:
        bsm = self.sign_bsm(position, speed)
        if bsm is None:
            return None
        for peer in peers:
            self.bus.send(Envelope(self.id, peer, "bsm", {"bsm": bsm}))
        return bsm

    # --- received-message validation ---

    def on_bsm(self, env) -> None:
        ok, reason = self.validate_bsm(env.payload["bsm"])
        self.received.append((ok, reason))
        if not ok:
            self.reject_counts[reason] = self.reject_counts.get(reason, 0) + 1

    def validate_bsm(self, bsm_bytes: bytes) -> tuple[bool, str]:
        try:
            msg = SignedMessage.decode(bsm_bytes)
        except ParseError:
            return False, "malformed"
        if msg.cert_bytes is None:
            return False, "missing-certificate"
        try:
            cert = Certificate.decode(msg.cert_bytes)
        except (ParseError, ValueError):
            return False, "malformed-certificate"
        if not verify_message(msg, cert):
            return False, "bad-signature"
        if not cert.valid_at(self.clock.period):
            return False, "expired-period"
        if crl_check(cert, self.crl_store).is_revoked:
            return False, "revoked"
        cache_key = cert.cert_id()
        if cache_key not in self._verified_certs:
            chain = verify_chain(cert, self.trust.store)
            if not chain.ok:
                return False, "untrusted-chain"
            self._verified_certs.add(cache_key)
        return True, "ok"

    # --- misbehavior reporting ---

    def report_misbehavior(self, bsm_bytes: bytes) -> None:
        """Encrypt a report about a received BSM to the MA; the RA only
        ever sees the ciphertext."""
        msg = SignedMessage.decode(bsm_bytes)
        evidence = hashlib.sha256(bsm_bytes).digest()
        mine = self.current_certs()
        if not mine:
            raise ScmsError("no pseudonym certificate to sign the report")
        chosen = mine[self.rotation.choose(len(mine), self.clock.minute)]
        reporter = sign_message(chosen["priv"], chosen["cert"], evidence)
        report = encode({
            "kind": "bsm",
            "reported_cert": msg.cert_bytes,
            "evidence": evidence,
            "reporter": reporter.encode(),
        })
        blob = hybrid_encrypt(self.ma_enc_key, report, self.rng).encode()
        self._via_lop("ra", "mb.report", {"blob": blob})

    # --- CRL retrieval and storage ---

    def fetch_crl(self) -> None:
        self.bus.send(Envelope(self.id, "crlstore", "crl.fetch", {}))

    def on_crl_composite(self, env) -> None:
        for crl in decode_composite(env.payload["data"]):
            if self.crl_store.add_crl(crl):
                self._bump_trust()

    # --- root management and policy updates ---

    def on_ballot_publish(self, env) -> None:
        if self.trust is not None:
            accepted = self.trust.process_ballot(Ballot.decode(env.payload["ballot"]))
            if accepted:
                self._bump_trust()

    def fetch_policy(self) -> None:
        """Pull the latest signed policy and chain files (over the air)."""
        self.bus.send(Envelope(self.id, "crlstore", "policy.fetch", {}))

    def on_policy_files(self, env) -> None:
        for name in ("gpf", "gccf"):
            data = env.payload["files"].get(name)
            if data is None:
                continue
            artifact = check_policy_artifact(
                data, self.pg_cert, self.policy_versions.get(name, 0)
            )
            if artifact is None:
                continue
            self.policy_versions[name] = artifact.version
            if name == "gpf":
                self.policy = artifact.body
            else:
                for chain in artifact.body["chains"]:
                    for raw in chain:
                        self.trust.store.add_cert(Certificate.decode(raw))
                self._bump_trust()

    # --- re-enrollment ---

    def reenroll_reestablish(self) -> None:
        """Roll over to a new enrollment certificate signed with the old."""
        new_key = KeyPair.generate(self.rng)
        enrollment_cert = Certificate.decode(self.enrollment_cert_bytes)
        msg = sign_message(
            self.enrollment_key.private, enrollment_cert,
            encode({"new_pub": new_key.public.encode()}),
        )
        self._pending_reenroll = {"key": new_key}
        self._via_lop("ra", "reenroll.request", {
            "blob": self._encrypt_to_ra({"req": msg.encode()}),
            "reply_ref": self.rng.randbytes(8),
        })

    def on_reenroll_issued(self, env) -> None:
        if self._pending_reenroll is None:
            return
        self.enrollment_key = self._pending_reenroll["key"]
        self.enrollment_cert_bytes = env.payload["cert"]
        self.handle_id = hashlib.sha256(self.enrollment_cert_bytes).digest()[:8].hex()
        self._pending_reenroll = None
        self.provision_status = "re-enrolled"

    def rebootstrap(self, dcm) -> None:
        """Factory reset followed by a fresh bootstrap."""
        self.caterpillar = None
        self.certs.clear()
        self.quarantined.clear()
        self.app_certs.clear()
        self._verified_certs.clear()
        self.bootstrap(dcm)

    # --- state snapshot (scenario checkpointing) ---

    def state_snapshot(self) -> bytes:
        per_period = {}
        for period in sorted(self.certs):
            per_period[str(period)] = [
                {"cert": c["cert_bytes"], "priv": c["priv"].to_bytes(),
                 "j": c["j"]}
                for c in self.certs[period]
            ]
        return encode({
            "id": self.id,
            "enrollment_cert": self.enrollment_cert_bytes,
            "enrollment_priv": (
                self.enrollment_key.private.to_bytes()
                if self.enrollment_key else None
            ),
            "certs": per_period,
            "crl_entries": self.crl_store.snapshot_bytes(),
            "policy_versions": {k: v for k, v in self.policy_versions.items()},
        })
