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
from dataclasses import dataclass, replace

from .authorities.base import Component
from .authorities.enrollment import device_handle
from .bus import Envelope, MessageBus
from .butterfly import (
    ENCRYPTION,
    ReconstructionValue,
    TimeIndex,
    cocoon_private,
    reconstruct_private,
)
from .certmodel import (
    CertIdRevocation,
    CertType,
    Certificate,
    Crl,
    CrlSet,
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
from .encoding import decode, encode, fields
from .errors import DecryptionError, ParseError, ScmsError
from .rootmgmt import Ballot, TrustState, check_policy_artifact


@dataclass
class FixedIntervalRotation:
    """Change the signing certificate every `minutes` simulated minutes."""

    minutes: int = 5

    def choose(self, available: int, minute: int) -> int:
        return (minute // self.minutes) % available


class DeviceCrlStore(CrlSet):
    """A device's CRL memory: a ``CrlSet`` with generator pinning and a
    capacity cap.

    A CRL is accepted only if its generator is pinned for that series and
    the signature verifies. When the retained entries exceed the capacity
    the lowest-priority entries are dropped first (oldest first within a
    priority class), and each stored CRL is replaced by an unsigned copy
    holding only its retained entries.

    The device binds this store as its trust store's ``crls``, so chain
    validation and BSM validation both read it through ``crl_check``, and
    an evicted entry no longer revokes.
    """

    def __init__(self, capacity: int = 10_000):
        super().__init__()
        self.capacity = capacity
        self._jurisdiction: dict[bytes, set[int]] = {}
        self._crlg_certs: dict[bytes, Certificate] = {}

    def pin_generator(self, crlg_cert: Certificate, series: list[int]) -> None:
        self._crlg_certs[crlg_cert.cert_id()] = crlg_cert
        self._jurisdiction[crlg_cert.cert_id()] = set(series)

    def add(self, crl: Crl) -> bool:
        crlg_cert = self._crlg_certs.get(crl.crlg_cert_id)
        if crlg_cert is None:
            return False
        if crl.series not in self._jurisdiction[crl.crlg_cert_id]:
            return False  # generator outside its jurisdiction
        if not check_crl_signature(crl, crlg_cert) or not super().add(crl):
            return False
        if self.entry_count() > self.capacity:
            entries = self.entries()
            ranked = sorted(range(len(entries)),
                            key=lambda n: (-entries[n].priority, -n))
            keep = set(ranked[: self.capacity])
            # consumed in entries() order: per CRL, linkage then certid
            kept = (n in keep for n in range(len(entries)))
            for key, held in self._crls.items():
                self._crls[key] = replace(
                    held, signature=None,
                    linkage_entries=[e for e in held.linkage_entries if next(kept)],
                    certid_entries=[e for e in held.certid_entries if next(kept)],
                )
        return True

    def revoked_lvs(self, craca_id: bytes, series: int, period: int) -> frozenset[bytes]:
        # defined here so the traced benchmark can wrap it on this class
        return super().revoked_lvs(craca_id, series, period)

    def entries(self) -> list[LinkageRevocation | CertIdRevocation]:
        """Retained entries in arrival order."""
        return [e for crl in self._crls.values()
                for e in crl.linkage_entries + crl.certid_entries]

    def entry_count(self) -> int:
        return sum(crl.entry_count() for crl in self._crls.values())

    def snapshot_bytes(self) -> bytes:
        """Retained entries re-serialized in the grouped CRL wire layout,
        one unsigned list per (CRACA, series) that still holds entries."""
        out = bytearray()
        for crl in self.all_crls():
            if crl.entry_count():
                raw = replace(crl, crlg_cert_id=b"\x00" * 8).tbs_bytes()
                out += len(raw).to_bytes(4, "big")
                out += raw
        return bytes(out)


class Device:
    """One OBE or RSE end entity."""

    # the one dispatcher, bound here so that the traced benchmark finds a
    # ``handle`` in this class's own namespace
    handle = Component.handle

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
        self._pending_app_key: KeyPair | None = None
        self.provision_status: str | None = None
        self.last_deny_reason: str | None = None
        self.bsm_seq = 0
        self.received: list[tuple[bool, str]] = []
        self.reject_counts: dict[str, int] = {}
        self.mitm_detected = 0
        self._verified_certs: set[bytes] = set()
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
        self.handle_id = device_handle(self.enrollment_cert_bytes)
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
                self._apply_policy_file(name, bundle[name])
        self._bump_trust()

    def _apply_policy_file(self, name: str, data: bytes) -> bool:
        """Verify a signed policy ("gpf") or certificate chain ("gccf")
        file against the pinned policy generator and apply it if it is
        newer than the held version; returns True if it was applied."""
        artifact = check_policy_artifact(
            data, self.pg_cert, self.policy_versions.get(name, 0)
        )
        if artifact is None:
            return False
        self.policy_versions[name] = artifact.version
        if name == "gpf":
            self.policy = artifact.body
        else:
            for chain in artifact.body["chains"]:
                for raw in chain:
                    self.trust.store.add_cert(Certificate.decode(raw))
        return True

    def _bump_trust(self) -> None:
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
        (reason,) = fields(env.payload, reason=str)
        self.provision_status = "denied"
        self.last_deny_reason = reason

    # --- batch download and key reconstruction (steps 4-6, device side) ---

    def download_batch(self, period: int) -> None:
        self._via_lop("ra", "batch.request", {
            "handle": self.handle_id,
            "period": period,
            "reply_ref": self.rng.randbytes(8),
        })

    def on_batch_response(self, env) -> None:
        fields(env.payload)
        if "error" in env.payload:
            (error,) = fields(env.payload, error=str)
            self.provision_status = f"batch-{error}"
            return
        (items,) = fields(env.payload, items=list[bytes])
        for item in items:
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
        except (DecryptionError, ParseError):
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
        self._pending_app_key = KeyPair.generate(self.rng)
        request = {
            "ctype": int(ctype),
            "pubkey": self._pending_app_key.public.encode(),
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
        (certs,) = fields(env.payload, certs=list)
        if self._pending_app_key is None:
            raise ScmsError("no application certificate request is pending")
        decoded = [Certificate.decode(raw) for raw in certs]
        for cert, raw in zip(decoded, certs):
            self.app_certs.append({
                "cert": cert, "cert_bytes": raw,
                "priv": self._pending_app_key.private,
            })
        self._pending_app_key = None

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
        (bsm,) = fields(env.payload, bsm=bytes)
        ok, reason = self.validate_bsm(bsm)
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
        except ParseError:
            return False, "malformed-certificate"
        if not verify_message(msg, cert):
            return False, "bad-signature"
        if not cert.valid_at(self.clock.period):
            return False, "expired-period"
        # every CRL change empties the cache, so a cached certificate was
        # walked, its own CRL state included, against the current CRLs
        cache_key = cert.cert_id()
        if cache_key not in self._verified_certs:
            if not verify_chain(cert, self.trust.store).ok:
                if crl_check(cert, self.crl_store).is_revoked:
                    return False, "revoked"
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
        (data,) = fields(env.payload, data=bytes)
        for crl in decode_composite(data):
            if self.crl_store.add(crl):
                self._bump_trust()

    # --- root management and policy updates ---

    def on_ballot_publish(self, env) -> None:
        (raw,) = fields(env.payload, ballot=bytes)
        ballot = Ballot.decode(raw)
        if self.trust is not None and self.trust.process_ballot(ballot):
            self._bump_trust()

    def fetch_policy(self) -> None:
        """Pull the latest signed policy and chain files (over the air)."""
        self.bus.send(Envelope(self.id, "crlstore", "policy.fetch", {}))

    def on_policy_files(self, env) -> None:
        (files,) = fields(env.payload, files=dict)
        for name in ("gpf", "gccf"):
            data = files.get(name)
            if data is not None and self._apply_policy_file(name, data):
                if name == "gccf":
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
        (cert_bytes,) = fields(env.payload, cert=bytes)
        if self._pending_reenroll is None:
            return
        self.enrollment_key = self._pending_reenroll["key"]
        self.enrollment_cert_bytes = cert_bytes
        self.handle_id = device_handle(self.enrollment_cert_bytes)
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
