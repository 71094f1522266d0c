"""End-entity device lifecycle.

A device bootstraps through the DCM (out of band), then drives its own
credential lifecycle over the bus, always through the location obscurer
proxy for RA- and MA-bound traffic: it requests pseudonym certificates
with fresh caterpillar seeds, downloads weekly batches, verifies the
issuer's signature over each encrypted packet (catching response-key
substitution), reconstructs each private key and rejects any certificate
whose key check fails; failed packages are quarantined and reported.
Each request's caterpillar secrets are kept under its reply reference
with the periods it spans, and a batch opens with the latest request
that spans its period, so a top-off leaves earlier batches openable; a
``provision.deny`` drops only the unanswered request whose reply
reference it carries, so a refused request, a duplicate too, shadows no
accepted batch. The settings (batch size,
rotation minutes, CRL capacity) come only from the signed global policy
file: the bootstrap bundle carries the first, and a newer one fetched
over the air applies at once.

Operationally it signs basic safety messages under a rotating pseudonym
certificate, validates received messages (what depends on a BSM's bytes
once per broadcast; periods, trust chain and CRL state on every copy),
files encrypted misbehavior reports, and keeps the signed CRLs it
verified, under a capacity cap that evicts entries by priority, with
jurisdiction checks on which generator may revoke which series.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Mapping

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
    BSM_PSID,
    ENROLLMENT_TYPES,
    REVOKED_IN_CHAIN,
    CertIdRevocation,
    CertType,
    Certificate,
    Crl,
    CrlSet,
    LinkageRevocation,
    SignedMessage,
    check_crl_signature,
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

class DeviceCrlStore(CrlSet):
    """A device's CRL memory: a ``CrlSet`` with generator pinning and a
    capacity cap, which the device's policy file sets.

    A CRL is accepted only if its generator is pinned for that series and
    the signature verifies. The store keeps each CRL as it verified it,
    signed and decoded, so every holder of the same bytes shares its
    revoked values. When the held entries exceed the capacity, after an
    add or when the cap is set, ``trim`` evicts the lowest-priority entries
    first (oldest first within a priority class); an evicted entry revokes
    nothing, and a raised cap re-applies it at once.

    The device passes this store to its ``TrustState`` as ``crls``, so
    chain validation and BSM validation both read it through ``crl_check``.
    """

    def __init__(self, capacity: int):
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
        self.trim()
        return True

    def trim(self) -> None:
        """Evict the lowest-priority, oldest entries past the capacity."""
        entries = self.entries()
        if len(entries) <= self.capacity:
            self.evicted = frozenset()
            return
        # newest first, then stably by priority
        ranked = sorted(reversed(entries), key=lambda e: -e.priority)
        kept = ranked[: self.capacity]
        # equal entries are one revocation, which a kept copy keeps
        self.evicted = frozenset(ranked[self.capacity:]).difference(kept)

    def revoked_lvs(self, craca_id: bytes, series: int,
                    period: int) -> Mapping[bytes, LinkageRevocation]:
        # defined here so the traced benchmark can wrap it on this class
        return super().revoked_lvs(craca_id, series, period)

    def entries(self) -> list[LinkageRevocation | CertIdRevocation]:
        """Every held entry in arrival order: per CRL, linkage then certid."""
        return [e for crl in self._crls.values()
                for e in crl.linkage_entries + crl.certid_entries]


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
    ):
        self.id = device_id
        self.bus = bus
        self.clock = bus.clock
        self.rng = rng.child(device_id)
        self.model = model
        self.bus.register(device_id, self)

        self.enrollment_key: KeyPair | None = None
        self.enrollment_cert_bytes: bytes | None = None
        self.handle_id: str | None = None
        self.trust: TrustState | None = None
        # the settings, set by the policy file the bootstrap bundle carries
        self.batch_size: int | None = None
        self.rotation_minutes: int | None = None
        self.crl_store = DeviceCrlStore(capacity=0)
        self.pca_cert: Certificate | None = None
        self.ma_enc_key = None
        self.ra_enc_key = None
        self.pg_cert: Certificate | None = None
        self.policy_versions: dict[str, int] = {}

        # reply reference of each certificate request -> the periods it
        # spans, its secrets (a, h, k_sign, k_enc) and whether the RA has
        # acknowledged it
        self.cert_requests: dict[
            bytes, tuple[range, tuple[int, int, bytes, bytes], bool]] = {}
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
        self.trust = TrustState(electors, crls=self.crl_store)
        for raw in bundle["roots"]:
            cert = Certificate.decode(raw)
            self.trust.add_cert(cert)
            self.trust.endorse_root(cert.cert_id())
        for name in ("ica", "pca", "eca", "ma", "pg", "crlg"):
            self.trust.add_cert(Certificate.decode(bundle[name]))
        self.pca_cert = Certificate.decode(bundle["pca"])
        ma_cert = Certificate.decode(bundle["ma"])
        ra_cert = Certificate.decode(bundle["ra"])
        self.trust.add_cert(ra_cert)
        self.ma_enc_key = ma_cert.enc_key
        self.ra_enc_key = ra_cert.enc_key
        self.pg_cert = Certificate.decode(bundle["pg"])
        crlg_cert = Certificate.decode(bundle["crlg"])
        self.crl_store.pin_generator(crlg_cert, bundle["crlg_series"])
        for name in ("gpf", "gccf"):
            self._apply_policy_file(name, bundle[name])
        if self.rotation_minutes is None:
            raise ScmsError("the bundle's policy file does not verify")

    def _apply_policy_file(self, name: str, data: bytes) -> None:
        """Verify a signed policy ("gpf") or certificate chain ("gccf")
        file against the pinned policy generator and apply it if it is
        that kind of file and newer than the held version; a policy file's
        CRL cap binds at once. A body without its chains or its settings
        (each an int, none negative, rotation at least one minute) raises
        ``ParseError`` before any state changes."""
        checked = check_policy_artifact(
            data, self.pg_cert, self.policy_versions.get(name, 0), name
        )
        if checked is None:
            return
        version, body = checked
        if name == "gpf":
            batch_size, rotation, capacity = fields(
                body, batch_size=int, rotation_minutes=int, crl_capacity=int)
            if batch_size < 0 or capacity < 0 or rotation < 1:
                raise ParseError("policy file setting out of range", 0)
            self.policy_versions[name] = version
            self.batch_size, self.rotation_minutes = batch_size, rotation
            self.crl_store.capacity = capacity
            self.crl_store.trim()
            return
        (chains,) = fields(body, chains=list[list])
        certs = [Certificate.decode(raw) for chain in chains for raw in chain]
        self.policy_versions[name] = version
        for cert in certs:
            self.trust.add_cert(cert)

    @property
    def bootstrapped(self) -> bool:
        return self.enrollment_cert_bytes is not None

    # --- messaging helpers ---

    def _via_lop(self, dst: str, mtype: str, body: dict) -> None:
        self.bus.send(Envelope(self.id, "lop", "lop.fwd", {
            "dst": dst, "mtype": mtype, "body": body,
        }))

    def _send_signed(self, mtype: str, payload: bytes) -> bytes:
        """Sign ``payload`` with the enrollment key and send it to the RA,
        sealed to the RA's encryption key, with a fresh reply reference,
        which it returns."""
        msg = sign_message(
            self.enrollment_key.private,
            Certificate.decode(self.enrollment_cert_bytes), payload,
        )
        blob = hybrid_encrypt(
            self.ra_enc_key, encode({"req": msg.encode()}), self.rng
        ).encode()
        reply_ref = self.rng.randbytes(8)
        self._via_lop("ra", mtype, {"blob": blob, "reply_ref": reply_ref})
        return reply_ref

    def _report_to_ma(self, report: dict) -> None:
        """Seal a misbehavior report to the MA; the RA that relays it only
        ever sees the ciphertext."""
        blob = hybrid_encrypt(self.ma_enc_key, encode(report), self.rng).encode()
        self._via_lop("ra", "mb.report", {"blob": blob})

    # --- certificate request (step 1) ---

    def request_certs(self, start: int, n_periods: int,
                      j_max: int | None = None) -> None:
        """``j_max`` certificates a period, by default the batch size."""
        if not self.bootstrapped:
            raise ScmsError("device is not bootstrapped")
        if j_max is None:
            j_max = self.batch_size
        a = self.rng.scalar()
        h = self.rng.scalar()
        k_sign, k_enc = self.rng.randbytes(16), self.rng.randbytes(16)
        # a request whose span the clock has passed is dropped
        period = self.clock.period
        self.cert_requests = {ref: held for ref, held
                              in self.cert_requests.items()
                              if held[0].stop > period}
        request = {
            "A": mul_g(a).encode(),
            "H": mul_g(h).encode(),
            "k_sign": k_sign,
            "k_enc": k_enc,
            "start": start,
            "n_periods": n_periods,
            "j_max": j_max,
            "psid": BSM_PSID,
        }
        reply_ref = self._send_signed("provision.request", encode(request))
        self.cert_requests[reply_ref] = (
            range(start, start + n_periods),
            (a.value, h.value, k_sign, k_enc), False)

    def on_provision_ack(self, env) -> None:
        (reply_ref,) = fields(env.payload, reply_ref=bytes)
        held = self.cert_requests.get(reply_ref)
        if held is not None:
            span, secrets, _ = held
            self.cert_requests[reply_ref] = (span, secrets, True)
        self.provision_status = "acknowledged"

    def on_provision_deny(self, env) -> None:
        reply_ref, reason = fields(env.payload, reply_ref=bytes, reason=str)
        # a refused request's secrets would shadow an accepted request's
        # batches for the periods both spans hold; an acknowledged request
        # stays
        held = self.cert_requests.get(reply_ref)
        if held is not None and not held[2]:
            del self.cert_requests[reply_ref]
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
        # each package is opened by a kernel; the commits install or
        # quarantine in order (see scms.bus)
        fields(env.payload)
        if "error" in env.payload:
            (error,) = fields(env.payload, error=str)
            status = f"batch-{error}"
            self.bus.defer(None, (), lambda _: setattr(
                self, "provision_status", status))
            return
        period, items = fields(env.payload, period=int, items=list[bytes])
        # the latest request that spans the batch's period
        secrets = next((secrets for span, secrets, _
                        in reversed(self.cert_requests.values())
                        if period in span), None)
        if secrets is None:
            raise ScmsError("no certificate request spans this period")
        for item in items:
            self.bus.defer(open_package, (item, self.pca_cert, secrets),
                           functools.partial(self._install, item))

    def _install(self, package_bytes: bytes, opened) -> None:
        """Install what ``open_package`` returned, or quarantine the
        package under the reason it returned instead."""
        if type(opened) is str:
            if opened == ISSUER_MISMATCH:
                self.mitm_detected += 1
            self._quarantine(package_bytes, opened)
            return
        i, j, cert, b_prime = opened
        self.certs.setdefault(i, []).append({
            "cert": cert,
            "priv": Scalar(b_prime),
            "j": j,
        })

    def _quarantine(self, package_bytes: bytes, reason: str) -> None:
        self.quarantined.append({
            "digest": hashlib.sha256(package_bytes).digest(),
            "reason": reason,
        })
        if self.ma_enc_key is not None:
            self._report_to_ma({
                "kind": "install-failure",
                "evidence": hashlib.sha256(package_bytes).digest(),
                "reason": reason,
            })

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
        self._send_signed("app.request", encode(request))

    def on_app_issued(self, env) -> None:
        (certs,) = fields(env.payload, certs=list)
        if self._pending_app_key is None:
            raise ScmsError("no application certificate request is pending")
        decoded = [Certificate.decode(raw) for raw in certs]
        for cert in decoded:
            self.app_certs.append({
                "cert": cert, "priv": self._pending_app_key.private,
            })
        self._pending_app_key = None

    # --- BSM signing with rotation ---

    def current_certs(self) -> list[dict]:
        return [
            c for c in self.certs.get(self.clock.period, [])
            if c["cert"].valid_at(self.clock.period)
        ]

    def signing_cert(self) -> dict | None:
        """The current certificate that the rotation schedule picks for this
        minute, or None if the device holds none for this period."""
        available = self.current_certs()
        if not available:
            return None
        slot = self.clock.minute // self.rotation_minutes
        return available[slot % len(available)]

    def sign_bsm(self, position: list[int], speed: int) -> bytes | None:
        chosen = self.signing_cert()
        if chosen is None:
            return None
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
        payload = {"bsm": bsm}  # one value for every copy (scms.bus)
        for peer in peers:
            self.bus.send(Envelope(self.id, peer, "bsm", payload))
        return bsm

    # --- received-message validation ---

    def on_bsm(self, env) -> None:
        (bsm,) = fields(env.payload, bsm=bytes)
        ok, reason = self.validate_bsm(bsm)
        self.received.append((ok, reason))
        if not ok:
            self.reject_counts[reason] = self.reject_counts.get(reason, 0) + 1

    def validate_bsm(self, bsm_bytes: bytes) -> tuple[bool, str]:
        """(True, "ok"), or False and the reject reason. The checks that
        depend only on the bytes run once per broadcast (``_signed_bsm``);
        the period checks and the chain walk, with its CRL and root state,
        run on every copy."""
        signed = _signed_bsm(bsm_bytes)
        if type(signed) is str:
            return False, signed
        cert, generated = signed
        period = self.clock.period
        if not cert.valid_at(period):
            return False, "expired-period"
        if generated != period:
            return False, "wrong-period"
        chain = verify_chain(cert, self.trust)
        if not chain.ok:
            if chain.reason == REVOKED_IN_CHAIN:
                return False, "revoked"
            return False, "untrusted-chain"
        return True, "ok"

    # --- misbehavior reporting ---

    def report_misbehavior(self, bsm_bytes: bytes) -> None:
        """Report a received BSM to the MA."""
        msg = SignedMessage.decode(bsm_bytes)
        evidence = hashlib.sha256(bsm_bytes).digest()
        chosen = self.signing_cert()
        if chosen is None:
            raise ScmsError("no pseudonym certificate to sign the report")
        reporter = sign_message(chosen["priv"], chosen["cert"], evidence)
        self._report_to_ma({
            "kind": "bsm",
            "reported_cert": msg.cert_bytes,
            "evidence": evidence,
            "reporter": reporter.encode(),
        })

    # --- CRL retrieval and storage ---

    def fetch_crl(self) -> None:
        self.bus.send(Envelope(self.id, "crlstore", "crl.fetch", {}))

    def on_crl_composite(self, env) -> None:
        (data,) = fields(env.payload, data=bytes)
        for crl in decode_composite(data):
            self.crl_store.add(crl)

    # --- root management and policy updates ---

    def on_ballot_publish(self, env) -> None:
        (raw,) = fields(env.payload, ballot=bytes)
        ballot = Ballot.decode(raw)
        if self.trust is not None:
            self.trust.process_ballot(ballot)

    def fetch_policy(self) -> None:
        """Pull the latest signed policy and chain files (over the air)."""
        self.bus.send(Envelope(self.id, "crlstore", "policy.fetch", {}))

    def on_policy_files(self, env) -> None:
        (files,) = fields(env.payload, files=dict)
        for name in ("gpf", "gccf"):
            data = files.get(name)
            if data is not None:
                self._apply_policy_file(name, data)

    # --- re-enrollment ---

    def reenroll_reestablish(self) -> None:
        """Roll over to a new enrollment certificate signed with the old."""
        new_key = KeyPair.generate(self.rng)
        self._pending_reenroll = {"key": new_key}
        self._send_signed("reenroll.request",
                          encode({"new_pub": new_key.public.encode()}))

    def on_reenroll_issued(self, env) -> None:
        (cert_bytes,) = fields(env.payload, cert=bytes)
        if self._pending_reenroll is None:
            return
        cert = Certificate.decode(cert_bytes)
        if (cert.ctype not in ENROLLMENT_TYPES
                or cert.subject_key != self._pending_reenroll["key"].public
                or not verify_chain(cert, self.trust).ok):
            raise ScmsError("not an enrollment certificate for the pending "
                            "key that chains to a trusted root")
        self.enrollment_key = self._pending_reenroll["key"]
        self.enrollment_cert_bytes = cert_bytes
        self.handle_id = device_handle(self.enrollment_cert_bytes)
        self._pending_reenroll = None
        self.provision_status = "re-enrolled"

    def rebootstrap(self, dcm) -> None:
        """Factory reset followed by a fresh bootstrap."""
        self.cert_requests.clear()
        self.certs.clear()
        self.quarantined.clear()
        self.app_certs.clear()
        self.bootstrap(dcm)


# BSM encodings whose verdicts _signed_bsm keeps. Every receiver in range
# checks the same bytes, and the copies of one broadcast arrive back to
# back: on v2x_traffic seed 1, 8,960 of 10,240 validations hit the memo.
BSM_MEMO_SIZE = 64


@functools.lru_cache(maxsize=BSM_MEMO_SIZE)
def _signed_bsm(bsm_bytes: bytes) -> tuple[Certificate, int] | str:
    """The signing certificate of a BSM and the period its payload claims,
    or the reason to reject it: every check that depends on the bytes
    alone, so its verdict holds at every receiver."""
    try:
        msg = SignedMessage.decode(bsm_bytes)
    except ParseError:
        return "malformed"
    if msg.cert_bytes is None:
        return "missing-certificate"
    try:
        cert = Certificate.decode(msg.cert_bytes)
    except ParseError:
        return "malformed-certificate"
    if not verify_message(msg, cert):
        return "bad-signature"
    # the enrollment certificate identifies its device, and no CRL entry
    # a receiver holds revokes it: a BSM is signed under a pseudonym
    if cert.ctype != CertType.OBE_PSEUDONYM:
        return "not-pseudonym"
    if cert.psid != BSM_PSID:
        return "wrong-psid"
    try:
        generated = fields(decode(msg.payload), p=int, m=int,
                           pos=list[int], speed=int, seq=int)[0]
    except ParseError:
        return "malformed-payload"
    return cert, generated


# the quarantine reason that also counts as a detected key substitution
ISSUER_MISMATCH = "issuer signature mismatch"


def open_package(package_bytes: bytes, pca_cert: Certificate,
                 secrets: tuple[int, int, bytes, bytes]):
    """Open one PCA package with the caterpillar ``secrets`` (a, h, k_sign,
    k_enc), a pure kernel: check the issuer's signature, decrypt with the
    slot's cocoon key, decode the certificate, reconstruct the private key
    and check it against the certificate's key. Returns (i, j, certificate,
    private key value), or the reason to quarantine."""
    try:
        package = SignedMessage.decode(package_bytes)
    except ParseError:
        return "unparseable package"
    if package.cert_id != pca_cert.cert_id() or not verify_message(
        package, pca_cert
    ):
        # covers the response-key substitution attack: the issuer's
        # signature no longer matches the delivered ciphertext
        return ISSUER_MISMATCH
    # a signed package is still outside input: its fields are checked
    # before use, and a bad one quarantines only this package
    try:
        i, j, ct = fields(decode(package.payload), i=int, j=int, ct=bytes)
        index = TimeIndex(i, j)
    except (ParseError, ValueError):
        return "malformed package"
    a, h, k_sign, k_enc = secrets
    enc_priv = cocoon_private(Scalar(h), k_enc, ENCRYPTION, index)
    try:
        plain = hybrid_decrypt(enc_priv, HybridCiphertext.decode(ct))
    except (DecryptionError, ParseError):
        return "response decryption failed"
    try:
        cert_bytes, c = fields(decode(plain), cert=bytes, c=bytes)
        cert = Certificate.decode(cert_bytes)
        recon = ReconstructionValue(Scalar.from_bytes(c))
    except (ParseError, ValueError):
        return "malformed package"
    b_prime = reconstruct_private(Scalar(a), k_sign, index, recon)
    if mul_g(b_prime) != cert.subject_key:
        return "reconstructed key mismatch"
    if cert.valid_from != index.i or cert.linkage_value is None:
        return "certificate content mismatch"
    return i, j, cert, b_prime.value
