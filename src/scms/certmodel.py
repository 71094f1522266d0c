"""Certificates, signed messages, CRLs and chain validation.

Five end-entity certificate types plus CA/component and elector
certificates, each with feature-flag conformance (a pseudonym certificate
must carry a linkage value and no subject identifier, only online RSE
application certificates carry an encryption key, and so on).

Message signing binds the signature to the signing certificate by hashing
the certificate into the signed digest, which defeats certificate
misbinding: a signature produced under one certificate never verifies
under another, even for the same key.

Wire formats are canonical fixed binary layouts (documented field by field
below); CertId is the 8-byte truncated hash of the full encoding. CRLs
carry linkage-seed entries grouped by LA-id pair plus flat CertId entries,
are signed by the CRL generator, and are distributed per (CRACA, series)
so a receiver checks exactly one sequence per certificate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import IntEnum

from .crypto import GroupElement, Scalar, sign, verify
from .errors import ParseError
from .linkage import LV_BYTES, RevocationEntry, expand_revocation_entry

CERT_MAGIC = b"SC"
CRL_MAGIC = b"CR"
CERT_ID_BYTES = 8
SIG_BYTES = 64


class CertType(IntEnum):
    OBE_ENROLLMENT = 0
    OBE_PSEUDONYM = 1
    OBE_IDENTIFICATION = 2
    RSE_ENROLLMENT = 3
    RSE_APPLICATION = 4
    COMPONENT = 5
    ELECTOR = 6


# Types whose holders stay pseudonymous: no subject identifier allowed.
_PSEUDONYMOUS = {CertType.OBE_ENROLLMENT, CertType.OBE_PSEUDONYM}
# Types allowed to carry an encryption key.
_MAY_ENCRYPT = {CertType.RSE_APPLICATION, CertType.COMPONENT, CertType.ELECTOR}

# Default CRL series assignment; configurable via SeriesConfig.
SERIES_PSEUDONYM = 1
SERIES_COMPONENT = 2
SERIES_APPLICATION = 3  # identification + RSE application
SERIES_ENROLLMENT = 4
SERIES_ROOT_MANAGED = 256  # PG / CRLG / MA, CRACA = root


@dataclass(frozen=True)
class SeriesConfig:
    pseudonym: int = SERIES_PSEUDONYM
    component: int = SERIES_COMPONENT
    application: int = SERIES_APPLICATION
    enrollment: int = SERIES_ENROLLMENT
    root_managed: int = SERIES_ROOT_MANAGED

    def for_type(self, ctype: CertType, root_managed: bool = False) -> int:
        if root_managed:
            return self.root_managed
        if ctype == CertType.OBE_PSEUDONYM:
            return self.pseudonym
        if ctype in (CertType.OBE_ENROLLMENT, CertType.RSE_ENROLLMENT):
            return self.enrollment
        if ctype in (CertType.OBE_IDENTIFICATION, CertType.RSE_APPLICATION):
            return self.application
        return self.component


# signature algorithm tags (heterogeneous electors)
ALG_DEFAULT = 0
ALG_DOMAIN_SEP = 1
_ALG1_PREFIX = b"scms-sig-domain-1|"


def digest_for_alg(alg: int, data: bytes) -> bytes:
    if alg == ALG_DEFAULT:
        return hashlib.sha256(data).digest()
    if alg == ALG_DOMAIN_SEP:
        return hashlib.sha256(_ALG1_PREFIX + data).digest()
    raise ValueError(f"unknown signature algorithm tag {alg}")


@dataclass(frozen=True)
class Certificate:
    """Explicit certificate with per-type feature flags.

    Binary layout (version 1):
        magic "SC" (2) | version (1) | ctype (1) | alg (1) | flags (1) |
        subject_key (33) | valid_from (4) | valid_to (4) | psid (4) |
        craca_id (8) | crl_series (2) | issuer_id (8) |
        [enc_key (33)] [linkage_value (9)] [subject_info: len (2) + bytes] |
        signature (64)
    flags: bit0 enc_key, bit1 linkage, bit2 subject_info, bit3 self-signed.
    """

    ctype: CertType
    subject_key: GroupElement
    valid_from: int
    valid_to: int
    psid: int
    craca_id: bytes
    crl_series: int
    issuer_id: bytes  # 8 bytes; all-zero for self-signed
    enc_key: GroupElement | None = None
    linkage_value: bytes | None = None
    subject_info: str | None = None
    self_signed: bool = False
    alg: int = ALG_DEFAULT
    signature: bytes | None = None

    def __post_init__(self):
        if self.ctype == CertType.OBE_PSEUDONYM:
            if self.linkage_value is None:
                raise ValueError("pseudonym certificate requires a linkage value")
        elif self.linkage_value is not None:
            raise ValueError(
                f"{self.ctype.name} certificate must not carry a linkage value"
            )
        if self.linkage_value is not None and len(self.linkage_value) != LV_BYTES:
            raise ValueError(f"linkage value must be {LV_BYTES} bytes")
        if self.enc_key is not None and self.ctype not in _MAY_ENCRYPT:
            raise ValueError(
                f"{self.ctype.name} certificate must not carry an encryption key"
            )
        if self.subject_info is not None and self.ctype in _PSEUDONYMOUS:
            raise ValueError(
                f"{self.ctype.name} certificate must not carry an identifier"
            )
        if len(self.craca_id) != CERT_ID_BYTES or len(self.issuer_id) != CERT_ID_BYTES:
            raise ValueError("craca_id and issuer_id must be 8 bytes")
        if self.valid_from > self.valid_to:
            raise ValueError("validity period is inverted")

    # --- encoding ---

    def tbs_bytes(self) -> bytes:
        flags = (
            (1 if self.enc_key is not None else 0)
            | (2 if self.linkage_value is not None else 0)
            | (4 if self.subject_info is not None else 0)
            | (8 if self.self_signed else 0)
        )
        out = bytearray()
        out += CERT_MAGIC
        out.append(1)
        out.append(int(self.ctype))
        out.append(self.alg)
        out.append(flags)
        out += self.subject_key.encode()
        out += self.valid_from.to_bytes(4, "big")
        out += self.valid_to.to_bytes(4, "big")
        out += self.psid.to_bytes(4, "big")
        out += self.craca_id
        out += self.crl_series.to_bytes(2, "big")
        out += self.issuer_id
        if self.enc_key is not None:
            out += self.enc_key.encode()
        if self.linkage_value is not None:
            out += self.linkage_value
        if self.subject_info is not None:
            raw = self.subject_info.encode()
            out += len(raw).to_bytes(2, "big")
            out += raw
        return bytes(out)

    def encode(self) -> bytes:
        if self.signature is None:
            raise ValueError("cannot encode an unsigned certificate")
        return self.tbs_bytes() + self.signature

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        if len(data) < 69 + SIG_BYTES:
            raise ParseError("certificate too short", len(data))
        if data[:2] != CERT_MAGIC:
            raise ParseError("bad certificate magic", 0)
        if data[2] != 1:
            raise ParseError(f"unsupported certificate version {data[2]}", 2)
        try:
            ctype = CertType(data[3])
        except ValueError:
            raise ParseError(f"unknown certificate type {data[3]}", 3) from None
        alg = data[4]
        flags = data[5]
        subject_key = GroupElement.decode(data[6:39])
        valid_from = int.from_bytes(data[39:43], "big")
        valid_to = int.from_bytes(data[43:47], "big")
        psid = int.from_bytes(data[47:51], "big")
        craca_id = data[51:59]
        crl_series = int.from_bytes(data[59:61], "big")
        issuer_id = data[61:69]
        pos = 69
        enc_key = linkage_value = subject_info = None
        if flags & 1:
            if pos + 33 > len(data):
                raise ParseError("truncated encryption key", pos)
            enc_key = GroupElement.decode(data[pos : pos + 33])
            pos += 33
        if flags & 2:
            if pos + LV_BYTES > len(data):
                raise ParseError("truncated linkage value", pos)
            linkage_value = data[pos : pos + LV_BYTES]
            pos += LV_BYTES
        if flags & 4:
            if pos + 2 > len(data):
                raise ParseError("truncated subject info length", pos)
            slen = int.from_bytes(data[pos : pos + 2], "big")
            pos += 2
            if pos + slen > len(data):
                raise ParseError("truncated subject info", pos)
            subject_info = data[pos : pos + slen].decode()
            pos += slen
        if pos + SIG_BYTES != len(data):
            raise ParseError("certificate length mismatch", pos)
        return cls(
            ctype=ctype,
            subject_key=subject_key,
            valid_from=valid_from,
            valid_to=valid_to,
            psid=psid,
            craca_id=craca_id,
            crl_series=crl_series,
            issuer_id=issuer_id,
            enc_key=enc_key,
            linkage_value=linkage_value,
            subject_info=subject_info,
            self_signed=bool(flags & 8),
            alg=alg,
            signature=data[pos:],
        )

    def cert_id(self) -> bytes:
        return hashlib.sha256(self.encode()).digest()[:CERT_ID_BYTES]

    def valid_at(self, period: int) -> bool:
        return self.valid_from <= period <= self.valid_to


def issue_certificate(cert: Certificate, issuer_priv: Scalar, issuer_alg: int = ALG_DEFAULT) -> Certificate:
    """Attach the issuer's signature over the to-be-signed bytes."""
    sig = sign(issuer_priv, digest_for_alg(issuer_alg, cert.tbs_bytes()))
    return replace(cert, signature=sig)


def check_cert_signature(cert: Certificate, issuer: Certificate) -> bool:
    if cert.signature is None:
        return False
    digest = digest_for_alg(issuer.alg, cert.tbs_bytes())
    return verify(issuer.subject_key, digest, cert.signature)


# --- misbinding-resistant message signing ---


@dataclass(frozen=True)
class SignedMessage:
    """Payload signed under a specific certificate.

    The signed digest is H(payload || H(certificate)), so presenting the
    same signature with any other certificate fails verification.
    The certificate travels inline (cert_bytes) or by 8-byte reference.
    """

    payload: bytes
    cert_id: bytes
    signature: bytes
    cert_bytes: bytes | None = None

    def encode(self) -> bytes:
        out = bytearray()
        out += len(self.payload).to_bytes(4, "big")
        out += self.payload
        out += self.cert_id
        if self.cert_bytes is None:
            out += (0).to_bytes(4, "big")
        else:
            out += len(self.cert_bytes).to_bytes(4, "big")
            out += self.cert_bytes
        out += self.signature
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "SignedMessage":
        if len(data) < 4:
            raise ParseError("signed message too short", 0)
        plen = int.from_bytes(data[:4], "big")
        pos = 4 + plen
        if pos + CERT_ID_BYTES + 4 > len(data):
            raise ParseError("truncated signed message", pos)
        payload = data[4:pos]
        cert_id = data[pos : pos + CERT_ID_BYTES]
        pos += CERT_ID_BYTES
        clen = int.from_bytes(data[pos : pos + 4], "big")
        pos += 4
        cert_bytes = None
        if clen:
            if pos + clen > len(data):
                raise ParseError("truncated certificate", pos)
            cert_bytes = data[pos : pos + clen]
            pos += clen
        if pos + SIG_BYTES != len(data):
            raise ParseError("signed message length mismatch", pos)
        return cls(payload, cert_id, data[pos:], cert_bytes)


def message_digest(payload: bytes, cert_bytes: bytes, alg: int = ALG_DEFAULT) -> bytes:
    bound = payload + hashlib.sha256(cert_bytes).digest()
    return digest_for_alg(alg, bound)


def sign_message(
    priv: Scalar, cert: Certificate, payload: bytes, attach_cert: bool = True
) -> SignedMessage:
    cert_bytes = cert.encode()
    sig = sign(priv, message_digest(payload, cert_bytes, cert.alg))
    return SignedMessage(
        payload=payload,
        cert_id=cert.cert_id(),
        signature=sig,
        cert_bytes=cert_bytes if attach_cert else None,
    )


def verify_message(msg: SignedMessage, cert: Certificate) -> bool:
    """Check the signature against one specific certificate."""
    cert_bytes = cert.encode()
    if hashlib.sha256(cert_bytes).digest()[:CERT_ID_BYTES] != msg.cert_id:
        return False
    digest = message_digest(msg.payload, cert_bytes, cert.alg)
    return verify(cert.subject_key, digest, msg.signature)


# --- CRLs ---


class Priority(IntEnum):
    NORMAL = 0
    HIGH = 1
    KEY_COMPROMISE = 2


@dataclass(frozen=True)
class LinkageRevocation:
    """One revoked device: both seeds at the revocation period."""

    i: int
    ls1: bytes
    ls2: bytes
    la_id1: bytes
    la_id2: bytes
    j_max: int
    priority: int = Priority.NORMAL
    region: int | None = None

    def to_entry(self) -> RevocationEntry:
        return RevocationEntry(
            i=self.i, ls1=self.ls1, ls2=self.ls2,
            la_id1=self.la_id1, la_id2=self.la_id2, j_max=self.j_max,
        )


@dataclass(frozen=True)
class CertIdRevocation:
    cert_id: bytes
    priority: int = Priority.NORMAL
    region: int | None = None


@dataclass
class Crl:
    """Signed revocation list for one (CRACA, series) sequence.

    Binary layout (version 1):
        magic "CR" (2) | version (1) | series (2) | craca_id (8) |
        issue_period (4) | sequence (4) | crlg_cert_id (8) |
        n_groups (2) | groups | n_certids (4) | certid entries |
        signature (64)
    group: la_id1 (4) | la_id2 (4) | i (4) | j_max (2) | n_devices (2) |
           per device: ls1 (16) | ls2 (16) | priority (1) | region (1)
    certid entry: cert_id (8) | priority (1) | region (1)
    region byte 0xff means no hint.
    """

    series: int
    craca_id: bytes
    issue_period: int
    sequence: int
    crlg_cert_id: bytes
    linkage_entries: list[LinkageRevocation] = field(default_factory=list)
    certid_entries: list[CertIdRevocation] = field(default_factory=list)
    signature: bytes | None = None

    def entry_count(self) -> int:
        return len(self.linkage_entries) + len(self.certid_entries)

    def linkage_groups(self) -> dict[tuple, list[LinkageRevocation]]:
        """Linkage entries grouped by (la_id1, la_id2, i, j_max), in first
        appearance order, as the wire layout carries them."""
        groups: dict[tuple, list[LinkageRevocation]] = {}
        for entry in self.linkage_entries:
            key = (entry.la_id1, entry.la_id2, entry.i, entry.j_max)
            groups.setdefault(key, []).append(entry)
        return groups

    def tbs_bytes(self) -> bytes:
        groups = self.linkage_groups()
        out = bytearray()
        out += CRL_MAGIC
        out.append(1)
        out += self.series.to_bytes(2, "big")
        out += self.craca_id
        out += self.issue_period.to_bytes(4, "big")
        out += self.sequence.to_bytes(4, "big")
        out += self.crlg_cert_id
        out += len(groups).to_bytes(2, "big")
        for (la1, la2, i, j_max), members in groups.items():
            out += la1
            out += la2
            out += i.to_bytes(4, "big")
            out += j_max.to_bytes(2, "big")
            out += len(members).to_bytes(2, "big")
            for m in members:
                out += m.ls1
                out += m.ls2
                out.append(m.priority)
                out.append(0xFF if m.region is None else m.region)
        out += len(self.certid_entries).to_bytes(4, "big")
        for c in self.certid_entries:
            out += c.cert_id
            out.append(c.priority)
            out.append(0xFF if c.region is None else c.region)
        return bytes(out)

    def encode(self) -> bytes:
        if self.signature is None:
            raise ValueError("cannot encode an unsigned CRL")
        return self.tbs_bytes() + self.signature

    @classmethod
    def decode(cls, data: bytes) -> "Crl":
        if len(data) < 35 + SIG_BYTES:
            raise ParseError("CRL too short", len(data))
        if data[:2] != CRL_MAGIC:
            raise ParseError("bad CRL magic", 0)
        if data[2] != 1:
            raise ParseError(f"unsupported CRL version {data[2]}", 2)
        series = int.from_bytes(data[3:5], "big")
        craca_id = data[5:13]
        issue_period = int.from_bytes(data[13:17], "big")
        sequence = int.from_bytes(data[17:21], "big")
        crlg_cert_id = data[21:29]
        n_groups = int.from_bytes(data[29:31], "big")
        pos = 31
        linkage_entries = []
        for _ in range(n_groups):
            if pos + 16 > len(data):
                raise ParseError("truncated CRL group header", pos)
            la1 = data[pos : pos + 4]
            la2 = data[pos + 4 : pos + 8]
            i = int.from_bytes(data[pos + 8 : pos + 12], "big")
            j_max = int.from_bytes(data[pos + 12 : pos + 14], "big")
            n_dev = int.from_bytes(data[pos + 14 : pos + 16], "big")
            pos += 16
            for _ in range(n_dev):
                if pos + 34 > len(data):
                    raise ParseError("truncated CRL linkage entry", pos)
                region = data[pos + 33]
                linkage_entries.append(
                    LinkageRevocation(
                        i=i,
                        ls1=data[pos : pos + 16],
                        ls2=data[pos + 16 : pos + 32],
                        la_id1=la1,
                        la_id2=la2,
                        j_max=j_max,
                        priority=data[pos + 32],
                        region=None if region == 0xFF else region,
                    )
                )
                pos += 34
        if pos + 4 > len(data):
            raise ParseError("truncated CRL certid count", pos)
        n_certids = int.from_bytes(data[pos : pos + 4], "big")
        pos += 4
        certid_entries = []
        for _ in range(n_certids):
            if pos + 10 > len(data):
                raise ParseError("truncated CRL certid entry", pos)
            region = data[pos + 9]
            certid_entries.append(
                CertIdRevocation(
                    cert_id=data[pos : pos + 8],
                    priority=data[pos + 8],
                    region=None if region == 0xFF else region,
                )
            )
            pos += 10
        if pos + SIG_BYTES != len(data):
            raise ParseError("CRL length mismatch", pos)
        return cls(
            series=series,
            craca_id=craca_id,
            issue_period=issue_period,
            sequence=sequence,
            crlg_cert_id=crlg_cert_id,
            linkage_entries=linkage_entries,
            certid_entries=certid_entries,
            signature=data[pos:],
        )


def sign_crl(crl: Crl, crlg_priv: Scalar, crlg_cert: Certificate) -> Crl:
    crl.crlg_cert_id = crlg_cert.cert_id()
    digest = message_digest(crl.tbs_bytes(), crlg_cert.encode())
    crl.signature = sign(crlg_priv, digest)
    return crl


def check_crl_signature(crl: Crl, crlg_cert: Certificate) -> bool:
    if crl.signature is None or crl.crlg_cert_id != crlg_cert.cert_id():
        return False
    digest = message_digest(crl.tbs_bytes(), crlg_cert.encode())
    return verify(crlg_cert.subject_key, digest, crl.signature)


class CrlSet:
    """Latest CRL per (craca_id, series), with one cache of expanded
    revocations.

    CRLs are kept in arrival order: a newer CRL for a key replaces the old
    one and moves to the end. The cache holds the revoked linkage values
    per (craca_id, series, period) and the revoked certificate ids per
    (craca_id, series, None); any change to the set empties it, so no
    cached value outlives the CRL it came from.
    """

    def __init__(self):
        self._crls: dict[tuple[bytes, int], Crl] = {}
        self._cache: dict[tuple, frozenset[bytes]] = {}

    def add(self, crl: Crl) -> bool:
        """Keep only the highest sequence number per series; returns True
        if the set changed."""
        key = (crl.craca_id, crl.series)
        current = self._crls.get(key)
        if current is not None and current.sequence >= crl.sequence:
            return False
        self._crls.pop(key, None)  # re-insert last: dict order is arrival order
        self._crls[key] = crl
        self._cache.clear()
        return True

    def get(self, craca_id: bytes, series: int) -> Crl | None:
        return self._crls.get((craca_id, series))

    def has_crl(self, craca_id: bytes, series: int) -> bool:
        return (craca_id, series) in self._crls

    def all_crls(self) -> list[Crl]:
        return [self._crls[k] for k in sorted(self._crls, key=str)]

    def revoked_lvs(self, craca_id: bytes, series: int, period: int) -> frozenset[bytes]:
        crl = self.get(craca_id, series)
        if crl is None:
            return frozenset()
        key = (craca_id, series, period)
        cached = self._cache.get(key)
        if cached is None:
            values = set()
            for entry in crl.linkage_entries:
                if entry.i <= period:
                    for lv in expand_revocation_entry(entry.to_entry(), period):
                        values.add(lv.value)
            cached = self._cache[key] = frozenset(values)
        return cached

    def revoked_cert_ids(self, craca_id: bytes, series: int) -> frozenset[bytes]:
        crl = self.get(craca_id, series)
        if crl is None:
            return frozenset()
        key = (craca_id, series, None)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = frozenset(
                c.cert_id for c in crl.certid_entries
            )
        return cached


@dataclass(frozen=True)
class CrlStatus:
    state: str  # "valid" | "revoked" | "valid-no-crl"
    reason: str | None = None

    @property
    def is_revoked(self) -> bool:
        return self.state == "revoked"


def crl_check(cert: Certificate, crl_set: CrlSet) -> CrlStatus:
    """Check one certificate against the relevant CRL sequence only."""
    if not crl_set.has_crl(cert.craca_id, cert.crl_series):
        return CrlStatus("valid-no-crl", "no CRL for this series")
    if cert.ctype == CertType.OBE_PSEUDONYM:
        revoked = crl_set.revoked_lvs(
            cert.craca_id, cert.crl_series, cert.valid_from
        )
        if cert.linkage_value in revoked:
            return CrlStatus("revoked", "linkage value on CRL")
        return CrlStatus("valid")
    if cert.cert_id() in crl_set.revoked_cert_ids(cert.craca_id, cert.crl_series):
        return CrlStatus("revoked", "certificate id on CRL")
    return CrlStatus("valid")


# --- trust store and chain validation ---


class TrustStore:
    """Known certificates, elector-endorsed roots and current CRLs.

    ``crls`` starts as an uncapped ``CrlSet``; a device replaces it with
    its capped ``DeviceCrlStore`` subclass, so chain validation reads the
    same entries as its BSM check.
    """

    def __init__(self):
        self.certs: dict[bytes, Certificate] = {}
        self.endorsed_roots: set[bytes] = set()
        self.revoked_roots: set[bytes] = set()
        self.crls = CrlSet()

    def add_cert(self, cert: Certificate) -> bytes:
        cid = cert.cert_id()
        self.certs[cid] = cert
        return cid

    def resolve(self, cert_id: bytes) -> Certificate | None:
        return self.certs.get(cert_id)

    def endorse_root(self, cert_id: bytes) -> None:
        self.endorsed_roots.add(cert_id)
        self.revoked_roots.discard(cert_id)

    def revoke_root(self, cert_id: bytes) -> None:
        self.revoked_roots.add(cert_id)
        self.endorsed_roots.discard(cert_id)

    def root_trusted(self, cert_id: bytes) -> bool:
        return cert_id in self.endorsed_roots and cert_id not in self.revoked_roots


@dataclass(frozen=True)
class ChainResult:
    ok: bool
    reason: str | None = None


def verify_chain(
    cert: Certificate, trust: TrustStore, at_period: int | None = None
) -> ChainResult:
    """Walk issuer links up to a self-signed root, checking signatures,
    validity windows, per-series revocation and the elector endorsement of
    the root."""
    current = cert
    depth = 0
    while True:
        if depth > 8:
            return ChainResult(False, "chain too deep")
        if at_period is not None and not current.valid_at(at_period):
            return ChainResult(False, "certificate outside validity period")
        status = crl_check(current, trust.crls)
        if status.is_revoked:
            return ChainResult(False, "revoked certificate in chain")
        if current.self_signed:
            if current.ctype == CertType.ELECTOR:
                return ChainResult(False, "elector certificate in a chain")
            if not trust.root_trusted(current.cert_id()):
                return ChainResult(False, "root not endorsed by elector quorum")
            if not check_cert_signature(current, current):
                return ChainResult(False, "bad self-signature on root")
            return ChainResult(True)
        issuer = trust.resolve(current.issuer_id)
        if issuer is None:
            return ChainResult(False, "unknown issuer")
        if not check_cert_signature(current, issuer):
            return ChainResult(False, "bad signature in chain")
        current = issuer
        depth += 1


# --- composite CRL file ---

COMPOSITE_MAGIC = b"CRLS"


def encode_composite(crls: list[Crl]) -> bytes:
    out = bytearray()
    out += COMPOSITE_MAGIC
    out += len(crls).to_bytes(2, "big")
    for crl in crls:
        raw = crl.encode()
        out += len(raw).to_bytes(4, "big")
        out += raw
    return bytes(out)


def decode_composite(data: bytes) -> list[Crl]:
    if data[:4] != COMPOSITE_MAGIC:
        raise ParseError("bad composite magic", 0)
    count = int.from_bytes(data[4:6], "big")
    pos = 6
    crls = []
    for _ in range(count):
        if pos + 4 > len(data):
            raise ParseError("truncated composite entry", pos)
        length = int.from_bytes(data[pos : pos + 4], "big")
        pos += 4
        if pos + length > len(data):
            raise ParseError("truncated composite CRL", pos)
        crls.append(Crl.decode(data[pos : pos + length]))
        pos += length
    if pos != len(data):
        raise ParseError("trailing bytes in composite file", pos)
    return crls
