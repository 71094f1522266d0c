"""Certificates, signed messages, CRLs and chain validation.

Five end-entity certificate types plus CA/component and elector
certificates, each with feature-flag conformance (a pseudonym certificate
must carry a linkage value and no subject identifier, only online RSE
application certificates carry an encryption key, and so on).

Message signing binds the signature to the signing certificate by hashing
the certificate into the signed digest, which defeats certificate
misbinding: a signature produced under one certificate never verifies
under another, even for the same key.

Wire formats are canonical binary layouts. Each fixed part is one
``struct.Struct`` below, which both the encoder packs and the decoder
unpacks; variable parts are read through ``encoding.Reader``, which does
every length check. Every decoder raises only ``ParseError``, at the
offset in its own input where the failed read began (``encoding.within``
shifts a nested part's error). CertId is the 8-byte truncated hash of the full
encoding. CRLs carry linkage-seed entries grouped by LA-id pair plus flat
CertId entries, are signed by the CRL generator, and are distributed per
(CRACA, series) so a receiver checks exactly one sequence per certificate.

Certificate and CRL decoding are canonical: every input that decodes is
the encoding of the value it decodes to, so a decoded certificate or CRL
keeps its to-be-signed bytes as they arrived. ``Certificate.decode`` and
``Crl.decode`` answer from bounded memos keyed by the encoding, so the
copies of one broadcast share one frozen certificate, and the CRL store
and every device that decode one composite share one frozen CRL; a
``ParseError`` is never kept. A certificate hashes itself once: it keeps
the SHA-256 of its encoding, which gives its CertId and binds signed
messages to it, and the digest of its to-be-signed bytes under its
issuer's algorithm, which its chain link is checked with. A CRL expands
its linkage entries once per period and keeps, for each revoked value,
the entry that revokes it. These are pure functions of bytes, so nothing
in them goes stale and nothing is ever emptied; a ``CrlSet`` holds only
the latest CRL per (CRACA, series) and the entries it ``evicted`` (a
device's capacity cap), and CRL and root state are read on every chain
walk.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import lru_cache
from typing import TYPE_CHECKING

from .crypto import POINT_BYTES, GroupElement, KeyPair, Scalar, sign, verify
from .encoding import Reader, require_bytes, within
from .errors import ParseError
from .linkage import LV_BYTES, LinkageRevocation, expand_revocation_entry

if TYPE_CHECKING:
    from .rootmgmt import TrustState

CERT_MAGIC = b"SC"
CRL_MAGIC = b"CR"
CERT_ID_BYTES = 8
SIG_BYTES = 64
NO_REGION = 0xFF  # region byte of a CRL entry without a region hint
U32_MAX = 0xFFFF_FFFF  # largest validity period or PSID a certificate holds
# Encodings whose certificates the decoder keeps: a certificate comes back
# inside later BSMs, packages and chains. Hits/misses over one seed-1
# perfbench run, in the bus process only (pool workers keep their own):
# provision 613/1,379, v2x_traffic 1,419/561, fleet_revocation 1,202/1,318.
CERT_MEMO_SIZE = 256
# Encodings whose CRLs the decoder keeps. The CRL store and every device
# decode the same composite, and a superseded version is never decoded
# again: over one seed-1 fleet_revocation run, in the bus process only,
# 320 decodes of 20 distinct CRLs hit the memo 300 times. A composite holds one
# CRL per series (five), and decoding it in order through a smaller memo
# would miss every time; a 10,000-entry CRL is about 400 KB.
CRL_MEMO_SIZE = 8

# magic "SC" | version | ctype | alg | flags | subject_key | valid_from |
# valid_to | psid | craca_id | crl_series | issuer_id
_CERT_HEADER = struct.Struct(">2sBBBB33sIII8sH8s")
# magic "CR" | version | series | craca_id | issue_period | sequence |
# crlg_cert_id | n_groups
_CRL_HEADER = struct.Struct(">2sBH8sII8sH")
# la_id1 | la_id2 | i | j_max | n_devices
_CRL_GROUP = struct.Struct(">4s4sIHH")
# ls1 | ls2 | priority | region
_CRL_LINKAGE = struct.Struct(">16s16sBB")
# cert_id | priority | region
_CRL_CERTID = struct.Struct(">8sBB")


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
# Types an end entity signs its requests to the RA with.
ENROLLMENT_TYPES = {CertType.OBE_ENROLLMENT, CertType.RSE_ENROLLMENT}

# CRL series assignment
SERIES_PSEUDONYM = 1
SERIES_COMPONENT = 2
SERIES_APPLICATION = 3  # identification + RSE application
SERIES_ENROLLMENT = 4
SERIES_ROOT_MANAGED = 256  # PG / CRLG / MA, CRACA = root

# provider service id of basic safety messages (IEEE 1609.12), the
# application every pseudonym certificate here is issued for
BSM_PSID = 0x20


def series_for_type(ctype: CertType) -> int:
    """The CRL series that revokes certificates of type ``ctype``."""
    if ctype == CertType.OBE_PSEUDONYM:
        return SERIES_PSEUDONYM
    if ctype in ENROLLMENT_TYPES:
        return SERIES_ENROLLMENT
    if ctype in (CertType.OBE_IDENTIFICATION, CertType.RSE_APPLICATION):
        return SERIES_APPLICATION
    return SERIES_COMPONENT


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

    Binary layout (version 1): the 69-byte ``_CERT_HEADER``, then
    [enc_key (33)] [linkage_value (9)] [subject_info: len (2) + UTF-8],
    then signature (64).
    alg: ``ALG_DEFAULT`` or ``ALG_DOMAIN_SEP``.
    flags: bit0 enc_key, bit1 linkage, bit2 subject_info, bit3 self-signed;
    the higher bits are zero.
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
    # tbs_bytes(), digest(), cert_id() and the last tbs_digest() as
    # (alg, digest), filled on first use; replace() starts a copy with
    # None, so a signed copy never inherits the unsigned bytes
    _tbs: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _hash: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _id: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _tbs_digest: tuple[int, bytes] | None = field(
        default=None, init=False, repr=False, compare=False)

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
        if not (0 <= self.valid_from and self.valid_to <= U32_MAX
                and 0 <= self.psid <= U32_MAX):
            raise ValueError("validity periods and psid must fit in 32 bits")
        if self.subject_info is not None and len(self.subject_info.encode()) > 0xFFFF:
            raise ValueError("subject_info must fit in 65535 bytes")

    # --- encoding ---

    def tbs_bytes(self) -> bytes:
        if self._tbs is not None:
            return self._tbs
        flags = (
            (1 if self.enc_key is not None else 0)
            | (2 if self.linkage_value is not None else 0)
            | (4 if self.subject_info is not None else 0)
            | (8 if self.self_signed else 0)
        )
        out = bytearray(_CERT_HEADER.pack(
            CERT_MAGIC, 1, self.ctype, self.alg, flags,
            self.subject_key.encode(), self.valid_from, self.valid_to,
            self.psid, self.craca_id, self.crl_series, self.issuer_id,
        ))
        if self.enc_key is not None:
            out += self.enc_key.encode()
        if self.linkage_value is not None:
            out += self.linkage_value
        if self.subject_info is not None:
            raw = self.subject_info.encode()
            out += len(raw).to_bytes(2, "big") + raw
        object.__setattr__(self, "_tbs", bytes(out))
        return self._tbs

    def encode(self) -> bytes:
        if self.signature is None:
            raise ValueError("cannot encode an unsigned certificate")
        return self.tbs_bytes() + self.signature

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        """The certificate ``data`` encodes, shared by every decode of the
        same bytes while it stays in the memo; ``ParseError`` otherwise."""
        require_bytes(data)
        return _decode_certificate(data)

    def tbs_digest(self, alg: int) -> bytes:
        """Digest of the to-be-signed bytes under the issuer's ``alg``."""
        cached = self._tbs_digest
        if cached is None or cached[0] != alg:
            cached = (alg, digest_for_alg(alg, self.tbs_bytes()))
            object.__setattr__(self, "_tbs_digest", cached)
        return cached[1]

    def digest(self) -> bytes:
        """SHA-256 of the full encoding."""
        if self._hash is None:
            object.__setattr__(self, "_hash", hashlib.sha256(self.encode()).digest())
        return self._hash

    def cert_id(self) -> bytes:
        if self._id is None:
            object.__setattr__(self, "_id", self.digest()[:CERT_ID_BYTES])
        return self._id

    def valid_at(self, period: int) -> bool:
        return self.valid_from <= period <= self.valid_to


@lru_cache(maxsize=CERT_MEMO_SIZE)
def _decode_certificate(data: bytes) -> Certificate:
    r = Reader(data)
    (magic, version, ctype, alg, flags, subject_key, valid_from, valid_to,
     psid, craca_id, crl_series, issuer_id) = r.unpack(
        _CERT_HEADER, "certificate header")
    if magic != CERT_MAGIC:
        raise ParseError("bad certificate magic", 0)
    if version != 1:
        raise ParseError(f"unsupported certificate version {version}", 2)
    try:
        ctype = CertType(ctype)
    except ValueError:
        raise ParseError(f"unknown certificate type {ctype}", 3) from None
    # an unknown algorithm or flag bit would not survive re-encoding
    if alg not in (ALG_DEFAULT, ALG_DOMAIN_SEP):
        raise ParseError(f"unknown signature algorithm tag {alg}", 4)
    if flags > 0xF:
        raise ParseError(f"unknown certificate flags {flags:#x}", 5)
    subject_key = within(GroupElement.decode, subject_key, 6)  # after flags
    enc_key = linkage_value = subject_info = None
    if flags & 1:
        enc_key = within(GroupElement.decode, r.take(POINT_BYTES, "encryption key"),
                         _CERT_HEADER.size)
    if flags & 2:
        linkage_value = r.take(LV_BYTES, "linkage value")
    if flags & 4:
        subject_info = r.text(r.u16("subject info length"), "subject info")
    signature = r.take(SIG_BYTES, "certificate signature")
    r.done("certificate")
    try:
        cert = Certificate(
            ctype, subject_key, valid_from, valid_to, psid, craca_id,
            crl_series, issuer_id, enc_key, linkage_value, subject_info,
            bool(flags & 8), alg, signature,
        )
    except ValueError as exc:  # feature-flag rules of __post_init__
        raise ParseError(f"nonconforming certificate: {exc}", 0) from None
    # canonical, so the bytes as received are the bytes tbs_bytes() builds
    object.__setattr__(cert, "_tbs", data[:-SIG_BYTES])
    return cert


def issue_certificate(cert: Certificate, issuer_priv: Scalar, issuer_alg: int = ALG_DEFAULT) -> Certificate:
    """Attach the issuer's signature over the to-be-signed bytes."""
    sig = sign(issuer_priv, digest_for_alg(issuer_alg, cert.tbs_bytes()))
    return replace(cert, signature=sig)


def issue_component_cert(
    key: KeyPair,
    role: str,
    issuer_cert: Certificate | None,
    issuer_key: KeyPair | None,
    craca_id: bytes,
    crl_series: int,
    valid: tuple[int, int],
    enc_key: GroupElement | None,
) -> Certificate:
    """A component certificate naming ``role``, signed by its issuer, or
    self-signed (a root) when there is no issuer certificate."""
    cert = Certificate(
        ctype=CertType.COMPONENT,
        subject_key=key.public,
        valid_from=valid[0],
        valid_to=valid[1],
        psid=0,
        craca_id=craca_id,
        crl_series=crl_series,
        issuer_id=b"\x00" * 8 if issuer_cert is None else issuer_cert.cert_id(),
        enc_key=enc_key,
        subject_info=role,
        self_signed=issuer_cert is None,
    )
    signer = key if issuer_key is None else issuer_key
    return issue_certificate(cert, signer.private)


def check_cert_signature(cert: Certificate, issuer: Certificate) -> bool:
    if cert.signature is None:
        return False
    return verify(issuer.subject_key, cert.tbs_digest(issuer.alg), cert.signature)


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
        cert = self.cert_bytes or b""
        return b"".join((
            len(self.payload).to_bytes(4, "big"), self.payload, self.cert_id,
            len(cert).to_bytes(4, "big"), cert, self.signature,
        ))

    @classmethod
    def decode(cls, data: bytes) -> "SignedMessage":
        r = Reader(data)
        payload = r.take(r.u32("payload length"), "payload")
        cert_id = r.take(CERT_ID_BYTES, "certificate id")
        clen = r.u32("certificate length")
        cert_bytes = r.take(clen, "certificate") if clen else None
        signature = r.take(SIG_BYTES, "message signature")
        r.done("signed message")
        return cls(payload, cert_id, signature, cert_bytes)


def message_digest(payload: bytes, cert: Certificate, alg: int = ALG_DEFAULT) -> bytes:
    return digest_for_alg(alg, payload + cert.digest())


def sign_message(priv: Scalar, cert: Certificate, payload: bytes) -> SignedMessage:
    sig = sign(priv, message_digest(payload, cert, cert.alg))
    return SignedMessage(
        payload=payload,
        cert_id=cert.cert_id(),
        signature=sig,
        cert_bytes=cert.encode(),
    )


def verify_message(msg: SignedMessage, cert: Certificate) -> bool:
    """Check the signature against one specific certificate."""
    if cert.cert_id() != msg.cert_id:
        return False
    digest = message_digest(msg.payload, cert, cert.alg)
    return verify(cert.subject_key, digest, msg.signature)


# --- CRLs ---


class Priority(IntEnum):
    NORMAL = 0
    HIGH = 1
    KEY_COMPROMISE = 2


@dataclass(frozen=True)
class CertIdRevocation:
    cert_id: bytes
    priority: int = Priority.NORMAL
    region: int | None = None


@dataclass(frozen=True)
class Crl:
    """Signed revocation list for one (CRACA, series) sequence.

    Binary layout (version 1): ``_CRL_HEADER``, then n_groups groups of
    one ``_CRL_GROUP`` followed by n_devices ``_CRL_LINKAGE`` entries, then
    n_certids (4) and that many ``_CRL_CERTID`` entries, then
    signature (64). Region byte ``NO_REGION`` means no hint. Each group
    holds at least one device, and no two groups share a key, so every
    input that decodes is the encoding of the CRL it decodes to.

    A CRL is a value: its entries are tuples, and what is derived from
    them (its to-be-signed bytes, the linkage values it revokes in each
    period, the certificate ids it revokes, each mapped to its entry) is
    kept on it on first use.
    """

    series: int
    craca_id: bytes
    issue_period: int
    sequence: int
    crlg_cert_id: bytes
    linkage_entries: tuple[LinkageRevocation, ...] = ()
    certid_entries: tuple[CertIdRevocation, ...] = ()
    signature: bytes | None = None
    # tbs_bytes(), revoked_lvs(period) per period and revoked_cert_ids(),
    # filled on first use; replace() starts a copy with none of them
    _tbs: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _lvs: dict[int, dict[bytes, LinkageRevocation]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _ids: dict[bytes, CertIdRevocation] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "linkage_entries", tuple(self.linkage_entries))
        object.__setattr__(self, "certid_entries", tuple(self.certid_entries))

    def linkage_groups(self) -> dict[tuple, list[LinkageRevocation]]:
        """Linkage entries grouped by (la_id1, la_id2, i, j_max), in first
        appearance order, as the wire layout carries them."""
        groups: dict[tuple, list[LinkageRevocation]] = {}
        for entry in self.linkage_entries:
            key = (entry.la_id1, entry.la_id2, entry.i, entry.j_max)
            groups.setdefault(key, []).append(entry)
        return groups

    def tbs_bytes(self) -> bytes:
        if self._tbs is not None:
            return self._tbs
        groups = self.linkage_groups()
        out = bytearray(_CRL_HEADER.pack(
            CRL_MAGIC, 1, self.series, self.craca_id, self.issue_period,
            self.sequence, self.crlg_cert_id, len(groups),
        ))
        for (la1, la2, i, j_max), members in groups.items():
            out += _CRL_GROUP.pack(la1, la2, i, j_max, len(members))
            for m in members:
                region = NO_REGION if m.region is None else m.region
                out += _CRL_LINKAGE.pack(m.ls1, m.ls2, m.priority, region)
        out += len(self.certid_entries).to_bytes(4, "big")
        for c in self.certid_entries:
            region = NO_REGION if c.region is None else c.region
            out += _CRL_CERTID.pack(c.cert_id, c.priority, region)
        object.__setattr__(self, "_tbs", bytes(out))
        return self._tbs

    def encode(self) -> bytes:
        if self.signature is None:
            raise ValueError("cannot encode an unsigned CRL")
        return self.tbs_bytes() + self.signature

    @classmethod
    def decode(cls, data: bytes) -> "Crl":
        """The CRL ``data`` encodes, shared by every decode of the same
        bytes while it stays in the memo; ``ParseError`` otherwise."""
        require_bytes(data)
        return _decode_crl(data)

    def revoked_lvs(self, period: int) -> Mapping[bytes, LinkageRevocation]:
        """Each linkage value revoked at ``period``, mapped to the entry
        that revokes it: each linkage entry revokes its device's values
        from its own period on. Shared by every holder; never mutate it."""
        lvs = self._lvs.get(period)
        if lvs is None:
            lvs = self._lvs[period] = {
                lv: entry for entry in _by_rank(self.linkage_entries)
                if entry.i <= period
                for lv in expand_revocation_entry(entry, period)
            }
        return lvs

    def revoked_cert_ids(self) -> Mapping[bytes, CertIdRevocation]:
        """Each revoked certificate id, mapped to the entry that revokes it."""
        if self._ids is None:
            object.__setattr__(self, "_ids", {
                c.cert_id: c for c in _by_rank(self.certid_entries)})
        return self._ids


def _by_rank(entries):
    """``entries`` from the first a capacity cap evicts to the last (lowest
    priority first, oldest first within a priority), so that a value that
    several entries revoke maps to the one evicted last."""
    return sorted(entries, key=lambda entry: entry.priority)


@lru_cache(maxsize=CRL_MEMO_SIZE)
def _decode_crl(data: bytes) -> Crl:
    r = Reader(data)
    (magic, version, series, craca_id, issue_period, sequence,
     crlg_cert_id, n_groups) = r.unpack(_CRL_HEADER, "CRL header")
    if magic != CRL_MAGIC:
        raise ParseError("bad CRL magic", 0)
    if version != 1:
        raise ParseError(f"unsupported CRL version {version}", 2)
    linkage_entries = []
    keys = set()
    for _ in range(n_groups):
        start = r.pos
        la1, la2, i, j_max, n_dev = r.unpack(_CRL_GROUP, "CRL group header")
        # an empty or repeated group would not survive re-encoding
        if n_dev == 0:
            raise ParseError("empty CRL group", start)
        if (la1, la2, i, j_max) in keys:
            raise ParseError("repeated CRL group", start)
        keys.add((la1, la2, i, j_max))
        block = r.take(n_dev * _CRL_LINKAGE.size, "CRL linkage entries")
        try:
            linkage_entries += [
                LinkageRevocation(i, ls1, ls2, la1, la2, j_max, priority,
                                  None if region == NO_REGION else region)
                for ls1, ls2, priority, region
                in _CRL_LINKAGE.iter_unpack(block)
            ]
        except ValueError as exc:  # the entry's own checks
            raise ParseError(f"bad CRL group: {exc}", start) from None
    n_certids = r.u32("CRL certid count")
    block = r.take(n_certids * _CRL_CERTID.size, "CRL certid entries")
    certid_entries = [
        CertIdRevocation(cert_id, priority,
                         None if region == NO_REGION else region)
        for cert_id, priority, region in _CRL_CERTID.iter_unpack(block)
    ]
    signature = r.take(SIG_BYTES, "CRL signature")
    r.done("CRL")
    crl = Crl(series, craca_id, issue_period, sequence, crlg_cert_id,
              linkage_entries, certid_entries, signature)
    # canonical, so the bytes as received are the bytes tbs_bytes() builds
    object.__setattr__(crl, "_tbs", data[:-SIG_BYTES])
    return crl


def sign_crl(crl: Crl, crlg_priv: Scalar, crlg_cert: Certificate) -> Crl:
    """A copy of ``crl`` that names ``crlg_cert`` as its generator, signed
    with the generator's key; ``crl`` itself is left as it is."""
    unsigned = replace(crl, crlg_cert_id=crlg_cert.cert_id(), signature=None)
    digest = message_digest(unsigned.tbs_bytes(), crlg_cert)
    return replace(unsigned, signature=sign(crlg_priv, digest))


def check_crl_signature(crl: Crl, crlg_cert: Certificate) -> bool:
    if crl.signature is None or crl.crlg_cert_id != crlg_cert.cert_id():
        return False
    digest = message_digest(crl.tbs_bytes(), crlg_cert)
    return verify(crlg_cert.subject_key, digest, crl.signature)


class CrlSet:
    """Latest CRL per (craca_id, series), in arrival order: a newer CRL
    for a key replaces the old one and moves to the end.

    The set keeps nothing derived from its CRLs. Each CRL keeps its own
    revoked values, so a CRL that arrives leaves every other CRL's values
    as they are, and the holders of one decoded CRL share them. An entry
    in ``evicted`` revokes nothing: a set evicts none, and a device's
    capped store (``device.DeviceCrlStore``) sets it.
    """

    evicted: frozenset[LinkageRevocation | CertIdRevocation] = frozenset()

    def __init__(self):
        self._crls: dict[tuple[bytes, int], Crl] = {}

    def add(self, crl: Crl) -> bool:
        """Keep only the highest sequence number per series; returns True
        if the set changed."""
        key = (crl.craca_id, crl.series)
        current = self._crls.get(key)
        if current is not None and current.sequence >= crl.sequence:
            return False
        self._crls.pop(key, None)  # re-insert last: dict order is arrival order
        self._crls[key] = crl
        return True

    def get(self, craca_id: bytes, series: int) -> Crl | None:
        return self._crls.get((craca_id, series))

    def may_revoke(self, craca_id: bytes, series: int) -> bool:
        """True if a CRL of (craca_id, series) is held whose entries may
        revoke: every held CRL here, only some in a capped store."""
        return (craca_id, series) in self._crls

    def all_crls(self) -> list[Crl]:
        return [self._crls[k] for k in sorted(self._crls, key=str)]

    def revoked_lvs(self, craca_id: bytes, series: int,
                    period: int) -> Mapping[bytes, LinkageRevocation]:
        crl = self.get(craca_id, series)
        return {} if crl is None else crl.revoked_lvs(period)

    def revoked_cert_ids(self, craca_id: bytes,
                         series: int) -> Mapping[bytes, CertIdRevocation]:
        crl = self.get(craca_id, series)
        return {} if crl is None else crl.revoked_cert_ids()


def crl_check(cert: Certificate, crl_set: CrlSet) -> bool:
    """True if the one CRL of the certificate's (CRACA, series) revokes it
    with an entry that ``crl_set`` has not evicted."""
    # asks no revoked values where no CRL can revoke: perfbench's traced
    # self-test expects no DeviceCrlStore.revoked_lvs call on a workload
    # without revocation
    if not crl_set.may_revoke(cert.craca_id, cert.crl_series):
        return False
    if cert.ctype == CertType.OBE_PSEUDONYM:
        entry = crl_set.revoked_lvs(
            cert.craca_id, cert.crl_series, cert.valid_from
        ).get(cert.linkage_value)
    else:
        entry = crl_set.revoked_cert_ids(
            cert.craca_id, cert.crl_series).get(cert.cert_id())
    return entry is not None and entry not in crl_set.evicted


# --- chain validation ---


@dataclass(frozen=True)
class ChainResult:
    ok: bool
    reason: str | None = None


_CHAIN_OK = ChainResult(True)
# the reason verify_chain gives when any link is on its CRL
REVOKED_IN_CHAIN = "revoked certificate in chain"
_CHAIN_REVOKED = ChainResult(False, REVOKED_IN_CHAIN)


def verify_chain(
    cert: Certificate, trust: TrustState, at_period: int | None = None
) -> ChainResult:
    """Walk issuer links up to a self-signed root, checking signatures,
    validity windows, per-series revocation and the elector endorsement of
    the root. Nothing here is memoized: CRL and root state are read on
    every walk, and a signature seen before is answered by the verify memo
    of ``crypto.signing``."""
    current = cert
    depth = 0
    while True:
        if depth > 8:
            return ChainResult(False, "chain too deep")
        if at_period is not None and not current.valid_at(at_period):
            return ChainResult(False, "certificate outside validity period")
        if crl_check(current, trust.crls):
            return _CHAIN_REVOKED
        if current.self_signed:
            if current.ctype == CertType.ELECTOR:
                return ChainResult(False, "elector certificate in a chain")
            if not trust.root_trusted(current.cert_id()):
                return ChainResult(False, "root not endorsed by elector quorum")
            if not check_cert_signature(current, current):
                return ChainResult(False, "bad self-signature on root")
            return _CHAIN_OK
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
    r = Reader(data)
    if r.take(len(COMPOSITE_MAGIC), "composite magic") != COMPOSITE_MAGIC:
        raise ParseError("bad composite magic", 0)
    crls = []
    for _ in range(r.u16("composite CRL count")):
        raw = r.take(r.u32("composite entry length"), "composite CRL")
        crls.append(within(Crl.decode, raw, r.pos - len(raw)))
    r.done("composite file")
    return crls
