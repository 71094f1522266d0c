"""ECDSA signatures over the package group.

Signing is pure Python with a deterministic nonce derived from the private
key and digest, so identical inputs always yield identical signature bytes
(required for replayable scenarios and golden vectors). Verification runs
in the OpenSSL backend, which doubles as an independent check that
signing produces standard ECDSA. The pure reference for both is
``ecdsa_sign`` and ``ecdsa_verify`` in ``scripts/make_vectors.py``, which
the tests compare against. ``backend_verify`` is the one signature memo of
the package: a pure function of (key coordinates, digest, signature), so
message, certificate-chain, CRL and ballot signatures share it and it
never goes stale. ``verify`` asks it after only the checks that keep an
input from becoming a memo key (types, lengths, the identity), so a
repeated signature costs one lookup; the split into (r, s) and its range
check run on a miss, and a malformed signature is a cached False like any
other verdict. It is also the only reader of ``group.backend_public``,
the OpenSSL key cache, which builds each key from the decoded coordinates
and keeps it for the key's next signature.

Signature encoding: 64 bytes, r then s, each 32 bytes big-endian.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    encode_dss_signature,
)

from ..errors import ParseError
from .group import ORDER, GroupElement, Scalar, backend_public, mul_g

SIGNATURE_BYTES = 64
_NONCE_LABEL = b"scms-ecdsa-nonce-v1"
_PREHASHED = ec.ECDSA(Prehashed(hashes.SHA256()))
# Distinct (key, digest, signature) triples the verify memo holds. Every
# receiver in range checks the same broadcast, and the FIFO bus delivers
# the copies of one broadcast back to back, so repeats arrive close
# together: on v2x_traffic seed 1 the memo hit 48,732 times at 64 entries,
# 49,612 at 256 and 49,614 at 4096.
VERIFY_MEMO_SIZE = 256


def sign(priv: Scalar, digest: bytes) -> bytes:
    """Sign a 32-byte digest; deterministic in (priv, digest)."""
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    e = int.from_bytes(digest, "big") % ORDER
    ctr = 0
    while True:
        material = priv.to_bytes() + digest + _NONCE_LABEL
        if ctr:
            material += ctr.to_bytes(4, "big")
        k = int.from_bytes(hashlib.sha256(material).digest(), "big") % ORDER
        ctr += 1
        if k == 0:
            continue
        r = mul_g(Scalar(k)).x % ORDER
        if r == 0:
            continue
        s = pow(k, -1, ORDER) * (e + r * priv.value) % ORDER
        if s == 0:
            continue
        return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def verify(pub: GroupElement, digest: bytes, signature: bytes) -> bool:
    """True iff the signature is valid; malformed input returns False.
    The backend checks each distinct triple once while it stays in the
    memo."""
    if type(digest) is not bytes or type(signature) is not bytes:
        return False
    if pub.is_identity or len(digest) != 32 or len(signature) != SIGNATURE_BYTES:
        return False
    return backend_verify(pub.x, pub.y, digest, signature)


@lru_cache(maxsize=VERIFY_MEMO_SIZE)
def backend_verify(x: int, y: int, digest: bytes, signature: bytes) -> bool:
    """OpenSSL verdict on a 64-byte signature under the key at (x, y);
    False if r or s is out of range or the point is not on the curve."""
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (1 <= r < ORDER and 1 <= s < ORDER):
        return False
    try:
        key = backend_public(x, y)
        key.verify(encode_dss_signature(r, s), digest, _PREHASHED)
        return True
    except (InvalidSignature, ValueError, ParseError):
        return False
