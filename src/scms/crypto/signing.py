"""ECDSA signatures over the package group.

Signing is pure Python with a deterministic nonce derived from the private
key and digest, so identical inputs always yield identical signature bytes
(required for replayable scenarios and golden vectors). Verification is
libcrypto's own ``ECDSA_do_verify``, called through ``group.ecdsa_verify``,
which doubles as an independent check that signing produces standard
ECDSA. The pure reference for both is ``ecdsa_sign`` and ``ecdsa_verify``
in ``scripts/make_vectors.py``, which the tests compare against.
``backend_verify`` is the one signature memo of the package: a pure
function of (key coordinates, digest, signature), so message,
certificate-chain, CRL and ballot signatures share it and it never goes
stale. ``verify`` asks it after only the checks that keep an input from
becoming a memo key (types, lengths, the identity), so a repeated
signature costs one lookup; on a miss libcrypto checks the range of r and
s and the signature, and a malformed signature is a cached False like any
other verdict. Below it no layer keeps anything per signer: each miss sets
the decoded coordinates on the calling thread's one native key.

Signature encoding: 64 bytes, r then s, each 32 bytes big-endian.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from ..errors import ParseError
from .group import ORDER, GroupElement, Scalar, ecdsa_verify, mul_g

SIGNATURE_BYTES = 64
_NONCE_LABEL = b"scms-ecdsa-nonce-v1"
# Distinct (key, digest, signature) triples the verify memo holds: every
# copy of a BSM walks the same issuer links. Hits/misses over one seed-1
# perfbench run, in the bus process only (pool workers keep their own):
# provision 115/1,397, v2x_traffic 40,654/1,886, fleet_revocation 6,028/1,992.
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
    """libcrypto's verdict on a 64-byte signature under the key at (x, y);
    False if r or s is out of range or the point is not on the curve."""
    try:
        return ecdsa_verify(x, y, digest, signature)
    except ParseError:
        return False
