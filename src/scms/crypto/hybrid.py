"""Hybrid public-key encryption (ephemeral ECDH + AES-GCM).

Realizes every "encrypted to X" arrow in the issuance and reporting flows:
an ephemeral keypair is generated from the caller's deterministic stream,
the shared secret is hashed into a 128-bit AES-GCM key, and the payload is
sealed with a zero nonce (safe because every key is single-use). Tampering
or a wrong private key fails the GCM tag check.

Also provides static channel keys for fixed component pairs (LA -> PCA
application-layer encryption routed opaquely through the RA).

Both derive their AES key in ``_shared_key``: ECDH in the OpenSSL backend,
between a private key from ``group.backend_private`` and the peer key that
``group.backend_public`` caches per encoded point, then SHA-256 over the
secret and a label.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from ..encoding import Reader
from ..errors import DecryptionError
from .group import POINT_BYTES, GroupElement, Scalar, backend_private, backend_public

_ZERO_NONCE = b"\x00" * 12
TAG_BYTES = 16


@dataclass(frozen=True)
class HybridCiphertext:
    ephemeral: GroupElement
    payload: bytes  # AES-GCM ciphertext without the tag
    tag: bytes

    def encode(self) -> bytes:
        return self.ephemeral.encode() + self.tag + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "HybridCiphertext":
        r = Reader(data)
        eph = GroupElement.decode(r.take(POINT_BYTES, "ephemeral key"))
        tag = r.take(TAG_BYTES, "authentication tag")
        return cls(eph, r.rest(), tag)


def _shared_key(own: ec.EllipticCurvePrivateKey, peer: GroupElement,
                label: bytes) -> bytes:
    secret = own.exchange(ec.ECDH(), backend_public(peer.encode())[0])
    return hashlib.sha256(secret + label).digest()[:16]


def hybrid_encrypt(to: GroupElement, plaintext: bytes, rng) -> HybridCiphertext:
    """Seal to ``to`` with an ephemeral scalar drawn from ``rng``."""
    return hybrid_seal(to, plaintext, rng.scalar())


def hybrid_seal(to: GroupElement, plaintext: bytes,
                ephemeral_priv: Scalar) -> HybridCiphertext:
    """Seal to ``to`` with a given ephemeral scalar, so that the caller can
    draw it in one place and seal in another."""
    if to.is_identity:
        raise ValueError("cannot encrypt to the identity element")
    eph_key = backend_private(ephemeral_priv.value)
    nums = eph_key.public_key().public_numbers()
    ephemeral = GroupElement(nums.x, nums.y, _skip_check=True)
    key = _shared_key(eph_key, to, ephemeral.encode())
    sealed = AESGCM(key).encrypt(_ZERO_NONCE, plaintext, None)
    return HybridCiphertext(ephemeral, sealed[:-TAG_BYTES], sealed[-TAG_BYTES:])


def hybrid_decrypt(priv: Scalar, ct: HybridCiphertext) -> bytes:
    if ct.ephemeral.is_identity:
        raise DecryptionError("identity ephemeral key")
    key = _shared_key(backend_private(priv.value), ct.ephemeral,
                      ct.ephemeral.encode())
    try:
        return AESGCM(key).decrypt(_ZERO_NONCE, ct.payload + ct.tag, None)
    except InvalidTag as exc:
        raise DecryptionError("authentication failed") from exc


def channel_key(own_priv: Scalar, peer_pub: GroupElement, label: bytes) -> bytes:
    """Static-DH symmetric key for a fixed component pair; both sides derive
    the same key from their own private half."""
    return _shared_key(backend_private(own_priv.value), peer_pub, label)


def channel_encrypt(key: bytes, plaintext: bytes, rng) -> bytes:
    nonce = rng.randbytes(12)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, None)


def channel_decrypt(key: bytes, data: bytes) -> bytes:
    if len(data) < 12 + TAG_BYTES:
        raise DecryptionError("channel ciphertext too short")
    try:
        return AESGCM(key).decrypt(data[:12], data[12:], None)
    except InvalidTag as exc:
        raise DecryptionError("authentication failed") from exc
