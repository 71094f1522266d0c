"""Hybrid public-key encryption (ephemeral ECDH + AES-GCM).

Realizes every "encrypted to X" arrow in the issuance and reporting flows:
an ephemeral keypair is generated from the caller's deterministic stream,
the shared secret is hashed into a 128-bit AES-GCM key, and the payload is
sealed with a zero nonce (safe because every key is single-use). Tampering
or a wrong private key fails the GCM tag check.

Also provides static channel keys for fixed component pairs (LA -> PCA
application-layer encryption routed opaquely through the RA).

Both derive their AES key in ``_shared_key``: the ECDH x-coordinate from
``group.ecdh_x``, then SHA-256 over it and a label. The curve arithmetic
(the seal's ephemeral point from ``group.ecdh_public`` and the exchange)
runs in libcrypto through ``scms.crypto.group``, with no key objects;
AES-GCM stays in ``cryptography``. A peer that is the identity or off
the curve raises ``ParseError``, and a zero private or ephemeral scalar
``ValueError``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from ..encoding import Reader
from ..errors import DecryptionError
from .group import POINT_BYTES, GroupElement, Scalar, ecdh_public, ecdh_x

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


def _shared_key(own: Scalar, peer: GroupElement, label: bytes) -> bytes:
    return hashlib.sha256(ecdh_x(own, peer) + label).digest()[:16]


def hybrid_encrypt(to: GroupElement, plaintext: bytes, rng) -> HybridCiphertext:
    """Seal to ``to`` with an ephemeral scalar drawn from ``rng``."""
    return hybrid_seal(to, plaintext, rng.scalar())


def hybrid_seal(to: GroupElement, plaintext: bytes,
                ephemeral_priv: Scalar) -> HybridCiphertext:
    """Seal to ``to`` with a given ephemeral scalar, so that the caller can
    draw it in one place and seal in another."""
    ephemeral = ecdh_public(ephemeral_priv)
    key = _shared_key(ephemeral_priv, to, ephemeral.encode())
    sealed = AESGCM(key).encrypt(_ZERO_NONCE, plaintext, None)
    return HybridCiphertext(ephemeral, sealed[:-TAG_BYTES], sealed[-TAG_BYTES:])


def hybrid_decrypt(priv: Scalar, ct: HybridCiphertext) -> bytes:
    if ct.ephemeral.is_identity:
        raise DecryptionError("identity ephemeral key")
    key = _shared_key(priv, ct.ephemeral, ct.ephemeral.encode())
    try:
        return AESGCM(key).decrypt(_ZERO_NONCE, ct.payload + ct.tag, None)
    except InvalidTag as exc:
        raise DecryptionError("authentication failed") from exc


def channel_key(own_priv: Scalar, peer_pub: GroupElement, label: bytes) -> bytes:
    """Static-DH symmetric key for a fixed component pair; both sides derive
    the same key from their own private half."""
    return _shared_key(own_priv, peer_pub, label)


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
