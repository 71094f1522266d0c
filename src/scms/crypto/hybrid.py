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
(the seal's ephemeral point from ``group.mul_g`` and the exchange) and
AES-128-GCM (``group.gcm_seal`` and ``group.gcm_open``) run in libcrypto
through ``scms.crypto.group``. A peer that is the identity or off the
curve raises ``ParseError``, a zero private or ephemeral scalar
``ValueError``, and a tag that does not verify ``DecryptionError``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..encoding import Reader
from ..errors import DecryptionError
from .group import (
    GCM_NONCE_BYTES,
    GCM_TAG_BYTES,
    POINT_BYTES,
    GroupElement,
    Scalar,
    ecdh_x,
    gcm_open,
    gcm_seal,
    mul_g,
)

_ZERO_NONCE = b"\x00" * GCM_NONCE_BYTES


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
        tag = r.take(GCM_TAG_BYTES, "authentication tag")
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
    ephemeral = mul_g(ephemeral_priv)  # a zero scalar: ValueError in ecdh_x
    key = _shared_key(ephemeral_priv, to, ephemeral.encode())
    sealed = gcm_seal(key, _ZERO_NONCE, plaintext)
    return HybridCiphertext(ephemeral, sealed[:-GCM_TAG_BYTES],
                            sealed[-GCM_TAG_BYTES:])


def hybrid_decrypt(priv: Scalar, ct: HybridCiphertext) -> bytes:
    if ct.ephemeral.is_identity:
        raise DecryptionError("identity ephemeral key")
    key = _shared_key(priv, ct.ephemeral, ct.ephemeral.encode())
    return gcm_open(key, _ZERO_NONCE, ct.payload, ct.tag)


def channel_key(own_priv: Scalar, peer_pub: GroupElement, label: bytes) -> bytes:
    """Static-DH symmetric key for a fixed component pair; both sides derive
    the same key from their own private half."""
    return _shared_key(own_priv, peer_pub, label)


def channel_encrypt(key: bytes, plaintext: bytes, rng) -> bytes:
    nonce = rng.randbytes(GCM_NONCE_BYTES)
    return nonce + gcm_seal(key, nonce, plaintext)


def channel_decrypt(key: bytes, data: bytes) -> bytes:
    if len(data) < GCM_NONCE_BYTES + GCM_TAG_BYTES:
        raise DecryptionError("channel ciphertext too short")
    nonce, sealed = data[:GCM_NONCE_BYTES], data[GCM_NONCE_BYTES:]
    return gcm_open(key, nonce, sealed[:-GCM_TAG_BYTES],
                    sealed[-GCM_TAG_BYTES:])
