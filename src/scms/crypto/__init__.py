"""Group, hash, block-cipher, signature and hybrid-encryption primitives."""

from .group import (
    G,
    IDENTITY,
    ORDER,
    POINT_BYTES,
    SCALAR_BYTES,
    GroupElement,
    KeyPair,
    Scalar,
    mul_g,
    scalar_mult,
)
from .hybrid import (
    HybridCiphertext,
    channel_decrypt,
    channel_encrypt,
    channel_key,
    hybrid_decrypt,
    hybrid_encrypt,
    hybrid_seal,
)
from .prf import hash_truncated, prf_block, prf_blocks, xor_bytes
from .rng import DeterministicRandom
from .signing import SIGNATURE_BYTES, sign, verify

__all__ = [
    "G",
    "IDENTITY",
    "ORDER",
    "POINT_BYTES",
    "SCALAR_BYTES",
    "SIGNATURE_BYTES",
    "DeterministicRandom",
    "GroupElement",
    "HybridCiphertext",
    "KeyPair",
    "Scalar",
    "channel_decrypt",
    "channel_encrypt",
    "channel_key",
    "hash_truncated",
    "hybrid_decrypt",
    "hybrid_encrypt",
    "hybrid_seal",
    "mul_g",
    "prf_block",
    "prf_blocks",
    "scalar_mult",
    "sign",
    "verify",
    "xor_bytes",
]
