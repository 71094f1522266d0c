"""Block PRF and truncated hashing.

``prf_block`` is AES-128 in Davies-Meyer mode (cipher output XOR input),
the one-way block function behind both key expansion and pre-linkage
values. ``hash_truncated`` keeps the u most significant bytes of SHA-256.
``xor_bytes`` is the one byte-string XOR, shared with the linkage values.
The AES block runs in libcrypto (``group.aes_ecb``), on the one ECB
context of the calling thread, which each call re-keys.
"""

from __future__ import annotations

import hashlib

from .group import aes_ecb

BLOCK_BYTES = 16


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR of two byte strings, truncated to the shorter one."""
    n = min(len(a), len(b))
    x = int.from_bytes(a[:n], "big") ^ int.from_bytes(b[:n], "big")
    return x.to_bytes(n, "big")


def prf_block(key: bytes, block: bytes) -> bytes:
    """Davies-Meyer: AES_key(block) XOR block."""
    return prf_blocks(key, [block])[0]


def prf_blocks(key: bytes, blocks: list[bytes]) -> list[bytes]:
    """Davies-Meyer over several blocks under one key (one cipher pass)."""
    joined = b"".join(blocks)
    if len(joined) != BLOCK_BYTES * len(blocks):
        raise ValueError(f"blocks must be {BLOCK_BYTES} bytes")
    out = xor_bytes(aes_ecb(key, joined), joined)
    return [out[i : i + BLOCK_BYTES] for i in range(0, len(out), BLOCK_BYTES)]


def hash_truncated(data: bytes, u: int) -> bytes:
    """The u most significant bytes of SHA-256(data), 1 <= u <= 32."""
    if not 1 <= u <= 32:
        raise ValueError(f"truncation length {u} not in [1, 32]")
    return hashlib.sha256(data).digest()[:u]
