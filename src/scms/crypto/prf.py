"""Block PRF and truncated hashing.

``prf_block`` is AES-128 in Davies-Meyer mode (cipher output XOR input),
the one-way block function behind both key expansion and pre-linkage
values. ``hash_truncated`` keeps the u most significant bytes of SHA-256.
``xor_bytes`` is the one byte-string XOR, shared with the linkage values.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

KEY_BYTES = 16
BLOCK_BYTES = 16
# AES keys whose cipher objects are kept for their next block
CIPHER_MEMO_SIZE = 1024


@lru_cache(maxsize=CIPHER_MEMO_SIZE)
def _cipher(key: bytes) -> Cipher:
    return Cipher(algorithms.AES(key), modes.ECB())


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
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes")
    joined = b"".join(blocks)
    if len(joined) != BLOCK_BYTES * len(blocks):
        raise ValueError(f"blocks must be {BLOCK_BYTES} bytes")
    out = xor_bytes(_cipher(key).encryptor().update(joined), joined)
    return [out[i : i + BLOCK_BYTES] for i in range(0, len(out), BLOCK_BYTES)]


def hash_truncated(data: bytes, u: int) -> bytes:
    """The u most significant bytes of SHA-256(data), 1 <= u <= 32."""
    if not 1 <= u <= 32:
        raise ValueError(f"truncation length {u} not in [1, 32]")
    return hashlib.sha256(data).digest()[:u]
