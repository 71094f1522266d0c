"""Deterministic randomness source.

All randomness in the system flows through injectable instances of
``DeterministicRandom`` so that end-to-end scenarios replay byte-for-byte
from a seed. The stream is a SHA-256 counter construction keyed by the
seed and a label; ``child`` derives independent per-component streams.
"""

from __future__ import annotations

import hashlib

from .group import ORDER, Scalar


class DeterministicRandom:
    def __init__(self, seed: int | bytes, label: str = "root"):
        if isinstance(seed, int):
            seed = seed.to_bytes(16, "big", signed=False)
        self._key = hashlib.sha256(
            b"scms-rng-v1|" + seed + b"|" + label.encode()
        ).digest()
        self._counter = 0
        self._buffer = b""

    def child(self, label: str) -> "DeterministicRandom":
        """Independent stream; safe to hand to another component."""
        return DeterministicRandom(self._key, label)

    def randbytes(self, n: int) -> bytes:
        while len(self._buffer) < n:
            self._buffer += hashlib.sha256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        bits = (n - 1).bit_length()
        nbytes = (bits + 7) // 8
        shift = nbytes * 8 - bits
        while True:
            r = int.from_bytes(self.randbytes(nbytes), "big") >> shift
            if r < n:
                return r

    def scalar(self) -> Scalar:
        """Uniform nonzero scalar in [1, order-1]."""
        return Scalar(self.randbelow(ORDER - 1) + 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
