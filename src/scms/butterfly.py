"""Butterfly key expansion.

One caterpillar request (a signing seed, an encryption seed and two
16-byte expansion keys) lets the registration side derive an arbitrary
number of cocoon public keys, one per time index, without learning any
private key. The issuing side adds fresh randomness to each cocoon key so
the final butterfly key in the certificate is uncorrelated with the
request, and the device rebuilds each private key from its caterpillar
secret, the expansion function and the returned reconstruction value:

    B = A + f_k(i,j) * G        cocoon (registration side)
    P = B + c * G               butterfly (issuer side, random c)
    b' = a + f_k(i,j) + c       private key (device side), b' * G == P

The expansion function f is three AES Davies-Meyer blocks on successive
increments of a time-indexed input block, read as a 384-bit big-endian
integer and reduced mod the group order. The same construction with a
distinct input prefix expands encryption keys (J = H + f_e(i,j) * G).

``cocoon_expand`` takes a list of time indices, so that the RA can hand a
slice of its grid to one pool job, and makes all of the slice's 2n point
additions with one modular inversion (``crypto.group.add_pairs``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import GroupElement, Scalar, mul_g, prf_blocks
from .crypto.group import ORDER, add_pairs

SIGNING = "sign"
ENCRYPTION = "enc"

_U32 = 1 << 32
_U128 = 1 << 128


@dataclass(frozen=True)
class TimeIndex:
    """Certificate slot: period i (week) and within-period index j."""

    i: int
    j: int

    def __post_init__(self):
        if not (0 <= self.i < _U32 and 0 <= self.j < _U32):
            raise ValueError(f"time index out of 32-bit range: ({self.i}, {self.j})")


@dataclass(frozen=True)
class CaterpillarRequest:
    """Public half of a device's expansion secrets, as sent to the RA."""

    signing_seed: GroupElement       # A = a*G
    signing_key: bytes               # expansion key for f_k
    encryption_seed: GroupElement    # H = h*G
    encryption_key: bytes            # expansion key for f_e

    def __post_init__(self):
        if self.signing_seed.is_identity or self.encryption_seed.is_identity:
            raise ValueError("caterpillar seeds must not be the identity")
        if any(type(k) is not bytes or len(k) != 16
               for k in (self.signing_key, self.encryption_key)):
            raise ValueError("expansion keys must be 16 bytes")


@dataclass(frozen=True)
class CocoonKeys:
    index: TimeIndex
    signing: GroupElement
    encryption: GroupElement


@dataclass(frozen=True)
class ReconstructionValue:
    c: Scalar


def expansion_input(kind: str, index: TimeIndex) -> bytes:
    """128-bit AES input: kind prefix (zeros/ones), i, j, 32 zero bits."""
    if kind == SIGNING:
        prefix = b"\x00\x00\x00\x00"
    elif kind == ENCRYPTION:
        prefix = b"\xff\xff\xff\xff"
    else:
        raise ValueError(f"unknown expansion kind {kind!r}")
    return (
        prefix
        + index.i.to_bytes(4, "big")
        + index.j.to_bytes(4, "big")
        + b"\x00\x00\x00\x00"
    )


def successor_blocks(x: int) -> list[bytes]:
    """x+1, x+2, x+3 as 128-bit blocks; the increment wraps at 2^128."""
    return [((x + step) % _U128).to_bytes(16, "big") for step in (1, 2, 3)]


def expand_f(key: bytes, kind: str, index: TimeIndex) -> Scalar:
    """f_key(i,j): three Davies-Meyer blocks on x+1, x+2, x+3 concatenated,
    read as a 384-bit big-endian integer and reduced mod the group order."""
    x = int.from_bytes(expansion_input(kind, index), "big")
    out = b"".join(prf_blocks(key, successor_blocks(x)))
    return Scalar(int.from_bytes(out, "big") % ORDER)


def cocoon_expand(req: CaterpillarRequest,
                  indices: list[TimeIndex]) -> list[CocoonKeys]:
    """Registration-side expansion of one request to each time index, in
    order; all the point additions share one field inversion."""
    pairs = []
    for index in indices:
        pairs.append((req.signing_seed,
                      mul_g(expand_f(req.signing_key, SIGNING, index))))
        pairs.append((req.encryption_seed,
                      mul_g(expand_f(req.encryption_key, ENCRYPTION, index))))
    points = add_pairs(pairs)
    return [CocoonKeys(index=index, signing=points[2 * n],
                       encryption=points[2 * n + 1])
            for n, index in enumerate(indices)]


def butterfly_finalize(
    cocoon: GroupElement, c: Scalar
) -> tuple[GroupElement, ReconstructionValue]:
    """Issuer-side randomization: butterfly key = cocoon + c*G, where the
    issuer draws a fresh c for each certificate."""
    return cocoon + mul_g(c), ReconstructionValue(c)


def reconstruct_private(
    a: Scalar, key: bytes, index: TimeIndex, c: ReconstructionValue
) -> Scalar:
    """Device-side private key b' = a + f_key(i,j) + c.

    The caller must check b' * G against the certificate's public key and
    reject the certificate on mismatch.
    """
    return a + expand_f(key, SIGNING, index) + c.c


def cocoon_private(secret: Scalar, key: bytes, kind: str, index: TimeIndex) -> Scalar:
    """Device-side cocoon private key (a or h) + f_key(i,j)."""
    return secret + expand_f(key, kind, index)
