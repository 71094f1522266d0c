"""Linkage seeds, pre-linkage values and linkage values.

Each linkage authority keeps a per-device hash chain of 16-byte seeds,
evolved one step per time period:

    ls(i) = H_16( la_id || ls(i-1) )

so seeds can be computed forward but never backward. A pre-linkage value
is the 9 most significant bytes of an AES Davies-Meyer pass keyed by the
period's seed over (la_id || j || zero padding), and the linkage value
embedded in a pseudonym certificate is the XOR of the two authorities'
pre-linkage values for the same (i, j). Publishing both seeds for period i
on a revocation list lets anyone regenerate every linkage value of that
device for periods >= i, while periods < i stay unlinkable.

Seeds, pre-linkage values and linkage values are plain ``bytes``; only
``LinkageSeed`` pairs a seed with its period, so that no chain is walked
backward. An LA id is checked where it enters: the LA's constructor and
``LinkageRevocation``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import hash_truncated, prf_blocks, xor_bytes

SEED_BYTES = 16    # u
LV_BYTES = 9       # v
LA_ID_BYTES = 4

# the two linkage authorities' ids, carried in CRL entries and certificate
# requests
LA1_ID = b"\x00\x00\x00\x01"
LA2_ID = b"\x00\x00\x00\x02"
# most certificates per period one chain covers: a CRL group holds j_max
# in 16 bits
J_MAX = 0xFFFF


@dataclass(frozen=True)
class LinkageSeed:
    value: bytes
    period: int

    def __post_init__(self):
        if len(self.value) != SEED_BYTES:
            raise ValueError(f"linkage seed must be {SEED_BYTES} bytes")


def check_la_id(la_id: bytes) -> bytes:
    if len(la_id) != LA_ID_BYTES:
        raise ValueError(f"la_id must be {LA_ID_BYTES} bytes")
    return la_id


def evolve_seed(la_id: bytes, seed: LinkageSeed) -> LinkageSeed:
    """One forward step of the hash chain."""
    return LinkageSeed(
        hash_truncated(la_id + seed.value, SEED_BYTES), seed.period + 1
    )


def seed_at(la_id: bytes, seed: LinkageSeed, period: int) -> LinkageSeed:
    """Evolve forward to the requested period (never backward)."""
    if period < seed.period:
        raise ValueError(
            f"cannot evolve seed backward from {seed.period} to {period}"
        )
    for _ in range(period - seed.period):
        seed = evolve_seed(la_id, seed)
    return seed


def pre_linkage_values(la_id: bytes, seed: bytes, j_max: int) -> list[bytes]:
    """Pre-linkage values j = 0 .. j_max-1 of one period's seed, in one
    cipher pass. Each AES block is la_id (32 bits) || j (32 bits) || 64
    zero bits."""
    blocks = [la_id + j.to_bytes(4, "big") + bytes(8) for j in range(j_max)]
    return [out[:LV_BYTES] for out in prf_blocks(seed, blocks)]


def linkage_value(plv1: bytes, plv2: bytes) -> bytes:
    """XOR of the two authorities' pre-linkage values for the same slot."""
    return xor_bytes(plv1, plv2)


@dataclass(frozen=True)
class LinkageRevocation:
    """What a revocation list publishes for one revoked device: both
    period-i seeds, the two LA ids and the slot count, plus the CRL's
    priority and region hint."""

    i: int
    ls1: bytes
    ls2: bytes
    la_id1: bytes
    la_id2: bytes
    j_max: int
    priority: int = 0
    region: int | None = None

    def __post_init__(self):
        if len(self.ls1) != SEED_BYTES or len(self.ls2) != SEED_BYTES:
            raise ValueError(f"revocation entry seeds must be {SEED_BYTES} bytes")
        check_la_id(self.la_id1)
        check_la_id(self.la_id2)
        if self.la_id1 == self.la_id2:
            raise ValueError("revocation entry must name two distinct LAs")


def expand_revocation_entry(
    entry: LinkageRevocation, target_period: int
) -> set[bytes]:
    """Linkage values of the revoked device at target_period >= entry.i.

    Earlier periods are unreachable by construction: the chain only runs
    forward, which is what preserves backward privacy.
    """
    if target_period < entry.i:
        raise ValueError(
            f"cannot expand revocation entry backward: entry period "
            f"{entry.i}, requested {target_period}"
        )
    s1 = seed_at(entry.la_id1, LinkageSeed(entry.ls1, entry.i), target_period)
    s2 = seed_at(entry.la_id2, LinkageSeed(entry.ls2, entry.i), target_period)
    return set(map(
        linkage_value,
        pre_linkage_values(entry.la_id1, s1.value, entry.j_max),
        pre_linkage_values(entry.la_id2, s2.value, entry.j_max),
    ))
