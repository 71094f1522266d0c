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
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import hash_truncated, prf_blocks

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


@dataclass(frozen=True)
class PreLinkageValue:
    value: bytes
    i: int
    j: int
    la_id: bytes

    def __post_init__(self):
        if len(self.value) != LV_BYTES:
            raise ValueError(f"pre-linkage value must be {LV_BYTES} bytes")


@dataclass(frozen=True)
class LinkageValue:
    value: bytes
    i: int
    j: int

    def __post_init__(self):
        if len(self.value) != LV_BYTES:
            raise ValueError(f"linkage value must be {LV_BYTES} bytes")


def check_la_id(la_id: bytes) -> bytes:
    if len(la_id) != LA_ID_BYTES:
        raise ValueError(f"la_id must be {LA_ID_BYTES} bytes")
    return la_id


def new_seed(la_id: bytes, rng, period: int = 0) -> LinkageSeed:
    check_la_id(la_id)
    return LinkageSeed(rng.randbytes(SEED_BYTES), period)


def evolve_seed(la_id: bytes, seed: LinkageSeed) -> LinkageSeed:
    """One forward step of the hash chain."""
    check_la_id(la_id)
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


def _plv_block(la_id: bytes, j: int) -> bytes:
    # la_id (32 bits) || j (32 bits) || 64 zero bits fills the AES block
    return la_id + j.to_bytes(4, "big") + b"\x00" * 8


def pre_linkage_value(la_id: bytes, seed: LinkageSeed, j: int) -> PreLinkageValue:
    check_la_id(la_id)
    out = prf_blocks(seed.value, [_plv_block(la_id, j)])[0]
    return PreLinkageValue(out[:LV_BYTES], seed.period, j, la_id)


def pre_linkage_values(
    la_id: bytes, seed: LinkageSeed, j_max: int
) -> list[PreLinkageValue]:
    """All pre-linkage values of one period, one cipher pass."""
    check_la_id(la_id)
    blocks = [_plv_block(la_id, j) for j in range(j_max)]
    outs = prf_blocks(seed.value, blocks)
    return [
        PreLinkageValue(out[:LV_BYTES], seed.period, j, la_id)
        for j, out in enumerate(outs)
    ]


def linkage_value(p1: PreLinkageValue, p2: PreLinkageValue) -> LinkageValue:
    """XOR of the two authorities' pre-linkage values for the same slot."""
    if (p1.i, p1.j) != (p2.i, p2.j):
        raise ValueError(
            f"pre-linkage index mismatch: ({p1.i},{p1.j}) vs ({p2.i},{p2.j})"
        )
    if p1.la_id == p2.la_id:
        raise ValueError("pre-linkage values must come from distinct authorities")
    return LinkageValue(xor_lv(p1.value, p2.value), p1.i, p1.j)


def xor_lv(v1: bytes, v2: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(v1, v2))


@dataclass(frozen=True)
class RevocationEntry:
    """What a revocation list publishes for one device: both period-i seeds
    plus the identifying la_id pair and the slot count."""

    i: int
    ls1: bytes
    ls2: bytes
    la_id1: bytes
    la_id2: bytes
    j_max: int

    def __post_init__(self):
        if len(self.ls1) != SEED_BYTES or len(self.ls2) != SEED_BYTES:
            raise ValueError("revocation entry seeds must be 16 bytes")


def expand_revocation_entry(
    entry: RevocationEntry, target_period: int
) -> set[LinkageValue]:
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
    plv1 = pre_linkage_values(entry.la_id1, s1, entry.j_max)
    plv2 = pre_linkage_values(entry.la_id2, s2, entry.j_max)
    return {linkage_value(p1, p2) for p1, p2 in zip(plv1, plv2)}
