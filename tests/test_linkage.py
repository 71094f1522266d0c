"""Linkage chain tests: golden vectors, forward-only evolution, XOR
pipeline, the revocation entry's checks and its expansion."""

import pytest

from scms.crypto import DeterministicRandom, prf_block
from scms.linkage import (
    LinkageRevocation,
    LinkageSeed,
    evolve_seed,
    expand_revocation_entry,
    linkage_value,
    pre_linkage_values,
    seed_at,
)

LA1 = (1).to_bytes(4, "big")
LA2 = (2).to_bytes(4, "big")
ZERO_SEED = LinkageSeed(b"\x00" * 16, 0)
SEQ_SEED = LinkageSeed(bytes(range(16)), 0)


def _seed(rng, period=0):
    return LinkageSeed(rng.randbytes(16), period)


def _plv(la_id, seed, j):
    return pre_linkage_values(la_id, seed.value, j + 1)[j]


def test_evolve_seed_deterministic():
    a = evolve_seed(LA1, ZERO_SEED)
    b = evolve_seed(LA1, ZERO_SEED)
    assert a == b
    assert a.period == 1


def test_evolve_seed_golden():
    # frozen from scripts/make_vectors.py
    assert evolve_seed(LA1, ZERO_SEED).value.hex() == (
        "e5d5ec4f20c24cda9cfde44078f782ea"
    )
    assert evolve_seed(LA2, SEQ_SEED).value.hex() == (
        "261ba18e3cb282ca0cb37143b11250ee"
    )


def test_chains_from_distinct_seeds_stay_disjoint():
    rng = DeterministicRandom(50)
    s1 = _seed(rng)
    s2 = _seed(rng)
    seen1, seen2 = set(), set()
    for _ in range(10):
        s1 = evolve_seed(LA1, s1)
        s2 = evolve_seed(LA1, s2)
        seen1.add(s1.value)
        seen2.add(s2.value)
    assert not (seen1 & seen2)


def test_seed_at_forward_only():
    rng = DeterministicRandom(51)
    s = _seed(rng, period=3)
    s5 = seed_at(LA1, s, 5)
    assert s5.period == 5
    assert seed_at(LA1, s, 3) == s
    with pytest.raises(ValueError):
        seed_at(LA1, s5, 4)


def test_plv_golden():
    # frozen from scripts/make_vectors.py
    assert _plv(b"\x00" * 4, ZERO_SEED, 0).hex() == "66e94bd4ef8a2c3b88"
    assert _plv(LA1, SEQ_SEED, 19).hex() == "9965e79b639687e6cb"


def test_plv_length_always_nine():
    rng = DeterministicRandom(52)
    plvs = pre_linkage_values(LA1, rng.randbytes(16), 30)
    assert len(plvs) == 30
    assert all(type(plv) is bytes and len(plv) == 9 for plv in plvs)


def test_plv_differs_across_j():
    assert _plv(LA1, ZERO_SEED, 0) != _plv(LA1, ZERO_SEED, 1)


def test_plv_batch_matches_single():
    # one cipher pass equals one Davies-Meyer block per slot j
    seed = DeterministicRandom(53).randbytes(16)
    batch = pre_linkage_values(LA2, seed, 20)
    assert batch == [
        prf_block(seed, LA2 + j.to_bytes(4, "big") + bytes(8))[:9]
        for j in range(20)
    ]
    assert pre_linkage_values(LA2, seed, 5) == batch[:5]


def test_linkage_value_xor():
    p1 = _plv(LA1, ZERO_SEED, 0)
    assert linkage_value(p1, b"\x00" * 9) == p1

    p2 = _plv(LA2, SEQ_SEED, 0)
    lv = linkage_value(p1, p2)
    assert bytes(a ^ b for a, b in zip(lv, p1)) == p2


def test_linkage_value_golden():
    # frozen from scripts/make_vectors.py
    p1 = _plv(LA1, ZERO_SEED, 3)
    p2 = _plv(LA2, SEQ_SEED, 3)
    assert p1.hex() == "81b0c911d8c482c59a"
    assert p2.hex() == "f7b5ebed15409d2ba8"
    assert linkage_value(p1, p2).hex() == "760522fccd841fee32"


def _entry(rng, i=3, j_max=20):
    s1 = _seed(rng, period=i)
    s2 = _seed(rng, period=i)
    return (
        LinkageRevocation(i=i, ls1=s1.value, ls2=s2.value,
                          la_id1=LA1, la_id2=LA2, j_max=j_max),
        s1,
        s2,
    )


@pytest.mark.parametrize("change", [
    {"ls1": b"\x01" * 3},
    {"ls2": b"\x02" * 20},
    {"la_id1": b""},
    {"la_id2": b"\x00\x00\x00\x00\x02"},
])
def test_revocation_entry_field_lengths_checked(change):
    fields = dict(i=3, ls1=b"\x01" * 16, ls2=b"\x02" * 16, la_id1=LA1,
                  la_id2=LA2, j_max=20)
    with pytest.raises(ValueError):
        LinkageRevocation(**{**fields, **change})


def test_revocation_entry_same_owner_rejected():
    with pytest.raises(ValueError):
        LinkageRevocation(i=3, ls1=b"\x01" * 16, ls2=b"\x02" * 16,
                          la_id1=LA1, la_id2=LA1, j_max=20)


def test_expand_revocation_entry_same_period():
    rng = DeterministicRandom(54)
    entry, s1, s2 = _entry(rng)
    got = expand_revocation_entry(entry, 3)
    expected = {
        linkage_value(_plv(LA1, s1, j), _plv(LA2, s2, j)) for j in range(20)
    }
    assert got == expected
    assert len(got) == 20


def test_expand_revocation_entry_forward_matches_device_chain():
    # device revoked at i=3 with j_max=20: exactly 20 values at i'=5, all
    # matching what the chains produce at period 5
    rng = DeterministicRandom(55)
    entry, s1, s2 = _entry(rng)
    got = expand_revocation_entry(entry, 5)
    assert len(got) == 20
    d1, d2 = seed_at(LA1, s1, 5), seed_at(LA2, s2, 5)
    expected = {
        linkage_value(_plv(LA1, d1, j), _plv(LA2, d2, j)) for j in range(20)
    }
    assert got == expected


def test_expand_revocation_entry_backward_rejected():
    rng = DeterministicRandom(56)
    entry, _, _ = _entry(rng, i=3)
    with pytest.raises(ValueError):
        expand_revocation_entry(entry, 2)


def test_full_width_values_do_not_collide_at_small_scale():
    # 9-byte values over 256 chains and 40 periods: a single collision
    # would point at a chain bug (the budgeted birthday rate is ~2^-46);
    # the quantitative factor-of-2 check runs in the acceptance suite
    rng = DeterministicRandom(57)
    chains = [(_seed(rng), _seed(rng)) for _ in range(256)]
    for _ in range(40):
        seen = set()
        for s1, s2 in chains:
            lv = linkage_value(_plv(LA1, s1, 0), _plv(LA2, s2, 0))
            assert lv not in seen
            seen.add(lv)
        chains = [
            (evolve_seed(LA1, s1), evolve_seed(LA2, s2)) for s1, s2 in chains
        ]
