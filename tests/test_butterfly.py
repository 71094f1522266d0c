"""Butterfly expansion tests: bit layouts, golden vectors and the
end-to-end key identity."""

import pytest

from scms.butterfly import (
    ENCRYPTION,
    SIGNING,
    CaterpillarRequest,
    CocoonKeys,
    ReconstructionValue,
    TimeIndex,
    butterfly_finalize,
    cocoon_expand,
    cocoon_private,
    expand_f,
    expansion_input,
    reconstruct_private,
)
from scms.crypto import DeterministicRandom, GroupElement, KeyPair, Scalar, mul_g

ZERO_KEY = b"\x00" * 16
SEQ_KEY = bytes(range(16))


def _request(rng):
    sign_kp = KeyPair.generate(rng)
    enc_kp = KeyPair.generate(rng)
    req = CaterpillarRequest(
        signing_seed=sign_kp.public,
        signing_key=rng.randbytes(16),
        encryption_seed=enc_kp.public,
        encryption_key=rng.randbytes(16),
    )
    return req, sign_kp.private, enc_kp.private


# --- expansion input layout ---

def test_expansion_input_signing_layout():
    block = expansion_input(SIGNING, TimeIndex(1, 2))
    assert block.hex() == "00000000000000010000000200000000"


def test_expansion_input_encryption_layout():
    block = expansion_input(ENCRYPTION, TimeIndex(1, 2))
    assert block.hex() == "ffffffff000000010000000200000000"


def test_expansion_input_all_zero():
    assert expansion_input(SIGNING, TimeIndex(0, 0)) == b"\x00" * 16


def test_expansion_input_bad_kind():
    with pytest.raises(ValueError):
        expansion_input("other", TimeIndex(0, 0))


def test_time_index_range():
    with pytest.raises(ValueError):
        TimeIndex(1 << 32, 0)
    with pytest.raises(ValueError):
        TimeIndex(0, -1)


# --- expand_f ---

def test_expand_f_deterministic():
    a = expand_f(SEQ_KEY, SIGNING, TimeIndex(3, 4))
    b = expand_f(SEQ_KEY, SIGNING, TimeIndex(3, 4))
    assert a == b


def test_expand_f_golden_vectors():
    # frozen from scripts/make_vectors.py
    cases = [
        (ZERO_KEY, SIGNING, 0, 0,
         "6c5b0b26d7c88e7fb05c43676322b52f37cfc498039ea0d37cc5229f7075b610"),
        (ZERO_KEY, SIGNING, 1, 2,
         "16ad1fc7e85460f512c9b98c828b4cc12e11011bf69c100da257f753a5461852"),
        (ZERO_KEY, ENCRYPTION, 1, 2,
         "5bf0d9ab8ff57295c8cad6375b5bb18aa788dbc4c1a6f945c647b48226b882f5"),
        (SEQ_KEY, SIGNING, 52, 7,
         "182bf13e8f55f453907685a08d69cc1e8efba8c77e2bdf7b2d22921525b9c406"),
        (SEQ_KEY, ENCRYPTION, 52, 7,
         "9aa441a3d74b438de6bc453f63277a30c59a16c94d1e0ca783a376e734e24e37"),
    ]
    for key, kind, i, j, expected in cases:
        got = expand_f(key, kind, TimeIndex(i, j))
        assert got.to_bytes().hex() == expected, (kind, i, j)


def test_expand_f_max_indices_golden():
    # i = j = 2^32 - 1 exercises carries across the middle words
    got = expand_f(ZERO_KEY, SIGNING, TimeIndex(0xFFFFFFFF, 0xFFFFFFFF))
    assert got.to_bytes().hex() == (
        "df657d17bcfa9adbf76be37104d77a400aaaffa67a34318ec5f26a2d7756276e"
    )


def test_successor_blocks_wrap_at_128_bits():
    from scms.butterfly import successor_blocks

    blocks = successor_blocks(2**128 - 2)
    assert blocks == [b"\xff" * 16, b"\x00" * 16,
                      b"\x00" * 15 + b"\x01"]


def test_expand_f_indices_differ():
    a = expand_f(ZERO_KEY, SIGNING, TimeIndex(0, 0))
    b = expand_f(ZERO_KEY, SIGNING, TimeIndex(0, 1))
    assert a != b


def test_expand_f_kinds_differ():
    idx = TimeIndex(5, 6)
    assert expand_f(ZERO_KEY, SIGNING, idx) != expand_f(ZERO_KEY, ENCRYPTION, idx)


# --- cocoon expansion ---

# frozen from scripts/make_vectors.py: B for fixed (a, k, i=3, j=5)
GOLDEN_A = Scalar(
    0x1E4C8A7C39B1D0E2F5A6B3C4D5E6F70819293A4B5C6D7E8F9A0B1C2D3E4F5061)
GOLDEN_B = "02ed5d6e6b859cbb91565d8bb4a3cf88540f4a78aa9996aa994dc8e35eea4461ca"


def _golden_request():
    return CaterpillarRequest(
        signing_seed=mul_g(GOLDEN_A),
        signing_key=SEQ_KEY,
        encryption_seed=mul_g(Scalar(2)),
        encryption_key=ZERO_KEY,
    )


def test_cocoon_golden():
    (cocoon,) = cocoon_expand(_golden_request(), [TimeIndex(3, 5)])
    assert cocoon.signing.encode().hex() == GOLDEN_B


def test_cocoon_expand_of_a_list_matches_each_index():
    # one call over a grid, with one inversion, gives for every index what
    # a call on that index alone and the one-pair addition give
    req = _golden_request()
    grid = [TimeIndex(i, j) for i in range(2, 5) for j in range(8)]
    batched = cocoon_expand(req, grid)
    assert batched == [cocoon_expand(req, [index])[0] for index in grid]
    assert batched == [CocoonKeys(
        index=index,
        signing=req.signing_seed + mul_g(expand_f(SEQ_KEY, SIGNING, index)),
        encryption=req.encryption_seed
        + mul_g(expand_f(ZERO_KEY, ENCRYPTION, index)),
    ) for index in grid]
    assert batched[grid.index(TimeIndex(3, 5))].signing.encode().hex() == GOLDEN_B
    assert cocoon_expand(req, []) == []


def test_cocoon_private_matches_public_keys():
    rng = DeterministicRandom(30)
    req, a, h = _request(rng)
    for n in range(100):
        idx = TimeIndex(n % 7, n)
        (cocoon,) = cocoon_expand(req, [idx])
        assert mul_g(cocoon_private(a, req.signing_key, SIGNING, idx)) == cocoon.signing
        assert (
            mul_g(cocoon_private(h, req.encryption_key, ENCRYPTION, idx))
            == cocoon.encryption
        )


def test_caterpillar_rejects_identity_seed():
    rng = DeterministicRandom(31)
    kp = KeyPair.generate(rng)
    with pytest.raises(ValueError):
        CaterpillarRequest(
            signing_seed=GroupElement(None, None),
            signing_key=ZERO_KEY,
            encryption_seed=kp.public,
            encryption_key=ZERO_KEY,
        )


# --- butterfly finalize / reconstruct ---

def test_finalize_algebra():
    rng = DeterministicRandom(32)
    cocoon = KeyPair.generate(rng).public
    pub, c = butterfly_finalize(cocoon, rng.scalar())
    assert pub == cocoon + mul_g(c.c)


def test_finalize_randomizes():
    rng = DeterministicRandom(33)
    cocoon = KeyPair.generate(rng).public
    seen = set()
    for _ in range(1000):
        pub, _ = butterfly_finalize(cocoon, rng.scalar())
        seen.add(pub.encode())
    assert len(seen) == 1000
    assert cocoon.encode() not in seen


def test_reconstruct_zero_c():
    rng = DeterministicRandom(34)
    req, a, _ = _request(rng)
    idx = TimeIndex(2, 9)
    b = reconstruct_private(a, req.signing_key, idx, ReconstructionValue(Scalar(0)))
    assert b == cocoon_private(a, req.signing_key, SIGNING, idx)


def test_wrong_reconstruction_value_detected():
    rng = DeterministicRandom(35)
    req, a, _ = _request(rng)
    idx = TimeIndex(0, 0)
    (cocoon,) = cocoon_expand(req, [idx])
    pub, c = butterfly_finalize(cocoon.signing, rng.scalar())
    wrong = ReconstructionValue(c.c + Scalar(1))
    b_bad = reconstruct_private(a, req.signing_key, idx, wrong)
    assert mul_g(b_bad) != pub


def test_end_to_end_key_identity_1000():
    # (a + f_k(i,j) + c) * G == A + f_k(i,j)*G + c*G, exact, 1000 sessions
    rng = DeterministicRandom(36)
    req, a, h = _request(rng)
    mismatches = 0
    ra_visible_equal_final = 0
    for n in range(1000):
        idx = TimeIndex(n // 20, n % 20)
        (cocoon,) = cocoon_expand(req, [idx])
        pub, c = butterfly_finalize(cocoon.signing, rng.scalar())
        b = reconstruct_private(a, req.signing_key, idx, c)
        if mul_g(b) != pub:
            mismatches += 1
        if pub == cocoon.signing:
            ra_visible_equal_final += 1
    assert mismatches == 0
    # unlinkability hook: cocoon key never equals the certificate key
    assert ra_visible_equal_final == 0


def test_encryption_path_decrypts():
    from scms.crypto import hybrid_decrypt, hybrid_encrypt

    rng = DeterministicRandom(37)
    req, _, h = _request(rng)
    idx = TimeIndex(4, 11)
    (cocoon,) = cocoon_expand(req, [idx])
    ct = hybrid_encrypt(cocoon.encryption, b"response payload", rng)
    priv = cocoon_private(h, req.encryption_key, ENCRYPTION, idx)
    assert hybrid_decrypt(priv, ct) == b"response payload"


def test_cocoon_keys_carry_index():
    rng = DeterministicRandom(38)
    req, _, _ = _request(rng)
    (cocoon,) = cocoon_expand(req, [TimeIndex(7, 3)])
    assert isinstance(cocoon, CocoonKeys)
    assert cocoon.index == TimeIndex(7, 3)
