"""Group, PRF, signature, hybrid-encryption and RNG unit tests.

Golden values and the differential references come from
scripts/make_vectors.py, a standalone oracle that imports nothing from the
package; AES-GCM's reference is ``cryptography``'s ``AESGCM``, which only
the tests and that script import.
"""

import hashlib
import importlib.util
import multiprocessing
import os
import random
import sys
import threading
from pathlib import Path

import pytest

from scms.crypto import (
    G,
    IDENTITY,
    ORDER,
    DeterministicRandom,
    GroupElement,
    HybridCiphertext,
    KeyPair,
    Scalar,
    channel_decrypt,
    channel_encrypt,
    channel_key,
    hash_truncated,
    hybrid_decrypt,
    hybrid_encrypt,
    hybrid_seal,
    mul_g,
    prf_block,
    prf_blocks,
    scalar_mult,
    sign,
    verify,
)
from scms import bus
from scms.butterfly import CaterpillarRequest, TimeIndex, cocoon_expand
from scms.crypto import group, hybrid
from scms.crypto.group import (
    CURVE_P,
    add_pairs,
    ecdh_x,
    ecdsa_verify,
    gcm_open,
    gcm_seal,
)
from scms.crypto.signing import backend_verify
from scms.errors import DecryptionError, ParseError
from tests.conftest import fresh_python

_spec = importlib.util.spec_from_file_location(
    "make_vectors",
    Path(__file__).resolve().parent.parent / "scripts" / "make_vectors.py",
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def _affine(point: GroupElement):
    """A package point in the oracle's form: None or (x, y)."""
    return None if point.is_identity else (point.x, point.y)


def _aesgcm(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """AES-128-GCM by ``cryptography``, the test-side oracle for AES: the
    package itself never imports it."""
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    return AESGCM(key).encrypt(nonce, plaintext, None)


def _oracle_channel(key: bytes, plaintext: bytes, seed: bytes) -> bytes:
    """What ``channel_encrypt`` seals under ``DeterministicRandom(seed)``."""
    nonce = DeterministicRandom(seed).randbytes(12)
    return nonce + _aesgcm(key, nonce, plaintext)


# --- group ---

def test_point_encode_roundtrip():
    rng = DeterministicRandom(4)
    for _ in range(50):
        p = mul_g(rng.scalar())
        assert GroupElement.decode(p.encode()) == p
    assert GroupElement.decode(IDENTITY.encode()).is_identity


def test_point_decode_rejects_off_curve():
    bad = b"\x02" + b"\x11" * 32
    with pytest.raises(ParseError):
        GroupElement.decode(bad)
    with pytest.raises(ParseError):
        GroupElement.decode(b"\x05" + b"\x00" * 32)
    with pytest.raises(ParseError):
        GroupElement.decode(b"\x02" + b"\x00" * 10)


def test_point_decode_matches_pure_oracle():
    # differential check: OpenSSL decompression vs pure modular sqrt
    rng = DeterministicRandom(7)
    for _ in range(50):
        raw = mul_g(rng.scalar()).encode()
        assert _affine(GroupElement.decode(raw)) == oracle.decompress(raw)
    assert oracle.decompress(IDENTITY.encode()) is None
    malformed = [
        b"\x04" + G.encode()[1:],                       # bad tag
        b"\x00" + G.encode()[1:],                       # tag of the identity
        b"\x02" + CURVE_P.to_bytes(32, "big"),          # x = p
        b"\x03" + (2**256 - 1).to_bytes(32, "big"),     # x > p
        b"\x02" + b"\x11" * 32,                         # off the curve
        G.encode()[:-1],                                # short
        G.encode() + b"\x00",                           # long
        b"",
    ]
    for raw in malformed:
        with pytest.raises(ParseError):
            GroupElement.decode(raw)
        with pytest.raises(ValueError):
            oracle.decompress(raw)
    # on random x, both accept exactly the points on the curve
    rnd = random.Random(8)
    for _ in range(200):
        raw = bytes([rnd.choice((2, 3))]) + rnd.randbytes(32)
        try:
            expected = oracle.decompress(raw)
        except ValueError:
            with pytest.raises(ParseError):
                GroupElement.decode(raw)
        else:
            assert _affine(GroupElement.decode(raw)) == expected


def test_mul_g_matches_pure_scalar_mult():
    # backend cross-check: OpenSSL fixed-base vs the oracle's double-and-add
    rng = DeterministicRandom(5)
    for _ in range(50):
        s = rng.scalar()
        assert _affine(mul_g(s)) == oracle.ec_mul(s.value, (G.x, G.y))


def test_ecdh_x_matches_the_oracle():
    # libcrypto's variable-base multiplication vs the oracle's double-and-add
    rng = DeterministicRandom(62)
    cases = [(rng.scalar(), mul_g(rng.scalar())) for _ in range(10)]
    p = mul_g(rng.scalar())
    cases += [(Scalar(1), p), (Scalar(ORDER - 1), p), (Scalar(2), G)]
    for k, peer in cases:
        x, _ = oracle.ec_mul(k.value, _affine(peer))
        assert ecdh_x(k, peer) == x.to_bytes(32, "big")


def test_decode_matches_the_oracle_on_both_parities():
    # 500 x-coordinates on the curve, each with both of its points: the
    # coordinates read from libcrypto's Z = 1 point are the oracle's
    rnd = random.Random(66)
    decoded = 0
    while decoded < 1000:
        x = rnd.randbytes(32)
        try:
            oracle.decompress(b"\x02" + x)
        except ValueError:
            continue  # no point has this x
        for tag in (2, 3):
            raw = bytes([tag]) + x
            point = GroupElement.decode(raw)
            assert _affine(point) == oracle.decompress(raw)
            assert point.encode() == raw
            decoded += 1


@pytest.mark.parametrize("raw, reason, offset", [
    (G.encode()[:-1], "point must be 33 bytes, got 32", 0),
    (G.encode() + b"\x00", "point must be 33 bytes, got 34", 0),
    (b"\x04" + G.encode()[1:], "bad point compression tag 0x4", 0),
    (b"\x00" + G.encode()[1:], "bad point compression tag 0x0", 0),
    (b"\x02" + CURVE_P.to_bytes(32, "big"), "point is not on the curve", 1),
    (b"\x03" + (2**256 - 1).to_bytes(32, "big"), "point is not on the curve", 1),
    (b"\x02" + b"\x11" * 32, "point is not on the curve", 1),  # no square root
], ids=["short", "long", "tag-4", "tag-0", "x-is-p", "x-above-p", "non-residue"])
def test_each_decoder_refusal_keeps_its_reason_and_offset(raw, reason, offset):
    with pytest.raises(ParseError) as refused:
        GroupElement.decode(raw)
    assert (refused.value.reason, refused.value.offset) == (reason, offset)
    with pytest.raises(ValueError):
        oracle.decompress(raw)
    # the error queue of a thread is shared with ssl and hashlib
    assert group._lib.ERR_peek_error() == 0


def test_ecdh_refusals_keep_their_reasons_and_an_empty_error_queue():
    kp = KeyPair.generate(DeterministicRandom(63))
    identity = GroupElement.decode(b"\x00" * 33)
    assert identity is IDENTITY
    off_curve = GroupElement(kp.public.x, (kp.public.y + 1) % CURVE_P)
    for peer, reason in ((identity, "the identity is not an ECDH peer"),
                         (off_curve, "point is not on the curve")):
        with pytest.raises(ParseError) as refused:
            ecdh_x(kp.private, peer)
        assert (refused.value.reason, refused.value.offset) == (reason, 0)
        assert group._lib.ERR_peek_error() == 0


def test_threads_share_no_native_scratch():
    # each thread multiplies, decodes, verifies, seals and opens in its own
    # libcrypto working set; a native call releases the GIL, so the
    # threads' calls interleave; each thread verifies under signers of its
    # own, so a key set by another thread between set and verify shows
    rng = DeterministicRandom(64)
    jobs = [[(rng.scalar(), KeyPair.generate(rng)) for _ in range(25)]
            for _ in range(4)]
    key = rng.randbytes(16)
    signatures = {k: sign(signer.private, k.to_bytes())
                  for pairs in jobs for k, signer in pairs}
    results = [None] * len(jobs)

    def one(k, signer):
        text = k.to_bytes()  # the signed digest and the channel plaintext
        return (_affine(GroupElement.decode(mul_g(k).encode())),
                ecdsa_verify(signer.public.x, signer.public.y, text,
                             signatures[k]),
                channel_encrypt(key, text, DeterministicRandom(text)),
                channel_decrypt(key, _oracle_channel(key, text, text)))

    def work(n):
        results[n] = [[one(*pair) for pair in jobs[n]] for _ in range(8)]

    threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for pairs, rounds in zip(jobs, results):
        expected = [(oracle.ec_mul(k.value, (G.x, G.y)),
                     oracle.ecdsa_verify(_affine(signer.public), k.to_bytes(),
                                         signatures[k]),
                     _oracle_channel(key, k.to_bytes(), k.to_bytes()),
                     k.to_bytes()) for k, signer in pairs]
        assert [verdict for _, verdict, *_ in expected] == [True] * len(pairs)
        assert rounds == [expected] * 8


def test_group_algebra_against_random_base():
    # the package's affine addition and doubling vs the oracle's
    rng = DeterministicRandom(6)
    p = mul_g(rng.scalar())
    s1, s2 = rng.scalar(), rng.scalar()
    q = scalar_mult(s1, p)
    assert _affine(q) == oracle.ec_mul(s1.value, _affine(p))
    assert _affine(p + q) == oracle.ec_add(_affine(p), _affine(q))
    assert _affine(q + q) == oracle.ec_add(_affine(q), _affine(q))
    assert q + scalar_mult(s2, p) == scalar_mult(s1 + s2, p)
    assert scalar_mult(Scalar(0), p).is_identity
    assert (p + GroupElement(p.x, CURVE_P - p.y)).is_identity
    assert p + IDENTITY == IDENTITY + p == p


def test_add_pairs_matches_the_oracle():
    # pairs of distinct x share one inversion; a doubling, an inverse pair
    # and the identity on either side take the one-pair addition
    rng = DeterministicRandom(61)
    a, b, c, d = (mul_g(rng.scalar()) for _ in range(4))
    pairs = [
        (a, b), (c, c), (b, d), (a, GroupElement(a.x, CURVE_P - a.y)),
        (IDENTITY, c), (d, IDENTITY), (d, a), (IDENTITY, IDENTITY), (b, a),
    ]
    assert [_affine(s) for s in add_pairs(pairs)] == [
        oracle.ec_add(_affine(p), _affine(q)) for p, q in pairs
    ]
    assert add_pairs([]) == []


def test_scalar_reduction_and_inverse():
    s = Scalar(ORDER + 5)
    assert s.value == 5
    t = Scalar(1234567)
    assert t.value * pow(t.value, -1, ORDER) % ORDER == 1
    assert Scalar.from_bytes(t.to_bytes()) == t
    with pytest.raises(ValueError):
        Scalar.from_bytes(b"\x00" * 31)


# --- PRF / hash ---

def test_prf_block_golden_zero():
    out = prf_block(b"\x00" * 16, b"\x00" * 16)
    assert out.hex() == "66e94bd4ef8a2c3b884cfa59ca342b2e"


def test_prf_block_golden_sequential():
    out = prf_block(bytes(range(16)), bytes(range(16, 32)))
    assert out.hex() == "17effd67f5c015798817f40a92898c8c"


def test_prf_block_deterministic():
    k, x = b"\xab" * 16, b"\xcd" * 16
    assert prf_block(k, x) == prf_block(k, x)


def test_prf_block_is_cipher_xor_input():
    rnd = random.Random(99)
    for _ in range(1000):
        k = rnd.randbytes(16)
        x = rnd.randbytes(16)
        out = prf_block(k, x)
        assert bytes(a ^ b for a, b in zip(out, x)) == oracle.aes_ecb_block(k, x)


def test_prf_blocks_matches_single_calls():
    k = bytes(range(16))
    blocks = [bytes([i]) * 16 for i in range(5)]
    assert prf_blocks(k, blocks) == [prf_block(k, b) for b in blocks]


def test_hash_truncated_golden():
    full = hash_truncated(b"", 32)
    assert full.hex() == (
        "e3b0c44298fc1c149afbf4c8996fb924"
        "27ae41e4649b934ca495991b7852b855"
    )
    assert hash_truncated(b"abc", 16).hex() == "ba7816bf8f01cfea414140de5dae2223"


def test_hash_truncated_prefix_property():
    m = b"some message"
    assert hash_truncated(m, 16) == hash_truncated(m, 32)[:16]


def test_hash_truncated_range():
    with pytest.raises(ValueError):
        hash_truncated(b"x", 0)
    with pytest.raises(ValueError):
        hash_truncated(b"x", 33)


# --- signatures ---

GOLDEN_PRIV = Scalar(
    0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
)
GOLDEN_DIGEST = hashlib.sha256(b"golden signing vector").digest()
GOLDEN_SIG = bytes.fromhex(
    "9d3c674e448ffa9e6e995522f08d76d6106ab9fdc6b1eb59d972304e67cb422d"
    "c9f3ec8b5840d1b269c7967851c3ac8f7e347186ec616f6902d706c085b67091"
)


def test_sign_golden_vector():
    assert sign(GOLDEN_PRIV, GOLDEN_DIGEST) == GOLDEN_SIG


def test_sign_verify_roundtrip():
    rng = DeterministicRandom(10)
    kp = KeyPair.generate(rng)
    digest = hashlib.sha256(b"payload").digest()
    sig = sign(kp.private, digest)
    assert verify(kp.public, digest, sig)
    assert oracle.ecdsa_verify(_affine(kp.public), digest, sig)


def test_verify_wrong_key_fails():
    rng = DeterministicRandom(11)
    kp, other = KeyPair.generate(rng), KeyPair.generate(rng)
    digest = hashlib.sha256(b"payload").digest()
    sig = sign(kp.private, digest)
    assert not verify(other.public, digest, sig)


def test_verify_rejects_mutated_signatures():
    rng = DeterministicRandom(12)
    kp = KeyPair.generate(rng)
    digest = hashlib.sha256(b"mutation target").digest()
    sig = sign(kp.private, digest)
    rnd = random.Random(13)
    for _ in range(1000):
        pos = rnd.randrange(len(sig))
        bit = 1 << rnd.randrange(8)
        mutated = bytearray(sig)
        mutated[pos] ^= bit
        assert not verify(kp.public, digest, bytes(mutated))


def test_verify_malformed_no_crash():
    rng = DeterministicRandom(14)
    kp = KeyPair.generate(rng)
    digest = hashlib.sha256(b"x").digest()
    assert not verify(kp.public, digest, b"")
    assert not verify(kp.public, digest, b"\x00" * 64)
    assert not verify(kp.public, digest, b"\xff" * 64)
    assert not verify(kp.public, digest, b"\x01" * 63)


def test_verify_backends_agree():
    rng = DeterministicRandom(15)
    rnd = random.Random(16)
    for _ in range(30):
        kp = KeyPair.generate(rng)
        digest = rnd.randbytes(32)
        sig = sign(kp.private, digest)
        assert verify(kp.public, digest, sig)
        assert oracle.ecdsa_verify(_affine(kp.public), digest, sig)
        bad = bytearray(sig)
        bad[rnd.randrange(64)] ^= 0x40
        assert verify(kp.public, digest, bytes(bad)) == oracle.ecdsa_verify(
            _affine(kp.public), digest, bytes(bad)
        )


def test_native_verify_refuses_as_the_oracle_does():
    # libcrypto's ECDSA_do_verify against the pure oracle, the memo cleared
    # so that every case reaches libcrypto; a refusal leaves no error queued
    rng = DeterministicRandom(68)
    kp, other = KeyPair.generate(rng), KeyPair.generate(rng)
    digest = hashlib.sha256(b"native verify").digest()
    sig = sign(kp.private, digest)
    r, s = sig[:32], sig[32:]
    zero, n, top = bytes(32), ORDER.to_bytes(32, "big"), b"\xff" * 32
    cases = [
        (kp, digest, sig),
        (kp, hashlib.sha256(b"tampered").digest(), sig),
        (kp, digest, zero + s), (kp, digest, r + zero),
        (kp, digest, n + s), (kp, digest, r + n),
        (kp, digest, top + s), (kp, digest, r + top),
        (kp, digest, sign(other.private, digest)),
        (other, digest, sig),
    ]
    backend_verify.cache_clear()
    verdicts = []
    for signer, d, signature in cases:
        verdicts.append(verify(signer.public, d, signature))
        assert verdicts[-1] == oracle.ecdsa_verify(
            _affine(signer.public), d, signature)
        assert group._lib.ERR_peek_error() == 0
    assert verdicts == [True] + [False] * (len(cases) - 1)
    assert backend_verify.cache_info().misses == len(cases)


def test_a_refused_key_leaves_no_signer_behind():
    # the thread's one native key still holds A after A's verification: a
    # point refused next must not be checked against it, and B's must be
    rng = DeterministicRandom(69)
    a, b = KeyPair.generate(rng), KeyPair.generate(rng)
    digest = hashlib.sha256(b"carry-over").digest()
    sig = sign(a.private, digest)
    off_curve = GroupElement(a.public.x, (a.public.y + 1) % CURVE_P)
    backend_verify.cache_clear()
    assert verify(a.public, digest, sig)
    for refused in (off_curve, IDENTITY):
        assert not verify(refused, digest, sig)
        assert group._lib.ERR_peek_error() == 0
    with pytest.raises(ParseError):
        ecdsa_verify(off_curve.x, off_curve.y, digest, sig)
    assert group._lib.ERR_peek_error() == 0
    assert not verify(b.public, digest, sig)
    assert verify(b.public, digest, sign(b.private, digest))


def test_verify_memo_keeps_each_verdict_to_its_triple():
    rng = DeterministicRandom(17)
    kp, other = KeyPair.generate(rng), KeyPair.generate(rng)
    digest = hashlib.sha256(b"memo").digest()
    sig = sign(kp.private, digest)
    assert verify(kp.public, digest, sig)
    flipped = sig[:40] + bytes([sig[40] ^ 0x01]) + sig[41:]
    assert not verify(kp.public, digest, flipped)
    assert not verify(other.public, digest, sig)
    assert verify(kp.public, digest, sig)


def test_verify_memo_refuses_non_bytes_without_type_error():
    rng = DeterministicRandom(18)
    kp = KeyPair.generate(rng)
    digest = hashlib.sha256(b"memo").digest()
    sig = sign(kp.private, digest)
    assert verify(kp.public, digest, sig)
    assert not verify(kp.public, digest, bytearray(sig))
    assert not verify(kp.public, bytearray(digest), sig)
    assert not verify(kp.public, digest, sig[:-1])
    assert not verify(kp.public, digest, sig + b"\x00")
    assert not verify(kp.public, digest[:-1], sig)


def test_repeated_verify_is_a_memo_hit():
    rng = DeterministicRandom(19)
    kp = KeyPair.generate(rng)
    digest = hashlib.sha256(b"memo").digest()
    sig = sign(kp.private, digest)
    backend_verify.cache_clear()
    assert verify(kp.public, digest, sig)
    first = backend_verify.cache_info()
    assert (first.hits, first.misses) == (0, 1)
    assert verify(kp.public, digest, sig)
    again = backend_verify.cache_info()
    assert (again.hits, again.misses) == (1, 1)


# --- hybrid encryption ---

def test_hybrid_roundtrip():
    rng = DeterministicRandom(20)
    kp = KeyPair.generate(rng)
    pt = b"certificate and reconstruction value"
    ct = hybrid_encrypt(kp.public, pt, rng)
    assert hybrid_decrypt(kp.private, ct) == pt
    # AES-GCM under the shared key and the zero nonce
    key = hybrid._shared_key(kp.private, ct.ephemeral, ct.ephemeral.encode())
    assert ct.payload + ct.tag == _aesgcm(key, bytes(12), pt)


def test_hybrid_wrong_key_fails():
    rng = DeterministicRandom(21)
    kp, other = KeyPair.generate(rng), KeyPair.generate(rng)
    ct = hybrid_encrypt(kp.public, b"secret", rng)
    with pytest.raises(DecryptionError):
        hybrid_decrypt(other.private, ct)


def test_hybrid_bit_flip_fails():
    rng = DeterministicRandom(22)
    kp = KeyPair.generate(rng)
    ct = hybrid_encrypt(kp.public, b"payload bytes here", rng)
    flipped = bytearray(ct.payload)
    flipped[3] ^= 1
    bad = HybridCiphertext(ct.ephemeral, bytes(flipped), ct.tag)
    with pytest.raises(DecryptionError):
        hybrid_decrypt(kp.private, bad)


def test_gcm_matches_cryptography_and_refuses_every_flipped_byte():
    # seal and open through libcrypto against cryptography's AESGCM; a bit
    # flipped anywhere in the nonce, ciphertext or tag is a DecryptionError
    # that leaves no error queued
    rnd = random.Random(69)
    for size in (0, 1, 16, 17, 300):
        key, nonce, plaintext = (rnd.randbytes(16), rnd.randbytes(12),
                                 rnd.randbytes(size))
        sealed = gcm_seal(key, nonce, plaintext)
        assert sealed == _aesgcm(key, nonce, plaintext)
        assert gcm_open(key, nonce, sealed[:-16], sealed[-16:]) == plaintext
        channel = nonce + sealed
        assert channel_decrypt(key, channel) == plaintext
        for pos in range(len(channel)):
            flipped = bytearray(channel)
            flipped[pos] ^= 1 << rnd.randrange(8)
            with pytest.raises(DecryptionError):
                channel_decrypt(key, bytes(flipped))
            assert group._lib.ERR_peek_error() == 0
        with pytest.raises(DecryptionError):
            channel_decrypt(rnd.randbytes(16), channel)
        assert group._lib.ERR_peek_error() == 0
    seed = b"channel nonce"
    assert channel_encrypt(key, plaintext, DeterministicRandom(seed)) == (
        _oracle_channel(key, plaintext, seed))


def test_aes_keys_and_nonces_of_the_wrong_length_are_refused():
    # libcrypto would read a key or nonce of its own length from the pointer
    for key, nonce in ((bytes(15), bytes(12)), (bytes(32), bytes(12)),
                       (bytes(16), bytes(11)), (bytes(16), bytes(16))):
        with pytest.raises(ValueError):
            gcm_seal(key, nonce, b"x")
        with pytest.raises(ValueError):
            gcm_open(key, nonce, b"x", bytes(16))
    with pytest.raises(ValueError):
        prf_block(bytes(15), bytes(16))


def test_hybrid_decode_short_input_is_a_parse_error():
    for n in (0, 32, 48):
        with pytest.raises(ParseError):
            HybridCiphertext.decode(b"\x02" * n)


def test_hybrid_encoding_roundtrip():
    rng = DeterministicRandom(23)
    kp = KeyPair.generate(rng)
    ct = hybrid_encrypt(kp.public, b"wire format", rng)
    decoded = HybridCiphertext.decode(ct.encode())
    assert hybrid_decrypt(kp.private, decoded) == b"wire format"


def test_a_spawned_pool_worker_gives_the_inline_results():
    # a process running threads spawns its pool workers (bus._workers):
    # fresh interpreters, which load the libcrypto adapter anew
    rng = DeterministicRandom(67)
    kp, k = KeyPair.generate(rng), rng.scalar()
    key, digest = rng.randbytes(16), rng.randbytes(32)
    req = CaterpillarRequest(mul_g(rng.scalar()), rng.randbytes(16),
                             mul_g(rng.scalar()), rng.randbytes(16))
    grid = [TimeIndex(i, j) for i in range(2) for j in range(4)]
    jobs = [
        (mul_g, (k,)),
        (GroupElement.decode, (kp.public.encode(),)),
        (ecdh_x, (k, kp.public)),
        (hybrid_seal, (kp.public, b"spawned", k)),
        (hybrid_decrypt, (kp.private, hybrid_seal(kp.public, b"spawned", k))),
        (ecdsa_verify, (kp.public.x, kp.public.y, digest,
                        sign(kp.private, digest))),
        (channel_encrypt, (key, b"spawned", DeterministicRandom(b"seal"))),
        (channel_decrypt, (key, _oracle_channel(key, b"spawned", b"open"))),
        (cocoon_expand, (req, grid)),
        (os.getpid, ()),
    ]
    context = multiprocessing.get_context("spawn")
    here, there = context.Pipe()
    worker = context.Process(target=bus._serve, daemon=True, args=(
        there, here, ["scms.butterfly", "scms.crypto.hybrid"]))
    worker.start()
    there.close()
    try:
        here.send(jobs)
        assert here.poll(120), "the spawned worker did not answer"
        ok, results = here.recv()
    finally:
        here.close()
        worker.join(timeout=10)
    assert ok, results
    *kernels, pid = results
    assert pid != os.getpid()
    assert kernels == bus.run_kernels(jobs[:-1])
    assert kernels[5:8] == [True, _oracle_channel(key, b"spawned", b"seal"),
                            b"spawned"]


def test_zero_ephemeral_scalar_is_refused():
    kp = KeyPair.generate(DeterministicRandom(65))
    with pytest.raises(ValueError):
        hybrid_seal(kp.public, b"x", Scalar(0))
    with pytest.raises(ValueError):
        ecdh_x(Scalar(0), kp.public)


# --- what verification keeps ---

@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads resident memory from Linux's /proc")
def test_verifying_many_signers_keeps_no_memory_per_signer():
    # pseudonyms rotate, so a receiver hears ever new signers: verifying
    # 2,000 of them holds at most the bounded verify memo (a native key
    # kept per signer held about 4.6 MiB)
    out = fresh_python(
        "import hashlib, os\n"
        "from scms.crypto import DeterministicRandom, KeyPair, sign, verify\n"
        "rng = DeterministicRandom(27)\n"
        "digest = hashlib.sha256(b'signers').digest()\n"
        "signed = [(kp.public, sign(kp.private, digest)) for kp in\n"
        "          (KeyPair.generate(rng) for _ in range(2000))]\n"
        "def resident():\n"
        "    with open('/proc/self/statm') as statm:\n"
        "        return int(statm.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
        "assert verify(signed[0][0], digest, signed[0][1])\n"
        "before = resident()\n"
        "assert all(verify(public, digest, sig) for public, sig in signed)\n"
        "print(resident() - before)")
    assert int(out) < 2**20


def test_ecdh_peer_must_be_a_curve_point():
    rng = DeterministicRandom(26)
    kp = KeyPair.generate(rng)
    off_curve = GroupElement(kp.public.x, (kp.public.y + 1) % CURVE_P)
    for peer in (IDENTITY, off_curve):
        with pytest.raises(ParseError):
            hybrid_encrypt(peer, b"x", rng)
        with pytest.raises(ParseError):
            channel_key(kp.private, peer, b"label")
    with pytest.raises(DecryptionError):
        hybrid_decrypt(kp.private, HybridCiphertext(IDENTITY, b"", b"\x00" * 16))
    ct = hybrid_encrypt(kp.public, b"x", rng)
    with pytest.raises(ParseError):
        hybrid_decrypt(kp.private, HybridCiphertext(
            GroupElement(ct.ephemeral.x, ct.ephemeral.y ^ 2), ct.payload, ct.tag))
    # a verification key off the curve is a refusal, not an error
    digest = hashlib.sha256(b"off").digest()
    assert not verify(off_curve, digest, sign(kp.private, digest))


# --- deterministic randomness ---

def test_rng_streams_replay():
    a = DeterministicRandom(42, "shuffle-test")
    b = DeterministicRandom(42, "shuffle-test")
    assert a.randbytes(64) == b.randbytes(64)
    assert DeterministicRandom(42, "shuffle-test").randbytes(8).hex() == (
        "be3042990e3a82b1"
    )


def test_rng_golden_permutation():
    rng = DeterministicRandom(42, "shuffle-test")
    items = list(range(10))
    rng.shuffle(items)
    assert items == [6, 9, 5, 2, 7, 1, 0, 8, 4, 3]


def test_rng_child_streams_differ():
    root = DeterministicRandom(1)
    assert root.child("a").randbytes(16) != root.child("b").randbytes(16)
    # child derivation does not consume or depend on parent position
    fresh = DeterministicRandom(1)
    assert fresh.child("a").randbytes(16) == DeterministicRandom(1).child(
        "a"
    ).randbytes(16)


def test_rng_randbelow_bounds():
    rng = DeterministicRandom(2)
    seen = {rng.randbelow(7) for _ in range(200)}
    assert seen == set(range(7))


def test_rng_scalar_nonzero():
    rng = DeterministicRandom(3)
    for _ in range(100):
        assert rng.scalar().value != 0
