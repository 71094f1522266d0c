#!/usr/bin/env python3
"""Reference oracle for the committed golden-vector file.

Every value in vectors/golden.txt is computed here from first principles:
single AES-128-ECB block calls, SHA-256, and naive big-integer elliptic
curve arithmetic. This script deliberately imports nothing from the scms
package so the vectors stay an independent check on the library; it is
also the pure reference the library's tests compare against, point
decompression and ECDSA verification included.

Usage:
    python scripts/make_vectors.py [--out vectors/golden.txt]
"""

import argparse
import hashlib
from pathlib import Path

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

# NIST P-256 domain parameters.
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


def aes_ecb_block(key: bytes, block: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def davies_meyer(key: bytes, block: bytes) -> bytes:
    out = aes_ecb_block(key, block)
    return bytes(a ^ b for a, b in zip(out, block))


def sha_trunc(data: bytes, u: int) -> bytes:
    return hashlib.sha256(data).digest()[:u]


def expansion_input(kind: str, i: int, j: int) -> bytes:
    prefix = b"\x00" * 4 if kind == "sign" else b"\xff" * 4
    return prefix + i.to_bytes(4, "big") + j.to_bytes(4, "big") + b"\x00" * 4


def expand_f(key: bytes, kind: str, i: int, j: int) -> int:
    x = int.from_bytes(expansion_input(kind, i, j), "big")
    out = b""
    for step in (1, 2, 3):
        block = ((x + step) % (1 << 128)).to_bytes(16, "big")
        out += davies_meyer(key, block)
    return int.from_bytes(out, "big") % N


def evolve_seed(la_id: bytes, seed: bytes) -> bytes:
    return sha_trunc(la_id + seed, 16)


def pre_linkage_value(seed: bytes, la_id: bytes, j: int) -> bytes:
    block = la_id + j.to_bytes(4, "big") + b"\x00" * 8
    return davies_meyer(seed, block)[:9]


# --- naive affine curve arithmetic (slow, only for vector generation) ---

def ec_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % P == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    return x3, (lam * (x1 - x3) - y1) % P


def ec_mul(k, point):
    result = None
    addend = point
    while k:
        if k & 1:
            result = ec_add(result, addend)
        addend = ec_add(addend, addend)
        k >>= 1
    return result


def compress(point) -> bytes:
    if point is None:
        return b"\x00" * 33
    x, y = point
    return bytes([2 + (y & 1)]) + x.to_bytes(32, "big")


def decompress(data: bytes):
    """Inverse of compress; ValueError on a bad length or tag, x >= p or a
    point off the curve."""
    if len(data) != 33:
        raise ValueError("point must be 33 bytes")
    if data == b"\x00" * 33:
        return None
    x = int.from_bytes(data[1:], "big")
    if data[0] not in (2, 3) or x >= P:
        raise ValueError("bad tag or x out of range")
    rhs = (pow(x, 3, P) + A * x + B) % P
    y = pow(rhs, (P + 1) // 4, P)  # p = 3 mod 4
    if y * y % P != rhs:
        raise ValueError("point is not on the curve")
    return x, y if (y & 1) == (data[0] & 1) else P - y


def ecdsa_sign(priv: int, digest: bytes) -> bytes:
    # Deterministic nonce: hash of key, digest and a fixed domain label.
    e = int.from_bytes(digest, "big") % N
    ctr = 0
    while True:
        material = priv.to_bytes(32, "big") + digest + b"scms-ecdsa-nonce-v1"
        if ctr:
            material += ctr.to_bytes(4, "big")
        k = int.from_bytes(hashlib.sha256(material).digest(), "big") % N
        ctr += 1
        if k == 0:
            continue
        rx, _ = ec_mul(k, (GX, GY))
        r = rx % N
        if r == 0:
            continue
        s = pow(k, -1, N) * (e + r * priv) % N
        if s == 0:
            continue
        return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def ecdsa_verify(point, digest: bytes, sig: bytes) -> bool:
    if point is None or len(digest) != 32 or len(sig) != 64:
        return False
    r, s = int.from_bytes(sig[:32], "big"), int.from_bytes(sig[32:], "big")
    if not (1 <= r < N and 1 <= s < N):
        return False
    w = pow(s, -1, N)
    e = int.from_bytes(digest, "big") % N
    R = ec_add(ec_mul(e * w % N, (GX, GY)), ec_mul(r * w % N, point))
    return R is not None and R[0] % N == r


def build_lines():
    lines = []
    add = lines.append

    key0 = b"\x00" * 16
    blk0 = b"\x00" * 16
    add(("prf_block", key0.hex(), blk0.hex(), davies_meyer(key0, blk0).hex()))
    key1 = bytes(range(16))
    blk1 = bytes(range(16, 32))
    add(("prf_block", key1.hex(), blk1.hex(), davies_meyer(key1, blk1).hex()))

    # "-" marks an empty byte string (fields are whitespace-separated)
    add(("hash_trunc", "-", "32", sha_trunc(b"", 32).hex()))
    add(("hash_trunc", b"abc".hex(), "16", sha_trunc(b"abc", 16).hex()))

    for key, kind, i, j in [
        (key0, "sign", 0, 0),
        (key0, "sign", 1, 2),
        (key0, "enc", 1, 2),
        (key1, "sign", 52, 7),
        (key1, "enc", 52, 7),
        (key0, "sign", 0xFFFFFFFF, 0xFFFFFFFF),
    ]:
        scalar = expand_f(key, kind, i, j)
        add(("expand_f", key.hex(), kind, str(i), str(j),
             scalar.to_bytes(32, "big").hex()))

    la1 = (1).to_bytes(4, "big")
    la2 = (2).to_bytes(4, "big")
    seed0 = b"\x00" * 16
    add(("evolve_seed", la1.hex(), seed0.hex(), evolve_seed(la1, seed0).hex()))
    seed_i = bytes(range(16))
    add(("evolve_seed", la2.hex(), seed_i.hex(), evolve_seed(la2, seed_i).hex()))

    add(("plv", seed0.hex(), b"\x00\x00\x00\x00".hex(), "0",
         pre_linkage_value(seed0, b"\x00" * 4, 0).hex()))
    add(("plv", seed_i.hex(), la1.hex(), "19",
         pre_linkage_value(seed_i, la1, 19).hex()))

    p1 = pre_linkage_value(seed0, la1, 3)
    p2 = pre_linkage_value(seed_i, la2, 3)
    lv = bytes(a ^ b for a, b in zip(p1, p2))
    add(("lv", p1.hex(), p2.hex(), lv.hex()))

    priv = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
    digest = hashlib.sha256(b"golden signing vector").digest()
    add(("ecdsa_sign", priv.to_bytes(32, "big").hex(), digest.hex(),
         ecdsa_sign(priv, digest).hex()))

    a = 0x1E4C8A7C39B1D0E2F5A6B3C4D5E6F70819293A4B5C6D7E8F9A0B1C2D3E4F5061 % N
    A_pt = ec_mul(a, (GX, GY))
    f = expand_f(key1, "sign", 3, 5)
    B_pt = ec_add(A_pt, ec_mul(f, (GX, GY)))
    add(("cocoon", a.to_bytes(32, "big").hex(), key1.hex(), "sign", "3", "5",
         compress(B_pt).hex()))
    # device-side private key must match: (a + f) * G == B
    assert ec_mul((a + f) % N, (GX, GY)) == B_pt

    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    default_out = Path(__file__).resolve().parent.parent / "vectors" / "golden.txt"
    ap.add_argument("--out", type=Path, default=default_out)
    args = ap.parse_args()

    lines = build_lines()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write("# golden vectors, generated by scripts/make_vectors.py\n")
        for fields in lines:
            fh.write(" ".join(fields) + "\n")
    print(f"wrote {len(lines)} vectors to {args.out}")


if __name__ == "__main__":
    main()
