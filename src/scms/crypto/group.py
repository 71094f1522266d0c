"""Prime-order group arithmetic on NIST P-256.

Scalars are integers mod the group order; group elements are curve points
with a representable identity. Point addition is affine Python, and so is
``scalar_mult``, which no run calls; every other curve operation runs in
the OpenSSL backend, whose keys are all built here. The point decoder
keeps only affine coordinates, memoized per encoding. ``backend_key``
builds a key from a point's coordinates for one call (ECDH peers);
``backend_public`` caches the keys of signature verification, the only
keys that are used again, so the one-shot butterfly, response and
ephemeral points never reach it; ``backend_private`` serves ``mul_g`` and
ECDH. The pure reference is ``scripts/make_vectors.py``, which imports
nothing from this package; the test suite cross-checks the decoder,
``mul_g`` and point addition against it. Any discrete-log group with
~256-bit order could be substituted behind these types.

Normative encodings: Scalar = 32 bytes big-endian; GroupElement = 33 bytes
SEC1 compressed, identity = 33 zero bytes. The decoder raises
``ParseError`` on a wrong length, a bad tag, x >= p or an off-curve point.
"""

from __future__ import annotations

from functools import lru_cache

from cryptography.hazmat.primitives.asymmetric import ec

from ..encoding import require_bytes
from ..errors import ParseError

CURVE_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
CURVE_A = CURVE_P - 3
GEN_X = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GEN_Y = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

SCALAR_BYTES = 32
POINT_BYTES = 33
# Encodings whose affine coordinates the point decoder keeps. On perfbench
# seed 1, v2x_traffic misses 1,454 times at 1024 entries, as at 4096, and
# 1,601 times at 256; fleet_revocation misses 5,241, 5,114 and 5,391 times.
POINT_MEMO_SIZE = 1024

_CURVE = ec.SECP256R1()


class Scalar:
    """Integer mod the group order, always stored reduced."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value % ORDER

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.value + other.value)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(SCALAR_BYTES, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Scalar":
        if len(data) != SCALAR_BYTES:
            raise ValueError(f"scalar must be {SCALAR_BYTES} bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Scalar", self.value))

    def __repr__(self) -> str:
        return f"Scalar(0x{self.value:x})"


class GroupElement:
    """Curve point in affine coordinates; (None, None) is the identity."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if x1 == x2:
            if (y1 + y2) % CURVE_P == 0:
                return IDENTITY
            lam = (3 * x1 * x1 + CURVE_A) * pow(2 * y1, -1, CURVE_P) % CURVE_P
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, CURVE_P) % CURVE_P
        x3 = (lam * lam - x1 - x2) % CURVE_P
        y3 = (lam * (x1 - x3) - y1) % CURVE_P
        return GroupElement(x3, y3)

    def encode(self) -> bytes:
        if self.is_identity:
            return b"\x00" * POINT_BYTES
        return bytes([2 + (self.y & 1)]) + self.x.to_bytes(32, "big")

    @classmethod
    def decode(cls, data: bytes) -> "GroupElement":
        require_bytes(data)
        if data == _IDENTITY_BYTES:
            return IDENTITY
        return cls(*_affine(data))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash(("GroupElement", self.x, self.y))

    def __repr__(self) -> str:
        if self.is_identity:
            return "GroupElement(identity)"
        return f"GroupElement(x=0x{self.x:x})"


_IDENTITY_BYTES = b"\x00" * POINT_BYTES


# Encodings decoded again (certificates, CA and enrollment keys) skip the
# decompression on a hit. An entry is two ints, not an OpenSSL key, so the
# one-shot points that also pass through cost little room.
@lru_cache(maxsize=POINT_MEMO_SIZE)
def _affine(encoded: bytes) -> tuple[int, int]:
    """Affine x, y of a compressed non-identity point; raises
    ``ParseError`` on a wrong length, a bad tag, x >= p or an off-curve
    point."""
    if len(encoded) != POINT_BYTES:
        raise ParseError(f"point must be {POINT_BYTES} bytes, got {len(encoded)}", 0)
    if encoded[0] not in (2, 3):
        raise ParseError(f"bad point compression tag {encoded[0]:#x}", 0)
    try:
        key = ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, encoded)
    except ValueError:
        raise ParseError("point is not on the curve", 1) from None
    nums = key.public_numbers()
    return nums.x, nums.y


def backend_key(point: GroupElement) -> ec.EllipticCurvePublicKey:
    """Backend key of ``point``, built from its coordinates and not kept;
    raises ``ParseError`` if the point is the identity or (x, y) is not
    on the curve."""
    if point.is_identity:
        raise ParseError("the identity has no backend key", 0)
    try:
        return ec.EllipticCurvePublicNumbers(point.x, point.y, _CURVE).public_key()
    except ValueError:
        raise ParseError("point is not on the curve", 0) from None


# The one OpenSSL key cache; signature verification is its only reader.
# An entry holds an OpenSSL key, so peak RSS bounds the size. After one
# seed-1 perfbench run it holds 29 keys on provision, 425 on v2x_traffic
# and 687 on fleet_revocation.
@lru_cache(maxsize=4096)
def backend_public(x: int, y: int) -> ec.EllipticCurvePublicKey:
    """``backend_key`` of the point (x, y), kept for the next signature."""
    return backend_key(GroupElement(x, y))


def backend_private(k: int) -> ec.EllipticCurvePrivateKey:
    """Backend private key for the scalar value k, 0 < k < ORDER."""
    return ec.derive_private_key(k, _CURVE)


IDENTITY = GroupElement(None, None)
G = GroupElement(GEN_X, GEN_Y)


def mul_g(k: Scalar) -> GroupElement:
    """k * G via the OpenSSL backend (pure reference: ``ec_mul`` in
    scripts/make_vectors.py)."""
    kv = k.value if isinstance(k, Scalar) else int(k) % ORDER
    if kv == 0:
        return IDENTITY
    nums = backend_private(kv).public_key().public_numbers()
    return GroupElement(nums.x, nums.y)


# no protocol path multiplies an arbitrary base; defined only because the
# traced benchmark wraps it by name
def scalar_mult(k: Scalar, point: GroupElement) -> GroupElement:
    """k * point by double-and-add over ``GroupElement.__add__``."""
    kv, result = k.value, IDENTITY
    while kv:
        if kv & 1:
            result = result + point
        point = point + point
        kv >>= 1
    return result


class KeyPair:
    """Private scalar with its public point (public = private * G)."""

    __slots__ = ("private", "public")

    def __init__(self, private: Scalar, public: GroupElement | None = None):
        self.private = private
        self.public = public if public is not None else mul_g(private)

    @classmethod
    def generate(cls, rng) -> "KeyPair":
        return cls(rng.scalar())

    def __repr__(self) -> str:
        return f"KeyPair(public={self.public!r})"
