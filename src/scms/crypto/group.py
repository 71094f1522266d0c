"""Prime-order group arithmetic on NIST P-256.

Scalars are integers mod the group order; group elements are curve points
with a representable identity. Arbitrary-base multiplication is pure
Python (Jacobian wNAF); the hot fixed-base path ``mul_g`` is delegated to
the OpenSSL backend of ``cryptography`` and cross-checked against the pure
implementation in the test suite. Any discrete-log group with ~256-bit
order could be substituted behind these types.

Normative encodings: Scalar = 32 bytes big-endian; GroupElement = 33 bytes
SEC1 compressed, identity = 33 zero bytes. Both point decoders raise
``ParseError`` on a wrong length, a bad tag, x >= p or an off-curve point.
"""

from __future__ import annotations

from cryptography.hazmat.primitives.asymmetric import ec

from ..encoding import require_bytes
from ..errors import ParseError

CURVE_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
CURVE_A = CURVE_P - 3
CURVE_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
GEN_X = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GEN_Y = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

SCALAR_BYTES = 32
POINT_BYTES = 33

_CURVE = ec.SECP256R1()


class Scalar:
    """Integer mod the group order, always stored reduced."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value % ORDER

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.value + other.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.value - other.value)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Scalar(self.value * other.value)
        if isinstance(other, GroupElement):
            return other.mul(self)
        return NotImplemented

    def __neg__(self) -> "Scalar":
        return Scalar(-self.value)

    def inverse(self) -> "Scalar":
        if self.value == 0:
            raise ZeroDivisionError("scalar 0 has no inverse")
        return Scalar(pow(self.value, -1, ORDER))

    def is_zero(self) -> bool:
        return self.value == 0

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

    def __init__(self, x, y, _skip_check: bool = False):
        if x is not None and not _skip_check:
            if not _on_curve(x, y):
                raise ValueError("point is not on the curve")
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
        return GroupElement(x3, y3, _skip_check=True)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + other.negate()

    def negate(self) -> "GroupElement":
        if self.is_identity:
            return self
        return GroupElement(self.x, (-self.y) % CURVE_P, _skip_check=True)

    def mul(self, k: Scalar) -> "GroupElement":
        return scalar_mult(k, self)

    def __mul__(self, k: Scalar) -> "GroupElement":
        return scalar_mult(k, self)

    __rmul__ = __mul__

    def encode(self) -> bytes:
        if self.is_identity:
            return b"\x00" * POINT_BYTES
        return bytes([2 + (self.y & 1)]) + self.x.to_bytes(32, "big")

    @classmethod
    def decode(cls, data: bytes) -> "GroupElement":
        require_bytes(data)
        if data == _IDENTITY_BYTES:
            return IDENTITY
        x, y = _decompress(data)
        return cls(x, y, _skip_check=True)

    @classmethod
    def decode_pure(cls, data: bytes) -> "GroupElement":
        """Reference decoder (pure modular square root); the differential
        oracle for the backend path in tests."""
        _check_point_frame(data)
        if data == _IDENTITY_BYTES:
            return IDENTITY
        tag = data[0]
        x = int.from_bytes(data[1:], "big")
        if x >= CURVE_P:
            raise ParseError("point x coordinate out of range", 1)
        rhs = (pow(x, 3, CURVE_P) + CURVE_A * x + CURVE_B) % CURVE_P
        y = pow(rhs, (CURVE_P + 1) // 4, CURVE_P)
        if y * y % CURVE_P != rhs:
            raise ParseError("point is not on the curve", 1)
        if (y & 1) != (tag & 1):
            y = CURVE_P - y
        return cls(x, y, _skip_check=True)

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


def _check_point_frame(data: bytes) -> None:
    if len(data) != POINT_BYTES:
        raise ParseError(f"point must be {POINT_BYTES} bytes, got {len(data)}", 0)
    if data[0] not in (2, 3) and data != _IDENTITY_BYTES:
        raise ParseError(f"bad point compression tag {data[0]:#x}", 0)


def _on_curve(x: int, y: int) -> bool:
    return (y * y - (pow(x, 3, CURVE_P) + CURVE_A * x + CURVE_B)) % CURVE_P == 0


from functools import lru_cache  # noqa: E402  (backend helper below the types)


@lru_cache(maxsize=16384)
def _decompress(data: bytes) -> tuple[int, int]:
    _check_point_frame(data)  # runs on a cache miss only; a hit passed it
    try:
        nums = ec.EllipticCurvePublicKey.from_encoded_point(
            _CURVE, data
        ).public_numbers()
    except ValueError:
        raise ParseError("point is not on the curve", 1) from None
    return nums.x, nums.y


IDENTITY = GroupElement(None, None)
G = GroupElement(GEN_X, GEN_Y, _skip_check=True)


# --- scalar multiplication ---

def _jdouble(X1, Y1, Z1):
    if Z1 == 0:
        return X1, Y1, Z1
    YY = Y1 * Y1 % CURVE_P
    S = 4 * X1 * YY % CURVE_P
    ZZ = Z1 * Z1 % CURVE_P
    M = (3 * X1 * X1 + CURVE_A * ZZ * ZZ) % CURVE_P
    X3 = (M * M - 2 * S) % CURVE_P
    Y3 = (M * (S - X3) - 8 * YY * YY) % CURVE_P
    Z3 = 2 * Y1 * Z1 % CURVE_P
    return X3, Y3, Z3


def _jadd(X1, Y1, Z1, X2, Y2, Z2):
    if Z1 == 0:
        return X2, Y2, Z2
    if Z2 == 0:
        return X1, Y1, Z1
    Z1Z1 = Z1 * Z1 % CURVE_P
    Z2Z2 = Z2 * Z2 % CURVE_P
    U1 = X1 * Z2Z2 % CURVE_P
    U2 = X2 * Z1Z1 % CURVE_P
    S1 = Y1 * Z2 * Z2Z2 % CURVE_P
    S2 = Y2 * Z1 * Z1Z1 % CURVE_P
    H = (U2 - U1) % CURVE_P
    R = (S2 - S1) % CURVE_P
    if H == 0:
        if R == 0:
            return _jdouble(X1, Y1, Z1)
        return 0, 1, 0
    HH = H * H % CURVE_P
    HHH = H * HH % CURVE_P
    V = U1 * HH % CURVE_P
    X3 = (R * R - HHH - 2 * V) % CURVE_P
    Y3 = (R * (V - X3) - S1 * HHH) % CURVE_P
    Z3 = Z1 * Z2 * H % CURVE_P
    return X3, Y3, Z3


def _wnaf(k: int, width: int):
    digits = []
    while k:
        if k & 1:
            d = k & ((1 << width) - 1)
            if d >= 1 << (width - 1):
                d -= 1 << width
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def scalar_mult(k: Scalar, point: GroupElement) -> GroupElement:
    """k * point for an arbitrary base, width-5 wNAF over Jacobian coords."""
    kv = k.value if isinstance(k, Scalar) else int(k) % ORDER
    if kv == 0 or point.is_identity:
        return IDENTITY
    px, py = point.x, point.y
    # odd multiples 1P, 3P, ..., 15P
    table = [(px, py, 1)]
    twox, twoy, twoz = _jdouble(px, py, 1)
    for _ in range(7):
        last = table[-1]
        table.append(_jadd(last[0], last[1], last[2], twox, twoy, twoz))
    rx, ry, rz = 0, 1, 0
    for d in reversed(_wnaf(kv, 5)):
        rx, ry, rz = _jdouble(rx, ry, rz)
        if d:
            tx, ty, tz = table[abs(d) >> 1]
            if d < 0:
                ty = (-ty) % CURVE_P
            rx, ry, rz = _jadd(rx, ry, rz, tx, ty, tz)
    if rz == 0:
        return IDENTITY
    zi = pow(rz, -1, CURVE_P)
    zi2 = zi * zi % CURVE_P
    return GroupElement(rx * zi2 % CURVE_P, ry * zi2 * zi % CURVE_P,
                        _skip_check=True)


def mul_g(k: Scalar) -> GroupElement:
    """k * G via the OpenSSL backend (reference path: scalar_mult(k, G))."""
    kv = k.value if isinstance(k, Scalar) else int(k) % ORDER
    if kv == 0:
        return IDENTITY
    nums = ec.derive_private_key(kv, _CURVE).public_key().public_numbers()
    return GroupElement(nums.x, nums.y, _skip_check=True)


def scalar_mul_add(base: GroupElement, s: Scalar, offset: GroupElement) -> GroupElement:
    """offset + s*base, the cocoon/butterfly building block."""
    if base == G:
        return offset + mul_g(s)
    return offset + scalar_mult(s, base)


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
