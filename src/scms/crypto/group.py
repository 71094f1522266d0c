"""Prime-order group arithmetic on NIST P-256.

Scalars are integers mod the group order; group elements are curve points
with a representable identity. Point addition is affine Python, one pair
at a time (``GroupElement.__add__``) or many pairs with one field
inversion (``add_pairs``); so is ``scalar_mult``, which no run calls.
Fixed-base multiplication (``mul_g``), ECDH
(``ecdh_x``) and point decompression (``GroupElement.decode``) call the
``EC_POINT`` API of the system libcrypto that Python's own ``hashlib``
loads, through ``ctypes``, with no key objects: this module is the one
adapter to that library, and every function it calls is declared in
``_SIGNATURES``. ECDSA verification stays in ``cryptography``, whose
keys are built only here: ``backend_public`` caches the keys of
signature verification, the only keys that are used again. The point
decoder reads the coordinates of the Z = 1 point that libcrypto
decompresses, so it makes no field inversion; it keeps only affine
coordinates and memoizes nothing: a certificate decoded again comes
whole from the certificate memo, keys included. The pure reference is
``scripts/make_vectors.py``, which imports nothing from this package;
the test suite cross-checks the decoder, ``mul_g``, ``ecdh_x`` and point
addition against it. Any discrete-log group with ~256-bit order could be
substituted behind these types.

Normative encodings: Scalar = 32 bytes big-endian; GroupElement = 33 bytes
SEC1 compressed, identity = 33 zero bytes. The decoder raises
``ParseError`` on a wrong length, a bad tag, x >= p or an off-curve point.
"""

from __future__ import annotations

import _hashlib
import ctypes
import threading
import weakref
from ctypes import c_char_p, c_int, c_size_t, c_ulong, c_void_p
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
# The one OpenSSL key cache; signature verification is its only reader.
# An entry holds an OpenSSL key, so peak RSS bounds the size. After one
# seed-1 perfbench run it holds 29 keys on provision, 425 on v2x_traffic
# and 687 on fleet_revocation.
KEY_MEMO_SIZE = 4096

_CURVE = ec.SECP256R1()

# --- the libcrypto EC_POINT adapter ---

# name -> (restype, argtypes) of every libcrypto function called here (and
# ERR_peek_error, which the tests read); an undeclared call would return a
# C int and truncate a 64-bit pointer. Each failed call is followed by
# ERR_clear_error, so the thread's error queue, which ssl and hashlib
# share, stays empty.
_SIGNATURES = {
    "OpenSSL_version_num": (c_ulong, []),
    "EC_GROUP_new_by_curve_name": (c_void_p, [c_int]),
    "EC_POINT_new": (c_void_p, [c_void_p]),
    "EC_POINT_free": (None, [c_void_p]),
    "EC_POINT_mul": (c_int, [c_void_p, c_void_p, c_void_p, c_void_p,
                             c_void_p, c_void_p]),
    "EC_POINT_oct2point": (c_int, [c_void_p, c_void_p, c_char_p, c_size_t,
                                   c_void_p]),
    "EC_POINT_point2oct": (c_size_t, [c_void_p, c_void_p, c_int, c_char_p,
                                      c_size_t, c_void_p]),
    # deprecated since OpenSSL 3.0, and still exported by its builds
    "EC_POINT_get_Jprojective_coordinates_GFp": (c_int, [c_void_p] * 6),
    "BN_CTX_new": (c_void_p, []),
    "BN_CTX_free": (None, [c_void_p]),
    "BN_new": (c_void_p, []),
    "BN_free": (None, [c_void_p]),
    "BN_bin2bn": (c_void_p, [c_char_p, c_int, c_void_p]),
    "BN_bn2binpad": (c_int, [c_void_p, c_char_p, c_int]),
    "ERR_clear_error": (None, []),
    "ERR_peek_error": (c_ulong, []),
}
# The libcrypto that hashlib links, so the process holds one: a symbol
# looked up through the handle of hashlib's extension module resolves in
# the libraries it links. (ctypes.util.find_library would import
# subprocess and run ldconfig, about 5 ms of every start-up.)
_LIBCRYPTO = f"the libcrypto that {getattr(_hashlib, '__file__', '_hashlib')} links"
try:
    _lib = ctypes.CDLL(_hashlib.__file__)
    for _name, (_restype, _argtypes) in _SIGNATURES.items():
        _fn = getattr(_lib, _name)
        _fn.restype, _fn.argtypes = _restype, _argtypes
except (AttributeError, OSError) as exc:
    raise ImportError(f"scms.crypto needs OpenSSL >= 3.0; {_LIBCRYPTO} "
                      f"lacks its EC_POINT API") from exc
if _lib.OpenSSL_version_num() < 0x30000000:
    raise ImportError(f"scms.crypto needs OpenSSL >= 3.0; {_LIBCRYPTO} is "
                      f"version {_lib.OpenSSL_version_num():#x}")
_NID_P256 = 415  # NID_X9_62_prime256v1
_UNCOMPRESSED = 4  # POINT_CONVERSION_UNCOMPRESSED
_GROUP = _lib.EC_GROUP_new_by_curve_name(_NID_P256)  # read-only, shared
if not _GROUP:
    raise ImportError(f"{_LIBCRYPTO} has no P-256 group")


class _Scratch:
    """One thread's native working set: a BN_CTX, a result and a peer
    point, a scalar, the two coordinates of a decoded point and the
    65-byte uncompressed output, freed with it."""

    def __init__(self):
        self.ctx = _lib.BN_CTX_new()
        self.point = _lib.EC_POINT_new(_GROUP)
        self.peer = _lib.EC_POINT_new(_GROUP)
        numbers = [_lib.BN_new() for _ in range(3)]
        self.scalar, self.x, self.y = numbers
        self.out = ctypes.create_string_buffer(1 + 2 * 32)
        weakref.finalize(self, _release, self.ctx, (self.point, self.peer),
                         numbers)
        if not (self.ctx and self.point and self.peer and all(numbers)):
            raise MemoryError("libcrypto could not allocate EC scratch")


def _release(ctx, points, numbers) -> None:
    _lib.BN_CTX_free(ctx)
    for point in points:
        _lib.EC_POINT_free(point)
    for number in numbers:
        _lib.BN_free(number)


_local = threading.local()


def _scratch() -> _Scratch:
    try:
        return _local.scratch
    except AttributeError:
        _local.scratch = _Scratch()
        return _local.scratch


def _affine_of(s: _Scratch) -> tuple[int, int]:
    """(x, y) of ``s.point``, which is never the identity here."""
    if _lib.EC_POINT_point2oct(_GROUP, s.point, _UNCOMPRESSED, s.out, 65,
                               s.ctx) != 65:
        _lib.ERR_clear_error()
        raise ArithmeticError("libcrypto returned the identity")
    raw = s.out.raw
    return int.from_bytes(raw[1:33], "big"), int.from_bytes(raw[33:], "big")


def _decoded_coordinates(s: _Scratch) -> tuple[int, int]:
    """(x, y) of ``s.point`` as ``EC_POINT_oct2point`` leaves it: it sets
    the affine coordinates with Z = 1, so the Jacobian X and Y are x and
    y, read without the field inversion that the P-256 method's affine
    conversion (``_affine_of``) makes even when Z is 1. Only a decoded
    point has Z = 1; a product of ``EC_POINT_mul`` does not."""
    if not _lib.EC_POINT_get_Jprojective_coordinates_GFp(
            _GROUP, s.point, s.x, s.y, None, s.ctx):
        _lib.ERR_clear_error()
        raise MemoryError("libcrypto could not read the decoded point")
    _lib.BN_bn2binpad(s.x, s.out, 32)
    x = int.from_bytes(s.out.raw[:32], "big")
    _lib.BN_bn2binpad(s.y, s.out, 32)
    return x, int.from_bytes(s.out.raw[:32], "big")


def _multiply(k: int, peer: GroupElement | None) -> tuple[int, int]:
    """(x, y) of k * peer, or of k * G if ``peer`` is None, for
    0 < k < ORDER; raises ``ParseError`` if ``peer`` is the identity or
    not a curve point."""
    if not 0 < k < ORDER:
        raise ValueError("scalar must be in [1, ORDER)")
    s = _scratch()
    _lib.BN_bin2bn(k.to_bytes(SCALAR_BYTES, "big"), SCALAR_BYTES, s.scalar)
    if peer is None:
        ok = _lib.EC_POINT_mul(_GROUP, s.point, s.scalar, None, None, s.ctx)
    else:
        if peer.is_identity:
            raise ParseError("the identity is not an ECDH peer", 0)
        raw = b"\x04" + peer.x.to_bytes(32, "big") + peer.y.to_bytes(32, "big")
        if not _lib.EC_POINT_oct2point(_GROUP, s.peer, raw, 65, s.ctx):
            _lib.ERR_clear_error()
            raise ParseError("point is not on the curve", 0)
        ok = _lib.EC_POINT_mul(_GROUP, s.point, None, s.peer, s.scalar, s.ctx)
    if not ok:
        _lib.ERR_clear_error()
        raise MemoryError("libcrypto EC_POINT_mul failed")
    return _affine_of(s)


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
        if len(data) != POINT_BYTES:
            raise ParseError(f"point must be {POINT_BYTES} bytes, got {len(data)}", 0)
        if data[0] not in (2, 3):
            raise ParseError(f"bad point compression tag {data[0]:#x}", 0)
        # libcrypto refuses x >= p and an x with no square root
        s = _scratch()
        if not _lib.EC_POINT_oct2point(_GROUP, s.point, data, POINT_BYTES,
                                       s.ctx):
            _lib.ERR_clear_error()
            raise ParseError("point is not on the curve", 1)
        return cls(*_decoded_coordinates(s))

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


@lru_cache(maxsize=KEY_MEMO_SIZE)
def backend_public(x: int, y: int) -> ec.EllipticCurvePublicKey:
    """``cryptography`` verification key of the point (x, y), kept for the
    key's next signature; raises ``ParseError`` if (x, y) is not on the
    curve."""
    try:
        return ec.EllipticCurvePublicNumbers(x, y, _CURVE).public_key()
    except ValueError:
        raise ParseError("point is not on the curve", 0) from None


IDENTITY = GroupElement(None, None)
G = GroupElement(GEN_X, GEN_Y)


def mul_g(k: Scalar) -> GroupElement:
    """k * G via libcrypto (pure reference: ``ec_mul`` in
    scripts/make_vectors.py)."""
    kv = k.value if isinstance(k, Scalar) else int(k) % ORDER
    if kv == 0:
        return IDENTITY
    return GroupElement(*_multiply(kv, None))


def ecdh_x(k: Scalar, peer: GroupElement) -> bytes:
    """The 32-byte x-coordinate of k * peer, the ECDH shared secret; raises
    ``ValueError`` on a zero k and ``ParseError`` if ``peer`` is the
    identity or off the curve."""
    return _multiply(k.value, peer)[0].to_bytes(32, "big")


def add_pairs(pairs: list[tuple[GroupElement, GroupElement]]) -> list[GroupElement]:
    """``p + q`` for each pair (p, q), in order. Every pair of two points
    with distinct x shares one ``pow`` inversion (Montgomery's trick); a
    pair with equal x or the identity goes through ``GroupElement.__add__``."""
    sums = [None] * len(pairs)
    distinct = [n for n, (p, q) in enumerate(pairs)
                if p.x is not None and q.x is not None and p.x != q.x]
    # prefixes[k] is the product of the first k denominators x2 - x1
    prefixes, product = [], 1
    for n in distinct:
        p, q = pairs[n]
        prefixes.append(product)
        product = product * (q.x - p.x) % CURVE_P
    inverse = pow(product, -1, CURVE_P)  # of every denominator not yet used
    for n, prefix in zip(reversed(distinct), reversed(prefixes)):
        p, q = pairs[n]
        lam = (q.y - p.y) * inverse * prefix % CURVE_P
        inverse = inverse * (q.x - p.x) % CURVE_P
        x3 = (lam * lam - p.x - q.x) % CURVE_P
        sums[n] = GroupElement(x3, (lam * (p.x - x3) - p.y) % CURVE_P)
    return [p + q if total is None else total
            for (p, q), total in zip(pairs, sums)]


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
