"""Prime-order group arithmetic on NIST P-256; the one libcrypto adapter.

Scalars are integers mod the group order; group elements are curve points
with a representable identity. Point addition is affine Python, one pair
at a time (``GroupElement.__add__``) or many pairs with one field
inversion (``add_pairs``); so is ``scalar_mult``, which no run calls.

Every native crypto call of the package is made here, into the system
libcrypto that Python's own ``hashlib`` loads, through ``ctypes``; every
function called is declared in ``_SIGNATURES``, and each refusal leaves
OpenSSL's error queue empty. The ``EC_POINT`` API gives fixed-base
multiplication (``mul_g``), ECDH (``ecdh_x``) and point decompression
(``GroupElement.decode``), with no key objects. ECDSA verification
(``ecdsa_verify``) is libcrypto's ``ECDSA_do_verify`` under an ``EC_KEY``
that ``backend_public`` builds and caches per signer, the only native key
objects of the package, each freed with its cache entry. AES-128-GCM
(``gcm_seal``, ``gcm_open``) and the AES-128 block of the PRF
(``aes_ecb``) run through ``EVP``, on cipher contexts that each thread
initialises once. The point decoder reads the coordinates of the Z = 1
point that libcrypto decompresses, so it makes no field inversion; it
keeps only affine coordinates and memoizes nothing: a certificate decoded
again comes whole from the certificate memo, keys included. The pure
reference is ``scripts/make_vectors.py``, which imports nothing from this
package; the test suite cross-checks the decoder, ``mul_g``, ``ecdh_x``,
point addition and verification against it, and AES against
``cryptography``, which only the tests and that script use. Any
discrete-log group with ~256-bit order could be substituted behind these
types.

Normative encodings: Scalar = 32 bytes big-endian; GroupElement = 33 bytes
SEC1 compressed, identity = 33 zero bytes. The decoder raises
``ParseError`` on a wrong length, a bad tag, x >= p or an off-curve point.
"""

from __future__ import annotations

import _hashlib
import ctypes
import threading
import weakref
from ctypes import POINTER, c_char_p, c_int, c_size_t, c_ulong, c_void_p
from functools import lru_cache

from ..encoding import require_bytes
from ..errors import DecryptionError, ParseError

CURVE_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
CURVE_A = CURVE_P - 3
GEN_X = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GEN_Y = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

SCALAR_BYTES = 32
POINT_BYTES = 33
AES_KEY_BYTES = 16
GCM_NONCE_BYTES = 12
GCM_TAG_BYTES = 16
# The one native key cache; signature verification is its only reader.
# An entry holds a libcrypto EC_KEY (with its own copy of the group):
# about 2.5 KB of resident memory a key, measured over 4,095 keys, so a
# full cache holds about 10 MB and peak RSS bounds the size. After one
# seed-1 perfbench run it holds 29 keys on provision, 425 on v2x_traffic
# and 687 on fleet_revocation, in the bus process.
KEY_MEMO_SIZE = 4096

# --- the libcrypto adapter ---

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
    "EC_KEY_new_by_curve_name": (c_void_p, [c_int]),
    "EC_KEY_set_public_key": (c_int, [c_void_p, c_void_p]),
    "EC_KEY_free": (None, [c_void_p]),
    "ECDSA_SIG_new": (c_void_p, []),
    "ECDSA_SIG_set0": (c_int, [c_void_p, c_void_p, c_void_p]),
    "ECDSA_SIG_free": (None, [c_void_p]),
    "ECDSA_do_verify": (c_int, [c_char_p, c_int, c_void_p, c_void_p]),
    "EVP_aes_128_gcm": (c_void_p, []),
    "EVP_aes_128_ecb": (c_void_p, []),
    "EVP_CIPHER_CTX_new": (c_void_p, []),
    "EVP_CIPHER_CTX_free": (None, [c_void_p]),
    "EVP_CIPHER_CTX_set_padding": (c_int, [c_void_p, c_int]),
    "EVP_CIPHER_CTX_ctrl": (c_int, [c_void_p, c_int, c_int, c_void_p]),
    "EVP_EncryptInit_ex": (c_int, [c_void_p, c_void_p, c_void_p, c_char_p,
                                   c_char_p]),
    "EVP_EncryptUpdate": (c_int, [c_void_p, c_void_p, POINTER(c_int),
                                  c_char_p, c_int]),
    "EVP_EncryptFinal_ex": (c_int, [c_void_p, c_void_p, POINTER(c_int)]),
    "EVP_DecryptInit_ex": (c_int, [c_void_p, c_void_p, c_void_p, c_char_p,
                                   c_char_p]),
    "EVP_DecryptUpdate": (c_int, [c_void_p, c_void_p, POINTER(c_int),
                                  c_char_p, c_int]),
    "EVP_DecryptFinal_ex": (c_int, [c_void_p, c_void_p, POINTER(c_int)]),
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
                      f"lacks a function this adapter calls") from exc
if _lib.OpenSSL_version_num() < 0x30000000:
    raise ImportError(f"scms.crypto needs OpenSSL >= 3.0; {_LIBCRYPTO} is "
                      f"version {_lib.OpenSSL_version_num():#x}")
_NID_P256 = 415  # NID_X9_62_prime256v1
_UNCOMPRESSED = 4  # POINT_CONVERSION_UNCOMPRESSED
_CTRL_GET_TAG, _CTRL_SET_TAG = 0x10, 0x11  # EVP_CTRL_AEAD_{GET,SET}_TAG
# read-only, shared by every thread
_GROUP = _lib.EC_GROUP_new_by_curve_name(_NID_P256)
_AES_GCM, _AES_ECB = _lib.EVP_aes_128_gcm(), _lib.EVP_aes_128_ecb()
if not (_GROUP and _AES_GCM and _AES_ECB):
    raise ImportError(f"{_LIBCRYPTO} has no P-256 group or no AES-128")


class _Scratch:
    """One thread's native working set, freed with it: a BN_CTX, a result
    and a peer point, a scalar, the two coordinates of a decoded point,
    the 65-byte uncompressed output, an ECDSA_SIG that owns the numbers
    r and s, and one cipher context per mode (GCM seal, GCM open, ECB),
    each given its cipher once, so that a call passes only key and
    nonce."""

    def __init__(self):
        self.ctx = _lib.BN_CTX_new()
        self.point = _lib.EC_POINT_new(_GROUP)
        self.peer = _lib.EC_POINT_new(_GROUP)
        numbers = [_lib.BN_new() for _ in range(5)]
        self.scalar, self.x, self.y, self.r, self.s = numbers
        self.sig = _lib.ECDSA_SIG_new()
        ciphers = [_lib.EVP_CIPHER_CTX_new() for _ in range(3)]
        self.seal, self.open, self.block = ciphers
        self.out = ctypes.create_string_buffer(1 + 2 * 32)
        self.length = c_int()  # the output length of an EVP call
        owned = bool(self.ctx and self.point and self.peer and all(numbers)
                     and all(ciphers) and self.sig
                     and _lib.ECDSA_SIG_set0(self.sig, self.r, self.s))
        weakref.finalize(self, _release, self.ctx, (self.point, self.peer),
                         numbers[:3] if owned else numbers, self.sig, ciphers)
        nothing = (None, None, None)  # no engine, key or nonce yet
        if not (owned
                and _lib.EVP_EncryptInit_ex(self.seal, _AES_GCM, *nothing)
                and _lib.EVP_DecryptInit_ex(self.open, _AES_GCM, *nothing)
                and _lib.EVP_EncryptInit_ex(self.block, _AES_ECB, *nothing)
                and _lib.EVP_CIPHER_CTX_set_padding(self.block, 0)):
            _lib.ERR_clear_error()
            raise MemoryError("libcrypto could not allocate the scratch")


def _release(ctx, points, numbers, sig, ciphers) -> None:
    _lib.BN_CTX_free(ctx)
    for point in points:
        _lib.EC_POINT_free(point)
    for number in numbers:
        _lib.BN_free(number)
    _lib.ECDSA_SIG_free(sig)
    for cipher in ciphers:
        _lib.EVP_CIPHER_CTX_free(cipher)


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


def _load_peer(s: _Scratch, x: int, y: int) -> None:
    """Set ``s.peer`` to (x, y); raises ``ParseError`` if it is not a
    curve point."""
    raw = b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")
    if not _lib.EC_POINT_oct2point(_GROUP, s.peer, raw, 65, s.ctx):
        _lib.ERR_clear_error()
        raise ParseError("point is not on the curve", 0)


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
        _load_peer(s, peer.x, peer.y)
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


class _VerificationKey:
    """A libcrypto EC_KEY that holds one public point, freed with this
    object."""

    def __init__(self, point):
        self.ec_key = _lib.EC_KEY_new_by_curve_name(_NID_P256)
        weakref.finalize(self, _lib.EC_KEY_free, self.ec_key)
        if not (self.ec_key and _lib.EC_KEY_set_public_key(self.ec_key, point)):
            _lib.ERR_clear_error()
            raise MemoryError("libcrypto could not build an EC_KEY")


@lru_cache(maxsize=KEY_MEMO_SIZE)
def backend_public(x: int, y: int) -> _VerificationKey:
    """Native verification key of the point (x, y), kept for the key's
    next signature; raises ``ParseError`` if (x, y) is not on the
    curve."""
    s = _scratch()
    _load_peer(s, x, y)
    return _VerificationKey(s.peer)


def ecdsa_verify(x: int, y: int, digest: bytes, signature: bytes) -> bool:
    """libcrypto's verdict on the 64-byte signature r || s of a 32-byte
    digest under the key at (x, y); raises ``ParseError`` if (x, y) is not
    on the curve. An r or s of 0 or not below ORDER is refused."""
    if len(digest) != 32 or len(signature) != 64:
        raise ValueError("digest must be 32 bytes and signature 64")
    # this reference keeps the EC_KEY alive if another thread evicts it
    key = backend_public(x, y)
    s = _scratch()
    _lib.BN_bin2bn(signature, 32, s.r)
    _lib.BN_bin2bn(signature[32:], 32, s.s)
    verdict = _lib.ECDSA_do_verify(digest, 32, s.sig, key.ec_key)
    if verdict == 1:
        return True
    _lib.ERR_clear_error()  # r or s out of range leaves an error queued
    if verdict < 0:  # not a verdict: an allocation failed
        raise MemoryError("libcrypto ECDSA_do_verify failed")
    return False


def _check_aes_key(key: bytes) -> None:
    # libcrypto reads the key length of its cipher from the pointer
    if len(key) != AES_KEY_BYTES:
        raise ValueError(f"AES key must be {AES_KEY_BYTES} bytes")


def aes_ecb(key: bytes, data: bytes) -> bytes:
    """AES-128 encryption of each 16-byte block of ``data``."""
    _check_aes_key(key)
    if len(data) % 16:
        raise ValueError("data must be whole 16-byte blocks")
    s = _scratch()
    out = ctypes.create_string_buffer(len(data))
    if not (_lib.EVP_EncryptInit_ex(s.block, None, None, key, None)
            and _lib.EVP_EncryptUpdate(s.block, out, s.length, data,
                                       len(data))):
        _lib.ERR_clear_error()
        raise MemoryError("libcrypto AES-128-ECB failed")
    return out.raw


def _check_gcm(key: bytes, nonce: bytes) -> None:
    _check_aes_key(key)
    if len(nonce) != GCM_NONCE_BYTES:
        raise ValueError(f"GCM nonce must be {GCM_NONCE_BYTES} bytes")


def gcm_seal(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """AES-128-GCM ciphertext of ``plaintext``, with no associated data,
    followed by its 16-byte tag."""
    _check_gcm(key, nonce)
    s, n = _scratch(), len(plaintext)
    out = ctypes.create_string_buffer(n + GCM_TAG_BYTES)
    if not (_lib.EVP_EncryptInit_ex(s.seal, None, None, key, nonce)
            and _lib.EVP_EncryptUpdate(s.seal, out, s.length, plaintext, n)
            and _lib.EVP_EncryptFinal_ex(s.seal, out, s.length)
            and _lib.EVP_CIPHER_CTX_ctrl(s.seal, _CTRL_GET_TAG, GCM_TAG_BYTES,
                                         ctypes.byref(out, n))):
        _lib.ERR_clear_error()
        raise MemoryError("libcrypto AES-128-GCM seal failed")
    return out.raw


def gcm_open(key: bytes, nonce: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    """The plaintext that ``gcm_seal`` sealed into ``ciphertext`` and
    ``tag``; raises ``DecryptionError`` if the tag does not verify."""
    _check_gcm(key, nonce)
    if len(tag) != GCM_TAG_BYTES:
        raise DecryptionError("authentication failed")
    s, n = _scratch(), len(ciphertext)
    out = ctypes.create_string_buffer(n)
    if (_lib.EVP_DecryptInit_ex(s.open, None, None, key, nonce)
            and _lib.EVP_CIPHER_CTX_ctrl(s.open, _CTRL_SET_TAG, GCM_TAG_BYTES,
                                         tag)
            and _lib.EVP_DecryptUpdate(s.open, out, s.length, ciphertext, n)
            and _lib.EVP_DecryptFinal_ex(s.open, out, s.length) > 0):
        return out.raw
    _lib.ERR_clear_error()
    raise DecryptionError("authentication failed")


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
