"""Canonical deterministic binary codec.

Encodes a restricted value model (None, bool, int, bytes, str, list, dict
with string keys) such that equal values always produce identical bytes:
integers use minimal-width two's complement and dict entries are sorted by
their UTF-8 key bytes. The decoder accepts only these canonical bytes (an
int of another width, or a repeated or out-of-order key, is a
``ParseError``), so ``encode(decode(b)) == b`` whenever ``decode(b)``
succeeds. Used for message payloads and for bus envelopes, whose
encodings the trace hashes. Certificate and CRL wire formats have
their own fixed layouts in certmodel, read through ``Reader``. A decoded
payload is read through ``fields``, which checks each field's presence
and exact type, and a list of fixed-shape rows through ``rows``.
"""

from __future__ import annotations

import struct
from types import GenericAlias

from .errors import ParseError

_NONE = 0x00
_FALSE = 0x01
_TRUE = 0x02
_INT = 0x03
_BYTES = 0x04
_STR = 0x05
_LIST = 0x06
_DICT = 0x07


def encode(value) -> bytes:
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _encode_into(value, out: bytearray) -> None:
    if value is None:
        out.append(_NONE)
    elif value is True:
        out.append(_TRUE)
    elif value is False:
        out.append(_FALSE)
    elif isinstance(value, int):
        width = (value.bit_length() + 8) // 8
        out.append(_INT)
        out.append(width)
        out += value.to_bytes(width, "big", signed=True)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_BYTES)
        out += len(value).to_bytes(4, "big")
        out += value
    elif isinstance(value, str):
        raw = value.encode()
        out.append(_STR)
        out += len(raw).to_bytes(4, "big")
        out += raw
    elif isinstance(value, (list, tuple)):
        out.append(_LIST)
        out += len(value).to_bytes(4, "big")
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            items.append((key.encode(), item))
        items.sort(key=lambda kv: kv[0])
        out.append(_DICT)
        out += len(items).to_bytes(4, "big")
        for raw_key, item in items:
            out += len(raw_key).to_bytes(4, "big")
            out += raw_key
            _encode_into(item, out)
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__}")


def dict_layout(*keys: str) -> tuple[bytes, ...]:
    """The bytes that ``encode`` writes before each value of a dict with
    exactly ``keys``, given in the codec's sorted order, the first with the
    dict's header, so that joining each part with the encoding of its value
    gives ``encode`` of the dict."""
    raws = [key.encode() for key in keys]
    if raws != sorted(set(raws)):
        raise ValueError("keys must be distinct and in sorted order")
    parts = [len(raw).to_bytes(4, "big") + raw for raw in raws]
    parts[0] = bytes([_DICT]) + len(raws).to_bytes(4, "big") + parts[0]
    return tuple(parts)


def decode(data: bytes):
    require_bytes(data)
    try:
        value, offset = _decode_at(data, 0)
    except RecursionError:
        raise ParseError("value nested too deeply", 0) from None
    if offset != len(data):
        raise ParseError("trailing bytes after value", offset)
    return value


def require_bytes(data) -> None:
    """The first check of every decoder of outside input."""
    if not isinstance(data, bytes):
        raise ParseError(f"expected bytes, got {type(data).__name__}", 0)


def fields(mapping, **kinds) -> tuple:
    """The values of ``mapping`` under each keyword, in keyword order.

    Each kind is a type, a tuple of types, or ``list[T]`` for a list whose
    items all have type ``T``, and a value must have exactly that type
    (``True`` is not an ``int``). A non-dict mapping, a missing key or a
    wrong type raises ``ParseError``: the one check a handler applies to a
    payload before it writes or sends anything.
    """
    if type(mapping) is not dict:
        raise ParseError(f"expected a mapping, got {type(mapping).__name__}", 0)
    values = []
    for key, kind in kinds.items():
        if key not in mapping:
            raise ParseError(f"missing field {key!r}", 0)
        value = mapping[key]
        if type(value) is not kind and not _has_kind(value, kind):
            raise ParseError(
                f"field {key!r} has the wrong type {type(value).__name__}", 0
            )
        values.append(value)
    return tuple(values)


def _has_kind(value, kind) -> bool:
    if type(kind) is tuple:
        return type(value) in kind
    if type(kind) is GenericAlias:
        (item,) = kind.__args__
        return type(value) is list and all(type(v) is item for v in value)
    return False


def rows(items, *kinds) -> list:
    """``items`` if it is a list of rows, each a list holding one value of
    exactly each kind in order; otherwise ``ParseError``."""
    if type(items) is not list or not all(
        type(row) is list and len(row) == len(kinds)
        and all(type(v) is kind for v, kind in zip(row, kinds))
        for row in items
    ):
        raise ParseError(f"expected a list of {len(kinds)}-item rows", 0)
    return items


def _need(data: bytes, offset: int, n: int) -> int:
    end = offset + n
    if end > len(data):
        raise ParseError("truncated input", offset)
    return end


def _decode_at(data: bytes, offset: int):
    _need(data, offset, 1)
    tag = data[offset]
    offset += 1
    if tag == _NONE:
        return None, offset
    if tag == _FALSE:
        return False, offset
    if tag == _TRUE:
        return True, offset
    if tag == _INT:
        end = _need(data, offset, 1)
        width = data[offset]
        end = _need(data, end, width)
        value = int.from_bytes(data[offset + 1 : end], "big", signed=True)
        if width != (value.bit_length() + 8) // 8:  # the width encode gives
            raise ParseError(f"int width {width} is not minimal", offset)
        return value, end
    if tag == _BYTES or tag == _STR:
        end = _need(data, offset, 4)
        length = int.from_bytes(data[offset:end], "big")
        end2 = _need(data, end, length)
        if tag == _BYTES:
            return data[end:end2], end2
        try:
            return data[end:end2].decode(), end2
        except UnicodeDecodeError:
            raise ParseError("invalid UTF-8 text", end) from None
    if tag == _LIST:
        end = _need(data, offset, 4)
        count = int.from_bytes(data[offset:end], "big")
        items = []
        offset = end
        for _ in range(count):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return items, offset
    if tag == _DICT:
        end = _need(data, offset, 4)
        count = int.from_bytes(data[offset:end], "big")
        offset = end
        result = {}
        previous = None
        for _ in range(count):
            end = _need(data, offset, 4)
            klen = int.from_bytes(data[offset:end], "big")
            end2 = _need(data, end, klen)
            raw_key = data[end:end2]
            if previous is not None and raw_key <= previous:
                raise ParseError("dict key repeated or out of order", end)
            previous = raw_key
            try:
                key = raw_key.decode()
            except UnicodeDecodeError:
                raise ParseError("invalid UTF-8 key", end) from None
            value, offset = _decode_at(data, end2)
            result[key] = value
        return result, offset
    raise ParseError(f"unknown type tag {tag:#x}", offset - 1)


class Reader:
    """Bounds-checked cursor over one input, and the one length check of
    the fixed binary layouts: a read past the end raises ``ParseError`` at
    the offset where that read began."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        require_bytes(data)
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        start, end = self.pos, self.pos + n
        if end > len(self.data):
            raise ParseError(f"truncated {what}", start)
        self.pos = end
        return self.data[start:end]

    def unpack(self, layout: struct.Struct, what: str) -> tuple:
        return layout.unpack(self.take(layout.size, what))

    def u16(self, what: str) -> int:
        return int.from_bytes(self.take(2, what), "big")

    def u32(self, what: str) -> int:
        return int.from_bytes(self.take(4, what), "big")

    def text(self, n: int, what: str) -> str:
        start = self.pos
        try:
            return self.take(n, what).decode()
        except UnicodeDecodeError:
            raise ParseError(f"invalid UTF-8 in {what}", start) from None

    def rest(self) -> bytes:
        return self.take(len(self.data) - self.pos, "remainder")

    def done(self, what: str) -> None:
        if self.pos != len(self.data):
            raise ParseError(f"trailing bytes after {what}", self.pos)


def within(decoder, raw: bytes, start: int):
    """``decoder(raw)`` for bytes found at ``start`` of a larger input; a
    ParseError is re-raised at its offset in that input."""
    try:
        return decoder(raw)
    except ParseError as exc:
        raise ParseError(exc.reason, start + exc.offset) from None
