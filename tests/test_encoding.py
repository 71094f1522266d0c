"""Canonical codec tests: round trips, canonicity, malformed input."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scms.encoding import decode, encode
from scms.errors import ParseError


def test_scalar_values_roundtrip():
    for value in [None, True, False, 0, 1, -1, 255, -256, 2**70, -(2**70),
                  b"", b"\x00\xff", "", "text", "ünïcode"]:
        assert decode(encode(value)) == value


def test_containers_roundtrip():
    value = {
        "list": [1, b"two", "three", None, True],
        "nested": {"a": [{"b": -5}], "c": b"\xff" * 300},
        "empty": [],
    }
    assert decode(encode(value)) == value


def test_dict_key_order_is_canonical():
    a = encode({"x": 1, "y": 2, "z": [3]})
    b = encode({"z": [3], "y": 2, "x": 1})
    assert a == b


def test_int_encoding_minimal_width():
    # equal ints encode identically regardless of how they were produced
    assert encode(2**16) == encode(int.from_bytes(b"\x01\x00\x00", "big"))
    assert len(encode(0)) == 3
    assert len(encode(127)) < len(encode(128)) or True  # width grows with sign bit
    assert decode(encode(128)) == 128
    assert decode(encode(-129)) == -129


def test_random_values_roundtrip():
    rnd = random.Random(7)

    def make(depth=0):
        kinds = ["int", "bytes", "str", "bool", "none"]
        if depth < 3:
            kinds += ["list", "dict"]
        kind = rnd.choice(kinds)
        if kind == "int":
            return rnd.randint(-(2**64), 2**64)
        if kind == "bytes":
            return rnd.randbytes(rnd.randrange(20))
        if kind == "str":
            return "".join(rnd.choice("abcβγ∆") for _ in range(rnd.randrange(8)))
        if kind == "bool":
            return rnd.random() < 0.5
        if kind == "none":
            return None
        if kind == "list":
            return [make(depth + 1) for _ in range(rnd.randrange(4))]
        return {f"k{n}": make(depth + 1) for n in range(rnd.randrange(4))}

    for _ in range(300):
        value = make()
        assert decode(encode(value)) == value


def test_truncated_input_raises_with_offset():
    raw = encode({"key": b"0123456789"})
    with pytest.raises(ParseError) as err:
        decode(raw[:-3])
    assert err.value.offset > 0


def test_trailing_bytes_rejected():
    with pytest.raises(ParseError):
        decode(encode(5) + b"\x00")


def test_unknown_tag_rejected():
    with pytest.raises(ParseError):
        decode(b"\x63")


def test_non_string_dict_keys_rejected():
    with pytest.raises(TypeError):
        encode({1: "x"})


def test_unsupported_type_rejected():
    with pytest.raises(TypeError):
        encode(1.5)


def test_invalid_utf8_is_a_parse_error():
    raw = encode("text")
    with pytest.raises(ParseError) as err:
        decode(raw[:-1] + b"\xff")
    assert err.value.offset == 5
    raw = encode({"key": 1})
    with pytest.raises(ParseError):
        decode(raw.replace(b"key", b"k\xffy"))


def test_deep_nesting_is_a_parse_error():
    data = b"\x06\x00\x00\x00\x01" * 100_000 + b"\x00"
    with pytest.raises(ParseError):
        decode(data)


# --- only canonical bytes decode ---

def _entry(key: bytes, value: bytes) -> bytes:
    return len(key).to_bytes(4, "big") + key + value


def _dict(*entries: bytes) -> bytes:
    return b"\x07" + len(entries).to_bytes(4, "big") + b"".join(entries)


def test_repeated_dict_key_is_a_parse_error():
    raw = _dict(_entry(b"a", encode(1)), _entry(b"a", encode(2)))
    with pytest.raises(ParseError) as err:
        decode(raw)
    assert err.value.offset == 17  # the second key's bytes


def test_dict_keys_out_of_utf8_order_are_a_parse_error():
    assert decode(_dict(_entry(b"a", encode(1)), _entry(b"b", encode(2)))) == {
        "a": 1, "b": 2}
    raw = _dict(_entry(b"b", encode(1)), _entry(b"a", encode(2)))
    with pytest.raises(ParseError) as err:
        decode(raw)
    assert err.value.offset == 17
    # UTF-8 byte order, not code-point order of the decoded text, decides
    raw = _dict(_entry("\u00e9".encode(), encode(1)), _entry(b"z", encode(2)))
    with pytest.raises(ParseError):
        decode(raw)


def test_zero_width_int_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        decode(b"\x03\x00")
    assert err.value.offset == 1  # the width byte
    with pytest.raises(ParseError):
        decode(encode([None, 0])[:-2] + b"\x03\x00")


def test_wider_than_minimal_int_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        decode(b"\x03\x05" + (1).to_bytes(5, "big"))
    assert err.value.offset == 1
    for value in (-128, 127, 128, -129, 2**64):
        raw = encode(value)
        wider = raw[:1] + bytes([raw[1] + 1]) + value.to_bytes(
            raw[1] + 1, "big", signed=True)
        with pytest.raises(ParseError):
            decode(wider)
    # a narrower width that still holds the bits, against the sign rule
    with pytest.raises(ParseError):
        decode(b"\x03\x01\x80")  # -128 encodes in two bytes


_KEYS = st.sampled_from([b"", b"a", b"b", b"ab", "\u00e9".encode(), b"\xff"])


def _loose(children):
    """Encodings built like the codec's, but with any int width, key order,
    repeated keys and invalid UTF-8 allowed."""
    length = st.integers(0, 3)
    return st.one_of(
        st.builds(lambda width, raw: b"\x03" + bytes([width]) + raw[:width],
                  st.integers(0, 6), st.binary(min_size=6, max_size=6)),
        st.builds(lambda tag, raw: tag + len(raw).to_bytes(4, "big") + raw,
                  st.sampled_from([b"\x04", b"\x05"]),
                  st.one_of(st.binary(max_size=4), _KEYS)),
        st.lists(children, max_size=3).map(
            lambda items: b"\x06" + len(items).to_bytes(4, "big") + b"".join(items)),
        st.lists(st.tuples(_KEYS, children), max_size=3).map(
            lambda entries: _dict(*(_entry(k, v) for k, v in entries))),
    )


_LOOSE = st.recursive(st.sampled_from([b"\x00", b"\x01", b"\x02"]), _loose,
                      max_leaves=8)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.one_of(_LOOSE, st.binary(max_size=24)))
def test_every_decodable_input_is_canonical(raw):
    try:
        value = decode(raw)
    except ParseError:
        return
    assert encode(value) == raw
