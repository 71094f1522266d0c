"""Mutation fuzzing of every decoder that reads bytes from another party.

Each decoder gets valid encodings with bit flips, truncations, insertions
and overwritten length fields applied. It must either decode or raise an
``ScmsError``; a ``ParseError`` must point inside the input. An argument
that is not bytes at all is a ``ParseError`` at offset 0. The runs are
derandomized, so a failure reproduces on every run.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scms.certmodel import (
    SERIES_PSEUDONYM,
    CertIdRevocation,
    CertType,
    Certificate,
    Crl,
    LinkageRevocation,
    SignedMessage,
    decode_composite,
    encode_composite,
    issue_certificate,
    sign_crl,
    sign_message,
)
from scms.crypto import (
    IDENTITY,
    DeterministicRandom,
    GroupElement,
    HybridCiphertext,
    KeyPair,
    hybrid_encrypt,
)
from scms.encoding import decode, encode
from scms.errors import ParseError, ScmsError
from scms.rootmgmt import ENDORSE_ROOT, Ballot, build_ballot, make_elector
from tests.conftest import build_mini_pki

# values a mutated length field takes: empty, tiny, and past any input
_LENGTHS = [0, 1, 2, 33, 64, 0xFF, 0xFFFF, 0xFFFF_FFFF]


def _samples() -> dict[str, list[bytes]]:
    """Valid encodings for each decoder, built once from a mini PKI."""
    pki = build_mini_pki()
    rng = DeterministicRandom(500, "fuzz")
    key = KeyPair.generate(rng)
    pseudonym = issue_certificate(Certificate(
        ctype=CertType.OBE_PSEUDONYM, subject_key=key.public, valid_from=5,
        valid_to=5, psid=32, craca_id=pki.root_cert.cert_id(),
        crl_series=SERIES_PSEUDONYM, issuer_id=pki.pca_cert.cert_id(),
        linkage_value=rng.randbytes(9),
    ), pki.pca_key.private)
    crls = []
    for series, n_linkage in ((1, 3), (2, 0)):
        crl = Crl(
            series=series, craca_id=pki.root_cert.cert_id(), issue_period=4,
            sequence=2, crlg_cert_id=b"\x00" * 8,
            linkage_entries=[
                LinkageRevocation(
                    i=3, ls1=rng.randbytes(16), ls2=rng.randbytes(16),
                    la_id1=b"\x00\x00\x00\x01", la_id2=b"\x00\x00\x00\x02",
                    j_max=20, region=None if n % 2 else 7,
                )
                for n in range(n_linkage)
            ],
            certid_entries=[CertIdRevocation(rng.randbytes(8), priority=1)],
        )
        crls.append(sign_crl(crl, pki.crlg_key.private, pki.crlg_cert))
    payload = encode({"p": 3, "pos": [-1, 2], "tag": "bsm", "raw": b"\x00\x01"})
    electors = [make_elector(rng) for _ in range(2)]
    return {
        "encoding.decode": [payload, encode([None, True, False, -300, {}])],
        "Certificate.decode": [pseudonym.encode(), pki.pca_cert.encode()],
        "SignedMessage.decode": [
            sign_message(key.private, pseudonym, payload).encode(),
            replace(sign_message(key.private, pseudonym, payload),
                    cert_bytes=None).encode(),
        ],
        "Crl.decode": [crl.encode() for crl in crls],
        "decode_composite": [encode_composite(crls)],
        "HybridCiphertext.decode": [
            hybrid_encrypt(key.public, payload, rng).encode(),
        ],
        "GroupElement.decode": [key.public.encode(), IDENTITY.encode()],
        "Ballot.decode": [
            build_ballot(ENDORSE_ROOT, pki.root_cert, electors).encode(),
        ],
    }


SAMPLES = _samples()


@st.composite
def mutated(draw, samples: list[bytes]) -> bytes:
    data = bytearray(draw(st.sampled_from(samples)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["flip", "truncate", "insert", "length"]))
        if op == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif op == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif op == "insert":
            at = draw(st.integers(0, len(data)))
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif op == "length":
            width = draw(st.sampled_from([2, 4]))
            if len(data) >= width:
                at = draw(st.integers(0, len(data) - width))
                value = draw(st.sampled_from(_LENGTHS)) % (1 << (8 * width))
                data[at:at + width] = value.to_bytes(width, "big")
    return bytes(data)


DECODERS = {
    "encoding.decode": decode,
    "Certificate.decode": Certificate.decode,
    "SignedMessage.decode": SignedMessage.decode,
    "Crl.decode": Crl.decode,
    "decode_composite": decode_composite,
    "HybridCiphertext.decode": HybridCiphertext.decode,
    "GroupElement.decode": GroupElement.decode,
    "Ballot.decode": Ballot.decode,
}


def _decode_or_scms_error(decoder, data: bytes) -> None:
    try:
        decoder(data)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(data), (exc, len(data))
    except ScmsError:
        pass


def test_samples_decode():
    for name, decoder in DECODERS.items():
        for data in SAMPLES[name]:
            decoder(data)


@pytest.mark.parametrize("name", sorted(SAMPLES))
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_input_raises_only_scms_error(name, data):
    raw = data.draw(mutated(SAMPLES[name]), label="input")
    _decode_or_scms_error(DECODERS[name], raw)


@pytest.mark.parametrize("value", [5, None, "text"], ids=["int", "None", "str"])
@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_non_bytes_input_is_a_parse_error_at_offset_0(name, value):
    with pytest.raises(ParseError) as err:
        DECODERS[name](value)
    assert err.value.offset == 0


# the two LA-id orders a CRL group may name
_LA_PAIRS = [b"\x00\x00\x00\x01\x00\x00\x00\x02",
             b"\x00\x00\x00\x02\x00\x00\x00\x01"]


@st.composite
def crl_layouts(draw) -> bytes:
    """CRL encodings built field by field, so that a group may repeat an
    earlier group's (la_id1, la_id2, i, j_max) or hold no device."""
    groups = draw(st.lists(st.tuples(
        st.sampled_from(_LA_PAIRS), st.integers(0, 1), st.integers(1, 2),
        st.integers(0, 2)), max_size=3))
    out = bytearray(b"CR\x01" + (1).to_bytes(2, "big") + bytes(8)
                    + (3).to_bytes(4, "big") + (1).to_bytes(4, "big")
                    + bytes(8) + len(groups).to_bytes(2, "big"))
    for la_ids, i, j_max, n_devices in groups:
        out += la_ids + i.to_bytes(4, "big") + j_max.to_bytes(2, "big")
        out += n_devices.to_bytes(2, "big")
        for _ in range(n_devices):
            out += draw(st.binary(min_size=32, max_size=32))
            out += bytes([draw(st.integers(0, 2)), draw(st.sampled_from([0, 7, 0xFF]))])
    n_certids = draw(st.integers(0, 2))
    out += n_certids.to_bytes(4, "big")
    for _ in range(n_certids):
        out += draw(st.binary(min_size=8, max_size=8)) + b"\x01\xff"
    return bytes(out) + draw(st.binary(min_size=64, max_size=64))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(raw=st.one_of(crl_layouts(), mutated(SAMPLES["Crl.decode"])))
def test_every_crl_that_decodes_re_encodes_to_its_own_bytes(raw):
    try:
        crl = Crl.decode(raw)
    except ParseError:
        return
    # a copy keeps no bytes from the wire: it encodes its fields afresh
    assert replace(crl).encode() == raw


def test_nested_parse_error_offset_is_in_the_outer_input():
    off_curve = b"\x02" + b"\x11" * 32
    cert = SAMPLES["Certificate.decode"][1]  # a component type may encrypt
    bad_subject_key = cert[:6] + off_curve + cert[39:]
    bad_enc_key = cert[:5] + bytes([cert[5] | 1]) + cert[6:69] + off_curve + cert[69:]
    for bad, key_at in ((bad_subject_key, 6), (bad_enc_key, 69)):
        with pytest.raises(ParseError) as err:
            Certificate.decode(bad)
        assert err.value.offset == key_at + 1
    composite = SAMPLES["decode_composite"][0]
    second = 4 + 2 + 4 + len(SAMPLES["Crl.decode"][0]) + 4
    assert composite[second:second + 2] == b"CR"
    with pytest.raises(ParseError) as err:
        decode_composite(composite[:second] + b"XX" + composite[second + 2:])
    assert err.value.offset == second
