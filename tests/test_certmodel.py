"""Certificate model tests: feature flags, serialization, misbinding,
chain validation, CRL checks and sizes."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scms.certmodel import (
    CERT_MAGIC,
    SERIES_APPLICATION,
    SERIES_COMPONENT,
    SERIES_PSEUDONYM,
    U32_MAX,
    CertIdRevocation,
    CertType,
    Certificate,
    ChainResult,
    Crl,
    CrlSet,
    LinkageRevocation,
    Priority,
    SignedMessage,
    check_cert_signature,
    check_crl_signature,
    crl_check,
    decode_composite,
    encode_composite,
    issue_certificate,
    message_digest,
    sign_crl,
    sign_message,
    verify_chain,
    verify_message,
)
from scms.crypto import G, DeterministicRandom, KeyPair, Scalar, mul_g, sign
from scms.errors import ParseError
from scms.linkage import LinkageSeed, linkage_value, pre_linkage_values, seed_at

LA1 = (1).to_bytes(4, "big")
LA2 = (2).to_bytes(4, "big")


def _pseudonym(pki, key, lv, period=5):
    cert = Certificate(
        ctype=CertType.OBE_PSEUDONYM,
        subject_key=key.public,
        valid_from=period,
        valid_to=period,
        psid=32,
        craca_id=pki.root_cert.cert_id(),
        crl_series=SERIES_PSEUDONYM,
        issuer_id=pki.pca_cert.cert_id(),
        linkage_value=lv,
    )
    return issue_certificate(cert, pki.pca_key.private)


def _lv_at(s1: bytes, s2: bytes, j: int) -> bytes:
    return linkage_value(pre_linkage_values(LA1, s1, j + 1)[j],
                         pre_linkage_values(LA2, s2, j + 1)[j])


def _lv_for(rng, period=5):
    s1 = seed_at(LA1, LinkageSeed(rng.randbytes(16), 0), period)
    s2 = seed_at(LA2, LinkageSeed(rng.randbytes(16), 0), period)
    return _lv_at(s1.value, s2.value, 0)


# --- feature flags ---

def test_pseudonym_requires_linkage_value(pki):
    key = KeyPair.generate(pki.rng)
    with pytest.raises(ValueError):
        Certificate(
            ctype=CertType.OBE_PSEUDONYM,
            subject_key=key.public,
            valid_from=1,
            valid_to=1,
            psid=32,
            craca_id=pki.root_cert.cert_id(),
            crl_series=1,
            issuer_id=pki.pca_cert.cert_id(),
        )


def test_enrollment_rejects_linkage_value(pki):
    key = KeyPair.generate(pki.rng)
    with pytest.raises(ValueError):
        Certificate(
            ctype=CertType.OBE_ENROLLMENT,
            subject_key=key.public,
            valid_from=0,
            valid_to=100,
            psid=32,
            craca_id=pki.root_cert.cert_id(),
            crl_series=4,
            issuer_id=pki.pca_cert.cert_id(),
            linkage_value=b"\x00" * 9,
        )


def test_pseudonym_rejects_identifier(pki):
    key = KeyPair.generate(pki.rng)
    with pytest.raises(ValueError):
        Certificate(
            ctype=CertType.OBE_PSEUDONYM,
            subject_key=key.public,
            valid_from=1,
            valid_to=1,
            psid=32,
            craca_id=pki.root_cert.cert_id(),
            crl_series=1,
            issuer_id=pki.pca_cert.cert_id(),
            linkage_value=b"\x00" * 9,
            subject_info="vin-12345",
        )


def test_only_rse_application_carries_encryption_key(pki):
    key = KeyPair.generate(pki.rng)
    enc = KeyPair.generate(pki.rng)
    cert = Certificate(
        ctype=CertType.RSE_APPLICATION,
        subject_key=key.public,
        valid_from=0,
        valid_to=52,
        psid=130,
        craca_id=pki.root_cert.cert_id(),
        crl_series=3,
        issuer_id=pki.pca_cert.cert_id(),
        enc_key=enc.public,
        subject_info="rse-17",
    )
    assert cert.enc_key == enc.public
    with pytest.raises(ValueError):
        Certificate(
            ctype=CertType.OBE_IDENTIFICATION,
            subject_key=key.public,
            valid_from=0,
            valid_to=52,
            psid=130,
            craca_id=pki.root_cert.cert_id(),
            crl_series=3,
            issuer_id=pki.pca_cert.cert_id(),
            enc_key=enc.public,
        )


# --- serialization ---

def test_certificate_roundtrip_random(pki):
    rnd = random.Random(3)
    for _ in range(200):
        key = KeyPair.generate(pki.rng)
        ctype = rnd.choice(
            [CertType.OBE_PSEUDONYM, CertType.OBE_ENROLLMENT,
             CertType.OBE_IDENTIFICATION, CertType.RSE_APPLICATION,
             CertType.COMPONENT]
        )
        kwargs = dict(
            ctype=ctype,
            subject_key=key.public,
            valid_from=rnd.randrange(100),
            valid_to=rnd.randrange(100, 200),
            psid=rnd.randrange(2**32),
            craca_id=rnd.randbytes(8),
            crl_series=rnd.randrange(2**16),
            issuer_id=rnd.randbytes(8),
        )
        if ctype == CertType.OBE_PSEUDONYM:
            kwargs["linkage_value"] = rnd.randbytes(9)
            kwargs["valid_to"] = kwargs["valid_from"]
        if ctype in (CertType.OBE_IDENTIFICATION, CertType.RSE_APPLICATION,
                     CertType.COMPONENT):
            if rnd.random() < 0.5:
                kwargs["subject_info"] = f"unit-{rnd.randrange(1000)}"
        cert = issue_certificate(Certificate(**kwargs), pki.pca_key.private)
        decoded = Certificate.decode(cert.encode())
        assert decoded == cert
        assert decoded.encode() == cert.encode()


def test_certificate_encoding_is_canonical(pki):
    lv = _lv_for(DeterministicRandom(60))
    cert = _pseudonym(pki, KeyPair.generate(pki.rng), lv)
    assert cert.encode() == Certificate.decode(cert.encode()).encode()
    assert cert.cert_id() == Certificate.decode(cert.encode()).cert_id()
    assert len(cert.cert_id()) == 8


_POINTS = [G.encode(), mul_g(Scalar(2)).encode(), b"\x00" * 33, b"\x04" + bytes(32)]
# the optional parts (flag bits 0-2) that each certificate type may carry
_PARTS = {0: (0,), 1: (2,), 2: (0, 4), 3: (0, 4), 4: (0, 1, 4, 5), 5: (0, 1, 4, 5),
          6: (0, 1, 4, 5)}


@st.composite
def _certs(draw):
    """Certificate-shaped bytes: a header of the right size around small
    field values, mostly conforming, then the optional parts its flags
    name, a signature and at times a trailing byte."""
    ctype = draw(st.integers(0, 7))
    alg = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 255)))
    flags = draw(st.one_of(st.sampled_from(_PARTS.get(ctype, (0,))),
                           st.integers(0, 255))) | draw(st.sampled_from([0, 8]))
    out = CERT_MAGIC + bytes([1, ctype, alg, flags]) + draw(st.sampled_from(_POINTS))
    for value in (draw(st.integers(0, 2)), draw(st.integers(0, 2)),
                  draw(st.sampled_from([0, 32, U32_MAX]))):
        out += value.to_bytes(4, "big")
    out += draw(st.binary(min_size=18, max_size=18))  # craca, series, issuer
    if flags & 1:
        out += draw(st.sampled_from(_POINTS))
    if flags & 2:
        out += draw(st.binary(min_size=9, max_size=9))
    if flags & 4:
        info = draw(st.one_of(st.text(max_size=3).map(str.encode), st.binary(max_size=3)))
        out += len(info).to_bytes(2, "big") + info
    out += draw(st.binary(min_size=64, max_size=64))
    return out + draw(st.one_of(st.just(b""), st.binary(max_size=1)))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_certs())
def test_every_decodable_certificate_is_canonical(raw):
    try:
        cert = Certificate.decode(raw)
    except ParseError:
        return
    # the bytes kept from the wire are the bytes a copy builds from its
    # fields, so a certificate has one encoding, and one id
    assert cert.tbs_bytes() == raw[:-64]
    assert replace(cert).encode() == raw


def test_same_bytes_decode_to_one_certificate(pki):
    raw = pki.pca_cert.encode()
    assert Certificate.decode(raw) is Certificate.decode(bytes(bytearray(raw)))


@pytest.mark.parametrize("offset, value", [(0, 0), (4, 7), (5, 0x10), (6, 5)],
                         ids=["magic", "unknown-alg", "unknown-flag", "point-tag"])
def test_bad_certificate_raises_at_one_offset_and_is_not_kept(pki, offset, value):
    from scms.certmodel import _decode_certificate

    _decode_certificate.cache_clear()
    Certificate.decode(pki.pca_cert.encode())
    bad = bytearray(pki.pca_cert.encode())
    bad[offset] = value
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            Certificate.decode(bytes(bad))
        assert err.value.offset == offset
    assert _decode_certificate.cache_info().currsize == 1


def test_cached_certificate_bytes_leave_identity_alone(pki):
    cert = _pseudonym(pki, KeyPair.generate(pki.rng), _lv_for(DeterministicRandom(61)))
    fresh = Certificate.decode(cert.encode())
    cert.cert_id()  # fills the cache of one copy only
    assert fresh == cert and hash(fresh) == hash(cert)
    assert repr(fresh) == repr(cert)
    # a re-signed copy computes its own id, never the original's
    other = replace(cert, signature=bytes(64))
    assert other.tbs_bytes() == cert.tbs_bytes()
    assert other.cert_id() != cert.cert_id()
    assert Certificate.decode(other.encode()).cert_id() == other.cert_id()


def test_certificate_parse_errors():
    with pytest.raises(ParseError):
        Certificate.decode(b"XX" + b"\x00" * 200)
    with pytest.raises(ParseError):
        Certificate.decode(b"")


def test_nonconforming_certificate_is_a_parse_error(pki):
    # well framed, but an enrollment certificate may not carry a linkage
    # value: the feature-flag rule surfaces as ParseError, not ValueError
    lv = _lv_for(DeterministicRandom(62))
    raw = bytearray(_pseudonym(pki, KeyPair.generate(pki.rng), lv).encode())
    raw[3] = CertType.OBE_ENROLLMENT
    with pytest.raises(ParseError):
        Certificate.decode(bytes(raw))


def test_invalid_utf8_subject_info_is_a_parse_error(pki):
    raw = bytearray(pki.pca_cert.encode())
    assert raw[5] & 4  # carries subject info
    info_at = 69 + 2 + (33 if raw[5] & 1 else 0)
    raw[info_at] = 0xFF
    with pytest.raises(ParseError) as err:
        Certificate.decode(bytes(raw))
    assert err.value.offset == info_at


def test_truncated_certificate_rejected(pki):
    lv = _lv_for(DeterministicRandom(61))
    cert = _pseudonym(pki, KeyPair.generate(pki.rng), lv)
    raw = cert.encode()
    with pytest.raises(ParseError):
        Certificate.decode(raw[:-1])
    with pytest.raises(ParseError):
        Certificate.decode(raw + b"\x00")


# --- misbinding-resistant signing ---

def test_signed_message_verifies_with_signing_cert(pki):
    key = KeyPair.generate(pki.rng)
    lv = _lv_for(DeterministicRandom(62))
    cert = _pseudonym(pki, key, lv)
    msg = sign_message(key.private, cert, b"basic safety message")
    assert verify_message(msg, cert)


def test_signed_message_fails_with_different_cert_same_key(pki):
    # the misbinding countermeasure: same key, different certificate
    key = KeyPair.generate(pki.rng)
    lv1 = _lv_for(DeterministicRandom(63))
    lv2 = _lv_for(DeterministicRandom(64))
    cert1 = _pseudonym(pki, key, lv1)
    cert2 = _pseudonym(pki, key, lv2)
    msg = sign_message(key.private, cert1, b"payload")
    assert verify_message(msg, cert1)
    forged = SignedMessage(
        payload=msg.payload,
        cert_id=cert2.cert_id(),
        signature=msg.signature,
        cert_bytes=cert2.encode(),
    )
    assert not verify_message(forged, cert2)


def test_signed_message_payload_mutation_fails(pki):
    key = KeyPair.generate(pki.rng)
    lv = _lv_for(DeterministicRandom(65))
    cert = _pseudonym(pki, key, lv)
    msg = sign_message(key.private, cert, b"original")
    tampered = SignedMessage(b"Original", msg.cert_id, msg.signature, msg.cert_bytes)
    assert not verify_message(tampered, cert)


def test_signed_message_roundtrip(pki):
    key = KeyPair.generate(pki.rng)
    lv = _lv_for(DeterministicRandom(66))
    cert = _pseudonym(pki, key, lv)
    msg = sign_message(key.private, cert, b"wire")
    decoded = SignedMessage.decode(msg.encode())
    assert decoded == msg
    bare = replace(msg, cert_bytes=None)
    assert SignedMessage.decode(bare.encode()) == bare


# --- chains ---

def test_full_chain_verifies(pki):
    key = KeyPair.generate(pki.rng)
    lv = _lv_for(DeterministicRandom(67))
    cert = _pseudonym(pki, key, lv)
    assert verify_chain(cert, pki.trust) == ChainResult(True)


def test_chain_fails_with_unknown_issuer(pki):
    key = KeyPair.generate(pki.rng)
    lv = _lv_for(DeterministicRandom(68))
    cert = _pseudonym(pki, key, lv)
    cert = Certificate.decode(cert.encode())
    pki.trust.certs.pop(pki.pca_cert.cert_id())
    result = verify_chain(cert, pki.trust)
    assert not result.ok
    assert result.reason == "unknown issuer"


def test_chain_fails_with_unendorsed_root(pki):
    key = KeyPair.generate(pki.rng)
    lv = _lv_for(DeterministicRandom(69))
    cert = _pseudonym(pki, key, lv)
    pki.trust.revoke_root(pki.root_cert.cert_id())
    result = verify_chain(cert, pki.trust)
    assert not result.ok
    assert result.reason == "root not endorsed by elector quorum"


def test_chain_fails_with_revoked_intermediate(pki):
    key = KeyPair.generate(pki.rng)
    lv = _lv_for(DeterministicRandom(70))
    cert = _pseudonym(pki, key, lv)
    crl = Crl(
        series=SERIES_COMPONENT,
        craca_id=pki.root_cert.cert_id(),
        issue_period=5,
        sequence=1,
        crlg_cert_id=pki.crlg_cert.cert_id(),
        certid_entries=[CertIdRevocation(pki.ica_cert.cert_id())],
    )
    crl = sign_crl(crl, pki.crlg_key.private, pki.crlg_cert)
    pki.trust.crls.add(crl)
    result = verify_chain(cert, pki.trust)
    assert not result.ok
    assert result.reason == "revoked certificate in chain"


def test_chain_validity_window(pki):
    key = KeyPair.generate(pki.rng)
    lv = _lv_for(DeterministicRandom(71))
    cert = _pseudonym(pki, key, lv, period=5)
    assert verify_chain(cert, pki.trust, at_period=5).ok
    assert not verify_chain(cert, pki.trust, at_period=6).ok


def test_cert_signature_check(pki):
    key = KeyPair.generate(pki.rng)
    lv = _lv_for(DeterministicRandom(72))
    cert = _pseudonym(pki, key, lv)
    assert check_cert_signature(cert, pki.pca_cert)
    assert not check_cert_signature(cert, pki.ica_cert)


# --- CRL model ---

def _make_linkage_entry(rng, i=3, priority=Priority.NORMAL):
    return LinkageRevocation(
        i=i,
        ls1=rng.randbytes(16),
        ls2=rng.randbytes(16),
        la_id1=LA1,
        la_id2=LA2,
        j_max=20,
        priority=priority,
    )


def test_crl_roundtrip_and_signature(pki):
    rng = DeterministicRandom(73)
    crl = Crl(
        series=1,
        craca_id=pki.root_cert.cert_id(),
        issue_period=3,
        sequence=7,
        crlg_cert_id=b"\x00" * 8,
        linkage_entries=[_make_linkage_entry(rng) for _ in range(5)],
        certid_entries=[CertIdRevocation(rng.randbytes(8), Priority.HIGH, 2)],
    )
    crl = sign_crl(crl, pki.crlg_key.private, pki.crlg_cert)
    decoded = Crl.decode(crl.encode())
    assert decoded.linkage_entries == crl.linkage_entries
    assert decoded.certid_entries == crl.certid_entries
    assert decoded.sequence == 7
    assert check_crl_signature(decoded, pki.crlg_cert)
    assert not check_crl_signature(decoded, pki.pca_cert)


def test_crl_groups_share_header(pki):
    rng = DeterministicRandom(74)
    two = Crl(
        series=1,
        craca_id=pki.root_cert.cert_id(),
        issue_period=3,
        sequence=1,
        crlg_cert_id=b"\x00" * 8,
        linkage_entries=[_make_linkage_entry(rng), _make_linkage_entry(rng)],
    )
    one = Crl(
        series=1,
        craca_id=pki.root_cert.cert_id(),
        issue_period=3,
        sequence=1,
        crlg_cert_id=b"\x00" * 8,
        linkage_entries=[_make_linkage_entry(rng)],
    )
    # same la_id pair and period: one 16-byte header regardless of count
    assert len(two.tbs_bytes()) - len(one.tbs_bytes()) == 34


def test_crl_group_naming_one_la_twice_is_a_parse_error(pki):
    # a generator-signed list whose group names LA1 as both authorities
    rng = DeterministicRandom(78)
    crl = Crl(series=SERIES_PSEUDONYM, craca_id=pki.root_cert.cert_id(),
              issue_period=3, sequence=1, crlg_cert_id=b"\x00" * 8,
              linkage_entries=[_make_linkage_entry(rng)])
    crl = sign_crl(crl, pki.crlg_key.private, pki.crlg_cert)
    tbs = crl.tbs_bytes()
    group = 31  # the CRL header's length; the group starts with la_id1
    assert tbs[group:group + 8] == LA1 + LA2
    forged = tbs[:group + 4] + LA1 + tbs[group + 8:]
    digest = message_digest(forged, pki.crlg_cert)
    with pytest.raises(ParseError) as info:
        Crl.decode(forged + sign(pki.crlg_key.private, digest))
    assert info.value.offset == group


def _resigned(pki, tbs: bytes) -> bytes:
    return tbs + sign(pki.crlg_key.private, message_digest(tbs, pki.crlg_cert))


def test_crl_group_repeating_a_key_is_a_parse_error(pki):
    # one group split in two would decode to the CRL that encodes as one
    rng = DeterministicRandom(85)
    crl = Crl(series=SERIES_PSEUDONYM, craca_id=pki.root_cert.cert_id(),
              issue_period=3, sequence=1, crlg_cert_id=b"\x00" * 8,
              linkage_entries=[_make_linkage_entry(rng) for _ in range(2)])
    tbs = sign_crl(crl, pki.crlg_key.private, pki.crlg_cert).tbs_bytes()
    # CRL header (31), one group header (16), two entries (34 each)
    header, group, entries, rest = tbs[:29], tbs[31:45], tbs[47:115], tbs[115:]
    one = (1).to_bytes(2, "big")
    split = (header + (2).to_bytes(2, "big") + group + one + entries[:34]
             + group + one + entries[34:] + rest)
    with pytest.raises(ParseError) as info:
        Crl.decode(_resigned(pki, split))
    assert info.value.offset == 31 + 16 + 34


def test_crl_group_with_no_device_is_a_parse_error(pki):
    rng = DeterministicRandom(86)
    crl = Crl(series=SERIES_PSEUDONYM, craca_id=pki.root_cert.cert_id(),
              issue_period=3, sequence=1, crlg_cert_id=b"\x00" * 8,
              linkage_entries=[_make_linkage_entry(rng)])
    tbs = sign_crl(crl, pki.crlg_key.private, pki.crlg_cert).tbs_bytes()
    # an empty group for another period ahead of the real one
    empty = tbs[31:39] + (9).to_bytes(4, "big") + tbs[43:45] + bytes(2)
    padded = tbs[:29] + (2).to_bytes(2, "big") + empty + tbs[31:]
    with pytest.raises(ParseError) as info:
        Crl.decode(_resigned(pki, padded))
    assert info.value.offset == 31


def test_crl_10k_entries_within_size_budget(pki):
    rng = DeterministicRandom(75)
    crl = Crl(
        series=1,
        craca_id=pki.root_cert.cert_id(),
        issue_period=3,
        sequence=1,
        crlg_cert_id=b"\x00" * 8,
        linkage_entries=[_make_linkage_entry(rng) for _ in range(10_000)],
    )
    crl = sign_crl(crl, pki.crlg_key.private, pki.crlg_cert)
    raw = crl.encode()
    assert len(raw) <= 400 * 1024
    assert len(raw) / 10_000 <= 40  # amortized bytes per entry
    assert len(Crl.decode(raw).linkage_entries) == 10_000


def test_crl_set_keeps_highest_sequence(pki):
    rng = DeterministicRandom(76)
    crl_set = CrlSet()
    older = Crl(series=1, craca_id=pki.root_cert.cert_id(), issue_period=1,
                sequence=1, crlg_cert_id=b"\x00" * 8,
                linkage_entries=[_make_linkage_entry(rng)])
    newer = Crl(series=1, craca_id=pki.root_cert.cert_id(), issue_period=2,
                sequence=2, crlg_cert_id=b"\x00" * 8)
    assert crl_set.add(older)
    assert crl_set.add(newer)
    assert not crl_set.add(older)
    assert crl_set.get(pki.root_cert.cert_id(), 1).sequence == 2


def test_a_series_revoked_set_outlives_another_series_crl(pki, monkeypatch):
    # a CRL keeps its own revoked sets, so another series' CRL arriving
    # leaves them as they are
    import scms.certmodel as certmodel

    calls = []
    real = certmodel.expand_revocation_entry

    def counted(entry, period):
        calls.append(entry)
        return real(entry, period)

    monkeypatch.setattr(certmodel, "expand_revocation_entry", counted)
    rng = DeterministicRandom(84)
    craca = pki.root_cert.cert_id()
    crl_set = CrlSet()
    crl_set.add(Crl(series=SERIES_PSEUDONYM, craca_id=craca, issue_period=3,
                    sequence=1, crlg_cert_id=b"\x00" * 8,
                    linkage_entries=[_make_linkage_entry(rng) for _ in range(2)]))
    revoked = crl_set.revoked_lvs(craca, SERIES_PSEUDONYM, 4)
    assert len(calls) == 2
    crl_set.add(Crl(series=SERIES_APPLICATION, craca_id=craca, issue_period=4,
                    sequence=1, crlg_cert_id=b"\x00" * 8,
                    certid_entries=[CertIdRevocation(rng.randbytes(8))]))
    assert crl_set.revoked_lvs(craca, SERIES_PSEUDONYM, 4) is revoked
    assert len(calls) == 2


def test_crl_check_pseudonym_revocation_and_backward_privacy(pki):
    rng = DeterministicRandom(77)
    s1_0 = LinkageSeed(rng.randbytes(16), 0)
    s2_0 = LinkageSeed(rng.randbytes(16), 0)
    key = KeyPair.generate(pki.rng)

    def cert_at(period, j=0):
        lv = _lv_at(seed_at(LA1, s1_0, period).value,
                    seed_at(LA2, s2_0, period).value, j)
        return _pseudonym(pki, key, lv, period=period)

    crl_set = CrlSet()
    # empty set: no CRL for the series yet
    assert not crl_check(cert_at(5), crl_set)

    revocation_period = 3
    crl = Crl(
        series=SERIES_PSEUDONYM,
        craca_id=pki.root_cert.cert_id(),
        issue_period=revocation_period,
        sequence=1,
        crlg_cert_id=b"\x00" * 8,
        linkage_entries=[
            LinkageRevocation(
                i=revocation_period,
                ls1=seed_at(LA1, s1_0, revocation_period).value,
                ls2=seed_at(LA2, s2_0, revocation_period).value,
                la_id1=LA1,
                la_id2=LA2,
                j_max=20,
            )
        ],
    )
    crl = sign_crl(crl, pki.crlg_key.private, pki.crlg_cert)
    crl_set.add(crl)

    assert crl_check(cert_at(3), crl_set)
    assert crl_check(cert_at(5, j=7), crl_set)
    # backward privacy: the pre-revocation certificate stays valid
    assert not crl_check(cert_at(2), crl_set)
    # an unrelated device is untouched
    other = _pseudonym(
        pki, KeyPair.generate(pki.rng), _lv_for(DeterministicRandom(78)), period=5
    )
    assert not crl_check(other, crl_set)


def test_crl_check_certid(pki):
    rng = DeterministicRandom(79)
    key = KeyPair.generate(pki.rng)
    cert = Certificate(
        ctype=CertType.RSE_APPLICATION,
        subject_key=key.public,
        valid_from=0,
        valid_to=52,
        psid=130,
        craca_id=pki.root_cert.cert_id(),
        crl_series=SERIES_APPLICATION,
        issuer_id=pki.pca_cert.cert_id(),
        subject_info="rse-1",
    )
    cert = issue_certificate(cert, pki.pca_key.private)
    crl_set = CrlSet()
    crl = Crl(series=SERIES_APPLICATION, craca_id=pki.root_cert.cert_id(),
              issue_period=0, sequence=1, crlg_cert_id=b"\x00" * 8,
              certid_entries=[CertIdRevocation(cert.cert_id())])
    crl = sign_crl(crl, pki.crlg_key.private, pki.crlg_cert)
    crl_set.add(crl)
    assert crl_check(cert, crl_set)
    assert len(cert.cert_id()) == 8


def test_composite_file_roundtrip(pki):
    rng = DeterministicRandom(80)
    crls = []
    for series in (1, 2):
        crl = Crl(series=series, craca_id=pki.root_cert.cert_id(),
                  issue_period=0, sequence=1, crlg_cert_id=b"\x00" * 8,
                  linkage_entries=[_make_linkage_entry(rng)] if series == 1 else [])
        crl = sign_crl(crl, pki.crlg_key.private, pki.crlg_cert)
        crls.append(crl)
    raw = encode_composite(crls)
    back = decode_composite(raw)
    assert [c.encode() for c in back] == [c.encode() for c in crls]
    with pytest.raises(ParseError):
        decode_composite(raw[:-2])


def test_message_digest_binds_certificate(pki):
    key = KeyPair.generate(pki.rng)
    lv1 = _lv_for(DeterministicRandom(81))
    lv2 = _lv_for(DeterministicRandom(82))
    c1 = _pseudonym(pki, key, lv1)
    c2 = _pseudonym(pki, key, lv2)
    assert message_digest(b"m", c1) != message_digest(b"m", c2)
