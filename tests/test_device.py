"""Device-side tests: installation checks, rotation, BSM validation,
reporting privacy, CRL storage caps and unlinkability of issued certs."""

from dataclasses import replace
from pathlib import Path

import pytest

from scms.bus import Envelope
from scms.butterfly import ENCRYPTION, TimeIndex, cocoon_private
from scms.certmodel import (
    CertIdRevocation,
    Crl,
    LinkageRevocation,
    Priority,
    SignedMessage,
    crl_check,
    sign_crl,
    sign_message,
)
from scms.crypto import DeterministicRandom, hybrid_decrypt, hybrid_encrypt, mul_g
from scms.crypto.hybrid import HybridCiphertext
from scms.crypto.signing import backend_verify
from scms.device import DeviceCrlStore
from scms.encoding import decode, encode
from scms.errors import DecryptionError, ScmsError
from scms.harness import ScenarioConfig, run_scenario
from tests.conftest import make_world, provision_all

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_unbootstrapped_request_is_local_error():
    world = make_world()
    from scms.device import Device

    blank = Device("obe55", world.bus, world.rng)
    with pytest.raises(ScmsError):
        blank.request_certs(0, 1)


def test_clean_batch_yields_usable_keypairs():
    world = make_world(devices=2, periods=1, batch_size=20)
    provision_all(world)
    device = world.devices[0]
    assert len(device.certs[0]) == 20
    assert not device.quarantined
    world.clock.set(0, 0)
    bsm = device.sign_bsm([1, 2], 50)
    ok, reason = world.devices[1].validate_bsm(bsm)
    assert ok, reason


def test_tampered_ciphertext_rejected_and_reported():
    world = make_world(devices=1, periods=1, batch_size=2)
    device = world.devices[0]
    device.request_certs(0, 1, j_max=2)
    world.bus.run()
    world.ra.flush()
    world.bus.run()
    batch = world.registry.audit_view("ra").first(
        "batch", handle=device.handle_id, period=0
    )
    corrupted = bytearray(batch["items"][0])
    corrupted[-5] ^= 1  # flip inside the signature
    batch["items"][0] = bytes(corrupted)
    device.download_batch(0)
    world.bus.run()
    assert len(device.certs.get(0, [])) == 1  # the intact one
    assert len(device.quarantined) == 1
    world.ra.flush_reports()
    world.bus.run()
    failures = world.registry.audit_view("ma").scan("install_failure")
    assert len(failures) == 1


def test_rotation_uses_multiple_certs_within_period():
    world = make_world(devices=2, periods=1, batch_size=20)
    provision_all(world)
    device = world.devices[0]
    used = set()
    for minute in range(0, 60, 1):  # one simulated hour
        world.clock.set(0, minute)
        bsm = device.sign_bsm([0, 0], 40)
        used.add(SignedMessage.decode(bsm).cert_id)
    assert len(used) >= 2
    # consecutive BSMs within one rotation window share the certificate
    world.clock.set(0, 100)
    first = SignedMessage.decode(device.sign_bsm([0, 0], 40)).cert_id
    world.clock.set(0, 101)
    second = SignedMessage.decode(device.sign_bsm([0, 0], 40)).cert_id
    assert first == second


def test_no_current_cert_refuses_to_transmit():
    world = make_world(devices=2, periods=2, batch_size=3)
    provision_all(world)
    device = world.devices[0]
    world.clock.set(2, 0)  # beyond the provisioned span
    assert device.sign_bsm([0, 0], 10) is None


def test_expired_period_cert_never_used():
    world = make_world(devices=2, periods=2, batch_size=3)
    provision_all(world)
    device = world.devices[0]
    for period in range(2):
        world.clock.set(period, 0)
        bsm = device.sign_bsm([0, 0], 10)
        cert_bytes = SignedMessage.decode(bsm).cert_bytes
        from scms.certmodel import Certificate

        assert Certificate.decode(cert_bytes).valid_from == period


def test_backward_privacy_of_replayed_pre_revocation_bsm():
    world = make_world(devices=5, periods=4, batch_size=4)
    provision_all(world)
    offender, listener = world.devices[0], world.devices[4]

    world.clock.set(1, 0)
    early_bsm = offender.sign_bsm([0, 0], 30)
    ok, reason = listener.validate_bsm(early_bsm)
    assert ok

    # revoke at period 2 through the full pipeline
    world.clock.set(2, 0)
    bsm = offender.broadcast_bsm([d.id for d in world.devices[1:4]],
                                 position=[-3, 0], speed=50)
    for reporter in world.devices[1:4]:
        reporter.report_misbehavior(bsm)
    world.bus.run()
    world.ra.flush_reports()
    world.bus.run()
    assert world.ma.revocations_completed == 1
    listener.fetch_crl()
    world.bus.run()

    # the CRL layer never flags the period-1 certificate (backward privacy)
    from scms.certmodel import Certificate

    early_cert = Certificate.decode(SignedMessage.decode(early_bsm).cert_bytes)
    assert not crl_check(early_cert, listener.crl_store).is_revoked
    # replayed now it fails only because its week is over
    ok, reason = listener.validate_bsm(early_bsm)
    assert not ok and reason == "expired-period"

    # while the current-period certificate is flagged
    world.clock.set(2, 30)
    current_bsm = offender.sign_bsm([0, 0], 30)
    ok, reason = listener.validate_bsm(current_bsm)
    assert not ok and reason == "revoked"


def test_one_crl_check_path_in_bsm_validation(monkeypatch):
    world = make_world(devices=5, periods=4, batch_size=4)
    provision_all(world)
    offender, honest, listener = world.devices[0], world.devices[1], world.devices[4]
    world.clock.set(2, 0)
    bsm = offender.broadcast_bsm([d.id for d in world.devices[1:4]],
                                 position=[-3, 0], speed=50)
    for reporter in world.devices[1:4]:
        reporter.report_misbehavior(bsm)
    world.bus.run()
    world.ra.flush_reports()
    world.bus.run()
    listener.fetch_crl()
    world.bus.run()

    import scms.certmodel as certmodel

    calls = []
    real = certmodel.crl_check
    monkeypatch.setattr(certmodel, "crl_check",
                        lambda *a: calls.append(1) or real(*a))
    honest_bsm = honest.sign_bsm([0, 0], 30)
    assert listener.validate_bsm(honest_bsm) == (True, "ok")
    walked = len(calls)
    assert walked >= 2  # the chain walk checks the leaf and its issuers
    misses = backend_verify.cache_info().misses
    assert listener.validate_bsm(honest_bsm) == (True, "ok")
    # every walk reads the CRLs afresh; only signature verdicts are
    # memoized, so the repeat reaches the backend for none of them
    assert len(calls) == 2 * walked
    assert backend_verify.cache_info().misses == misses

    # a failed walk is "revoked" when the leaf itself is revoked, whatever
    # else is wrong with the chain, and "untrusted-chain" otherwise
    assert listener.validate_bsm(offender.sign_bsm([0, 0], 30)) == (False, "revoked")
    # a root revocation takes effect on the next message, with nothing to
    # invalidate
    listener.trust.revoke_root(world.pki["root"].cert.cert_id())
    assert listener.validate_bsm(offender.sign_bsm([0, 0], 30)) == (False, "revoked")
    assert listener.validate_bsm(honest_bsm) == (False, "untrusted-chain")


def test_policy_file_in_the_other_slot_is_refused():
    world = make_world(devices=1)
    device = world.devices[0]
    policy, versions = dict(device.policy), dict(device.policy_versions)
    gpf = world.pg.publish_gpf({"batch_size": 7}).encode()
    gccf = world.pg.publish_gccf([]).encode()
    for files in ({"gccf": gpf}, {"gpf": gccf}):
        world.bus.send(Envelope("crlstore", device.id, "policy.files",
                                {"files": files}))
        world.bus.run()
        assert device.policy == policy
        assert device.policy_versions == versions


def test_unrequested_app_certificates_are_a_dead_letter():
    world = make_world(devices=1)
    device = world.devices[0]
    world.bus.send(Envelope("lop", device.id, "app.issued", {
        "reply_ref": b"\x00" * 8, "certs": [device.enrollment_cert_bytes],
    }))
    world.bus.run()
    assert world.bus.dead_letters == 1
    assert device.app_certs == []


def test_batch_item_of_another_type_is_a_dead_letter():
    world = make_world(devices=1)
    device = world.devices[0]
    world.bus.send(Envelope("lop", device.id, "batch.response", {
        "reply_ref": b"\x00" * 8, "period": 0, "items": [5],
    }))
    world.bus.run()
    assert world.bus.dead_letters == 1
    assert device.quarantined == []


def _pca_signed(world, payload) -> bytes:
    return sign_message(world.pca.keypair.private, world.pki["pca"].cert,
                        encode(payload)).encode()


def _sealed_to_slot(device, i, j, content) -> dict:
    """A package envelope whose ciphertext the device can open for (i, j)."""
    cat = device.caterpillar
    key = cocoon_private(cat["h"], cat["k_enc"], ENCRYPTION, TimeIndex(i, j))
    ct = hybrid_encrypt(mul_g(key), encode(content), DeterministicRandom(5))
    return {"i": i, "j": j, "ct": ct.encode()}


@pytest.mark.parametrize("payload", [
    {"i": 0},
    [0, 1, b"ct"],
    {"i": 0, "j": "1", "ct": b""},
    {"i": 0, "j": 1 << 32, "ct": b""},
    "sealed:no-c",
    "sealed:junk-cert",
    "sealed:short-c",
], ids=["missing-fields", "list", "str-j", "j-over-32-bits",
        "content-without-c", "content-junk-cert", "content-short-c"])
def test_malformed_pca_signed_package_is_quarantined(payload):
    world = make_world(devices=1, periods=1, batch_size=3)
    provision_all(world)
    device = world.devices[0]
    (batch,) = world.registry.audit_view("ra").where(
        "batch", handle=device.handle_id)
    cert_bytes = device.certs[0][0]["cert_bytes"]
    contents = {
        "sealed:no-c": {"cert": cert_bytes},
        "sealed:junk-cert": {"cert": b"SC junk", "c": b"\x01" * 32},
        "sealed:short-c": {"cert": cert_bytes, "c": b"\x01" * 31},
    }
    if isinstance(payload, str):
        payload = _sealed_to_slot(device, 0, 0, contents[payload])
    bad = _pca_signed(world, payload)
    device.certs.clear()
    world.bus.send(Envelope("lop", device.id, "batch.response", {
        "reply_ref": b"\x00" * 8, "period": 0, "items": [bad, *batch["items"]],
    }))
    world.bus.run()
    assert world.bus.dead_letters == 0
    assert [q["reason"] for q in device.quarantined] == ["malformed package"]
    # the rest of the batch still installs
    assert len(device.certs[0]) == 3


def test_unrequested_batch_is_a_dead_letter():
    world = make_world(devices=1)
    device = world.devices[0]
    package = _pca_signed(world, {"i": 0, "j": 0, "ct": b"\x00" * 10})
    world.bus.send(Envelope("lop", device.id, "batch.response", {
        "reply_ref": b"\x00" * 8, "period": 0, "items": [package],
    }))
    world.bus.run()
    assert world.bus.dead_letters == 1
    assert device.certs == {} and device.quarantined == []


def test_report_encrypted_to_ma_only():
    world = make_world(devices=3, periods=1, batch_size=3)
    provision_all(world)
    world.clock.set(0, 0)
    sender, reporter = world.devices[0], world.devices[1]
    bsm = sender.broadcast_bsm([reporter.id], position=[9, 9], speed=200)
    world.bus.run()
    reporter.report_misbehavior(bsm)
    world.bus.run()
    # the report ciphertext sits in the RA buffer: RA cannot open it
    blob = world.ra._report_buffer[0]
    ct = HybridCiphertext.decode(blob)
    with pytest.raises(DecryptionError):
        hybrid_decrypt(world.pki["ra"].enc_keypair.private, ct)
    plain = decode(hybrid_decrypt(world.pki["ma"].enc_keypair.private, ct))
    # the reporter identifies itself by pseudonym certificate, never by
    # its enrollment certificate
    reporter_msg = SignedMessage.decode(plain["reporter"])
    assert reporter_msg.cert_bytes != reporter.enrollment_cert_bytes
    from scms.certmodel import Certificate, CertType

    assert Certificate.decode(reporter_msg.cert_bytes).ctype == (
        CertType.OBE_PSEUDONYM
    )


# --- capped CRL store ---

def _crl_with_entries(pki, n, priority=Priority.NORMAL, series=1, seq=1,
                      kind="linkage"):
    rng = DeterministicRandom(4000 + n + seq, "crl-entries")
    if kind == "linkage":
        entries = [
            LinkageRevocation(
                i=3, ls1=rng.randbytes(16), ls2=rng.randbytes(16),
                la_id1=b"\x00\x00\x00\x01", la_id2=b"\x00\x00\x00\x02",
                j_max=20, priority=priority,
            )
            for _ in range(n)
        ]
        crl = Crl(series=series, craca_id=pki.root_cert.cert_id(),
                  issue_period=3, sequence=seq,
                  crlg_cert_id=b"\x00" * 8, linkage_entries=entries)
    else:
        crl = Crl(series=series, craca_id=pki.root_cert.cert_id(),
                  issue_period=3, sequence=seq, crlg_cert_id=b"\x00" * 8,
                  certid_entries=[
                      CertIdRevocation(rng.randbytes(8), priority)
                      for _ in range(n)
                  ])
    return sign_crl(crl, pki.crlg_key.private, pki.crlg_cert)


def test_capacity_evicts_lowest_priority(pki):
    store = DeviceCrlStore(capacity=10_000)
    store.pin_generator(pki.crlg_cert, [1, 2, 3, 4, 256])
    assert store.add(_crl_with_entries(pki, 10_001))
    assert store.entry_count() == 10_000


def test_key_compromise_entries_survive_eviction(pki):
    store = DeviceCrlStore(capacity=100)
    store.pin_generator(pki.crlg_cert, [1, 2, 3, 4, 256])
    normal = _crl_with_entries(pki, 90, Priority.NORMAL, series=1)
    store.add(normal)
    store.add(_crl_with_entries(pki, 20, Priority.KEY_COMPROMISE,
                                    series=2, kind="certid"))
    assert store.entry_count() == 100
    kept = store.entries()
    assert sum(1 for e in kept if e.priority == Priority.KEY_COMPROMISE) == 20
    # within the normal class the ten oldest entries go
    kept_normal = [e for e in kept if e.priority == Priority.NORMAL]
    assert kept_normal == normal.linkage_entries[10:]


def test_crl_capacity_binds_bsm_validation():
    # the capped store is the device's only CRL memory: with no room for
    # an entry, nothing revokes on that device
    config = ScenarioConfig.from_json(
        (SCENARIO_DIR / "revocation_demo.json").read_text()
    )
    assert run_scenario(config).metrics["bsms_rejected"] == {"revoked": 12}
    unstored = run_scenario(replace(config, crl_capacity=0))
    assert unstored.metrics["bsms_rejected"] == {}


def test_bad_signature_discards_whole_crl(pki):
    store = DeviceCrlStore(capacity=100)
    store.pin_generator(pki.crlg_cert, [1])
    crl = _crl_with_entries(pki, 5)
    crl.signature = b"\x11" * 64
    assert not store.add(crl)
    assert store.entry_count() == 0


def test_jurisdiction_pinning_blocks_foreign_series(pki):
    # a generator pinned for series 99 cannot revoke series-1 devices
    store = DeviceCrlStore(capacity=100)
    store.pin_generator(pki.crlg_cert, [99])
    crl = _crl_with_entries(pki, 5, series=1)
    assert not store.add(crl)
    assert store.entry_count() == 0


def test_stored_file_within_budget_at_cap(pki):
    store = DeviceCrlStore(capacity=10_000)
    store.pin_generator(pki.crlg_cert, [1])
    store.add(_crl_with_entries(pki, 10_000))
    # the retained entries re-serialized as a device stores them: one
    # unsigned, length-prefixed list per (CRACA, series)
    stored = sum(4 + len(replace(crl, crlg_cert_id=b"\x00" * 8).tbs_bytes())
                 for crl in store.all_crls() if crl.entry_count())
    assert stored <= 400 * 1024


def test_newer_sequence_replaces_older(pki):
    store = DeviceCrlStore(capacity=1000)
    store.pin_generator(pki.crlg_cert, [1])
    assert store.add(_crl_with_entries(pki, 5, seq=2))
    assert not store.add(_crl_with_entries(pki, 9, seq=1))  # stale
    assert store.add(_crl_with_entries(pki, 7, seq=3))
    assert store.entry_count() == 7


# --- unlinkability of issued certificates ---

def test_cross_week_certificates_share_no_identifying_fields():
    world = make_world(devices=3, periods=4, batch_size=5)
    provision_all(world)
    for device in world.devices:
        subject_keys = set()
        linkage_values = set()
        cert_ids = set()
        count = 0
        for period, entries in device.certs.items():
            for entry in entries:
                cert = entry["cert"]
                subject_keys.add(cert.subject_key.encode())
                linkage_values.add(cert.linkage_value)
                cert_ids.add(cert.cert_id())
                count += 1
        # every device-specific field is unique per certificate; nothing
        # stable links two weeks (psid/series are fleet-wide constants)
        assert len(subject_keys) == count
        assert len(linkage_values) == count
        assert len(cert_ids) == count


def test_cross_week_fingerprint_match_rate_zero():
    world = make_world(devices=2, periods=4, batch_size=5)
    provision_all(world)
    device = world.devices[0]
    by_week = {
        p: {e["cert"].cert_id() for e in entries}
        for p, entries in device.certs.items()
    }
    weeks = sorted(by_week)
    for a in weeks:
        for b in weeks:
            if a < b:
                assert not (by_week[a] & by_week[b])


def test_quarantined_certs_never_sign():
    world = make_world(devices=2, periods=2, batch_size=4)
    target = world.devices[0]
    world.ra.mitm_handles.add(target.handle_id)
    provision_all(world)
    assert target.mitm_detected == 8
    world.clock.set(0, 0)
    assert target.sign_bsm([0, 0], 10) is None  # nothing usable installed
