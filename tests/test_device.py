"""Device-side tests: installation checks, rotation, BSM validation,
reporting privacy, CRL storage caps and unlinkability of issued certs."""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scms.bus import Envelope
from scms.butterfly import ENCRYPTION, TimeIndex, cocoon_private
from scms.certmodel import (
    BSM_PSID,
    SERIES_PSEUDONYM,
    CertIdRevocation,
    Certificate,
    CertType,
    Crl,
    CrlSet,
    LinkageRevocation,
    Priority,
    SignedMessage,
    check_crl_signature,
    crl_check,
    encode_composite,
    issue_certificate,
    issue_component_cert,
    sign_crl,
    sign_message,
)
from scms.crypto import (
    DeterministicRandom,
    KeyPair,
    Scalar,
    hybrid_decrypt,
    hybrid_encrypt,
    mul_g,
)
from scms.crypto.hybrid import HybridCiphertext
from scms.crypto.signing import backend_verify
from scms.device import DeviceCrlStore, _signed_bsm
from scms.encoding import decode, encode
from scms.errors import DecryptionError, ScmsError
from scms.harness import ROTATION_MINUTES, ScenarioConfig, run_scenario
from scms.linkage import LA1_ID, LA2_ID, expand_revocation_entry
from tests.conftest import make_world, provision_all

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_unbootstrapped_request_is_local_error():
    world = make_world()
    from scms.device import Device

    blank = Device("obe55", world.bus, world.rng)
    with pytest.raises(ScmsError):
        blank.request_certs(0, 1)


def test_a_bundle_whose_policy_file_does_not_verify_is_refused():
    # a device gets its settings from no other place
    world = make_world(devices=1)
    from scms.device import Device

    world.dcm.trust_bundle = {**world.dcm.trust_bundle, "gpf": b"junk"}
    with pytest.raises(ScmsError):
        Device("obe55", world.bus, world.rng).bootstrap(world.dcm)


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
    assert not crl_check(early_cert, listener.crl_store)
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
    decoded = certmodel._decode_certificate.cache_info().misses
    assert listener.validate_bsm(honest_bsm) == (True, "ok")
    # every walk reads the CRLs afresh; only pure functions of bytes are
    # memoized, so the repeat decodes no certificate and reaches the
    # backend for no signature
    assert len(calls) == 2 * walked
    assert backend_verify.cache_info().misses == misses
    assert certmodel._decode_certificate.cache_info().misses == decoded

    # a failed walk is "revoked" when it stops at a revoked link, as it
    # does at a revoked leaf whatever else is wrong with the chain, and
    # "untrusted-chain" otherwise
    assert listener.validate_bsm(offender.sign_bsm([0, 0], 30)) == (False, "revoked")
    # a root revocation takes effect on the next message, with nothing to
    # invalidate
    listener.trust.revoke_root(world.pki["root"].cert.cert_id())
    assert listener.validate_bsm(offender.sign_bsm([0, 0], 30)) == (False, "revoked")
    assert listener.validate_bsm(honest_bsm) == (False, "untrusted-chain")


def _with_inline_cert(bsm: bytes, offset: int, bits: int) -> bytes:
    """``bsm`` with ``bits`` set in one byte of its inline certificate, and
    the certificate id recomputed over the edited bytes."""
    msg = SignedMessage.decode(bsm)
    cert = bytearray(msg.cert_bytes)
    cert[offset] |= bits
    return replace(msg, cert_bytes=bytes(cert),
                   cert_id=hashlib.sha256(cert).digest()[:8]).encode()


@pytest.mark.parametrize("offset, bits", [(4, 7), (5, 0x10)],
                         ids=["unknown-alg", "unknown-flag"])
def test_inline_certificate_that_does_not_reencode_is_malformed(offset, bits):
    world = make_world(devices=2, periods=2, batch_size=2)
    provision_all(world)
    sender, listener = world.devices
    world.clock.set(1, 0)
    bsm = sender.sign_bsm([0, 0], 30)
    assert listener.validate_bsm(bsm) == (True, "ok")
    forged = _with_inline_cert(bsm, offset, bits)
    assert listener.validate_bsm(forged) == (False, "malformed-certificate")
    # the same certificate bytes under the sender's own id and signature
    msg = SignedMessage.decode(forged)
    reused = replace(msg, cert_id=SignedMessage.decode(bsm).cert_id).encode()
    assert listener.validate_bsm(reused) == (False, "malformed-certificate")
    # and on the bus, the run goes on
    world.bus.send(Envelope(sender.id, listener.id, "bsm", {"bsm": forged}))
    world.bus.run()
    assert world.bus.dead_letters == 0


def test_received_verdicts_share_one_tuple_per_outcome():
    # every copy of an outcome appends the same constant tuple, so a
    # receiver's list of verdicts allocates none
    world = run_scenario(ScenarioConfig(
        name="verdicts", seed=9, devices=3, periods=2, batch_size=2)).world
    listener = world.devices[0]
    for junk in (b"junk", b"more junk"):  # two broadcasts, one outcome
        world.bus.send(Envelope("pg", listener.id, "bsm", {"bsm": junk}))
    world.bus.run()
    verdicts = [v for d in world.devices for v in d.received]
    assert {(True, "ok"), (False, "malformed")} <= set(verdicts)
    assert len({id(v) for v in verdicts}) == len(set(verdicts))


def _bsm_variants(world, sender) -> dict[str, bytes]:
    """BSMs from ``sender`` at the clock's period, by name: its honest one,
    and variants that each differ from it in one respect."""
    period = world.clock.period
    chosen = sender.signing_cert()
    cert, priv = chosen["cert"], chosen["priv"]

    def payload(**changes) -> bytes:
        return encode({"p": period, "m": 0, "pos": [0, 0], "speed": 30,
                       "seq": 1, **changes})

    honest = sign_message(priv, cert, payload()).encode()
    flipped = bytearray(honest)
    flipped[-1] ^= 1
    other = world.devices[-1].signing_cert()["cert"]
    # a pseudonym certificate the PCA issued for another application
    wrong_psid = issue_certificate(replace(cert, psid=BSM_PSID + 1, signature=None),
                                   world.pca.keypair.private)
    enrollment = Certificate.decode(sender.enrollment_cert_bytes)
    return {
        "honest": honest,
        "truncated": honest[:-1],
        "flipped-signature": bytes(flipped),
        "swapped-certificate": replace(
            SignedMessage.decode(honest), cert_id=other.cert_id(),
            cert_bytes=other.encode()).encode(),
        "enrollment": sign_message(sender.enrollment_key.private, enrollment,
                                   payload()).encode(),
        "wrong-psid": sign_message(priv, wrong_psid, payload()).encode(),
        "undecodable-payload": sign_message(priv, cert, b"\xff").encode(),
        "payload-without-seq": sign_message(
            priv, cert, encode({"p": period, "m": 0, "pos": [0, 0],
                                "speed": 30})).encode(),
        "period-minus-5": sign_message(priv, cert, payload(p=-5)).encode(),
    }


@pytest.mark.parametrize("variant, verdict", [
    ("honest", (True, "ok")),
    ("truncated", (False, "malformed")),
    ("flipped-signature", (False, "bad-signature")),
    ("swapped-certificate", (False, "bad-signature")),
    ("enrollment", (False, "not-pseudonym")),
    ("wrong-psid", (False, "wrong-psid")),
    ("undecodable-payload", (False, "malformed-payload")),
    ("payload-without-seq", (False, "malformed-payload")),
    ("period-minus-5", (False, "wrong-period")),
])
def test_a_bsm_is_accepted_only_as_a_pseudonym_bsm_of_this_period(variant, verdict):
    world = make_world(devices=3, periods=2, batch_size=2)
    provision_all(world)
    world.clock.set(1, 0)
    bsm = _bsm_variants(world, world.devices[0])[variant]
    assert world.devices[1].validate_bsm(bsm) == verdict


def _revoke_pca(world) -> None:
    """List the PCA's certificate id on its series-2 CRL and publish it."""
    pca_cert = world.pki["pca"].cert
    world.ma.crlg.add_entries(pca_cert.crl_series,
                              certid=[CertIdRevocation(pca_cert.cert_id())])
    world.ma.publish_crl(pca_cert.crl_series)


def test_a_revoked_issuer_in_the_chain_is_reported_as_revoked():
    world = make_world(devices=2, periods=2, batch_size=2)
    provision_all(world)
    sender, listener = world.devices
    world.clock.set(1, 0)
    bsm = sender.sign_bsm([0, 0], 30)
    assert listener.validate_bsm(bsm) == (True, "ok")
    _revoke_pca(world)
    listener.fetch_crl()
    world.bus.run()
    # the leaf is on no CRL; its issuer is
    leaf = Certificate.decode(SignedMessage.decode(bsm).cert_bytes)
    assert not crl_check(leaf, listener.crl_store)
    assert listener.validate_bsm(bsm) == (False, "revoked")


def test_memoized_bsm_checks_give_every_receiver_its_own_verdict():
    # differential: each variant at two receivers in different CRL states,
    # at the same and at another period, with the memo warm and emptied
    # before each call, gives the same verdict
    world = make_world(devices=4, periods=2, batch_size=2)
    provision_all(world)
    sender, revoking, trusting = world.devices[0], world.devices[1], world.devices[2]
    world.clock.set(0, 0)
    variants = {f"{name}@0": bsm for name, bsm
                in _bsm_variants(world, sender).items()}
    world.clock.set(1, 0)
    variants.update(_bsm_variants(world, sender))
    _revoke_pca(world)
    revoking.fetch_crl()
    world.bus.run()

    def verdicts() -> list[tuple]:
        return [receiver.validate_bsm(bsm) for bsm in variants.values()
                for receiver in (revoking, trusting)]

    _signed_bsm.cache_clear()
    warm = verdicts()
    assert _signed_bsm.cache_info().hits == len(variants)
    cold = []
    for bsm in variants.values():
        for receiver in (revoking, trusting):
            _signed_bsm.cache_clear()
            cold.append(receiver.validate_bsm(bsm))
    assert warm == cold
    by_name = dict(zip(variants, zip(warm[::2], warm[1::2])))
    assert by_name["honest"] == ((False, "revoked"), (True, "ok"))
    assert by_name["honest@0"] == ((False, "expired-period"),) * 2
    assert by_name["wrong-psid"] == ((False, "wrong-psid"),) * 2


def _settings(device) -> tuple:
    """What the policy files set on a device: its settings and versions."""
    return (device.batch_size, device.rotation_minutes,
            device.crl_store.capacity, dict(device.policy_versions))


def _gpf_body(world, **changes) -> dict:
    """The world's policy settings with ``changes``."""
    return {"batch_size": world.config.batch_size,
            "rotation_minutes": ROTATION_MINUTES,
            "crl_capacity": world.config.crl_capacity, **changes}


def _fetch_gpf(world, device, **changes) -> None:
    """Publish a newer policy file with ``changes`` and let ``device`` fetch
    it over the air."""
    world.pg.publish_gpf(_gpf_body(world, **changes))
    world.bus.run()
    device.fetch_policy()
    world.bus.run()


def test_policy_file_in_the_other_slot_is_refused():
    world = make_world(devices=1)
    device = world.devices[0]
    settings = _settings(device)
    gpf = world.pg.publish_gpf(_gpf_body(world, batch_size=7))
    gccf = world.pg.publish_gccf([])
    for files in ({"gccf": gpf}, {"gpf": gccf}):
        world.bus.send(Envelope("crlstore", device.id, "policy.files",
                                {"files": files}))
        world.bus.run()
        assert _settings(device) == settings


@pytest.mark.parametrize("value", [
    [1, 2],
    {"name": "gpf", "version": "2", "body": {}},
    {"name": "gpf", "version": 2},
    {"name": "gpf", "version": 2, "body": [1]},
    {"name": "gpf", "version": 2, "body": {}},
    {"name": "gpf", "version": 2, "body": {
        "batch_size": 5, "rotation_minutes": 0, "crl_capacity": 10}},
    {"name": "gpf", "version": 2, "body": {
        "batch_size": 5, "rotation_minutes": 5, "crl_capacity": -1}},
    {"name": "gpf", "version": 2, "body": {
        "batch_size": "5", "rotation_minutes": 5, "crl_capacity": 10}},
], ids=["list", "version-str", "no-body", "body-list", "body-empty",
        "rotation-zero", "capacity-negative", "batch-size-str"])
def test_signed_policy_file_of_another_shape_is_refused(value):
    # signed by the policy generator, so only its shape can refuse it
    world = make_world(devices=1)
    device = world.devices[0]
    settings = _settings(device)
    pg = world.pki["pg"]
    signed = sign_message(pg.keypair.private, pg.cert, encode(value))
    world.bus.send(Envelope("crlstore", device.id, "policy.files",
                            {"files": {"gpf": signed.encode()}}))
    world.bus.run()
    assert _settings(device) == settings


def test_a_newer_policy_file_binds_the_crl_cap_at_once():
    world = make_world(devices=2, periods=2, batch_size=2)
    provision_all(world)
    sender, listener = world.devices
    world.clock.set(1, 0)
    bsm = sender.sign_bsm([0, 0], 30)
    _revoke_pca(world)
    listener.fetch_crl()
    world.bus.run()
    assert listener.validate_bsm(bsm) == (False, "revoked")
    _fetch_gpf(world, listener, crl_capacity=0)
    assert _retained(listener.crl_store) == []
    # with no room for an entry, nothing revokes on that device
    assert listener.validate_bsm(bsm) == (True, "ok")


def test_a_raised_crl_cap_restores_the_evicted_entries_at_once():
    # the device keeps the signed CRL it verified, so a newer policy file
    # that raises the cap needs no new CRL
    world = make_world(devices=2, periods=2, batch_size=2)
    provision_all(world)
    sender, listener = world.devices
    world.clock.set(1, 0)
    bsm = sender.sign_bsm([0, 0], 30)
    _revoke_pca(world)
    listener.fetch_crl()
    world.bus.run()
    _fetch_gpf(world, listener, crl_capacity=0)
    assert listener.validate_bsm(bsm) == (True, "ok")
    _fetch_gpf(world, listener, crl_capacity=10)
    assert listener.validate_bsm(bsm) == (False, "revoked")
    assert listener.crl_store.evicted == frozenset()


def test_a_newer_policy_file_changes_which_certificate_signs():
    world = make_world(devices=1, periods=1, batch_size=5)
    provision_all(world)
    device = world.devices[0]

    def signer(minute: int) -> bytes:
        world.clock.set(0, minute)
        return SignedMessage.decode(device.sign_bsm([0, 0], 40)).cert_id

    assert signer(0) != signer(ROTATION_MINUTES)
    _fetch_gpf(world, device, rotation_minutes=2 * ROTATION_MINUTES)
    assert device.rotation_minutes == 2 * ROTATION_MINUTES
    assert signer(0) == signer(ROTATION_MINUTES)
    assert signer(0) != signer(2 * ROTATION_MINUTES)


def test_a_top_off_request_leaves_the_earlier_batches_openable():
    world = make_world(devices=1, periods=4, batch_size=2)
    device = world.devices[0]

    def request(start: int, n_periods: int) -> None:
        device.request_certs(start, n_periods)
        world.bus.run()
        world.ra.flush()
        world.bus.run()

    request(0, 2)
    device.download_batch(0)
    world.bus.run()
    request(2, 2)  # a top-off
    for period in (1, 2):
        device.download_batch(period)
    world.bus.run()
    assert device.quarantined == []
    assert {i: len(certs) for i, certs in device.certs.items()} == {0: 2, 1: 2, 2: 2}
    # a span the clock has passed is dropped at the next request
    world.clock.set(2, 0)
    device.request_certs(4, 1)
    assert [span for span, _, _ in device.cert_requests.values()] == [
        range(2, 4), range(4, 5)]


def test_a_denied_duplicate_request_leaves_the_accepted_batches_openable():
    # the same span requested twice: the RA refuses the second request,
    # and the refusal must not take the first request's secrets with it
    world = make_world(devices=1, periods=4, batch_size=2)
    device = world.devices[0]
    device.request_certs(0, 3)
    world.bus.run()
    assert device.provision_status == "acknowledged"
    device.request_certs(0, 3)
    world.bus.run()
    assert device.last_deny_reason == "duplicate request for covered time span"
    world.ra.flush()
    world.bus.run()
    for period in range(3):
        device.download_batch(period)
    world.bus.run()
    assert world.bus.dead_letters == 0
    assert device.quarantined == []
    assert {i: len(certs) for i, certs in device.certs.items()} == {0: 2, 1: 2, 2: 2}


def test_a_denial_after_the_acknowledgement_changes_nothing():
    world = make_world(devices=1, periods=4, batch_size=2)
    device = world.devices[0]
    device.request_certs(0, 2)
    world.bus.run()
    ((reply_ref, held),) = device.cert_requests.items()
    world.bus.send(Envelope("lop", device.id, "provision.deny", {
        "reply_ref": reply_ref, "reason": "replayed"}))
    world.bus.run()
    assert device.cert_requests == {reply_ref: held}


def test_a_denied_top_off_leaves_the_accepted_batches_openable():
    world = make_world(devices=1, periods=4, batch_size=2)
    device = world.devices[0]
    device.request_certs(0, 3)
    world.bus.run()
    world.ra.flush()
    world.bus.run()
    assert device.provision_status == "acknowledged"
    device.request_certs(2, 3)  # overlaps period 2, so the RA refuses it
    world.bus.run()
    assert device.last_deny_reason == "duplicate request for covered time span"
    # the denied request is dropped, and the accepted one is answered
    assert [(span, answered) for span, _, answered
            in device.cert_requests.values()] == [(range(0, 3), True)]
    for period in range(3):
        device.download_batch(period)
        world.bus.run()
    assert device.quarantined == []
    assert [len(device.certs[period]) for period in range(3)] == [2, 2, 2]


@pytest.mark.parametrize("body", [
    {},
    {"chains": [b"chain"]},
    {"chains": [[b"SC junk"]]},
], ids=["no-chains", "chain-bytes", "junk-cert"])
def test_signed_chain_file_that_does_not_decode_changes_nothing(body):
    # signed by the policy generator, so only its body can refuse it
    world = make_world(devices=1)
    device = world.devices[0]
    versions = dict(device.policy_versions)
    known = dict(device.trust.certs)
    pg = world.pki["pg"]
    signed = sign_message(pg.keypair.private, pg.cert,
                          encode({"name": "gccf", "version": 5, "body": body}))
    world.bus.send(Envelope("crlstore", device.id, "policy.files",
                            {"files": {"gccf": signed.encode()}}))
    world.bus.run()
    assert world.bus.dead_letters == 1
    assert device.policy_versions == versions
    assert device.trust.certs == known


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
    ((_, (_, h, _, k_enc), _),) = device.cert_requests.values()
    key = cocoon_private(Scalar(h), k_enc, ENCRYPTION, TimeIndex(i, j))
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
    cert_bytes = device.certs[0][0]["cert"].encode()
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

def _retained(store: DeviceCrlStore) -> list:
    """The entries of ``store`` that still revoke, in arrival order."""
    return [e for e in store.entries() if e not in store.evicted]


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
    assert len(_retained(store)) == 10_000


def test_key_compromise_entries_survive_eviction(pki):
    store = DeviceCrlStore(capacity=100)
    store.pin_generator(pki.crlg_cert, [1, 2, 3, 4, 256])
    normal = _crl_with_entries(pki, 90, Priority.NORMAL, series=1)
    store.add(normal)
    store.add(_crl_with_entries(pki, 20, Priority.KEY_COMPROMISE,
                                    series=2, kind="certid"))
    kept = _retained(store)
    assert len(kept) == 100
    assert sum(1 for e in kept if e.priority == Priority.KEY_COMPROMISE) == 20
    # within the normal class the ten oldest entries go
    kept_normal = [e for e in kept if e.priority == Priority.NORMAL]
    assert kept_normal == list(normal.linkage_entries[10:])


def test_a_trimmed_store_keeps_every_crl_signed(pki):
    store = DeviceCrlStore(capacity=5)
    store.pin_generator(pki.crlg_cert, [1, 2])
    added = [_crl_with_entries(pki, 4, series=1),
             _crl_with_entries(pki, 4, Priority.HIGH, series=2, kind="certid")]
    for crl in added:
        assert store.add(crl)
    # the store holds the CRLs it verified, not copies of them
    assert all(check_crl_signature(crl, pki.crlg_cert)
               for crl in store.all_crls())
    assert [store.get(crl.craca_id, crl.series) for crl in added] == added
    assert len(_retained(store)) == 5


# the capped-store property: a pool of revocations per series, each a
# linkage entry and a certificate-id entry, that CRLs list at random, with
# repeats and any priority. The pools are apart because the store treats
# equal entries as one revocation, where rebuilt copies keep each series
# apart.
_SERIES = (1, 2, 3)
_POOL = 3


def _pool(pki) -> dict:
    """(series, k) -> (linkage entry, certificate id, pseudonym certificate
    that the entry revokes at period 0, certificate with that id)."""
    craca = pki.root_cert.cert_id()
    key = KeyPair.generate(DeterministicRandom(31, "crl-pool"))
    pool = {}
    for series in _SERIES:
        for k in range(_POOL):
            seed = hashlib.sha256(bytes([series, k])).digest()
            entry = LinkageRevocation(i=0, ls1=seed[:16], ls2=seed[16:],
                                      la_id1=LA1_ID, la_id2=LA2_ID, j_max=1)
            (lv,) = expand_revocation_entry(entry, 0)
            pseudonym = Certificate(
                ctype=CertType.OBE_PSEUDONYM, subject_key=key.public,
                valid_from=0, valid_to=0, psid=BSM_PSID, craca_id=craca,
                crl_series=series, issuer_id=pki.pca_cert.cert_id(),
                linkage_value=lv)
            component = issue_component_cert(
                key, f"c{series}.{k}", pki.ica_cert, pki.ica_key, craca,
                series, (0, 10), None)
            pool[series, k] = (entry, component.cert_id(), pseudonym, component)
    return pool


def _rebuilt(held: dict, capacity: int) -> CrlSet:
    """The old design, kept as the oracle: a plain ``CrlSet`` of unsigned
    copies of ``held`` (series -> CRL, in arrival order) that list only the
    entries a cap of ``capacity`` keeps, ranked by priority, then newest
    first."""
    entries = [e for crl in held.values()
               for e in crl.linkage_entries + crl.certid_entries]
    ranked = sorted(range(len(entries)),
                    key=lambda n: (-entries[n].priority, -n))
    keep = set(ranked[:capacity])
    kept = (n in keep for n in range(len(entries)))
    rebuilt = CrlSet()
    for crl in held.values():
        rebuilt.add(replace(
            crl, signature=None,
            linkage_entries=[e for e in crl.linkage_entries if next(kept)],
            certid_entries=[e for e in crl.certid_entries if next(kept)]))
    return rebuilt


_revocation = st.tuples(st.sampled_from(["linkage", "certid"]),
                        st.integers(0, _POOL - 1), st.sampled_from(Priority))
_step = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_SERIES),
              st.lists(_revocation, max_size=5)),
    st.tuples(st.just("cap"), st.integers(0, 8)),  # a newer policy file
)


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(capacity=st.integers(0, 8), steps=st.lists(_step, min_size=1, max_size=8))
def test_a_capped_store_revokes_as_rebuilt_copies_would(pki, capacity, steps):
    pool = _pool(pki)
    craca = pki.root_cert.cert_id()
    store = DeviceCrlStore(capacity=capacity)
    store.pin_generator(pki.crlg_cert, list(_SERIES))
    held: dict[int, Crl] = {}
    for step in steps:
        if step[0] == "cap":
            capacity = store.capacity = step[1]
            store.trim()
        else:
            _, series, listed = step
            entries = {"linkage": [], "certid": []}
            for kind, k, priority in listed:
                entry, cert_id = pool[series, k][:2]
                entries[kind].append(replace(entry, priority=priority)
                                     if kind == "linkage"
                                     else CertIdRevocation(cert_id, priority))
            previous = held.pop(series, None)
            crl = sign_crl(Crl(
                series=series, craca_id=craca, issue_period=0,
                sequence=1 if previous is None else previous.sequence + 1,
                crlg_cert_id=b"\x00" * 8, linkage_entries=entries["linkage"],
                certid_entries=entries["certid"]),
                pki.crlg_key.private, pki.crlg_cert)
            assert store.add(crl)
            held[series] = crl
        rebuilt = _rebuilt(held, capacity)
        for _, _, pseudonym, component in pool.values():
            for cert in (pseudonym, component):
                assert crl_check(cert, store) == crl_check(cert, rebuilt)
        assert all(check_crl_signature(crl, pki.crlg_cert)
                   for crl in store.all_crls())


def test_crl_capacity_binds_bsm_validation():
    # the capped store is the device's only CRL memory: with no room for
    # an entry, nothing revokes on that device
    config = ScenarioConfig.from_json(
        (SCENARIO_DIR / "revocation_demo.json").read_text()
    )
    assert run_scenario(config).metrics["bsms_rejected"] == {"revoked": 12}
    unstored = run_scenario(replace(config, crl_capacity=0))
    assert unstored.metrics["bsms_rejected"] == {}


@pytest.mark.parametrize("crl_capacity", [10_000, 2], ids=["uncapped", "capped"])
def test_a_fleet_expands_each_crl_entry_once_whatever_its_size(
        monkeypatch, crl_capacity):
    # every device that decodes one composite shares one CRL and its
    # revoked values, so neither the fleet's size nor a cap that evicts
    # entries changes the count
    from scms import certmodel

    calls = []
    real = certmodel.expand_revocation_entry

    def counted(entry, period):
        calls.append(entry)
        return real(entry, period)

    monkeypatch.setattr(certmodel, "expand_revocation_entry", counted)
    certmodel._decode_crl.cache_clear()  # CRLs another case expanded
    counts = {}
    for devices in (2, 10):
        world = make_world(devices=devices, periods=1, batch_size=1,
                           seed=9000 + devices, crl_capacity=crl_capacity)
        rng = DeterministicRandom(devices, "fleet-crl")
        world.ma.crlg.add_entries(SERIES_PSEUDONYM, linkage=[
            LinkageRevocation(i=0, ls1=rng.randbytes(16), ls2=rng.randbytes(16),
                              la_id1=LA1_ID, la_id2=LA2_ID, j_max=2)
            for _ in range(3)
        ])
        world.ma.publish_crl(SERIES_PSEUDONYM)
        for device in world.devices:
            device.fetch_crl()
        world.bus.run()
        calls.clear()
        craca = world.pki["root"].cert.cert_id()
        for device in world.devices:
            store = device.crl_store
            revoked = store.revoked_lvs(craca, SERIES_PSEUDONYM, 0)
            assert len(revoked) == 3 * 2
            still = [lv for lv, entry in revoked.items()
                     if entry not in store.evicted]
            assert len(still) == min(3, crl_capacity) * 2
        counts[devices] = len(calls)
    assert counts == {2: 3, 10: 3}


def test_a_store_that_keeps_no_entry_expands_no_crl(monkeypatch):
    # a CRL whose every entry the cap evicted can revoke nothing, so a
    # device with crl_capacity 0 never expands one: on the seed-1
    # fleet_revocation workload only the other holders of CRLs expand
    import importlib.util

    from scms import certmodel

    spec = importlib.util.spec_from_file_location(
        "workloads", SCENARIO_DIR.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    calls = []
    real = certmodel.expand_revocation_entry

    def counted(entry, period):
        calls.append(entry)
        return real(entry, period)

    monkeypatch.setattr(certmodel, "expand_revocation_entry", counted)
    certmodel._decode_crl.cache_clear()  # CRLs another case expanded
    config = workloads.build("fleet_revocation", 1)["config"]
    result = run_scenario(ScenarioConfig(**config, crl_capacity=0))
    assert result.metrics["bsms_rejected"] == {}
    assert result.trace_digest[:16] == "56dc5633c4938ded"
    assert len(calls) == 190


def test_bad_signature_discards_whole_crl(pki):
    store = DeviceCrlStore(capacity=100)
    store.pin_generator(pki.crlg_cert, [1])
    crl = _crl_with_entries(pki, 5)
    crl = replace(crl, signature=b"\x11" * 64)
    assert not store.add(crl)
    assert store.entries() == []


def test_jurisdiction_pinning_blocks_foreign_series(pki):
    # a generator pinned for series 99 cannot revoke series-1 devices
    store = DeviceCrlStore(capacity=100)
    store.pin_generator(pki.crlg_cert, [99])
    crl = _crl_with_entries(pki, 5, series=1)
    assert not store.add(crl)
    assert store.entries() == []


def test_stored_file_within_budget_at_cap(pki):
    store = DeviceCrlStore(capacity=10_000)
    store.pin_generator(pki.crlg_cert, [1])
    store.add(_crl_with_entries(pki, 10_000))
    # a device stores the signed CRLs it verified, as one composite file
    stored = len(encode_composite(store.all_crls()))
    assert stored <= 400 * 1024


def test_newer_sequence_replaces_older(pki):
    store = DeviceCrlStore(capacity=1000)
    store.pin_generator(pki.crlg_cert, [1])
    assert store.add(_crl_with_entries(pki, 5, seq=2))
    assert not store.add(_crl_with_entries(pki, 9, seq=1))  # stale
    assert store.add(_crl_with_entries(pki, 7, seq=3))
    assert len(store.entries()) == 7


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
    # a quarantined package installs no certificate at all
    assert target.certs == {}
    assert len(target.quarantined) == 8
    world.clock.set(0, 0)
    assert target.sign_bsm([0, 0], 10) is None  # nothing usable installed
