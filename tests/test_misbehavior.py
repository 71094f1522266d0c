"""MA pipeline tests: detection thresholds, boolean investigation,
pseudonym and non-pseudonym revocation, rate limits, audit trails."""

import hashlib

import pytest

from scms.bus import Envelope
from scms.certmodel import (
    CertType,
    Certificate,
    SignedMessage,
    check_crl_signature,
    crl_check,
    CrlSet,
    issue_certificate,
    sign_message,
    verify_chain,
)
from scms.crypto import DeterministicRandom, KeyPair
from scms.device import Device
from scms.encoding import encode
from scms.misbehavior import ThresholdDetector
from tests.conftest import issued_certificates, make_world, provision_all


def _report(lv, reporter, period=0):
    return {"lv": lv, "reporter_cert_id": reporter, "period": period}


# --- detector ---

def test_detector_empty():
    detector = ThresholdDetector(threshold=3)
    assert detector([], period=0) == set()


def test_detector_threshold_met():
    detector = ThresholdDetector(threshold=3)
    reports = [_report(b"lv-a" * 2 + b"x", f"r{k}".encode()) for k in range(3)]
    assert detector(reports, period=0) == {b"lv-a" * 2 + b"x"}


def test_detector_below_threshold():
    detector = ThresholdDetector(threshold=3)
    reports = [_report(b"lv-b" * 2 + b"x", f"r{k}".encode()) for k in range(2)]
    assert detector(reports, period=0) == set()
    # duplicate reporters do not inflate the count
    reports.append(_report(b"lv-b" * 2 + b"x", b"r0"))
    assert detector(reports, period=0) == set()


def test_detector_window():
    detector = ThresholdDetector(threshold=2, window_periods=1)
    reports = [
        _report(b"lv-old-old!", b"r0", period=0),
        _report(b"lv-old-old!", b"r1", period=5),
    ]
    assert detector(reports, period=5) == set()  # r0 outside the window
    reports.append(_report(b"lv-old-old!", b"r2", period=4))
    assert detector(reports, period=5) == {b"lv-old-old!"}


# --- full pipeline via scenario ---

def _revocation_world():
    world = make_world(devices=5, periods=4, batch_size=4,
                       bsms_per_device_per_period=0)
    provision_all(world)
    return world


def _file_reports(world, offender_idx, reporter_idxs, period):
    world.clock.set(period, 0)
    offender = world.devices[offender_idx]
    reporters = [world.devices[i] for i in reporter_idxs]
    bsm = offender.broadcast_bsm([r.id for r in reporters],
                                 position=[-3, 0], speed=50)
    world.bus.run()
    for reporter in reporters:
        reporter.report_misbehavior(bsm)
    world.bus.run()
    world.ra.flush_reports()
    world.bus.run()
    return bsm


def test_reports_reach_ma_shuffled_and_encrypted():
    world = _revocation_world()
    _file_reports(world, 0, [1, 2], period=1)  # below threshold: no action
    ma_store = world.registry.audit_view("ma")
    assert ma_store.count("report") == 2
    # the RA only ever held ciphertext digests
    ra_store = world.registry.audit_view("ra")
    assert ra_store.count("report_ciphertext") == 2
    assert world.ma.revocations_completed == 0


def test_malformed_reports_quarantined_not_crash():
    world = _revocation_world()
    from scms.bus import Envelope as E
    from scms.crypto import hybrid_encrypt

    junk_encrypted = hybrid_encrypt(
        world.pki["ma"].enc_keypair.public, b"\xde\xad", world.rng
    ).encode()
    world.bus.send(E("ra", "ma", "mb.batch", {
        "reports": [b"\x00" * 60, junk_encrypted],
    }))
    world.bus.run()
    bad = world.registry.audit_view("ma").scan("bad_report")
    assert len(bad) == 2
    assert world.ma.revocations_completed == 0


def test_malformed_reporter_certificate_recorded_not_crash():
    from scms.crypto import hybrid_encrypt

    world = make_world()
    reporter = SignedMessage(
        payload=b"evidence", cert_id=b"\x00" * 8, signature=b"\x00" * 64,
        cert_bytes=b"SC\x01",  # truncated certificate
    )
    good = {
        "kind": "bsm", "reported_cert": world.pki["ma"].cert.encode(),
        "evidence": b"\x01" * 32, "reporter": reporter.encode(),
    }
    no_evidence = {k: v for k, v in good.items() if k != "evidence"}
    reports = [
        hybrid_encrypt(world.pki["ma"].enc_keypair.public, encode(value),
                       world.rng).encode()
        for value in (good, no_evidence, ["not", "a", "report"])
    ]
    world.bus.send(Envelope("ra", "ma", "mb.batch", {"reports": reports}))
    world.bus.run()
    bad = world.registry.audit_view("ma").scan("bad_report")
    assert bad == [{"reason": "undecryptable or malformed"}] * 3
    assert world.registry.audit_view("ma").count("report") == 0


@pytest.mark.parametrize("evidence, stored", [
    (b"\x01" * 32, "report"), ("01" * 32, "bad_report"),
], ids=["bytes", "text"])
def test_report_evidence_must_be_bytes(evidence, stored):
    from scms.crypto import hybrid_encrypt

    world = make_world(devices=1, periods=1, batch_size=1)
    provision_all(world)
    ma = world.pki["ma"]
    signer = world.devices[0].signing_cert()
    report = {
        "kind": "bsm", "reported_cert": ma.cert.encode(), "evidence": evidence,
        "reporter": sign_message(signer["priv"], signer["cert"], b"\x01").encode(),
    }
    blob = hybrid_encrypt(ma.enc_keypair.public, encode(report), world.rng)
    world.bus.send(Envelope("ra", "ma", "mb.batch", {"reports": [blob.encode()]}))
    world.bus.run()
    view = world.registry.audit_view("ma")
    assert [view.count(kind) for kind in ("report", "bad_report")] == [
        stored == "report", stored == "bad_report"]
    if stored == "bad_report":
        assert view.scan("bad_report") == [{"reason": "undecryptable or malformed"}]


def _pseudonym_outside_the_pki(rng) -> tuple[KeyPair, Certificate]:
    """A well-formed pseudonym certificate that no PCA issued: self-signed
    under a random issuer id."""
    key = KeyPair.generate(rng)
    cert = Certificate(ctype=CertType.OBE_PSEUDONYM, subject_key=key.public,
                       valid_from=0, valid_to=3, psid=0x20,
                       craca_id=rng.randbytes(8), crl_series=1,
                       issuer_id=rng.randbytes(8), linkage_value=rng.randbytes(9))
    return key, issue_certificate(cert, key.private)


@pytest.mark.parametrize("signer", ["self-issued pseudonym", "component"])
def test_reporters_outside_the_pki_are_not_counted(signer):
    # three distinct reporters meet the threshold, but none holds a
    # pseudonym certificate of this PKI: each is self-issued, or is a
    # component's certificate, which chains but names no vehicle
    from scms.crypto import hybrid_encrypt

    world = _revocation_world()
    world.clock.set(1, 0)
    bsm = world.devices[0].broadcast_bsm([world.devices[1].id],
                                         position=[-3, 0], speed=50)
    world.bus.run()
    evidence = hashlib.sha256(bsm).digest()
    if signer == "component":
        keys = [(world.pki[role].keypair, world.pki[role].cert)
                for role in ("pca", "ra", "la1")]
    else:
        rng = DeterministicRandom(5)
        keys = [_pseudonym_outside_the_pki(rng) for _ in range(3)]
    ma = world.pki["ma"]
    reports = [hybrid_encrypt(ma.enc_keypair.public, encode({
        "kind": "bsm", "evidence": evidence,
        "reported_cert": SignedMessage.decode(bsm).cert_bytes,
        "reporter": sign_message(key.private, cert, evidence).encode(),
    }), world.rng).encode() for key, cert in keys]
    world.bus.send(Envelope("ra", "ma", "mb.batch", {"reports": reports}))
    world.bus.run()
    view = world.registry.audit_view("ma")
    assert view.count("report") == 0
    assert view.scan("bad_report") == [{"reason": "reporter outside the PKI"}] * 3
    assert world.ma.revocations_completed == 0


def test_a_reporter_the_ma_revoked_is_not_counted():
    # obe0 is revoked in period 1; in period 2 it and two honest devices
    # report obe4, and only two reporters count against the threshold of 3
    world = _revocation_world()
    _file_reports(world, 0, [1, 2, 3], period=1)
    assert world.ma.revocations_completed == 1
    _file_reports(world, 4, [0, 1, 2], period=2)
    view = world.registry.audit_view("ma")
    assert view.scan("bad_report") == [{"reason": "reporter revoked"}]
    assert view.count("report") == 5
    assert world.ma.revocations_completed == 1


def test_report_batch_order_decorrelated_from_filing_order():
    # reporter-path privacy: the MA's arrival order is a shuffle of the
    # filing order, so report position does not identify the reporter
    world = make_world(devices=10, periods=2, batch_size=3,
                       detector_threshold=99)
    provision_all(world)
    world.clock.set(1, 0)
    offender = world.devices[0]
    reporters = world.devices[1:]
    bsm = offender.broadcast_bsm([r.id for r in reporters],
                                 position=[-3, 0], speed=50)
    world.bus.run()
    for reporter in reporters:
        reporter.report_misbehavior(bsm)
    world.bus.run()
    world.ra.flush_reports()
    world.bus.run()
    # recover arrival order from the MA batch the RA sent: reports are
    # stored in arrival order with one record per report
    arrival = world.registry.audit_view("ma").scan("report")
    assert len(arrival) == 9
    reporter_ids = [r["reporter_cert_id"] for r in arrival]
    # map filing order to reporter cert ids for comparison
    assert len(set(reporter_ids)) == 9
    filed_ids = []
    for reporter in reporters:
        filed_ids.append(reporter.signing_cert()["cert"].cert_id())
    assert set(filed_ids) == set(reporter_ids)
    assert filed_ids != reporter_ids  # seeded shuffle reordered them


def test_full_revocation_flags_forward_periods_only():
    world = _revocation_world()
    _file_reports(world, 0, [1, 2, 3], period=2)
    assert world.ma.revocations_completed == 1

    offender = world.devices[0]
    crl_set = CrlSet()
    for crl in world.crl_store.crls.all_crls():
        crl_set.add(crl)
    flagged = {
        (r["i"], r["j"])
        for r in issued_certificates(world)
        if r["handle"] == offender.handle_id
        and crl_check(Certificate.decode(r["cert"]), crl_set)
    }
    assert flagged == {(i, j) for i in (2, 3) for j in range(4)}

    # blacklist: the next provisioning request is denied
    offender.request_certs(10, 1)
    world.bus.run()
    assert offender.provision_status == "denied"

    # MA holds the period-2 seeds and nothing earlier
    ma_store = world.registry.audit_view("ma")
    revocation = ma_store.scan("revocation")[0]
    assert revocation["period"] == 2
    la1 = world.registry.audit_view("la1")
    from scms.linkage import LinkageSeed, seed_at

    chain = None
    for c in la1.scan("chain"):
        s2 = seed_at(b"\x00\x00\x00\x01", LinkageSeed(c["seed0"], c["period0"]), 2)
        if s2.value == revocation["ls1"]:
            chain = c
            break
    assert chain is not None, "revoked seed must come from an LA chain"
    s1 = seed_at(b"\x00\x00\x00\x01", LinkageSeed(chain["seed0"], chain["period0"]), 1)
    for kind in ma_store.kinds():
        for record in ma_store.scan(kind):
            assert s1.value not in record.values()


def test_revocation_idempotent_for_same_lv():
    world = _revocation_world()
    _file_reports(world, 0, [1, 2, 3], period=1)
    assert world.ma.revocations_completed == 1
    # more reports against the same linkage value change nothing
    _file_reports(world, 0, [1, 2, 3], period=1)
    assert world.ma.revocations_completed == 1


# --- investigation (boolean only) ---

def test_same_device_verdicts():
    world = _revocation_world()
    issued = issued_certificates(world)
    by_handle = {}
    for row in issued:
        by_handle.setdefault(row["handle"], []).append(row)
    h0 = world.devices[0].handle_id
    h1 = world.devices[1].handle_id
    same_a, same_b = by_handle[h0][0], by_handle[h0][1]
    other = by_handle[h1][0]

    world.ma.request_same_device(same_a["lv"], same_b["lv"])
    world.bus.run()
    world.ma.request_same_device(same_a["lv"], other["lv"])
    world.bus.run()
    verdicts = world.registry.audit_view("ma").scan("verdict")
    assert len(verdicts) == 2
    assert verdicts[0]["same"] is True
    assert verdicts[1]["same"] is False
    # the MA learned booleans; the LA logged both served queries
    la_audit = world.registry.audit_view("la1").where("audit", op="ma.samedev")
    assert len(la_audit) == 2


def test_unsigned_ma_query_refused_and_logged():
    world = _revocation_world()
    intruder = KeyPair.generate(DeterministicRandom(999))
    fake = sign_message(intruder.private, world.pki["ma"].cert,
                        encode({"lv": b"x" * 9}))
    world.bus.send(Envelope("ma", "pca", "ma.lv2plv", {"q": fake.encode()}))
    world.bus.run()
    refusals = world.registry.audit_view("ma").scan("refusal")
    assert refusals and refusals[0]["reason"] == "bad signature"
    audit = world.registry.audit_view("pca").where(
        "audit", op="ma.lv2plv.refused"
    )
    assert len(audit) == 1


def test_ma_query_counter_keeps_only_the_current_period():
    world = make_world(devices=1)
    query = sign_message(world.pki["ma"].keypair.private, world.pki["ma"].cert,
                         encode({"lv": b"x" * 9}))
    for period in range(4):
        world.clock.set(period)
        world.bus.send(Envelope("ma", "pca", "ma.lv2plv", {"q": query.encode()}))
        world.bus.run()
    assert world.pca._ma_queries == {3: 1}
    assert len(world.registry.audit_view("pca").where("audit", op="ma.lv2plv")) == 4


def _quota_of_one(world, server):
    """Every server of MA queries answers under the world's one quota; cut
    the named server's to one query per period."""
    component = getattr(world, server)
    assert component.ma_query_limit == max(64, 4 * world.config.devices)
    component.ma_query_limit = 1


# each server answers one query of its op per revocation, so a quota of
# one stalls the second revocation
QUOTA_SERVERS = pytest.mark.parametrize("server, op", [
    ("la1", "ma.lci2seed"), ("ra", "ma.blacklist"),
], ids=["la1", "ra"])


@QUOTA_SERVERS
def test_rate_limited_queries_refused(server, op):
    world = _revocation_world()
    _quota_of_one(world, server)
    _file_reports(world, 0, [1, 2, 3], period=1)
    assert world.ma.revocations_completed == 1
    _file_reports(world, 1, [2, 3, 4], period=1)
    assert world.ma.revocations_completed == 1  # blocked by the quota
    refusals = world.registry.audit_view("ma").scan("refusal")
    assert any(r["reason"] == "rate limited" for r in refusals)
    over_quota = world.registry.audit_view(server).where(
        "audit", op=op + ".refused"
    )
    assert len(over_quota) == 1


@QUOTA_SERVERS
def test_refused_query_fails_its_case(server, op):
    world = _revocation_world()
    _quota_of_one(world, server)
    _file_reports(world, 0, [1, 2, 3], period=1)
    _file_reports(world, 1, [2, 3, 4], period=1)
    failed = world.registry.audit_view("ma").scan("failed_case")
    assert [r["stage"] for r in failed] == ["refused"]
    assert failed[0]["lv"] in world.ma._flagged
    assert world.ma._cases == {}
    assert world.ma._await == {}


@pytest.mark.parametrize("mtype, change, stage", [
    ("ma.lv2rh.resp", {"ra_host": "ghost"}, "rh"),
    ("ma.blacklist.resp", {"j_max": 0}, "blacklist"),
    ("ma.blacklist.resp", {"j_max": 2**16}, "blacklist"),
    ("ma.blacklist.resp", {"la_hosts": ["ghost", "ghost"]}, None),
], ids=["unknown-ra", "j_max-zero", "j_max-over-16-bits", "unknown-las"])
def test_reply_naming_a_bad_host_or_range_fails_its_case(mtype, change, stage):
    world = _revocation_world()
    lv = issued_certificates(world)[0]["lv"]
    world.ma.start_pseudonym_revocation(lv)
    reply = _hold(world.bus, mtype)
    world.bus._queue.appendleft(Envelope(reply.src, reply.dst, reply.mtype,
                                         {**reply.payload, **change}))
    world.bus.run()
    assert world.bus.dead_letters == 0
    failed = world.registry.audit_view("ma").scan("failed_case")
    if stage is None:  # the MA asks its own LAs, whatever the RA names
        assert failed == [] and world.ma.revocations_completed == 1
    else:
        assert failed == [{"lv": lv, "stage": stage}]


@pytest.mark.parametrize("change", [
    {"ls": b"\x05" * 15},
    {"la_id": b""},
    {"la_id": b"\x00\x00\x00\x02"},
], ids=["ls-15-bytes", "la_id-empty", "la_id-of-the-other-la"])
def test_seeds_no_crl_entry_can_carry_fail_their_case(change):
    world = _revocation_world()
    lv = issued_certificates(world)[0]["lv"]
    world.ma.start_pseudonym_revocation(lv)
    reply = _hold(world.bus, "ma.lci2seed.resp")
    world.bus._queue.appendleft(Envelope(reply.src, reply.dst, reply.mtype,
                                         {**reply.payload, **change}))
    world.bus.run()
    # a handled refusal, like found: false, not a dead letter
    assert world.bus.dead_letters == 0
    failed = world.registry.audit_view("ma").scan("failed_case")
    assert failed == [{"lv": lv, "stage": "seeds"}]
    assert world.ma.revocations_completed == 0
    assert world.registry.audit_view("ma").count("revocation") == 0
    assert world.crl_store.crls.all_crls() == []


def _hold(bus, mtype):
    """Deliver until an envelope of ``mtype`` is next, and take it out."""
    while bus._queue[0].mtype != mtype:
        bus._deliver(bus._queue.popleft())
    return bus._queue.popleft()


def test_reply_from_a_server_not_asked_is_refused():
    world = _revocation_world()
    world.ma.start_pseudonym_revocation(issued_certificates(world)[0]["lv"])
    reply = _hold(world.bus, "ma.lv2plv.resp")
    world.bus.send(Envelope("pg", "ma", reply.mtype, reply.payload))
    world.bus.run()
    assert world.ma.revocations_completed == 0
    assert world.bus.dead_letters == 1
    # the query still waits for the PCA, and its real reply completes it
    world.bus.send(reply)
    world.bus.run()
    assert world.ma.revocations_completed == 1
    assert world.bus.dead_letters == 1


def test_audit_reconciliation_finds_no_orphans():
    world = _revocation_world()
    _file_reports(world, 0, [1, 2, 3], period=1)
    for device in world.devices:
        device.fetch_crl()
    world.bus.run()
    from scms.harness import run_audits

    violations = run_audits(world)
    assert violations == []


# --- non-pseudonym revocation ---

def _rse_world():
    world = make_world(devices=2, periods=3)
    rse = Device("rse0", world.bus, world.rng, model="rse-model-a")
    rse.bootstrap(world.dcm, ctype=CertType.RSE_ENROLLMENT,
                  subject_info="rse-unit-0")
    world.rse = rse
    return world


def test_rse_application_issuance_and_revocation():
    world = _rse_world()
    rse = world.rse
    rse.request_app_certs(
        CertType.RSE_APPLICATION,
        validities=[[0, 10], [11, 20], [21, 30]],
        psid=130,
        with_enc_key=True,
    )
    world.bus.run()
    assert len(rse.app_certs) == 3
    for entry in rse.app_certs:
        cert = entry["cert"]
        assert cert.ctype == CertType.RSE_APPLICATION
        assert cert.enc_key is not None
        assert verify_chain(cert, rse.trust).ok

    world.ma.start_certificate_revocation(rse.app_certs[0]["cert"].encode())
    world.bus.run()
    crl = world.crl_store.crls.get(world.pki["root"].cert.cert_id(), 3)
    assert crl is not None
    assert len(crl.certid_entries) == 3
    assert all(len(e.cert_id) == 8 for e in crl.certid_entries)
    ids = {e.cert_id for e in crl.certid_entries}
    assert ids == {e["cert"].cert_id() for e in rse.app_certs}
    # enrollment blacklisted: further app requests denied
    rse.request_app_certs(CertType.RSE_APPLICATION, [[31, 40]], psid=130)
    world.bus.run()
    assert rse.provision_status == "denied"


def test_expired_only_device_blacklist_without_crl_delta():
    world = _rse_world()
    rse = world.rse
    rse.request_app_certs(CertType.RSE_APPLICATION, [[0, 1]], psid=130)
    world.bus.run()
    world.clock.set(2, 0)  # the only cert is now expired
    world.ma.start_certificate_revocation(rse.app_certs[0]["cert"].encode())
    world.bus.run()
    assert world.crl_store.crls.get(world.pki["root"].cert.cert_id(), 3) is None
    record = world.registry.audit_view("ma").scan("revocation_nonpseudo")[0]
    assert record["cert_ids"] == []
    rse.request_app_certs(CertType.RSE_APPLICATION, [[5, 6]], psid=130)
    world.bus.run()
    assert rse.provision_status == "denied"


def test_unknown_nonpseudonym_request_hash_fails_case_at_blacklist():
    world = _rse_world()
    cert_id = b"\x07" * 8
    key = f"crev:{cert_id.hex()}"
    world.ma._cases[key] = {
        "kind": "cert_revocation", "cert_id": cert_id, "series": 3,
    }
    world.ma._query("ra", "ma.blacklist_nonpseudo", {"rh": b"\x00" * 32},
                    key, "blacklist")
    world.bus.run()
    failed = world.registry.audit_view("ma").scan("failed_case")
    assert failed == [{"cert_id": cert_id, "stage": "blacklist"}]
    assert world.ma._cases == {}


def test_reply_the_handler_refuses_fails_its_case():
    world = _rse_world()
    world.rse.request_app_certs(CertType.RSE_APPLICATION, [[0, 10]], psid=130)
    world.bus.run()
    cert = world.rse.app_certs[0]["cert"]
    world.ma.start_certificate_revocation(cert.encode())
    reply = _hold(world.bus, "ma.certsbyrh.resp")
    world.bus.send(Envelope(reply.src, reply.dst, reply.mtype,
                            {**reply.payload, "certs": [b"junk"]}))
    world.bus.run()
    assert world.bus.dead_letters == 1
    failed = world.registry.audit_view("ma").scan("failed_case")
    assert failed == [{"cert_id": cert.cert_id(), "stage": "certs"}]
    assert world.ma._cases == {}
    assert world.ma._await == {}


def test_pseudonym_cert_rejected_by_nonpseudonym_pipeline():
    world = _revocation_world()
    row = issued_certificates(world)[0]
    with pytest.raises(ValueError):
        world.ma.start_certificate_revocation(row["cert"])


# --- CRLG ---

def test_crlg_groups_and_sequence():
    world = make_world(devices=6, periods=3, batch_size=3)
    provision_all(world)
    world.clock.set(1, 0)
    _file_reports(world, 0, [2, 3, 4], period=1)
    _file_reports(world, 1, [2, 3, 4], period=1)
    crl = world.crl_store.crls.get(world.pki["root"].cert.cert_id(), 1)
    assert crl.sequence == 2  # one publication per completed revocation
    assert len(crl.linkage_entries) == 2
    raw = crl.tbs_bytes()
    n_groups = int.from_bytes(raw[29:31], "big")
    assert n_groups == 1  # same la_id pair and period: one group header

    # reissue with no new orders: same entries, new sequence
    reissued = world.ma.publish_crl(1)
    assert reissued.sequence == 3
    assert reissued.linkage_entries == crl.linkage_entries

    # the CRLG signature chains to the CRACA of the series
    assert check_crl_signature(reissued, world.pki["crlg"].cert)
    assert verify_chain(world.pki["crlg"].cert, world.devices[0].trust).ok
