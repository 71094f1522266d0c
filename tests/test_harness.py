"""Scenario runner tests: determinism, metrics arithmetic, audits,
snapshotting and scenario-file parsing."""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from scms.certmodel import ENROLLMENT_TYPES, Certificate, CertType, issue_certificate
from scms.crypto import DeterministicRandom, KeyPair
from scms.errors import InvariantViolation, ParseError, ScmsError
from scms.harness import (
    ScenarioConfig,
    _namespace_leaves,
    _parses_as_cert_type,
    run_audits,
    run_scenario,
)
from scms.persistence import StoreRegistry
from tests.conftest import make_world, provision_all, shuffle_dispersion

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _small_config(**overrides):
    defaults = dict(
        name="small", seed=31, devices=5, periods=3, batch_size=4,
        bsms_per_device_per_period=2, listeners_per_bsm=1,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_certificate_count_arithmetic():
    result = run_scenario(_small_config())
    assert result.metrics["certs_issued"] == 5 * 3 * 4
    assert result.violations == []


def test_same_seed_same_digest_different_seed_differs():
    a = run_scenario(_small_config())
    b = run_scenario(_small_config())
    c = run_scenario(_small_config(seed=32))
    assert a.trace_digest == b.trace_digest
    assert a.trace_digest != c.trace_digest
    assert a.metrics["bus_messages"] == b.metrics["bus_messages"]


def test_revocation_event_rejects_future_bsms():
    config = _small_config(events=[{
        "period": 1, "action": "misbehavior", "offender": 0,
        "reporters": [1, 2, 3],
    }])
    result = run_scenario(config)
    assert result.violations == []
    assert result.metrics["revocations"] == 1
    assert result.metrics["bsms_rejected"].get("revoked", 0) > 0
    assert result.metrics["revocation_latency_periods"] == [0]


def test_scenario_json_roundtrip(tmp_path):
    config = _small_config(events=[{"period": 0, "action": "ballot",
                                    "kind": "endorse-root", "voters": [0, 1]}])
    text = json.dumps(asdict(config))
    again = ScenarioConfig.from_json(text)
    assert again == config


def test_unknown_scenario_field_rejected():
    with pytest.raises(ScmsError):
        ScenarioConfig.from_json('{"name": "x", "bogus_field": 1}')


def test_committed_scenarios_parse():
    files = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(files) >= 4
    for path in files:
        config = ScenarioConfig.from_json(path.read_text())
        assert config.name == path.stem


def test_shuffle_dispersion_structural_unlinkability():
    world = make_world(devices=10, periods=2, batch_size=10, seed=77)
    provision_all(world)
    assert shuffle_dispersion(world) > 0.99


def test_store_snapshot_roundtrip_after_run(tmp_path):
    result = run_scenario(_small_config())
    registry = result.world.registry
    path = tmp_path / "world.snap"
    registry.snapshot(path)
    restored = StoreRegistry()
    restored.restore(path)
    assert restored.snapshot_bytes() == registry.snapshot_bytes()
    assert restored.audit_view("pca").count("issued") == 5 * 3 * 4


def test_trace_events_optional_and_digest_stable():
    with_events = run_scenario(_small_config(keep_trace_events=True))
    without = run_scenario(_small_config())
    assert with_events.trace_digest == without.trace_digest
    assert with_events.world.trace.events
    assert without.world.trace.events == []
    kinds = {e["kind"] for e in with_events.world.trace.events}
    assert kinds == {"deliver"}


def test_elector_events_apply_fleet_wide():
    config = _small_config(events=[
        {"period": 1, "action": "ballot", "kind": "revoke-elector",
         "index": 0, "voters": [1, 2]},
        {"period": 1, "action": "ballot", "kind": "add-elector",
         "voters": [1, 2]},
    ])
    result = run_scenario(config)
    assert result.violations == []
    for device in result.world.devices:
        assert device.trust.valid_elector_count() == 3
        assert len(device.trust.electors) == 4


def test_mitm_devices_all_detected():
    result = run_scenario(_small_config(mitm_devices=[0, 2]))
    assert result.metrics["mitm_injected"] == 2 * 3 * 4
    assert result.metrics["mitm_detected"] == result.metrics["mitm_injected"]
    assert result.violations == []


def test_bad_event_action_raises():
    with pytest.raises(ScmsError):
        run_scenario(_small_config(events=[{"period": 0, "action": "warp"}]))


def test_inject_event_sends_json_payloads_with_bytes():
    result = run_scenario(_small_config(keep_trace_events=True, events=[
        {"period": 1, "action": "inject", "src": "pg", "dst": "obe0",
         "type": "ballot.publish", "payload": {"ballot": {"$bytes": "0600"}}},
    ]))
    assert result.violations == []
    dead = [e for e in result.world.trace.events if e["kind"] == "dead_letter"]
    assert [(e["dst"], e["t"], e["err"]) for e in dead] == [
        ("obe0", "ballot.publish", "ParseError")]
    assert result.metrics["dead_letters"] == 1


@pytest.mark.parametrize("event", [
    {"src": "pg", "dst": "obe0"},
    {"src": "pg", "dst": "obe0", "type": 5, "payload": {}},
    {"src": "ghost", "dst": "crlstore", "type": "crl.fetch", "payload": {}},
    {"src": "pg", "dst": "ghost", "type": "crl.fetch", "payload": {}},
    {"src": "pg", "dst": "obe0", "type": "bsm", "payload": {"bsm": 1.5}},
    {"src": "pg", "dst": "obe0", "type": "bsm", "payload": {"bsm": 2**4000}},
], ids=["no-type", "int-type", "unknown-src", "unknown-dst", "float",
        "huge-int"])
def test_malformed_inject_event_raises(event):
    with pytest.raises(ScmsError) as err:
        run_scenario(_small_config(events=[
            {"period": 0, "action": "inject", **event},
        ]))
    # a bad scenario file, not a fault of the system under test
    assert not isinstance(err.value, InvariantViolation)


# --- separation audits ---

def _unissued_cert(ctype: CertType, **extra) -> bytes:
    """A certificate no component issued, so only the audit's type probe,
    not its set of known certificates, can find it."""
    key = KeyPair.generate(DeterministicRandom(77))
    cert = Certificate(ctype=ctype, subject_key=key.public, valid_from=0,
                       valid_to=1, psid=0x20, craca_id=b"\x01" * 8,
                       crl_series=1, issuer_id=b"\x02" * 8, **extra)
    return issue_certificate(cert, key.private).encode()


@pytest.mark.parametrize("owner, ctype, extra, violation", [
    ("pca", CertType.OBE_ENROLLMENT, {},
     "pca:planted: enrollment certificate present"),
    ("ra", CertType.OBE_PSEUDONYM, {"linkage_value": b"\x03" * 9},
     "ra:planted: plaintext pseudonym certificate"),
])
def test_audit_flags_planted_certificate(owner, ctype, extra, violation):
    world = make_world(devices=2, periods=1, batch_size=2)
    provision_all(world)
    assert run_audits(world) == []
    world.registry.audit_view(owner).put(
        "planted", {"blob": _unissued_cert(ctype, **extra)})
    assert run_audits(world) == [violation]


def test_cert_type_probe_matches_full_decode():
    world = make_world(devices=2, periods=2, batch_size=2)
    provision_all(world)
    leaves = [leaf for owner in world.registry.owners()
              for _, leaf in _namespace_leaves(world.registry.audit_view(owner))
              if isinstance(leaf, bytes)]
    probes = [ENROLLMENT_TYPES, {CertType.OBE_PSEUDONYM}]
    probes += [{ctype} for ctype in CertType]
    hits = 0
    for leaf in leaves:
        try:
            ctype = Certificate.decode(leaf).ctype
        except ParseError:
            ctype = None
        for ctypes in probes:
            assert _parses_as_cert_type(leaf, ctypes) == (ctype in ctypes)
        hits += ctype is not None
    assert hits > 0
