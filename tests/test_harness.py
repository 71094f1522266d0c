"""Scenario runner tests: determinism, metrics arithmetic, audits and
scenario-file parsing."""

import json
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scms.certmodel import ENROLLMENT_TYPES, Certificate, CertType, issue_certificate
from scms.crypto import DeterministicRandom, KeyPair
from scms.encoding import decode
from scms.errors import InvariantViolation, ParseError, ScmsError
from scms.harness import (
    BALLOTS,
    CERT,
    COMPONENTS,
    ELECTORS,
    ENROLLMENT,
    EVENT,
    EVENTS,
    FOREIGN_PLV,
    FOREIGN_SEED,
    HANDLE,
    LV,
    NAMED,
    PLV,
    PSEUDONYM,
    SEPARATION,
    STR,
    ScenarioConfig,
    _namespace_leaves,
    _parses_as_cert_type,
    collect_metrics,
    run_audits,
    run_scenario,
)
from scms.linkage import LA1_ID, LA2_ID, pre_linkage_values
from scms.persistence import StoreRegistry
from tests.conftest import (
    make_world,
    provision_all,
    shuffle_dispersion,
    store_fingerprint,
)

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
    assert result.world.registry.audit_view("pca").count("issued") == 5 * 3 * 4
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
    # every metric comes from the world alone
    metrics = {k: v for k, v in result.metrics.items() if k != "elapsed_seconds"}
    assert collect_metrics(result.world) == metrics


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


@pytest.mark.parametrize("seed", range(1, 6))
def test_benchmark_configs_construct(monkeypatch, seed):
    # a config the benchmark builds must pass the checks a file passes
    monkeypatch.syspath_prepend(str(SCENARIO_DIR.parent / "perfbench"))
    import workloads

    for workload in workloads.WORKLOADS:
        config = workloads.build(workload, seed)["config"]
        assert ScenarioConfig(**config).name == workload


def test_inject_components_are_what_a_world_registers():
    world = make_world(devices=3)
    assert set(world.bus._components) == {*COMPONENTS, "obe0", "obe1", "obe2"}


def test_shuffle_dispersion_structural_unlinkability():
    world = make_world(devices=10, periods=2, batch_size=10, seed=77)
    provision_all(world)
    assert shuffle_dispersion(world) > 0.99


def test_store_snapshot_roundtrip_after_run():
    """Every record a run leaves in a store stays inside the canonical
    value model: the stores' encoding decodes into a fresh registry that
    encodes to the same bytes."""
    result = run_scenario(_small_config())
    fingerprint = store_fingerprint(result.world.registry)
    restored = StoreRegistry()
    for owner, kinds in decode(fingerprint).items():
        ns = restored.create(owner)
        for kind, records in kinds.items():
            for record in records:
                ns.put(kind, record)
    assert store_fingerprint(restored) == fingerprint
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


@pytest.mark.parametrize("name", [
    "batch_size", "bsms_per_device_per_period", "listeners_per_bsm",
    "detector_threshold", "crl_capacity",
])
def test_negative_size_is_refused(name):
    with pytest.raises(ScmsError, match=f"{name} must not be negative"):
        ScenarioConfig(**{name: -1})
    assert getattr(ScenarioConfig(**{name: 0}), name) == 0


@pytest.mark.parametrize("overrides", [
    dict(mitm_devices=[0]), dict(mitm_devices=[1]), dict(batch_size=0),
], ids=["offender-mitm", "reporter-mitm", "batch-0"])
def test_misbehavior_without_a_certificate_is_refused(overrides):
    # a MITM device's packages are all quarantined, and batch size 0 issues
    # none, so the event could only abort the run midway
    event = {"period": 1, "action": "misbehavior", "offender": 0, "reporters": [1, 2]}
    with pytest.raises(ScmsError, match="no certificate"):
        _small_config(events=[event], **overrides)


@st.composite
def _scenario_fields(draw):
    """ScenarioConfig fields with events of every action but inject, drawn
    from the rows of EVENT, EVENTS and BALLOTS: a key that NAMED names takes
    a value of that domain, and one that names a row draws its keys too."""
    devices, periods = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    domains = {"period": range(periods), "device": range(devices),
               "elector": range(ELECTORS + 1),
               "action": sorted(set(EVENTS) - {"inject"}), "ballot kind": sorted(BALLOTS)}
    rows = {"action": EVENTS, "ballot kind": BALLOTS}

    def draw_keys(row, event):
        for key, kind in row.keys.items():
            one = (st.sampled_from(domains[NAMED[key]]) if key in NAMED
                   else st.integers(0, periods))
            event[key] = draw(st.lists(one, max_size=3) if kind == list[int] else one)
            if NAMED.get(key) in rows:
                draw_keys(rows[NAMED[key]][event[key]], event)
        return event

    return dict(
        devices=devices, periods=periods, batch_size=draw(st.integers(0, 2)),
        mitm_devices=draw(st.lists(st.sampled_from(range(devices)), max_size=1)),
        events=[draw_keys(EVENT, {}) for _ in range(draw(st.integers(1, 3)))],
    )


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_scenario_fields())
def test_a_scenario_that_constructs_runs_to_its_end(fields):
    try:
        config = ScenarioConfig(**fields)
    except ScmsError:
        return
    result = run_scenario(config)
    assert result.violations == []
    assert result.metrics["dead_letters"] == 0


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
    {"src": "pg", "dst": "obe0", "type": "b\ud800sm", "payload": {}},
], ids=["no-type", "int-type", "unknown-src", "unknown-dst", "float",
        "huge-int", "lone-surrogate-type"])
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


def _plant(world, holder: str, content) -> bytes | str:
    """A value of ``content`` for ``holder`` to hold. A certificate is one
    no component issued, so the type probe is what finds it; a handle is a
    real one; any other value is a real one inside a longer blob, so the
    sliding window is what finds it. An LA's foreign values are the other
    LA's, and the RA's pre-linkage value is LA1's."""
    other = {"la1": "la2"}.get(holder, "la1")
    chain = world.registry.audit_view(other).first("chain")
    la_id = {"la1": LA1_ID, "la2": LA2_ID}[other]
    plv = pre_linkage_values(la_id, chain["seed0"], 1)[0]
    value = {
        PSEUDONYM: _unissued_cert(CertType.OBE_PSEUDONYM, linkage_value=b"\x03" * 9),
        ENROLLMENT: _unissued_cert(CertType.OBE_ENROLLMENT),
        HANDLE: world.devices[0].handle_id,
        PLV: plv,
        FOREIGN_PLV: plv,
        FOREIGN_SEED: chain["seed0"],
        LV: world.registry.audit_view("pca").first("issued")["lv"],
    }[content]
    return value if content.width in (CERT, STR) else b"\xee" * 5 + value + b"\xee" * 5


@pytest.mark.parametrize("holder, content", [
    pytest.param(holder, content, id=f"{holder}-{content.label}")
    for holder, row in SEPARATION.items() for content in row
])
def test_audit_flags_planted_value(holder, content):
    world = make_world(devices=2, periods=1, batch_size=2)
    provision_all(world)
    assert run_audits(world) == []
    world.registry.audit_view(holder).put(
        "planted", {"blob": _plant(world, holder, content)})
    assert run_audits(world) == [f"{holder}:planted: {content.label}"]


def test_cert_type_probe_matches_full_decode():
    world = make_world(devices=2, periods=2, batch_size=2)
    provision_all(world)
    leaves = [leaf for ns in world.registry._namespaces.values()
              for _, leaf in _namespace_leaves(ns) if isinstance(leaf, bytes)]
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
