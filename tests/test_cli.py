"""CLI smoke tests driven through main()."""

import json
from pathlib import Path

import pytest

from scms.cli import main

REPO = Path(__file__).resolve().parent.parent


def test_vectors_check_passes(capsys):
    rc = main(["vectors", "check", "--path", str(REPO / "vectors/golden.txt")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "17/17 vectors match" in out


def test_vectors_generate_reproduces_committed_file(tmp_path, capsys):
    out_path = tmp_path / "regen.txt"
    rc = main([
        "vectors", "generate", "--path", str(out_path),
        "--script", str(REPO / "scripts/make_vectors.py"),
    ])
    assert rc == 0
    assert out_path.read_text() == (REPO / "vectors/golden.txt").read_text()


def test_ballot_demo(capsys):
    rc = main(["ballot", "--electors", "3", "--votes", "2"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["accepted"] is True
    rc = main(["ballot", "--electors", "3", "--votes", "1"])
    data = json.loads(capsys.readouterr().out)
    assert data["accepted"] is False


def test_bootstrap_demo(capsys):
    rc = main(["bootstrap", "--devices", "2"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["devices_bootstrapped"] == 2
    assert data["trusted_roots"] == 1


def test_provision_demo(capsys):
    rc = main(["provision", "--devices", "2", "--periods", "2",
               "--batch-size", "3"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["certs_issued"] == 12


def test_run_scenario_and_trace(tmp_path, capsys):
    trace_file = tmp_path / "trace.ndjson"
    rc = main(["run", str(REPO / "scenarios/elector_drill.json"),
               "--trace", str(trace_file)])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["violations"] == []
    assert len(data["trace_digest"]) == 64
    assert trace_file.exists()
    first = json.loads(trace_file.read_text().splitlines()[0])
    assert first["kind"] == "deliver"


@pytest.mark.parametrize("text, reason", [
    pytest.param("{not json", "Expecting property name", id="not-json"),
    pytest.param("[1, 2]", "JSON object", id="not-an-object"),
    pytest.param('{"devices": "ten"}', "'devices'", id="devices-str"),
    pytest.param('{"devices": true}', "'devices'", id="devices-bool"),
    pytest.param('{"devices": 2, "mitm_devices": [7]}', "mitm_devices",
                 id="mitm-outside-fleet"),
    pytest.param('{"events": "x"}', "'events'", id="events-str"),
    pytest.param('{"events": ["x"]}', "'events'", id="event-str"),
    pytest.param('{"periods": 0}', "one period", id="no-periods"),
    pytest.param('{"periods": 2, "events": [{"period": 2, "action": "topoff"}]}',
                 "outside the run", id="event-after-last-period"),
    pytest.param('{"events": [{"action": "topoff"}]}', "'period'",
                 id="event-without-period"),
    pytest.param('{"events": [{"period": 0, "action": 1}]}', "'action'",
                 id="action-int"),
])
def test_run_malformed_scenario(tmp_path, capsys, text, reason):
    # refused on load with exit 2, before a world is built
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc = main(["run", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot load scenario" in err and reason in err


def test_crl_inspect_revocation_demo(tmp_path, capsys):
    from scms.harness import ScenarioConfig, run_scenario

    config = ScenarioConfig(
        name="two-revocations", seed=21, devices=6, periods=3, batch_size=3,
        bsms_per_device_per_period=0,
        events=[
            {"period": 1, "action": "misbehavior", "offender": 0,
             "reporters": [2, 3, 4]},
            {"period": 1, "action": "misbehavior", "offender": 1,
             "reporters": [2, 3, 4]},
        ],
    )
    result = run_scenario(config)
    composite = tmp_path / "crls.bin"
    composite.write_bytes(result.world.crl_store.composite())
    rc = main(["crl", "inspect", str(composite)])
    out = capsys.readouterr().out
    assert rc == 0
    # two devices under one la_id-pair group header
    assert "devices=2" in out
    assert out.count("ls1=") == 2


def test_crl_inspect_garbage(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00" * 40)
    rc = main(["crl", "inspect", str(path)])
    assert rc == 1
