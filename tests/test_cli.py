"""CLI smoke tests driven through main()."""

import hashlib
import json
from pathlib import Path

import pytest

from scms import cli, harness
from scms.cli import main
from scms.errors import ScmsError

REPO = Path(__file__).resolve().parent.parent
# a small run with one inject event, whose keys go after the %
INJECT = ('{"devices": 2, "periods": 1, "batch_size": 1, "events": [{"period": 0,'
          ' "action": "inject", "type": "bsm", %s}]}')


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


def test_trace_file_hashes_to_the_printed_digest(tmp_path, capsys):
    trace_file = tmp_path / "trace.ndjson"
    rc = main(["run", str(REPO / "scenarios/garbage_drill.json"),
               "--trace", str(trace_file)])
    digest = json.loads(capsys.readouterr().out)["trace_digest"]
    assert rc == 0
    assert digest.startswith("5915f328b040aadb")  # ROADMAP's table
    assert hashlib.sha256(trace_file.read_bytes()).hexdigest() == digest


def test_run_refuses_an_unwritable_trace_path_before_the_run(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", None)
    with pytest.raises(SystemExit) as refused:
        main(["run", str(REPO / "scenarios/smoke.json"),
              "--trace", str(tmp_path / "no-such-dir" / "trace.ndjson")])
    assert refused.value.code == 2
    assert capsys.readouterr().err.startswith("error: cannot write trace")


def test_a_failed_run_leaves_an_earlier_trace_file_whole(tmp_path, monkeypatch):
    def fail(config):
        raise ScmsError("the run fails")

    trace_file = tmp_path / "trace.ndjson"
    trace_file.write_text("an earlier trace\n")
    monkeypatch.setattr(cli, "run_scenario", fail)
    with pytest.raises(ScmsError):
        main(["run", str(REPO / "scenarios/smoke.json"),
              "--trace", str(trace_file)])
    assert trace_file.read_text() == "an earlier trace\n"


def test_a_run_replaces_a_longer_trace_file(tmp_path, capsys):
    trace_file = tmp_path / "trace.ndjson"
    trace_file.write_text("x" * 1_000_000)
    assert main(["run", str(REPO / "scenarios/garbage_drill.json"),
                 "--trace", str(trace_file)]) == 0
    digest = json.loads(capsys.readouterr().out)["trace_digest"]
    assert hashlib.sha256(trace_file.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("text, reason", [
    pytest.param("{not json", "Expecting property name", id="not-json"),
    pytest.param("[1, 2]", "JSON object", id="not-an-object"),
    pytest.param('{"name": ' + "[" * 100_000 + "]" * 100_000 + "}", "recursion",
                 id="nested-too-deep"),
    pytest.param('{"devices": "ten"}', "'devices'", id="devices-str"),
    pytest.param('{"devices": true}', "'devices'", id="devices-bool"),
    pytest.param('{"devices": 2, "mitm_devices": [7]}', "mitm_devices",
                 id="mitm-outside-fleet"),
    pytest.param('{"events": "x"}', "'events'", id="events-str"),
    pytest.param('{"events": ["x"]}', "'events'", id="event-str"),
    pytest.param('{"periods": 0}', "one period", id="no-periods"),
    pytest.param('{"periods": 2, "events": [{"period": 2, "action": "topoff"}]}',
                 "no period 2", id="event-after-last-period"),
    pytest.param('{"events": [{"action": "topoff"}]}', "'period'",
                 id="event-without-period"),
    pytest.param('{"events": [{"period": 0, "action": 1}]}', "'action'",
                 id="action-int"),
    pytest.param('{"devices": 2, "events": [{"period": 0, "action": "misbehavior",'
                 ' "offender": 9, "reporters": [1]}]}', "no device 9",
                 id="offender-outside-fleet"),
    pytest.param('{"devices": 2, "events": [{"period": 0, "action": "topoff",'
                 ' "start": 1, "n_periods": 1}]}', "'device'",
                 id="topoff-without-device"),
    pytest.param('{"devices": 2, "mitm_devices": [0], "events": [{"period": 0,'
                 ' "action": "misbehavior", "offender": 0, "reporters": [1]}]}',
                 "offender has no certificate", id="offender-certless"),
    pytest.param('{"devices": 2, "events": [{"period": 0, "action": "ballot",'
                 ' "kind": "endorse-root", "voters": [7]}]}', "elector",
                 id="voter-not-present"),
    pytest.param('{"devices": 2, "events": [{"period": 0, "action": "ballot",'
                 ' "kind": "nope", "voters": [1]}]}', "ballot kind",
                 id="ballot-kind-unknown"),
    pytest.param('{"devices": 2, "events": [{"period": 0, "action": "dance"}]}',
                 "no action 'dance'", id="action-unknown"),
    pytest.param(INJECT % '"src": "pg", "dst": "nobody", "payload": {}',
                 "no component 'nobody'", id="inject-dst-unknown"),
    pytest.param(INJECT % '"src": "pg", "dst": "obe0", "payload": {"bsm": 1.5}',
                 "not a wire value", id="inject-float"),
    pytest.param(INJECT % '"src": "pg", "dst": "obe0",'
                 ' "payload": {"bsm": {"$bytes": "zz"}}',
                 "not a wire value", id="inject-bad-hex"),
    pytest.param(INJECT % '"src": "obe0", "dst": "ra", "payload": {}',
                 "around the LOP", id="inject-around-proxy"),
    pytest.param(INJECT.replace('"bsm"', '"b\\ud800sm"')
                 % '"src": "pg", "dst": "obe0", "payload": {}',
                 "type is not UTF-8 text", id="inject-lone-surrogate-type"),
])
def test_run_malformed_scenario(tmp_path, capsys, monkeypatch, text, reason):
    # refused on load with exit 2, before a world is built
    monkeypatch.setattr(harness, "World", None)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(SystemExit) as refused:
        main(["run", str(bad)])
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert "cannot load scenario" in err and reason in err


@pytest.mark.parametrize("argv, reason", [
    (["provision", "--periods", "0"], "one period"),
    (["revoke", "--periods", "0"], "one period"),
    (["bootstrap", "--devices", "0"], "one device"),
    (["provision", "--devices", "-1"], "one device"),
    (["provision", "--batch-size", "-1"], "batch_size must not be negative"),
    (["revoke", "--devices", "2"], "at least 4 devices"),
])
def test_demo_refuses_bad_scale(capsys, argv, reason):
    # the demos build their scenario through the same checks as a file
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2
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
