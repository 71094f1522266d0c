"""Acceptance suite: one test per acceptance criterion, each at its
stated tolerance, printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The committed scenarios are each executed twice (cached per session), once
in this process and once by ``scms run`` in a fresh interpreter, so the
determinism criterion covers every one of them.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from scms import bus
from scms.butterfly import (
    CaterpillarRequest,
    TimeIndex,
    butterfly_finalize,
    cocoon_expand,
    reconstruct_private,
)
from scms.certmodel import (
    Certificate,
    CrlSet,
    SignedMessage,
    crl_check,
    sign_message,
    verify_message,
)
from scms.crypto import DeterministicRandom, KeyPair, mul_g
from scms.harness import ScenarioConfig, run_scenario
from scms.linkage import LinkageSeed, evolve_seed, linkage_value, pre_linkage_values
from scms import vectors as vectors_mod
from tests.conftest import issued_certificates

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"

LA1 = (1).to_bytes(4, "big")
LA2 = (2).to_bytes(4, "big")


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {title}")
        raise
    print(f"criterion {number}: PASS - {title}")


def fresh_python(*args: str, **env: str) -> str:
    """stdout of ``python args`` in a fresh interpreter that imports this
    checkout's package."""
    pythonpath = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": pythonpath, **env},
    ).stdout


def scms_run(path: Path) -> dict:
    """``scms run`` of one scenario in a fresh interpreter, under a hash
    seed other than this process's, with a cold kernel pool and cold
    caches; returns its JSON output."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    return json.loads(fresh_python("-m", "scms.cli", "run", str(path),
                                   PYTHONHASHSEED=seed))


@pytest.fixture(scope="session")
def scenario_runs():
    """Each committed scenario executed twice under its own seed: here,
    and by ``scms run`` in a fresh interpreter."""
    runs = {}
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        config = ScenarioConfig.from_json(path.read_text())
        runs[config.name] = (run_scenario(config), scms_run(path))
    return runs


@pytest.fixture(scope="session")
def baseline(scenario_runs):
    return scenario_runs["baseline"][0]


def test_criterion_1_butterfly_identity_1000_sessions():
    with criterion(1, "butterfly identity over 1000 sessions in < 10 s"):
        started = time.perf_counter()
        rng = DeterministicRandom(1001, "acceptance-butterfly")
        sign_kp = KeyPair.generate(rng)
        enc_kp = KeyPair.generate(rng)
        request = CaterpillarRequest(
            signing_seed=sign_kp.public,
            signing_key=rng.randbytes(16),
            encryption_seed=enc_kp.public,
            encryption_key=rng.randbytes(16),
        )
        for n in range(1000):
            index = TimeIndex(n // 20, n % 20)
            (cocoon,) = cocoon_expand(request, [index])
            cert_key, recon = butterfly_finalize(cocoon.signing, rng.scalar())
            b_prime = reconstruct_private(
                sign_kp.private, request.signing_key, index, recon
            )
            assert mul_g(b_prime) == cert_key  # exact equality
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_golden_vectors(tmp_path):
    with criterion(2, "golden vectors match the committed oracle output"):
        results = vectors_mod.check(REPO / "vectors/golden.txt")
        assert results, "vector file is empty"
        mismatched = [name for name, ok in results if not ok]
        assert mismatched == []
        covered = {entry[0] for entry in
                   vectors_mod.parse_vector_file(REPO / "vectors/golden.txt")}
        assert {"expand_f", "evolve_seed", "plv", "lv"} <= covered
        # regenerable: the committed oracle script reproduces the file
        regen = tmp_path / "golden.txt"
        vectors_mod.generate(regen, REPO / "scripts/make_vectors.py")
        assert regen.read_text() == (REPO / "vectors/golden.txt").read_text()


def test_criterion_3_revocation_completeness_and_backward_privacy(baseline):
    with criterion(3, "revocation flags exactly the 140 forward certificates"):
        world = baseline.world
        offender = world.devices[0].handle_id
        crl_set = CrlSet()
        for crl in world.crl_store.crls.all_crls():
            crl_set.add(crl)
        issued = issued_certificates(world)
        assert len(issued) == 100 * 20 * 10

        flagged = {
            (row["handle"], row["i"], row["j"])
            for row in issued
            if crl_check(Certificate.decode(row["cert"]), crl_set)
        }
        expected = {
            (offender, i, j) for i in range(3, 10) for j in range(20)
        }
        assert flagged == expected
        assert len(flagged) == 140
        # none of the 40 week-1..2 certificates are identifiable
        early = [
            row for row in issued
            if row["handle"] == offender and row["i"] in (1, 2)
        ]
        assert len(early) == 40
        assert all(
            not crl_check(Certificate.decode(row["cert"]), crl_set)
            for row in early
        )


def test_criterion_4_crl_size_10k_entries(pki):
    with criterion(4, "10,000-entry CRL fits in 400 KB (<= 40 B amortized)"):
        from scms.certmodel import Crl, LinkageRevocation, sign_crl

        rng = DeterministicRandom(1004, "crl-size")
        crl = Crl(
            series=1,
            craca_id=pki.root_cert.cert_id(),
            issue_period=3,
            sequence=1,
            crlg_cert_id=b"\x00" * 8,
            linkage_entries=[
                LinkageRevocation(
                    i=3, ls1=rng.randbytes(16), ls2=rng.randbytes(16),
                    la_id1=LA1, la_id2=LA2, j_max=20,
                )
                for _ in range(10_000)
            ],
        )
        crl = sign_crl(crl, pki.crlg_key.private, pki.crlg_cert)
        raw = crl.encode()
        assert len(raw) <= 400 * 1024
        assert len(raw) / 10_000 <= 40


def test_criterion_5_collision_rate_scaled():
    with criterion(5, "24-bit linkage collision count within 2x of birthday"):
        rng = DeterministicRandom(42, "collision-criterion")
        chains = [(LinkageSeed(rng.randbytes(16), 0),
                   LinkageSeed(rng.randbytes(16), 0)) for _ in range(1024)]
        periods = 200
        observed = 0
        for _ in range(periods):
            buckets: dict[bytes, int] = {}
            for s1, s2 in chains:
                lv = linkage_value(
                    pre_linkage_values(LA1, s1.value, 1)[0],
                    pre_linkage_values(LA2, s2.value, 1)[0],
                )
                short = lv[:3]  # 24-bit truncation
                buckets[short] = buckets.get(short, 0) + 1
            for count in buckets.values():
                observed += count * (count - 1) // 2
            chains = [
                (evolve_seed(LA1, s1), evolve_seed(LA2, s2))
                for s1, s2 in chains
            ]
        expected = periods * (1024 * 1023 / 2) * 2**-24
        assert expected / 2 <= observed <= expected * 2, (
            f"observed {observed}, expected {expected:.2f}"
        )


def test_criterion_6_organizational_separation(baseline):
    with criterion(6, "store audit finds zero separation violations"):
        separation = [
            v for v in baseline.violations
            if v.startswith(("ra:", "pca:", "la1:", "la2:", "ma:"))
        ]
        assert separation == []
        # and nothing else went wrong either
        assert baseline.violations == []


def test_criterion_7_misbinding_substitutions_all_fail(pki):
    with criterion(7, "100% of cross-certificate substitutions fail"):
        rng = DeterministicRandom(1007, "misbinding")
        from tests.test_certmodel import _lv_for, _pseudonym

        attempts = 0
        detected = 0
        for n in range(50):
            key = KeyPair.generate(rng)
            cert_a = _pseudonym(pki, key, _lv_for(rng))
            cert_b = _pseudonym(pki, key, _lv_for(rng))
            msg = sign_message(key.private, cert_a, b"payload %d" % n)
            assert verify_message(msg, cert_a)
            forged = SignedMessage(
                payload=msg.payload,
                cert_id=cert_b.cert_id(),
                signature=msg.signature,
                cert_bytes=cert_b.encode(),
            )
            attempts += 1
            if not verify_message(forged, cert_b):
                detected += 1
        assert detected == attempts == 50


def test_criterion_8_elector_suite(pki):
    with criterion(8, "elector quorum rows (3 electors, quorum 2)"):
        from scms.rootmgmt import (
            ENDORSE_ELECTOR,
            ENDORSE_ROOT,
            REVOKE_ELECTOR,
            TrustState,
            build_ballot,
            make_elector,
        )

        rng = DeterministicRandom(1008, "electors")
        electors = [make_elector(rng) for _ in range(3)]
        trust = TrustState([cert for _, cert in electors])
        assert trust.quorum == 2

        # 2 valid votes accepted
        accepted = trust.process_ballot(
            build_ballot(ENDORSE_ROOT, pki.root_cert, electors[:2])
        )
        assert len(accepted) == 1
        # 1 vote rejected
        other = make_elector(rng)
        assert trust.process_ballot(
            build_ballot(ENDORSE_ELECTOR, other[1], electors[:1])
        ) == []
        # revoked elector's votes void
        trust.process_ballot(
            build_ballot(REVOKE_ELECTOR, electors[0][1], electors[1:])
        )
        assert trust.process_ballot(
            build_ballot(ENDORSE_ELECTOR, other[1],
                         [electors[0], electors[1]])
        ) == []
        # quorum-added replacement: subsequent endorsement by the new set
        replacement = make_elector(rng)
        trust.process_ballot(
            build_ballot(ENDORSE_ELECTOR, replacement[1], electors[1:])
        )
        assert trust.valid_elector_count() == 3
        from tests.conftest import build_mini_pki

        new_root = build_mini_pki(seed=1080).root_cert
        accepted = trust.process_ballot(
            build_ballot(ENDORSE_ROOT, new_root, [electors[2], replacement])
        )
        assert len(accepted) == 1
        assert trust.root_trusted(new_root.cert_id())


def test_criterion_9_end_to_end_determinism(scenario_runs):
    with criterion(9, "identical trace digests for every committed scenario"):
        assert len(scenario_runs) >= 5
        for name, (first, second) in sorted(scenario_runs.items()):
            assert first.trace_digest == second["trace_digest"], name
            assert first.metrics["bus_messages"] == second["metrics"][
                "bus_messages"
            ], name


# first 16 hex of each committed scenario's trace digest (the reference
# table in ROADMAP.md); a change that alters one on purpose updates both
REFERENCE_DIGESTS = {
    "baseline": "4cb7f50085280fb7",
    "smoke": "84e0708ce4590201",
    "revocation_demo": "fd6dbf1d1ff0a145",
    "mitm_drill": "fdba63c8420edca1",
    "elector_drill": "6d1598cf90c2aa9f",
    "garbage_drill": "5915f328b040aadb",
}


def test_scenario_digests_match_reference_table(scenario_runs):
    digests = {
        name: first.trace_digest[:16]
        for name, (first, _) in scenario_runs.items()
    }
    assert digests == REFERENCE_DIGESTS


@pytest.mark.parametrize("name", ["mitm_drill", "revocation_demo"])
def test_serial_kernels_give_the_reference_digest(name, monkeypatch):
    # one CPU, no pool worker, every kernel inline: the trace the pool gives
    monkeypatch.setattr(bus, "POOL_WORKERS", 0)
    config = ScenarioConfig.from_json((SCENARIO_DIR / f"{name}.json").read_text())
    assert run_scenario(config).trace_digest[:16] == REFERENCE_DIGESTS[name]


def test_a_process_with_threads_spawns_the_same_trace():
    # a thread of the host program's own: the pool spawns its workers
    script = (
        "import json, multiprocessing, sys, threading\n"
        "threading.Thread(target=threading.Event().wait, daemon=True).start()\n"
        "from scms import bus\n"
        "from scms.harness import ScenarioConfig, run_scenario\n"
        "bus.POOL_WORKERS = 1\n"
        "config = ScenarioConfig.from_json(open(sys.argv[1]).read())\n"
        "digest = run_scenario(config).trace_digest\n"
        "(worker,) = multiprocessing.active_children()\n"
        "print(json.dumps([digest, worker.name]))\n"
    )
    digest, worker = json.loads(
        fresh_python("-c", script, str(SCENARIO_DIR / "mitm_drill.json")))
    assert digest[:16] == REFERENCE_DIGESTS["mitm_drill"]
    assert worker.startswith("SpawnProcess")


def test_a_worker_killed_during_provisioning_changes_no_trace():
    # its slices are computed in the bus process; the next run in the same
    # process gets a new worker and the same trace
    script = (
        "import json, multiprocessing, os, signal, sys\n"
        "from scms import bus\n"
        "from scms.device import Device\n"
        "from scms.harness import ScenarioConfig, run_scenario\n"
        "bus.POOL_WORKERS = 1\n"
        "install, killed = Device._install, []\n"
        "def kill_then_install(self, *args):\n"
        "    if not killed:\n"
        "        killed.extend(p.pid for p in multiprocessing.active_children())\n"
        "        for pid in killed:\n"
        "            os.kill(pid, signal.SIGKILL)\n"
        "    install(self, *args)\n"
        "Device._install = kill_then_install\n"
        "config = ScenarioConfig.from_json(open(sys.argv[1]).read())\n"
        "runs = [run_scenario(config) for _ in range(2)]\n"
        "print(json.dumps({\n"
        "    'killed': len(killed),\n"
        "    'digests': [run.trace_digest[:16] for run in runs],\n"
        "    'faults': [[len(run.violations), run.metrics['dead_letters']]\n"
        "               for run in runs],\n"
        "    'workers': len(multiprocessing.active_children()),\n"
        "}))\n"
    )
    out = json.loads(
        fresh_python("-c", script, str(SCENARIO_DIR / "mitm_drill.json")))
    assert out == {
        "killed": 1, "digests": [REFERENCE_DIGESTS["mitm_drill"]] * 2,
        "faults": [[0, 0], [0, 0]], "workers": 1,
    }


def test_garbage_drill_dead_letters_without_violations(scenario_runs):
    # malformed envelopes are refused one by one; the run and its audits
    # stay whole
    result = scenario_runs["garbage_drill"][0]
    assert result.violations == []
    assert result.metrics["dead_letters"] == 9
    assert all(r.metrics["dead_letters"] == 0
               for name, (r, _) in scenario_runs.items()
               if name != "garbage_drill")


def test_proxy_keeps_no_session_after_a_scenario(scenario_runs):
    # every flow replies once per reference, and the reply spends it
    assert {
        name: len(first.world.lop._sessions)
        for name, (first, _) in scenario_runs.items()
    } == {name: 0 for name in scenario_runs}


def test_criterion_10_mitm_detection(scenario_runs):
    with criterion(10, "100% of response-key substitutions detected"):
        result = scenario_runs["mitm_drill"][0]
        injected = result.metrics["mitm_injected"]
        assert injected > 0
        assert result.metrics["mitm_detected"] == injected
        assert result.violations == []


def test_criterion_11_desk_scale_performance(baseline):
    with criterion(11, "baseline scenario completes in under 60 s"):
        elapsed = baseline.metrics["elapsed_seconds"]
        assert baseline.metrics["certs_issued"] == 20_000
        assert elapsed < 60.0, f"baseline took {elapsed:.1f} s"


def test_smoke_scenario_pipeline_arithmetic(scenario_runs):
    # 100 devices x 20 certs/week x 4 weeks -> 8000 issued, no violations
    result = scenario_runs["smoke"][0]
    assert result.metrics["certs_issued"] == 8000
    assert result.violations == []
