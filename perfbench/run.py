"""SCMS benchmark: drives the unmodified `scms.harness.run_scenario`.

    python3 perfbench/run.py --workload provision --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds `src/scms`. Every measurement
is a fresh interpreter (`child.py`) fed a `ScenarioConfig` that
`workloads.py` builds from the seed. The load is closed-loop: one load
generator, one scenario process at a time, no threads.

`--trace 0` repeats untraced scenario runs, each followed by set-up-only
runs, while they fit in `--seconds`, and reports the medians of the
end-to-end metrics. `--trace 1` makes one untraced and two traced runs of
the seed and reports the per-layer metrics. Both check the program's
outputs (see README.md) and exit 1 if a check fails. The last line of
stdout is the JSON result; the full record goes to
`.bench_out/<workload>-seed<seed>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".bench_out"

E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "certs_per_s": "1/s",
    "msgs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Zero on some workloads by design, so they are printed, not gated.
E2E_INFO = {
    "bsms_per_s": "1/s",
    "fail_ratio": "ratio",
    "revocation_lag_periods": "periods",
}

SETUPS_PER_RUN = 2

# Span metric fields. A span that is never called on some workload gets
# `share` (its total time / the traced run's wall_s) instead of a time, so
# that no time metric reads 0 by construction.
SPAN_FIELDS = {"calls": "count", "self_s": "s", "total_s": "s",
               "p50_us": "us", "p99_us": "us", "share": "ratio",
               "p99_over_p50": "ratio"}

# BSM reject reason -> reported group
REJECT_GROUPS = {
    "revoked": "revoked",
    "untrusted-chain": "untrusted-chain",
    "bad-signature": "bad-signature",
    "expired-period": "expired-period",
    "malformed": "malformed",
    "malformed-certificate": "malformed",
    "missing-certificate": "malformed",
}


def _layer_metrics() -> dict[str, str]:
    """Per-layer metric name -> unit, in report order."""
    metrics: dict[str, str] = {}

    def span(name: str, *fields: str) -> None:
        for f in fields:
            metrics[f"{name}.{f}"] = SPAN_FIELDS[f]

    span("crypto.scalar_mult", "calls")
    for fn in ("mul_g", "point_add", "point_decode", "sign", "verify",
               "hybrid_encrypt", "hybrid_decrypt", "prf_blocks"):
        span(f"crypto.{fn}", "calls", "self_s")
    for fn in ("cocoon_expand", "butterfly_finalize", "reconstruct_private",
               "cocoon_private"):
        span(f"butterfly.{fn}", "calls", "total_s")
    for fn in ("seed_at", "pre_linkage_values"):
        span(f"linkage.{fn}", "calls", "total_s")
    span("linkage.expand_revocation_entry", "calls", "share")
    for fn in ("Certificate.decode", "Certificate.tbs_bytes",
               "Certificate.cert_id", "SignedMessage.decode", "sign_message",
               "verify_message", "verify_chain", "crl_check",
               "decode_composite"):
        span(f"certmodel.{fn}", "calls", "total_s")
    span("certmodel.check_crl_signature", "calls", "share")
    span("encoding.encode", "calls", "self_s")
    span("encoding.decode", "calls", "self_s")
    for fn in ("put", "scan", "first", "where"):
        span(f"persistence.Namespace.{fn}", "calls", "total_s")
    span("bus.Trace.record", "calls", "self_s")
    span("bus.MessageBus.send", "calls", "self_s")
    metrics["bus.queue_max"] = "count"
    span("authorities.pca.cert.request",
         "calls", "self_s", "total_s", "p50_us", "p99_us")
    for handler in ("ra.provision.request", "ra.chain.plvs",
                    "ra.cert.response", "ra.batch.request", "la.chain.open",
                    "crlstore.crl.fetch"):
        span(f"authorities.{handler}", "calls", "total_s")
    for handler in ("ra.mb.report", "lop.fwd", "crlstore.crl.publish"):
        span(f"authorities.{handler}", "calls")
    metrics["authorities.denials"] = "count"
    span("misbehavior.ma.mb.batch", "calls", "share")
    span("misbehavior.ma.ma.lci2seed.resp", "calls", "share")
    span("misbehavior.ma.ma.blacklist.resp", "calls")
    span("misbehavior.Ma.publish_crl", "calls", "share")
    span("device.batch.response", "calls", "total_s", "p50_us", "p99_us")
    span("device.bsm", "calls", "share")
    span("device.crl.composite", "calls", "total_s")
    span("device.validate_bsm", "calls", "share", "p99_over_p50")
    span("device.DeviceCrlStore.revoked_lvs", "calls", "share")
    metrics["device.chain_miss_ratio"] = "ratio"
    for group in dict.fromkeys(REJECT_GROUPS.values()):
        metrics[f"device.rejects.{group}"] = "count"
    metrics["device.quarantined"] = "count"
    span("rootmgmt.TrustState.process_ballot", "calls")
    span("harness.run_audits", "total_s")
    metrics["harness.cpu_s"] = "s"
    metrics["harness.trace_overhead_s"] = "s"
    metrics["harness.trace_rss_mb"] = "MB"
    for name, unit in E2E_INFO.items():
        metrics[f"harness.{name}"] = unit
    return metrics


LAYER = _layer_metrics()

# Which layer metric each workload must exercise, and which it must not
# touch (README.md, "Interactions").
_NEVER = ["rootmgmt.TrustState.process_ballot.calls"]
_NO_REVOCATION = _NEVER + [
    "linkage.expand_revocation_entry.calls",
    "device.DeviceCrlStore.revoked_lvs.calls",
    "misbehavior.ma.mb.batch.calls",
    "misbehavior.Ma.publish_crl.calls",
    "device.rejects.revoked",
]
_ALWAYS = ["encoding.encode.calls", "bus.Trace.record.calls", "bus.queue_max",
           "persistence.Namespace.put.calls", "harness.run_audits.total_s"]
SELF_TEST = {
    "provision": {
        "nonzero": _ALWAYS + [
            "crypto.point_decode.calls", "crypto.mul_g.calls",
            "crypto.hybrid_encrypt.calls", "crypto.hybrid_decrypt.calls",
            "crypto.point_add.calls", "butterfly.cocoon_expand.calls",
            "authorities.pca.cert.request.calls",
            "device.batch.response.calls", "persistence.Namespace.first.calls",
        ],
        "zero": _NO_REVOCATION + ["device.validate_bsm.calls"],
    },
    "v2x_traffic": {
        "nonzero": _ALWAYS + [
            "crypto.verify.calls", "device.chain_miss_ratio",
            "certmodel.Certificate.tbs_bytes.calls",
            "device.validate_bsm.p99_over_p50", "harness.bsms_per_s",
        ],
        "zero": _NO_REVOCATION,
    },
    "fleet_revocation": {
        "nonzero": _ALWAYS + [
            "linkage.expand_revocation_entry.calls", "certmodel.crl_check.calls",
            "device.DeviceCrlStore.revoked_lvs.calls",
            "misbehavior.ma.mb.batch.calls", "misbehavior.Ma.publish_crl.calls",
            "misbehavior.ma.ma.lci2seed.resp.calls", "device.rejects.revoked",
        ],
        "zero": _NEVER,
    },
}


# --- children ---

def run_child(root: str, mode: str, config: dict) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CHILD, root, repr(t0), mode, json.dumps(config)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} child failed with exit code {proc.returncode}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["elapsed_s"] = time.monotonic() - t0
    return sample


def check(sample: dict, spec: dict) -> tuple[int, int, list[str]]:
    """(attempts, failures, gate errors) of one scenario run."""
    expected, events = spec["expected"], spec["config"].get("events", [])
    rejects = sample["rejects"]
    failures = (
        sum(n for reason, n in rejects.items() if reason != "revoked")
        + max(0, expected["certs_installed"] - sample["certs_installed"])
        + max(0, len(events) - len(sample["revocation_lags"]))
        + len(sample["violations"])
    )
    attempts = expected["certs_installed"] + sample["bsms_validated"] + len(events)
    errors = [f"audit: {v}" for v in sample["violations"]]
    for key in ("certs_installed", "bsms_validated", "revocations"):
        if sample[key] != expected[key]:
            errors.append(f"{key}: {sample[key]} != expected {expected[key]}")
    if sample["certs_issued"] != expected["certs_installed"]:
        errors.append(f"certs_issued: {sample['certs_issued']} != expected "
                      f"{expected['certs_installed']}")
    return attempts, failures, errors


def scenario_metrics(sample: dict, attempts: int, failures: int) -> dict:
    wall = sample["wall_s"]
    return {
        "setup_s": sample["setup_s"],
        "wall_s": wall,
        "certs_per_s": sample["certs_installed"] / wall,
        "msgs_per_s": sample["bus_messages"] / wall,
        "peak_rss_mb": sample["peak_rss_mb"],
        "bsms_per_s": sample["bsms_validated"] / wall,
        "fail_ratio": failures / attempts,
        "revocation_lag_periods": max(sample["revocation_lags"], default=0),
    }


# --- the two kinds of run ---

def untraced_run(root: str, spec: dict, seconds: float) -> dict:
    """Scenario runs while the next still fits in `seconds`, each followed
    by set-up-only runs, so both sample the same stretch of time."""
    started = time.monotonic()
    runs, setups = [], []
    longest = 0.0
    while True:
        begun = time.monotonic()
        runs.append(run_child(root, "run", spec["config"]))
        setups += [run_child(root, "setup", spec["config"])
                   for _ in range(SETUPS_PER_RUN)]
        now = time.monotonic()
        longest = max(longest, now - begun)
        if now - started + longest > seconds:
            break
    attempts = failures = 0
    errors: list[str] = []
    per_run = []
    for sample in runs:
        a, f, e = check(sample, spec)
        attempts, failures = attempts + a, failures + f
        errors += e
        per_run.append(scenario_metrics(sample, a, f))
    if len({r["digest"] for r in runs}) != 1:
        errors.append("trace digests differ between runs of one seed")
    metrics = {name: statistics.median(m[name] for m in per_run)
               for name in list(E2E) + list(E2E_INFO)}
    metrics["setup_s"] = statistics.median(
        [s["setup_s"] for s in runs + setups])
    return {
        "metrics": metrics, "attempted": attempts, "failed": failures,
        "errors": errors, "samples": runs, "setup_samples": setups,
        "digest": runs[0]["digest"], "versions": runs[0]["versions"],
        "runs": len(runs),
    }


def layer_values(trace: dict, sample: dict) -> dict:
    stats = trace["stats"]
    values = {}
    for name in LAYER:
        span, _, field = name.rpartition(".")
        if field not in SPAN_FIELDS:
            continue
        entry = stats.get(span)
        if not entry or not entry["calls"]:
            values[name] = 0  # never called on this workload
        elif field == "share":
            values[name] = entry["total_s"] / sample["wall_s"]
        elif field == "p99_over_p50":
            values[name] = entry["p99_us"] / entry["p50_us"]
        else:
            values[name] = entry[field]
    values["bus.queue_max"] = trace["queue_max"]
    values["authorities.denials"] = trace["denials"]
    validated = stats.get("device.validate_bsm", {}).get("calls", 0)
    misses = trace["children"].get(
        "device.validate_bsm>certmodel.verify_chain", 0)
    values["device.chain_miss_ratio"] = misses / validated if validated else 0
    for group in REJECT_GROUPS.values():
        values[f"device.rejects.{group}"] = 0
    for reason, n in sample["rejects"].items():
        values[f"device.rejects.{REJECT_GROUPS[reason]}"] += n
    values["device.quarantined"] = sample["quarantined"]
    return values


def traced_run(root: str, spec: dict) -> dict:
    base = untraced_run(root, spec, seconds=0)
    traced = [run_child(root, "traced", spec["config"]) for _ in range(2)]
    errors = list(base["errors"])
    attempts, failures = base["attempted"], base["failed"]
    per_run = []
    for sample in traced:
        a, f, e = check(sample, spec)
        attempts, failures = attempts + a, failures + f
        errors += e
        if sample["digest"] != base["digest"]:
            errors.append("traced trace digest differs from untraced")
        per_run.append(layer_values(sample["trace"], sample))
    counts = [({k: v["calls"] for k, v in s["trace"]["stats"].items()},
               s["trace"]["queue_max"], s["trace"]["denials"]) for s in traced]
    if counts[0] != counts[1]:
        errors.append("call counts differ between two traced runs of one seed")
    metrics = {name: statistics.median(run[name] for run in per_run)
               for name in per_run[0]}
    untraced = base["samples"][0]
    metrics["harness.cpu_s"] = untraced["cpu_s"]
    metrics["harness.trace_overhead_s"] = (
        statistics.median(s["wall_s"] for s in traced) - untraced["wall_s"])
    metrics["harness.trace_rss_mb"] = (
        statistics.median(s["peak_rss_mb"] for s in traced)
        - untraced["peak_rss_mb"])
    for name in E2E_INFO:
        metrics[f"harness.{name}"] = base["metrics"][name]
    errors += self_test(spec["config"]["name"], metrics)
    return {
        "metrics": metrics, "attempted": attempts, "failed": failures,
        "errors": errors, "untraced": base, "traced_samples": traced,
        "digest": base["digest"], "versions": base["versions"],
        "spans": traced[0]["trace"]["spans"],
        "runs": base["runs"] + len(traced),
        "setup_samples": base["setup_samples"],
    }


def self_test(workload: str, metrics: dict) -> list[str]:
    expect = SELF_TEST[workload]
    errors = [f"self-test: {name} is 0 on {workload}"
              for name in expect["nonzero"] if not metrics[name]]
    errors += [f"self-test: {name} is {metrics[name]} on {workload}, not 0"
               for name in expect["zero"] if metrics[name]]
    return errors


# --- metadata and output ---

def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_rev(root: str) -> str | None:
    """HEAD of the checkout, if the checkout itself is a git repository."""
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "digests.json")) as fh:
        recorded = json.load(fh)
    if seed != recorded["seed"]:
        return None
    return recorded["digests"].get(workload)


def check_declared(root: str) -> None:
    """The metric names here must be the ones BENCHMARK.json declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for key, ours in (("end_to_end", E2E), ("per_layer", LAYER)):
        theirs = {m["name"]: m["unit"] for m in declared[key]}
        if theirs != ours:
            raise SystemExit(f"BENCHMARK.json {key} differs from run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "scms", "harness.py")):
        print(f"no src/scms/harness.py under {root}; run from a checkout",
              file=sys.stderr)
        return 2
    check_declared(root)
    load = os.getloadavg()
    spec = workloads.build(args.workload, args.seed)
    if args.trace:
        result = traced_run(root, spec)
        units = LAYER
    else:
        result = untraced_run(root, spec, args.seconds)
        units = E2E

    recorded = recorded_digest(args.workload, args.seed)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_rev": git_rev(root),
        "source_sha256": source_digest(root),
        **result["versions"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load,
        "scenario_runs": result["runs"],
        "setup_samples": len(result["setup_samples"]),
        "spans": result.get("spans"),
        "trace_digest": result["digest"],
        "digest_matches_recorded": (None if recorded is None
                                    else recorded == result["digest"]),
        "errors": result["errors"],
    }
    correct = not result["errors"] and result["failed"] == 0
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"meta": meta, **result}, fh, indent=1, sort_keys=True)

    metrics = result["metrics"]
    for name, unit in {**units, **({} if args.trace else E2E_INFO)}.items():
        line = f"{name:48s} {metrics[name]:>14.6g} {unit}"
        if name == "fail_ratio":
            line += f"  ({result['failed']} of {result['attempted']} attempts)"
        print(line)
    for error in result["errors"]:
        print(f"FAIL {error}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
