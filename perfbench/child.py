"""One measurement in a fresh interpreter.

Usage: python3 perfbench/child.py ROOT T0 MODE CONFIG_JSON

ROOT is the checkout holding `src/scms`; T0 is the parent's
`time.monotonic()` just before it started this process (CLOCK_MONOTONIC
is shared by all processes, so the difference covers interpreter start
and imports); MODE is `setup` (build a `World` and stop), `run` (the
unmodified `scms.harness.run_scenario`) or `traced` (the same call with
every layer wrapped by `tracer.Tracer`). Prints one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _import_scms(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import scms
    from scms import harness

    if not os.path.realpath(scms.__file__).startswith(os.path.realpath(src)):
        raise SystemExit(f"scms imported from {scms.__file__}, not {src}")
    return harness


def main(argv: list[str]) -> dict:
    root, t0, mode, config = argv[0], float(argv[1]), argv[2], json.loads(argv[3])
    harness = _import_scms(root)
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks: dict[str, float] = {}

    class TimedWorld(harness.World):
        def __init__(self, cfg):
            super().__init__(cfg)
            marks["built"] = time.monotonic()
            marks["cpu_built"] = time.process_time()
            if tracer is not None:
                tracer.reset()  # spans cover the run after set-up only

    harness.World = TimedWorld
    scenario = harness.ScenarioConfig(**config)
    if mode == "setup":
        TimedWorld(scenario)
        return {"setup_s": marks["built"] - t0}

    result = harness.run_scenario(scenario)
    done, cpu_done = time.monotonic(), time.process_time()
    out = {
        "setup_s": marks["built"] - t0,
        "wall_s": done - marks["built"],
        "cpu_s": cpu_done - marks["cpu_built"],
        "peak_rss_mb": _peak_rss_mb(),
        "digest": result.trace_digest,
        "violations": result.violations,
        **_counts(result),
        "versions": _versions(),
    }
    if tracer is not None:
        out["trace"] = tracer.summary(percentiles=(
            "authorities.pca.cert.request",
            "device.validate_bsm",
            "device.batch.response",
        ))
    return out


def _counts(result) -> dict:
    world, metrics = result.world, result.metrics
    rejects: dict[str, int] = {}
    validated = 0
    for device in world.devices:
        validated += len(device.received)
        for reason, n in device.reject_counts.items():
            rejects[reason] = rejects.get(reason, 0) + n
    return {
        "certs_issued": metrics["certs_issued"],
        "certs_installed": sum(len(batch) for d in world.devices
                               for batch in d.certs.values()),
        "bsms_validated": validated,
        "rejects": dict(sorted(rejects.items())),
        "quarantined": sum(len(d.quarantined) for d in world.devices),
        "bus_messages": world.bus.delivered,
        "revocations": metrics["revocations"],
        "revocation_lags": metrics["revocation_latency_periods"],
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _versions() -> dict:
    import cryptography

    return {"python": sys.version.split()[0],
            "cryptography": cryptography.__version__}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:]), sort_keys=True))
