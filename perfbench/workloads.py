"""Seeded scenario generators for the three benchmark workloads.

Each generator returns a plain dict of `scms.harness.ScenarioConfig`
fields plus the counts the correctness gate expects. Sizes are fixed per
workload; the seed chooses the scenario seed and, where the workload has
them, the offender and reporter sets. Only the standard library is used
here, so `run.py` can build and check a configuration without
importing the program under test.
"""

from __future__ import annotations

import random

WORKLOADS = ("provision", "v2x_traffic", "fleet_revocation")


def _base(name: str, seed: int, devices: int, periods: int, batch: int,
          bsms: int, listeners: int) -> dict:
    return {
        "name": name,
        "seed": seed,
        "devices": devices,
        "periods": periods,
        "batch_size": batch,
        "bsms_per_device_per_period": bsms,
        "listeners_per_bsm": listeners,
    }


def _expected(config: dict, offenders: int = 0) -> dict:
    devices, periods = config["devices"], config["periods"]
    bsms = config["bsms_per_device_per_period"]
    listeners = min(config["listeners_per_bsm"], devices - 1)
    traffic = devices * periods * bsms * listeners
    # every misbehavior event sends the offender's BSM to its reporters
    reported = sum(len(e["reporters"]) for e in config.get("events", []))
    return {
        "certs_installed": devices * periods * config["batch_size"],
        "bsms_validated": traffic + reported,
        "revocations": offenders,
    }


def provision(seed: int) -> dict:
    """24 devices x 6 periods x 20 certificates, no traffic, no revocation."""
    config = _base("provision", seed, 24, 6, 20, 0, 0)
    return {"config": config, "expected": _expected(config)}


def v2x_traffic(seed: int) -> dict:
    """20 devices x 4 periods x 5 certificates, 16 BSMs per device per
    period to 8 listeners each (10,240 validations)."""
    config = _base("v2x_traffic", seed, 20, 4, 5, 16, 8)
    return {"config": config, "expected": _expected(config)}


def fleet_revocation(seed: int) -> dict:
    """40 devices x 8 periods x 5 certificates, 2 BSMs per device per
    period to 3 listeners, 20 offenders reported over periods 1-4."""
    config = _base("fleet_revocation", seed, 40, 8, 5, 2, 3)
    config["detector_threshold"] = 3
    rng = random.Random(f"fleet_revocation:{seed}")
    devices = range(config["devices"])
    offenders = rng.sample(devices, 20)
    honest = [d for d in devices if d not in set(offenders)]
    events = []
    for k, offender in enumerate(offenders):
        events.append({
            "period": 1 + k % 4,
            "action": "misbehavior",
            "offender": offender,
            "reporters": rng.sample(honest, config["detector_threshold"]),
        })
    # the harness applies a period's events in list order
    events.sort(key=lambda e: e["period"])
    config["events"] = events
    return {"config": config, "expected": _expected(config, len(offenders))}


def build(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return globals()[workload](seed)
