#!/usr/bin/env python3
"""Bundle the seed-1 perfbench records into one committed evidence file.

Reads every `.bench_out/*-seed1-trace*.json` that `perfbench/run.py`
wrote and writes `BENCH_<LABEL>.json` with them and the machine they ran
on. Run it from the checkout root after the perfbench runs, for example:

    for w in provision v2x_traffic fleet_revocation; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done
    python3 perfbench/run.py --workload v2x_traffic --seed 1 --seconds 20 --trace 1
    python3 scripts/bench_record.py after

Standard library only.
"""

import argparse
import glob
import json
import os
import platform
import sys


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output, BENCH_<label>.json")
    parser.add_argument("--records", default=".bench_out",
                        help="directory of perfbench records")
    args = parser.parse_args()

    paths = sorted(glob.glob(os.path.join(args.records, "*-seed1-trace*.json")))
    if not paths:
        print(f"no seed-1 records in {args.records}", file=sys.stderr)
        return 1
    records = {}
    for path in paths:
        with open(path) as fh:
            records[os.path.basename(path)[: -len(".json")]] = json.load(fh)
    out = f"BENCH_{args.label}.json"
    with open(out, "w") as fh:
        json.dump({"label": args.label, "machine": machine(),
                   "records": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{out}: {', '.join(records)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
