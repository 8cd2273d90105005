"""Record the reference outputs the correctness gate compares against.

Runs every workload once per seed, untraced, with the same process set-up as
run.py, and writes perfbench/reference.json: the effective coefficients per
workload (seed-independent) and the per-seed outputs. Run from the root of a
checkout, only on code whose outputs are known to be right:

    python3 perfbench/record_reference.py --seeds 0-23
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import gate
import workloads
from run import run_child


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-23", help="inclusive range, e.g. 0-23")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="record only these workloads (default: all)")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    root = Path.cwd()

    reference = (gate.load_reference() if gate.REFERENCE_FILE.exists()
                 else {"xi": {}, "outputs": {}})
    for name in args.workload or sorted(workloads.WORKLOADS):
        per_seed = reference["outputs"].setdefault(name, {})
        for seed in range(first, last + 1):
            record = run_child(root, name, seed, trace=False, timeout=600.0)
            if record["error"]:
                print(f"{name} seed {seed}: {record['error']}", file=sys.stderr)
                return 1
            outputs = dict(record["outputs"])
            reference["xi"][name] = outputs.pop("xi")
            outputs.pop("excluded", None)
            per_seed[str(seed)] = outputs
            print(f"{name} seed {seed}: {record['wall_s']:.2f} s", flush=True)
    gate.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
