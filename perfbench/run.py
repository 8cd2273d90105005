"""Benchmark of nshom: runs one workload for a fixed time and prints its metrics.

Run from the root of a checkout (the directory holding ``src/nshom`` and
``BENCHMARK.json``):

    python3 perfbench/run.py --workload sweep_theta_one --seed 0 --seconds 40 --trace 0

Each repetition runs in a fresh single Python process (perfbench/worker.py)
with BLAS pinned to one thread; repetitions follow each other (closed loop)
until the time is spent. ``--trace 0`` reports the end-to-end metrics as
medians over the repetitions, tracing off, with times scaled to the speed of
a reference machine (see REFERENCE_CALIBRATION_S); the raw times are printed
too. ``--trace 1`` alternates untraced
and traced repetitions and reports per-layer metrics from the traced ones,
plus the tracing overhead (traced wall minus untraced wall, medians).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from BENCHMARK.json. The lines before it give the environment,
every metric with its spread, and for a traced run the full per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
# BLAS threads of every repetition: one thread measured both faster and
# steadier than two on the 2-core reference machine for these problem sizes.
BLAS_THREADS = "1"
# Seconds that worker.calibrate(), run before and after each repetition and
# summed, takes on the 2-core machine the benchmark was defined on. Times are
# reported at that machine's speed: each repetition's times are multiplied by
# this over its own calibration time, which cancels the drift in speed of a
# shared host (measured there: per-repetition walls of one workload varied
# by a factor of 2 within minutes).
REFERENCE_CALIBRATION_S = 0.36
# A run must end within 180 s whatever --seconds says.
HARD_LIMIT_S = 170.0


class ChildFailure(RuntimeError):
    """A repetition that crashed, timed out or printed no result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": BLAS_THREADS,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
    })
    return env


def run_child(root: Path, name: str, seed: int, trace: bool, timeout: float) -> dict:
    """One repetition in a fresh process; returns the worker's JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailure(f"repetition exceeded {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailure(f"repetition exited with code {proc.returncode}")
    return json.loads(lines[-1])


def cache_sizes() -> dict:
    """CPU cache sizes by level, read-only from sysfs; empty where unavailable."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def measure(root: Path, workload, seed: int, seconds: float, trace: bool):
    """Closed loop of repetitions until ``seconds`` are spent: a repetition is
    started only when one more of the longest so far still fits. A traced run
    alternates untraced and traced repetitions and makes at least one of each."""
    start = time.perf_counter()
    plain, traced, crashes = [], [], []
    longest = 0.0
    while True:
        want_trace = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        try:
            record = run_child(root, workload.name, seed, want_trace,
                               HARD_LIMIT_S - (t0 - start))
        except ChildFailure as exc:
            crashes.append(str(exc))
            break
        (traced if want_trace else plain).append(record)
        now = time.perf_counter()
        longest = max(longest, now - t0)
        enough = bool(plain) and (bool(traced) or not trace)
        if now - start + longest > HARD_LIMIT_S:
            break
        if enough and now - start + longest > seconds:
            break
    return plain, traced, crashes


def spread(values: list[float]) -> str:
    return f"min {min(values):.6g} max {max(values):.6g} n {len(values)}"


def end_to_end(workload, plain: list[dict]) -> dict[str, list[float]]:
    """End-to-end series at the reference speed, plus the raw times."""
    speed = [REFERENCE_CALIBRATION_S / r["calibration_s"] for r in plain]
    wall = [r["wall_s"] * f for r, f in zip(plain, speed)]
    setup = [r["setup_s"] * f for r, f in zip(plain, speed)]
    return {
        "wall_s": wall,
        "setup_s": setup,
        "path_steps_per_s": [workload.path_steps / (w - s) for w, s in zip(wall, setup)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "raw_wall_s": [r["wall_s"] for r in plain],
        "raw_setup_s": [r["setup_s"] for r in plain],
        "calibration_s": [r["calibration_s"] for r in plain],
    }


def per_layer(workload, plain: list[dict], traced: list[dict]) -> dict[str, list[float]]:
    series: dict[str, list[float]] = {}
    for record in traced:
        layers = dict(record["layers"])
        layers["harness.excluded_paths"] = sum(record["outputs"].get("excluded", []))
        layers["trace.wall_s"] = record["wall_s"]
        layers["trace.coverage"] = layers["trace.top_level_s"] / record["wall_s"]
        layers["trace.count_mismatches"] = sum(
            layers[k] != v for k, v in workload.count_identities.items())
        for key, value in layers.items():
            series.setdefault(key, []).append(value)
    series["trace.overhead_s"] = [statistics.median(series["trace.wall_s"])
                                  - statistics.median(r["wall_s"] for r in plain)]
    return series


def report_trace(workload, layer: dict[str, float]) -> None:
    print("per-layer metrics (medians over traced repetitions):")
    for key in sorted(k for k in layer if "." in k):
        print(f"  {key:<36} {layer[key]:.6g}")
    wall = layer["trace.wall_s"]
    setup = layer["cell.solve_s"] + layer["effective.generator_s"]
    print(f"shares: kernel.exterior_weight_s / wall = {layer['kernel.exterior_weight_s'] / wall:.3f}; "
          f"(cell.solve_s + effective.generator_s) / harness.prepare_s = "
          f"{setup / layer['harness.prepare_s']:.3f}; "
          f"top-level spans / wall = {layer['trace.coverage']:.3f}")
    for key, expected in workload.count_identities.items():
        got = layer[key]
        print(f"count identity {key} = {expected}: {'holds' if got == expected else f'measured {got:g}'}")
    for key, target in workload.predictions.items():
        print(f"prediction: {key} -> {target}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "nshom" / "__init__.py").is_file() or not spec_file.is_file():
        print("run.py: run from the root of an nshom checkout (src/nshom and "
              "BENCHMARK.json not found here)", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    workload = workloads.WORKLOADS[args.workload]
    reference = gate.load_reference()

    plain, traced, crashes = measure(root, workload, args.seed, args.seconds, bool(args.trace))
    for message in crashes:
        print(f"crashed: {message}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("run.py: no repetition completed", file=sys.stderr)
        return 1

    attempted = failed = 0
    problems: list[str] = []
    for record in plain + traced:
        found = gate.check(workload, args.seed, record["outputs"], reference)
        if record["error"]:
            found.insert(0, record["error"])
        attempted += workload.attempted
        failed += workload.attempted if found else sum(record["outputs"].get("excluded", []))
        problems += found
    attempted += workload.attempted * len(crashes)
    failed += workload.attempted * len(crashes)

    environment = dict(plain[0]["environment"])
    environment.update({
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "OMP_NUM_THREADS": BLAS_THREADS,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    })
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(f"workload {workload.name}: seed {args.seed}, {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, {workload.path_steps} path-steps each")

    series = end_to_end(workload, plain)
    if args.trace:
        series.update(per_layer(workload, plain, traced))
    values = {key: statistics.median(v) for key, v in series.items()}
    for key in sorted(series):
        if not args.trace or key in ("wall_s", "setup_s", "raw_wall_s"):
            print(f"  {key:<36} median {values[key]:.6g} ({spread(series[key])})")
    if args.trace:
        report_trace(workload, values)
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for problem in problems[:10]:
        print(f"correctness: {problem}")
    print(f"correctness gate: {'pass' if not problems and not crashes else 'FAIL'}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems and not crashes, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
