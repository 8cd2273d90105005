"""Tests of the benchmark itself: the correctness gate, the tracer's span
accounting and count identities, and the command-line contract.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = gate.load_reference()


def reference_outputs(name: str, seed: int) -> dict:
    outputs = copy.deepcopy(REFERENCE["outputs"][name][str(seed)])
    outputs["xi"] = list(REFERENCE["xi"][name])
    if workloads.WORKLOADS[name].n_paths:
        outputs["excluded"] = [0] * len(workloads.EPS_LIST)
    return outputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_passes_reference_and_reordered_arithmetic(name):
    w = workloads.WORKLOADS[name]
    outputs = reference_outputs(name, 0)
    assert gate.check(w, 0, outputs, REFERENCE) == []
    for key in ("strong_err", "norm2_final"):
        if key in outputs:
            value = outputs[key]
            outputs[key] = ([v * (1 + 1e-10) for v in value] if isinstance(value, list)
                            else value * (1 + 1e-10))
    assert gate.check(w, 0, outputs, REFERENCE) == []
    # a seed without stored outputs is checked on seed-independent properties
    assert gate.check(w, 10**9, outputs, REFERENCE) == []


def test_gate_rejects_perturbed_outputs():
    one = workloads.WORKLOADS["sweep_theta_one"]
    outputs = reference_outputs("sweep_theta_one", 0)
    outputs["strong_err"][2] *= 1 + 2 * gate.STRONG_RTOL
    assert gate.check(one, 0, outputs, REFERENCE)

    outputs = reference_outputs("sweep_theta_one", 0)
    outputs["xi"][1] = 1e-6
    assert any("Theta = 1" in p for p in gate.check(one, 0, outputs, REFERENCE))

    outputs = reference_outputs("sweep_theta_one", 0)
    outputs["strong_err"][3] = outputs["strong_err"][2]
    assert any("decreasing" in p for p in gate.check(one, 10**9, outputs, REFERENCE))

    outputs = reference_outputs("sweep_theta_one", 0)
    outputs["excluded"][0] = 1
    assert any("excluded" in p for p in gate.check(one, 0, outputs, REFERENCE))

    fine = workloads.WORKLOADS["simulate_eff_fine"]
    outputs = reference_outputs("simulate_eff_fine", 0)
    outputs["norm2_final"] *= 1 + 10 * gate.NORM_RTOL
    assert gate.check(fine, 0, outputs, REFERENCE)


def test_gate_fails_a_wrong_operator():
    w = workloads.WORKLOADS["sweep_theta_one"]
    result = workloads.run(w, 0, overrides={"alpha": 1.501})
    assert result["error"] is None
    problems = gate.check(w, 0, result["outputs"], REFERENCE)
    assert any("strong error" in p for p in problems)


def test_tracer_busy_and_self_time():
    now = [0.0]

    def tick(seconds):
        now[0] += seconds

    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        tick(1.0)

    inner = tracer.wrap("kernel.exterior_weight", leaf)

    def assemble():
        tick(0.5)
        inner()
        inner()

    outer_kernel = tracer.wrap("kernel.assemble", assemble)

    def pair():
        tick(0.25)
        outer_kernel()

    top = tracer.wrap("harness.pair", pair)
    top()
    top()
    m = tracer.metrics()
    assert m["kernel.exterior_weight_calls"] == 4
    assert m["kernel.exterior_weight_s"] == 4.0
    assert m["kernel.assemble_s"] == 5.0
    assert m["kernel.busy_s"] == 5.0
    assert m["kernel.self_s"] == 5.0
    assert m["harness.pair_s"] == 5.5
    assert m["harness.reduce_s"] == 0.5
    assert m["harness.busy_s"] == 5.5
    assert m["harness.self_s"] == 0.5
    assert m["trace.top_level_s"] == 5.5


@pytest.mark.parametrize("name", ["sweep_theta_one", "sweep_theta_osc"])
def test_count_identities_hold(name):
    from nshom import cell, harness, integrator, kernel
    originals = (cell.np, kernel.exterior_weight, harness.simulate, integrator.lu_factor)
    w = workloads.WORKLOADS[name]
    tracer = Tracer()
    tracer.install_nshom()
    try:
        result = workloads.run(w, 0)
    finally:
        tracer.restore()
    layers = tracer.metrics()
    for key, expected in w.count_identities.items():
        assert layers[key] == expected, key
    assert layers["trace.top_level_s"] >= 0.9 * result["wall_s"]
    assert gate.check(w, 0, result["outputs"], REFERENCE) == []
    assert (cell.np, kernel.exterior_weight, harness.simulate, integrator.lu_factor) == originals


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_prints_the_contract_result():
    proc = run_cli(ROOT, "--workload", "sweep_theta_one", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "--workload", "sweep_theta_one", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
