"""Correctness gate applied to the outputs of every repetition.

Always checked (seed-independent):

* every reported number is finite;
* the effective coefficients (Xi_1, Xi_2, Xi_3) match the values stored for
  the workload in ``reference.json`` to ``XI_ATOL`` absolute; for Theta = 1
  they equal (1, 0, 0) to ``THETA_ONE_ATOL``;
* on ``sweep_theta_one`` the mean strong error strictly decreases with eps;
* no eps level excludes more than 20 % of its paths.

Checked when ``reference.json`` holds outputs for the seed:

* per-eps strong errors to ``STRONG_RTOL`` relative;
* per-eps weak errors to ``WEAK_RTOL`` relative to the largest weak error of
  that eps level;
* the final discrete norm of ``simulate_eff_fine`` to ``NORM_RTOL`` relative.

The tolerances pass reordered floating-point work (an ensemble stepper moves
results by about 1e-12 relative). They also pass a correction of the exterior
weight of about 4e-5 relative: scaling it by 1 + 4e-5 moved strong errors by
up to 8e-5 and weak errors by up to 8e-4. They fail a wrong operator:
alpha = 1.501 instead of 1.5 moved strong errors by 6e-3 to 9e-3 on
``sweep_theta_one``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

XI_ATOL = 1e-9
THETA_ONE_ATOL = 1e-8
STRONG_RTOL = 5e-4
WEAK_RTOL = 5e-3
NORM_RTOL = 1e-6
MAX_EXCLUDED_FRACTION = 0.2


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text())


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check(workload, seed: int, outputs: dict, reference: dict) -> list[str]:
    """Problems found in one repetition's outputs; an empty list passes."""
    problems = []
    xi = outputs.get("xi", [])
    if len(xi) != 3 or not _finite(xi):
        return [f"effective coefficients missing or not finite: {xi}"]
    ref_xi = reference["xi"][workload.name]
    if max(abs(a - b) for a, b in zip(xi, ref_xi)) > XI_ATOL:
        problems.append(f"Xi {xi} differs from reference {ref_xi} by more than {XI_ATOL:g}")
    if workload.config["theta_preset"]["name"] == "one":
        if max(abs(a - b) for a, b in zip(xi, (1.0, 0.0, 0.0))) > THETA_ONE_ATOL:
            problems.append(f"Theta = 1 must give Xi = (1, 0, 0), got {xi}")

    ref = reference["outputs"].get(workload.name, {}).get(str(seed))
    if workload.n_paths:
        strong, weak = outputs.get("strong_err"), outputs.get("weak_err")
        excluded = outputs.get("excluded")
        if strong is None or weak is None or excluded is None:
            return problems + ["sweep produced no report"]
        for eps_index, n_excl in enumerate(excluded):
            if n_excl > MAX_EXCLUDED_FRACTION * workload.n_paths:
                problems.append(f"eps level {eps_index}: {n_excl}/{workload.n_paths} paths excluded")
            elif not (_finite([strong[eps_index]]) and _finite(weak[eps_index])):
                problems.append(f"eps level {eps_index}: non-finite errors")
        if problems:
            return problems
        if workload.name == "sweep_theta_one":
            if any(b >= a for a, b in zip(strong, strong[1:])):
                problems.append(f"strong error not strictly decreasing in eps: {strong}")
        if ref is not None:
            for i, (a, b) in enumerate(zip(strong, ref["strong_err"])):
                if abs(a - b) > STRONG_RTOL * abs(b):
                    problems.append(f"eps level {i}: strong error {a!r} vs reference {b!r}")
            for i, (row, ref_row) in enumerate(zip(weak, ref["weak_err"])):
                scale = max(abs(v) for v in ref_row)
                if max(abs(a - b) for a, b in zip(row, ref_row)) > WEAK_RTOL * scale:
                    problems.append(f"eps level {i}: weak errors {row} vs reference {ref_row}")
    else:
        norm2 = outputs.get("norm2_final")
        if norm2 is None or not math.isfinite(norm2) or norm2 <= 0.0:
            return problems + [f"final norm missing, not finite or not positive: {norm2}"]
        if ref is not None and abs(norm2 - ref["norm2_final"]) > NORM_RTOL * ref["norm2_final"]:
            problems.append(f"final norm2 {norm2!r} vs reference {ref['norm2_final']!r}")
    return problems
