"""Workload definitions for the nshom benchmark.

Each workload is one repetition of a user-visible job, driven only through
nshom's public functions. The package receives nothing but the RunConfig built
here from the workload's fixed inputs and the seed; the seed selects the
Brownian paths (path seeds seed, seed + 1, ... in the sweeps).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

EPS_LIST = (1 / 2, 1 / 4, 1 / 8, 1 / 16)
T = 1.0
DT_FACTOR = 8.0          # dt = eps / DT_FACTOR in the sweeps
FINE_DT = 1.0 / 128.0    # dt of the single effective run

BASE_CONFIG = {
    "alpha": 1.5,
    "grid": {"n": 256},
    "cell": {"m": 128, "m_tau": 16, "n_images": 8},
    "kernel_mode": "periodized",
    "theta_preset": {"name": "one", "params": {}},
    "v_preset": "cos2pi_y_times_cos2pi_tau",
    "g": {"kind": "bounded", "sigma": 0.5},
    "T": T,
    "dt_rule": {"kind": "eps_over", "factor": DT_FACTOR, "default_dt": FINE_DT},
}
OSCILLATING = {
    "theta_preset": {"name": "cosine_sum", "params": {}},
    "v_preset": "sin2pi_y_one_plus_sin2pi_tau",
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # Coupled paths per eps level through harness.eps_sweep; 0 means one
    # effective path through integrator.simulate instead of a sweep.
    n_paths: int
    # layer metric -> end-to-end metric it should move on this workload
    predictions: dict = field(default_factory=dict)
    # per-layer counts that the code at the time the benchmark was defined
    # fixes by construction; a change to the stepping or assembly strategy
    # is expected to move them and reports the new counts
    count_identities: dict = field(default_factory=dict)

    @property
    def path_steps(self) -> int:
        """Time steps summed over all paths and both systems, from the inputs."""
        if self.n_paths:
            steps = sum(round(T * DT_FACTOR / eps) for eps in EPS_LIST)
            return 2 * self.n_paths * steps
        return round(T / FINE_DT)

    @property
    def attempted(self) -> int:
        """Operations one repetition attempts: coupled paths, or the one run."""
        return self.n_paths * len(EPS_LIST) if self.n_paths else 1


# Why each workload exists is recorded in BENCHMARK.json. The path counts keep
# one repetition to a few seconds, so that a run holds several repetitions.
P_ONE = 4
P_OSC = 2

WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep_theta_one",
        config=dict(BASE_CONFIG),
        n_paths=P_ONE,
        predictions={
            "integrator.lu_factor_*, lu_solve_*, factor_reuse": "wall_s",
            "integrator.simulate_s, step_self_s, brownian_s": "path_steps_per_s",
            "harness.prepare_s, pair_s, reduce_s, excluded_paths": "wall_s, peak_rss_mb",
            "kernel.*": "about 0 (exterior_weight_s under 1% of wall)",
        },
        count_identities={
            "kernel.assemble_calls": 4 * P_ONE + 1,
            "integrator.lu_factor_calls": 36 * P_ONE,
            "integrator.lu_solve_calls": 480 * P_ONE,
        },
    ),
    Workload(
        name="sweep_theta_osc",
        config={**BASE_CONFIG, **OSCILLATING},
        n_paths=P_OSC,
        predictions={
            "kernel.assemble_*, exterior_weight_*": "wall_s, path_steps_per_s "
                                                    "(exterior_weight_s over 1/2 of wall)",
            "harness.prepare_s, pair_s, reduce_s, excluded_paths": "wall_s, peak_rss_mb",
        },
        count_identities={
            "kernel.exterior_weight_calls": 256 * (4 * P_OSC + 1),
        },
    ),
    Workload(
        name="simulate_eff_fine",
        config={**BASE_CONFIG, **OSCILLATING, "grid": {"n": 2048},
                "cell": {"m": 1024, "m_tau": 32, "n_images": 8}},
        n_paths=0,
        predictions={
            "cell.solve_*, form_s, effective.*": "setup_s (cell.solve_s + "
                                                 "effective.generator_s most of it)",
            "integrator.simulate_s, step_self_s": "path_steps_per_s",
            "integrator.lu_factor_calls": "none from ensemble sharing (one path)",
        },
        count_identities={
            "kernel.assemble_calls": 1,
            "cell.solve_calls": 32,
            "integrator.lu_factor_calls": 1,
            "integrator.lu_solve_calls": 128,
        },
    ),
)}


def run(workload: Workload, seed: int, overrides: dict | None = None) -> dict:
    """One repetition: set-up (RunConfig and prepare_experiment), then the
    sweep or the effective run. Returns timings, outputs and any error the
    package raised; the outputs are checked by the caller, outside the timing.

    ``overrides`` replaces top-level RunConfig keys; the benchmark's own tests
    use it to run a deliberately wrong operator.
    """
    # Calls go through module attributes so that a tracer that wrapped them
    # at these names sees every call.
    from nshom import config, harness, integrator

    t0 = time.perf_counter()
    rc = config.RunConfig.from_dict({**workload.config, **(overrides or {}), "seed": seed})
    prepared = harness.prepare_experiment(rc)
    t1 = time.perf_counter()
    outputs: dict = {}
    error = None
    try:
        if workload.n_paths:
            try:
                report = harness.eps_sweep(list(EPS_LIST), workload.n_paths, rc,
                                           prepared=prepared)
            except harness.SweepFailure as exc:
                report, error = exc.report, f"SweepFailure: {exc}"
            if report is not None:
                outputs["strong_err"] = list(report.strong_err)
                outputs["weak_err"] = [list(row) for row in report.weak_err]
                outputs["excluded"] = list(report.excluded)
        else:
            dt, n_steps = rc.resolve_dt(None)
            path = integrator.brownian_increments(rc.seed, n_steps, dt)
            res = integrator.simulate(integrator.Effective(prepared.coefficients),
                                      rc.sim_config(), path,
                                      generator=prepared.effective_generator,
                                      store_trajectory=False,
                                      snapshot_every=max(1, n_steps // 4))
            outputs["norm2_final"] = float(res.norm2[-1])
    except (integrator.LinearSolveError, integrator.TrajectoryBlowup) as exc:
        error = f"{type(exc).__name__}: {exc}"
    t2 = time.perf_counter()
    outputs["xi"] = list(prepared.coefficients.as_tuple())
    return {"wall_s": t2 - t0, "setup_s": t1 - t0, "outputs": outputs, "error": error}
