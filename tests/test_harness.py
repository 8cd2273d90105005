"""Coupled-pair errors, sweep aggregation, exclusion policy, and the
corrector-reconstruction diagnostic."""

import dataclasses
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from nshom import cell, effective, harness, integrator, kernel
from nshom.config import RunConfig
from nshom.harness import (
    SweepFailure,
    corrector_residual,
    coupled_errors,
    coupled_pair_error,
    eps_sweep,
    fit_loglog,
    monte_carlo_se,
    prepare_experiment,
)
from nshom.integrator import LinearSolveError, TrajectoryBlowup
from nshom.presets import get_theta

SMALL = {
    "alpha": 1.5,
    "grid": {"n": 48},
    "cell": {"m": 64, "m_tau": 4, "n_images": 8},
    "T": 0.5,
}


def make_config(**overrides) -> RunConfig:
    data = {**SMALL}
    data.update(overrides)
    return RunConfig.from_dict(data)


@pytest.fixture(scope="module")
def prepared_default():
    rc = make_config()
    return rc, prepare_experiment(rc)


class TestCoupledPair:
    def test_trivial_pair_is_at_solver_floor(self):
        # identical generators by construction: constant coefficient, no potential
        rc = make_config(v_preset="zero", g={"kind": "zero", "sigma": 0.0})
        prepared = prepare_experiment(rc)
        out = coupled_pair_error(0.25, rc, seed=0, prepared=prepared)
        # relative to the trajectory scale dt*h*sum|u|^2 ~ T * 1
        assert out.error / rc.sim.T < 1e-16
        assert not out.excluded

    def test_deterministic_error_identical_across_seeds(self):
        rc = make_config(g={"kind": "zero", "sigma": 0.0})
        prepared = prepare_experiment(rc)
        e1 = coupled_pair_error(0.25, rc, seed=1, prepared=prepared).error
        e2 = coupled_pair_error(0.25, rc, seed=999, prepared=prepared).error
        assert e1 == pytest.approx(e2, rel=1e-12)

    def test_distinct_seeds_distinct_but_same_order(self, prepared_default):
        rc, prepared = prepared_default
        e1 = coupled_pair_error(0.25, rc, seed=1, prepared=prepared).error
        e2 = coupled_pair_error(0.25, rc, seed=2, prepared=prepared).error
        assert e1 != e2
        assert 0.2 < e1 / e2 < 5.0

    def test_error_decreases_between_eps_levels(self, prepared_default):
        rc, prepared = prepared_default
        e_coarse = coupled_pair_error(0.25, rc, seed=3, prepared=prepared).error
        e_fine = coupled_pair_error(0.0625, rc, seed=3, prepared=prepared).error
        assert e_fine < e_coarse


class TestSweep:
    def test_monotone_decrease_and_weak_bound(self, prepared_default):
        rc, prepared = prepared_default
        report = eps_sweep([0.5, 0.25, 0.125], 4, rc, prepared=prepared)
        errs = report.strong_err
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert all(x == 0 for x in report.excluded)
        # weak errors bounded via Cauchy-Schwarz by the strong error and the
        # test-function mass
        grid = prepared.grid
        for j, (_, fn) in enumerate(zip(report.psi_names, prepared.psi_values)):
            psi_mass = rc.sim.T * grid.h * float(np.sum(np.abs(prepared.psi_values[j]) ** 2))
            for i in range(len(errs)):
                bound = np.sqrt(errs[i] * psi_mass) * (1.0 + 1e-9)
                assert report.weak_err[i][j] <= bound

    def test_standard_errors_reported(self, prepared_default):
        rc, prepared = prepared_default
        report = eps_sweep([0.5, 0.25], 4, rc, prepared=prepared)
        assert all(se >= 0.0 for se in report.strong_se)
        assert report.fit["slope"] is not None

    def test_degenerate_fit_flagged_for_identical_generators(self):
        rc = make_config(v_preset="zero", g={"kind": "zero", "sigma": 0.0})
        report = eps_sweep([0.5, 0.25], 2, rc)
        assert report.fit["degenerate"]
        assert "floor" in report.fit["reason"]

    def test_eps_must_decrease(self, prepared_default):
        rc, prepared = prepared_default
        with pytest.raises(ValueError, match="decreasing"):
            eps_sweep([0.25, 0.5], 2, rc, prepared=prepared)

    def test_needs_two_paths(self, prepared_default):
        rc, prepared = prepared_default
        with pytest.raises(ValueError, match="paths"):
            eps_sweep([0.5], 1, rc, prepared=prepared)

    @pytest.mark.parametrize("eps_list", [[float("nan")], [0.5, -0.25], [float("inf"), 0.5],
                                          [0.5, 0.0]])
    def test_eps_levels_must_be_finite_positive_before_setup(self, eps_list, monkeypatch):
        def no_setup(rc):
            raise AssertionError("prepare_experiment ran before the eps levels were checked")

        monkeypatch.setattr(harness, "prepare_experiment", no_setup)
        with pytest.raises(ValueError, match="finite and positive"):
            eps_sweep(eps_list, 2, make_config())

    def test_excluded_path_policy_fails_sweep(self):
        # strong linear noise at a coarse fixed step blows up every path
        rc = make_config(g={"kind": "linear", "sigma": 200.0},
                         dt_rule={"kind": "fixed", "dt": 1.0 / 32.0})
        with pytest.warns(UserWarning, match="diverged"):
            with pytest.raises(SweepFailure) as excinfo:
                eps_sweep([0.5, 0.25], 2, rc)
        report = excinfo.value.report
        assert report is not None
        assert list(report.excluded) == [2, 2]


class TestEnsemble:
    @pytest.mark.parametrize("theta", ["one", "cosine_sum"])
    def test_sweep_matches_per_path_pairs(self, theta):
        rc = make_config(grid={"n": 32}, theta_preset={"name": theta, "params": {}},
                         v_preset="sin2pi_y_one_plus_sin2pi_tau")
        prepared = prepare_experiment(rc)
        eps_list, n_paths = [0.5, 0.25], 3
        report = eps_sweep(eps_list, n_paths, rc, prepared=prepared)
        for i, eps in enumerate(eps_list):
            pairs = [coupled_pair_error(eps, rc, s, prepared) for s in report.seeds]
            assert report.strong_err[i] == pytest.approx(
                np.mean([p.error for p in pairs]), rel=1e-10)
            weak = np.abs(np.mean([p.weak for p in pairs], axis=0))
            np.testing.assert_allclose(report.weak_err[i], weak, rtol=1e-10)

    def test_cyclic_sweep_factorizes_eight_plus_one_per_eps(self, prepared_default,
                                                            monkeypatch):
        rc, prepared = prepared_default  # dt = eps / 8: eight potential phases
        counts = {"factor": 0, "assemble": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(integrator, "lu_factor", counting("factor", integrator.lu_factor))
        monkeypatch.setattr(harness, "assemble_heterogeneous_generator",
                            counting("assemble", harness.assemble_heterogeneous_generator))
        for eps in (0.5, 0.25, 0.125):
            counts.update(factor=0, assemble=0)
            coupled_errors(eps, rc, [0, 1, 2, 3], prepared)
            assert counts == {"factor": 8 + 1, "assemble": 1}, eps

    def test_failed_factorization_ends_the_sweep(self, prepared_default, monkeypatch):
        rc, prepared = prepared_default

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(integrator, "lu_factor", singular)
        with pytest.raises(LinearSolveError, match="eps=0.5, phase .*singular matrix"):
            eps_sweep([0.5, 0.25], 4, rc, prepared=prepared)

    def test_singular_implicit_matrix_ends_the_sweep(self, prepared_default):
        # column 3 of I + i theta dt G_eff is exactly zero, so is U[3, 3]: the
        # sweep stops with the cause instead of excluding every path as diverged
        rc, prepared = prepared_default
        dt = rc.resolve_dt(0.5)[0]
        g_eff = prepared.effective_generator.astype(complex)
        g_eff[:, 3] = 0.0
        g_eff[3, 3] = 1j / (rc.sim.theta_scheme * dt)
        singular = dataclasses.replace(prepared, effective_generator=g_eff)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(LinearSolveError, match=r"effective system, phase None: "
                               r"implicit matrix is singular, U\[3, 3\] is exactly zero"):
                eps_sweep([0.5, 0.25], 4, rc, prepared=singular)
        assert [str(w.message) for w in caught] == []

    def test_diverged_column_is_excluded_and_others_unchanged(self, prepared_default,
                                                              monkeypatch):
        rc, prepared = prepared_default
        seeds = [0, 1, 2]
        baseline = coupled_errors(0.25, rc, seeds, prepared)
        real_increments = harness.brownian_increments

        def huge_for_seed_one(seed, n_steps, dt):
            path = real_increments(seed, n_steps, dt)
            if seed == 1:
                path.increments = path.increments * 1e20
            return path

        monkeypatch.setattr(harness, "brownian_increments", huge_for_seed_one)
        with pytest.warns(UserWarning, match="seed=1 eps=0.25 diverged"):
            outcomes = coupled_errors(0.25, rc, seeds, prepared)
        assert [o.excluded for o in outcomes] == [False, True, False]
        assert "diverged at step 1" in outcomes[1].reason
        for j in (0, 2):
            assert outcomes[j].error == baseline[j].error
            assert np.array_equal(outcomes[j].weak, baseline[j].weak)


def perfbench_tracer():
    """A Tracer from the benchmark's perfbench/tracer.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod.Tracer()


def test_perfbench_tracer_sees_one_cell_solve():
    # the benchmark's tracer wraps nshom at its call-site names; a refactor
    # that moves those calls would silently blind it
    tracer = perfbench_tracer()
    tracer.install_nshom()
    try:
        harness.solve_coefficients(make_config(cell={"m": 32, "m_tau": 4, "n_images": 4}))
    finally:
        tracer.restore()
    assert tracer.calls["cell.solve"] == 1
    assert tracer.calls["cell.problem"] == 1
    assert tracer.calls["effective.coefficients"] == 1
    assert harness.solve_cell_problem is cell.solve_cell_problem and cell.np is np


def test_perfbench_tracer_sees_one_exterior_weight_per_assembly():
    # the tracer patches kernel.exterior_weight; the assembly must call it
    # once with all nodes, for an oscillating and for a constant Theta
    original = kernel.exterior_weight
    tracer = perfbench_tracer()
    tracer.install_nshom()
    try:
        for theta in ("cosine_sum", "one"):
            params = kernel.KernelParams(alpha=1.5, theta=get_theta(theta), epsilon=0.25)
            harness.assemble_heterogeneous_generator(kernel.Grid1D.make(32), params)
    finally:
        tracer.restore()
    assert tracer.calls["kernel.assemble"] == 2
    assert tracer.calls["kernel.exterior_weight"] == 2
    assert kernel.exterior_weight is original


def test_perfbench_tracer_sees_each_setup_layer_once():
    # the per-layer setup metrics of the benchmark come from these spans
    tracer = perfbench_tracer()
    tracer.install_nshom()
    try:
        harness.prepare_experiment(make_config(
            theta_preset={"name": "cosine_sum", "params": {}}))
    finally:
        tracer.restore()
    for span in ("cell.form", "kernel.assemble"):
        assert tracer.calls[span] == 1, span
    # G_eff reads the offset vectors; the dense Z and R are oracles, off the run path
    for span in ("effective.zeta_matrix", "effective.restricted_divergence"):
        assert tracer.calls[span] == 0, span


def test_perfbench_tracer_sees_the_sweep_counts():
    # the count identities of the benchmark's sweep workloads, on a small
    # sweep: one assembly per eps plus one in the set-up, eight potential
    # phases plus the effective system factorized per eps, and one solve per
    # step and system
    rc = make_config()
    eps_list, n_paths = [0.5, 0.25], 2
    tracer = perfbench_tracer()
    tracer.install_nshom()
    try:
        harness.eps_sweep(eps_list, n_paths, rc)
    finally:
        tracer.restore()
    n_steps = [rc.resolve_dt(eps)[1] for eps in eps_list]
    assert tracer.calls["kernel.assemble"] == len(eps_list) + 1
    assert tracer.calls["integrator.lu_factor"] == len(eps_list) * (8 + 1)
    assert tracer.calls["integrator.lu_solve"] == 2 * sum(n_steps)


def test_perfbench_tracer_sees_one_solve_per_single_path_step(prepared_default):
    # the simulate_eff_fine identities: one factorization for the run and one
    # integrator.lu_solve per step, also now that one column is solved by two
    # triangular solves behind that name
    rc, prepared = prepared_default
    dt, n_steps = rc.resolve_dt(None)
    path = integrator.brownian_increments(rc.seed, n_steps, dt)
    tracer = perfbench_tracer()
    tracer.install_nshom()
    try:
        integrator.simulate(integrator.Effective(prepared.coefficients), rc.sim,
                            path, generator=prepared.effective_generator,
                            store_trajectory=False)
    finally:
        tracer.restore()
    assert tracer.calls["integrator.lu_factor"] == 1
    assert tracer.calls["integrator.lu_solve"] == n_steps


def test_one_corrector_rhs_per_coefficient_solve(monkeypatch):
    original, calls = cell.assemble_cell_rhs, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every module that holds the name, so a second call site is counted too
    for module in (cell, effective, harness):
        if hasattr(module, "assemble_cell_rhs"):
            monkeypatch.setattr(module, "assemble_cell_rhs", counted)
    harness.solve_coefficients(make_config(theta_preset={"name": "cosine_sum", "params": {}}))
    assert len(calls) == 1


class TestFitAndEstimators:
    def test_fit_recovers_exact_slope(self):
        eps = [0.5, 0.25, 0.125, 0.0625]
        errs = [0.01 * e ** 1.5 for e in eps]
        fit = fit_loglog(eps, errs)
        assert not fit["degenerate"]
        assert fit["slope"] == pytest.approx(1.5, abs=1e-12)
        assert fit["r2"] == pytest.approx(1.0, abs=1e-12)

    def test_fit_degenerate_single_point(self):
        fit = fit_loglog([0.5], [1.0])
        assert fit["degenerate"]

    def test_se_estimator_scales_like_inverse_sqrt_paths(self):
        rng = np.random.default_rng(0)
        pool = rng.standard_normal(128)
        ses = {m: monte_carlo_se(pool[:m]) for m in (8, 32, 128)}
        for m_small, m_big in ((8, 32), (32, 128)):
            ratio = ses[m_small] / ses[m_big]
            expected = np.sqrt(m_big / m_small)
            assert abs(ratio / expected - 1.0) < 0.30


class TestEffectiveDriftValidation:
    def test_zeta_terms_improve_the_effective_approximation(self):
        """With an oscillating coefficient whose corrector is nontrivial, the
        full drift (xi1, xi2, xi3) tracks the heterogeneous system better than
        the truncated (xi1, 0, 0) drift; this pins the sign convention of the
        zeta terms end to end."""
        from nshom.effective import EffectiveCoefficients, assemble_effective_generator
        from nshom.integrator import Effective, Heterogeneous, simulate, brownian_increments
        from nshom.kernel import KernelParams, assemble_heterogeneous_generator

        rc = make_config(grid={"n": 96},
                         theta_preset={"name": "cosine_sum", "params": {}},
                         v_preset="sin2pi_y_one_plus_sin2pi_tau")
        prepared = prepare_experiment(rc)
        assert abs(prepared.coefficients.xi2) > 1e-3
        assert abs(prepared.coefficients.xi3) > 1e-3
        naive = assemble_effective_generator(
            EffectiveCoefficients.from_values(prepared.coefficients.xi1),
            prepared.grid, rc.sim.alpha)
        cfg = rc.sim
        eps = 0.125
        dt, n_steps = rc.resolve_dt(eps)
        path = brownian_increments(0, n_steps, dt)
        g_het = assemble_heterogeneous_generator(
            prepared.grid, KernelParams(alpha=rc.sim.alpha, theta=rc.sim.theta, epsilon=eps))
        res_het = simulate(Heterogeneous(eps), cfg, path, generator=g_het)
        errors = {}
        for label, gen in (("full", prepared.effective_generator), ("naive", naive)):
            res_eff = simulate(Effective(prepared.coefficients), cfg, path, generator=gen)
            diff = res_het.trajectory[1:] - res_eff.trajectory[1:]
            errors[label] = dt * prepared.grid.h * float(np.sum(np.abs(diff) ** 2))
        assert errors["full"] < errors["naive"]


def stored_trajectory_residual(eps, rc, seed, prepared):
    """The corrector diagnostic reduced from two stored ``simulate``
    trajectories, one per system, on the same Brownian path."""
    cfg = rc.sim
    dt, n_steps = rc.resolve_dt(eps)
    path = integrator.brownian_increments(seed, n_steps, dt)
    g_het = kernel.assemble_heterogeneous_generator(
        prepared.grid, kernel.KernelParams(alpha=rc.sim.alpha, theta=rc.sim.theta, epsilon=eps))
    res_het = integrator.simulate(integrator.Heterogeneous(eps), cfg, path, generator=g_het)
    res_eff = integrator.simulate(integrator.Effective(prepared.coefficients), cfg, path,
                                  generator=prepared.effective_generator)
    grid, alpha = prepared.grid, rc.sim.alpha
    gam_x = harness._gamma_matrix(grid.nodes, alpha)
    gam_y = harness._gamma_matrix(grid.nodes, alpha, scale=eps)
    zmat = effective.zeta_matrix(grid, alpha)
    chi_fast = harness._interp_periodic(prepared.cell_solution.chi, grid.nodes / eps)
    chi_diff = chi_fast[None, :] - chi_fast[:, None]
    total = 0.0
    baseline = 0.0
    for k in range(1, n_steps + 1):
        uh = res_het.trajectory[k]
        ue = res_eff.trajectory[k]
        dstar_het = -(uh[None, :] - uh[:, None]) * gam_x
        dstar_eff = -(ue[None, :] - ue[:, None]) * gam_x
        recon = dstar_eff + (zmat @ ue)[:, None] * chi_diff * gam_y
        total += float(np.sum(np.abs(dstar_het - recon) ** 2))
        baseline += float(np.sum(np.abs(dstar_het - dstar_eff) ** 2))
    norm = dt * grid.h * grid.h
    return {"residual": float(np.sqrt(norm * total)),
            "gradient_error": float(np.sqrt(norm * baseline)), "eps": eps, "seed": seed}


class TestCorrectorDiagnostic:
    @pytest.mark.parametrize("theta", ["one", "cosine_sum"])
    def test_equals_the_stored_trajectory_reduction(self, theta):
        rc = make_config(theta_preset={"name": theta, "params": {}},
                         v_preset="sin2pi_y_one_plus_sin2pi_tau",
                         g={"kind": "linear", "sigma": 0.5})
        prepared = prepare_experiment(rc)
        for eps, seed in ((0.25, 3), (0.125, 0)):
            assert (corrector_residual(eps, rc, seed, prepared)
                    == stored_trajectory_residual(eps, rc, seed, prepared))

    def test_diverging_path_raises(self):
        # strong linear noise at a coarse fixed step blows the path up
        rc = make_config(g={"kind": "linear", "sigma": 200.0},
                         dt_rule={"kind": "fixed", "dt": 1.0 / 32.0})
        prepared = prepare_experiment(rc)
        with pytest.raises(TrajectoryBlowup, match="diverged at step 10:"):
            corrector_residual(0.25, rc, seed=0, prepared=prepared)

    def test_constant_theta_residual_equals_gradient_error(self, prepared_default):
        rc, prepared = prepared_default
        diag = corrector_residual(0.25, rc, seed=0, prepared=prepared)
        # chi == 0: the reconstruction reduces to the plain two-point error
        assert diag["residual"] == pytest.approx(diag["gradient_error"], rel=1e-12)

    def test_residual_decreases_with_eps_for_oscillating_theta(self):
        rc = make_config(theta_preset={"name": "cosine_product", "params": {}},
                         T=0.25)
        prepared = prepare_experiment(rc)
        d_coarse = corrector_residual(0.25, rc, seed=0, prepared=prepared)
        d_fine = corrector_residual(0.0625, rc, seed=0, prepared=prepared)
        assert d_fine["residual"] < d_coarse["residual"]

    def test_constant_shift_of_chi_is_invisible(self, prepared_default):
        # D*_y annihilates constants, so shifting chi by a constant cannot
        # change the reconstruction; verified through the mean-zero solve
        rc, prepared = prepared_default
        assert prepared.cell_solution.mean_abs < 1e-14
