"""Coupled-pair errors, sweep aggregation, exclusion policy, and the
corrector-reconstruction diagnostic on resolvents."""

import dataclasses
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nshom import cell, effective, harness, integrator, kernel
from nshom.config import RunConfig
from nshom.harness import (
    FIT_FLOOR,
    SweepFailure,
    corrector_residual,
    coupled_errors,
    eps_sweep,
    fit_loglog,
    monte_carlo_se,
    prepare_experiment,
)
from nshom.integrator import LinearSolveError, TrajectoryBlowup
from nshom.presets import (F_PRESETS, H_PRESETS, PSI_PRESETS, REFLECTION_RTOL, THETA_PRESETS,
                           FSpec, HSpec, get_f, get_h, get_theta, get_v)

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
        err, _, reasons = coupled_errors(0.25, rc, [0], prepared)
        # relative to the trajectory scale dt*h*sum|u|^2 ~ T * 1
        assert err[0] / rc.sim.T < 1e-16
        assert reasons == [None]

    def test_deterministic_error_identical_across_seeds(self):
        rc = make_config(g={"kind": "zero", "sigma": 0.0})
        prepared = prepare_experiment(rc)
        e1 = coupled_errors(0.25, rc, [1], prepared)[0][0]
        e2 = coupled_errors(0.25, rc, [999], prepared)[0][0]
        assert e1 == pytest.approx(e2, rel=1e-12)

    def test_distinct_seeds_distinct_but_same_order(self, prepared_default):
        rc, prepared = prepared_default
        e1 = coupled_errors(0.25, rc, [1], prepared)[0][0]
        e2 = coupled_errors(0.25, rc, [2], prepared)[0][0]
        assert e1 != e2
        assert 0.2 < e1 / e2 < 5.0

    def test_strong_error_counts_the_imaginary_part(self, monkeypatch):
        # one time level whose differences are 2i (purely imaginary) and 3 - 4i;
        # the potential is odd in y, so the run keeps the full grid
        rc, eps = make_config(v_preset="sin2pi_y_one_plus_sin2pi_tau"), 0.25
        prepared = prepare_experiment(rc)
        n = rc.sim.grid.n
        u_het = np.zeros((n, 2), dtype=complex)
        u_het[:, 0], u_het[:, 1] = 2.0j, 3.0 - 4.0j
        steps = [(1, (u_het, np.zeros_like(u_het)), np.zeros(2, dtype=bool), [None, None])]
        monkeypatch.setattr(harness, "lockstep", lambda *args: iter(steps))
        err, weak, _ = coupled_errors(eps, rc, [0, 1], prepared)
        assert prepared.stepped[eps] == ("full grid", "eigenbasis")
        scale = rc.resolve_dt(eps)[0] * rc.sim.grid.h
        assert err == pytest.approx([4.0 * n * scale, 25.0 * n * scale], rel=1e-14)
        for j, (_, fn) in enumerate(PSI_PRESETS):
            psi_sum = np.sum(fn(rc.sim.grid.nodes))
            assert weak[:, j] == pytest.approx([2.0j * psi_sum * scale,
                                                (3.0 - 4.0j) * psi_sum * scale], rel=1e-13)

    @pytest.mark.parametrize("n", [48, 47])
    def test_even_half_weighs_paired_nodes_twice(self, monkeypatch, n):
        # the default inputs are even, so the run steps the first ceil(n/2)
        # nodes; one time level of differences that vary over them reduces as
        # the full grid reduces their mirrored extension: weight 2 on a
        # paired node and 1 on the middle node of odd n, and psi folded
        rc, eps = make_config(grid={"n": n}), 0.25
        prepared = prepare_experiment(rc)
        m, pairs = (n + 1) // 2, n // 2
        u_het = np.zeros((m, 2), dtype=complex)
        u_het[:, 0] = 2.0j * (1.0 + np.arange(m))
        u_het[:, 1] = (3.0 - 4.0j) * np.cos(np.arange(m))
        steps = [(1, (u_het, np.zeros_like(u_het)), np.zeros(2, dtype=bool), [None, None])]
        monkeypatch.setattr(harness, "lockstep", lambda *args: iter(steps))
        err, weak, _ = coupled_errors(eps, rc, [0, 1], prepared)
        assert prepared.stepped[eps] == ("even half", "eigenbasis" if n % 2 == 0 else "factor")
        scale = rc.resolve_dt(eps)[0] * rc.sim.grid.h
        full = np.concatenate([u_het, u_het[:pairs][::-1]])
        squares = np.abs(u_het) ** 2
        assert err == pytest.approx(scale * np.sum(np.abs(full) ** 2, axis=0), rel=1e-14)
        assert err == pytest.approx(
            scale * (2.0 * squares[:pairs].sum(axis=0) + squares[pairs:].sum(axis=0)), rel=1e-14)
        psi = np.stack([fn(rc.sim.grid.nodes) for _, fn in PSI_PRESETS], axis=1)
        np.testing.assert_allclose(weak, scale * full.T @ psi, rtol=1e-13)

    def test_error_decreases_between_eps_levels(self, prepared_default):
        rc, prepared = prepared_default
        e_coarse = coupled_errors(0.25, rc, [3], prepared)[0][0]
        e_fine = coupled_errors(0.0625, rc, [3], prepared)[0][0]
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
        grid = rc.sim.grid
        for j, (_, fn) in enumerate(PSI_PRESETS):
            psi_mass = rc.sim.T * grid.h * float(np.sum(np.abs(fn(grid.nodes)) ** 2))
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
        report = eps_sweep([0.5, 0.25], 2, rc, prepare_experiment(rc))
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
    def test_eps_levels_must_be_finite_positive_before_setup(self, eps_list, prepared_default):
        # the CLI checks the levels before its set-up
        # (test_sweep_rejects_bad_arguments_before_setup); here before the first level
        rc, prepared = prepared_default
        with pytest.raises(ValueError, match="finite and positive"):
            eps_sweep(eps_list, 2, rc, prepared)

    def test_excluded_path_policy_fails_sweep(self):
        # strong linear noise at a coarse fixed step blows up every path
        rc = make_config(g={"kind": "linear", "sigma": 200.0},
                         dt_rule={"kind": "fixed", "dt": 1.0 / 32.0})
        prepared = prepare_experiment(rc)
        with pytest.warns(UserWarning, match="diverged"):
            with pytest.raises(SweepFailure) as excinfo:
                eps_sweep([0.5, 0.25], 2, rc, prepared)
        report = excinfo.value.report
        assert report is not None
        assert list(report.excluded) == [2, 2]

    def test_one_kept_path_has_no_standard_error(self):
        # sigma = 17 at a coarse fixed step diverges one of the two paths at each eps
        rc = RunConfig.from_dict({"alpha": 1.5, "grid": {"n": 32},
                                  "cell": {"m": 16, "m_tau": 2, "n_images": 2},
                                  "g": {"kind": "linear", "sigma": 17.0},
                                  "dt_rule": {"kind": "fixed", "dt": 1.0 / 32.0}})
        prepared = prepare_experiment(rc)
        with pytest.warns(UserWarning, match="diverged"):
            with pytest.raises(SweepFailure) as excinfo:
                eps_sweep([0.5, 0.25], 2, rc, prepared)
        report = excinfo.value.report
        assert report.excluded == [1, 1]
        assert all(type(x) is int for x in report.excluded)
        assert np.isfinite(report.strong_err).all()
        assert np.isnan(report.strong_se).all()


class TestEnsemble:
    @pytest.mark.parametrize("theta", ["one", "cosine_sum"])
    def test_sweep_matches_per_path_pairs(self, theta):
        rc = make_config(grid={"n": 32}, theta_preset={"name": theta, "params": {}},
                         v_preset="sin2pi_y_one_plus_sin2pi_tau")
        prepared = prepare_experiment(rc)
        eps_list, n_paths = [0.5, 0.25], 3
        report = eps_sweep(eps_list, n_paths, rc, prepared=prepared)
        for i, eps in enumerate(eps_list):
            pairs = [coupled_errors(eps, rc, [s], prepared) for s in report.seeds]
            assert report.strong_err[i] == pytest.approx(
                np.mean([err[0] for err, _, _ in pairs]), rel=1e-10)
            weak = np.abs(np.mean([w[0] for _, w, _ in pairs], axis=0))
            np.testing.assert_allclose(report.weak_err[i], weak, rtol=1e-10)

    @pytest.mark.parametrize("theta,effective_factors", [("one", 0), ("cosine_sum", 1)])
    def test_cyclic_sweep_factorizes_eight_plus_one_per_eps(self, monkeypatch, theta,
                                                            effective_factors):
        # dt = eps / 8: eight potential phases; the symmetric G_eff of Theta = 1
        # is stepped in its eigenbasis and factorizes nothing
        rc = make_config(theta_preset={"name": theta, "params": {}})
        prepared = prepare_experiment(rc)
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
            assert counts == {"factor": 8 + effective_factors, "assemble": 1}, eps

    def test_failed_factorization_ends_the_sweep(self, prepared_default, monkeypatch):
        rc, prepared = prepared_default

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(integrator, "lu_factor", singular)
        with pytest.raises(LinearSolveError, match="eps=0.5, phase .*singular matrix"):
            eps_sweep([0.5, 0.25], 4, rc, prepared=prepared)

    def test_singular_implicit_matrix_ends_the_sweep(self, prepared_default):
        # row 3 of I + i theta dt G_eff is exactly zero, so is column 3 of the
        # transpose that LU factorizes, and U[3, 3]: the sweep stops with the
        # cause instead of excluding every path as diverged
        rc, prepared = prepared_default
        dt = rc.resolve_dt(0.5)[0]
        g_eff = prepared.effective_generator.astype(complex)
        g_eff[3] = 0.0
        g_eff[3, 3] = 1j / (rc.sim.theta_scheme * dt)
        singular = dataclasses.replace(prepared, effective_generator=g_eff)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(LinearSolveError, match=r"effective system, phase None: "
                               r"implicit matrix is singular, pivot 3 of its LU factor "
                               r"\(U\[3, 3\]\) is exactly zero"):
                eps_sweep([0.5, 0.25], 4, rc, prepared=singular)
        assert [str(w.message) for w in caught] == []

    def test_diverged_column_is_excluded_and_others_unchanged(self, prepared_default,
                                                              monkeypatch):
        rc, prepared = prepared_default
        seeds = [0, 1, 2]
        base_err, base_weak, _ = coupled_errors(0.25, rc, seeds, prepared)
        real_increments = harness.brownian_increments

        def huge_for_seed_one(seed, n_steps, dt):
            path = real_increments(seed, n_steps, dt)
            if seed == 1:
                path.increments = path.increments * 1e20
            return path

        monkeypatch.setattr(harness, "brownian_increments", huge_for_seed_one)
        with pytest.warns(UserWarning, match="seed=1 eps=0.25 diverged"):
            err, weak, reasons = coupled_errors(0.25, rc, seeds, prepared)
        assert np.isnan(err[1]) and np.isnan(weak[1]).all()
        assert "diverged at step 1" in str(reasons[1])
        assert reasons[0] is None and reasons[2] is None
        kept = [0, 2]
        assert np.array_equal(err[kept], base_err[kept])
        assert np.array_equal(weak[kept], base_weak[kept])

    def test_one_excluded_path_of_five_is_within_the_limit(self, prepared_default,
                                                           monkeypatch):
        # 1/5 is exactly the 20 % limit, and 0.2 * 5 == 1.0 in binary floating point
        rc, prepared = prepared_default
        seeds = [rc.seed + i for i in range(5)]
        base_err, _, _ = coupled_errors(0.25, rc, seeds, prepared)
        real_increments = harness.brownian_increments

        def huge_for_second_seed(seed, n_steps, dt):
            path = real_increments(seed, n_steps, dt)
            if seed == rc.seed + 1:
                path.increments = path.increments * 1e20
            return path

        monkeypatch.setattr(harness, "brownian_increments", huge_for_second_seed)
        with pytest.warns(UserWarning, match="diverged"):
            report = eps_sweep([0.25], 5, rc, prepared)
        assert report.excluded == [1]
        kept = base_err[[0, 2, 3, 4]]
        assert report.strong_err == [float(kept.mean())]
        assert report.strong_se == [monte_carlo_se(kept)]


class TestEffectiveEigenbasis:
    """Theta = 1 gives an exactly symmetric G_eff, which a sweep steps in its
    eigenbasis: one decomposition per set-up, at the first coupled_errors
    call, shared by a direct call and the sweep."""

    def test_one_decomposition_per_set_up(self, monkeypatch):
        rc = make_config()
        calls, real = [], integrator.dsyevd

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(integrator, "dsyevd", counted)
        prepared = prepare_experiment(rc)
        assert calls == [] and "even_effective" not in vars(prepared)
        err, weak, _ = coupled_errors(0.25, rc, [0, 1], prepared)
        report = eps_sweep([0.5, 0.25, 0.125], 2, rc, prepared)
        assert len(calls) == 1
        assert report.strong_err[1] == float(err.mean())
        assert report.weak_err[1] == [float(np.abs(w.mean())) for w in weak.T]

    def test_failed_decomposition_ends_the_sweep(self, prepared_default, monkeypatch):
        rc, prepared = prepared_default
        monkeypatch.setattr(integrator, "dsyevd",
                            lambda a, **kwargs: (np.zeros(len(a)), np.zeros_like(a), 2))
        with pytest.raises(LinearSolveError, match="effective system: eigendecomposition "
                                                   "failed"):
            eps_sweep([0.5, 0.25], 2, rc, dataclasses.replace(prepared))

    def test_nan_in_the_effective_generator_still_raises(self, prepared_default):
        # NaN makes G_eff unequal to its transpose, so it keeps the factor path
        rc, prepared = prepared_default
        g_eff = prepared.effective_generator.copy()
        g_eff[4, 9] = np.nan
        broken = dataclasses.replace(prepared, effective_generator=g_eff)
        assert broken.effective_basis is None
        with pytest.raises(LinearSolveError, match="effective system, phase None: "
                                                   "implicit matrix is not finite"):
            coupled_errors(0.5, rc, [0, 1], broken)


class TestReflectionRule:
    """The inputs of the rule that steps a run on the even half of the grid:
    the specs' parity and ``harness._even_half``'s check of G against J G J
    to presets.REFLECTION_RTOL of max|G|, as a metamorphic table."""

    THETAS = sorted(THETA_PRESETS)
    EVEN_V = ["zero", "cos2pi_y", "cos2pi_y_times_cos2pi_tau"]

    @staticmethod
    def passes(g) -> bool:
        return harness._even_half(g) is not None

    @pytest.mark.parametrize("theta", THETAS)
    def test_every_theta_gives_an_even_g_het(self, theta):
        # and the fold of the exactly symmetric G_het is exactly symmetric at
        # even n, in its block of paired nodes at odd n
        for n in (64, 63):
            grid = kernel.Grid1D.make(n)
            for eps in (0.5, 1.0 / 16):
                g = kernel.assemble_heterogeneous_generator(
                    grid, kernel.KernelParams(alpha=1.5, theta=get_theta(theta), epsilon=eps))
                f = harness._even_half(g)
                assert f is not None, (n, eps)
                paired = f[:n // 2, :n // 2]
                assert np.array_equal(paired, paired.T) and (
                    np.array_equal(f, f.T) == (n % 2 == 0)), (n, eps)

    @pytest.mark.parametrize("v", EVEN_V)
    @pytest.mark.parametrize("theta", THETAS)
    def test_every_theta_and_even_v_give_an_even_g_eff(self, theta, v):
        rc = make_config(grid={"n": 64}, cell={"m": 32, "m_tau": 4, "n_images": 4},
                         theta_preset={"name": theta, "params": {}}, v_preset=v)
        assert rc.sim.v_spec.even
        assert self.passes(prepare_experiment(rc).effective_generator)

    def test_the_specs_know_their_parity(self):
        assert [get_v(name).even for name in self.EVEN_V] == [True] * 3
        assert not get_v("sin2pi_y_one_plus_sin2pi_tau").even
        assert all(get_h(name).even for name in H_PRESETS)
        assert all(get_f(name).even for name in F_PRESETS)
        assert not HSpec("odd", lambda x: x).even
        assert not FSpec("odd", lambda t, x: np.cos(t) * x).even

    def test_the_odd_potential_gives_an_odd_g_eff(self):
        # Xi_3 reads V's tau-mean, which sin 2pi y gives an odd part, 5.6e-5 of max|G_eff|
        rc = make_config(grid={"n": 64}, cell={"m": 32, "m_tau": 4, "n_images": 4},
                         theta_preset={"name": "cosine_sum", "params": {}},
                         v_preset="sin2pi_y_one_plus_sin2pi_tau")
        assert not self.passes(prepare_experiment(rc).effective_generator)

    @pytest.mark.parametrize("n", [64, 63])
    def test_nan_and_odd_perturbations(self, n):
        g = kernel.assemble_heterogeneous_generator(
            kernel.Grid1D.make(n), kernel.KernelParams(alpha=1.5, theta=get_theta("one")))
        assert self.passes(g)
        broken = g.copy()
        broken[4, 9] = np.nan
        assert not self.passes(broken)
        # a symmetric perturbation of one pair, without its mirror image
        for factor, passes in ((10.0, False), (0.1, True)):
            bumped = g.copy()
            bumped[1, 2] += factor * REFLECTION_RTOL * np.max(np.abs(g))
            bumped[2, 1] = bumped[1, 2]
            assert self.passes(bumped) == passes, factor

    @pytest.mark.parametrize("odd", ["v", "h", "f"])
    def test_odd_inputs_scan_no_matrix(self, monkeypatch, odd):
        # the specs' parity is read first: an odd V, h or f checks neither generator
        rc = make_config(v_preset="sin2pi_y_one_plus_sin2pi_tau" if odd == "v" else "zero")
        specs = {"h": {"h_spec": HSpec("odd", lambda x: x * (1.0 - x ** 2))},
                 "f": {"f_spec": FSpec("odd", lambda t, x: np.cos(t) * x)}}
        rc = dataclasses.replace(rc, sim=dataclasses.replace(rc.sim, **specs.get(odd, {})))
        prepared = prepare_experiment(rc)
        calls = []
        monkeypatch.setattr(harness, "mirror_matches", lambda *a: calls.append(a) or True)
        coupled_errors(0.25, rc, [0, 1], prepared)
        assert calls == [] and "even_effective" not in vars(prepared)
        assert prepared.stepped == {0.25: ("full grid", "eigenbasis")}

    def test_an_odd_g_het_keeps_the_full_grid(self, monkeypatch):
        # even inputs and G_eff, but a level's G_het perturbed by an odd part
        # of 10 REFLECTION_RTOL max|G|
        rc, real = make_config(), harness.assemble_heterogeneous_generator

        def odd_part(*args):
            g = real(*args)
            g[1, 2] = g[2, 1] = g[1, 2] + 10.0 * REFLECTION_RTOL * np.max(np.abs(g))
            return g

        monkeypatch.setattr(harness, "assemble_heterogeneous_generator", odd_part)
        prepared = prepare_experiment(rc)
        coupled_errors(0.25, rc, [0, 1], prepared)
        assert prepared.even_effective is not None
        assert prepared.stepped == {0.25: ("full grid", "eigenbasis")}


class TestEvenHalfEquivalence:
    """A reflection-even run stepped on the even half against the same run
    forced onto the full grid (``_even_half`` patched to None): Theta one,
    whose G_eff is stepped in its eigenbasis at even n, and cosine_sum, both
    with the default potential cos 2pi y cos 2pi tau, at n = 64 and 63, 4
    paths. The mirrored sums and the (F + F^T)/2 symmetrization change the
    rounding, and Theta one's strong error (about 2e-6 at eps = 1/8) is a
    difference of nearly equal fields, which amplifies it. Measured at most,
    over both Theta, both n and eps = 1/2 and 1/8, at one and two BLAS
    threads: strong errors 1.2e-12 relative, weak errors 5.2e-10 of their
    row's maximum, states 3.2e-14 of max|u|. The same comparison at the
    default T = 1 with n = 256 and 1024 and eps = 1/2 and 1/16 read 6.3e-10,
    3.3e-9 and 1.0e-12. Tolerances: 1e-10, 1e-8 and 1e-12."""

    STRONG_RTOL, WEAK_RTOL, STATE_RTOL = 1e-10, 1e-8, 1e-12

    @staticmethod
    def run(monkeypatch, rc, eps, full):
        states, real = [], harness.lockstep

        def recording(steppers, u0, dw):
            for item in real(steppers, u0, dw):
                states.append([u.copy() for u in item[1]])
                yield item

        with monkeypatch.context() as m:
            m.setattr(harness, "lockstep", recording)
            if full:
                m.setattr(harness, "_even_half", lambda g: None)
            prepared = prepare_experiment(rc)
            err, weak, reasons = coupled_errors(eps, rc, [0, 1, 2, 3], prepared)
        assert reasons == [None] * 4
        assert prepared.stepped[eps][0] == ("full grid" if full else "even half")
        return err, weak, states

    @pytest.mark.parametrize("n", [64, 63])
    @pytest.mark.parametrize("theta", ["one", "cosine_sum"])
    def test_even_half_matches_the_full_grid(self, monkeypatch, theta, n):
        rc = make_config(grid={"n": n}, theta_preset={"name": theta, "params": {}})
        for eps in (0.5, 0.125):
            err, weak, half = self.run(monkeypatch, rc, eps, full=False)
            ref_err, ref_weak, full = self.run(monkeypatch, rc, eps, full=True)
            np.testing.assert_allclose(err, ref_err, rtol=self.STRONG_RTOL, atol=0)
            assert np.all(np.abs(weak - ref_weak)
                          <= self.WEAK_RTOL * np.max(np.abs(ref_weak), axis=0))
            assert len(half) == len(full) == rc.resolve_dt(eps)[1]
            for level, reference in zip(half, full):
                for u, u_ref in zip(level, reference):
                    mirrored = np.concatenate([u, u[:n // 2][::-1]])
                    scale = np.max(np.abs(u_ref))
                    assert np.max(np.abs(mirrored - u_ref)) <= self.STATE_RTOL * scale


def perfbench_module(name, monkeypatch):
    """The benchmark's perfbench/<name>.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def perfbench_tracer():
    """A Tracer from the benchmark's perfbench/tracer.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod.Tracer()


# config_hash of each benchmark workload's config at seed 0
WORKLOAD_HASHES = {
    "sweep_theta_one": "8247b1ba3d5e38302a1e6d298cc626c8e9d4550b647b934b5f4b68d6decadbd7",
    "sweep_theta_osc": "a8d53c21559c589dcc2fd7061b82cb5f0297d96057fc0a44fa210c5fc50f6f95",
    "simulate_eff_fine": "a5ae94a020acea85f054cfbb18f8e98ceef8f145f3677c60404c52bfd2234f5f",
}


def test_perfbench_workload_configs_parse_to_their_hashes(monkeypatch):
    # a schema change that rejects or rehashes a benchmark input would fail every
    # benchmark run, or compare it against other inputs
    workloads = perfbench_module("workloads", monkeypatch)
    hashes = {}
    for name, w in workloads.WORKLOADS.items():
        rc = RunConfig.from_dict({**w.config, "seed": 0})
        assert rc.sim_config() is rc.sim
        hashes[name] = rc.config_hash
    assert hashes == WORKLOAD_HASHES


def test_perfbench_has_a_workload_on_each_side_of_the_reflection_rule(monkeypatch):
    # sweep_theta_one is even in every input and steps the even half;
    # sweep_theta_osc's sin potential, which simulate_eff_fine shares, is odd
    workloads = perfbench_module("workloads", monkeypatch)
    even = {}
    for name, w in workloads.WORKLOADS.items():
        sim = RunConfig.from_dict({**w.config, "seed": 0}).sim
        even[name] = sim.v_spec.even and sim.h_spec.even and sim.f_spec.even
    assert even == {"sweep_theta_one": True, "sweep_theta_osc": False,
                    "simulate_eff_fine": False}
    for name, stepped in (("sweep_theta_one", "even half"), ("sweep_theta_osc", "full grid")):
        rc = RunConfig.from_dict({**workloads.WORKLOADS[name].config, "seed": 0})
        prepared = prepare_experiment(rc)
        eps = workloads.EPS_LIST[0]
        coupled_errors(eps, rc, [0, 1], prepared)
        assert prepared.stepped[eps][0] == stepped, name


@pytest.mark.parametrize("name", ["sweep_theta_one", "sweep_theta_osc"])
def test_perfbench_sweep_passes_its_gate(monkeypatch, name):
    # the benchmark's correctness gate at seed 0: the sweep's effective
    # coefficients, strong and weak errors against its stored reference
    workloads = perfbench_module("workloads", monkeypatch)
    gate = perfbench_module("gate", monkeypatch)
    workload = workloads.WORKLOADS[name]
    result = workloads.run(workload, 0)
    assert result["error"] is None
    assert gate.check(workload, 0, result["outputs"], gate.load_reference()) == []


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


@pytest.mark.parametrize("theta,effective_factors", [("one", 0), ("cosine_sum", 1)])
def test_perfbench_tracer_sees_the_sweep_counts(theta, effective_factors):
    # the count identities of the benchmark's sweep workloads, on a small
    # sweep: one assembly per eps plus one in the set-up, eight potential
    # phases per eps plus, for an oscillating Theta, the effective system
    # (Theta = 1 steps it in its eigenbasis), and one solve per step and system
    rc = make_config(theta_preset={"name": theta, "params": {}})
    eps_list, n_paths = [0.5, 0.25], 2
    tracer = perfbench_tracer()
    tracer.install_nshom()
    try:
        harness.eps_sweep(eps_list, n_paths, rc, harness.prepare_experiment(rc))
    finally:
        tracer.restore()
    n_steps = [rc.resolve_dt(eps)[1] for eps in eps_list]
    assert tracer.calls["kernel.assemble"] == len(eps_list) + 1
    assert tracer.calls["integrator.lu_factor"] == len(eps_list) * (8 + effective_factors)
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

    def test_fit_degenerate_at_the_floor(self):
        # errors of 1e-15 are rounding, below the floor 1e-14
        fit = fit_loglog([0.5, 0.25, 0.125], [1e-15, 1e-15, 1e-15])
        assert fit == {"slope": None, "intercept": None, "r2": None, "degenerate": True,
                       "reason": "errors at or below the tolerance floor 1e-14"}

    def test_fit_degenerate_with_one_error_at_the_floor(self):
        # an error exactly at the floor is rounding too
        fit = fit_loglog([0.5, 0.25], [FIT_FLOOR, 1e-3])
        assert fit == {"slope": None, "intercept": None, "r2": None, "degenerate": True,
                       "reason": "errors at or below the tolerance floor 1e-14"}

    def test_se_estimator_scales_like_inverse_sqrt_paths(self):
        rng = np.random.default_rng(0)
        pool = rng.standard_normal(128)
        ses = {m: monte_carlo_se(pool[:m]) for m in (8, 32, 128)}
        for m_small, m_big in ((8, 32), (32, 128)):
            ratio = ses[m_small] / ses[m_big]
            expected = np.sqrt(m_big / m_small)
            assert abs(ratio / expected - 1.0) < 0.30

    def test_se_of_fewer_than_two_values_is_nan(self):
        assert np.isnan(monte_carlo_se([]))
        assert np.isnan(monte_carlo_se([1.0]))


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
            rc.sim.grid, rc.sim.alpha)
        cfg = rc.sim
        eps = 0.125
        dt, n_steps = rc.resolve_dt(eps)
        path = brownian_increments(0, n_steps, dt)
        g_het = assemble_heterogeneous_generator(
            rc.sim.grid, KernelParams(alpha=rc.sim.alpha, theta=rc.sim.theta, epsilon=eps))
        res_het = simulate(Heterogeneous(eps), cfg, path, generator=g_het, store_trajectory=True)
        errors = {}
        for label, gen in (("full", prepared.effective_generator), ("naive", naive)):
            res_eff = simulate(Effective(prepared.coefficients), cfg, path, generator=gen,
                               store_trajectory=True)
            diff = res_het.trajectory[1:] - res_eff.trajectory[1:]
            errors[label] = dt * rc.sim.grid.h * float(np.sum(np.abs(diff) ** 2))
        assert errors["full"] < errors["naive"]


def gamma_at(d, alpha):
    """gamma(x, z) as a function of d = z - x: sign(d) |d|^{-(1+alpha)/2},
    0 where d = 0. At d = (x_j - x_i)/eps it is gamma(x_i/eps, x_j/eps),
    without the cancellation of x_j/eps - x_i/eps."""
    return np.sign(d) * np.abs(np.where(d == 0.0, 1.0, d)) ** (-(1.0 + alpha) / 2.0)


def five_field_residual(eps_list, rc, prepared):
    """The corrector diagnostic as its definition reads, on the same resolvent
    solutions (G + lam) r = f, solved here: D* r_eps, D* r_eff and the
    reconstruction D*_x r_eff + D*_y u1 as separate fields, then two differences."""
    grid, alpha = rc.sim.grid, rc.sim.alpha
    f = rc.sim.initial_field()
    shift = harness.RESOLVENT_SHIFT * np.eye(grid.n)
    coeffs = prepared.coefficients
    g_eff = effective.assemble_effective_generator(
        effective.EffectiveCoefficients.from_values(coeffs.xi1, coeffs.xi2), grid, alpha)
    r_eff = np.linalg.solve(g_eff + shift, f)
    diffs = grid.nodes[None, :] - grid.nodes[:, None]
    gam_x = gamma_at(diffs, alpha)
    dstar_eff = -(r_eff[None, :] - r_eff[:, None]) * gam_x
    zeta = effective.zeta_matrix(grid, alpha) @ r_eff
    out = []
    for eps in eps_list:
        g_het = kernel.assemble_heterogeneous_generator(
            grid, kernel.KernelParams(alpha=alpha, theta=rc.sim.theta, epsilon=eps))
        r_eps = np.linalg.solve(g_het + shift, f)
        dstar_het = -(r_eps[None, :] - r_eps[:, None]) * gam_x
        chi_fast = harness._interp_periodic(prepared.cell_solution, grid.nodes / eps)
        gam_y = gamma_at(diffs / eps, alpha)
        recon = dstar_eff + zeta[:, None] * (chi_fast[None, :] - chi_fast[:, None]) * gam_y
        out.append({"eps": eps,
                    "residual": grid.h * np.sqrt(np.sum(np.abs(dstar_het - recon) ** 2)),
                    "gradient_error": grid.h * np.sqrt(
                        np.sum(np.abs(dstar_het - dstar_eff) ** 2))})
    return out


class TestCorrectorDiagnostic:
    @pytest.mark.parametrize("theta", ["cosine_shift", "cosine_sum"])
    def test_periodic_interpolation_matches_the_wrapped_cell_grid(self, theta):
        # chi on the cell nodes plus its copy at y = 1, after reducing mod 1
        sol = cell.solve_cell_problem(get_theta(theta), 1.5, cell.CellGrid(m=128, m_tau=1))
        y = np.concatenate([sol.grid.y, [1.0]])
        chi = np.concatenate([sol.chi, sol.chi[:1]])
        for points in (np.random.default_rng(0).uniform(-40.0, 40.0, 4096),
                       kernel.Grid1D.make(256).nodes / 0.0625):
            assert np.array_equal(harness._interp_periodic(sol, points),
                                  np.interp(np.mod(points, 1.0), y, chi))

    @pytest.mark.parametrize("eps", [1 / 2, 1 / 16, 0.3])
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_fast_scale_gamma_is_the_scaled_gamma_matrix(self, n, alpha, eps):
        # gamma is homogeneous of degree -(1+alpha)/2: the diagnostic builds
        # gamma(x_i/eps, x_j/eps) as eps^{(1+alpha)/2} gamma(x_i, x_j)
        nodes = kernel.Grid1D.make(n).nodes
        want = gamma_at((nodes[None, :] - nodes[:, None]) / eps, alpha)
        got = eps ** ((1 + alpha) / 2) * kernel.gamma_matrix(nodes, alpha)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("theta", ["cosine_shift", "cosine_sum"])
    def test_agrees_with_the_five_field_reduction(self, theta):
        rc = make_config(theta_preset={"name": theta, "params": {}})
        prepared = prepare_experiment(rc)
        got = corrector_residual([0.25, 0.125], rc, prepared)
        want = five_field_residual([0.25, 0.125], rc, prepared)
        for g, w in zip(got, want, strict=True):
            assert sorted(g) == ["eps", "gradient_error", "residual"]
            assert g["eps"] == w["eps"]
            for key in ("residual", "gradient_error"):
                assert g[key] == pytest.approx(w[key], rel=1e-13, abs=0.0)

    def test_potential_and_noise_do_not_enter(self):
        theta = {"name": "cosine_sum", "params": {}}
        plain = make_config(theta_preset=theta, v_preset="zero", g={"kind": "zero", "sigma": 0.0})
        rc = make_config(theta_preset=theta, v_preset="sin2pi_y_one_plus_sin2pi_tau",
                         g={"kind": "linear", "sigma": 0.5})
        prepared = prepare_experiment(rc)
        assert abs(prepared.coefficients.xi3) > 1e-3
        assert (corrector_residual([0.25, 0.125], rc, prepared)
                == corrector_residual([0.25, 0.125], plain, prepare_experiment(plain)))

    def test_constant_theta_reads_zero(self, prepared_default):
        # chi == 0 and G_het(eps) == G_eff == L: both distances are rounding
        rc, prepared = prepared_default
        for diag in corrector_residual([0.5, 0.25, 0.125], rc, prepared):
            assert diag["residual"] <= 1e-14
            assert diag["gradient_error"] <= 1e-14

    def test_residual_decreases_with_eps_for_oscillating_theta(self):
        rc = make_config(theta_preset={"name": "cosine_product", "params": {}})
        d_coarse, d_fine = corrector_residual([0.25, 0.0625], rc, prepare_experiment(rc))
        assert d_fine["residual"] < d_coarse["residual"]

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_corrector_share_rises_toward_one_as_eps_falls(self, alpha):
        """The residual is below the gradient-level error, and their ratio rises
        at each halving of eps (0.688 -> 0.759 at alpha = 1.25, 0.758 -> 0.861 at
        1.5, 0.871 -> 0.947 at 1.75): the corrector accounts for a shrinking share."""
        rc = make_config(alpha=alpha, grid={"n": 256}, cell={"m": 256, "m_tau": 4},
                         theta_preset={"name": "cosine_sum", "params": {}})
        diags = corrector_residual([1 / 4, 1 / 8, 1 / 16, 1 / 32], rc, prepare_experiment(rc))
        ratios = [d["residual"] / d["gradient_error"] for d in diags]
        assert all(r < 1.0 for r in ratios), ratios
        assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios

    def test_constant_shift_of_chi_is_invisible(self, prepared_default):
        # D*_y annihilates constants, so shifting chi by a constant cannot
        # change the reconstruction; verified through the mean-zero solve
        rc, prepared = prepared_default
        assert prepared.cell_solution.mean_abs < 1e-14


@pytest.mark.parametrize("base", ["cosine_sum", "cosine_shift", "one"])
class TestThetaDoubling:
    """Theta -> 2 Theta, the ``scaled`` preset at factor 2 against factor 1. Both
    sides of the cell problem double, so chi is unchanged, Xi_1 and Xi_2 double
    and Xi_3 does not; both generators double, so with V = 0 and g = 0 each
    trajectory over T/2 at dt/2 is the original. A factor of 2 is exact in
    floating point, so every relation holds bit for bit."""

    @staticmethod
    def theta(base, factor):
        return {"name": "scaled", "params": {"base": base, "factor": factor}}

    def test_corrector_and_coefficients(self, base):
        grid, v = cell.CellGrid(m=64, m_tau=4), get_v("sin2pi_y_one_plus_sin2pi_tau")
        sols = [cell.solve_cell_problem(get_theta("scaled", base=base, factor=factor), 1.5, grid)
                for factor in (1.0, 2.0)]
        single, double = (effective.compute_effective_coefficients(s, v) for s in sols)
        assert np.array_equal(sols[1].chi, sols[0].chi)
        assert double.as_tuple() == (2.0 * single.xi1, 2.0 * single.xi2, single.xi3)

    def test_generators_and_trajectories(self, base):
        eps, n_steps = 0.125, 32
        runs = []
        for factor, horizon in ((1.0, 0.5), (2.0, 0.25)):
            rc = make_config(grid={"n": 128}, theta_preset=self.theta(base, factor), T=horizon,
                             v_preset="zero", g={"kind": "zero", "sigma": 0.0})
            prepared = prepare_experiment(rc)
            g_het = kernel.assemble_heterogeneous_generator(
                rc.sim.grid, kernel.KernelParams(alpha=rc.sim.alpha, theta=rc.sim.theta,
                                                 epsilon=eps))
            path = integrator.brownian_increments(0, n_steps, horizon / n_steps)
            states = [integrator.simulate(system, rc.sim, path, generator=g,
                                          store_trajectory=True).trajectory
                      for system, g in ((integrator.Heterogeneous(eps), g_het),
                                        (integrator.Effective(prepared.coefficients),
                                         prepared.effective_generator))]
            runs.append(((g_het, prepared.effective_generator), states))
        (gens, states), (gens2, states2) = runs
        for g, g2 in zip(gens, gens2):
            assert np.array_equal(g2, 2.0 * g)
        for u, u2 in zip(states, states2):
            assert np.array_equal(u2, u)
