"""Time-stepping tests: path generation, bridge refinement, norm behavior
under the theta scheme, Ito identity bookkeeping, and self-convergence."""

import warnings

import numpy as np
import pytest
from scipy import linalg

from nshom import integrator
from nshom.effective import EffectiveCoefficients
from nshom.integrator import (
    BrownianPath,
    Effective,
    Heterogeneous,
    NoiseModel,
    SimConfig,
    ThetaStepper,
    TrajectoryBlowup,
    brownian_increments,
    generator_product,
    simulate,
)
from nshom.kernel import Grid1D, KernelParams, assemble_heterogeneous_generator
from nshom.presets import HSpec, get_theta, get_v

ALPHA = 1.5
UNIT = EffectiveCoefficients.from_values(1.0)


@pytest.fixture(scope="module")
def grid():
    return Grid1D.make(64)


@pytest.fixture(scope="module")
def frac_gen(grid):
    return assemble_heterogeneous_generator(
        grid, KernelParams(alpha=ALPHA, theta=get_theta("one")))


class TestBrownianPath:
    def test_bitwise_determinism(self):
        a = brownian_increments(42, 2048, 1e-3)
        b = brownian_increments(42, 2048, 1e-3)
        assert np.array_equal(a.increments, b.increments)

    def test_different_seeds_differ(self):
        a = brownian_increments(1, 64, 1e-2)
        b = brownian_increments(2, 64, 1e-2)
        assert not np.array_equal(a.increments, b.increments)

    def test_sample_moments(self):
        path = brownian_increments(7, 100_000, 1e-2)
        assert abs(path.increments.var() / 1e-2 - 1.0) < 0.05
        assert abs(path.increments.mean()) < 5.0 * np.sqrt(1e-2 / 100_000)

    def test_bridge_pairwise_sums(self):
        path = brownian_increments(3, 512, 1.0 / 512)
        fine = path.refine()
        sums = fine.increments[0::2] + fine.increments[1::2]
        # exact up to one final rounding per pair
        assert np.max(np.abs(sums - path.increments)) <= 2.0 ** -52 * np.max(
            np.abs(path.increments))
        assert fine.dt == path.dt / 2.0
        assert fine.n_steps == 2 * path.n_steps

    def test_bridge_halves_have_correct_variance(self):
        path = brownian_increments(9, 50_000, 4e-2)
        fine = path.refine()
        assert abs(fine.increments.var() / 2e-2 - 1.0) < 0.05

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            brownian_increments(0, 0, 0.1)
        with pytest.raises(ValueError):
            brownian_increments(0, 10, 0.0)


class TestNoiseModel:
    def test_zero_returns_none(self):
        assert NoiseModel("zero").apply(np.ones(4)) is None

    def test_linear(self):
        u = np.array([1.0 + 1.0j, -2.0])
        out = NoiseModel("linear", 0.5).apply(u)
        assert np.array_equal(out, 0.5 * u)

    def test_bounded_is_bounded(self):
        u = np.array([1e6 + 0j, -1e6])
        out = NoiseModel("bounded", 0.5).apply(u)
        assert np.max(np.abs(out)) <= 0.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel("funky")

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_sigma_must_be_finite_nonnegative(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            NoiseModel("linear", sigma)


class TestThetaScheme:
    def test_crank_nicolson_conserves_norm(self, grid, frac_gen):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=1.0)
        path = brownian_increments(0, 128, 1.0 / 128)
        res = simulate(Effective(UNIT), cfg, path, store_trajectory=False,
                       generator=frac_gen)
        assert abs(res.norm2[-1] / res.norm2[0] - 1.0) < 1e-10

    def test_norm_conserved_with_oscillating_potential(self, grid):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=1.0,
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        path = brownian_increments(0, 128, 1.0 / 128)
        res = simulate(Heterogeneous(0.25), cfg, path, store_trajectory=False)
        assert abs(res.norm2[-1] / res.norm2[0] - 1.0) < 1e-8

    def test_effective_unit_equals_heterogeneous_constant_theta(self, grid, frac_gen):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5,
                        noise=NoiseModel("bounded", 0.5))
        path = brownian_increments(5, 64, 0.5 / 64)
        res_h = simulate(Heterogeneous(0.25), cfg, path)
        res_e = simulate(Effective(UNIT), cfg, path, generator=frac_gen)
        assert np.max(np.abs(res_h.trajectory - res_e.trajectory)) < 1e-10

    def test_linear_noise_growth_magnitude(self, grid, frac_gen):
        sigma, T = 0.5, 1.0
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=T, noise=NoiseModel("linear", sigma))
        for n_steps in (64, 256):
            path = brownian_increments(3, n_steps, T / n_steps)
            res = simulate(Effective(UNIT), cfg, path, store_trajectory=False,
                           generator=frac_gen)
            rel = abs(res.norm2[-1] / (res.norm2[0] * np.exp(sigma ** 2 * T)) - 1.0)
            # pathwise error dominated by sigma^2 (sum dW^2 - T) ~ N(0, 2 sigma^4 T dt)
            assert rel < 8.0 * sigma ** 2 * np.sqrt(2.0 * T / n_steps)

    def test_step_superposition_with_linear_noise(self, grid, frac_gen):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=1e-2, noise=NoiseModel("linear", 0.4))
        stepper = ThetaStepper(Effective(UNIT), cfg, 1e-2, 1, generator=frac_gen)
        out = stepper.step(np.stack([u + v, u, v], axis=1), 0, np.full(3, 0.03))
        assert np.max(np.abs(out[:, 0] - (out[:, 1] + out[:, 2]))) < 1e-12

    def test_zero_initial_datum_stays_zero(self, grid, frac_gen):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.25,
                        h_spec=HSpec("null", lambda x: np.zeros_like(x)),
                        noise=NoiseModel("bounded", 0.5))
        path = brownian_increments(2, 32, 0.25 / 32)
        res = simulate(Effective(UNIT), cfg, path, generator=frac_gen)
        assert np.max(np.abs(res.trajectory)) == 0.0

    def test_forcing_enters_with_minus_i(self, grid, frac_gen):
        from nshom.presets import FSpec
        f = FSpec("const", lambda t, x: np.ones_like(x, dtype=complex))
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.1, f_spec=f)
        stepper = ThetaStepper(Effective(UNIT), cfg, 0.1, 1,
                               generator=np.zeros((grid.n, grid.n)))
        out = stepper.step(np.zeros((grid.n, 1), dtype=complex), 0, np.zeros(1))
        assert np.allclose(out[:, 0], -0.1j * np.ones(grid.n))

    def test_blowup_detected_with_explicit_scheme(self, grid):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=1.0, theta_scheme=0.0)
        path = brownian_increments(0, 10, 0.1)
        with pytest.raises(TrajectoryBlowup) as excinfo:
            simulate(Heterogeneous(0.5), cfg, path)
        assert 1 <= excinfo.value.step <= 10

    @pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0])
    def test_horizon_must_be_finite_positive(self, grid, T):
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(grid=grid, alpha=ALPHA, T=T)

    def test_path_horizon_mismatch_rejected(self, grid):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=1.0)
        with pytest.raises(ValueError, match="horizon"):
            simulate(Effective(UNIT), cfg, brownian_increments(0, 10, 0.05))


class TestItoIdentity:
    def test_per_step_norm_expansion(self, grid, frac_gen):
        """The discrete norm increment minus the Ito expansion terms
        2 Im(f, u) dt + 2 Im(g(u), u) dW + ||g(u)||^2 dt accumulates to a
        defect that shrinks with dt (random quadratic-variation part scales
        like sqrt(dt), deterministic part like dt)."""
        sigma, T = 0.5, 1.0
        h = grid.h
        defects = []
        for n_steps in (64, 256, 1024):
            cfg = SimConfig(grid=grid, alpha=ALPHA, T=T, noise=NoiseModel("linear", sigma))
            path = brownian_increments(12, n_steps, T / n_steps)
            res = simulate(Effective(UNIT), cfg, path, generator=frac_gen)
            traj = res.trajectory
            total = 0.0
            for k in range(n_steps):
                u = traj[k]
                gu = sigma * u
                dW = path.increments[k]
                ito_terms = (2.0 * np.imag(h * np.sum(gu * np.conj(u))) * dW
                             + h * float(np.sum(np.abs(gu) ** 2)) * (T / n_steps))
                total += res.norm2[k + 1] - res.norm2[k] - ito_terms
            defects.append(abs(total))
        assert defects[-1] < defects[0]
        order = np.log2(defects[0] / defects[-1]) / 2.0  # two refinement levels of 4x
        assert order > 0.3, f"defects {defects}"

    def test_deterministic_self_convergence_second_order(self):
        # theta = 1/2, g = 0, oscillating potential: halving dt gives temporal
        # order about 2 once the stiffest mode is resolved (lambda_max dt < 1),
        # hence the small spatial grid and fine steps here
        small = Grid1D.make(16)
        cfg = SimConfig(grid=small, alpha=ALPHA, T=0.5,
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        finals = []
        for n_steps in (256, 512, 1024):
            path = brownian_increments(0, n_steps, 0.5 / n_steps)
            res = simulate(Heterogeneous(0.5), cfg, path, store_trajectory=False)
            finals.append(res.final)
        e1 = np.sqrt(small.h * np.sum(np.abs(finals[0] - finals[1]) ** 2))
        e2 = np.sqrt(small.h * np.sum(np.abs(finals[1] - finals[2]) ** 2))
        order = np.log2(e1 / e2)
        assert 1.8 <= order <= 2.2, f"observed temporal order {order}"

    def test_stochastic_strong_self_convergence(self, grid, frac_gen):
        """Strong order >= 0.4 on bridge-refined coupled paths, bounded noise."""
        T = 1.0
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=T, noise=NoiseModel("bounded", 0.5))
        n_paths = 16
        diffs = {0: [], 1: []}
        for seed in range(n_paths):
            paths = [brownian_increments(seed, 32, T / 32)]
            paths.append(paths[0].refine())
            paths.append(paths[1].refine())
            finals = [simulate(Effective(UNIT), cfg, p, store_trajectory=False,
                               generator=frac_gen).final for p in paths]
            for lev in (0, 1):
                diffs[lev].append(grid.h * np.sum(np.abs(finals[lev] - finals[lev + 1]) ** 2))
        e0 = np.sqrt(np.mean(diffs[0]))
        e1 = np.sqrt(np.mean(diffs[1]))
        order = np.log2(e0 / e1)
        assert order >= 0.4, f"observed strong order {order}"


def reference_run(g_mat, cfg, path, eps=None):
    """Discrete norms and final state of a plain single-path theta loop, the
    reference for simulate: complex G @ u, one factorization per potential
    phase, the potential sampled at the theta point of every step and the
    noise at its left end (forcing left out)."""
    dt, theta_s, n = path.dt, cfg.theta_scheme, cfg.grid.n
    u = cfg.initial_field().astype(complex)
    norms = [cfg.grid.h * np.sum(np.abs(u) ** 2)]
    factors = {}
    for k in range(path.n_steps):
        key, v_diag = None, np.zeros(n)
        if eps is not None:
            tau = ((k * dt + theta_s * dt) / eps) % 1.0
            key = round(tau, 12)
            v_diag = eps ** ((1.0 - cfg.alpha) / 2.0) * cfg.v_spec.sample(
                np.mod(cfg.grid.nodes / eps, 1.0), tau)
        rhs = u - 1j * (1.0 - theta_s) * dt * (g_mat.astype(complex) @ u + v_diag * u)
        gu = cfg.noise.apply(u)
        if gu is not None:
            rhs = rhs - 1j * gu * path.increments[k]
        if key not in factors:
            factors[key] = linalg.lu_factor(
                np.eye(n) + 1j * theta_s * dt * (g_mat + np.diag(v_diag)))
        u = linalg.lu_solve(factors[key], rhs)
        norms.append(cfg.grid.h * np.sum(np.abs(u) ** 2))
    return np.array(norms), u


class TestEnsembleStepper:
    def test_real_view_product_matches_complex_product(self, frac_gen):
        rng = np.random.default_rng(3)
        g_mat = frac_gen
        u = rng.standard_normal((g_mat.shape[0], 5)) + 1j * rng.standard_normal((g_mat.shape[0], 5))
        expected = g_mat.astype(complex) @ u
        np.testing.assert_allclose(generator_product(g_mat, u), expected, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(expected)))
        # a column-major state (as lu_solve returns it) gives the same product
        assert np.array_equal(generator_product(g_mat, np.asfortranarray(u)),
                              generator_product(g_mat, u))

    @pytest.mark.parametrize("system", ["het", "eff"])
    def test_simulate_matches_single_path_reference(self, grid, frac_gen, system):
        if system == "het":
            eps = 0.25
            cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5, noise=NoiseModel("bounded", 0.5),
                            v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
            sim_system = Heterogeneous(eps)
        else:
            eps = None
            cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5, noise=NoiseModel("linear", 0.5))
            sim_system = Effective(UNIT)
        path = brownian_increments(6, 64, 0.5 / 64)
        res = simulate(sim_system, cfg, path, generator=frac_gen, store_trajectory=False)
        norms, final = reference_run(frac_gen, cfg, path, eps)
        np.testing.assert_allclose(res.norm2, norms, rtol=1e-12)
        np.testing.assert_allclose(res.final, final, rtol=1e-12)

    def test_cyclic_phase_factorizes_once_per_phase(self, grid, frac_gen):
        eps = 0.25
        dt = eps / 8.0
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=64 * dt,
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        stepper = ThetaStepper(Heterogeneous(eps), cfg, dt, 64, generator=frac_gen)
        u = cfg.initial_field().astype(complex)[:, None]
        for k in range(64):
            u = stepper.step(u, k, np.zeros(1))
        assert (stepper.misses, stepper.hits) == (8, 56)

    def test_cache_bound_refactorizes_without_changing_results(self, grid, frac_gen,
                                                               monkeypatch):
        eps = 0.25
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5, noise=NoiseModel("bounded", 0.5),
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        path = brownian_increments(2, 16, 0.5 / 16)
        unbounded = simulate(Heterogeneous(eps), cfg, path, generator=frac_gen)
        calls = []
        real_factor = integrator.lu_factor
        monkeypatch.setattr(integrator, "lu_factor",
                            lambda a: calls.append(1) or real_factor(a))
        # room for three of the eight phases: a cycle longer than the cache
        # misses on every step
        monkeypatch.setattr(integrator, "LU_CACHE_BYTES", 3 * 16 * grid.n ** 2)
        bounded = simulate(Heterogeneous(eps), cfg, path, generator=frac_gen)
        assert len(calls) == path.n_steps
        assert np.array_equal(bounded.trajectory, unbounded.trajectory)

    def test_noncycling_phase_warns_once(self, grid, frac_gen):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5,
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        path = brownian_increments(0, 16, 1.0 / 32.0)
        with pytest.warns(UserWarning, match="does not cycle") as caught:
            simulate(Heterogeneous(0.3), cfg, path, generator=frac_gen)
        assert sum("does not cycle" in str(w.message) for w in caught) == 1

    def test_short_cycling_run_does_not_warn(self, grid, frac_gen):
        # dt = eps/16 over 16 steps: one full period, every phase distinct
        eps = 0.25
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=eps,
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        path = brownian_increments(0, 16, eps / 16.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(Heterogeneous(eps), cfg, path, generator=frac_gen)
