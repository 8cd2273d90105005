"""Time-stepping tests: path generation, bridge refinement, norm behavior
under the theta scheme, Ito identity bookkeeping, and self-convergence."""

import ast
import dataclasses
import inspect
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg
from scipy.linalg.lapack import zsytrf, zsytrf_lwork, zsytrs

from nshom import integrator
from nshom.config import RunConfig
from nshom.effective import EffectiveCoefficients, assemble_effective_generator
from nshom.harness import coupled_errors, eps_sweep, prepare_experiment
from nshom.integrator import (
    Effective,
    Factor,
    Heterogeneous,
    NoiseModel,
    SimConfig,
    ThetaStepper,
    TrajectoryBlowup,
    brownian_increments,
    lockstep,
    simulate,
)
from nshom.kernel import Grid1D, KernelParams, assemble_heterogeneous_generator
from nshom.presets import REFLECTION_RTOL, FSpec, HSpec, VSpec, get_theta, get_v, mirror_matches

ALPHA = 1.5
UNIT = EffectiveCoefficients.from_values(1.0)
# a potential whose tau-profile sin(2 pi tau) + cos(6 pi tau) has no
# reflection tau -> c - tau (sin needs c = 1/2, cos(6 pi tau) c in {0, 1/3,
# 2/3}), so the eight phases (2k + 1)/16 of dt = eps/8 keep eight diagonals;
# sin(2 pi tau) + cos(4 pi tau) would not do, since it is even about 1/4
NO_TAU_SYMMETRY = VSpec("sin2pi_y_sin2pi_tau_plus_cos6pi_tau", lambda y, tau: np.sin(
    2 * np.pi * y) * (np.sin(2 * np.pi * tau) + np.cos(6 * np.pi * tau)))


@pytest.fixture(scope="module")
def grid():
    return Grid1D.make(64)


@pytest.fixture(scope="module")
def frac_gen(grid):
    return assemble_heterogeneous_generator(
        grid, KernelParams(alpha=ALPHA, theta=get_theta("one")))


class TestBrownianPath:
    def test_bitwise_determinism(self):
        assert integrator.path_determinism_error(2048) == (0.0, 0.0)

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

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1.0])
    def test_step_must_be_finite_positive(self, dt):
        with pytest.raises(ValueError, match=f"dt must be finite and positive, got {dt!r}"):
            brownian_increments(0, 4, dt)


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

    def test_bounded_divides_by_one_plus_modulus(self):
        # |u| = 5 and 1/2: sigma u / (1 + |u|), not sigma u / (1 + |u|^2)
        u = np.array([3.0 + 4.0j, 0.3 - 0.4j])
        out = NoiseModel("bounded", 0.5).apply(u)
        assert out == pytest.approx([0.5 * (3.0 + 4.0j) / 6.0, 0.5 * (0.3 - 0.4j) / 1.5],
                                    rel=1e-15, abs=0.0)

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

    def test_norm_conserved_with_oscillating_potential(self):
        err, tol = integrator.norm_drift_error(ALPHA, n_steps=128)
        assert err <= tol

    def test_effective_unit_equals_heterogeneous_constant_theta(self, grid, frac_gen):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5,
                        noise=NoiseModel("bounded", 0.5))
        path = brownian_increments(5, 64, 0.5 / 64)
        res_h = simulate(Heterogeneous(0.25), cfg, path, store_trajectory=True)
        res_e = simulate(Effective(UNIT), cfg, path, generator=frac_gen, store_trajectory=True)
        assert np.max(np.abs(res_h.trajectory - res_e.trajectory)) < 1e-10

    def test_linear_noise_growth_magnitude(self):
        for n_steps in (64, 256):
            err, tol = integrator.ito_growth_error(ALPHA, n_steps)
            assert err <= tol

    def test_step_superposition_with_linear_noise(self, grid, frac_gen):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=1e-2, noise=NoiseModel("linear", 0.4))
        stepper = ThetaStepper(frac_gen, cfg, 1e-2, 1)
        out = stepper.step(np.stack([u + v, u, v], axis=1), 0, np.full(3, 0.03))
        assert np.max(np.abs(out[:, 0] - (out[:, 1] + out[:, 2]))) < 1e-12

    def test_zero_initial_datum_stays_zero(self, grid, frac_gen):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.25,
                        h_spec=HSpec("null", lambda x: np.zeros_like(x)),
                        noise=NoiseModel("bounded", 0.5))
        path = brownian_increments(2, 32, 0.25 / 32)
        res = simulate(Effective(UNIT), cfg, path, generator=frac_gen, store_trajectory=True)
        assert np.max(np.abs(res.trajectory)) == 0.0

    def test_forcing_enters_with_minus_i(self, grid, frac_gen):
        from nshom.presets import FSpec
        f = FSpec("const", lambda t, x: np.ones_like(x, dtype=complex))
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.1, f_spec=f)
        stepper = ThetaStepper(np.zeros((grid.n, grid.n)), cfg, 0.1, 1)
        out = stepper.step(np.zeros((grid.n, 1), dtype=complex), 0, np.zeros(1))
        assert np.allclose(out[:, 0], -0.1j * np.ones(grid.n))

    def test_blowup_detected_under_strong_linear_noise(self, grid):
        # each step multiplies the norm by about 1 + sigma^2 dt = 4001
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=1.0, noise=NoiseModel("linear", 200.0))
        path = brownian_increments(0, 10, 0.1)
        with pytest.raises(TrajectoryBlowup) as excinfo:
            simulate(Heterogeneous(0.5), cfg, path)
        assert excinfo.value.step == 8
        assert str(excinfo.value) == (
            "trajectory diverged at step 8: heterogeneous system at eps=0.5")

    @pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0, -1.0])
    def test_horizon_must_be_finite_positive(self, grid, T):
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(grid=grid, alpha=ALPHA, T=T)

    @pytest.mark.parametrize("theta_s", [0.0, 0.25, 0.49, 1.01, float("nan")])
    def test_theta_outside_one_half_to_one_is_rejected(self, grid, theta_s):
        # below 1/2 the scheme amplifies every mode of a Hermitian generator
        with pytest.raises(ValueError, match=r"theta_scheme must lie in \[1/2, 1\]"):
            SimConfig(grid=grid, alpha=ALPHA, T=1.0, theta_scheme=theta_s)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 2.5, float("nan")])
    def test_alpha_outside_one_to_two_is_rejected(self, grid, alpha):
        # the potential amplitude eps^{(1 - alpha)/2} and the kernel assume 1 < alpha < 2
        with pytest.raises(ValueError, match=r"alpha must lie in \(1, 2\)"):
            SimConfig(grid=grid, alpha=alpha, T=1.0)

    def test_config_is_frozen(self, grid):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.T = 2.0

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("make", [
        Heterogeneous, lambda eps: KernelParams(alpha=ALPHA, theta=get_theta("one"), epsilon=eps)],
        ids=["Heterogeneous", "KernelParams"])
    def test_epsilon_must_be_finite_positive(self, make, eps):
        with pytest.raises(ValueError, match=f"epsilon must be finite and positive, got {eps!r}"):
            make(eps)

    @pytest.mark.parametrize("every", [0, -3])
    def test_snapshot_interval_must_be_positive(self, grid, every):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=1.0)
        with pytest.raises(ValueError, match="snapshot_every must be >= 1"):
            simulate(Effective(UNIT), cfg, brownian_increments(0, 8, 0.125),
                     snapshot_every=every)

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
            res = simulate(Effective(UNIT), cfg, path, generator=frac_gen, store_trajectory=True)
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
    # two periods of dt = eps/32: each preset potential pairs the 32 phases
    # into 16 diagonals (cos: tau and 1 - tau; 1 + sin: tau and 1/2 - tau),
    # which the reference factorizes once per phase
    @pytest.mark.parametrize("system, v_name", [("het", "cos2pi_y_times_cos2pi_tau"),
                                                ("het", "sin2pi_y_one_plus_sin2pi_tau"),
                                                ("eff", "zero")])
    def test_simulate_matches_single_path_reference(self, grid, frac_gen, system, v_name):
        if system == "het":
            eps = 0.25
            cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5, noise=NoiseModel("bounded", 0.5),
                            v_spec=get_v(v_name))
            sim_system = Heterogeneous(eps)
        else:
            eps = None
            cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5, noise=NoiseModel("linear", 0.5))
            sim_system = Effective(UNIT)
        path = brownian_increments(6, 64, 0.5 / 64)
        res = simulate(sim_system, cfg, path, generator=frac_gen, store_trajectory=False)
        norms, final = reference_run(frac_gen, cfg, path, eps)
        assert res.factorizations == (16 if system == "het" else 1)
        np.testing.assert_allclose(res.norm2, norms, rtol=1e-12)
        np.testing.assert_allclose(res.final, final, rtol=1e-12)

    # cos(2 pi tau) takes one value at tau and 1 - tau, so the eight phases
    # (2k + 1)/16 of theta = 1/2 share four diagonals. At theta = 1 and
    # eps = 0.1 the phases are k/8 (the eighth rounds to 1.0, which is phase
    # 0): 1/8 and 7/8, and 3/8 and 5/8, pair; 0 and 1/2 stand alone, and so
    # do 1/4 and 3/4, whose diagonals are rounding (cos = 6e-17 and -1.8e-16)
    # and differ by more than REFLECTION_RTOL of their own size. A potential
    # without tau-symmetry keeps one factor per phase
    @pytest.mark.parametrize("eps, theta_s, v_spec, groups", [
        (0.25, 0.5, get_v("cos2pi_y_times_cos2pi_tau"), 4),
        (0.1, 1.0, get_v("cos2pi_y_times_cos2pi_tau"), 6),
        (0.25, 0.5, NO_TAU_SYMMETRY, 8)], ids=["cos-0.25-0.5", "cos-0.1-1.0", "no-symmetry"])
    def test_cyclic_phase_factorizes_once_per_phase(self, grid, frac_gen, eps, theta_s,
                                                    v_spec, groups):
        dt = eps / 8.0
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=64 * dt, theta_scheme=theta_s, v_spec=v_spec)
        stepper = ThetaStepper(frac_gen, cfg, dt, 64, eps)
        u = cfg.initial_field().astype(complex)[:, None]
        for k in range(64):
            u = stepper.step(u, k, np.zeros(1))
        assert len(set(stepper._keys)) == groups
        assert (stepper.misses, stepper.hits) == (groups, 64 - groups)

    def test_phase_keys_keep_twelve_digits(self):
        """At dt = eps/8 (1 + 1e-6) the phases of steps k and k + 8 differ by
        about 1e-6, so each of 64 steps factorizes (one warning says so); a key
        rounded to 4 digits would merge them into 8 factorizations."""
        grid, eps = Grid1D.make(32), 0.25
        gen = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=ALPHA, theta=get_theta("one")))
        dt = eps / 8.0 * (1.0 + 1e-6)
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=64 * dt,
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stepper = ThetaStepper(gen, cfg, dt, 64, eps)
            u = cfg.initial_field().astype(complex)[:, None]
            for k in range(64):
                u = stepper.step(u, k, np.zeros(1))
        assert (stepper.misses, stepper.hits, len(caught)) == (64, 0, 1)
        assert "does not cycle" in str(caught[0].message)

    def test_cache_smaller_than_the_cycle_warns_once(self, grid, frac_gen, monkeypatch):
        """Eight phases at dt = eps/8, sharing four diagonals, against room
        for three: one warning per run once a diagonal recurs, none for half
        a cycle (each diagonal used once) or a cache that holds all four."""
        eps = 0.25
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5, v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        monkeypatch.setattr(integrator, "LU_CACHE_BYTES", 3 * 16 * grid.n ** 2)
        with pytest.warns(UserWarning) as caught:
            simulate(Heterogeneous(eps), cfg, brownian_increments(0, 16, eps / 8.0),
                     generator=frac_gen)
        assert [str(w.message) for w in caught] == [
            "heterogeneous system at eps=0.25: LU_CACHE_BYTES keeps the factors of 3 of the "
            "4 recurring potential diagonals, so the others refactorize whenever they recur"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ThetaStepper(frac_gen, cfg, eps / 8.0, 4, eps)
            monkeypatch.setattr(integrator, "LU_CACHE_BYTES", 4 * 16 * grid.n ** 2)
            ThetaStepper(frac_gen, cfg, eps / 8.0, 16, eps)

    def test_cache_bound_refactorizes_without_changing_results(self, grid, frac_gen,
                                                               monkeypatch):
        eps = 0.25
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5, noise=NoiseModel("bounded", 0.5),
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        path = brownian_increments(2, 16, 0.5 / 16)
        unbounded = simulate(Heterogeneous(eps), cfg, path, generator=frac_gen,
                             store_trajectory=True)
        calls = []
        real_factor = integrator.lu_factor
        monkeypatch.setattr(integrator, "lu_factor",
                            lambda *args, **kwargs: calls.append(1) or real_factor(*args, **kwargs))
        # room for three of the four diagonals, used in the order
        # a b c d d c b a twice: a, b and c factorize once, and d at each of
        # its four uses
        monkeypatch.setattr(integrator, "LU_CACHE_BYTES", 3 * 16 * grid.n ** 2)
        with pytest.warns(UserWarning, match="keeps the factors of 3 of the 4"):
            bounded = simulate(Heterogeneous(eps), cfg, path, generator=frac_gen,
                               store_trajectory=True)
        assert len(calls) == 7
        assert (bounded.factorizations, bounded.factor_hits) == (7, 9)
        assert np.array_equal(bounded.trajectory, unbounded.trajectory)

    @pytest.mark.parametrize("slots", [3, 1])
    @pytest.mark.parametrize("steps_per_period", [10, 12])
    def test_capped_cache_is_bitwise_the_uncapped_run(self, monkeypatch, steps_per_period,
                                                      slots):
        """At dt = eps/10 and eps/12 the theta points t/eps of one phase's
        steps differ in their last bits, so a factor must be built from the
        phase key, not from the step that happens to build it: a capped cache
        that refactorizes recurring phases then gives bitwise the uncapped
        trajectory. cos(2 pi tau) pairs the phases tau and 1 - tau, so each
        cycle has six diagonals: at eps/10 four pairs and the rounding-sized
        diagonals of 1/4 and 3/4 (test_cyclic_phase_factorizes_once_per_phase),
        at eps/12 six pairs. Over three cycles a pair is used six times and
        a single phase three. The capped cache keeps the first ``slots``
        diagonals in order of first use, 0.05, 0.15, 0.25 at eps/10, and every
        other diagonal is refactorized each time it recurs."""
        grid, eps = Grid1D.make(32), 0.25
        gen = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=ALPHA, theta=get_theta("one")))
        dt, n_steps = eps / steps_per_period, 3 * steps_per_period
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=n_steps * dt, noise=NoiseModel("bounded", 0.5),
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        path = brownian_increments(4, n_steps, dt)
        uncapped = simulate(Heterogeneous(eps), cfg, path, generator=gen, store_trajectory=True)
        assert uncapped.factorizations == 6
        monkeypatch.setattr(integrator, "LU_CACHE_BYTES", slots * 16 * grid.n ** 2)
        with pytest.warns(UserWarning, match=f"keeps the factors of {slots} of the 6 "):
            capped = simulate(Heterogeneous(eps), cfg, path, generator=gen,
                              store_trajectory=True)
        hits = {(10, 3): 5 + 5 + 2, (10, 1): 5, (12, 3): 5 + 5 + 5, (12, 1): 5}
        expected = hits[steps_per_period, slots]
        assert (capped.factorizations, capped.factor_hits) == (n_steps - expected, expected)
        assert np.array_equal(capped.trajectory, uncapped.trajectory)

    @staticmethod
    def filled_slots(monkeypatch):
        """Patch integrator.lu_factor to record the matrix each call factorizes."""
        filled, real = [], integrator.lu_factor
        monkeypatch.setattr(integrator, "lu_factor",
                            lambda a, **kwargs: filled.append(a) or real(a, **kwargs))
        return filled

    @pytest.mark.parametrize("columns", [1, 2])
    def test_cached_factors_live_in_the_block(self, grid, frac_gen, monkeypatch, columns):
        """Eight phases at dt = eps/8 with four diagonals: one C-order
        (4, n, n) block, the i-th distinct key written into slot i and
        factorized there in place."""
        eps = 0.25
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5, v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        filled = self.filled_slots(monkeypatch)
        stepper = ThetaStepper(frac_gen, cfg, eps / 8.0, 16, eps)
        u = np.ones((grid.n, columns), dtype=complex)
        for k in range(16):
            u = stepper.step(u, k, np.zeros(columns))
        block = stepper._block
        assert block.shape == (4, grid.n, grid.n) and block.flags.c_contiguous
        assert list(stepper._factors) == stepper._keys[:4] and len(filled) == 4
        for i, (a, factor) in enumerate(zip(filled, stepper._factors.values())):
            assert a.base is block and a.__array_interface__ == block[i].__array_interface__
            assert np.shares_memory(factor.matrix, block[i])
            assert not np.shares_memory(factor.matrix, np.delete(block, i, axis=0))

    def test_one_phase_without_potential_takes_one_slot(self, grid, frac_gen):
        stepper = ThetaStepper(frac_gen, SimConfig(grid=grid, alpha=ALPHA, T=0.5), 0.5 / 16, 16)
        factor = stepper._factors_at(0)
        assert stepper._block.shape == (1, grid.n, grid.n)
        assert np.shares_memory(factor.matrix, stepper._block)

    def test_phases_that_never_recur_share_one_spare_slot(self, grid, frac_gen):
        """eps = 0.3 with 27 steps of dt = 1/27 (eps/dt = 8.1), whose 27
        phase keys never recur: one warning says the phase does not cycle,
        every step factorizes in the one spare slot, nothing is cached, and
        the run's traced peak stays below three slots."""
        eps, dt, n_steps = 0.3, 1.0 / 27, 27
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=1.0, v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning) as caught:
                stepper = ThetaStepper(frac_gen, cfg, dt, n_steps, eps)
                u = cfg.initial_field().astype(complex)[:, None]
                for k in range(n_steps):
                    u = stepper.step(u, k, np.zeros(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(caught) == 1 and "does not cycle" in str(caught[0].message)
        assert (stepper.misses, stepper.hits) == (27, 0)
        assert stepper._slots == {} and stepper._factors == {}
        assert stepper._block.shape == (1, grid.n, grid.n)
        assert peak < 3 * 16 * grid.n ** 2

    def test_eps_over_rule_lets_the_phases_of_eps_0_3_recur(self, grid, frac_gen):
        """The default eps_over rule (factor 8, T = 1) gives eps = 0.3 the
        step 0.3/9 = 1/30 and 30 steps, so the phase t/eps cycles every 9
        steps, through (2k + 1)/18. cos(2 pi tau) pairs them into four
        diagonals and the phase 1/2: 5 factorizations and 25 hits, with no
        warning."""
        eps = 0.3
        dt, n_steps = RunConfig.from_dict({}).resolve_dt(eps)
        assert (dt, n_steps) == (1.0 / 30, 30)
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=1.0, v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stepper = ThetaStepper(frac_gen, cfg, dt, n_steps, eps)
            u = cfg.initial_field()[:, None]
            for k in range(n_steps):
                u = stepper.step(u, k, np.zeros(1))
        assert (stepper.misses, stepper.hits) == (5, 25)

    def test_only_recurring_phases_keep_a_slot(self, grid, frac_gen, monkeypatch):
        """1.5 periods at dt = eps/8 of a potential whose 8 phases keep 8
        diagonals: of the 8 phases of 12 steps the first 4 recur. They take
        slots 0-3 in order of first use and the other 4 the spare slot of a
        (5, n, n) block, so 8 misses and 4 hits; the trajectory is bitwise
        that of a cache with one slot."""
        eps, n_steps = 0.25, 12
        dt = eps / 8.0
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=n_steps * dt, noise=NoiseModel("bounded", 0.5),
                        v_spec=NO_TAU_SYMMETRY)
        dw = brownian_increments(3, n_steps, dt).increments[:, None]
        u0 = cfg.initial_field().astype(complex)[:, None]

        def run():
            stepper = ThetaStepper(frac_gen, cfg, dt, n_steps, eps)
            return stepper, [u.copy() for _, (u,), _, _ in lockstep([stepper], u0, dw)]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stepper, states = run()
        keys = stepper._keys
        assert len(set(keys)) == 8 and keys[8:] == keys[:4]
        assert list(stepper._slots) == list(stepper._factors) == keys[:4]
        assert stepper._block.shape == (5, grid.n, grid.n)
        assert (stepper.misses, stepper.hits) == (8, 4)
        monkeypatch.setattr(integrator, "LU_CACHE_BYTES", 16 * grid.n ** 2)
        with pytest.warns(UserWarning, match="keeps the factors of 1 of the 4 recurring"):
            one_slot, one_slot_states = run()
        assert one_slot._block.shape == (2, grid.n, grid.n)
        assert (one_slot.misses, one_slot.hits) == (11, 1)
        assert all(np.array_equal(a, b) for a, b in zip(states, one_slot_states, strict=True))

    def test_failed_factorization_is_wrapped_once(self, grid, frac_gen, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(integrator, "lu_factor", singular)
        eps = 0.25
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5,
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        stepper = ThetaStepper(frac_gen, cfg, eps / 8.0, 16, eps)
        with pytest.raises(integrator.LinearSolveError) as excinfo:
            stepper.step(cfg.initial_field().astype(complex)[:, None], 0, np.zeros(1))
        # step 0 is frozen at the theta point dt / 2, phase 1/16
        assert str(excinfo.value) == ("heterogeneous system at eps=0.25, phase 0.0625: "
                                      "implicit factorization failed: singular matrix")
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("theta_s", [0.5, 1.0])
    @pytest.mark.parametrize("system", ["het", "eff"])
    def test_step_matches_explicit_product_update(self, grid, theta_s, system, monkeypatch):
        """ThetaStepper.step against the update it replaced: the complex
        product in u - i(1-theta)dt H u plus noise and forcing, solved with
        the LU of I + i theta dt (G + diag v), at 1e-12 max|u|."""
        forcing = FSpec("bump", lambda t, x: (1.0 - x ** 2) * (1.0 + 1j * t))
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5, theta_scheme=theta_s,
                        theta=get_theta("cosine_product"), f_spec=forcing,
                        noise=NoiseModel("bounded", 0.5),
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        eps, dt, n_steps = 0.25, 0.5 / 32, 32
        het = system == "het"
        sim_system = Heterogeneous(eps) if het else Effective(UNIT)
        stepper = ThetaStepper(integrator._build_generator(sim_system, cfg), cfg, dt, n_steps,
                               eps if het else None)
        g_mat, n = stepper.g_mat, grid.n
        dw = np.stack([brownian_increments(s, n_steps, dt).increments for s in range(3)], axis=1)
        u = cfg.initial_field()[:, None] * np.array([1.0, 0.5j, -0.8])
        ref = u.copy()
        calls = []
        real_factor = integrator.lu_factor
        monkeypatch.setattr(integrator, "lu_factor",
                            lambda *args, **kwargs: calls.append(1) or real_factor(*args, **kwargs))
        for k in range(n_steps):
            u = stepper.step(u, k, dw[k])
            v_diag = np.zeros(n)
            if het:
                tau = ((k * dt + theta_s * dt) / eps) % 1.0
                v_diag = eps ** ((1.0 - ALPHA) / 2.0) * cfg.v_spec.sample(
                    np.mod(grid.nodes / eps, 1.0), tau)
            hu = g_mat.astype(complex) @ ref + v_diag[:, None] * ref
            rhs = (ref - 1j * (1.0 - theta_s) * dt * hu - 1j * cfg.noise.apply(ref) * dw[k]
                   - 1j * cfg.f_spec.sample(k * dt, grid.nodes)[:, None] * dt)
            lhs = np.eye(n, dtype=complex) + 1j * theta_s * dt * (g_mat + np.diag(v_diag))
            ref = linalg.lu_solve(linalg.lu_factor(lhs), rhs)
            assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref)), k
        assert len(calls) == stepper.misses

    def test_generator_is_only_read(self, grid, frac_gen, monkeypatch):
        eps = 0.25
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5, noise=NoiseModel("bounded", 0.5),
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        path = brownian_increments(2, 16, 0.5 / 16)
        writable = frac_gen.copy()
        reference = simulate(Heterogeneous(eps), cfg, path, generator=writable,
                             store_trajectory=True)
        assert writable.tobytes() == frac_gen.tobytes()
        frozen = frac_gen.copy()
        frozen.flags.writeable = False
        unbounded = simulate(Heterogeneous(eps), cfg, path, generator=frozen,
                             store_trajectory=True)
        # room for three of the four diagonals: the fourth refactorizes
        monkeypatch.setattr(integrator, "LU_CACHE_BYTES", 3 * 16 * grid.n ** 2)
        with pytest.warns(UserWarning, match="keeps the factors of 3 of the 4"):
            bounded = simulate(Heterogeneous(eps), cfg, path, generator=frozen,
                               store_trajectory=True)
        assert frozen.tobytes() == frac_gen.tobytes()
        assert np.array_equal(unbounded.trajectory, reference.trajectory)
        assert np.array_equal(bounded.trajectory, reference.trajectory)

    def test_noncycling_phase_warns_once(self, grid, frac_gen):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5,
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        path = brownian_increments(0, 16, 1.0 / 32.0)
        with pytest.warns(UserWarning, match="does not cycle") as caught:
            simulate(Heterogeneous(0.3), cfg, path, generator=frac_gen)
        assert sum("does not cycle" in str(w.message) for w in caught) == 1

    def test_short_cycling_run_does_not_warn(self, grid, frac_gen):
        # dt = eps/16 over 16 steps: one full period, sixteen phases on eight
        # diagonals
        eps = 0.25
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=eps,
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        path = brownian_increments(0, 16, eps / 16.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(Heterogeneous(eps), cfg, path, generator=frac_gen)


def quadratic_first_matches(diagonals: np.ndarray) -> list[int]:
    """The rule of ``integrator.first_matches`` by comparing each row with
    every earlier representative, in row order."""
    reps, first = [], []
    for i, row in enumerate(diagonals):
        rep = next((r for r in reps if mirror_matches(diagonals[r], row)), i)
        if rep == i:
            reps.append(i)
        first.append(rep)
    return first


class TestDiagonalKeys:
    """Phases whose potential diagonals agree under ``mirror_matches`` share
    one key, the first-used of them, and so one factor."""

    @pytest.mark.parametrize("v_name, groups", [("sin2pi_y_one_plus_sin2pi_tau", 1000),
                                                ("cos2pi_y", 1)])
    def test_noncycling_keys_take_linear_comparisons(self, monkeypatch, v_name, groups):
        """1000 steps at dt/eps = (1 + 1e-6)/8, whose 1000 phases never
        recur: with a tau-dependent V every diagonal differs and the
        stepper warns that it refactorizes; with V = cos2pi_y every step
        shares the first phase's diagonal, and nothing is warned about.
        Either way the grouping compares at most K = 1000 pairs of diagonals,
        where comparing each phase with every earlier key takes
        K (K - 1) / 2. At n = 63 and eps = 1/4 the nodes sample y = k/8, on
        which sin(2 pi y) sums to rounding, so a projection by the plain row
        sum would put every phase in one window."""
        compared = []
        monkeypatch.setattr(integrator, "mirror_matches",
                            lambda a, b: compared.append(1) or mirror_matches(a, b))
        grid, eps, n_steps = Grid1D.make(63), 0.25, 1000
        gen = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=ALPHA, theta=get_theta("one")))
        dt = eps / 8.0 * (1.0 + 1e-6)
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=n_steps * dt, v_spec=get_v(v_name))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stepper = ThetaStepper(gen, cfg, dt, n_steps, eps)
        assert len(set(stepper._keys)) == groups
        assert len(compared) <= n_steps
        assert [str(w.message) for w in caught] == ([] if groups == 1 else [
            "heterogeneous system at eps=0.25: the potential phase t/eps does not cycle within "
            "the run (dt/eps = 0.125), so 1000 of 1000 steps factorize the implicit matrix; "
            "dt = eps/k with a small integer k reuses the factors"])
        if groups == 1:
            assert stepper._factors_at(0) is stepper._factors_at(n_steps - 1)
            assert stepper._keys == [stepper._keys[0]] * n_steps

    @pytest.mark.parametrize("n", [16, 1024])
    def test_first_matches_agrees_with_the_quadratic_scan(self, n):
        """Rows that match or miss by 0.1 and 10 times REFLECTION_RTOL,
        rescaled rows, rounding-sized rows, zero rows and non-finite rows:
        the windowed search finds exactly the representatives that
        comparing with every earlier one finds."""
        rng = np.random.default_rng(3)
        base = rng.standard_normal((4, n))
        rows = [base[0], base[1], 1e-16 * base[2], np.zeros(n)]
        for scale in (0.1, 10.0):
            for b in base:
                rows.append(b + scale * REFLECTION_RTOL * np.max(np.abs(b))
                            * rng.uniform(-1.0, 1.0, n))
        rows += [np.full(n, np.nan), np.where(np.arange(n) == 0, np.inf, base[0]),
                 base[3], -base[0], np.zeros(n), 3.0 * base[1]]
        diagonals = np.array([rows[i] for i in rng.permutation(len(rows))])
        first = integrator.first_matches(diagonals)
        assert first == quadratic_first_matches(diagonals)
        # base rows 0, 1 and 3 matched their 0.1 x RTOL copies, and the zero
        # rows each other; nothing else matched
        assert len(set(first)) == len(rows) - 4


def package_call_sites(*names: str) -> dict[str, list[tuple[str, str | None]]]:
    """For each name, the (module file, enclosing function) of every call of
    it, by plain or attribute name, in the package's source."""
    sites = {name: [] for name in names}
    for path in sorted(Path(integrator.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        enclosing = {}
        for fn in ast.walk(tree):  # breadth first: inner functions overwrite outer ones
            if isinstance(fn, ast.FunctionDef):
                enclosing.update((id(node), fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in sites:
                    sites[name].append((path.name, enclosing.get(id(node))))
    return sites


class TestLockstep:
    def test_each_system_matches_its_stepper_alone(self, grid, frac_gen):
        """Three systems (het, eff, eff) on three columns: each state equals
        that stepper's own steps bitwise, except that a column diverging in
        one system is zeroed in all three from that step on."""
        eps, n_steps = 0.25, 8
        dt = eps / 8.0
        v_spec = get_v("cos2pi_y_times_cos2pi_tau")
        # linear noise only in the heterogeneous system, so column 2, driven by
        # an increment of 1e4, leaves the finite range there and nowhere else
        het_cfg = SimConfig(grid=grid, alpha=ALPHA, T=n_steps * dt, v_spec=v_spec,
                            noise=NoiseModel("linear", 0.5))
        eff_cfg = SimConfig(grid=grid, alpha=ALPHA, T=n_steps * dt, v_spec=v_spec,
                            noise=NoiseModel("bounded", 0.5))
        g_other = integrator._build_generator(
            Effective(EffectiveCoefficients.from_values(0.5, 0.1, 0.2)), eff_cfg)

        def steppers():
            return [ThetaStepper(frac_gen, het_cfg, dt, n_steps, eps),
                    ThetaStepper(frac_gen, eff_cfg, dt, n_steps),
                    ThetaStepper(g_other, eff_cfg, dt, n_steps)]

        dw = np.stack([brownian_increments(s, n_steps, dt).increments for s in range(2)]
                      + [np.full(n_steps, 1e4)], axis=1)
        u0 = het_cfg.initial_field()[:, None] * np.array([1.0, 0.5j, -0.8])
        u0_before = u0.copy()
        alone = []
        for stepper in steppers():
            u, states = u0, []
            for k in range(n_steps):
                u = stepper.step(u, k, dw[k])
                states.append(u)
            alone.append(states)
        blowup = 1 + next(k for k, u in enumerate(alone[0])
                          if np.abs(u[:, 2]).max() > integrator.BLOWUP_LIMIT)
        assert blowup < n_steps
        assert all(np.abs(u).max() < 1e6 for states in alone[1:] for u in states)

        levels = []
        for k, states, dead, reasons in lockstep(steppers(), u0, dw):
            levels.append(k)
            assert dead.tolist() == [False, False, k >= blowup]
            for state, own in zip(states, alone):
                assert np.array_equal(state[:, :2], own[k - 1][:, :2])
                if k >= blowup:
                    assert not state[:, 2].any()
                else:
                    assert np.array_equal(state[:, 2], own[k - 1][:, 2])
            assert reasons[:2] == [None, None]
        assert levels == list(range(1, n_steps + 1))
        assert reasons[2].step == blowup
        assert str(reasons[2]).endswith(": heterogeneous system at eps=0.25")
        # every system starts from the one u0 object, which no step writes into
        assert np.array_equal(u0, u0_before)

    def test_divergence_flags_nan_inf_and_overflow_but_not_the_limit(self):
        """Four columns step by u + dW: at step 2 they turn NaN, +inf, 2e12
        and exactly BLOWUP_LIMIT. The first three die with the same reason and
        are zeroed; the last is kept."""

        class Scripted:
            label = "scripted system"

            def step(self, u, k, dw):
                return u + dw

        dw = np.zeros((4, 4))
        dw[1] = [np.nan, np.inf, 2e12, integrator.BLOWUP_LIMIT]
        u0 = np.zeros((3, 4), dtype=complex)
        seen = []
        for k, (state,), dead, reasons in lockstep([Scripted()], u0, dw):
            seen.append((k, dead.tolist(), state.copy()))
        assert [d for _, d, _ in seen] == [[False] * 4] + [[True, True, True, False]] * 3
        assert [str(r) for r in reasons[:3]] == ["trajectory diverged at step 2: scripted system"] * 3
        assert [r.step for r in reasons[:3]] == [2, 2, 2] and reasons[3] is None
        for k, _, state in seen[1:]:
            assert not state[:, :3].any()
            assert np.array_equal(state[:, 3], np.full(3, integrator.BLOWUP_LIMIT))
        assert not u0.any()

    def test_one_step_call_and_one_blowup_construction(self):
        """ThetaStepper.step is called, and TrajectoryBlowup built, only in
        integrator.lockstep, so divergence is checked in one place."""
        sites = package_call_sites("step", "TrajectoryBlowup")
        assert sites == {"step": [("integrator.py", "lockstep")],
                         "TrajectoryBlowup": [("integrator.py", "lockstep")]}

    def test_a_stepper_is_given_its_matrix(self):
        """ThetaStepper takes (generator, cfg, dt, n_steps, eps, basis) only,
        and integrator.simulate is the one place that builds a generator from a
        Heterogeneous or Effective system; the harness constructs neither."""
        params = list(inspect.signature(ThetaStepper).parameters.values())
        assert [p.name for p in params] == ["generator", "cfg", "dt", "n_steps", "eps", "basis"]
        assert [p.default for p in params][-2:] == [None, None]
        sites = package_call_sites("_build_generator", "ThetaStepper", "Heterogeneous",
                                   "Effective")
        assert sites["_build_generator"] == [("integrator.py", "simulate")]
        assert sorted(sites["ThetaStepper"]) == [("harness.py", "coupled_errors")] * 2 + [
            ("integrator.py", "simulate")]
        assert not [site for name in ("Heterogeneous", "Effective") for site in sites[name]
                    if site[0] == "harness.py"]


def reference_step(self, u, k, dw, solve):
    """ThetaStepper.step as written before it was fused:
    u/theta - i g(u) dW - i f dt, solved by ``solve``, minus
    ((1-theta)/theta) u, every decision re-made on each call."""
    cfg, dt, theta_s = self.cfg, self.dt, self.cfg.theta_scheme
    rhs = u / theta_s
    gu = cfg.noise.apply(u)
    if gu is not None:
        rhs -= 1j * gu * dw
    f_vec = cfg.f_spec.sample(k * dt, cfg.grid.nodes)
    if f_vec is not None:
        rhs -= 1j * f_vec[:, None] * dt
    return solve(rhs) - ((1.0 - theta_s) / theta_s) * u


def unfused_step(self, u, k, dw):
    """``reference_step`` on the stepper's own factor, the reference for the
    fused step: solved with scipy's lu_solve of the transposed system for
    more than TRSV_MAX_COLUMNS columns, as zgetrs is. Up to that many
    columns, and for an L D L^T or eigenbasis factor, which scipy's lu_solve
    cannot take, it is solved with integrator.lu_solve, so the glue around
    the solve is still compared bit for bit."""
    lu = self._factors_at(k, u.shape[1])
    return reference_step(self, u, k, dw, lambda rhs: (
        integrator.lu_solve(lu, rhs)
        if rhs.shape[1] <= integrator.TRSV_MAX_COLUMNS or lu.kind != "LU"
        else linalg.lu_solve((lu.matrix, lu.piv), rhs, trans=1, check_finite=False)))


def column_major_step(self, u, k, dw):
    """``reference_step`` on the column-major layout that the transposed one
    replaced, the reference for it: I + i theta dt (G + diag v) of the
    step's phase key written column-major (``TestImplicitFill.whole_array_fill``)
    and, for 2 to LDL_MAX_COLUMNS columns of an exactly symmetric G,
    factorized by ``zsytrf`` of its lower triangle and solved by ``zsytrs``,
    else factorized by scipy's lu_factor and solved by its lu_solve. Each
    phase is factorized once, in the stepper's ``column_major`` dict."""
    key = self._keys[k]
    solves = self.__dict__.setdefault("column_major", {})
    if key not in solves:
        a, g = TestImplicitFill.whole_array_fill(self.g_mat, self, key), self.g_mat
        if 1 < u.shape[1] <= integrator.LDL_MAX_COLUMNS and np.array_equal(g, g.T):
            lwork = int(zsytrf_lwork(a.shape[0], lower=1)[0].real)
            ldl, ipiv, _ = zsytrf(a, lower=1, lwork=lwork)
            solves[key] = lambda rhs: zsytrs(ldl, ipiv, rhs, lower=1)[0]
        else:
            lu = linalg.lu_factor(a)
            solves[key] = lambda rhs: linalg.lu_solve(lu, rhs)
    return reference_step(self, u, k, dw, solves[key])


EQUIVALENCE_CONFIG = {"alpha": 1.5, "grid": {"n": 32},
                      "cell": {"m": 32, "m_tau": 4, "n_images": 4},
                      "v_preset": "sin2pi_y_one_plus_sin2pi_tau", "T": 0.25}


@pytest.fixture(scope="module")
def prepared_by_theta():
    return {name: prepare_experiment(RunConfig.from_dict(
        {**EQUIVALENCE_CONFIG, "theta_preset": {"name": name, "params": {}}}))
        for name in ("one", "cosine_sum")}


class TestLinearity:
    """With g = sigma u and f = 0 the scheme is linear in u, and doubling is
    exact in binary floating point, so u0 -> 2 u0 doubles the final state bit
    for bit. The column counts take every solve: ztrsv at 1, and at 2 for
    the non-symmetric G_eff; zsytrs at 2 and 4 for the symmetric G_het;
    zgetrs at 8, and at 4 for G_eff."""

    @pytest.mark.parametrize("columns", [1, 2, 4, 8])
    @pytest.mark.parametrize("system", ["het", "eff"])
    def test_doubling_u0_doubles_the_final_state(self, system, columns):
        eps, n_steps = 0.25, 32
        dt = eps / 8.0
        cfg = SimConfig(grid=Grid1D.make(64), alpha=ALPHA, T=n_steps * dt,
                        theta=get_theta("cosine_sum"), noise=NoiseModel("linear", 0.5),
                        v_spec=get_v("sin2pi_y_one_plus_sin2pi_tau"))
        sim_system = (Heterogeneous(eps) if system == "het"
                      else Effective(EffectiveCoefficients.from_values(1.0, 0.04, -0.03)))
        dw = np.stack([brownian_increments(s, n_steps, dt).increments for s in range(columns)],
                      axis=1)
        u0 = cfg.initial_field()[:, None] * (1.0 + 0.5j * np.arange(columns))
        finals = []
        for scale in (1.0, 2.0):
            stepper = ThetaStepper(integrator._build_generator(sim_system, cfg), cfg, dt,
                                   n_steps, eps if system == "het" else None)
            for _, (u,), dead, _ in lockstep([stepper], scale * u0, dw):
                assert not dead.any()
            finals.append(u)
        symmetric = system == "het" and 1 < columns <= integrator.LDL_MAX_COLUMNS
        assert all((f.kind == "L D L^T") == symmetric for f in stepper._factors.values())
        assert np.array_equal(finals[1], 2.0 * finals[0])
        assert not np.array_equal(finals[0], u0)


class TestReflection:
    """x -> -x maps the problem with Theta, V and u0 to the one with
    Theta(-y, -eta), V(-y, tau) and u0(-x). Theta = cosine_sum is even in
    (y, eta), V = sin 2pi y (1 + sin 2pi tau) is odd in y and u0 = 1 - x^2 is
    even, so the mirror of (Theta, V) is (Theta, -V). Not bitwise: the grid
    nodes are mirror images only to an ulp, and the mirrored sums run in
    another order. Measured: 6.9e-15 of max|G| for G at n = 64, eps = 1/4,
    and 4.8e-15 of max|u| over 8 noisy steps; the tolerance is 1e-13, and
    comparing (Theta, V) with its own flip misses it by 2.0e-2."""

    TOL = 1e-13

    def test_generator_commutes_with_the_reflection(self, grid):
        g = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=ALPHA, theta=get_theta("cosine_sum"), epsilon=0.25))
        assert np.max(np.abs(g[::-1, ::-1] - g)) <= self.TOL * np.max(np.abs(g))

    def test_trajectory_of_minus_v_is_the_flip(self, grid):
        eps, n_steps = 0.25, 8
        dt = eps / 8.0
        v = get_v("sin2pi_y_one_plus_sin2pi_tau")
        minus_v = VSpec("minus_sin2pi_y_one_plus_sin2pi_tau",
                        lambda y, tau: -v.fn(y, tau))
        path = brownian_increments(4, n_steps, dt)

        def trajectory(v_spec):
            cfg = SimConfig(grid=grid, alpha=ALPHA, T=n_steps * dt,
                            theta=get_theta("cosine_sum"), v_spec=v_spec,
                            noise=NoiseModel("linear", 0.5))
            return simulate(Heterogeneous(eps), cfg, path, store_trajectory=True).trajectory

        u, mirrored = trajectory(v), trajectory(minus_v)[:, ::-1]
        scale = np.max(np.abs(u))
        assert np.max(np.abs(mirrored - u)) <= self.TOL * scale
        # the relation needs V's sign flipped: V against its own flip is far off
        assert np.max(np.abs(u[:, ::-1] - u)) > 1e3 * self.TOL * scale


class TestFusedStepEquivalence:
    """coupled_errors through the fused step equals, bit for bit, the same
    reduction through the unfused step (``unfused_step``)."""

    @staticmethod
    def errors(monkeypatch, prepared_by_theta, seeds, reference, **overrides):
        rc = RunConfig.from_dict({**EQUIVALENCE_CONFIG, **overrides})
        with monkeypatch.context() as m:
            if reference:
                m.setattr(ThetaStepper, "step", unfused_step)
            err, weak, reasons = coupled_errors(
                0.25, rc, seeds, prepared_by_theta[overrides["theta_preset"]["name"]])
        assert reasons == [None] * len(seeds)
        return err, weak

    # theta = 0.7 checks that u * (1/theta) is numpy's u / theta
    @pytest.mark.parametrize("theta_s", [0.5, 0.7, 1.0])
    @pytest.mark.parametrize("theta", ["one", "cosine_sum"])
    @pytest.mark.parametrize("noise", ["linear", "bounded"])
    @pytest.mark.parametrize("paths", [1, 2, 4])
    def test_coupled_errors_bitwise(self, monkeypatch, prepared_by_theta, paths, noise, theta,
                                    theta_s):
        overrides = dict(theta_preset={"name": theta, "params": {}}, theta_scheme=theta_s,
                         g={"kind": noise, "sigma": 0.7})
        seeds = list(range(3, 3 + paths))
        err, weak = self.errors(monkeypatch, prepared_by_theta, seeds, False, **overrides)
        ref_err, ref_weak = self.errors(monkeypatch, prepared_by_theta, seeds, True, **overrides)
        assert np.array_equal(err, ref_err) and np.array_equal(weak, ref_weak)
        assert (err > 0).all() and (np.abs(weak) > 0).all()

    def test_forced_coupled_errors_bitwise(self, monkeypatch, prepared_by_theta):
        overrides = dict(theta_preset={"name": "cosine_sum", "params": {}}, theta_scheme=0.5,
                         g={"kind": "linear", "sigma": 0.7}, f_preset="bump_cos_t")
        err, weak = self.errors(monkeypatch, prepared_by_theta, [5, 6], False, **overrides)
        ref_err, ref_weak = self.errors(monkeypatch, prepared_by_theta, [5, 6], True, **overrides)
        assert np.array_equal(err, ref_err) and np.array_equal(weak, ref_weak)
        unforced, _ = self.errors(monkeypatch, prepared_by_theta, [5, 6], False,
                                  **{**overrides, "f_preset": "zero"})
        assert not np.array_equal(err, unforced)


class TestTransposedLayoutEquivalence:
    """ThetaStepper, which factorizes the transpose of its row-major implicit
    matrix, against ``column_major_step`` over 16 steps at n = 256: every
    state within 1e-12 of max|u| where LU is taken (the two factorizations
    differ in rounding order only; measured at most 3.4e-14 here and 7.0e-14
    at n = 1024), bit for bit where L D L^T is, since the symmetric matrix
    is its own transpose."""

    @pytest.mark.parametrize("columns", [1, 2, 4])
    @pytest.mark.parametrize("system", ["eff", "het"])
    def test_states_match_the_column_major_path(self, monkeypatch, system, columns):
        eps, n_steps = 0.25, 16
        dt = eps / 8.0
        cfg = SimConfig(grid=Grid1D.make(256), alpha=ALPHA, T=n_steps * dt,
                        theta=get_theta("cosine_sum"), noise=NoiseModel("linear", 0.5),
                        v_spec=get_v("sin2pi_y_one_plus_sin2pi_tau"))
        sim_system = (Heterogeneous(eps) if system == "het"
                      else Effective(EffectiveCoefficients.from_values(1.0, 0.3, 0.2)))
        dw = np.stack([brownian_increments(s, n_steps, dt).increments for s in range(columns)],
                      axis=1)
        u0 = cfg.initial_field()[:, None] * (1.0 + 0.5j * np.arange(columns))
        runs = []
        for step in (ThetaStepper.step, column_major_step):
            monkeypatch.setattr(ThetaStepper, "step", step)
            stepper = ThetaStepper(integrator._build_generator(sim_system, cfg), cfg, dt,
                                   n_steps, eps if system == "het" else None)
            runs.append([u.copy() for _, (u,), _, _ in lockstep([stepper], u0, dw)])
        g = stepper.g_mat
        symmetric = system == "het" and 1 < columns <= integrator.LDL_MAX_COLUMNS
        assert np.array_equal(g, g.T) == (system == "het")
        # every diagonal recurs in 16 steps, so each has a slot: the reference
        # factorized each representative phase once, in the order of the
        # slots; sin(2 pi tau) pairs the eight phases tau and 1/2 - tau
        assert len(runs[0]) == n_steps and list(stepper.column_major) == list(stepper._slots)
        assert len(stepper._slots) == (4 if system == "het" else 1)
        for new, ref in zip(*runs):
            if symmetric:
                assert np.array_equal(new, ref)
            else:
                assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert not np.array_equal(runs[0][-1], u0)


def implicit_lhs(kind: str, n: int) -> np.ndarray:
    """I + i theta dt H at theta dt = 1/128 for the solve tests. H is G_eff,
    or G_het (cosine_product, eps = 1/4) plus its potential diagonal; in
    "het_pivoting" that diagonal cancels G_het's at the even nodes, so
    partial pivoting swaps rows there. Assembly needs 4 nodes, so below that
    a random real symmetric H stands in."""
    theta_dt = 1.0 / 128.0
    if n < 4:
        h = np.random.default_rng(n).standard_normal((n, n))
        return np.eye(n) + 1j * theta_dt * (h + h.T)
    grid = Grid1D.make(n)
    if kind == "eff":
        coeffs = EffectiveCoefficients.from_values(1.0, 0.3, 0.2)
        return np.eye(n) + 1j * theta_dt * assemble_effective_generator(coeffs, grid, ALPHA)
    eps = 0.25
    g = assemble_heterogeneous_generator(
        grid, KernelParams(alpha=ALPHA, theta=get_theta("cosine_product"), epsilon=eps))
    v = eps ** ((1.0 - ALPHA) / 2.0) * get_v("cos2pi_y_times_cos2pi_tau").sample(
        np.mod(grid.nodes / eps, 1.0), 0.3)
    if kind == "het_pivoting":
        v[::2] = -g.diagonal()[::2]
    return np.eye(n) + 1j * theta_dt * (g + np.diag(v))


SOLVE_CASES = [("random", 1), ("random", 2)] + [
    (kind, n) for n in (5, 64, 257) for kind in ("eff", "het", "het_pivoting")]


class TestFactorMatchesScipy:
    """integrator.lu_factor(a)'s LU equals scipy's lu_factor of a^T bit for
    bit, in place for a C-order a, and its info is 1 + the first exactly
    zero entry of U's diagonal (0 if none), the rule ThetaStepper once
    applied to U itself. It does not warn where scipy does (the tests turn
    warnings into errors)."""

    @staticmethod
    def check(a: np.ndarray, scipy_factors: tuple) -> Factor:
        scipy_lu, scipy_piv = scipy_factors
        filled = np.array(a, dtype=complex, order="C")
        factor = integrator.lu_factor(filled)
        zeros = np.flatnonzero(scipy_lu.diagonal() == 0)
        assert factor.kind == "LU" and np.shares_memory(factor.matrix, filled)
        assert np.array_equal(factor.matrix, scipy_lu) and np.array_equal(factor.piv, scipy_piv)
        assert factor.info == (1 + zeros[0] if zeros.size else 0)
        return factor

    @pytest.mark.parametrize("kind,n", SOLVE_CASES)
    def test_solve_cases(self, kind, n):
        a = implicit_lhs(kind, n)
        assert self.check(a, linalg.lu_factor(a.T)).info == 0

    # a zero row of A is a zero column of A^T, which stays zero through the
    # elimination, so U(k, k) = 0
    @pytest.mark.parametrize("zero_rows", [[0], [3, 5], [7]])
    def test_zero_pivots(self, zero_rows):
        rng = np.random.default_rng(zero_rows[0])
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a[zero_rows] = 0.0
        with pytest.warns(linalg.LinAlgWarning, match="exactly zero"):
            scipy_factors = linalg.lu_factor(a.T)
        assert self.check(a, scipy_factors).info == 1 + zero_rows[0]


class TestLUSolve:
    """integrator.lu_solve(integrator.lu_factor(a), b) solves a x = b. Against
    scipy's lu_solve of the transposed system on the same factor: the
    per-column level-2 triangular solves up to TRSV_MAX_COLUMNS columns at
    1e-13 of max|x| (rounding order only), and the same LAPACK zgetrs that
    scipy calls for more bit for bit."""

    @staticmethod
    def scipy_solve(lu: Factor, rhs: np.ndarray) -> np.ndarray:
        return linalg.lu_solve((lu.matrix, lu.piv), rhs, trans=1)

    @pytest.mark.parametrize("kind,n", SOLVE_CASES)
    def test_one_column_matches_scipy(self, kind, n):
        lu = integrator.lu_factor(implicit_lhs(kind, n))
        rng = np.random.default_rng(n)
        rhs = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
        before = rhs.copy()
        x = integrator.lu_solve(lu, rhs)
        expected = self.scipy_solve(lu, rhs)
        assert x.shape == (n, 1) and x.dtype == complex
        assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert np.array_equal(rhs, before)
        # the factors are only read: a second solve is bitwise the first
        assert np.array_equal(integrator.lu_solve(lu, rhs), x)

    def test_some_case_pivots(self):
        pivots = [integrator.lu_factor(implicit_lhs(kind, n)).piv for kind, n in SOLVE_CASES]
        assert any(np.any(piv != np.arange(len(piv))) for piv in pivots)

    def test_noncontiguous_column_slice(self):
        lu = integrator.lu_factor(implicit_lhs("het_pivoting", 64))
        rng = np.random.default_rng(1)
        block = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        rhs = block[:, 1:2]
        assert not rhs.flags.c_contiguous and not rhs.flags.f_contiguous
        expected = self.scipy_solve(lu, np.ascontiguousarray(rhs))
        x = integrator.lu_solve(lu, rhs)
        assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert np.array_equal(block[:, 1:2], rhs)

    # het_pivoting pivots, so the interchanges are undone in reverse order;
    # eff is not symmetric, so a solve of a^T x = b would not pass
    @pytest.mark.parametrize("kind,n", [("eff", 64), ("het_pivoting", 257)])
    @pytest.mark.parametrize("columns", [1, 2, 3, 8])
    def test_solves_a_against_scipys_transposed_solve(self, kind, n, columns):
        a = implicit_lhs(kind, n)
        lu = integrator.lu_factor(a.copy())
        assert kind == "eff" or np.any(lu.piv != np.arange(n))
        assert kind != "eff" or not np.array_equal(a, a.T)
        rng = np.random.default_rng(columns)
        rhs = rng.standard_normal((n, columns)) + 1j * rng.standard_normal((n, columns))
        before = rhs.copy()
        x, expected = integrator.lu_solve(lu, rhs), self.scipy_solve(lu, rhs)
        assert x.shape == (n, columns) and x.dtype == complex
        if columns > integrator.TRSV_MAX_COLUMNS:
            assert np.array_equal(x, expected)
        else:
            assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert np.max(np.abs(a @ x - rhs)) <= 1e-13 * np.max(np.abs(rhs))
        assert np.array_equal(rhs, before)

    def test_simulate_matches_level3_solve(self, monkeypatch):
        """A one-path effective run at n = 256 against the same stepper
        solving with scipy's lu_solve: norm2 series to 1e-12 relative."""
        grid = Grid1D.make(256)
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.25, noise=NoiseModel("linear", 0.5))
        coeffs = EffectiveCoefficients.from_values(1.0, 0.3, 0.2)
        path = brownian_increments(11, 32, 0.25 / 32)
        res = simulate(Effective(coeffs), cfg, path, store_trajectory=False)
        monkeypatch.setattr(integrator, "lu_solve", lambda lu, rhs: linalg.lu_solve(
            (lu.matrix, lu.piv), rhs, trans=1, check_finite=False))
        ref = simulate(Effective(coeffs), cfg, path, store_trajectory=False)
        np.testing.assert_allclose(res.norm2, ref.norm2, rtol=1e-12, atol=0.0)
        assert np.abs(res.norm2[-1] - res.norm2[0]) > 1e-3 * res.norm2[0]


class TestSingularImplicitMatrix:
    """A zero pivot or a non-finite implicit matrix is a LinearSolveError
    naming the system and phase, before any solve."""

    @staticmethod
    def simulate_with(generator, system=None, v_name="zero"):
        # theta dt = 1/64, so a generator entry of 64i cancels the identity exactly
        cfg = SimConfig(grid=Grid1D.make(8), alpha=ALPHA, T=0.25, v_spec=get_v(v_name))
        simulate(system or Effective(UNIT), cfg, brownian_increments(0, 8, 0.25 / 8),
                 generator=generator)

    @pytest.mark.parametrize("index", [None, 5])
    def test_zero_pivot_names_its_index(self, index, monkeypatch):
        # G = 64i I zeroes the whole matrix; one entry zeroes one pivot
        g_mat = 64j * np.eye(8)
        if index is not None:
            g_mat[np.arange(8) != index] = 0.0
        solves = []
        monkeypatch.setattr(integrator, "lu_solve", lambda *args: solves.append(args))
        with pytest.raises(integrator.LinearSolveError) as excinfo:
            self.simulate_with(g_mat)
        i = index or 0
        assert str(excinfo.value) == (f"effective system, phase None: implicit matrix is "
                                      f"singular, pivot {i} of its LU factor (U[{i}, {i}]) is "
                                      "exactly zero; a position after column interchanges, not "
                                      "a grid node")
        assert solves == []

    def test_nonfinite_matrix(self):
        g_mat = Grid1D.make(8).h * np.eye(8)
        g_mat[2, 3] = np.nan
        with pytest.raises(integrator.LinearSolveError) as excinfo:
            self.simulate_with(g_mat, Heterogeneous(0.25), "cos2pi_y_times_cos2pi_tau")
        # step 0 is frozen at the theta point dt / 2, phase 1/16
        assert str(excinfo.value) == ("heterogeneous system at eps=0.25, phase 0.0625: "
                                      "implicit matrix is not finite")


class Captured(Exception):
    """Carries the implicit matrix handed to the factorization."""


class TestImplicitFill:
    """The implicit matrix is written row by row into a C-order slot; it
    must equal the column-major whole-array product. A non-finite entry of
    G, one on the potential diagonal, and a finite entry whose scaled value
    overflows each raise "implicit matrix is not finite"."""

    DT = 0.25 / 8

    @classmethod
    def stepper(cls, g_mat, eps, v_spec, theta_s=0.5, dt=None):
        cfg = SimConfig(grid=Grid1D.make(g_mat.shape[0]), alpha=ALPHA, T=0.25, v_spec=v_spec,
                        theta_scheme=theta_s)
        return ThetaStepper(g_mat, cfg, dt or cls.DT, 8, eps)

    @staticmethod
    def implicit_matrix(stepper, monkeypatch):
        def capture(a, **_):
            raise Captured(a.copy(order="K"))

        monkeypatch.setattr(integrator, "lu_factor", capture)
        with pytest.raises(Captured) as info:
            stepper._factors_at(0)
        return info.value.args[0]

    @staticmethod
    def whole_array_fill(g_mat, stepper, key=None):
        """The implicit matrix at phase ``key`` (step 0's by default) for the
        stepper's potential, written column-major."""
        n, theta_dt = g_mat.shape[0], stepper.cfg.theta_scheme * stepper.dt
        lhs = np.empty((n, n), dtype=complex, order="F")
        np.multiply(g_mat, 1j * theta_dt, out=lhs)
        key = stepper._keys[0] if key is None else key
        if key is None:  # no potential: every step has the key None
            assert stepper._keys == [None] * len(stepper._keys)
            lhs[np.diag_indices(n)] += 1.0
        else:
            v = stepper._amp * stepper.cfg.v_spec.sample(stepper._y_frac, key)
            lhs[np.diag_indices(n)] += 1.0 + 1j * theta_dt * v
        return lhs

    @pytest.mark.parametrize("n", [5, 37, 64, 257])
    @pytest.mark.parametrize("kind", ["effective", "heterogeneous", "complex"])
    def test_matches_whole_array_fill_bitwise(self, n, kind, monkeypatch):
        g = Grid1D.make(n)
        if kind == "effective":
            g_mat = assemble_effective_generator(EffectiveCoefficients.from_values(1.1, 0.3, -0.2),
                                                 g, ALPHA)
            eps, v_spec = None, get_v("zero")
        elif kind == "heterogeneous":
            g_mat = assemble_heterogeneous_generator(
                g, KernelParams(alpha=ALPHA, theta=get_theta("cosine_sum"), epsilon=0.25))
            eps, v_spec = 0.25, get_v("cos2pi_y_times_cos2pi_tau")
        else:
            # the zero-pivot generator: theta dt = 1/64 cancels the identity
            g_mat, eps, v_spec = 64j * np.eye(n), None, get_v("zero")
        stepper = self.stepper(g_mat, eps, v_spec)
        got = self.implicit_matrix(stepper, monkeypatch)
        assert got.flags.c_contiguous
        assert np.array_equal(got, self.whole_array_fill(g_mat, stepper))

    def test_nan_in_last_row(self):
        n = 100
        g_mat = Grid1D.make(n).h * np.eye(n)
        g_mat[n - 1, 3] = np.nan
        with pytest.raises(integrator.LinearSolveError) as excinfo:
            self.stepper(g_mat, None, get_v("zero"))._factors_at(0)
        assert str(excinfo.value) == ("effective system, phase None: "
                                      "implicit matrix is not finite")

    def test_nonfinite_potential_diagonal(self):
        n = 37
        v_nan = VSpec("nan_near_zero",
                      lambda y, tau: np.where(y < 0.1, np.nan, 0.0) + 0.0 * tau)
        g_mat = Grid1D.make(n).h * np.eye(n)
        with pytest.raises(integrator.LinearSolveError) as excinfo:
            self.stepper(g_mat, 0.25, v_nan)._factors_at(0)
        # step 0 is frozen at the theta point dt / 2, phase 1/16
        assert str(excinfo.value) == ("heterogeneous system at eps=0.25, phase 0.0625: "
                                      "implicit matrix is not finite")

    # theta dt = 2: 1.7e308 scales past the largest double, 8e307 does not
    @pytest.mark.parametrize("entry", [1.7e308, -1.7e308, 1.7e308j, -1.7e308j, 1.7e308 + 1j])
    def test_finite_generator_whose_scaled_entry_overflows(self, entry, monkeypatch):
        """The finiteness test reads G's extremes once per stepper; it must
        flag exactly the scaled entries that overflow, real or imaginary, and
        still raise from the first factorization."""
        g_mat = np.eye(9, dtype=type(entry))
        g_mat[6, 2] = entry
        stepper = self.stepper(g_mat, None, get_v("zero"), theta_s=1.0, dt=2.0)
        assert np.isfinite(g_mat).all()
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(self.whole_array_fill(g_mat, stepper)).all()
        with pytest.raises(integrator.LinearSolveError) as excinfo:
            stepper._factors_at(0)
        assert str(excinfo.value) == ("effective system, phase None: "
                                      "implicit matrix is not finite")
        # half that entry scales to a finite value and reaches the factorization
        g_mat[6, 2] = entry / 2.0
        stepper = self.stepper(g_mat, None, get_v("zero"), theta_s=1.0, dt=2.0)
        got = self.implicit_matrix(stepper, monkeypatch)
        assert np.isfinite(got).all()
        assert np.array_equal(got, self.whole_array_fill(g_mat, stepper))


def ldl_factor(a: np.ndarray) -> Factor:
    """integrator.lu_factor's L D L^T factor of a copy of the complex symmetric a."""
    lwork = int(zsytrf_lwork(a.shape[0], lower=1)[0].real)
    return integrator.lu_factor(np.array(a, dtype=complex, order="F"), ldl_lwork=lwork)


def symmetric_lhs(kind: str, n: int) -> np.ndarray:
    """A complex symmetric implicit_lhs; "zero_diagonal" is the "het" one
    with its diagonal removed, so Bunch-Kaufman pivoting takes 2 x 2 blocks."""
    a = implicit_lhs("het" if kind == "zero_diagonal" else kind, n)
    if kind == "zero_diagonal":
        a[np.diag_indices(n)] = 0.0
    assert np.array_equal(a, a.T)
    return a


class TestSymmetricSolve:
    """integrator.lu_solve on an L D L^T factor against scipy's LU solve of
    the same matrix, at 1e-12 of max|x|: two pivoted factorizations differ in
    rounding order only (condition numbers up to 3e3 here)."""

    @pytest.mark.parametrize("columns", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["het", "het_pivoting", "zero_diagonal"])
    @pytest.mark.parametrize("n", [5, 37, 64, 257])
    def test_matches_lu_solve(self, n, kind, columns):
        a = symmetric_lhs(kind, n)
        factor = ldl_factor(a)
        assert factor.info == 0
        rng = np.random.default_rng(columns)
        rhs = rng.standard_normal((n, columns)) + 1j * rng.standard_normal((n, columns))
        before = rhs.copy()
        x = integrator.lu_solve(factor, rhs)
        expected = linalg.lu_solve(linalg.lu_factor(a), rhs)
        assert x.shape == (n, columns) and x.dtype == complex
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(rhs, before)
        # the factor is only read: a second solve is bitwise the first
        assert np.array_equal(integrator.lu_solve(factor, rhs), x)

    @pytest.mark.parametrize("n", [5, 37, 64, 257])
    def test_zero_diagonal_takes_two_by_two_pivots(self, n):
        assert (ldl_factor(symmetric_lhs("zero_diagonal", n)).piv < 0).any()
        assert (ldl_factor(symmetric_lhs("het", n)).piv > 0).all()


class TestFactorKind:
    """ThetaStepper factorizes by L D L^T exactly when the state has 2 to
    LDL_MAX_COLUMNS columns and G is exactly symmetric; otherwise by LU."""

    @staticmethod
    def stepper(g_mat, eps=None, v_name="zero"):
        # theta dt = 1/64
        return TestImplicitFill.stepper(g_mat, eps, get_v(v_name))

    @staticmethod
    def recorded(monkeypatch):
        """Patch integrator.lu_factor to record (filled matrix, keywords, factor)."""
        calls, real = [], integrator.lu_factor

        def record(a, **kwargs):
            calls.append((a, kwargs, real(a, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(integrator, "lu_factor", record)
        return calls

    def test_asymmetric_entry_in_last_partial_block_takes_lu(self, monkeypatch):
        n = 100
        assert n % integrator.SYMMETRY_SCAN_ROWS  # the last block holds rows 64..99
        g_sym = assemble_heterogeneous_generator(
            Grid1D.make(n), KernelParams(alpha=ALPHA, theta=get_theta("cosine_sum"), epsilon=0.25))
        assert np.array_equal(g_sym, g_sym.T)
        g_asym = g_sym.copy()
        g_asym[n - 1, 3] = np.nextafter(g_sym[n - 1, 3], np.inf)
        calls = self.recorded(monkeypatch)
        sym = self.stepper(g_sym, 0.25, "cos2pi_y_times_cos2pi_tau")
        assert sym._factors_at(0, 2).kind == "L D L^T"
        asym = self.stepper(g_asym, 0.25, "cos2pi_y_times_cos2pi_tau")
        lu = asym._factors_at(0, 2)
        assert asym._ldl_lwork is None and lu.kind == "LU"
        # the LU path is scipy's lu_factor of the filled matrix's transpose
        filled = TestImplicitFill.whole_array_fill(g_asym, asym)
        expected = linalg.lu_factor(filled.T)
        assert calls[1][1] == {"ldl_lwork": None}
        assert np.array_equal(lu.matrix, expected[0]) and np.array_equal(lu.piv, expected[1])

    def test_one_column_simulate_of_symmetric_system_takes_lu(self, grid, frac_gen,
                                                              monkeypatch):
        calls = self.recorded(monkeypatch)
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5, v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        simulate(Heterogeneous(0.25), cfg, brownian_increments(1, 16, 0.5 / 16),
                 generator=frac_gen)
        assert np.array_equal(frac_gen, frac_gen.T)
        assert len(calls) == 4
        assert all(kw == {"ldl_lwork": None} and f.kind == "LU" for _, kw, f in calls)

    def test_more_than_ldl_max_columns_take_lu(self, frac_gen, monkeypatch):
        calls = self.recorded(monkeypatch)
        limit = integrator.LDL_MAX_COLUMNS
        ldl, lu = (self.stepper(frac_gen, 0.25, "cos2pi_y_times_cos2pi_tau")
                   for _ in range(2))
        assert ldl._factors_at(0, limit).kind == "L D L^T"
        factor = lu._factors_at(0, limit + 1)
        assert factor.kind == "LU" and calls[1][1] == {"ldl_lwork": None}
        # the LU path is scipy's lu_factor of the filled matrix's transpose
        expected = linalg.lu_factor(TestImplicitFill.whole_array_fill(frac_gen, lu).T)
        assert (np.array_equal(factor.matrix, expected[0])
                and np.array_equal(factor.piv, expected[1]))

    def test_factor_shares_memory_with_the_filled_matrix(self, frac_gen, monkeypatch):
        calls = self.recorded(monkeypatch)
        stepper = self.stepper(frac_gen, 0.25, "cos2pi_y_times_cos2pi_tau")
        factor = stepper._factors_at(0, 3)
        (filled, kwargs, _), = calls
        assert factor.kind == "L D L^T" and kwargs["ldl_lwork"] == stepper._ldl_lwork
        assert np.shares_memory(factor.matrix, filled)

    def test_cached_factor_keeps_its_kind(self, frac_gen):
        """A phase first factorized for one column keeps LU for several, and
        the reverse."""
        stepper = self.stepper(frac_gen)
        assert stepper._factors_at(0, 1).kind == "LU"
        assert stepper._factors_at(1, 2).kind == "LU"
        stepper = self.stepper(frac_gen)
        assert stepper._factors_at(0, 2).kind == "L D L^T"
        assert stepper._factors_at(1, 1).kind == "L D L^T"
        assert (stepper.misses, stepper.hits) == (1, 1)

    # theta dt = 1/64: G = 64i I + S with S real symmetric and zero on the
    # diagonal gives the implicit matrix (i/64) S exactly, which takes 2 x 2
    # pivots; S's zero row and column k make a D(i, i) exactly zero, at the
    # position the pivoting moved row k to
    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_zero_d_pivot_names_zsytrf_index(self, k, monkeypatch):
        s = np.random.default_rng(k).standard_normal((8, 8))
        s = s + s.T
        s[k], s[:, k] = 0.0, 0.0
        s[np.diag_indices(8)] = 0.0
        # LAPACK's report: info is the first zero D(i, i), 1-based
        _, ipiv, info = zsytrf(np.asfortranarray(1j / 64.0 * s), lower=1)
        assert info > 0 and (ipiv < 0).any()
        solves = []
        monkeypatch.setattr(integrator, "lu_solve", lambda *args: solves.append(args))
        stepper = self.stepper(64j * np.eye(8) + s)
        with pytest.raises(integrator.LinearSolveError) as excinfo:
            stepper.step(np.ones((8, 2), dtype=complex), 0, np.zeros(2))
        i = info - 1
        assert str(excinfo.value) == ("effective system, phase None: implicit matrix is "
                                      f"singular, pivot {i} of its L D L^T factor (D[{i}, {i}]) "
                                      "is exactly zero; a position after row interchanges, not "
                                      "a grid node")
        assert solves == []

    def test_nonfinite_generator_takes_lu_and_is_reported(self):
        g_mat = Grid1D.make(8).h * np.eye(8)
        g_mat[2, 3] = g_mat[3, 2] = np.nan
        stepper = self.stepper(g_mat, 0.25, "cos2pi_y_times_cos2pi_tau")
        with pytest.raises(integrator.LinearSolveError) as excinfo:
            stepper.step(np.ones((8, 2), dtype=complex), 0, np.zeros(2))
        assert str(excinfo.value) == ("heterogeneous system at eps=0.25, phase 0.0625: "
                                      "implicit matrix is not finite")
        assert stepper._ldl_lwork is None


class TestSymmetricSweepEquivalence:
    """eps_sweep with L D L^T factors against the same sweep forced onto LU.
    strong_err agrees within rtol 1e-9 and weak_err within 5e-9 of its row's
    largest entry; the two factorizations differ in rounding only. Measured
    here: at most 2.3e-13 and 3.2e-12; on the n = 256 benchmark sweeps the
    move is 6.6e-11 and 3.5e-10, which the tolerances also cover."""

    @pytest.mark.parametrize("theta_s", [0.5, 1.0])
    @pytest.mark.parametrize("theta", ["one", "cosine_sum"])
    def test_sweep_matches_lu_path(self, monkeypatch, prepared_by_theta, theta, theta_s):
        rc = RunConfig.from_dict({**EQUIVALENCE_CONFIG,
                                  "theta_preset": {"name": theta, "params": {}},
                                  "theta_scheme": theta_s, "g": {"kind": "bounded", "sigma": 0.7},
                                  "dt_rule": {"kind": "eps_over", "factor": 8,
                                              "default_dt": 1.0 / 64.0}})
        prepared = prepared_by_theta[theta]
        calls = TestFactorKind.recorded(monkeypatch)
        ldl = eps_sweep([0.5, 0.25], 3, rc, prepared)
        assert any(f.kind == "L D L^T" for _, _, f in calls)
        calls.clear()
        monkeypatch.setattr(ThetaStepper, "_ldl_lwork", None)
        lu = eps_sweep([0.5, 0.25], 3, rc, prepared)
        assert calls and all(f.kind == "LU" for _, _, f in calls)
        np.testing.assert_allclose(ldl.strong_err, lu.strong_err, rtol=1e-9, atol=0.0)
        for row, ref in zip(ldl.weak_err, lu.weak_err):
            assert np.max(np.abs(np.subtract(row, ref))) <= 5e-9 * np.max(np.abs(ref))
        assert ldl.excluded == lu.excluded == [0, 0]


class TestEigenbasis:
    """The third solve kind: a stepper given the eigenbasis of a symmetric G
    (``integrator.eigenbasis``) against the same stepper's L D L^T or LU
    factors, and the rule that picks it (``integrator.effective_solve``)."""

    TOL = 2e-12  # of max|u|; measured at most 4.9e-13 (3.5e-13 at one BLAS thread)

    @staticmethod
    def unit_generator(n: int) -> np.ndarray:
        """G_eff of Theta = 1, Xi_1 L, which is exactly symmetric."""
        return assemble_effective_generator(UNIT, Grid1D.make(n), ALPHA)

    @pytest.mark.parametrize("eps", [1 / 2, 1 / 16])
    @pytest.mark.parametrize("paths", [1, 4, 32])
    @pytest.mark.parametrize("n", [48, 256, 512])
    def test_steps_match_the_factor_steps(self, n, paths, eps):
        g = self.unit_generator(n)
        dt, n_steps = eps / 8.0, round(4.0 / eps)  # T = 1/2 at the sweep rule
        cfg = SimConfig(grid=Grid1D.make(n), alpha=ALPHA, T=n_steps * dt,
                        noise=NoiseModel("bounded", 0.5))
        dw = np.stack([brownian_increments(s, n_steps, dt).increments
                       for s in range(paths)], axis=1)
        u0 = np.repeat(cfg.initial_field()[:, None], paths, axis=1)
        eigen, factored = steppers = [
            ThetaStepper(g, cfg, dt, n_steps, basis=integrator.eigenbasis(g)),
            ThetaStepper(g, cfg, dt, n_steps)]
        for _, (u_eigen, u_factored), dead, _ in lockstep(steppers, u0, dw):
            assert np.max(np.abs(u_eigen - u_factored)) <= self.TOL * np.max(np.abs(u_factored))
        assert not dead.any()
        assert (eigen.misses, eigen.hits) == (factored.misses, factored.hits) == (1, n_steps - 1)
        assert eigen._factors[None].kind == "eigenbasis"
        assert factored._factors[None].kind in ("LU", "L D L^T")
        assert "_block" not in eigen.__dict__  # no (n, n) complex factor block

    def test_the_rule(self, prepared_by_theta):
        """Finite, exactly symmetric, real and at most EIGENBASIS_MAX_NODES
        nodes; anything else keeps the factors."""
        g = self.unit_generator(integrator.EIGENBASIS_MAX_NODES)
        assert integrator.effective_solve(g) == "eigenbasis"
        assert integrator.effective_solve(
            self.unit_generator(integrator.EIGENBASIS_MAX_NODES + 1)) == "factor"
        assert integrator.effective_solve(prepared_by_theta["one"].effective_generator) == (
            "eigenbasis")
        assert integrator.effective_solve(
            prepared_by_theta["cosine_sum"].effective_generator) == "factor"
        for entry in (np.nan, np.inf):
            bad = g.copy()
            bad[3, 3] = entry
            assert integrator.effective_solve(bad) == "factor", entry
        asymmetric = g.copy()
        asymmetric[-1, 0] = np.nextafter(g[-1, 0], 0.0)
        assert integrator.effective_solve(asymmetric) == "factor"
        assert integrator.effective_solve(g.astype(complex)) == "factor"

    def test_a_heterogeneous_system_takes_no_basis(self, grid, frac_gen):
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5, v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        with pytest.raises(ValueError, match="effective system only"):
            ThetaStepper(frac_gen, cfg, 1 / 32, 16, 0.25, basis=integrator.eigenbasis(frac_gen))

    def test_basis_reconstructs_the_generator(self):
        g = self.unit_generator(64)
        values, vectors = integrator.eigenbasis(g)
        assert np.max(np.abs((vectors * values) @ vectors.T - g)) <= 1e-12 * np.max(np.abs(g))
        assert np.max(np.abs(vectors.T @ vectors - np.eye(64))) <= 1e-13

    def test_failed_decomposition_names_the_effective_system(self, monkeypatch):
        monkeypatch.setattr(integrator, "dsyevd",
                            lambda a, **kwargs: (np.zeros(len(a)), np.zeros_like(a), 7))
        with pytest.raises(integrator.LinearSolveError,
                           match=r"^effective system: eigendecomposition failed "
                                 r"\(dsyevd info 7\)$"):
            integrator.eigenbasis(self.unit_generator(16))
