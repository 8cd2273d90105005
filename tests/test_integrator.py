"""Time-stepping tests: path generation, bridge refinement, norm behavior
under the theta scheme, Ito identity bookkeeping, and self-convergence."""

import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg

from nshom import integrator
from nshom.effective import EffectiveCoefficients, assemble_effective_generator
from nshom.integrator import (
    BrownianPath,
    Effective,
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
from nshom.presets import FSpec, HSpec, VSpec, get_theta, get_v

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

    # at theta = 1 and eps = 0.1 the eighth phase rounds to 1.0, which is phase 0
    @pytest.mark.parametrize("eps, theta_s", [(0.25, 0.5), (0.1, 1.0)])
    def test_cyclic_phase_factorizes_once_per_phase(self, grid, frac_gen, eps, theta_s):
        dt = eps / 8.0
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=64 * dt, theta_scheme=theta_s,
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
                            lambda *args, **kwargs: calls.append(1) or real_factor(*args, **kwargs))
        # room for three of the eight phases: a cycle longer than the cache
        # misses on every step
        monkeypatch.setattr(integrator, "LU_CACHE_BYTES", 3 * 16 * grid.n ** 2)
        bounded = simulate(Heterogeneous(eps), cfg, path, generator=frac_gen)
        assert len(calls) == path.n_steps
        assert np.array_equal(bounded.trajectory, unbounded.trajectory)

    def test_failed_factorization_is_wrapped_once(self, grid, frac_gen, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(integrator, "lu_factor", singular)
        eps = 0.25
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.5,
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        stepper = ThetaStepper(Heterogeneous(eps), cfg, eps / 8.0, 16, generator=frac_gen)
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
        stepper = ThetaStepper(Heterogeneous(eps) if het else Effective(UNIT), cfg, dt, n_steps)
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
        reference = simulate(Heterogeneous(eps), cfg, path, generator=writable)
        assert writable.tobytes() == frac_gen.tobytes()
        frozen = frac_gen.copy()
        frozen.flags.writeable = False
        unbounded = simulate(Heterogeneous(eps), cfg, path, generator=frozen)
        # room for three of the eight phases: every step refactorizes
        monkeypatch.setattr(integrator, "LU_CACHE_BYTES", 3 * 16 * grid.n ** 2)
        bounded = simulate(Heterogeneous(eps), cfg, path, generator=frozen)
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
        # dt = eps/16 over 16 steps: one full period, every phase distinct
        eps = 0.25
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=eps,
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        path = brownian_increments(0, 16, eps / 16.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(Heterogeneous(eps), cfg, path, generator=frac_gen)


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

        def steppers():
            return [ThetaStepper(Heterogeneous(eps), het_cfg, dt, n_steps, generator=frac_gen),
                    ThetaStepper(Effective(UNIT), eff_cfg, dt, n_steps, generator=frac_gen),
                    ThetaStepper(Effective(EffectiveCoefficients.from_values(0.5, 0.1, 0.2)),
                                 eff_cfg, dt, n_steps)]

        dw = np.stack([brownian_increments(s, n_steps, dt).increments for s in range(2)]
                      + [np.full(n_steps, 1e4)], axis=1)
        u0 = het_cfg.initial_field()[:, None] * np.array([1.0, 0.5j, -0.8])
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

    def test_one_step_call_and_one_blowup_construction(self):
        """ThetaStepper.step is called, and TrajectoryBlowup built, only in
        integrator.lockstep, so divergence is checked in one place."""
        sites = {"step": [], "TrajectoryBlowup": []}
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
        assert sites == {"step": [("integrator.py", "lockstep")],
                         "TrajectoryBlowup": [("integrator.py", "lockstep")]}


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


class TestOneColumnSolve:
    """integrator.lu_solve against scipy's lu_solve: two level-2 triangular
    solves for one column (1e-13 of max|x|, rounding order only), scipy's own
    solve for more (bitwise)."""

    @pytest.mark.parametrize("kind,n", SOLVE_CASES)
    def test_one_column_matches_scipy(self, kind, n):
        lu = linalg.lu_factor(implicit_lhs(kind, n))
        rng = np.random.default_rng(n)
        rhs = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
        before = rhs.copy()
        x = integrator.lu_solve(lu, rhs)
        expected = linalg.lu_solve(lu, rhs)
        assert x.shape == (n, 1) and x.dtype == complex
        assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert np.array_equal(rhs, before)
        # the factors are only read: a second solve is bitwise the first
        assert np.array_equal(integrator.lu_solve(lu, rhs), x)

    def test_some_case_pivots(self):
        pivots = [linalg.lu_factor(implicit_lhs(kind, n))[1] for kind, n in SOLVE_CASES]
        assert any(np.any(piv != np.arange(len(piv))) for piv in pivots)

    def test_noncontiguous_column_slice(self):
        lu = linalg.lu_factor(implicit_lhs("het_pivoting", 64))
        rng = np.random.default_rng(1)
        block = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        rhs = block[:, 1:2]
        assert not rhs.flags.c_contiguous and not rhs.flags.f_contiguous
        expected = linalg.lu_solve(lu, np.ascontiguousarray(rhs))
        x = integrator.lu_solve(lu, rhs)
        assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert np.array_equal(block[:, 1:2], rhs)

    @pytest.mark.parametrize("kind,n", [("eff", 64), ("het_pivoting", 257)])
    @pytest.mark.parametrize("columns", [2, 3, 8])
    def test_several_columns_are_scipys_solve(self, kind, n, columns):
        lu = linalg.lu_factor(implicit_lhs(kind, n))
        rng = np.random.default_rng(columns)
        rhs = rng.standard_normal((n, columns)) + 1j * rng.standard_normal((n, columns))
        assert np.array_equal(integrator.lu_solve(lu, rhs), linalg.lu_solve(lu, rhs))

    def test_simulate_matches_level3_solve(self, monkeypatch):
        """A one-path effective run at n = 256 against the same stepper
        solving with scipy's lu_solve: norm2 series to 1e-12 relative."""
        grid = Grid1D.make(256)
        cfg = SimConfig(grid=grid, alpha=ALPHA, T=0.25, noise=NoiseModel("linear", 0.5))
        coeffs = EffectiveCoefficients.from_values(1.0, 0.3, 0.2)
        path = brownian_increments(11, 32, 0.25 / 32)
        res = simulate(Effective(coeffs), cfg, path, store_trajectory=False)
        monkeypatch.setattr(integrator, "lu_solve",
                            lambda lu, rhs: linalg.lu_solve(lu, rhs, check_finite=False))
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
                                      f"singular, U[{i}, {i}] is exactly zero")
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


class TestBlockedImplicitFill:
    """The implicit matrix is written in blocks of FILL_COLUMNS columns; it must
    equal the whole-array product, and a non-finite entry in any block or on
    the potential diagonal keeps today's error."""

    DT = 0.25 / 8

    @classmethod
    def stepper(cls, g_mat, system, v_spec):
        cfg = SimConfig(grid=Grid1D.make(g_mat.shape[0]), alpha=ALPHA, T=0.25, v_spec=v_spec)
        return ThetaStepper(system, cfg, cls.DT, 8, generator=g_mat)

    @staticmethod
    def implicit_matrix(stepper, monkeypatch):
        def capture(a, **_):
            raise Captured(a.copy(order="K"))

        monkeypatch.setattr(integrator, "lu_factor", capture)
        with pytest.raises(Captured) as info:
            stepper._factors_at(0)
        return info.value.args[0]

    @staticmethod
    def whole_array_fill(g_mat, stepper):
        n, theta_dt = g_mat.shape[0], stepper.cfg.theta_scheme * stepper.dt
        lhs = np.empty((n, n), dtype=complex, order="F")
        np.multiply(g_mat, 1j * theta_dt, out=lhs)
        if stepper._phases is None:
            lhs[np.diag_indices(n)] += 1.0
        else:
            v = stepper._amp * stepper.cfg.v_spec.sample(stepper._y_frac, stepper._phases[0])
            lhs[np.diag_indices(n)] += 1.0 + 1j * theta_dt * v
        return lhs

    # all but n = 64 end in a partial block of columns
    @pytest.mark.parametrize("n", [5, 37, 64, 257])
    @pytest.mark.parametrize("kind", ["effective", "heterogeneous", "complex"])
    def test_matches_whole_array_fill_bitwise(self, n, kind, monkeypatch):
        g = Grid1D.make(n)
        if kind == "effective":
            g_mat = assemble_effective_generator(EffectiveCoefficients.from_values(1.1, 0.3, -0.2),
                                                 g, ALPHA)
            system, v_spec = Effective(UNIT), get_v("zero")
        elif kind == "heterogeneous":
            g_mat = assemble_heterogeneous_generator(
                g, KernelParams(alpha=ALPHA, theta=get_theta("cosine_sum"), epsilon=0.25))
            system, v_spec = Heterogeneous(0.25), get_v("cos2pi_y_times_cos2pi_tau")
        else:
            # the zero-pivot generator: theta dt = 1/64 cancels the identity
            g_mat, system, v_spec = 64j * np.eye(n), Effective(UNIT), get_v("zero")
        stepper = self.stepper(g_mat, system, v_spec)
        got = self.implicit_matrix(stepper, monkeypatch)
        assert got.flags.f_contiguous
        assert np.array_equal(got, self.whole_array_fill(g_mat, stepper))

    def test_nan_in_last_partial_block(self):
        n = 37
        assert n % integrator.FILL_COLUMNS  # the last block holds 37 - 32 = 5 columns
        g_mat = Grid1D.make(n).h * np.eye(n)
        g_mat[3, n - 1] = np.nan
        with pytest.raises(integrator.LinearSolveError) as excinfo:
            self.stepper(g_mat, Effective(UNIT), get_v("zero"))._factors_at(0)
        assert str(excinfo.value) == ("effective system, phase None: "
                                      "implicit matrix is not finite")

    def test_nonfinite_potential_diagonal(self):
        n = 37
        v_nan = VSpec("nan_near_zero",
                      lambda y, tau: np.where(y < 0.1, np.nan, 0.0) + 0.0 * tau)
        g_mat = Grid1D.make(n).h * np.eye(n)
        with pytest.raises(integrator.LinearSolveError) as excinfo:
            self.stepper(g_mat, Heterogeneous(0.25), v_nan)._factors_at(0)
        # step 0 is frozen at the theta point dt / 2, phase 1/16
        assert str(excinfo.value) == ("heterogeneous system at eps=0.25, phase 0.0625: "
                                      "implicit matrix is not finite")
