"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its measured quantities and enforcing the stated tolerance and runtime.

Criterion 7 (pathwise Ito growth ratio) is implemented exactly as stated.
Note: for the left-point Ito theta scheme the pathwise norm-growth error is
dominated by the quadratic-variation fluctuation sigma^2 (sum dW_k^2 - T),
which is a random O(sqrt(dt)) quantity, so the O(dt) halving-ratio gate is not
satisfiable by this scheme; the test reports the measured ratios.
"""

import json
import time

import numpy as np
from scipy import integrate

from nshom.cell import (CellGrid, assemble_cell_form, poisson_residual, solve_cell_problem,
                        solve_periodic_poisson)
from nshom.cli import main as cli_main
from nshom.config import RunConfig
from nshom.effective import (EffectiveCoefficients, assemble_effective_generator,
                             compute_effective_coefficients)
from nshom.harness import eps_sweep, prepare_experiment
from nshom.integrator import (Effective, Heterogeneous, NoiseModel, SimConfig,
                              brownian_increments, simulate)
from nshom.kernel import (Grid1D, KernelParams, assemble_heterogeneous_generator,
                          h_rho_norm_sq, rho)
from nshom.presets import get_theta, get_v
from references import form_eigenvalues

ALPHAS = [1.25, 1.5, 1.75]
UNIT = EffectiveCoefficients.from_values(1.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_01_constant_coefficient_example():
    """Theta == 1, periodized: Xi = (1, 0, 0) and the effective generator is
    the fractional generator, for alpha in {1.25, 1.5, 1.75}."""
    with Timer() as t:
        grid = Grid1D.make(128)
        cell_grid = CellGrid(m=128, m_tau=8, n_images=8)
        worst_xi2 = worst_xi3 = worst_dev = 0.0
        xi1_exact = True
        for alpha in ALPHAS:
            sol = solve_cell_problem(get_theta("one"), alpha, cell_grid)
            coeffs = compute_effective_coefficients(sol, get_v("cos2pi_y_times_cos2pi_tau"))
            xi1_exact &= coeffs.xi1 == 1.0
            worst_xi2 = max(worst_xi2, abs(coeffs.xi2))
            worst_xi3 = max(worst_xi3, abs(coeffs.xi3))
            gen = assemble_effective_generator(coeffs, grid, alpha)
            frac = assemble_heterogeneous_generator(
                grid, KernelParams(alpha=alpha, theta=get_theta("one")))
            worst_dev = max(worst_dev, float(np.max(np.abs(gen - frac))))
    ok = (xi1_exact and worst_xi2 < 1e-8 and worst_xi3 < 1e-8
          and worst_dev < 1e-12 and t.elapsed < 10.0)
    report(1, ok, f"xi1 exact={xi1_exact}, |xi2|<={worst_xi2:.2e}, |xi3|<={worst_xi3:.2e}, "
                  f"generator max dev={worst_dev:.2e}, {t.elapsed:.1f}s")
    assert xi1_exact
    assert worst_xi2 < 1e-8 and worst_xi3 < 1e-8
    assert worst_dev < 1e-12
    assert t.elapsed < 10.0


def test_criterion_02_quadratic_form_identity():
    """h u^T G u matches the discrete weighted fractional norm to 1e-6 for five
    smooth fields at n = 512, Theta == 1."""
    with Timer() as t:
        grid = Grid1D.make(512)
        params = KernelParams(alpha=1.5, theta=get_theta("one"))
        mat = assemble_heterogeneous_generator(grid, params)
        worst = 0.0
        for p in (1, 2, 3, 4, 5):
            u = (1.0 - grid.nodes ** 2) ** p
            lhs = grid.h * float(np.real(np.vdot(u, mat @ u)))
            rhs = h_rho_norm_sq(u, grid, params)
            worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst < 1e-6 and t.elapsed < 30.0
    report(2, ok, f"max rel deviation {worst:.2e} over 5 fields, {t.elapsed:.1f}s")
    assert worst < 1e-6
    assert t.elapsed < 30.0


def test_criterion_03_exterior_weight_quadrature():
    """Closed-form exterior weight vs adaptive quadrature at 100 random points
    for alpha in {1.25, 1.5, 1.75}."""
    with Timer() as t:
        rng = np.random.default_rng(0)
        worst = 0.0
        for alpha in ALPHAS:
            for x in rng.uniform(-0.99, 0.99, size=100):
                left, _ = integrate.quad(lambda z: abs(z - x) ** (-1 - alpha),
                                         -np.inf, -1.0)
                right, _ = integrate.quad(lambda z: abs(z - x) ** (-1 - alpha),
                                          1.0, np.inf)
                worst = max(worst, abs(left + right - rho(x, alpha)) / rho(x, alpha))
    ok = worst < 1e-8 and t.elapsed < 5.0
    report(3, ok, f"max rel error {worst:.2e} over 300 evaluations, {t.elapsed:.1f}s")
    assert worst < 1e-8
    assert t.elapsed < 5.0


def test_criterion_04_cell_solver():
    """Coercivity on the mean-zero subspace, manufactured recovery at m = 256,
    and the vanishing corrector for constant Theta."""
    with Timer() as t:
        grid = CellGrid(m=256, m_tau=1, n_images=8)
        theta = get_theta("cosine_product")
        a = assemble_cell_form(theta, 1.5, grid)
        _, lam1, _ = form_eigenvalues(a)

        y = grid.y
        chi_star = np.cos(2 * np.pi * y) - 0.5 * np.sin(4 * np.pi * y)
        chi_star -= chi_star.mean()
        b_star = a @ chi_star
        m = grid.m
        bordered = np.zeros((m + 1, m + 1))
        bordered[:m, :m] = a
        bordered[:m, m] = 1.0
        bordered[m, :m] = 1.0
        sol = np.linalg.solve(bordered, np.concatenate([b_star, [0.0]]))
        recovery = float(np.linalg.norm(sol[:m] - chi_star) / np.linalg.norm(chi_star))

        sol_one = solve_cell_problem(get_theta("one"), 1.5, grid)
        chi_norm = float(np.linalg.norm(sol_one.chi))
    ok = lam1 > 0.0 and recovery < 1e-6 and chi_norm < 1e-8 and t.elapsed < 60.0
    report(4, ok, f"coercivity {lam1:.3e} > 0, recovery {recovery:.2e}, "
                  f"|chi|={chi_norm:.2e}, {t.elapsed:.1f}s")
    assert lam1 > 0.0
    assert recovery < 1e-6
    assert chi_norm < 1e-8
    assert t.elapsed < 60.0


def test_criterion_05_periodic_poisson():
    """Spectral periodic solve: relative residual below 1e-8 for the three
    potential presets."""
    with Timer() as t:
        grid = CellGrid(m=256, m_tau=16, n_images=8)
        worst = 0.0
        for name in ("cos2pi_y", "cos2pi_y_times_cos2pi_tau",
                     "sin2pi_y_one_plus_sin2pi_tau"):
            v = get_v(name)
            xi = solve_periodic_poisson(v, 1.5, grid)
            worst = max(worst, poisson_residual(xi, v, 1.5, grid))
    ok = worst < 1e-8 and t.elapsed < 10.0
    report(5, ok, f"max relative residual {worst:.2e}, {t.elapsed:.1f}s")
    assert worst < 1e-8
    assert t.elapsed < 10.0


def test_criterion_06_norm_conservation():
    """g = f = 0, theta = 1/2, n = 256, T = 1: discrete norm conserved to 1e-8
    (heterogeneous run with the oscillating potential)."""
    with Timer() as t:
        grid = Grid1D.make(256)
        cfg = SimConfig(grid=grid, alpha=1.5, T=1.0,
                        v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
        path = brownian_increments(0, 128, 1.0 / 128)
        res = simulate(Heterogeneous(0.25), cfg, path, store_trajectory=False)
        drift = abs(res.norm2[-1] / res.norm2[0] - 1.0)
    ok = drift < 1e-8 and t.elapsed < 30.0
    report(6, ok, f"relative norm drift {drift:.2e} over 128 steps, {t.elapsed:.1f}s")
    assert drift < 1e-8
    assert t.elapsed < 30.0


def test_criterion_07_ito_growth_ratio():
    """g = sigma u with sigma = 0.5, f = 0, T = 1: pathwise norm-growth error
    with halving-ratio in [1.6, 2.4] across three dt levels (same bridge-refined
    path).  See the module docstring: the measured error carries a random
    O(sqrt(dt)) component, so this gate is expected to fail for the pinned
    left-point scheme."""
    with Timer() as t:
        sigma, T = 0.5, 1.0
        grid = Grid1D.make(64)
        gen = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=1.5, theta=get_theta("one")))
        cfg = SimConfig(grid=grid, alpha=1.5, T=T, noise=NoiseModel("linear", sigma))
        path = brownian_increments(0, 32, T / 32)
        errors = []
        for _ in range(3):
            res = simulate(Effective(UNIT), cfg, path, store_trajectory=False,
                           generator=gen)
            errors.append(abs(res.norm2[-1] / (res.norm2[0] * np.exp(sigma ** 2 * T)) - 1.0))
            path = path.refine()
        ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(1.6 <= r <= 2.4 for r in ratios) and t.elapsed < 120.0
    report(7, ok, f"relative errors {[f'{e:.4f}' for e in errors]}, "
                  f"ratios {[f'{r:.2f}' for r in ratios]}, {t.elapsed:.1f}s")
    assert t.elapsed < 120.0
    assert all(1.6 <= r <= 2.4 for r in ratios), (
        f"halving ratios {ratios} outside [1.6, 2.4]: the pathwise error is "
        "dominated by the random quadratic-variation term sigma^2 (sum dW^2 - T) "
        "~ N(0, 2 sigma^4 T dt), an O(sqrt(dt)) quantity, so an O(dt) ratio "
        "gate cannot hold for the left-point Ito theta scheme")


def test_criterion_08_stochastic_strong_self_convergence():
    """Strong self-convergence order >= 0.4 over 32 bridge-refined paths with
    the bounded noise preset."""
    with Timer() as t:
        T = 1.0
        grid = Grid1D.make(64)
        gen = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=1.5, theta=get_theta("one")))
        cfg = SimConfig(grid=grid, alpha=1.5, T=T, noise=NoiseModel("bounded", 0.5))
        d0, d1 = [], []
        for seed in range(32):
            p0 = brownian_increments(seed, 32, T / 32)
            p1 = p0.refine()
            p2 = p1.refine()
            finals = [simulate(Effective(UNIT), cfg, p, store_trajectory=False,
                               generator=gen).final for p in (p0, p1, p2)]
            d0.append(grid.h * float(np.sum(np.abs(finals[0] - finals[1]) ** 2)))
            d1.append(grid.h * float(np.sum(np.abs(finals[1] - finals[2]) ** 2)))
        e0, e1 = float(np.sqrt(np.mean(d0))), float(np.sqrt(np.mean(d1)))
        order = float(np.log2(e0 / e1))
    ok = order >= 0.4 and t.elapsed < 300.0
    report(8, ok, f"strong differences {e0:.3e} -> {e1:.3e}, order {order:.3f}, "
                  f"{t.elapsed:.1f}s")
    assert order >= 0.4
    assert t.elapsed < 300.0


def test_criterion_09_homogenization_sweep():
    """Theta == 1, V = cos(2 pi y) cos(2 pi tau), alpha = 1.5, n = 256,
    eps in {1/2, 1/4, 1/8, 1/16}, 32 coupled paths: mean strong error strictly
    decreasing, final error at most half the first, at most 20% exclusions.
    The fitted slope is reported as data."""
    with Timer() as t:
        rc = RunConfig.from_dict({})  # defaults: n=256, T=1, bounded noise, seed 0
        prepared = prepare_experiment(rc)
        report_obj = eps_sweep([0.5, 0.25, 0.125, 0.0625], 32, rc, prepared=prepared)
        errs = report_obj.strong_err
        decreasing = all(b < a for a, b in zip(errs, errs[1:]))
        halved = errs[-1] <= errs[0] / 2.0
        max_excluded = max(report_obj.excluded)
    ok = decreasing and halved and max_excluded <= 6 and t.elapsed < 900.0
    report(9, ok, f"errors {[f'{e:.3e}' for e in errs]}, slope "
                  f"{report_obj.fit['slope']:.2f} (reported, not gated), "
                  f"excluded max {max_excluded}/32, {t.elapsed:.0f}s")
    assert decreasing, f"strong errors not strictly decreasing: {errs}"
    assert halved, f"error({0.0625}) = {errs[-1]} > half of error(0.5) = {errs[0]}"
    assert max_excluded <= 0.2 * 32
    assert t.elapsed < 900.0


def test_criterion_10_bitwise_reproducibility(tmp_path):
    """Serial rerun driven by the manifest's embedded config reproduces every
    CSV byte for byte."""
    with Timer() as t:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "alpha": 1.5, "grid": {"n": 64},
            "cell": {"m": 32, "m_tau": 2, "n_images": 4},
            "T": 0.5, "dt_rule": {"kind": "fixed", "dt": 1.0 / 64.0},
        }))
        out1 = tmp_path / "first"
        assert cli_main(["simulate", "--system", "het", "--eps", "1/4", "--seed", "11",
                         "--config", str(cfg_path), "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg2 = tmp_path / "manifest_config.json"
        cfg2.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / "second"
        assert cli_main(["simulate", "--system", "het",
                         "--eps", str(manifest["parameters"]["eps"]),
                         "--seed", str(manifest["seeds"][0]),
                         "--config", str(cfg2), "--out", str(out2)]) == 0
        csvs = sorted(p.name for p in out1.glob("*.csv"))
        identical = bool(csvs) and all(
            (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in csvs)
    report(10, identical, f"{len(csvs)} CSV files identical byte-for-byte, {t.elapsed:.1f}s")
    assert identical
