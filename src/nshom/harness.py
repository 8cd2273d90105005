"""Coupled-path convergence experiments between the heterogeneous and
effective systems.

The strong-error surrogate for one path is the discrete space-time norm

    E_path = dt * h * sum_k sum_i |u_eps(t_k, x_i) - u_eff(t_k, x_i)|^2

(time levels k = 1..N), both systems driven by the same Brownian increments.
``coupled_errors`` does one eps level: it assembles the level's generator
once, ``integrator.lockstep`` steps both systems over all paths, and the error
integrals are reduced step by step, one entry per path. The corrector
diagnostic steps nothing: one resolvent solve per eps. A sweep reduces the
arrays over the paths it kept: mean, Monte Carlo standard error (NaN with
fewer than 2 kept paths), weak errors against the ``PSI_PRESETS`` test
functions, exclusion counts for diverged paths, and a log-log slope fit of
the mean strong error against eps (reported as data, not gated). The harness
keeps no clock; the CLI times each level through ``progress``.

Failure policy:

* A factorization is shared by every path at its (system, eps, phase), so a
  ``LinearSolveError`` ends the sweep at once; the CLI reports it with exit
  code 3.
* A ``TrajectoryBlowup`` belongs to one path: that column is NaN in the
  error arrays, its reason is returned and warned, and the other columns are
  stepped with unchanged arithmetic. An eps level that excludes more than
  20 % of its paths fails the sweep with ``SweepFailure``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cell import CellSolution, solve_cell_problem
from .config import RunConfig
from .effective import (EffectiveCoefficients, assemble_effective_generator,
                        compute_effective_coefficients, zeta_matrix)
# simulate is not called here; perfbench/tracer.py wraps harness.simulate by name
from .integrator import (Effective, Heterogeneous, ThetaStepper, TrajectoryBlowup,
                         brownian_increments, lockstep, simulate)
from .kernel import KernelParams, assemble_heterogeneous_generator
from .presets import PSI_PRESETS

STRONG_ERROR_DEFINITION = (
    "strong_err = mean over paths of dt*h*sum_{t,x} |u_eps - u_eff|^2 "
    "(time levels 1..N, coupled Brownian paths); weak_err_k = |mean over paths "
    "of dt*h*sum_{t,x} (u_eps - u_eff) conj(psi_k)|")

MAX_EXCLUDED_FRACTION = 0.2
RESOLVENT_SHIFT = 1.0  # lam of the corrector diagnostic's resolvents (G + lam)^{-1}
FIT_FLOOR = 1e-14  # errors at or below it are rounding, too small to fit a slope to


class SweepFailure(RuntimeError):
    """Raised when an eps level loses more than the allowed fraction of paths."""

    def __init__(self, message: str, report: "SweepReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass
class PreparedExperiment:
    """Epsilon-independent pieces shared across a sweep: cell solve, effective
    coefficients and generator."""

    cell_solution: CellSolution
    coefficients: EffectiveCoefficients
    effective_generator: np.ndarray


@dataclass
class SweepReport:
    eps_list: list[float]
    n_paths: int
    strong_err: list[float]
    strong_se: list[float]
    weak_err: list[list[float]]  # per eps, per psi
    excluded: list[int]
    fit: dict
    seeds: list[int]


def solve_coefficients(rc: RunConfig) -> tuple[CellSolution, EffectiveCoefficients]:
    """Corrector solve on the configured cell grid and the three effective
    coefficients from it."""
    cell = solve_cell_problem(rc.sim.theta, rc.sim.alpha, rc.cell)
    return cell, compute_effective_coefficients(cell, rc.sim.v_spec)


def prepare_experiment(rc: RunConfig) -> PreparedExperiment:
    cell, coeffs = solve_coefficients(rc)
    geff = assemble_effective_generator(coeffs, rc.sim.grid, rc.sim.alpha)
    return PreparedExperiment(cell_solution=cell, coefficients=coeffs,
                              effective_generator=geff)


def coupled_errors(eps: float, rc: RunConfig, seeds: list[int], prepared: PreparedExperiment
                   ) -> tuple[np.ndarray, np.ndarray, list[TrajectoryBlowup | None]]:
    """Strong and weak error integrals of the coupled paths of ``seeds``, stepped
    by ``integrator.lockstep`` with one column per seed, as ``(err, weak,
    reasons)``: ``err`` is (P,), ``weak`` is (P, n_psi) against ``PSI_PRESETS``,
    and ``reasons[j]`` is the TrajectoryBlowup of a column that diverged (NaN in
    ``err`` and ``weak``, and warned) or None."""
    cfg = rc.sim
    grid = cfg.grid
    dt, n_steps = rc.resolve_dt(eps)
    dw = np.stack([brownian_increments(s, n_steps, dt).increments for s in seeds], axis=1)
    g_het = assemble_heterogeneous_generator(
        grid, KernelParams(alpha=cfg.alpha, theta=cfg.theta, epsilon=eps))
    steppers = [ThetaStepper(Heterogeneous(eps), cfg, dt, n_steps, generator=g_het),
                ThetaStepper(Effective(prepared.coefficients), cfg, dt, n_steps,
                             generator=prepared.effective_generator)]
    u0 = np.repeat(cfg.initial_field()[:, None], len(seeds), axis=1)
    psi_conj = np.conj(np.stack([fn(grid.nodes) for _, fn in PSI_PRESETS]).T)
    err = np.zeros(len(seeds))
    weak = np.zeros((len(seeds), len(PSI_PRESETS)), dtype=complex)
    for _, (u_het, u_eff), dead, reasons in lockstep(steppers, u0, dw):
        diff = u_het - u_eff
        err += np.sum(diff.real ** 2 + diff.imag ** 2, axis=0)
        weak += diff.T @ psi_conj

    # NaN before scaling: a diverged column may hold inf, and complex inf * scale warns
    err[dead] = np.nan
    weak[dead] = np.nan
    scale = dt * grid.h
    err *= scale
    weak *= scale
    for j in np.flatnonzero(dead):
        warnings.warn(f"coupled path seed={seeds[j]} eps={eps} diverged: {reasons[j]}")
    return err, weak, reasons


def coupled_pair_error(eps: float, rc: RunConfig, seed: int,
                       prepared: PreparedExperiment):
    """The one-column case of ``coupled_errors``."""
    return coupled_errors(eps, rc, [seed], prepared)


def fit_loglog(eps_list: list[float], errors: list[float]) -> dict:
    """Least-squares slope of log(err) against log(eps); degenerate fits are
    flagged instead of extrapolated."""
    eps_arr = np.asarray(eps_list, dtype=float)
    err_arr = np.asarray(errors, dtype=float)
    if eps_arr.size < 2:
        return {"slope": None, "intercept": None, "r2": None,
                "degenerate": True, "reason": "need at least two eps levels"}
    if np.any(~np.isfinite(err_arr)) or np.any(err_arr <= FIT_FLOOR):
        return {"slope": None, "intercept": None, "r2": None,
                "degenerate": True,
                "reason": f"errors at or below the tolerance floor {FIT_FLOOR:g}"}
    lx, ly = np.log(eps_arr), np.log(err_arr)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2,
            "degenerate": False, "reason": ""}


def check_sweep_args(eps_list: list[float], n_paths: int) -> list[float]:
    """The eps levels as floats; ValueError unless they are a non-empty, strictly
    decreasing list of finite positive levels and there are at least 2 paths."""
    eps_arr = list(map(float, eps_list))
    if len(eps_arr) < 1:
        raise ValueError("eps_list must not be empty")
    bad = [e for e in eps_arr if not (np.isfinite(e) and e > 0.0)]
    if bad:
        raise ValueError(f"eps levels must be finite and positive, got {bad}")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a standard error")
    return eps_arr


def eps_sweep(eps_list: list[float], n_paths: int, rc: RunConfig,
              prepared: PreparedExperiment, progress=None) -> SweepReport:
    """Monte Carlo sweep over decreasing eps on coupled paths, from the set-up
    ``prepare_experiment(rc)`` returned; ``progress``, if given, is called as
    ``progress(eps, kept, excluded)`` after each level.

    Raises SweepFailure (with the partial report attached) when any eps level
    excludes more than 20% of its paths, and lets LinearSolveError through.
    """
    eps_arr = check_sweep_args(eps_list, n_paths)
    seeds = [rc.seed + i for i in range(n_paths)]
    strong, ses, weaks, excludeds = [], [], [], []
    failure = None
    for eps in eps_arr:
        err, weak, reasons = coupled_errors(eps, rc, seeds, prepared)
        kept = np.array([r is None for r in reasons])
        n_excl = n_paths - int(kept.sum())
        if progress is not None:
            progress(eps, n_paths - n_excl, n_excl)
        excludeds.append(n_excl)
        if kept.any():
            strong.append(float(err[kept].mean()))
            weaks.append([float(np.abs(weak[kept, j].mean())) for j in range(weak.shape[1])])
        else:
            strong.append(float("nan"))
            weaks.append([float("nan")] * weak.shape[1])
        ses.append(monte_carlo_se(err[kept]))
        if n_excl > MAX_EXCLUDED_FRACTION * n_paths and failure is None:
            failure = (f"eps={eps}: {n_excl}/{n_paths} paths excluded "
                       f"(limit {MAX_EXCLUDED_FRACTION:.0%})")

    report = SweepReport(eps_list=eps_arr, n_paths=n_paths, strong_err=strong,
                         strong_se=ses, weak_err=weaks, excluded=excludeds,
                         fit=fit_loglog(eps_arr, strong), seeds=seeds)
    if failure is not None:
        raise SweepFailure(failure, report=report)
    return report


def _gamma_matrix(nodes: np.ndarray, alpha: float, scale: float = 1.0) -> np.ndarray:
    """gamma(x_i / scale, x_j / scale) with a zero diagonal."""
    d = (nodes[None, :] - nodes[:, None]) / scale
    out = np.zeros_like(d)
    mask = d != 0.0
    out[mask] = d[mask] * np.abs(d[mask]) ** (-(3.0 + alpha) / 2.0)
    return out


def _interp_periodic(cell: CellSolution, points: np.ndarray) -> np.ndarray:
    return np.interp(points, cell.grid.y, cell.chi, period=1.0)


def corrector_residual(eps_list: list[float], rc: RunConfig,
                       prepared: PreparedExperiment) -> list[dict]:
    """Two-scale reconstruction diagnostic (reported, not gated): one
    ``{"eps", "residual", "gradient_error"}`` per eps from the resolvents
    r_eff = (G + lam)^{-1} f, G the effective generator at (Xi_1, Xi_2, 0), and
    r_eps = (G_het(eps) + lam)^{-1} f, which by Trotter-Kato decide the limit of
    the evolutions with no time step, noise or V (V reaches G_eff only through
    Xi_3); lam = ``RESOLVENT_SHIFT``, f the initial datum. F_ij = (d_i - d_j)
    gamma(x_i, x_j), d = r_eps - r_eff, is the gradient-level error, and
    F - zeta(r_eff)_i (chi(x_j/eps) - chi(x_i/eps)) gamma(x_i/eps, x_j/eps) the
    residual against the reconstruction D*_x r_eff + D*_y (-zeta(r_eff) chi(x/eps)).
    """
    grid, alpha = rc.sim.grid, rc.sim.alpha
    diag, f = np.diag_indices(grid.n), rc.sim.initial_field()
    xi1, xi2, _ = prepared.coefficients.as_tuple()
    g = assemble_effective_generator(EffectiveCoefficients.from_values(xi1, xi2), grid, alpha)
    g[diag] += RESOLVENT_SHIFT
    r_eff = np.linalg.solve(g, f)
    zeta, gam_x = zeta_matrix(grid, alpha) @ r_eff, _gamma_matrix(grid.nodes, alpha)
    out = []
    for eps in eps_list:
        g = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=alpha, theta=rc.sim.theta, epsilon=eps))
        g[diag] += RESOLVENT_SHIFT
        d = np.linalg.solve(g, f) - r_eff
        chi = _interp_periodic(prepared.cell_solution, grid.nodes / eps)
        field = (d[:, None] - d[None, :]) * gam_x
        baseline = np.vdot(field, field).real
        field -= zeta[:, None] * (chi[None, :] - chi[:, None]) * _gamma_matrix(
            grid.nodes, alpha, scale=eps)
        total = np.vdot(field, field).real
        out.append({"eps": eps, "residual": float(grid.h * np.sqrt(total)),
                    "gradient_error": float(grid.h * np.sqrt(baseline))})
    return out


def monte_carlo_se(values: np.ndarray) -> float:
    """Standard error of the mean estimator; NaN for fewer than 2 values."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / np.sqrt(values.size))
