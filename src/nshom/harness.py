"""Coupled-path convergence experiments between the heterogeneous and
effective systems.

The strong-error surrogate for one path is the discrete space-time norm

    E_path = dt * h * sum_k sum_i |u_eps(t_k, x_i) - u_eff(t_k, x_i)|^2

(time levels k = 1..N), both systems driven by the same Brownian increments.
The generator of each eps is assembled once, and ``integrator.lockstep``, the
loop of ``simulate``, steps both systems over all paths; the sweep's error
integrals and the corrector diagnostic are reduced from its states step by
step, so no trajectory is stored. Sweep reports aggregate over paths:
mean, Monte Carlo standard error, weak errors against fixed test functions,
exclusion counts for diverged paths, and a log-log slope fit of the mean
strong error against eps (reported as data, not gated).

Failure policy:

* A factorization is shared by every path at its (system, eps, phase), so a
  ``LinearSolveError`` ends the sweep at once; the CLI reports it with exit
  code 3.
* A ``TrajectoryBlowup`` belongs to one path: that column is excluded with
  its reason and a warning, and the other columns are stepped with unchanged
  arithmetic. An eps level that excludes more than 20 % of its paths fails
  the sweep with ``SweepFailure``; the corrector diagnostic, on one path, raises it.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .cell import CellSolution, solve_cell_problem
from .config import RunConfig
from .effective import (EffectiveCoefficients, assemble_effective_generator,
                        compute_effective_coefficients, zeta_matrix)
# simulate is not called here; perfbench/tracer.py wraps harness.simulate by name
from .integrator import (Effective, Heterogeneous, ThetaStepper, brownian_increments,
                         lockstep, simulate)
from .kernel import Grid1D, KernelParams, assemble_heterogeneous_generator
from .presets import PSI_PRESETS

STRONG_ERROR_DEFINITION = (
    "strong_err = mean over paths of dt*h*sum_{t,x} |u_eps - u_eff|^2 "
    "(time levels 1..N, coupled Brownian paths); weak_err_k = |mean over paths "
    "of dt*h*sum_{t,x} (u_eps - u_eff) conj(psi_k)|")

MAX_EXCLUDED_FRACTION = 0.2


class SweepFailure(RuntimeError):
    """Raised when an eps level loses more than the allowed fraction of paths."""

    def __init__(self, message: str, report: "SweepReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass
class PreparedExperiment:
    """Epsilon-independent pieces shared across a sweep: cell solve, effective
    coefficients and generator, test functions."""

    grid: Grid1D
    cell_solution: CellSolution
    coefficients: EffectiveCoefficients
    effective_generator: np.ndarray
    psi_names: list[str]
    psi_values: np.ndarray  # (n_psi, n)


@dataclass
class PathOutcome:
    error: float
    weak: np.ndarray
    excluded: bool = False
    reason: str = ""


@dataclass
class SweepReport:
    eps_list: list[float]
    n_paths: int
    strong_err: list[float]
    strong_se: list[float]
    weak_err: list[list[float]]  # per eps, per psi
    excluded: list[int]
    wall_s: list[float]
    psi_names: list[str]
    fit: dict
    seeds: list[int]
    definition: str = STRONG_ERROR_DEFINITION


def solve_coefficients(rc: RunConfig) -> tuple[CellSolution, EffectiveCoefficients]:
    """Corrector solve on the configured cell grid and the three effective
    coefficients from it."""
    cell = solve_cell_problem(rc.sim.theta, rc.sim.alpha, rc.cell)
    return cell, compute_effective_coefficients(cell, rc.sim.v_spec)


def prepare_experiment(rc: RunConfig) -> PreparedExperiment:
    grid = rc.sim.grid
    cell, coeffs = solve_coefficients(rc)
    geff = assemble_effective_generator(coeffs, grid, rc.sim.alpha)
    names = [name for name, _ in PSI_PRESETS]
    psis = np.stack([fn(grid.nodes) for _, fn in PSI_PRESETS])
    return PreparedExperiment(grid=grid, cell_solution=cell, coefficients=coeffs,
                              effective_generator=geff, psi_names=names, psi_values=psis)


def _coupled_steps(eps: float, rc: RunConfig, seeds: list[int],
                   prepared: PreparedExperiment):
    """``integrator.lockstep`` of the heterogeneous and the effective system
    with one column per seed."""
    cfg = rc.sim
    dt, n_steps = rc.resolve_dt(eps)
    dw = np.stack([brownian_increments(s, n_steps, dt).increments for s in seeds], axis=1)
    params = KernelParams(alpha=cfg.alpha, theta=cfg.theta, epsilon=eps)
    g_het = assemble_heterogeneous_generator(prepared.grid, params)
    steppers = [ThetaStepper(Heterogeneous(eps), cfg, dt, n_steps, generator=g_het),
                ThetaStepper(Effective(prepared.coefficients), cfg, dt, n_steps,
                             generator=prepared.effective_generator)]
    u0 = np.repeat(cfg.initial_field().astype(complex)[:, None], len(seeds), axis=1)
    return lockstep(steppers, u0, dw)


def coupled_errors(eps: float, rc: RunConfig, seeds: list[int],
                   prepared: PreparedExperiment) -> list[PathOutcome]:
    """Strong and weak error integrals of the coupled paths of ``seeds``; a
    column that diverges is excluded with its reason."""
    psi_conj = np.conj(prepared.psi_values.T)
    n_psi = len(prepared.psi_names)
    err = np.zeros(len(seeds))
    weak = np.zeros((len(seeds), n_psi), dtype=complex)
    for _, (u_het, u_eff), dead, reasons in _coupled_steps(eps, rc, seeds, prepared):
        diff = u_het - u_eff
        err += np.sum(diff.real ** 2 + diff.imag ** 2, axis=0)
        weak += diff.T @ psi_conj

    scale = rc.resolve_dt(eps)[0] * prepared.grid.h
    outcomes = []
    for j, seed in enumerate(seeds):
        if dead[j]:
            warnings.warn(f"coupled path seed={seed} eps={eps} diverged: {reasons[j]}")
            outcomes.append(PathOutcome(error=float("nan"),
                                        weak=np.full(n_psi, np.nan, dtype=complex),
                                        excluded=True, reason=str(reasons[j])))
        else:
            outcomes.append(PathOutcome(error=float(scale * err[j]), weak=scale * weak[j]))
    return outcomes


def coupled_pair_error(eps: float, rc: RunConfig, seed: int,
                       prepared: PreparedExperiment) -> PathOutcome:
    """Strong and weak error integrals for one coupled path (the one-column
    case of ``coupled_errors``); a diverged path is flagged for exclusion
    instead of propagating."""
    return coupled_errors(eps, rc, [seed], prepared)[0]


def fit_loglog(eps_list: list[float], errors: list[float],
               floor: float = 1e-14) -> dict:
    """Least-squares slope of log(err) against log(eps); degenerate fits are
    flagged instead of extrapolated."""
    eps_arr = np.asarray(eps_list, dtype=float)
    err_arr = np.asarray(errors, dtype=float)
    if eps_arr.size < 2:
        return {"slope": None, "intercept": None, "r2": None,
                "degenerate": True, "reason": "need at least two eps levels"}
    if np.any(~np.isfinite(err_arr)) or np.any(err_arr <= floor):
        return {"slope": None, "intercept": None, "r2": None,
                "degenerate": True,
                "reason": f"errors at or below the tolerance floor {floor:g}"}
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
              prepared: PreparedExperiment | None = None,
              progress=None) -> SweepReport:
    """Monte Carlo sweep over decreasing eps on coupled paths.

    Raises SweepFailure (with the partial report attached) when any eps level
    excludes more than 20% of its paths, and lets LinearSolveError through.
    """
    eps_arr = check_sweep_args(eps_list, n_paths)
    if prepared is None:
        prepared = prepare_experiment(rc)

    seeds = [rc.seed + i for i in range(n_paths)]
    strong, ses, weaks, excludeds, walls = [], [], [], [], []
    failure = None
    for eps in eps_arr:
        t0 = time.perf_counter()
        outcomes = coupled_errors(eps, rc, seeds, prepared)
        wall = time.perf_counter() - t0
        kept = [o for o in outcomes if not o.excluded]
        n_excl = len(outcomes) - len(kept)
        if progress is not None:
            progress(eps, len(kept), n_excl, wall)
        excludeds.append(n_excl)
        walls.append(wall)
        if not kept:
            strong.append(float("nan"))
            ses.append(float("nan"))
            weaks.append([float("nan")] * len(prepared.psi_names))
        else:
            errs = np.array([o.error for o in kept])
            strong.append(float(errs.mean()))
            ses.append(monte_carlo_se(errs))
            weak_mat = np.stack([o.weak for o in kept])
            weaks.append([float(np.abs(weak_mat[:, j].mean()))
                          for j in range(len(prepared.psi_names))])
        if n_excl > MAX_EXCLUDED_FRACTION * n_paths and failure is None:
            failure = (f"eps={eps}: {n_excl}/{n_paths} paths excluded "
                       f"(limit {MAX_EXCLUDED_FRACTION:.0%})")

    report = SweepReport(eps_list=eps_arr, n_paths=n_paths, strong_err=strong,
                         strong_se=ses, weak_err=weaks, excluded=excludeds,
                         wall_s=walls, psi_names=list(prepared.psi_names),
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


def _interp_periodic(chi: np.ndarray, points: np.ndarray) -> np.ndarray:
    m = chi.size
    yg = np.concatenate([np.arange(m) / m, [1.0]])
    vals = np.concatenate([chi, chi[:1]])
    return np.interp(np.mod(points, 1.0), yg, vals)


def corrector_residual(eps: float, rc: RunConfig, seed: int,
                       prepared: PreparedExperiment) -> dict:
    """Two-scale reconstruction diagnostic (reported, not gated).

    Rebuilds u1 = -zeta(u_eff) * chi(x/eps) and measures the discrete
    L^2(time x D x D) distance between the heterogeneous two-point field D* u_eps
    and the reconstruction D*_x u_eff + D*_y u1 sampled at the fast variables.
    Also returns the plain gradient-level error (chi term dropped), which the
    residual equals when the corrector vanishes. The coupled path of ``seed``
    is reduced step by step; if it diverges, its TrajectoryBlowup is raised.
    """
    grid, alpha = prepared.grid, rc.sim.alpha
    h = grid.h
    gam_x = _gamma_matrix(grid.nodes, alpha)
    gam_y = _gamma_matrix(grid.nodes, alpha, scale=eps)
    zmat = zeta_matrix(grid, alpha)
    chi_fast = _interp_periodic(prepared.cell_solution.chi, grid.nodes / eps)
    chi_diff = chi_fast[None, :] - chi_fast[:, None]

    total = 0.0
    baseline = 0.0
    for _, (u_het, u_eff), dead, reasons in _coupled_steps(eps, rc, [seed], prepared):
        if dead[0]:
            raise reasons[0]
        uh, ue = u_het[:, 0], u_eff[:, 0]
        dstar_het = -(uh[None, :] - uh[:, None]) * gam_x
        dstar_eff = -(ue[None, :] - ue[:, None]) * gam_x
        recon = dstar_eff + (zmat @ ue)[:, None] * chi_diff * gam_y
        total += float(np.sum(np.abs(dstar_het - recon) ** 2))
        baseline += float(np.sum(np.abs(dstar_het - dstar_eff) ** 2))
    norm = rc.resolve_dt(eps)[0] * h * h
    return {
        "residual": float(np.sqrt(norm * total)),
        "gradient_error": float(np.sqrt(norm * baseline)),
        "eps": eps,
        "seed": seed,
    }


def monte_carlo_se(values: np.ndarray) -> float:
    """Standard error of the mean estimator."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))
