"""Coupled-path convergence experiments between the heterogeneous and
effective systems.

The strong-error surrogate for one path is the discrete space-time norm

    E_path = dt * h * sum_k sum_i |u_eps(t_k, x_i) - u_eff(t_k, x_i)|^2

(time levels k = 1..N), both systems driven by the same Brownian increments.
``coupled_errors`` does one eps level: it assembles the level's generator
once, ``integrator.lockstep`` steps both systems over all paths, and the error
integrals are reduced step by step, one entry per path. The effective system
is stepped in G_eff's eigenbasis when ``integrator.effective_solve`` picks it;
the first ``coupled_errors`` call of a set-up computes that basis and the
``PreparedExperiment`` keeps it for every later level, so a direct call and a
sweep take the same arithmetic.

A level is reflection-even when V, h and f are even under x -> -x (their
specs' ``even``, read first, so that odd inputs scan no matrix), G_eff is
and the level's G_het is (J G J = G, J the reversal of the nodes, to
``presets.REFLECTION_RTOL`` of max|G|). The noise is pointwise, so every
path then stays even, and ``coupled_errors`` steps both systems on the first
m = ceil(n/2) nodes: each gets ``reflection_fold`` of its first m rows, the
mirrored column added to column i < n//2, its paired block made exactly
symmetric when G is, and a ``SimConfig`` whose grid holds those nodes. The
strong error weighs a paired node 2 and a middle node 1 (the fold of ones),
and the weak errors take the folded psi. The folded G_eff and its eigenbasis
are computed at the first ``coupled_errors`` call, beside the full basis, and
``PreparedExperiment.stepped`` records how each level was stepped and
``factor_counts`` its steppers' factorizations and hits. Any other
level, and ``simulate``, keeps the full grid. The corrector
diagnostic steps nothing: one resolvent solve per eps, and one gamma matrix
per call (``kernel`` holds gamma's scalar and matrix forms), scaled by
eps^{(1+alpha)/2} to each level's fast variable. A sweep reduces the
arrays over the paths it kept: mean, Monte Carlo standard error (NaN with
fewer than 2 kept paths), weak errors against the ``PSI_PRESETS`` test
functions, exclusion counts for diverged paths, and a log-log slope fit of
the mean strong error against eps (reported as data, not gated). The harness
keeps no clock; the CLI times each level through ``progress``.

Failure policy:

* A factorization is shared by every path at its (system, eps, potential
  diagonal), and G_eff's eigenbasis by every level, so a
  ``LinearSolveError`` ends the sweep at once; the CLI reports it with exit
  code 3. A non-finite G is not reflection-even, so it reaches that error
  on the full grid.
* A ``TrajectoryBlowup`` belongs to one path: that column is NaN in the
  error arrays, its reason is returned and warned, and the other columns are
  stepped with unchanged arithmetic. An eps level that excludes more than
  20 % of its paths fails the sweep with ``SweepFailure``.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cell import CellSolution, solve_cell_problem
from .config import RunConfig
from .effective import (EffectiveCoefficients, assemble_effective_generator,
                        compute_effective_coefficients, zeta_matrix)
# simulate is not called here; perfbench/tracer.py wraps harness.simulate by name
from .integrator import (EigenBasis, ThetaStepper, TrajectoryBlowup, brownian_increments,
                         effective_solve, eigenbasis, exactly_symmetric, lockstep, simulate)
from .kernel import Grid1D, KernelParams, assemble_heterogeneous_generator, gamma_matrix
from .presets import PSI_PRESETS, mirror_matches

STRONG_ERROR_DEFINITION = (
    "strong_err = mean over paths of dt*h*sum_{t,x} |u_eps - u_eff|^2 "
    "(time levels 1..N, coupled Brownian paths); weak_err_k = |mean over paths "
    "of dt*h*sum_{t,x} (u_eps - u_eff) conj(psi_k)|")

MAX_EXCLUDED_FRACTION = 0.2
RESOLVENT_SHIFT = 1.0  # lam of the corrector diagnostic's resolvents (G + lam)^{-1}
FIT_FLOOR = 1e-14  # errors at or below it are rounding, too small to fit a slope to


class SweepFailure(RuntimeError):
    """Raised when an eps level loses more than the allowed fraction of paths;
    ``report`` holds every level of the sweep."""

    def __init__(self, message: str, report: "SweepReport"):
        super().__init__(message)
        self.report = report


def reflection_fold(a: np.ndarray) -> np.ndarray:
    """``a`` on the even half of its last axis of n entries: its first
    m = ceil(n/2) entries, with entry n-1-i added to entry i for i < n//2 (a
    middle entry, at odd n, counted once). For every u even under
    i -> n-1-i, ``reflection_fold(a) @ u[:m]`` is ``a @ u``."""
    n = a.shape[-1]
    out = a[..., :(n + 1) // 2].copy()
    out[..., :n // 2] += a[..., ::-1][..., :n // 2]
    return out


def _even_half(g: np.ndarray) -> np.ndarray | None:
    """The (m, m) matrix that steps the even states of the (n, n) G on their
    first m = ceil(n/2) nodes, ``reflection_fold`` of G's first m rows, or
    None unless G is reflection-even (``presets.mirror_matches`` of those rows
    against the rows of J G J, J the reversal), so a non-finite G is not.
    When G is exactly symmetric the block of paired nodes is made exactly
    symmetric as (F + F^T)/2, so that the L D L^T factors and the eigenbasis
    apply to it; at odd n the middle row, counted twice against the middle
    column's once, keeps the fold from being symmetric."""
    m, pairs = (g.shape[0] + 1) // 2, g.shape[0] // 2
    if not mirror_matches(g[:m], g[::-1, ::-1][:m]):
        return None
    f = reflection_fold(g[:m])
    if exactly_symmetric(g):
        block = f[:pairs, :pairs]
        block[...] = (block + block.T) / 2.0
    return f


@dataclass
class PreparedExperiment:
    """Epsilon-independent pieces shared across a sweep: cell solve, effective
    coefficients and generator, the generator's eigenbasis and its even half;
    ``stepped``, which records how ``coupled_errors`` stepped each eps
    level as ``(reflection, effective solve)``: "even half" or "full grid",
    and "eigenbasis" or "factor"; and ``factor_counts``, each level's
    ``(factorizations, factor_hits)`` read from its two steppers, each as
    ``[het, eff]`` (an eigenbasis stepper's one factorization is its inverse
    diagonal)."""

    cell_solution: CellSolution
    coefficients: EffectiveCoefficients
    effective_generator: np.ndarray
    stepped: dict[float, tuple[str, str]] = field(default_factory=dict, init=False,
                                                  repr=False, compare=False)
    factor_counts: dict[float, tuple[list[int], list[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def effective_basis(self) -> EigenBasis | None:
        """G_eff's eigenbasis if ``integrator.effective_solve`` picks it, else
        None; computed at first use, the first ``coupled_errors`` call of a
        full-grid run, so that ``prepare_experiment`` does not pay for it."""
        g = self.effective_generator
        return eigenbasis(g) if effective_solve(g) == "eigenbasis" else None

    @cached_property
    def even_effective(self) -> tuple[np.ndarray, EigenBasis | None] | None:
        """G_eff's even half (``_even_half``) and that matrix's eigenbasis if
        ``effective_solve`` picks it, or None if G_eff is not reflection-even;
        computed at first use, as ``effective_basis`` is."""
        f = _even_half(self.effective_generator)
        if f is None:
            return None
        return f, (eigenbasis(f) if effective_solve(f) == "eigenbasis" else None)


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
    ``err`` and ``weak``, and warned) or None. A reflection-even run (module
    docstring) is stepped on the first ceil(n/2) nodes."""
    cfg = rc.sim
    grid = cfg.grid
    dt, n_steps = rc.resolve_dt(eps)
    dw = np.stack([brownian_increments(s, n_steps, dt).increments for s in seeds], axis=1)
    g_het = assemble_heterogeneous_generator(
        grid, KernelParams(alpha=cfg.alpha, theta=cfg.theta, epsilon=eps))
    u0 = cfg.initial_field()
    psi = np.stack([fn(grid.nodes) for _, fn in PSI_PRESETS])
    # the specs' cached parity first, so that odd inputs scan no matrix
    even_inputs = cfg.v_spec.even and cfg.h_spec.even and cfg.f_spec.even
    half = (_even_half(g_het) if even_inputs and prepared.even_effective is not None
            else None)
    if half is None:
        g_eff, basis, weight = prepared.effective_generator, prepared.effective_basis, None
    else:
        g_het, (g_eff, basis) = half, prepared.even_effective
        m = g_het.shape[0]
        cfg = dataclasses.replace(cfg, grid=Grid1D(n=m, h=grid.h, nodes=grid.nodes[:m]))
        u0, psi, weight = u0[:m], reflection_fold(psi), reflection_fold(np.ones(grid.n))
    prepared.stepped[eps] = ("full grid" if weight is None else "even half",
                             "factor" if basis is None else "eigenbasis")
    steppers = [ThetaStepper(g_het, cfg, dt, n_steps, eps),
                ThetaStepper(g_eff, cfg, dt, n_steps, basis=basis)]
    u0 = np.repeat(u0[:, None], len(seeds), axis=1)
    psi_conj = np.conj(psi.T)
    err = np.zeros(len(seeds))
    weak = np.zeros((len(seeds), len(PSI_PRESETS)), dtype=complex)
    for _, (u_het, u_eff), dead, reasons in lockstep(steppers, u0, dw):
        diff = u_het - u_eff
        squares = diff.real ** 2 + diff.imag ** 2
        err += np.sum(squares, axis=0) if weight is None else weight @ squares
        weak += diff.T @ psi_conj
    prepared.factor_counts[eps] = ([s.misses for s in steppers], [s.hits for s in steppers])

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
    ``kernel.gamma_matrix`` is built once per call: gamma is homogeneous of
    degree -(1+alpha)/2, so gamma(x_i/eps, x_j/eps) = eps^{(1+alpha)/2} gamma(x_i, x_j).
    """
    grid, alpha = rc.sim.grid, rc.sim.alpha
    diag, f = np.diag_indices(grid.n), rc.sim.initial_field()
    xi1, xi2, _ = prepared.coefficients.as_tuple()
    g = assemble_effective_generator(EffectiveCoefficients.from_values(xi1, xi2), grid, alpha)
    g[diag] += RESOLVENT_SHIFT
    r_eff = np.linalg.solve(g, f)
    zeta, gam_x = zeta_matrix(grid, alpha) @ r_eff, gamma_matrix(grid.nodes, alpha)
    out = []
    for eps in eps_list:
        g = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=alpha, theta=rc.sim.theta, epsilon=eps))
        g[diag] += RESOLVENT_SHIFT
        d = np.linalg.solve(g, f) - r_eff
        chi = _interp_periodic(prepared.cell_solution, grid.nodes / eps)
        field = (d[:, None] - d[None, :]) * gam_x
        baseline = np.vdot(field, field).real
        gam_y = eps ** ((1 + alpha) / 2) * gam_x
        field -= zeta[:, None] * (chi[None, :] - chi[:, None]) * gam_y
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
