"""Command-line interface: cell, coefficients, simulate, sweep, validate.

Every subcommand takes ``--config`` and ``--out`` from one parent parser and
writes into the directory ``_run_dir`` gives: a manifest (resolved config,
content hash, seeds, timestamps, BLAS thread settings and library versions)
next to its outputs. JSON outputs are rendered by ``_json`` alone; numeric
series go to CSV in full-precision scientific notation and seconds only to
the manifest's ``telemetry``, so serial reruns reproduce the rest bitwise.

Exit codes: 0 success, 1 usage, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, cell, effective, integrator, kernel
from .cell import CellSolveError, solve_periodic_poisson
from .config import ConfigError, RunConfig, load_config
from .harness import (STRONG_ERROR_DEFINITION, SweepFailure, SweepReport, check_sweep_args,
                      corrector_residual, eps_sweep, prepare_experiment, solve_coefficients)
from .integrator import (Effective, Heterogeneous, LinearSolveError, TrajectoryBlowup,
                         brownian_increments, simulate)
from .kernel import KernelParams, assemble_heterogeneous_generator
from .presets import PSI_PRESETS, get_theta

OUT_ROOT_ENV = "NSHOM_OUT"
# the BLAS thread count moves sweep outputs in the last bits, so it is recorded
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_fraction(text: str) -> float:
    """A positive finite number written as a decimal or as num/den."""
    num, slash, den = text.strip().partition("/")
    try:
        value = float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"not a number or fraction: {text!r}") from None
    if not (np.isfinite(value) and value > 0.0):
        raise _UsageError(f"expected a positive finite value, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _run_dir(args, rc: RunConfig, suffix: str = "") -> Path:
    """The output directory, created: ``--out``, or else
    ``$NSHOM_OUT`` (default ``runs``) / ``<command>-<hash8><suffix>``."""
    out = Path(args.out or Path(os.environ.get(OUT_ROOT_ENV, "runs"))
               / f"{args.command}-{rc.config_hash[:8]}{suffix}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json(obj) -> str:
    """The one rendering of every JSON output, files and stdout alike."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _numerical_environment() -> dict:
    """The BLAS thread settings (None where unset), the CPUs this process may
    run on (OpenBLAS's thread count when its variables are unset) and the
    numpy and scipy builds, on which outputs depend in their last bits."""
    def blas(show_config) -> dict:
        # show_config takes mode="dicts" from numpy 1.25 and scipy 1.11 on
        try:
            config = show_config(mode="dicts")
        except TypeError:
            config = {}
        info = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": info.get("name"), "version": info.get("version")}

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {"threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
            "cpus": cpus,
            "numpy": np.__version__, "numpy_blas": blas(np.show_config),
            "scipy": scipy.__version__, "scipy_blas": blas(scipy.show_config)}


def _write_manifest(out: Path, command: str, rc: RunConfig, seeds: list[int],
                    sections: dict | None = None) -> None:
    """Write manifest.json; ``sections`` adds top-level entries (``parameters``,
    ``telemetry``)."""
    manifest = {
        "schema_version": 1,
        "command": command,
        "software_version": __version__,
        "config": rc.data,
        "config_hash": rc.config_hash,
        "seeds": seeds,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": _numerical_environment(),
    }
    manifest.update(sections or {})
    (out / "manifest.json").write_text(_json(manifest))


def _write_csv(path: Path, names: list[str], columns: list[np.ndarray]) -> None:
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    np.savetxt(path, data, fmt="%.17e", delimiter=",",
               header=",".join(names), comments="")


def _cmd_cell(args) -> int:
    rc = load_config(args.config)
    out = _run_dir(args, rc)
    sol, coeffs = solve_coefficients(rc)
    grid = sol.grid
    xi = solve_periodic_poisson(rc.sim.v_spec, sol.alpha, grid)
    _write_csv(out / "chi.csv", ["y", "value"], [grid.y, sol.chi])
    _write_csv(out / "xi.csv", ["y", "tau", "value"],
               [np.repeat(grid.y, grid.m_tau), np.tile(grid.tau, grid.m), np.real(xi).ravel()])
    meta = {
        "alpha": sol.alpha,
        "m": grid.m, "m_tau": grid.m_tau, "n_images": grid.n_images,
        "theta": sol.theta.name,
        "residual": sol.residual,
        "max_abs_mean": sol.mean_abs,
        "chi_l2": float(np.linalg.norm(sol.chi) / np.sqrt(grid.m)),
        "effective_coefficients": coeffs.to_dict(),
    }
    (out / "metadata.json").write_text(_json(meta))
    _write_manifest(out, "cell", rc, seeds=[])
    print(f"cell solve: residual {sol.residual:.2e}, |chi|_L2 {meta['chi_l2']:.3e} -> {out}")
    return 0


def _cmd_coefficients(args) -> int:
    rc = load_config(args.config)
    sol, coeffs = solve_coefficients(rc)
    grid = sol.grid
    payload = {
        "alpha": sol.alpha,
        "xi1": coeffs.xi1,
        "xi2": coeffs.xi2,
        "xi3": coeffs.xi3,
        "grid": {"m": grid.m, "m_tau": grid.m_tau, "n_images": grid.n_images},
        "tolerances": {"cell_residual": sol.residual},
    }
    text = _json(payload)
    print(text, end="")
    out = _run_dir(args, rc)
    (out / "coefficients.json").write_text(text)
    _write_manifest(out, "coefficients", rc, seeds=[])
    return 0


def _build_system(rc: RunConfig, system: str, eps: float | None):
    if system == "het":
        if eps is None:
            raise _UsageError("--eps is required for the heterogeneous system")
        return Heterogeneous(eps)
    if eps is not None:
        raise _UsageError("--eps applies to the heterogeneous system only")
    return Effective(solve_coefficients(rc)[1])


def _cmd_simulate(args) -> int:
    rc = load_config(args.config)
    eps = parse_fraction(args.eps) if args.eps is not None else None
    seed = args.seed if args.seed is not None else rc.seed
    system = _build_system(rc, args.system, eps)
    dt, n_steps = rc.resolve_dt(eps)
    suffix = f"-{args.system}" + (f"-eps{eps:g}" if eps else "") + f"-seed{seed}"
    out = _run_dir(args, rc, suffix)

    cfg = rc.sim
    path = brownian_increments(seed, n_steps, dt)
    snap_every = args.snap_every or max(1, n_steps // 4)
    res = simulate(system, cfg, path, snapshot_every=snap_every)

    _write_csv(out / "norms.csv", ["t", "norm2", "re_mass", "im_mass"],
               [res.times, res.norm2, res.re_mass, res.im_mass])
    for step, state in sorted(res.snapshots.items()):
        _write_csv(out / f"snap_{step:06d}.csv", ["x", "re_u", "im_u"],
                   [cfg.grid.nodes, state.real, state.imag])
    telemetry = {"factorizations": res.factorizations, "factor_hits": res.factor_hits}
    if isinstance(system, Effective):
        telemetry["cell_residual"] = system.coeffs.provenance["cell_residual"]
    _write_manifest(out, "simulate", rc, seeds=[seed], sections={
        "parameters": {"system": args.system, "eps": eps, "dt": dt,
                       "n_steps": n_steps, "snap_every": snap_every},
        "telemetry": telemetry})
    print(f"simulate {args.system}: {n_steps} steps, final norm2 {res.norm2[-1]:.6e} -> {out}")
    return 0


def _write_sweep_outputs(out: Path, rc: RunConfig, report: SweepReport,
                         telemetry: dict) -> None:
    names = (["eps", "strong_err", "strong_se"]
             + [f"weak_err_{j + 1}" for j in range(len(PSI_PRESETS))] + ["excluded"])
    _write_csv(out / "sweep.csv", names,
               [report.eps_list, report.strong_err, report.strong_se,
                *np.transpose(report.weak_err), report.excluded])
    fit = dict(report.fit)
    fit["definition"] = STRONG_ERROR_DEFINITION
    fit["psi"] = [name for name, _ in PSI_PRESETS]
    (out / "fit.json").write_text(_json(fit))
    _write_manifest(out, "sweep", rc, seeds=report.seeds, sections={
        "parameters": {"eps_list": report.eps_list, "n_paths": report.n_paths},
        "telemetry": telemetry})


def _cmd_sweep(args) -> int:
    rc = load_config(args.config)
    eps_list = check_sweep_args([parse_fraction(tok) for tok in args.eps.split(",")
                                 if tok.strip()], args.paths)
    out = _run_dir(args, rc)

    marks = [time.perf_counter()]

    def lap() -> float:
        """Seconds since the previous perf_counter mark, which it adds."""
        marks.append(time.perf_counter())
        return marks[-1] - marks[-2]

    def progress(eps, kept, excluded):
        wall = lap()
        telemetry["wall_s"].append(wall)
        reflection, solve = prepared.stepped[eps]
        telemetry["reflection"].append(reflection)
        telemetry["effective_solve"].append(solve)
        print(f"  eps={eps:<10g} kept={kept} excluded={excluded} wall={wall:.1f}s",
              flush=True)

    prepared = prepare_experiment(rc)
    telemetry = {"prepare_s": lap(), "wall_s": [], "reflection": [], "effective_solve": [],
                 "cell_residual": prepared.cell_solution.residual}
    try:
        report = eps_sweep(eps_list, args.paths, rc, prepared=prepared, progress=progress)
    except SweepFailure as exc:
        _write_sweep_outputs(out, rc, exc.report, telemetry)
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 3
    corrector = corrector_residual(eps_list, rc, prepared)
    telemetry["corrector_s"] = lap()
    _write_sweep_outputs(out, rc, report, telemetry)
    (out / "corrector.json").write_text(_json(corrector))
    print(f"{'eps':>10} {'strong_err':>14} {'se':>10} {'excluded':>9}")
    for i, eps in enumerate(report.eps_list):
        print(f"{eps:>10g} {report.strong_err[i]:>14.6e} {report.strong_se[i]:>10.2e} "
              f"{report.excluded[i]:>9d}")
    slope = report.fit.get("slope")
    print(f"fit: slope={slope if slope is not None else 'degenerate'} -> {out}")
    return 0


# each row's oracle returns (measured error, tolerance); see the README's table
VALIDATE_ROWS = (
    ("kernel point values", kernel.point_value_error),
    ("exterior weight closed form vs quadrature", kernel.exterior_weight_error),
    ("two-point field swap symmetry", kernel.swap_symmetry_error),
    ("generator symmetric PSD", kernel.generator_psd_error),
    ("quadratic form identity", kernel.quadratic_form_error),
    ("effective generator vs dense product", effective.dense_product_error),
    ("L (1-x^2)^(alpha/2) vs Getoor closed form", kernel.getoor_error),
    ("zeta(1-x^2) vs closed form", effective.zeta_parabola_error),
    ("R x vs closed form", effective.divergence_linear_error),
    ("R x^2 vs closed form", effective.divergence_quadratic_error),
    ("constant-coefficient corrector vanishes", cell.constant_corrector_error),
    ("manufactured corrector recovery", cell.manufactured_corrector_error),
    ("periodic Poisson residual", cell.poisson_residual_error),
    ("norm conservation (g = f = 0)", integrator.norm_drift_error),
    ("Ito norm growth magnitude", integrator.ito_growth_error),
    ("counter-based path determinism", integrator.path_determinism_error),
)


def _validate_checks(rc: RunConfig) -> list[tuple[str, bool, str]]:
    """Run every row, passing each oracle the parameters it has no default for
    (the config's grid size n and alpha); a row passes when its measured error
    is at most its tolerance, so NaN fails."""
    inputs = {"n": rc.sim.grid.n, "alpha": rc.sim.alpha}
    checks = []
    for name, oracle in VALIDATE_ROWS:
        needs = [k for k, p in inspect.signature(oracle).parameters.items()
                 if p.default is p.empty]
        measured, tol = oracle(**{k: inputs[k] for k in needs})
        where = f" at n={inputs['n']}" if "n" in needs else ""
        checks.append((name, bool(measured <= tol), f"{measured:.1e}, tol {tol:.1e}{where}"))
    return checks


def _cmd_validate(args) -> int:
    rc = load_config(args.config)
    checks = _validate_checks(rc)
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    out = _run_dir(args, rc)
    (out / "validate.json").write_text(_json(
        [{"check": n, "passed": bool(ok), "detail": d} for n, ok, d in checks]))
    _write_manifest(out, "validate", rc, seeds=[])
    if args.dump_matrices:
        out = Path(args.dump_matrices)
        out.mkdir(parents=True, exist_ok=True)
        grid, alpha = rc.sim.grid, rc.sim.alpha
        frac = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=alpha, theta=get_theta("one")))
        np.savetxt(out / "fractional_generator.csv", frac,
                   fmt="%.17e", delimiter=",")
        het = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=alpha, theta=rc.sim.theta, epsilon=0.5))
        np.savetxt(out / "heterogeneous_generator.csv", het,
                   fmt="%.17e", delimiter=",")
        print(f"matrices dumped to {out}")
    return 0 if all(ok for _, ok, _ in checks) else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="nshom",
                     description="Nonlocal stochastic Schrodinger homogenization toolkit")
    parser.add_argument("--version", action="version", version=f"nshom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config")
    common.add_argument("--out")

    def command(name, handler, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(handler=handler)
        return p

    command("cell", _cmd_cell, "solve the periodic cell problems and export correctors")
    command("coefficients", _cmd_coefficients, "compute effective coefficients as JSON")

    p = command("simulate", _cmd_simulate, "integrate one trajectory")
    p.add_argument("--system", choices=("het", "eff"), required=True)
    p.add_argument("--eps", help="scale parameter, e.g. 1/8 (heterogeneous only)")
    p.add_argument("--seed", type=int)
    p.add_argument("--snap-every", type=_positive_int, dest="snap_every")

    p = command("sweep", _cmd_sweep, "coupled strong/weak error sweep over eps")
    p.add_argument("--eps", required=True, help="comma list, e.g. 1/2,1/4,1/8,1/16")
    p.add_argument("--paths", type=int, default=32)

    p = command("validate", _cmd_validate, "run the oracle and property checks")
    p.add_argument("--dump-matrices", dest="dump_matrices")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (TrajectoryBlowup, LinearSolveError, CellSolveError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
