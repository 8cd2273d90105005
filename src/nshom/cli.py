"""Command-line interface: cell, coefficients, simulate, sweep, validate.

Every subcommand writes a manifest (resolved config, content hash, seeds,
timestamps) next to its outputs; numeric series go to CSV with full-precision
scientific notation so serial reruns reproduce files bitwise.

Exit codes: 0 success, 1 usage, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cell import (CellGrid, CellSolveError, assemble_cell_form, poisson_residual,
                   solve_bordered, solve_cell_problem, solve_periodic_poisson)
from .config import ConfigError, RunConfig, load_config
from .effective import (EffectiveCoefficients, assemble_effective_generator,
                        restricted_divergence_matrix, zeta_matrix)
from .harness import (SweepFailure, SweepReport, check_sweep_args, corrector_residual,
                      eps_sweep, prepare_experiment, solve_coefficients)
from .integrator import (Effective, Heterogeneous, LinearSolveError, NoiseModel,
                         SimConfig, TrajectoryBlowup, brownian_increments, simulate)
from .kernel import (Grid1D, KernelParams, PVConvergenceError,
                     assemble_heterogeneous_generator, dstar_apply, gamma,
                     h_rho_norm_sq, rho)
from .presets import get_theta, get_v

OUT_ROOT_ENV = "NSHOM_OUT"


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


def _default_out(command: str, rc: RunConfig, suffix: str = "") -> Path:
    root = Path(os.environ.get(OUT_ROOT_ENV, "runs"))
    name = f"{command}-{rc.config_hash[:8]}{suffix}"
    return root / name


def _write_manifest(out: Path, command: str, rc: RunConfig, seeds: list[int],
                    extra: dict | None = None) -> None:
    manifest = {
        "schema_version": 1,
        "command": command,
        "software_version": __version__,
        "config": rc.data,
        "config_hash": rc.config_hash,
        "seeds": seeds,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest["parameters"] = extra
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, names: list[str], columns: list[np.ndarray]) -> None:
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    np.savetxt(path, data, fmt="%.17e", delimiter=",",
               header=",".join(names), comments="")


def _cmd_cell(args) -> int:
    rc = load_config(args.config)
    out = Path(args.out) if args.out else _default_out("cell", rc)
    out.mkdir(parents=True, exist_ok=True)
    sol, coeffs = solve_coefficients(rc)
    grid = sol.grid
    xi = solve_periodic_poisson(rc.sim.v_spec, sol.alpha, grid)
    _write_csv(out / "chi.csv", ["y", "value"], [grid.y, sol.chi])
    _write_csv(out / "xi.csv", ["y", "tau", "value"],
               [np.repeat(grid.y, grid.m_tau), np.tile(grid.tau, grid.m), np.real(xi).ravel()])
    meta = {
        "alpha": sol.alpha,
        "kernel_mode": grid.kernel_mode,
        "m": grid.m, "m_tau": grid.m_tau, "n_images": grid.n_images,
        "theta": sol.theta.name,
        "residual": sol.residual,
        "max_abs_mean": sol.mean_abs,
        "chi_l2": float(np.linalg.norm(sol.chi) / np.sqrt(grid.m)),
        "effective_coefficients": coeffs.to_dict(),
    }
    (out / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "cell", rc, seeds=[])
    print(f"cell solve: residual {sol.residual:.2e}, |chi|_L2 {meta['chi_l2']:.3e} -> {out}")
    return 0


def _cmd_coefficients(args) -> int:
    rc = load_config(args.config)
    sol, coeffs = solve_coefficients(rc)
    grid = sol.grid
    payload = {
        "alpha": sol.alpha,
        "kernel_mode": grid.kernel_mode,
        "xi1": coeffs.xi1,
        "xi2": coeffs.xi2,
        "xi3": coeffs.xi3,
        "grid": {"m": grid.m, "m_tau": grid.m_tau, "n_images": grid.n_images},
        "tolerances": {"cell_residual": sol.residual},
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    out = Path(args.out) if args.out else _default_out("coefficients", rc)
    out.mkdir(parents=True, exist_ok=True)
    (out / "coefficients.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
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
    out = Path(args.out) if args.out else _default_out("simulate", rc, suffix)
    out.mkdir(parents=True, exist_ok=True)

    cfg = rc.sim
    path = brownian_increments(seed, n_steps, dt)
    snap_every = args.snap_every or max(1, n_steps // 4)
    res = simulate(system, cfg, path, store_trajectory=False, snapshot_every=snap_every)

    _write_csv(out / "norms.csv", ["t", "norm2", "re_mass", "im_mass"],
               [res.times, res.norm2, res.re_mass, res.im_mass])
    for step, state in sorted(res.snapshots.items()):
        _write_csv(out / f"snap_{step:06d}.csv", ["x", "re_u", "im_u"],
                   [cfg.grid.nodes, state.real, state.imag])
    _write_manifest(out, "simulate", rc, seeds=[seed],
                    extra={"system": args.system, "eps": eps, "dt": dt,
                           "n_steps": n_steps, "snap_every": snap_every})
    print(f"simulate {args.system}: {n_steps} steps, final norm2 {res.norm2[-1]:.6e} -> {out}")
    return 0


def _write_sweep_outputs(out: Path, rc: RunConfig, report: SweepReport) -> None:
    k = len(report.psi_names)
    names = (["eps", "strong_err", "strong_se"]
             + [f"weak_err_{j + 1}" for j in range(k)] + ["excluded", "wall_s"])
    cols = [np.array(report.eps_list), np.array(report.strong_err),
            np.array(report.strong_se)]
    for j in range(k):
        cols.append(np.array([w[j] for w in report.weak_err]))
    cols.append(np.array(report.excluded, dtype=float))
    cols.append(np.array(report.wall_s))
    _write_csv(out / "sweep.csv", names, cols)
    fit = dict(report.fit)
    fit["definition"] = report.definition
    fit["psi"] = report.psi_names
    (out / "fit.json").write_text(json.dumps(fit, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "sweep", rc, seeds=report.seeds,
                    extra={"eps_list": report.eps_list, "n_paths": report.n_paths})


def _cmd_sweep(args) -> int:
    rc = load_config(args.config)
    eps_list = check_sweep_args([parse_fraction(tok) for tok in args.eps.split(",")
                                 if tok.strip()], args.paths)
    out = Path(args.out) if args.out else _default_out("sweep", rc)
    out.mkdir(parents=True, exist_ok=True)

    def progress(eps, kept, excluded, wall):
        print(f"  eps={eps:<10g} kept={kept} excluded={excluded} wall={wall:.1f}s",
              flush=True)

    prepared = prepare_experiment(rc)
    try:
        report = eps_sweep(eps_list, args.paths, rc, prepared=prepared, progress=progress)
    except SweepFailure as exc:
        if exc.report is not None:
            _write_sweep_outputs(out, rc, exc.report)
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 3
    _write_sweep_outputs(out, rc, report)
    if args.corrector_diagnostic:
        diags = [corrector_residual(eps, rc, rc.seed, prepared) for eps in eps_list]
        (out / "corrector.json").write_text(json.dumps(diags, indent=2, sort_keys=True) + "\n")
    print(f"{'eps':>10} {'strong_err':>14} {'se':>10} {'excluded':>9}")
    for i, eps in enumerate(report.eps_list):
        print(f"{eps:>10g} {report.strong_err[i]:>14.6e} {report.strong_se[i]:>10.2e} "
              f"{report.excluded[i]:>9d}")
    slope = report.fit.get("slope")
    print(f"fit: slope={slope if slope is not None else 'degenerate'} -> {out}")
    return 0


def _validate_checks(rc: RunConfig) -> list[tuple[str, bool, str]]:
    checks = []
    alpha = rc.sim.alpha
    rng = np.random.default_rng(0)

    val = gamma(0.0, 2.0, 1.5)
    ok = (gamma(0.0, 1.0, 1.5) == 1.0 and gamma(1.0, 0.0, 1.5) == -1.0
          and abs(val - 2.0 ** -1.25) < 1e-15)
    checks.append(("kernel point values", ok, f"gamma(0,2)={val:.12f}"))

    from scipy import integrate as _integrate
    worst = 0.0
    for x in rng.uniform(-0.99, 0.99, size=20):
        left, _ = _integrate.quad(lambda z: abs(z - x) ** (-1 - alpha), -np.inf, -1.0)
        right, _ = _integrate.quad(lambda z: abs(z - x) ** (-1 - alpha), 1.0, np.inf)
        worst = max(worst, abs(left + right - rho(x, alpha)) / rho(x, alpha))
    checks.append(("exterior weight closed form vs quadrature", worst < 1e-8,
                   f"max rel {worst:.2e}"))

    u = lambda z: np.sin(2.3 * z) + 0.5
    devs = [abs(dstar_apply(u, x, z, alpha) - dstar_apply(u, z, x, alpha))
            for x, z in rng.uniform(-0.9, 0.9, size=(20, 2)) if x != z]
    checks.append(("two-point field swap symmetry", max(devs) == 0.0, f"max {max(devs):.1e}"))

    grid = Grid1D.make(96)
    params = KernelParams(alpha=alpha, theta=get_theta("cosine_product"), epsilon=0.5)
    gen = assemble_heterogeneous_generator(grid, params)
    sym = float(np.max(np.abs(gen - gen.T)))
    ev = np.linalg.eigvalsh(gen)
    checks.append(("generator symmetric PSD", sym < 1e-12 and ev[0] >= -1e-10 * ev[-1],
                   f"sym {sym:.1e}, min eig {ev[0]:.2e}"))

    uvec = (1.0 - grid.nodes ** 2) ** 2 * np.exp(1j * grid.nodes)
    lhs = grid.h * float(np.real(np.vdot(uvec, gen @ uvec)))
    rhs = h_rho_norm_sq(uvec, grid, params)
    dev = abs(lhs - rhs) / rhs
    checks.append(("quadratic form identity", dev < 1e-10, f"rel dev {dev:.1e}"))
    xi = (1.1, 0.3, -0.2)
    z, r = zeta_matrix(grid, alpha), restricted_divergence_matrix(grid, alpha)
    lap = assemble_heterogeneous_generator(grid, KernelParams(alpha=alpha, theta=get_theta("one")))
    dense = xi[0] * lap - (xi[1] / 2.0) * (r @ z) - xi[2] * z
    built = assemble_effective_generator(EffectiveCoefficients.from_values(*xi), grid, alpha)
    dev = float(np.max(np.abs(built - dense)) / np.max(np.abs(dense)))
    checks.append(("effective generator vs dense product", dev < 1e-13, f"max rel {dev:.1e}"))

    cg = CellGrid(m=64, m_tau=2, n_images=8)
    sol = solve_cell_problem(get_theta("one"), alpha, cg)
    chi_norm = float(np.linalg.norm(sol.chi))
    checks.append(("constant-coefficient corrector vanishes", chi_norm < 1e-10,
                   f"|chi| {chi_norm:.1e}"))

    a = assemble_cell_form(get_theta("cosine_product"), alpha, cg)
    chi_star = np.cos(2 * np.pi * cg.y) - 0.5 * np.sin(4 * np.pi * cg.y)
    chi_star -= chi_star.mean()
    chi_rec, _ = solve_bordered(a, a @ chi_star)
    rec = float(np.linalg.norm(chi_rec - chi_star) / np.linalg.norm(chi_star))
    checks.append(("manufactured corrector recovery", rec < 1e-8, f"rel L2 {rec:.1e}"))

    worst_p = 0.0
    for name in ("cos2pi_y", "cos2pi_y_times_cos2pi_tau", "sin2pi_y_one_plus_sin2pi_tau"):
        v = get_v(name)
        xi = solve_periodic_poisson(v, alpha, cg)
        worst_p = max(worst_p, poisson_residual(xi, v, alpha, cg))
    checks.append(("periodic Poisson residual", worst_p < 1e-8, f"max rel {worst_p:.1e}"))

    sgrid = Grid1D.make(64)
    cfg = SimConfig(grid=sgrid, alpha=alpha, T=0.5,
                    v_spec=get_v("cos2pi_y_times_cos2pi_tau"))
    path = brownian_increments(0, 64, 0.5 / 64)
    res = simulate(Heterogeneous(0.25), cfg, path, store_trajectory=False)
    drift = abs(res.norm2[-1] / res.norm2[0] - 1.0)
    checks.append(("norm conservation (g = f = 0)", drift < 1e-8, f"drift {drift:.1e}"))

    sigma, T = 0.5, 1.0
    cfg_n = SimConfig(grid=sgrid, alpha=alpha, T=T, noise=NoiseModel("linear", sigma))
    path_n = brownian_increments(1, 128, T / 128)
    res_n = simulate(Effective(EffectiveCoefficients.from_values(1.0)), cfg_n, path_n,
                     store_trajectory=False)
    rel = abs(res_n.norm2[-1] / (res_n.norm2[0] * np.exp(sigma ** 2 * T)) - 1.0)
    bound = 8.0 * sigma ** 2 * np.sqrt(2.0 * T / 128)
    checks.append(("Ito norm growth magnitude", rel < bound,
                   f"rel {rel:.3f} < bound {bound:.3f}"))

    p1 = brownian_increments(5, 512, 1e-2).increments
    p2 = brownian_increments(5, 512, 1e-2).increments
    checks.append(("counter-based path determinism", np.array_equal(p1, p2), ""))
    return checks


def _cmd_validate(args) -> int:
    rc = load_config(args.config)
    checks = _validate_checks(rc)
    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{name:<{width}}  {status}  {detail}")
    out = Path(args.out) if args.out else _default_out("validate", rc)
    out.mkdir(parents=True, exist_ok=True)
    (out / "validate.json").write_text(json.dumps(
        [{"check": n, "passed": bool(ok), "detail": d} for n, ok, d in checks],
        indent=2, sort_keys=True) + "\n")
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
    return 0 if all_ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="nshom",
                     description="Nonlocal stochastic Schrodinger homogenization toolkit")
    parser.add_argument("--version", action="version", version=f"nshom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cell", help="solve the periodic cell problems and export correctors")
    p.add_argument("--config")
    p.add_argument("--out")

    p = sub.add_parser("coefficients", help="compute effective coefficients as JSON")
    p.add_argument("--config")
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="integrate one trajectory")
    p.add_argument("--system", choices=("het", "eff"), required=True)
    p.add_argument("--eps", help="scale parameter, e.g. 1/8 (heterogeneous only)")
    p.add_argument("--seed", type=int)
    p.add_argument("--snap-every", type=_positive_int, dest="snap_every")
    p.add_argument("--config")
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="coupled strong/weak error sweep over eps")
    p.add_argument("--eps", required=True, help="comma list, e.g. 1/2,1/4,1/8,1/16")
    p.add_argument("--paths", type=int, default=32)
    p.add_argument("--corrector-diagnostic", action="store_true",
                   dest="corrector_diagnostic")
    p.add_argument("--config")
    p.add_argument("--out")

    p = sub.add_parser("validate", help="run the oracle and property checks")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--dump-matrices", dest="dump_matrices")
    return parser


_HANDLERS = {
    "cell": _cmd_cell,
    "coefficients": _cmd_coefficients,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
}


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
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (TrajectoryBlowup, LinearSolveError, CellSolveError, PVConvergenceError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
