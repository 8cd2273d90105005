"""Effective coefficients and the homogenized drift operator.

The three cell averages are

    Xi_1 = int_{Y x N} Theta(y, eta) dy deta
    Xi_2 = int_{Y x N x Z} Theta(y, eta) D*_y chi dy deta dtau
    Xi_3 = 2 int_{Y x Z} V(y, tau) chi(y, tau) dy dtau

and the drift of the homogenized equation i du = G_eff u dt + ... is assembled
as

    G_eff = Xi_1 L - (Xi_2 / 2) R Z - Xi_3 Z

with L the positive fractional generator (exterior term included), Z the
linear map u -> zeta(u) = (1/|D|) int_D (D* u)(x, z) dz, and R the restricted
divergence zeta -> int_D (zeta(x) + zeta(z)) gamma(x, z) dz (principal value).

Z and R are built by product integration: the field is interpolated piecewise
linearly between grid nodes (zero at the domain endpoints for Z, linear
extrapolation for R) and the weakly singular kernel moments are integrated
exactly per interval, so no graded quadrature is needed at the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kernel import Grid1D, KernelParams, OperatorMatrix, _check_alpha, assemble_heterogeneous_generator
from .cell import CellGrid, CellSolution, assemble_cell_rhs
from .presets import ThetaSpec, VSpec, get_theta


@dataclass
class EffectiveCoefficients:
    """Cell-average coefficients with provenance for reproducibility."""

    xi1: float
    xi2: float
    xi3: float
    provenance: dict = field(default_factory=dict)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.xi1, self.xi2, self.xi3)

    def to_dict(self) -> dict:
        return {"xi1": self.xi1, "xi2": self.xi2, "xi3": self.xi3,
                "provenance": dict(self.provenance)}

    @classmethod
    def from_values(cls, xi1: float, xi2: float = 0.0, xi3: float = 0.0) -> "EffectiveCoefficients":
        return cls(xi1=float(xi1), xi2=float(xi2), xi3=float(xi3),
                   provenance={"source": "explicit"})


def compute_effective_coefficients(theta: ThetaSpec, v_spec: VSpec,
                                   chi: CellSolution, alpha: float,
                                   grid: CellGrid) -> EffectiveCoefficients:
    """Quadrature of the three cell averages against a solved corrector.

    Xi_2 reuses the same odd-kernel weights as the corrector right-hand side
    (same kernel mode), so for constant Theta it vanishes to rounding together
    with chi.
    """
    _check_alpha(alpha)
    if (chi.m, chi.m_tau) != (grid.m, grid.m_tau) or chi.n_images != grid.n_images:
        raise ValueError("corrector was solved on a different cell grid")
    if abs(chi.alpha - alpha) > 1e-14:
        raise ValueError("corrector was solved for a different alpha")

    if theta.constant is not None:
        xi1 = float(theta.constant)
    else:
        y = grid.y
        xi1 = float(np.mean(theta.sample(y[:, None], y[None, :])))

    b = assemble_cell_rhs(theta, alpha, grid, chi.kernel_mode)
    xi2 = float(np.mean(b @ chi.chi))

    v = v_spec.sample(grid.y[:, None], grid.tau[None, :])
    xi3 = 2.0 * float(np.mean(v * chi.chi))

    prov = {
        "alpha": alpha,
        "kernel_mode": chi.kernel_mode,
        "m": grid.m,
        "m_tau": grid.m_tau,
        "n_images": grid.n_images,
        "theta": theta.name,
        "potential": v_spec.name,
        "cell_residual": chi.residual,
    }
    return EffectiveCoefficients(xi1=xi1, xi2=xi2, xi3=xi3, provenance=prov)


def _interval_kernel_moments(x: float, p: np.ndarray, q: np.ndarray, alpha: float):
    """Exact moments int_p^q gamma(x, z) dz and int_p^q (z - x) gamma(x, z) dz.

    The first is infinite when x is an interval endpoint; callers must mask
    those entries (the constant part of the integrand vanishes there).
    """
    e1 = (1.0 - alpha) / 2.0
    e3 = (3.0 - alpha) / 2.0
    with np.errstate(divide="ignore"):
        i0 = (2.0 / (1.0 - alpha)) * (np.abs(q - x) ** e1 - np.abs(p - x) ** e1)
    i1 = (2.0 / (3.0 - alpha)) * (np.sign(q - x) * np.abs(q - x) ** e3
                                  - np.sign(p - x) * np.abs(p - x) ** e3)
    return i0, i1


def _piecewise_linear_kernel_matrix(n: int, alpha: float, endpoint: str) -> np.ndarray:
    """Matrix of u -> int_{-1}^{1} (u_lin(z) - u(x_i)) gamma(x_i, z) dz.

    ``endpoint`` selects the virtual values at z = -1, 1: "zero" (exterior
    condition) or "extrapolate" (linear continuation from the last two nodes).
    """
    grid = Grid1D.make(n)
    h, x = grid.h, grid.nodes
    xv = np.concatenate(([-1.0], x, [1.0]))
    p, q = xv[:-1], xv[1:]
    n_int = n + 1

    out = np.zeros((n, n))
    for i in range(n):
        xi = x[i]
        i0, i1 = _interval_kernel_moments(xi, p, q, alpha)
        vi = i + 1  # virtual index of node i
        adjacent = np.zeros(n_int, dtype=bool)
        adjacent[vi - 1] = True
        adjacent[vi] = True
        i0 = np.where(adjacent, 0.0, i0)

        t = (xi - p) / h
        wv = np.zeros(n + 2)
        # A-part: ((1 - t) u_p + t u_q - u_i) * I0 on non-adjacent intervals
        np.add.at(wv, np.arange(n_int), (1.0 - t) * i0)
        np.add.at(wv, np.arange(1, n_int + 1), t * i0)
        wv[vi] -= i0.sum()
        # B-part: (u_q - u_p) / h * I1 on all intervals
        np.add.at(wv, np.arange(1, n_int + 1), i1 / h)
        np.add.at(wv, np.arange(n_int), -i1 / h)

        if endpoint == "zero":
            row = wv[1:-1]
        elif endpoint == "extrapolate":
            row = wv[1:-1].copy()
            row[0] += 2.0 * wv[0]
            row[1] -= wv[0]
            row[-1] += 2.0 * wv[-1]
            row[-2] -= wv[-1]
        else:
            raise ValueError("endpoint must be 'zero' or 'extrapolate'")
        out[i] = row
    return out


@lru_cache(maxsize=16)
def _zeta_matrix_cached(n: int, alpha: float) -> np.ndarray:
    return -0.5 * _piecewise_linear_kernel_matrix(n, alpha, endpoint="zero")


@lru_cache(maxsize=16)
def _restricted_divergence_cached(n: int, alpha: float) -> np.ndarray:
    grid = Grid1D.make(n)
    x = grid.nodes
    e1 = (1.0 - alpha) / 2.0
    pv_full = (2.0 / (1.0 - alpha)) * ((1.0 - x) ** e1 - (1.0 + x) ** e1)
    s = _piecewise_linear_kernel_matrix(n, alpha, endpoint="extrapolate")
    return 2.0 * np.diag(pv_full) + s


def zeta_matrix(grid: Grid1D, alpha: float) -> np.ndarray:
    """Dense matrix Z with zeta(u) = Z u."""
    _check_alpha(alpha)
    return _zeta_matrix_cached(grid.n, float(alpha))


def restricted_divergence_matrix(grid: Grid1D, alpha: float) -> np.ndarray:
    """Dense matrix R applying the principal-value restricted divergence to zeta."""
    _check_alpha(alpha)
    return _restricted_divergence_cached(grid.n, float(alpha))


def compute_zeta(u: np.ndarray, grid: Grid1D, alpha: float) -> np.ndarray:
    """zeta(x_i) = (1/|D|) int_D -(u(z) - u(x_i)) gamma(x_i, z) dz with |D| = 2."""
    u = np.asarray(u)
    if u.shape[-1] != grid.n:
        raise ValueError("field length does not match the grid")
    return zeta_matrix(grid, alpha) @ u


def apply_restricted_divergence(zeta: np.ndarray, grid: Grid1D, alpha: float) -> np.ndarray:
    """Principal-value field int_D (zeta(x) + zeta(z)) gamma(x, z) dz on the grid."""
    vals = np.asarray(zeta)
    if vals.shape[-1] != grid.n:
        raise ValueError("zeta length does not match the grid")
    return restricted_divergence_matrix(grid, alpha) @ vals


def assemble_effective_generator(coeffs: EffectiveCoefficients, grid: Grid1D,
                                 alpha: float,
                                 frac_matrix: OperatorMatrix | None = None) -> OperatorMatrix:
    """G_eff = Xi_1 L - (Xi_2 / 2) R Z - Xi_3 Z as a dense matrix.

    With (Xi_1, Xi_2, Xi_3) = (1, 0, 0) this reproduces the plain fractional
    generator entrywise.  The zeta terms are generally not Hermitian; norm
    behavior under them is observed by the integrator, not asserted.
    """
    _check_alpha(alpha)
    if frac_matrix is None:
        frac_matrix = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=alpha, theta=get_theta("one")))
    if frac_matrix.n != grid.n:
        raise ValueError("fractional matrix size does not match the grid")
    z = zeta_matrix(grid, alpha)
    r = restricted_divergence_matrix(grid, alpha)
    entries = coeffs.xi1 * frac_matrix.entries - (coeffs.xi2 / 2.0) * (r @ z) - coeffs.xi3 * z
    meta = {
        "alpha": alpha,
        "n": grid.n,
        "xi": coeffs.as_tuple(),
        "provenance": dict(coeffs.provenance),
    }
    return OperatorMatrix(entries=entries, kind="effective_drift", metadata=meta)
