"""Singular two-point kernel, exterior weight, and dense generator assembly on
D = (-1, 1) with the homogeneous exterior condition u = 0 on the complement.

Conventions used throughout the package:

* ``gamma(x, z) = (z - x) |z - x|^{-(3+alpha)/2}`` so that
  ``gamma^2(x, z) = |z - x|^{-(1+alpha)}``. It has two forms, side by side
  below: ``gamma`` at one pair (raises at x == z) and ``gamma_matrix`` at all
  node pairs (zero diagonal). gamma is homogeneous of degree -(1+alpha)/2, so
  the fast-scale matrix gamma(x_i/eps, x_j/eps) is
  ``eps ** ((1 + alpha) / 2) * gamma_matrix(nodes, alpha)``.
* The exterior weight int_{D^c} |z - x|^{-1-alpha} dz (Theta == 1) is
  ``exterior_weight`` at margin 0 with the constant preset ``one``.
* The assembled generator ``G`` is the *positive* operator

      (G u)(x) = -PV int_D Theta(x, z) (u(z) - u(x)) |z-x|^{-1-alpha} dz
                 + u(x) int_{D^c} Theta(x, z) |z-x|^{-1-alpha} dz,

  i.e. for Theta == 1 it is the unnormalized fractional Laplacian with exterior
  term (no C(1, alpha) constant), and the evolution reads
  ``i du = (G + potential) u dt + g(u) dW + f dt``.
* The heterogeneous coefficient is sampled as
  ``Theta(x/eps mod 1, z/eps mod 1)``.

The matrix is built from the quadratic form: pair weights are exact cell-pair
integrals of the kernel (via the repeated antiderivative of ``|s|^{1-alpha}``),
the same-cell contribution is a centered-difference correction, and the
exterior weight enters as a diagonal.  This makes the matrix symmetric positive
semidefinite by construction and the discrete quadratic-form identity
``h u^T G u = h sum_i rho_i |u_i|^2 + (1/2) sum_{i != j} W_ij |u_i - u_j|^2 + ...``
exact to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import integrate
from scipy.special import gamma as gamma_fn

from .presets import ThetaSpec, get_theta

# entries of one (nodes, quadrature points) block of the exterior weight,
# 2 MiB of float64; n = 256 at eps = 1/16 fits in one block
EXTERIOR_BLOCK_ENTRIES = 1 << 18
# rows of one block of the sums that read a Theta sample (the cell
# right-hand side and Theta's cell mean); 512 KiB of float64 at m = 1024.
# It fixes Xi_1's summation order: 16 rows move Xi_1 and the eff run at m = 1024
THETA_BLOCK_ROWS = 64


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"fractional order alpha must lie in (1, 2), got {alpha}")
    return alpha


def gamma(x: float, z: float, alpha: float) -> float:
    """Antisymmetric kernel (z - x) |z - x|^{-(3+alpha)/2}.

    Raises ValueError at the diagonal x == z (kernel singularity).
    """
    _check_alpha(alpha)
    r = z - x
    if r == 0.0:
        raise ValueError("gamma(x, z) is singular at x == z")
    return r * abs(r) ** (-(3.0 + alpha) / 2.0)


def gamma_matrix(nodes: np.ndarray, alpha: float) -> np.ndarray:
    """gamma(x_i, x_j) at all pairs of ``nodes``, with a zero diagonal."""
    d = nodes[None, :] - nodes[:, None]
    out = np.zeros_like(d)
    mask = d != 0.0
    out[mask] = d[mask] * np.abs(d[mask]) ** (-(3.0 + alpha) / 2.0)
    return out


def dstar_apply(u: Callable[[float], complex], x: float, z: float, alpha: float) -> complex:
    """Two-point adjoint field -(u(z) - u(x)) gamma(x, z); symmetric under swapping x, z."""
    return -(u(z) - u(x)) * gamma(x, z, alpha)


def _check_size(name: str, value, low: int) -> int:
    """``value`` as an int: TypeError unless it is a Python or numpy integer
    (bool excluded), ValueError below ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    return int(value)


@dataclass
class Grid1D:
    """Uniform interior grid on D = (-1, 1); values are implicitly 0 outside D."""

    n: int
    h: float
    nodes: np.ndarray

    @classmethod
    def make(cls, n: int) -> "Grid1D":
        n = _check_size("grid.n", n, 1)
        h = 2.0 / (n + 1)
        nodes = -1.0 + h * np.arange(1, n + 1)
        return cls(n=n, h=h, nodes=nodes)


@dataclass
class KernelParams:
    """Fractional order, coefficient preset, and scale parameter."""

    alpha: float
    theta: ThetaSpec
    epsilon: float = 1.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon!r}")


def _phi2(s: np.ndarray, alpha: float) -> np.ndarray:
    """Repeated antiderivative of |s|^{1-alpha}: |s|^{3-alpha} / ((2-a)(3-a))."""
    return np.abs(s) ** (3.0 - alpha) / ((2.0 - alpha) * (3.0 - alpha))


def pair_weights_even(dists: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """Exact cell-pair integrals of |x-z|^{-1-alpha} in difference-quotient form.

    For two cells of width h at center distance d the weight is
    ``int_cell int_cell |x-z|^{1-alpha} / d^2``, which multiplies the nodal
    difference product (u_i - u_j)(v_i - v_j).
    """
    d = np.asarray(dists, dtype=float)
    return (_phi2(d + h, alpha) - 2.0 * _phi2(d, alpha) + _phi2(d - h, alpha)) / d ** 2


def same_cell_coeff(h: float, alpha: float) -> float:
    """Kernel moment int_cell int_cell |x-z|^{1-alpha} of a single width-h cell."""
    return 2.0 * _phi2(h, alpha)


def _add_same_cell_term(a: np.ndarray, coef: float, d: np.ndarray, h: float,
                        periodic: bool = False) -> None:
    """Add coef * P^T diag(d) P to ``a`` in place, P the centered difference
    (u_{j+1} - u_{j-1}) / 2h with zero exterior values, or wrapping around
    when ``periodic``.

    Row j of P touches only j - 1 and j + 1, so the product has three bands:
    (j, j) gets (d_{j-1} + d_{j+1}) / 4h^2 and (j, j +- 2) gets -d_{j+-1} / 4h^2.
    """
    n = a.shape[0]
    g = coef * d / (4.0 * h * h)
    i = np.arange(n)
    if periodic:
        g_prev, g_next = np.roll(g, 1), np.roll(g, -1)
        a[i, i] += g_prev + g_next
        a[i, (i + 2) % n] -= g_next
        a[i, (i - 2) % n] -= g_prev
    else:
        a[i[1:], i[1:]] += g[:-1]
        a[i[:-1], i[:-1]] += g[1:]
        a[i[:-2], i[2:]] -= g[1:-1]
        a[i[2:], i[:-2]] -= g[1:-1]


def _scalar_power(base: np.ndarray, e: float) -> np.ndarray:
    """base ** e with the scalar power per entry: numpy's vectorized power can
    differ from it in the last bit, and the scalar one keeps the weights equal
    bit for bit to an entry-by-entry evaluation."""
    return np.array([b ** e for b in base.tolist()])


def _tail_power_sum(right: np.ndarray, left: np.ndarray, alpha: float) -> np.ndarray:
    """right^-alpha + left^-alpha by ``_scalar_power``: alpha times the mass of
    |s|^{-1-alpha} beyond the distances ``right`` and ``left`` on either side."""
    return _scalar_power(right, -alpha) + _scalar_power(left, -alpha)


def row_blocks(n: int, rows: int = THETA_BLOCK_ROWS):
    """Slices of ``rows`` consecutive rows covering range(n)."""
    return (slice(i, i + rows) for i in range(0, n, rows))


def toeplitz_rows(diagonals: np.ndarray) -> np.ndarray:
    """Read-only n x n view T[i, j] = diagonals[n - 1 + j - i] of the 2n - 1
    values along T's diagonals, lowest first: row i is the window starting at
    n - 1 - i. No copy, unlike scipy's ``toeplitz``."""
    n = (diagonals.size + 1) // 2
    return sliding_window_view(diagonals, n)[::-1]


def _theta_matrix(theta: ThetaSpec, y: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Pair weights Theta(y_i, y_j) at the fast-variable points y and their
    diagonal: for a constant Theta the constant itself (callers multiply by
    it, which keeps constant-coefficient results exact), otherwise one full
    sample, checked positive, and a copy of its diagonal. Theta's symmetry
    is not checked here but once, when its ``ThetaSpec`` was built.
    """
    if theta.constant is not None:
        return theta.constant, np.full(y.size, theta.constant)
    tm = theta.sample(y[:, None], y[None, :])
    if not tm.min() > 0.0:  # also true for NaN
        raise ValueError("Theta must be strictly positive on the grid")
    return tm, np.diag(tm).copy()


def weighted_pair_matrix(col: np.ndarray, weights: float | np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix with first column ``col``, times the
    ``_theta_matrix`` weights entrywise: in the weights' own buffer when they
    are an array, the read-only Toeplitz view itself for a weight of 1.0 (not
    multiplied, not copied), else a fresh array."""
    rows = toeplitz_rows(np.concatenate((col[:0:-1], col)))
    if isinstance(weights, np.ndarray):
        return np.multiply(weights, rows, out=weights)
    return rows if weights == 1.0 else rows * weights


def _exterior_rule(d_min: float, length: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre rule on [0, length] in the exterior
    distance t beyond the boundary.

    A panel [a, b] is no longer than a + d_min, its left end's distance to the
    nearest node, so the kernel's singularity lies at least one panel length
    away (grading that doubles from d_min), and no longer than eps/4, a
    quarter period of Theta in the fast variable.
    """
    edges = [0.0]
    while edges[-1] < length:
        a = edges[-1]
        edges.append(min(length, a + min(a + d_min, eps / 4.0)))
    edges = np.array(edges)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    # computed here, not at import: the eigenvalue solve behind it costs a
    # constant-Theta run about 0.6 MiB of peak memory
    nodes, weights = np.polynomial.legendre.leggauss(16)
    return (mid + half * nodes).ravel(), (half * weights).ravel()


def exterior_weight(x: float | np.ndarray, params: KernelParams,
                    margin: float = 0.0) -> float | np.ndarray:
    """Theta-weighted kernel mass of the complement of (-1 + margin, 1 - margin).

    With margin = 0 this is the exterior integral
    int_{D^c} Theta^eps(x, z) |z-x|^{-1-alpha} dz; the assembly passes
    margin = h/2 so the half-width boundary strips not covered by any node cell
    are charged to the diagonal under the exterior-zero convention.

    ``x`` is a scalar or an array of nodes; the result has its shape. For a
    non-constant Theta each side is integrated over distances [d, d + L],
    L = min(4, max(10 eps, 0.5)), with one Gauss-Legendre rule shared by all
    nodes (graded to the smallest node distance of the call), and beyond
    d + L Theta is replaced by its mean over the fast variable.
    """
    alpha = params.alpha
    xs = np.asarray(x, dtype=float)
    right, left = 1.0 - margin - xs, 1.0 - margin + xs
    if not (np.all(right > 0.0) and np.all(left > 0.0)):
        raise ValueError(f"exterior weight needs x strictly inside (-1 + {margin}, 1 - {margin})")
    if params.theta.constant is not None:
        ext = params.theta.constant * _tail_power_sum(right.ravel(), left.ravel(), alpha) / alpha
    else:
        eps = params.epsilon
        y = np.mod(xs.reshape(-1, 1) / eps, 1.0)
        # Theta averaged over the fast variable; used beyond the resolved range,
        # where the oscillation cancels to O(eps) under the decaying kernel.
        eta = (np.arange(256) + 0.5) / 256
        theta_bar = np.mean(params.theta.sample(y, eta), axis=1)
        length = min(4.0, max(10.0 * eps, 0.5))
        t, w = _exterior_rule(min(right.min(), left.min()), length, eps)
        edge = 1.0 - margin
        ext = np.zeros(xs.size)
        # Q grows like 1/eps: node blocks bound each (nodes, Q) temporary
        for dist, z in ((right.ravel(), edge + t), (left.ravel(), -edge - t)):
            eta_z = np.mod(z / eps, 1.0)
            for block in row_blocks(xs.size, max(1, EXTERIOR_BLOCK_ENTRIES // t.size)):
                f = (dist[block, None] + t) ** (-1.0 - alpha)
                f *= params.theta.sample(y[block], eta_z)
                f *= w
                ext[block] += (f.sum(axis=1)
                               + theta_bar[block] * (dist[block] + length) ** (-alpha) / alpha)
    return float(ext[0]) if xs.ndim == 0 else ext.reshape(xs.shape)


def _assembly_pieces(grid: Grid1D, params: KernelParams):
    """Pair-weight matrix W (read-only for Theta == 1, see
    ``weighted_pair_matrix``), exterior diagonal E, diagonal Theta."""
    n, h, x = grid.n, grid.h, grid.nodes
    alpha = params.alpha
    col = np.concatenate(([0.0], pair_weights_even(np.arange(1, n) * h, h, alpha)))
    weights, theta_diag = _theta_matrix(params.theta, np.mod(x / params.epsilon, 1.0))
    w = weighted_pair_matrix(col, weights)
    ext = exterior_weight(x, params, margin=h / 2.0)
    return w, ext, theta_diag


def assemble_heterogeneous_generator(grid: Grid1D, params: KernelParams) -> np.ndarray:
    """Dense symmetric PSD matrix G with (G u)_i ~ (1/2) D(Theta^eps D* u)(x_i).

    Interior part is the graph Laplacian of the exact cell-pair kernel weights
    plus a centered-difference same-cell correction; the exterior condition
    contributes the weighted diagonal. Every term is symmetric bit for bit, so
    G is too.

    Two passes over n^2 entries: the row sums of the weights W, then -W / h
    written in W's buffer (a fresh array for Theta == 1, whose W is a view).
    Only the diagonal and the +-2 bands, the entries the degree and the
    same-cell term touch, are then recomputed from their saved W values, as
    ((-W + degree) + same-cell) / h + exterior, the order of operations of the
    Laplacian built in full.
    """
    n = grid.n
    if n < 4:
        raise ValueError("generator assembly needs at least 4 interior nodes")
    w, ext, theta_diag = _assembly_pieces(grid, params)
    h = grid.h
    diag, i = np.diag_indices(n), np.arange(n)
    bands = (np.concatenate((i, i[:-2], i[2:])), np.concatenate((i, i[2:], i[:-2])))
    w_bands = w[bands]
    dg = w.sum(axis=1)
    m = np.divide(w, -h, out=w if w.flags.writeable else None)  # (-W) / h bit for bit
    m[bands] = np.negative(w_bands, out=w_bands)
    m[diag] += dg
    _add_same_cell_term(m, same_cell_coeff(h, params.alpha) / 2.0, theta_diag, h)
    m[bands] /= h
    m[diag] += ext
    return m


def h_rho_norm_sq(u: np.ndarray, grid: Grid1D, params: KernelParams) -> float:
    """Discrete weighted fractional norm

        h sum_i ext_i |u_i|^2 + (1/2) sum_{i != j} W_ij |u_i - u_j|^2
        + same-cell derivative term,

    aggregated independently of the generator assembly (double sum, not matrix
    algebra), so the quadratic-form identity against ``h u^T G u`` is a real check.
    """
    u = np.asarray(u)
    w, ext, theta_diag = _assembly_pieces(grid, params)
    h = grid.h
    diff = u[:, None] - u[None, :]
    interior = 0.5 * float(np.sum(w * np.abs(diff) ** 2))
    padded = np.pad(u, 1)  # zero exterior values
    du = (padded[2:] - padded[:-2]) / (2.0 * h)
    cell = same_cell_coeff(h, params.alpha) / 2.0 * float(np.sum(theta_diag * np.abs(du) ** 2))
    exterior = h * float(np.sum(ext * np.abs(u) ** 2))
    return exterior + interior + cell


def getoor_parabola_image(alpha: float) -> float:
    """The constant value of (G u)(x) on (-1, 1) for Theta == 1 and
    u = (1 - x^2)_+^{alpha/2}, in closed form.

    Getoor (1961): (-Delta)^s (1 - x^2)_+^s = Gamma(2s + 1) on (-1, 1) with
    s = alpha/2. G is the unnormalized operator (-Delta)^s / C_{1,s}, with
    C_{1,s} = 4^s Gamma(1/2 + s) / (sqrt(pi) |Gamma(-s)|).
    """
    s = _check_alpha(alpha) / 2.0
    c_1s = 4.0 ** s * gamma_fn(0.5 + s) / (np.sqrt(np.pi) * abs(gamma_fn(-s)))
    return float(gamma_fn(alpha + 1.0) / c_1s)


# Oracles of ``nshom validate`` and the tests: each returns (measured error,
# tolerance); the parameters without defaults are the run's n and alpha.

def widened(tol: float, n: int, order: float) -> float:
    """``tol``, which holds from n = 256 on, times (256/n)^order below it."""
    return tol * max(1.0, 256 / n) ** order


def point_value_error() -> tuple[float, float]:
    """gamma(0, 2) against 2^{-5/4} at alpha = 3/2; inf unless gamma(0, 1) = 1 = -gamma(1, 0)."""
    exact = gamma(0.0, 1.0, 1.5) == 1.0 and gamma(1.0, 0.0, 1.5) == -1.0
    return (abs(gamma(0.0, 2.0, 1.5) / 2.0 ** -1.25 - 1.0) if exact else np.inf), 1e-15


def exterior_weight_error(alpha: float, size: int = 20) -> tuple[float, float]:
    """The Theta == 1 ``exterior_weight`` at margin 0, the closed form every
    Theta == 1 assembly calls, against adaptive quadrature at ``size`` random points."""
    params, errors = KernelParams(alpha=alpha, theta=get_theta("one")), []
    for x in np.random.default_rng(0).uniform(-0.99, 0.99, size=size):
        f = lambda z: abs(z - x) ** (-1.0 - alpha)
        quad = integrate.quad(f, -np.inf, -1.0)[0] + integrate.quad(f, 1.0, np.inf)[0]
        weight = exterior_weight(x, params)
        errors.append(abs(quad - weight) / weight)
    return float(np.max(errors)), 1e-8


def swap_symmetry_error(alpha: float, size: int = 20) -> tuple[float, float]:
    """|D* u(x, z) - D* u(z, x)| of a complex field over ``size`` random pairs."""
    u = lambda z: np.sin(2.0 * z) + 1j * z ** 2
    pairs = np.random.default_rng(3).uniform(-0.95, 0.95, size=(size, 2))
    return float(np.max([abs(dstar_apply(u, x, z, alpha) - dstar_apply(u, z, x, alpha))
                         for x, z in pairs if x != z])), 0.0


def generator_psd_error(alpha: float, theta: str = "cosine_product") -> tuple[float, float]:
    """-lambda_min / lambda_max of G at n = 96, eps = 1/2; inf unless G = G^T."""
    g = assemble_heterogeneous_generator(
        Grid1D.make(96), KernelParams(alpha=alpha, theta=get_theta(theta), epsilon=0.5))
    ev = np.linalg.eigvalsh(g)
    return (float(-ev[0] / ev[-1]) if np.array_equal(g, g.T) else np.inf), 1e-10


def quadratic_form_error(alpha: float, n: int = 96,
                         theta: str = "cosine_product") -> tuple[float, float]:
    """h u^T G u against ``h_rho_norm_sq`` at eps = 1/2 for a perturbed smooth field."""
    grid = Grid1D.make(n)
    params = KernelParams(alpha=alpha, theta=get_theta(theta), epsilon=0.5)
    re, im = np.random.default_rng(5).standard_normal((2, n))
    u = (1.0 - grid.nodes ** 2) * np.exp(1j * np.pi * grid.nodes) + 0.1 * (re + 1j * im)
    lhs = grid.h * float(np.real(np.vdot(u, assemble_heterogeneous_generator(grid, params) @ u)))
    return abs(lhs / h_rho_norm_sq(u, grid, params) - 1.0), 1e-12


def getoor_error(n: int, alpha: float) -> tuple[float, float]:
    """L (1 - x^2)^{alpha/2} against ``getoor_parabola_image`` on |x| <= 1/2, relative.

    The error falls like h^{1.5} near alpha = 1, but its constant grows on the
    coarsest grids (2.2 times 3e-4 (256/n)^{1.5} at n = 7, alpha = 1.25), hence
    the exponent 1.75 below n = 256."""
    grid, exact = Grid1D.make(n), getoor_parabola_image(alpha)
    lap = assemble_heterogeneous_generator(grid, KernelParams(alpha=alpha, theta=get_theta("one")))
    image = (lap @ (1.0 - grid.nodes ** 2) ** (alpha / 2.0))[np.abs(grid.nodes) <= 0.5]
    return float(np.max(np.abs(image - exact)) / exact), widened(3e-4, n, 1.75)
