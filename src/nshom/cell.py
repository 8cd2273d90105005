"""Periodic unit-cell problems: the variational corrector solve and the
periodic nonlocal Poisson equation.

The cell bilinear form

    a(w, v) = int_{Y x N x Z} Theta(y, eta) (D*_y w) conj(D*_y v) dy deta dtau

is discretized on a uniform periodic y-grid with exact cell-pair kernel
moments. The cell is the torus, as in the periodic cell problem of two-scale
convergence: the eta-integration runs over the whole line, realized as an
image sum over integer translates plus analytic tail corrections. The
per-offset weights are assembled with exact mirror symmetry (w[m - D] == +-w[D]
bitwise) and read as Toeplitz matrices through strided views of one 2m - 1
vector (``kernel.toeplitz_rows``), never expanded into an m x m copy, so for
constant Theta the right-hand side cancels to rounding and the corrector
vanishes identically. ``solve_cell_problem`` samples Theta once: the
right-hand side and Theta's cell mean (Xi_1) read the sample in row blocks,
then the form is built in its buffer.

The linear functional ell(v) = int Theta conj(D*_y v) uses the matching odd
kernel moments; the corrector chi solves a(chi, v) = ell(v) for all v subject
to zero mean, enforced through a bordered (Lagrange) system. The returned
``CellSolution`` carries chi with the Theta, alpha and grid it was solved for,
so the effective coefficients are computed from it alone.

The periodic Poisson solve needs V's zero mean over y, which ``VSpec`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .kernel import (_add_same_cell_term, _check_alpha, _check_size, _scalar_power,
                     _tail_power_sum, _theta_matrix, pair_weights_even, row_blocks,
                     same_cell_coeff, toeplitz_rows, weighted_pair_matrix)
from .presets import ThetaSpec, VSpec, get_theta, get_v

# the mean-zero potential presets the periodic Poisson oracle solves for
POISSON_POTENTIALS = ("cos2pi_y", "cos2pi_y_times_cos2pi_tau", "sin2pi_y_one_plus_sin2pi_tau")


class CellSolveError(RuntimeError):
    """Raised when the constrained corrector solve is ill-conditioned."""


@dataclass
class CellGrid:
    """Uniform periodic grids on the unit cell (m y-nodes, m_tau tau-nodes)
    and the number of kernel images on each side; each size an integer
    (m >= 8, the others >= 1)."""

    m: int
    m_tau: int = 1
    n_images: int = 8

    def __post_init__(self):
        for name, low in (("m", 8), ("m_tau", 1), ("n_images", 1)):
            setattr(self, name, _check_size(f"cell.{name}", getattr(self, name), low))

    @property
    def y(self) -> np.ndarray:
        return np.arange(self.m) / self.m

    @property
    def tau(self) -> np.ndarray:
        return np.arange(self.m_tau) / self.m_tau


@dataclass
class CellSolution:
    """Mean-zero corrector values chi(y) with the inputs they were solved for.

    Theta has no tau argument, so chi is one (m,) vector.
    """

    chi: np.ndarray  # shape (m,)
    rhs: np.ndarray  # shape (m,), the right-hand side b the corrector was solved with
    theta: ThetaSpec
    alpha: float
    grid: CellGrid
    residual: float  # relative residual of the bordered solve
    theta_mean: float  # mean of Theta over the cell grid's m x m points, Xi_1

    @property
    def mean_abs(self) -> float:
        return abs(float(self.chi.mean()))


def _psi_even(s: np.ndarray, alpha: float) -> np.ndarray:
    """Repeated antiderivative of |s|^{(1-alpha)/2} (even)."""
    return 4.0 * np.abs(s) ** ((5.0 - alpha) / 2.0) / ((3.0 - alpha) * (5.0 - alpha))


def _psi_odd(s: np.ndarray, alpha: float) -> np.ndarray:
    """Repeated antiderivative of sign(s) |s|^{-(1+alpha)/2} (odd)."""
    return 4.0 * np.sign(s) * np.abs(s) ** ((3.0 - alpha) / 2.0) / ((1.0 - alpha) * (3.0 - alpha))


def _q_odd_near(d: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """Cell-pair integral of (eta-y) gamma(y,eta) divided by the nodal distance."""
    d = np.asarray(d, dtype=float)
    return (_psi_even(d + h, alpha) - 2.0 * _psi_even(d, alpha) + _psi_even(d - h, alpha)) / d


def _q_odd_far(d: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """Exact cell-pair integral of the odd kernel gamma for well-separated cells."""
    d = np.asarray(d, dtype=float)
    return _psi_odd(d + h, alpha) - 2.0 * _psi_odd(d, alpha) + _psi_odd(d - h, alpha)


def _even_offset_weights(m: int, alpha: float, n_images: int) -> np.ndarray:
    """Even pair weights per grid offset, mirror-exact: w[m - D] == w[D] bitwise."""
    h = 1.0 / m
    w = np.zeros(m)
    kk = np.arange(-n_images, n_images + 1)
    delta = np.arange(1, m // 2 + 1)
    d0 = delta * h
    val = np.sum(pair_weights_even(d0[:, None] + kk, h, alpha), axis=1)
    val += h * h * _tail_power_sum(n_images + 0.5 + d0, n_images + 0.5 - d0, alpha) / alpha
    w[delta] = val
    w[m - delta] = val
    return w


def _odd_offset_weights(m: int, alpha: float, n_images: int) -> np.ndarray:
    """Odd pair weights per offset, antisymmetric bitwise: w[m - D] == -w[D]."""
    h = 1.0 / m
    w = np.zeros(m)
    p = (1.0 + alpha) / 2.0
    kk = np.arange(-n_images, n_images + 1)
    kk = kk[kk != 0]
    delta = np.arange(1, (m - 1) // 2 + 1)  # an even m's offset m/2 stays 0
    d0 = delta * h
    val = _q_odd_near(d0, h, alpha)
    val += np.sum(_q_odd_far(d0[:, None] + kk, h, alpha), axis=1)
    val += h * h * (_scalar_power(n_images + 0.5 - d0, 1.0 - p)
                    - _scalar_power(n_images + 0.5 + d0, 1.0 - p)) / (1.0 - p)
    w[delta] = val
    w[m - delta] = -val
    return w


def assemble_cell_form(theta: ThetaSpec, alpha: float, grid: CellGrid,
                       sample=None) -> np.ndarray:
    """Symmetric PSD matrix of the cell bilinear form on nodal values.

    Constants span the kernel exactly (row sums vanish identically); on the
    mean-zero subspace the form is positive definite. The matrix is symmetric
    bit for bit: the offset weights are mirror-exact and a Theta sample is
    symmetric (``ThetaSpec`` checks that when it is built).
    ``sample`` is ``_theta_matrix(theta, grid.y)`` if the caller has it; an
    array sample becomes the form's buffer and is overwritten.
    """
    _check_alpha(alpha)
    m, h = grid.m, 1.0 / grid.m
    weights, theta_diag = _theta_matrix(theta, grid.y) if sample is None else sample
    w = weighted_pair_matrix(_even_offset_weights(m, alpha, grid.n_images), weights)
    dg = 2.0 * w.sum(axis=1)
    a = np.multiply(w, -2.0, out=w if w.flags.writeable else None)
    a[np.diag_indices(m)] += dg
    _add_same_cell_term(a, same_cell_coeff(h, alpha), theta_diag, h, periodic=True)
    return a


def assemble_cell_rhs(theta: ThetaSpec, alpha: float, grid: CellGrid,
                      sample=None) -> np.ndarray:
    """Vector b with ell(v) = sum_j b_j conj(v_j) for the corrector right-hand side.

    For constant Theta the antisymmetric weights cancel exactly and b vanishes
    to rounding. ``sample`` is as for ``assemble_cell_form``, and only read.
    """
    _check_alpha(alpha)
    m, h = grid.m, 1.0 / grid.m
    weights, theta_diag = _theta_matrix(theta, grid.y) if sample is None else sample
    w_off = _odd_offset_weights(m, alpha, grid.n_images)
    # W1[j, l] is the odd weight of offset l - j, negated below the diagonal
    w1 = toeplitz_rows(np.concatenate((-w_off[::-1], w_off[1:])))
    weights = np.broadcast_to(weights, (m, m))  # a constant as a read-only matrix
    b = np.empty(m)
    for rows in row_blocks(m):
        b[rows] = np.sum(w1[rows] * weights[rows], axis=1)
    b *= 2.0
    b += _psi_even(h, alpha) / h * (np.roll(theta_diag, -1) - np.roll(theta_diag, 1))
    return b


def solve_bordered(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve a chi + lam = b subject to sum(chi) = 0 through the bordered
    (Lagrange) system; returns (chi, lam). ``a`` must be symmetric bit for bit,
    as the cell form is.

    One pass writes ``a`` and its border of ones into an uninitialized
    (m + 1)^2 array, and ``np.linalg.solve`` gets that array's transpose:
    LAPACK reads column-major storage, so the transposed view is copied into
    its work array contiguously, and for a symmetric system it is the same
    matrix, so the same LU and the same solution bit for bit.
    """
    m = a.shape[0]
    bordered = np.empty((m + 1, m + 1))
    bordered[:m, :m] = a
    bordered[:m, m] = 1.0
    bordered[m, :m] = 1.0
    bordered[m, m] = 0.0
    try:
        sol = np.linalg.solve(bordered.T, np.concatenate([b, [0.0]]))
    except np.linalg.LinAlgError as exc:
        raise CellSolveError(f"constrained cell solve failed: {exc}") from exc
    return sol[:m], sol[m]


def solve_cell_problem(theta: ThetaSpec, alpha: float, grid: CellGrid) -> CellSolution:
    """Solve the mean-zero corrector problem for chi(y).

    Theta carries no tau argument, so chi is solved once, as an (m,) vector.
    Theta is sampled once: the right-hand side and Theta's mean, a sum of the
    sample's row blocks over m^2, read the sample, then the form overwrites it.
    """
    _check_alpha(alpha)
    sample = _theta_matrix(theta, grid.y)
    weights = sample[0]
    theta_mean = (float(weights) if theta.constant is not None else
                  sum(float(weights[rows].sum()) for rows in row_blocks(grid.m)) / grid.m ** 2)
    b = assemble_cell_rhs(theta, alpha, grid, sample)
    a = assemble_cell_form(theta, alpha, grid, sample)
    chi_col, lam = solve_bordered(a, b)
    residual = float(np.linalg.norm(a @ chi_col + lam - b) / max(1.0, np.linalg.norm(b)))
    chi = chi_col - chi_col.mean()
    if not residual <= 1e-8:  # also true for NaN
        raise CellSolveError(f"cell solve residual {residual:.2e} exceeds 1e-8 "
                             "(conditioning failure beyond the constraint kernel)")
    return CellSolution(chi=chi, rhs=b, theta=theta, alpha=alpha, grid=grid, residual=residual,
                        theta_mean=theta_mean)


def fractional_symbol_factor(alpha: float) -> float:
    """I_alpha = 2 int_0^inf (1 - cos t) t^{-1-alpha} dt = 2 Gamma(-alpha) sin(pi (alpha - 1) / 2);
    the whole-line symbol is mu(omega) = I_alpha |omega|^alpha.

    The sine form avoids the cancellation of the equal -2 Gamma(-alpha) cos(pi alpha / 2)
    near alpha = 1.
    """
    _check_alpha(alpha)
    return float(2.0 * special.gamma(-alpha) * np.sin(np.pi * (alpha - 1.0) / 2.0))


def periodic_symbol(k: np.ndarray, alpha: float) -> np.ndarray:
    """Symbol of D_y D*_y on frequency-k periodic modes: 2 I_alpha (2 pi |k|)^alpha."""
    k = np.abs(np.asarray(k, dtype=float))
    return 2.0 * fractional_symbol_factor(alpha) * (2.0 * np.pi * k) ** alpha


def apply_periodic_generator(values: np.ndarray, alpha: float) -> np.ndarray:
    """Apply D_y D*_y spectrally along axis 0 (periodic unit cell)."""
    values = np.asarray(values)
    m = values.shape[0]
    k = np.fft.fftfreq(m) * m
    sym = periodic_symbol(k, alpha)
    shape = (m,) + (1,) * (values.ndim - 1)
    out = np.fft.ifft(sym.reshape(shape) * np.fft.fft(values, axis=0), axis=0)
    if np.isrealobj(values):
        return out.real
    return out


def solve_periodic_poisson(v_spec: VSpec, alpha: float, grid: CellGrid) -> np.ndarray:
    """Mean-zero xi with D_y D*_y xi = V per tau slice, solved in Fourier space
    (k = 0 set to zero); solvable since ``VSpec`` checked V's zero y-mean."""
    _check_alpha(alpha)
    v = v_spec.sample(grid.y[:, None], grid.tau[None, :])
    m = grid.m
    k = np.fft.fftfreq(m) * m
    sym = periodic_symbol(k, alpha)
    sym[0] = 1.0
    v_hat = np.fft.fft(v, axis=0)
    xi_hat = v_hat / sym[:, None]
    xi_hat[0, :] = 0.0
    xi = np.fft.ifft(xi_hat, axis=0)
    return xi.real if np.isrealobj(v) else xi


def poisson_residual(xi: np.ndarray, v_spec: VSpec, alpha: float, grid: CellGrid) -> float:
    """Relative residual ||D_y D*_y xi - V||_2 / ||V||_2 over all tau slices."""
    v = v_spec.sample(grid.y[:, None], grid.tau[None, :])
    res = apply_periodic_generator(xi, alpha) - v
    denom = float(np.linalg.norm(v))
    if denom == 0.0:
        return float(np.linalg.norm(res))
    return float(np.linalg.norm(res) / denom)


# Oracles of ``nshom validate`` and the tests, as in ``kernel``.

def constant_corrector_error(alpha: float, m: int = 64) -> tuple[float, float]:
    """|chi| for Theta == 1, where the corrector vanishes."""
    sol = solve_cell_problem(get_theta("one"), alpha, CellGrid(m=m))
    return float(np.linalg.norm(sol.chi)), 1e-10


def manufactured_corrector_error(alpha: float, m: int = 64) -> tuple[float, float]:
    """Relative L2 error of the bordered solve recovering chi* from a chi*."""
    grid = CellGrid(m=m)
    a = assemble_cell_form(get_theta("cosine_product"), alpha, grid)
    chi = np.cos(2 * np.pi * grid.y) - 0.5 * np.sin(4 * np.pi * grid.y)
    chi -= chi.mean()
    return float(np.linalg.norm(solve_bordered(a, a @ chi)[0] - chi) / np.linalg.norm(chi)), 1e-8


def poisson_residual_error(alpha: float, m: int = 64, m_tau: int = 2,
                           potentials=POISSON_POTENTIALS) -> tuple[float, float]:
    """Largest ``poisson_residual`` of the periodic solve over the potentials."""
    grid = CellGrid(m=m, m_tau=m_tau)
    return float(np.max([poisson_residual(solve_periodic_poisson(v, alpha, grid), v, alpha, grid)
                         for v in map(get_v, potentials)])), 1e-8
