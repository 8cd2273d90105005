"""Periodic unit-cell problems: the variational corrector solve and the
periodic nonlocal Poisson equation.

The cell bilinear form

    a(w, v) = int_{Y x N x Z} Theta(y, eta) (D*_y w) conj(D*_y v) dy deta dtau

is discretized on a uniform periodic y-grid with exact cell-pair kernel
moments.  Two kernel interpretations are supported, selected by
``CellGrid.kernel_mode``:

* ``periodized`` (default): the eta-integration runs over the whole line,
  realized as an image sum over integer translates plus analytic tail
  corrections.  Weights are assembled with exact mirror symmetry so that for
  constant Theta the right-hand side cancels to rounding and the corrector
  vanishes identically.
* ``cell_truncated``: the kernel is restricted to the unit square (plain
  distances, no images); kept for sensitivity comparisons.

The mode enters only the per-offset weights, which both modes expand as a
plain Toeplitz matrix: the periodized weights are mirror-exact
(w[m - D] == +-w[D] bitwise), so wrapping the offset mod m changes nothing.

The linear functional ell(v) = int Theta conj(D*_y v) uses the matching odd
kernel moments; the corrector chi solves a(chi, v) = ell(v) for all v subject
to zero mean, enforced through a bordered (Lagrange) system. The returned
``CellSolution`` carries chi with the Theta, alpha and grid it was solved for,
so the effective coefficients are computed from it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg import toeplitz

from .kernel import (_add_same_cell_term, _check_alpha, _scalar_power, _theta_matrix,
                     pair_weights_even, same_cell_coeff)
from .presets import ThetaSpec, VSpec

KERNEL_MODES = ("periodized", "cell_truncated")


class CellSolveError(RuntimeError):
    """Raised when the constrained corrector solve is ill-conditioned."""


@dataclass
class CellGrid:
    """Uniform periodic grids on the unit cell (m y-nodes, m_tau tau-nodes)
    and the kernel interpretation the cell problem is discretized with."""

    m: int
    m_tau: int = 1
    n_images: int = 8
    kernel_mode: str = "periodized"

    def __post_init__(self):
        if self.m < 8:
            raise ValueError("cell grid needs m >= 8")
        if self.m_tau < 1:
            raise ValueError("m_tau must be >= 1")
        if self.n_images < 1:
            raise ValueError("n_images must be >= 1")
        if self.kernel_mode not in KERNEL_MODES:
            raise ValueError(f"kernel_mode must be one of {KERNEL_MODES}")

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

    @property
    def mean_abs(self) -> float:
        return abs(float(self.chi.mean()))


def periodized_kernel_weight(y: float, eta: float, alpha: float, n_images: int) -> float:
    """Whole-line even kernel at periodic points: sum over integer images of
    |y - eta + k|^{-1-alpha} plus the analytic tail bound 2 (K + 1/2)^{-alpha} / alpha."""
    _check_alpha(alpha)
    d = y - eta
    if d == np.floor(d):
        raise ValueError("periodized kernel weight is singular at coincident points")
    k = np.arange(-n_images, n_images + 1)
    total = float(np.sum(np.abs(d + k) ** (-1.0 - alpha)))
    total += 2.0 * (n_images + 0.5) ** (-alpha) / alpha
    return total


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


def _even_offset_weights(m: int, alpha: float, n_images: int, kernel_mode: str) -> np.ndarray:
    """Even pair weights per grid offset, mirror-exact: w[m - D] == w[D] bitwise."""
    h = 1.0 / m
    w = np.zeros(m)
    if kernel_mode == "cell_truncated":
        d = np.arange(1, m) * h
        w[1:] = pair_weights_even(d, h, alpha)
        return w
    kk = np.arange(-n_images, n_images + 1)
    delta = np.arange(1, m // 2 + 1)
    d0 = delta * h
    val = np.sum(pair_weights_even(d0[:, None] + kk, h, alpha), axis=1)
    val += h * h * (_scalar_power(n_images + 0.5 + d0, -alpha)
                    + _scalar_power(n_images + 0.5 - d0, -alpha)) / alpha
    w[delta] = val
    w[m - delta] = val
    return w


def _odd_offset_weights(m: int, alpha: float, n_images: int, kernel_mode: str) -> np.ndarray:
    """Odd pair weights per offset, antisymmetric bitwise: w[m - D] == -w[D]."""
    h = 1.0 / m
    w = np.zeros(m)
    p = (1.0 + alpha) / 2.0
    if kernel_mode == "cell_truncated":
        d = np.arange(1, m) * h
        w[1:] = _q_odd_near(d, h, alpha)
        return w
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


def assemble_cell_form(theta: ThetaSpec, alpha: float, grid: CellGrid) -> np.ndarray:
    """Symmetric PSD matrix of the cell bilinear form on nodal values.

    Constants span the kernel exactly (row sums vanish identically); on the
    mean-zero subspace the form is positive definite. The matrix is symmetric
    bit for bit: the offset weights are mirror-exact and Theta is symmetrized.
    """
    _check_alpha(alpha)
    m, h = grid.m, 1.0 / grid.m
    w = toeplitz(_even_offset_weights(m, alpha, grid.n_images, grid.kernel_mode))
    weights, theta_diag = _theta_matrix(theta, grid.y)
    w *= weights
    dg = 2.0 * w.sum(axis=1)
    a = np.multiply(w, -2.0, out=w)
    a[np.diag_indices(m)] += dg
    _add_same_cell_term(a, same_cell_coeff(h, alpha), theta_diag, h, periodic=True)
    return a


def assemble_cell_rhs(theta: ThetaSpec, alpha: float, grid: CellGrid) -> np.ndarray:
    """Vector b with ell(v) = sum_j b_j conj(v_j) for the corrector right-hand side.

    For constant Theta in periodized mode the antisymmetric weights cancel
    exactly and b vanishes to rounding.
    """
    _check_alpha(alpha)
    m, h = grid.m, 1.0 / grid.m
    w_off = _odd_offset_weights(m, alpha, grid.n_images, grid.kernel_mode)
    # W1[j, l] is the odd weight of offset l - j, negated below the diagonal
    w1 = toeplitz(-w_off, w_off)
    weights, theta_diag = _theta_matrix(theta, grid.y)
    b = 2.0 * np.sum(w1 * weights, axis=1)
    b += _psi_even(h, alpha) / h * (np.roll(theta_diag, -1) - np.roll(theta_diag, 1))
    return b


def solve_bordered(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve a chi + lam = b subject to sum(chi) = 0 through the bordered
    (Lagrange) system; returns (chi, lam)."""
    m = a.shape[0]
    bordered = np.zeros((m + 1, m + 1))
    bordered[:m, :m] = a
    bordered[:m, m] = 1.0
    bordered[m, :m] = 1.0
    try:
        sol = np.linalg.solve(bordered, np.concatenate([b, [0.0]]))
    except np.linalg.LinAlgError as exc:
        raise CellSolveError(f"constrained cell solve failed: {exc}") from exc
    return sol[:m], sol[m]


def solve_cell_problem(theta: ThetaSpec, alpha: float, grid: CellGrid) -> CellSolution:
    """Solve the mean-zero corrector problem for chi(y).

    Theta carries no tau argument, so chi is solved once, as an (m,) vector.
    """
    a = assemble_cell_form(theta, alpha, grid)
    b = assemble_cell_rhs(theta, alpha, grid)
    chi_col, lam = solve_bordered(a, b)
    residual = float(np.linalg.norm(a @ chi_col + lam - b) / max(1.0, np.linalg.norm(b)))
    chi = chi_col - chi_col.mean()
    if not residual <= 1e-8:  # also true for NaN
        raise CellSolveError(f"cell solve residual {residual:.2e} exceeds 1e-8 "
                             "(conditioning failure beyond the constraint kernel)")
    return CellSolution(chi=chi, rhs=b, theta=theta, alpha=alpha, grid=grid, residual=residual)


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
    """Mean-zero xi with D_y D*_y xi = V per tau slice, solved in Fourier space.

    Rejects potentials whose y-mean does not vanish (the constrained problem
    is not solvable otherwise).
    """
    _check_alpha(alpha)
    v = v_spec.sample(grid.y[:, None], grid.tau[None, :])
    scale = max(1.0, float(np.max(np.abs(v))) if v.size else 1.0)
    means = np.abs(v.mean(axis=0))
    if float(means.max(initial=0.0)) > 1e-10 * scale:
        raise ValueError(
            f"potential {v_spec.name!r} has nonzero y-mean (max |mean| = {float(means.max()):.2e}); "
            "zero spatial mean is required for the periodic solve")
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


def form_eigenvalues(a: np.ndarray) -> tuple[float, float, float]:
    """(most negative, smallest mean-zero-subspace, largest) eigenvalues of the form."""
    vals = np.linalg.eigvalsh(a)
    return float(vals[0]), float(vals[1]), float(vals[-1])
