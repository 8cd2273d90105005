"""Cell and G_eff setup against the path it replaced, with tolerance 0.

The reference functions below are the earlier implementation: scipy
``toeplitz`` copies of the offset weights, Theta sampled twice in full and
averaged, Xi_1 from a third sample, L negated, completed and divided by h in
full, one full-size temporary per term of the G_eff block loop, a zero-filled
bordered system. The package reads the weights as strided views, samples Theta
once per cell solve and takes Xi_1 from that sample, writes in place and
recomputes only L's bands; every output must be equal to them byte for byte.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import toeplitz

from nshom import cell, effective, kernel
from nshom.cell import CellGrid, CellSolution, assemble_cell_form, assemble_cell_rhs
from nshom.effective import (EffectiveCoefficients, assemble_effective_generator,
                             compute_effective_coefficients)
from nshom.kernel import Grid1D, KernelParams, assemble_heterogeneous_generator
from nshom.presets import ThetaSpec, get_theta, get_v

ALPHA = 1.5
# the four presets, and a constant other than 1, which the assembly multiplies by
THETAS = [get_theta(name) for name in ("one", "cosine_product", "cosine_shift", "cosine_sum")] + [
    get_theta("scaled", base="one", factor=2.5)]
THETA_IDS = [theta.name for theta in THETAS]
CELL_SIZES = [8, 33, 64, 256]
# the generators' diagonal and +-2 band fix-ups at both boundaries, and G_eff's
# 32-row blocks whole, cut short and several
GRID_SIZES = [4, 5, 33, 64, 256, 257]
V_NAME = "sin2pi_y_one_plus_sin2pi_tau"  # Xi_3 != 0 for an oscillating Theta


def reference_theta_matrix(theta, y):
    """Theta(y_i, y_j) and Theta(y_j, y_i) sampled in full and averaged."""
    if theta.constant is not None:
        return theta.constant, np.full(y.size, theta.constant)
    tm, tm_t = theta.sample(y[:, None], y[None, :]), theta.sample(y[None, :], y[:, None])
    diff = tm - tm_t
    dev = float(np.abs(diff, out=diff).max())
    assert dev <= 1e-10 * max(1.0, float(np.max(np.abs(tm))))
    tm += tm_t
    tm *= 0.5
    assert tm.min() > 0.0
    return tm, np.diag(tm).copy()


def reference_cell_form(theta, alpha, grid):
    m, h = grid.m, 1.0 / grid.m
    w = toeplitz(cell._even_offset_weights(m, alpha, grid.n_images))
    weights, theta_diag = reference_theta_matrix(theta, grid.y)
    w *= weights
    dg = 2.0 * w.sum(axis=1)
    a = np.multiply(w, -2.0, out=w)
    a[np.diag_indices(m)] += dg
    kernel._add_same_cell_term(a, kernel.same_cell_coeff(h, alpha), theta_diag, h, periodic=True)
    return a


def reference_cell_rhs(theta, alpha, grid):
    m, h = grid.m, 1.0 / grid.m
    w_off = cell._odd_offset_weights(m, alpha, grid.n_images)
    w1 = toeplitz(-w_off, w_off)
    weights, theta_diag = reference_theta_matrix(theta, grid.y)
    b = 2.0 * np.sum(w1 * weights, axis=1)
    b += cell._psi_even(h, alpha) / h * (np.roll(theta_diag, -1) - np.roll(theta_diag, 1))
    return b


def reference_solve_bordered(a, b):
    m = a.shape[0]
    bordered = np.zeros((m + 1, m + 1))
    bordered[:m, :m] = a
    bordered[:m, m] = 1.0
    bordered[m, :m] = 1.0
    sol = np.linalg.solve(bordered, np.concatenate([b, [0.0]]))
    return sol[:m], sol[m]


def reference_theta_mean(theta, y):
    """Theta's cell mean sampled afresh, 64 rows at a time."""
    if theta.constant is not None:
        return float(theta.constant)
    return sum(float(theta.sample(y[i:i + 64, None], y[None, :]).sum())
               for i in range(0, y.size, 64)) / y.size ** 2


def reference_cell_solution(theta, alpha, grid):
    a = reference_cell_form(theta, alpha, grid)
    b = reference_cell_rhs(theta, alpha, grid)
    chi_col, lam = reference_solve_bordered(a, b)
    residual = float(np.linalg.norm(a @ chi_col + lam - b) / max(1.0, np.linalg.norm(b)))
    return CellSolution(chi=chi_col - chi_col.mean(), rhs=b, theta=theta, alpha=alpha,
                        grid=grid, residual=residual,
                        theta_mean=reference_theta_mean(theta, grid.y))


def reference_heterogeneous_generator(grid, params):
    n, h, x = grid.n, grid.h, grid.nodes
    w = toeplitz(np.concatenate(([0.0], kernel.pair_weights_even(np.arange(1, n) * h, h,
                                                                   params.alpha))))
    weights, theta_diag = reference_theta_matrix(params.theta, np.mod(x / params.epsilon, 1.0))
    w *= weights
    ext = kernel.exterior_weight(x, params, margin=h / 2.0)
    diag = np.diag_indices(n)
    dg = w.sum(axis=1)
    m = np.negative(w, out=w)
    m[diag] += dg
    kernel._add_same_cell_term(m, kernel.same_cell_coeff(h, params.alpha) / 2.0, theta_diag, h)
    m /= h
    m[diag] += ext
    return m


def reference_zeta_rows(f, mass, rows):
    n = mass.size
    z = sliding_window_view(f, n)[n - 1 - rows]
    z[np.arange(rows.size), rows] -= mass[rows]
    z *= -0.5
    return z


def reference_effective_generator(coeffs, grid, alpha):
    out = reference_heterogeneous_generator(grid, KernelParams(alpha=alpha,
                                                               theta=get_theta("one")))
    xi1, xi2, xi3 = coeffs.as_tuple()
    out *= xi1
    n = grid.n
    f, mass, lo, hi = effective._offset_moments(n, alpha)
    col, row = f[n - 1::-1], f[n - 1:]
    top, left = np.correlate(f, row[::-1], "valid"), np.correlate(f, col, "valid")[::-1]
    z_c = reference_zeta_rows(f, mass, np.array([0, 1, n - 2, n - 1]))
    e = (xi2 / 2.0) * np.stack([2.0 * lo, -lo, -hi, 2.0 * hi], axis=1)
    col_scale = (xi2 / 2.0) * mass
    row_scale = col_scale + xi3
    for b, block in effective._toeplitz_square_rows(col, row, top, left):
        rows = np.arange(n)[b]
        block *= xi2 / 4.0
        block[np.arange(rows.size), rows] -= (xi2 / 4.0) * mass[b] * mass[b]
        block += reference_zeta_rows(f, mass, rows) * (col_scale - row_scale[b, None]) - e[b] @ z_c
        out[b] += block
    return out


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", CELL_SIZES)
@pytest.mark.parametrize("theta", THETAS, ids=THETA_IDS)
class TestCellBitwise:
    def test_form_and_rhs(self, theta, m):
        grid = CellGrid(m=m)
        assert same_bytes(assemble_cell_form(theta, ALPHA, grid),
                          reference_cell_form(theta, ALPHA, grid))
        assert same_bytes(assemble_cell_rhs(theta, ALPHA, grid),
                          reference_cell_rhs(theta, ALPHA, grid))

    def test_corrector_and_coefficients(self, theta, m):
        grid, v = CellGrid(m=m, m_tau=4), get_v(V_NAME)
        got, want = cell.solve_cell_problem(theta, ALPHA, grid), \
            reference_cell_solution(theta, ALPHA, grid)
        assert same_bytes(got.chi, want.chi) and same_bytes(got.rhs, want.rhs)
        assert got.residual == want.residual
        assert (compute_effective_coefficients(got, v).as_tuple()
                == compute_effective_coefficients(want, v).as_tuple())


@pytest.mark.parametrize("n", GRID_SIZES)
@pytest.mark.parametrize("theta", THETAS, ids=THETA_IDS)
def test_heterogeneous_generator_bitwise(theta, n):
    grid = Grid1D.make(n)
    params = KernelParams(alpha=ALPHA, theta=theta, epsilon=1.0 / 16.0)
    assert same_bytes(assemble_heterogeneous_generator(grid, params),
                      reference_heterogeneous_generator(grid, params))


@pytest.mark.parametrize("n", GRID_SIZES)
@pytest.mark.parametrize("theta", THETAS, ids=THETA_IDS)
def test_effective_generator_bitwise(theta, n):
    sol = cell.solve_cell_problem(theta, ALPHA, CellGrid(m=64, m_tau=4))
    grid = Grid1D.make(n)
    for coeffs in (compute_effective_coefficients(sol, get_v(V_NAME)),
                   EffectiveCoefficients.from_values(1.1, 0.3, -0.2)):
        assert same_bytes(assemble_effective_generator(coeffs, grid, ALPHA),
                          reference_effective_generator(coeffs, grid, ALPHA))


def counting_theta(shapes):
    """``cosine_sum`` recording the shape of every sample it is asked for."""
    base = get_theta("cosine_sum")

    def fn(y, eta):
        out = base.fn(y, eta)
        shapes.append(out.shape)
        return out

    return ThetaSpec("counting", fn, lower=base.lower, upper=base.upper)


@pytest.mark.parametrize("m", [256, 257])
def test_cell_solve_samples_theta_once_in_full(m):
    shapes = []
    theta = counting_theta(shapes)
    shapes.clear()  # the symmetry probe of ThetaSpec's construction
    cell.solve_cell_problem(theta, ALPHA, CellGrid(m=m))
    assert shapes == [(m, m)]


def test_coefficients_do_not_sample_theta():
    shapes = []
    sol = cell.solve_cell_problem(counting_theta(shapes), ALPHA, CellGrid(m=64, m_tau=4))
    shapes.clear()
    compute_effective_coefficients(sol, get_v(V_NAME))
    assert shapes == []


def test_cell_solve_has_no_full_size_temporary():
    # the sample becomes the form, and the bordered system is the second
    # m x m array; the earlier path held five while it built the form
    m = 512
    tracemalloc.start()
    try:
        cell.solve_cell_problem(get_theta("cosine_sum"), ALPHA, CellGrid(m=m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * m * m * 8
