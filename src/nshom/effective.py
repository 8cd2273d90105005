"""Effective coefficients and the homogenized drift operator.

The three cell averages are

    Xi_1 = int_{Y x N} Theta(y, eta) dy deta
    Xi_2 = int_{Y x N} Theta(y, eta) D*_y chi dy deta
    Xi_3 = 2 int_{Y x Z} V(y, tau) chi(y) dy dtau = 2 int_Y chi(y) (int_Z V dtau) dy

with chi(y) the corrector, which has no tau argument because Theta has none.
``compute_effective_coefficients(chi, v_spec)`` takes the cell solution, which
carries Theta, alpha and the cell grid, and the potential V.
The drift of the homogenized equation i du = G_eff u dt + ... is assembled as

    G_eff = Xi_1 L - (Xi_2 / 2) R Z - Xi_3 Z

with L the positive fractional generator (exterior term included), Z the
linear map u -> zeta(u) = (1/|D|) int_D (D* u)(x, z) dz, and R the restricted
divergence zeta -> int_D (zeta(x) + zeta(z)) gamma(x, z) dz (principal value).

Z and R are built by product integration: the field is interpolated piecewise
linearly between nodes (zero at the domain endpoints for Z, linear
extrapolation for R) and the weakly singular kernel moments are integrated
exactly per interval, so no graded quadrature is needed at the diagonal. The
moments depend only on the node-interval offset, so Z and R are described by
O(n) vectors (``_offset_moments``, computed afresh on each call; the module
keeps no state): the generator of the shared Toeplitz part T0, the
principal-value mass on the diagonal and R's two endpoint-share vectors. The
dense Z and R are fresh arrays on each call, expanded only for the oracles
and the corrector diagnostic. Z takes the field to be zero at the endpoints
+-1, so for u that does not vanish there the rows next to the boundary grow
like h^{(1-alpha)/2}. G_eff reads the vectors: R Z is split the same way,
T0^2 is built in O(n^2) by the Toeplitz displacement recurrence, and blocks of
rows of the zeta terms are added to the fractional generator's own buffer, so
G_eff needs no O(n^3) product and no second n x n array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import (Grid1D, KernelParams, _check_alpha, assemble_heterogeneous_generator,
                     row_blocks, toeplitz_rows, widened)
from .cell import CellSolution
from .presets import VSpec, get_theta

# rows B of one block of G_eff's T0^2 rows and zeta terms (512 KiB at n = 2048);
# 32 keep the build under the 1.5 n^2 peak of test_allocation_peak_has_no_dense_temporary
EFFECTIVE_BLOCK_ROWS = 32


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


def compute_effective_coefficients(chi: CellSolution, v_spec: VSpec) -> EffectiveCoefficients:
    """Quadrature of the three cell averages against a solved corrector, on the
    Theta and cell grid it was solved for.

    Xi_1 is the solution's ``theta_mean``, taken by the cell solve from its
    one Theta sample, so Theta is not sampled here.
    Xi_2 = b . chi with the right-hand side b the corrector was solved with
    (same odd-kernel weights), so for constant Theta it vanishes to rounding
    together with chi.
    """
    theta, grid = chi.theta, chi.grid
    xi1 = chi.theta_mean
    xi2 = float(chi.rhs @ chi.chi)

    v = v_spec.sample(grid.y[:, None], grid.tau[None, :])
    xi3 = 2.0 * float(np.mean(chi.chi * v.mean(axis=1)))

    prov = {
        "alpha": chi.alpha,
        "m": grid.m,
        "m_tau": grid.m_tau,
        "n_images": grid.n_images,
        "theta": theta.name,
        "potential": v_spec.name,
        "cell_residual": chi.residual,
    }
    return EffectiveCoefficients(xi1=xi1, xi2=xi2, xi3=xi3, provenance=prov)


def _offset_moments(n: int, alpha: float) -> tuple[np.ndarray, ...]:
    """Vectors (f, mass, lo, hi) that describe Z and R on n nodes.

    They describe u -> int_{-1}^{1} (u_lin(z) - u(x_i)) gamma(x_i, z) dz.
    Every interval of [-1, x_1, ..., x_n, 1] has width h, so the exact moments
    i0 = int gamma and i1 = int (z - x_i) gamma of the interval
    [x_i + k h, x_i + (k + 1) h] depend only on its offset k. Node c takes the
    left-node share of interval k = c - i and the right-node share of
    interval k - 1, so off the diagonal the map is toeplitz(f[n-1::-1], f[n-1:])
    in c - i; f[n - 1] is exactly 0. The two intervals touching x_i carry no
    constant part; the i0 mass of the others telescopes to the principal value
    int gamma dz (``mass``), which the diagonal subtracts. ``lo`` and ``hi`` hold
    each row's weight on the virtual values u(-1) and u(1).
    """
    grid = Grid1D.make(n)
    h, x = grid.h, grid.nodes
    k = np.arange(-n, n)  # interval offsets; array index k + n
    s = np.arange(-n, n + 1) * h  # interval ends relative to x_i
    e1, e3 = (1.0 - alpha) / 2.0, (3.0 - alpha) / 2.0
    with np.errstate(divide="ignore"):
        p1 = np.abs(s) ** e1
    p3 = np.sign(s) * np.abs(s) ** e3
    i0 = (2.0 / (1.0 - alpha)) * (p1[1:] - p1[:-1])
    i0[n - 1:n + 1] = 0.0
    i1 = (2.0 / (3.0 - alpha)) * (p3[1:] - p3[:-1])
    # interval k's weight on its left node (value 1 - t, t = -k) and right node
    left = (1.0 + k) * i0 - i1 / h
    right = -k * i0 + i1 / h
    return (left[1:] + right[:-1],  # offsets c - i = -(n - 1), ..., n - 1
            (2.0 / (1.0 - alpha)) * ((1.0 - x) ** e1 - (1.0 + x) ** e1),
            left[n - 1::-1], right[:n - 1:-1])


def _zeta_rows(t0: np.ndarray, mass: np.ndarray, rows) -> np.ndarray:
    """Rows ``rows`` (a slice or an index array) of Z from T0 =
    ``toeplitz_rows(f)`` and the mass of ``_offset_moments``, as a fresh array."""
    z = t0[rows].copy()
    idx = np.arange(mass.size)[rows]
    z[np.arange(idx.size), idx] -= mass[idx]
    z *= -0.5
    return z


def zeta_matrix(grid: Grid1D, alpha: float) -> np.ndarray:
    """Dense matrix Z with zeta(u) = Z u, taking u(-1) = u(1) = 0; a fresh array
    on each call, as for R."""
    _check_alpha(alpha)
    f, mass, _, _ = _offset_moments(grid.n, float(alpha))
    return _zeta_rows(toeplitz_rows(f), mass, slice(None))


def zeta_of_parabola(x: np.ndarray, alpha: float) -> np.ndarray:
    """Exact zeta(u) at the points x for u = 1 - x^2, which vanishes at +-1.

    zeta(x) = (A_3(x) + 2x A_2(x)) / 2, where A_j(x) is the integral of
    t^{j-1} t |t|^{-(3+alpha)/2} over [-1-x, 1-x], whose antiderivative is
    sign(t)^{j+1} |t|^e / e with e = j + 1 - (3+alpha)/2.
    """
    alpha = _check_alpha(alpha)
    x = np.asarray(x, dtype=float)

    def a_j(j: int) -> np.ndarray:
        e = j + 1.0 - (3.0 + alpha) / 2.0
        antiderivative = lambda t: np.sign(t) ** (j + 1) * np.abs(t) ** e / e
        return antiderivative(1.0 - x) - antiderivative(-1.0 - x)

    return 0.5 * (a_j(3) + 2.0 * x * a_j(2))


def divergence_of_powers(x: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact (R x, R x^2) at the points x, R zeta = int (zeta(x) + zeta(z)) gamma(x, z) dz.

    With t = z - x and gamma = sign(t)|t|^{-p}, p = (1+alpha)/2, the moments
    over [-1-x, 1-x] are M_j = int t^j gamma dt = ((1-x)^e - (-1)^j (1+x)^e) / e,
    e = j + 1 - p, M_0 a principal value; then R x = 2x M_0 + M_1 and
    R x^2 = 2x^2 M_0 + 2x M_1 + M_2.
    """
    alpha = _check_alpha(alpha)
    x = np.asarray(x, dtype=float)
    e = np.arange(3.0) + 1.0 - (1.0 + alpha) / 2.0
    m0, m1, m2 = (((1.0 - x) ** e[j] - (-1.0) ** j * (1.0 + x) ** e[j]) / e[j] for j in range(3))
    return 2.0 * x * m0 + m1, 2.0 * x ** 2 * m0 + 2.0 * x * m1 + m2


def restricted_divergence_matrix(grid: Grid1D, alpha: float) -> np.ndarray:
    """Dense matrix R applying the principal-value restricted divergence to zeta.

    R = toeplitz(f) + diag(mass) + E: zeta(x) + zeta(z) puts the kernel mass on
    the diagonal, and linear extrapolation u(-1) = 2 u_1 - u_2, u(1) = 2 u_n -
    u_{n-1} adds the endpoint shares E to columns (0, 1, n-2, n-1). A fresh
    array on each call: the effective generator reads the vectors, not R.
    """
    _check_alpha(alpha)
    n = grid.n
    if n < 2:
        raise ValueError("linear extrapolation to the endpoints needs at least 2 nodes")
    f, mass, lo, hi = _offset_moments(n, float(alpha))
    r = toeplitz_rows(f).copy()  # T0: row i is f[n-1-i : 2n-1-i]
    r[np.diag_indices(n)] = mass
    r[:, 0] += 2.0 * lo
    r[:, 1] -= lo
    r[:, -1] += 2.0 * hi
    r[:, -2] -= hi
    return r


def _toeplitz_square_rows(col, row, top, left):
    """T @ T for T = toeplitz(col, row) in blocks of B rows, given the
    product's first row and column; yields (row slice, fresh block).

    T has displacement rank 2 (Kailath, Kung and Morf 1979): (TT)[i+1, j+1] =
    (TT)[i, j] + T[i+1, 0] T[0, j+1] - T[i, n-1] T[n-1, j]. Each block's
    (B, 2) @ (2, n) product writes its increments, and row updates sum them
    along the diagonals, carrying only the previous block's last row.
    """
    u, v = np.zeros((col.size, 2)), np.zeros((2, col.size))
    u[1:, 0], u[1:, 1], v[0, 1:], v[1, 1:] = col[1:], -row[:0:-1], row[1:], col[:0:-1]
    prev = None  # the last row of the previous block
    for b in row_blocks(col.size, EFFECTIVE_BLOCK_ROWS):
        out = u[b] @ v
        if b.start == 0:
            out[0] = top
        out[:, 0] = left[b]
        for i in range(b.start == 0, out.shape[0]):
            out[i, 1:] += (out[i - 1] if i else prev)[:-1]
        prev = out[-1].copy()
        yield b, out


def assemble_effective_generator(coeffs: EffectiveCoefficients, grid: Grid1D,
                                 alpha: float) -> np.ndarray:
    """G_eff = Xi_1 L - (Xi_2 / 2) R Z - Xi_3 Z as a dense matrix, in O(n^2),
    built in the buffer of the fractional generator L.

    T0 = toeplitz(f[n-1::-1], f[n-1:]) is the zero-diagonal Toeplitz part of the
    offset description (``_offset_moments``). With D_z = D_r = diag(mass),
    Z = -(T0 - D_z) / 2 and R = T0 + D_r + E, E nonzero only in the columns
    c = (0, 1, n-2, n-1), diagonal entries included. So R Z = -T0^2 / 2 - Z D_z
    + D_z^2 / 2 + D_r Z + E[:, c] Z[c, :]. L is built by
    ``assemble_heterogeneous_generator``, and the rest is added to it in
    blocks of B rows cut from the offset vectors: no dense Z or T0^2.

    Per block: the T0^2 rows of the displacement recurrence, scaled once; the
    zeta terms Z (D_z - diag(Xi_2 mass / 2 + Xi_3)) as one product of T0's
    rows with the scale differences, the -1/2 of Z folded into the scales
    (exact, a power of two) and Z's diagonal, where T0 is 0 and D_z is not,
    written separately; E[:, c] Z[c, :] by one (B, 4) @ (4, n) product; and
    the block of L scaled by Xi_1 while it is in cache. Every entry is the
    same sum of the same roundings as with Z in full.

    With (Xi_1, Xi_2, Xi_3) = (1, 0, 0) this reproduces the plain fractional
    generator entrywise.  The zeta terms are generally not Hermitian; norm
    behavior under them is observed by the integrator, not asserted.
    """
    out = assemble_heterogeneous_generator(
        grid, KernelParams(alpha=alpha, theta=get_theta("one")))
    xi1, xi2, xi3 = coeffs.as_tuple()
    n, alpha = grid.n, float(alpha)
    f, mass, lo, hi = _offset_moments(n, alpha)
    col, row = f[n - 1::-1], f[n - 1:]
    # first row and column of T0^2: correlations of T0's first row and column with f
    top, left = np.correlate(f, row[::-1], "valid"), np.correlate(f, col, "valid")[::-1]
    t0 = toeplitz_rows(f)
    z_c = _zeta_rows(t0, mass, np.array([0, 1, n - 2, n - 1]))
    e = (xi2 / 2.0) * np.stack([2.0 * lo, -lo, -hi, 2.0 * hi], axis=1)  # (Xi_2 / 2) E[:, c]
    col_scale = (xi2 / 2.0) * mass
    row_scale = col_scale + xi3
    # Z's -1/2 times the scales: -c/2 - (-r/2) is -(c - r)/2 exactly
    col_half, row_half = -0.5 * col_scale, -0.5 * row_scale
    scratch = np.empty((2, EFFECTIVE_BLOCK_ROWS, n))  # one block's zeta terms and a factor
    for b, block in _toeplitz_square_rows(col, row, top, left):
        rows = np.arange(n)[b]
        k = np.arange(rows.size)
        z, s = scratch[:, :rows.size]
        block *= xi2 / 4.0
        block[k, rows] -= (xi2 / 4.0) * mass[b] * mass[b]
        np.subtract(col_half, row_half[b, None], out=s)
        np.multiply(t0[b], s, out=z)
        z[k, rows] = -mass[b] * s[k, rows]  # (0 - mass) * -1/2 * (c - r)
        z -= np.matmul(e[b], z_c, out=s)
        block += z
        ob = out[b]
        ob *= xi1
        ob += block
    return out



# Oracles of ``nshom validate`` and the tests, as in ``kernel``.

def dense_product_error(alpha: float, n: int = 96) -> tuple[float, float]:
    """``assemble_effective_generator`` at Xi = (1.1, 0.3, -0.2) against the dense
    product Xi_1 L - (Xi_2 / 2) R @ Z - Xi_3 Z, relative to its largest entry."""
    grid, xi = Grid1D.make(n), (1.1, 0.3, -0.2)
    lap = assemble_heterogeneous_generator(grid, KernelParams(alpha=alpha, theta=get_theta("one")))
    z, r = zeta_matrix(grid, alpha), restricted_divergence_matrix(grid, alpha)
    dense = xi[0] * lap - (xi[1] / 2.0) * (r @ z) - xi[2] * z
    built = assemble_effective_generator(EffectiveCoefficients.from_values(*xi), grid, alpha)
    return float(np.max(np.abs(built - dense)) / np.max(np.abs(dense))), 1e-14


def zeta_parabola_error(n: int, alpha: float) -> tuple[float, float]:
    """Z (1 - x^2) against ``zeta_of_parabola``, relative to max|zeta| (zeta(0) = 0)."""
    grid = Grid1D.make(n)
    exact = zeta_of_parabola(grid.nodes, alpha)
    err = np.max(np.abs(zeta_matrix(grid, alpha) @ (1.0 - grid.nodes ** 2) - exact))
    return float(err / np.max(np.abs(exact))), widened(1e-4, n, 1.5)


def _divergence_of_power(n: int, alpha: float, power: int) -> float:
    """R x^power against ``divergence_of_powers`` on |x| <= 1/2, relative to the
    largest exact value there."""
    grid = Grid1D.make(n)
    x, away = grid.nodes, np.abs(grid.nodes) <= 0.5
    built = restricted_divergence_matrix(grid, alpha) @ x ** power
    exact = divergence_of_powers(x, alpha)[power - 1][away]
    return float(np.max(np.abs(built[away] - exact)) / np.max(np.abs(exact)))


def divergence_linear_error(n: int, alpha: float) -> tuple[float, float]:
    """R x is exact up to rounding, which grows with n and as alpha -> 1."""
    return _divergence_of_power(n, alpha, 1), 1e-14 * max(1.0, n / 256, 0.05 / (alpha - 1.0))


def divergence_quadratic_error(n: int, alpha: float) -> tuple[float, float]:
    """R x^2 carries an O(h^2) interpolation error."""
    return _divergence_of_power(n, alpha, 2), widened(3e-5, n, 2.25)
