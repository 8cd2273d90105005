"""Effective coefficients, zeta field, restricted divergence, and drift assembly."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import toeplitz

from nshom import effective
from nshom.cell import CellGrid, assemble_cell_rhs, solve_cell_problem
from nshom.effective import (
    EffectiveCoefficients,
    _offset_moments,
    _toeplitz_square_rows,
    assemble_effective_generator,
    compute_effective_coefficients,
    restricted_divergence_matrix,
    zeta_matrix,
)
from nshom.kernel import Grid1D, KernelParams, assemble_heterogeneous_generator, gamma
from nshom.presets import THETA_PRESETS, VSpec, get_theta, get_v

ALPHA = 1.5


@pytest.fixture(scope="module")
def grid():
    return Grid1D.make(128)


class TestCoefficients:
    def test_constant_theta_values(self):
        cg = CellGrid(m=96, m_tau=4)
        sol = solve_cell_problem(get_theta("one"), ALPHA, cg)
        coeffs = compute_effective_coefficients(sol, get_v("cos2pi_y_times_cos2pi_tau"))
        assert coeffs.xi1 == 1.0
        assert abs(coeffs.xi2) < 1e-8
        assert abs(coeffs.xi3) < 1e-8

    def test_scaling_in_theta(self):
        # both sides of the corrector equation scale together, so chi is
        # unchanged, xi1 and xi2 scale, xi3 does not
        cg = CellGrid(m=64, m_tau=2)
        v = get_v("cos2pi_y")
        base = get_theta("cosine_product")
        scaled = get_theta("scaled", base="cosine_product", factor=3.0)
        sol1 = solve_cell_problem(base, ALPHA, cg)
        sol3 = solve_cell_problem(scaled, ALPHA, cg)
        assert np.max(np.abs(sol1.chi - sol3.chi)) < 1e-10
        c1 = compute_effective_coefficients(sol1, v)
        c3 = compute_effective_coefficients(sol3, v)
        assert c3.xi1 == pytest.approx(3.0 * c1.xi1, rel=1e-12)
        assert c3.xi2 == pytest.approx(3.0 * c1.xi2, rel=1e-10)
        assert c3.xi3 == pytest.approx(c1.xi3, rel=1e-10, abs=1e-15)

    def test_xi3_flips_with_potential_sign(self):
        # cosine_sum theta gives an odd corrector with frequency-1 content, so
        # the sine potential produces a genuinely nonzero xi3
        cg = CellGrid(m=64, m_tau=2)
        theta = get_theta("cosine_sum")
        sol = solve_cell_problem(theta, ALPHA, cg)
        v = get_v("sin2pi_y_one_plus_sin2pi_tau")
        neg = VSpec("neg", lambda y, tau: -v.sample(y, tau))
        c_pos = compute_effective_coefficients(sol, v)
        c_neg = compute_effective_coefficients(sol, neg)
        assert abs(c_pos.xi3) > 1e-3
        assert c_neg.xi3 == pytest.approx(-c_pos.xi3, rel=1e-12)
        assert c_neg.xi1 == c_pos.xi1
        assert c_neg.xi2 == c_pos.xi2

    def test_xi3_reads_the_tau_mean_of_v(self):
        """Xi_3 = 2 int chi V-bar with V-bar the tau mean of V: sin 2pi y cos 2pi tau
        has V-bar = 0 though its tau = 0 slice is sin 2pi y, and
        sin 2pi y (1 + sin 2pi tau) has the V-bar of sin 2pi y bit for bit.
        The steady value is pinned within 8 ulps: chi comes from the cell's
        LAPACK solve, whose last bits depend on the BLAS thread count (the
        literal is the 2-thread value; 1 thread reads 4 ulps from it)."""
        sol = solve_cell_problem(get_theta("cosine_sum"), ALPHA, CellGrid(m=128, m_tau=16))

        def xi3(fn):
            return compute_effective_coefficients(sol, VSpec("v", fn)).xi3

        def sine(y):
            return np.sin(2 * np.pi * y)

        assert abs(xi3(lambda y, tau: sine(y) * np.cos(2 * np.pi * tau))) < 1e-15
        steady = xi3(lambda y, tau: sine(y) + 0.0 * tau)
        pinned = -0.029595952238957536
        assert abs(steady - pinned) <= 8 * np.spacing(abs(pinned)), (
            f"Xi_3 = {steady!r} is {abs(steady - pinned) / np.spacing(abs(pinned)):g} ulps "
            f"from {pinned!r}; the BLAS thread count moves it by up to 4 ulps, the tau = 0 "
            "slice or a wrong chi by far more")
        assert xi3(lambda y, tau: sine(y) * (1.0 + np.sin(2 * np.pi * tau))) == steady

    def test_all_coefficients_active_and_drift_assembles(self):
        cg = CellGrid(m=64, m_tau=2)
        theta = get_theta("cosine_sum")
        sol = solve_cell_problem(theta, ALPHA, cg)
        coeffs = compute_effective_coefficients(sol, get_v("sin2pi_y_one_plus_sin2pi_tau"))
        assert coeffs.xi1 > 0.0 and coeffs.xi2 > 1e-3 and abs(coeffs.xi3) > 1e-3
        g = Grid1D.make(48)
        gen = assemble_effective_generator(coeffs, g, ALPHA)
        # the zeta terms need not be Hermitian; observed, not asserted elsewhere
        assert np.max(np.abs(gen - gen.T)) > 0.0
        assert np.all(np.isfinite(gen))

    @pytest.mark.parametrize("m", [64, 96, 128])
    def test_matches_tau_repeated_corrector_formulas(self, m):
        # the formulas in use when chi was stored as m_tau identical columns
        cg = CellGrid(m=m, m_tau=4)
        theta, v_spec = get_theta("cosine_sum"), get_v("sin2pi_y_one_plus_sin2pi_tau")
        sol = solve_cell_problem(theta, ALPHA, cg)
        coeffs = compute_effective_coefficients(sol, v_spec)
        chi_rep = np.repeat(sol.chi[:, None], cg.m_tau, axis=1)
        b = assemble_cell_rhs(theta, ALPHA, cg)
        v = v_spec.sample(cg.y[:, None], cg.tau[None, :])
        ref = (float(np.mean(b @ chi_rep)), 2.0 * float(np.mean(v * chi_rep)))
        for got, want in zip((coeffs.xi2, coeffs.xi3), ref):
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))

    def test_xi2_is_form_value_hence_nonnegative(self):
        cg = CellGrid(m=64, m_tau=1)
        theta = get_theta("cosine_product")
        sol = solve_cell_problem(theta, ALPHA, cg)
        coeffs = compute_effective_coefficients(sol, get_v("zero"))
        assert coeffs.xi2 >= 0.0

    def test_xi1_quadrature_refinement(self):
        theta = get_theta("cosine_product")
        vals = []
        for m in (64, 128):
            cg = CellGrid(m=m, m_tau=1)
            sol = solve_cell_problem(theta, ALPHA, cg)
            vals.append(compute_effective_coefficients(sol, get_v("zero")).xi1)
        assert vals[0] > 0.0  # positive coefficient integrates to a positive average
        assert abs(vals[0] - vals[1]) < 1e-8


    @pytest.mark.parametrize("m", [100, 1024])
    @pytest.mark.parametrize("name", [n for n in THETA_PRESETS if get_theta(n).constant is None])
    def test_xi1_block_sum_matches_one_shot_mean(self, name, m):
        # the cell solve sums its Theta sample in row blocks before the form
        # overwrites it; Xi_1 is that mean
        theta, cg = get_theta(name), CellGrid(m=m, m_tau=1)
        sol = solve_cell_problem(theta, ALPHA, cg)
        one_shot = float(np.mean(theta.sample(cg.y[:, None], cg.y[None, :])))
        assert sol.theta_mean == pytest.approx(one_shot, rel=1e-14, abs=0.0)
        assert compute_effective_coefficients(sol, get_v("zero")).xi1 == sol.theta_mean


class TestZeta:
    def test_zero_field(self, grid):
        assert np.max(np.abs(zeta_matrix(grid, ALPHA) @ np.zeros(grid.n))) == 0.0

    def test_even_field_gives_odd_zeta(self, grid):
        u = 1.0 - grid.nodes ** 2
        z = zeta_matrix(grid, ALPHA) @ u
        assert np.max(np.abs(z + z[::-1])) < 1e-12

    def test_matches_adaptive_quadrature(self, grid):
        u_fn = lambda z: 1.0 - z * z
        u = 1.0 - grid.nodes ** 2
        z = zeta_matrix(grid, ALPHA) @ u
        i = 37
        x = float(grid.nodes[i])

        def integrand(s):
            return -0.5 * (u_fn(x + s) - u_fn(x)) * gamma(x, x + s, ALPHA)

        val = 0.0
        for a, b in ((-1.0 - x, -1e-13), (1e-13, 1.0 - x)):
            piece, _ = integrate.quad(integrand, a, b, limit=400)
            val += piece
        assert z[i] == pytest.approx(val, rel=1e-4)

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_parabola_closed_form(self, alpha):
        """Z (1 - x^2) against the closed form ``zeta_of_parabola``."""
        (err, tol), (fine, _) = (effective.zeta_parabola_error(n, alpha) for n in (256, 1024))
        assert err <= tol
        # order per halving of h; n = 256 -> 1024 halves it twice
        assert np.log2(err / fine) / 2.0 >= 1.5


class TestRestrictedDivergence:
    def test_zero(self, grid):
        assert np.max(np.abs(restricted_divergence_matrix(grid, ALPHA) @ np.zeros(grid.n))) == 0.0

    def test_constant_field_closed_form(self, grid):
        out = restricted_divergence_matrix(grid, ALPHA) @ np.ones(grid.n)
        e1 = (1.0 - ALPHA) / 2.0
        closed = (4.0 / (1.0 - ALPHA)) * ((1.0 - grid.nodes) ** e1 - (1.0 + grid.nodes) ** e1)
        assert np.max(np.abs(out - closed)) < 1e-10

    def test_constant_field_quadrature_cross_check(self, grid):
        # independent principal-value evaluation: paired part cancels, the
        # one-sided leftover is a regular integral
        out = restricted_divergence_matrix(grid, ALPHA) @ np.ones(grid.n)
        i = 101
        x = float(grid.nodes[i])
        assert x > 0.0
        lo, hi = -1.0, 2.0 * x - 1.0
        val, _ = integrate.quad(lambda z: 2.0 * gamma(x, z, ALPHA), lo, hi, limit=200)
        assert out[i] == pytest.approx(val, rel=1e-6)

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_polynomial_fields_closed_form(self, alpha):
        """At n = 256 the tolerances are 1e-14 (R x) and 3e-5 (R x^2)."""
        for oracle in (effective.divergence_linear_error, effective.divergence_quadratic_error):
            err, tol = oracle(256, alpha)
            assert err <= tol

    def test_odd_field_gives_even_output(self, grid):
        out = restricted_divergence_matrix(grid, ALPHA) @ grid.nodes.copy()
        assert np.max(np.abs(out - out[::-1])) < 1e-10


class TestEffectiveGenerator:
    def test_unit_coefficients_reproduce_fractional_generator(self, grid):
        gen = assemble_effective_generator(EffectiveCoefficients.from_values(1.0),
                                           grid, ALPHA)
        frac = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=ALPHA, theta=get_theta("one")))
        assert np.max(np.abs(gen - frac)) < 1e-12

    def test_zero_coefficients_give_zero_matrix(self, grid):
        gen = assemble_effective_generator(EffectiveCoefficients.from_values(0.0),
                                           grid, ALPHA)
        assert np.max(np.abs(gen)) == 0.0

    def test_linear_in_xi1(self, grid):
        g1 = assemble_effective_generator(EffectiveCoefficients.from_values(1.0),
                                          grid, ALPHA)
        g2 = assemble_effective_generator(EffectiveCoefficients.from_values(2.0),
                                          grid, ALPHA)
        assert np.max(np.abs(g2 - 2.0 * g1)) == 0.0

    def test_full_pipeline_constant_theta(self, grid):
        cg = CellGrid(m=64, m_tau=2)
        sol = solve_cell_problem(get_theta("one"), ALPHA, cg)
        coeffs = compute_effective_coefficients(sol, get_v("cos2pi_y_times_cos2pi_tau"))
        gen = assemble_effective_generator(coeffs, grid, ALPHA)
        frac = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=ALPHA, theta=get_theta("one")))
        assert np.max(np.abs(gen - frac)) < 1e-8


def row_loop_kernel_matrix(n, alpha, endpoint):
    """Row-by-row product integration with per-interval moments from the
    floating-point nodes: the construction the offset build replaced."""
    grid = Grid1D.make(n)
    h, x = grid.h, grid.nodes
    xv = np.concatenate(([-1.0], x, [1.0]))
    p, q = xv[:-1], xv[1:]
    e1, e3 = (1.0 - alpha) / 2.0, (3.0 - alpha) / 2.0
    out = np.zeros((n, n))
    for i in range(n):
        with np.errstate(divide="ignore"):
            i0 = (2.0 / (1.0 - alpha)) * (np.abs(q - x[i]) ** e1 - np.abs(p - x[i]) ** e1)
        i1 = (2.0 / (3.0 - alpha)) * (np.sign(q - x[i]) * np.abs(q - x[i]) ** e3
                                      - np.sign(p - x[i]) * np.abs(p - x[i]) ** e3)
        i0[i:i + 2] = 0.0  # the two intervals touching x_i
        t = (x[i] - p) / h
        wv = np.zeros(n + 2)
        np.add.at(wv, np.arange(n + 1), (1.0 - t) * i0)
        np.add.at(wv, np.arange(1, n + 2), t * i0)
        wv[i + 1] -= i0.sum()
        np.add.at(wv, np.arange(1, n + 2), i1 / h)
        np.add.at(wv, np.arange(n + 1), -i1 / h)
        row = wv[1:-1].copy()
        if endpoint == "extrapolate":
            row[0] += 2.0 * wv[0]
            row[1] -= wv[0]
            row[-1] += 2.0 * wv[-1]
            row[-2] -= wv[-1]
        out[i] = row
    return out


def longdouble_kernel_matrix(n, alpha, endpoint):
    """The same per-interval formula in extended precision with exact offsets
    k h between node and interval ends, all rows at once."""
    ld = np.longdouble
    a, h = ld(alpha), ld(2) / ld(n + 1)
    k = (np.arange(n + 1)[None, :] - np.arange(n)[:, None] - 1).astype(ld)
    lo, hi = k * h, (k + 1) * h
    e1, e3 = (1 - a) / 2, (3 - a) / 2
    with np.errstate(divide="ignore"):
        i0 = (2 / (1 - a)) * (np.abs(hi) ** e1 - np.abs(lo) ** e1)
    i0[(k == -1) | (k == 0)] = 0
    i1 = (2 / (3 - a)) * (np.sign(hi) * np.abs(hi) ** e3 - np.sign(lo) * np.abs(lo) ** e3)
    wv = np.zeros((n, n + 2), dtype=ld)
    wv[:, :-1] += (1 + k) * i0 - i1 / h
    wv[:, 1:] += -k * i0 + i1 / h
    wv[np.arange(n), np.arange(1, n + 1)] -= i0.sum(axis=1)
    out = wv[:, 1:-1].copy()
    if endpoint == "extrapolate":
        out[:, 0] += 2 * wv[:, 0]
        out[:, 1] -= wv[:, 0]
        out[:, -1] += 2 * wv[:, -1]
        out[:, -2] -= wv[:, -1]
    return out


def zeta_and_divergence_from(kernel_matrix, n, alpha, dtype=float):
    """Z = -S_zero / 2 and R = 2 diag(PV mass) + S_extrapolate."""
    x = -1 + (2 / dtype(n + 1)) * np.arange(1, n + 1).astype(dtype)
    a = dtype(alpha)
    e1 = (1 - a) / 2
    pv = (2 / (1 - a)) * ((1 - x) ** e1 - (1 + x) ** e1)
    z = dtype(-0.5) * kernel_matrix(n, alpha, "zero")
    r = kernel_matrix(n, alpha, "extrapolate")
    r[np.arange(n), np.arange(n)] += 2 * pv
    return z, r


class TestOffsetBuild:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_as_accurate_as_row_loop_against_long_double(self, n, alpha):
        g = Grid1D.make(n)
        loops = zeta_and_divergence_from(row_loop_kernel_matrix, n, alpha)
        exact = zeta_and_divergence_from(longdouble_kernel_matrix, n, alpha, np.longdouble)
        built = (zeta_matrix(g, alpha), restricted_divergence_matrix(g, alpha))
        for new, loop, ref in zip(built, loops, exact):
            scale = float(np.max(np.abs(loop)))
            err_new = float(np.max(np.abs(new - ref))) / scale
            err_loop = float(np.max(np.abs(loop - ref))) / scale
            assert err_new <= 1.1 * err_loop + 1e-15

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_matches_row_loop(self, n, alpha):
        g = Grid1D.make(n)
        loops = zeta_and_divergence_from(row_loop_kernel_matrix, n, alpha)
        built = (zeta_matrix(g, alpha), restricted_divergence_matrix(g, alpha))
        for new, loop in zip(built, loops):
            assert np.max(np.abs(new - loop)) <= 1e-12 * np.max(np.abs(loop))

    def test_zeta_matrix_is_fresh_on_each_call(self):
        g = Grid1D.make(40)
        m, again = zeta_matrix(g, 1.5), zeta_matrix(g, 1.5)
        assert m is not again and not np.shares_memory(m, again)
        assert np.array_equal(m, again)
        before = m.copy()
        m *= 2.0
        assert np.array_equal(zeta_matrix(g, 1.5), before)


DESCRIBED = pytest.mark.parametrize("n", [2, 3, 4, 64, 257])
ALPHAS = pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])


class TestOffsetDescription:
    @DESCRIBED
    @ALPHAS
    def test_zero_offset_weight_is_exactly_zero(self, n, alpha):
        f = _offset_moments(n, alpha)[0]
        assert f.shape == (2 * n - 1,)
        assert f[n - 1] == 0.0

    @DESCRIBED
    @ALPHAS
    def test_zeta_is_the_expanded_description_bitwise(self, n, alpha):
        f, mass, _, _ = _offset_moments(n, alpha)
        expanded = -0.5 * (toeplitz(f[n - 1::-1], f[n - 1:]) - np.diag(mass))
        assert np.array_equal(expanded, zeta_matrix(Grid1D.make(n), alpha))

    @DESCRIBED
    @ALPHAS
    def test_restricted_divergence_is_fresh_and_unshared(self, n, alpha):
        g, coeffs = Grid1D.make(n), EffectiveCoefficients.from_values(1.1, 0.3, -0.2)
        gen = assemble_effective_generator(coeffs, g, alpha) if n >= 4 else None
        r = restricted_divergence_matrix(g, alpha)
        before = r.copy()
        assert restricted_divergence_matrix(g, alpha) is not r
        r *= 2.0
        assert np.array_equal(restricted_divergence_matrix(g, alpha), before)
        if gen is not None:
            assert np.array_equal(assemble_effective_generator(coeffs, g, alpha), gen)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @ALPHAS
    def test_colliding_endpoint_columns_match_row_loop(self, n, alpha):
        # below n = 4 the columns (0, 1, n-2, n-1) coincide and their shares add up
        _, loop = zeta_and_divergence_from(row_loop_kernel_matrix, n, alpha)
        r = restricted_divergence_matrix(Grid1D.make(n), alpha)
        assert np.max(np.abs(r - loop)) <= 1e-13 * np.max(np.abs(loop))


class TestStructuredProduct:
    XI = (1.1, 0.3, -0.2)

    @pytest.mark.parametrize("n", [4, 5, 64, 256, 1024])
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_matches_dense_product(self, n, alpha):
        err, tol = effective.dense_product_error(alpha, n)
        assert err <= tol

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_as_accurate_as_dense_product_against_long_double(self, n, alpha):
        # (Xi_1, Xi_2, Xi_3) = (0, -2, 0) gives R Z itself; all scalings are exact.
        # The first reference also carries the error of Z and R, which both
        # builds share; the second is the exact product of the same inputs.
        g = Grid1D.make(n)
        z, r = zeta_matrix(g, alpha), restricted_divergence_matrix(g, alpha)
        z_ld, r_ld = zeta_and_divergence_from(longdouble_kernel_matrix, n, alpha, np.longdouble)
        dense = r @ z
        built = assemble_effective_generator(EffectiveCoefficients.from_values(0.0, -2.0, 0.0),
                                             g, alpha)
        for exact in (r_ld @ z_ld, r.astype(np.longdouble) @ z.astype(np.longdouble)):
            scale = float(np.max(np.abs(exact)))
            err_built = float(np.max(np.abs(built - exact))) / scale
            err_dense = float(np.max(np.abs(dense - exact))) / scale
            assert err_built <= 1.1 * err_dense + 1e-15

    @pytest.mark.parametrize("n", [4, 64, 257])
    @pytest.mark.parametrize("xi1", [1.0, 1.1, 0.7])
    def test_xi1_only_is_scaled_generator_bitwise(self, n, xi1):
        g = Grid1D.make(n)
        lap = assemble_heterogeneous_generator(g, KernelParams(alpha=ALPHA, theta=get_theta("one")))
        built = assemble_effective_generator(EffectiveCoefficients.from_values(xi1), g, ALPHA)
        assert np.array_equal(built, xi1 * lap)

    @pytest.mark.parametrize("n", [4, 5, 64, 257])
    def test_toeplitz_square_matches_dense(self, n):
        rng = np.random.default_rng(n)
        col, row = rng.standard_normal(n), rng.standard_normal(n)
        row[0] = col[0]
        t = toeplitz(col, row)
        want = t @ t
        got = np.vstack([b for _, b in _toeplitz_square_rows(col, row, row @ t, t @ col)])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_allocation_peak_has_no_dense_temporary(self):
        # G_eff is built in L's buffer, the only n x n array, with no dense Z
        n, g = 512, Grid1D.make(512)
        coeffs = EffectiveCoefficients.from_values(*self.XI)
        tracemalloc.start()
        try:
            assemble_effective_generator(coeffs, g, ALPHA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8

    def test_fractional_generator_allocates_only_its_output(self):
        # for Theta == 1 the pair weights are a Toeplitz view of 2n - 1 values:
        # the row sums read it and -W / h is written straight into the output
        n, g = 512, Grid1D.make(512)
        params = KernelParams(alpha=ALPHA, theta=get_theta("one"))
        tracemalloc.start()
        try:
            assemble_heterogeneous_generator(g, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * n * n * 8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_too_few_nodes_rejected_with_value_error(self, n):
        # the four endpoint columns of E collide below n = 4
        with pytest.raises(ValueError, match="at least 4 interior nodes"):
            assemble_effective_generator(EffectiveCoefficients.from_values(*self.XI),
                                         Grid1D.make(n), ALPHA)

    def test_extrapolation_needs_two_nodes(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            restricted_divergence_matrix(Grid1D.make(1), ALPHA)
        assert restricted_divergence_matrix(Grid1D.make(2), ALPHA).shape == (2, 2)


class TestCorrectorRightHandSide:
    def test_xi2_uses_the_solved_rhs_bit_for_bit(self):
        cg = CellGrid(m=64, m_tau=2)
        theta = get_theta("cosine_sum")
        sol = solve_cell_problem(theta, ALPHA, cg)
        b = assemble_cell_rhs(theta, ALPHA, cg)
        assert np.array_equal(sol.rhs, b)
        coeffs = compute_effective_coefficients(sol, get_v("zero"))
        assert coeffs.xi2 == float(b @ sol.chi)


def test_package_exports_resolve():
    import nshom

    missing = [name for name in nshom.__all__ if not hasattr(nshom, name)]
    assert missing == []
