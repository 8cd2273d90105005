"""Effective coefficients, zeta field, restricted divergence, and drift assembly."""

import numpy as np
import pytest
from scipy import integrate

from nshom.cell import CellGrid, solve_cell_problem
from nshom.effective import (
    EffectiveCoefficients,
    apply_restricted_divergence,
    assemble_effective_generator,
    compute_effective_coefficients,
    compute_zeta,
    restricted_divergence_matrix,
    zeta_matrix,
)
from nshom.kernel import Grid1D, KernelParams, assemble_heterogeneous_generator, gamma
from nshom.presets import VSpec, get_theta, get_v

ALPHA = 1.5


@pytest.fixture(scope="module")
def grid():
    return Grid1D.make(128)


class TestCoefficients:
    def test_constant_theta_values(self):
        cg = CellGrid(m=96, m_tau=4)
        sol = solve_cell_problem(get_theta("one"), ALPHA, cg)
        coeffs = compute_effective_coefficients(
            get_theta("one"), get_v("cos2pi_y_times_cos2pi_tau"), sol, ALPHA, cg)
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
        c1 = compute_effective_coefficients(base, v, sol1, ALPHA, cg)
        c3 = compute_effective_coefficients(scaled, v, sol3, ALPHA, cg)
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
        c_pos = compute_effective_coefficients(theta, v, sol, ALPHA, cg)
        c_neg = compute_effective_coefficients(theta, neg, sol, ALPHA, cg)
        assert abs(c_pos.xi3) > 1e-3
        assert c_neg.xi3 == pytest.approx(-c_pos.xi3, rel=1e-12)
        assert c_neg.xi1 == c_pos.xi1
        assert c_neg.xi2 == c_pos.xi2

    def test_all_coefficients_active_and_drift_assembles(self):
        cg = CellGrid(m=64, m_tau=2)
        theta = get_theta("cosine_sum")
        sol = solve_cell_problem(theta, ALPHA, cg)
        coeffs = compute_effective_coefficients(
            theta, get_v("sin2pi_y_one_plus_sin2pi_tau"), sol, ALPHA, cg)
        assert coeffs.xi1 > 0.0 and coeffs.xi2 > 1e-3 and abs(coeffs.xi3) > 1e-3
        g = Grid1D.make(48)
        gen = assemble_effective_generator(coeffs, g, ALPHA)
        # the zeta terms need not be Hermitian; observed, not asserted elsewhere
        assert np.max(np.abs(gen.entries - gen.entries.T)) > 0.0
        assert np.all(np.isfinite(gen.entries))

    def test_xi2_is_form_value_hence_nonnegative(self):
        cg = CellGrid(m=64, m_tau=1)
        theta = get_theta("cosine_product")
        sol = solve_cell_problem(theta, ALPHA, cg)
        coeffs = compute_effective_coefficients(theta, get_v("zero"), sol, ALPHA, cg)
        assert coeffs.xi2 >= 0.0

    def test_grid_mismatch_rejected(self):
        cg = CellGrid(m=64, m_tau=2)
        sol = solve_cell_problem(get_theta("one"), ALPHA, cg)
        with pytest.raises(ValueError, match="grid"):
            compute_effective_coefficients(get_theta("one"), get_v("zero"), sol,
                                           ALPHA, CellGrid(m=96, m_tau=2))

    def test_xi1_quadrature_refinement(self):
        theta = get_theta("cosine_product")
        vals = []
        for m in (64, 128):
            cg = CellGrid(m=m, m_tau=1)
            sol = solve_cell_problem(theta, ALPHA, cg)
            vals.append(compute_effective_coefficients(theta, get_v("zero"), sol,
                                                       ALPHA, cg).xi1)
        assert vals[0] > 0.0  # positive coefficient integrates to a positive average
        assert abs(vals[0] - vals[1]) < 1e-8


class TestZeta:
    def test_zero_field(self, grid):
        assert np.max(np.abs(compute_zeta(np.zeros(grid.n), grid, ALPHA))) == 0.0

    def test_even_field_gives_odd_zeta(self, grid):
        u = 1.0 - grid.nodes ** 2
        z = compute_zeta(u, grid, ALPHA)
        assert np.max(np.abs(z + z[::-1])) < 1e-12

    def test_linearity_via_matrix(self, grid):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        zmat = zeta_matrix(grid, ALPHA)
        direct = compute_zeta(2.0 * u - 1j * v, grid, ALPHA)
        assert np.max(np.abs(direct - (2.0 * zmat @ u - 1j * zmat @ v))) < 1e-12

    def test_matches_adaptive_quadrature(self, grid):
        u_fn = lambda z: 1.0 - z * z
        u = 1.0 - grid.nodes ** 2
        z = compute_zeta(u, grid, ALPHA)
        i = 37
        x = float(grid.nodes[i])

        def integrand(s):
            return -0.5 * (u_fn(x + s) - u_fn(x)) * gamma(x, x + s, ALPHA)

        val = 0.0
        for a, b in ((-1.0 - x, -1e-13), (1e-13, 1.0 - x)):
            piece, _ = integrate.quad(integrand, a, b, limit=400)
            val += piece
        assert z[i] == pytest.approx(val, rel=1e-4)


class TestRestrictedDivergence:
    def test_zero(self, grid):
        assert np.max(np.abs(apply_restricted_divergence(np.zeros(grid.n), grid, ALPHA))) == 0.0

    def test_constant_field_closed_form(self, grid):
        out = apply_restricted_divergence(np.ones(grid.n), grid, ALPHA)
        e1 = (1.0 - ALPHA) / 2.0
        closed = (4.0 / (1.0 - ALPHA)) * ((1.0 - grid.nodes) ** e1 - (1.0 + grid.nodes) ** e1)
        assert np.max(np.abs(out - closed)) < 1e-10

    def test_constant_field_quadrature_cross_check(self, grid):
        # independent principal-value evaluation: paired part cancels, the
        # one-sided leftover is a regular integral
        out = apply_restricted_divergence(np.ones(grid.n), grid, ALPHA)
        i = 101
        x = float(grid.nodes[i])
        assert x > 0.0
        lo, hi = -1.0, 2.0 * x - 1.0
        val, _ = integrate.quad(lambda z: 2.0 * gamma(x, z, ALPHA), lo, hi, limit=200)
        assert out[i] == pytest.approx(val, rel=1e-6)

    def test_odd_field_gives_even_output(self, grid):
        out = apply_restricted_divergence(grid.nodes.copy(), grid, ALPHA)
        assert np.max(np.abs(out - out[::-1])) < 1e-10

    def test_linearity_via_matrix(self, grid):
        rng = np.random.default_rng(4)
        z1 = rng.standard_normal(grid.n)
        z2 = rng.standard_normal(grid.n)
        rmat = restricted_divergence_matrix(grid, ALPHA)
        direct = apply_restricted_divergence(0.3 * z1 + 2.0 * z2, grid, ALPHA)
        assert np.max(np.abs(direct - (0.3 * rmat @ z1 + 2.0 * rmat @ z2))) < 1e-12


class TestEffectiveGenerator:
    def test_unit_coefficients_reproduce_fractional_generator(self, grid):
        gen = assemble_effective_generator(EffectiveCoefficients.from_values(1.0),
                                           grid, ALPHA)
        frac = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=ALPHA, theta=get_theta("one")))
        assert np.max(np.abs(gen.entries - frac.entries)) < 1e-12
        assert gen.kind == "effective_drift"

    def test_zero_coefficients_give_zero_matrix(self, grid):
        gen = assemble_effective_generator(EffectiveCoefficients.from_values(0.0),
                                           grid, ALPHA)
        assert np.max(np.abs(gen.entries)) == 0.0

    def test_linear_in_xi1(self, grid):
        g1 = assemble_effective_generator(EffectiveCoefficients.from_values(1.0),
                                          grid, ALPHA)
        g2 = assemble_effective_generator(EffectiveCoefficients.from_values(2.0),
                                          grid, ALPHA)
        assert np.max(np.abs(g2.entries - 2.0 * g1.entries)) == 0.0

    def test_full_pipeline_constant_theta(self, grid):
        cg = CellGrid(m=64, m_tau=2)
        sol = solve_cell_problem(get_theta("one"), ALPHA, cg)
        coeffs = compute_effective_coefficients(
            get_theta("one"), get_v("cos2pi_y_times_cos2pi_tau"), sol, ALPHA, cg)
        gen = assemble_effective_generator(coeffs, grid, ALPHA)
        frac = assemble_heterogeneous_generator(
            grid, KernelParams(alpha=ALPHA, theta=get_theta("one")))
        assert np.max(np.abs(gen.entries - frac.entries)) < 1e-8

    def test_size_mismatch_rejected(self, grid):
        frac = assemble_heterogeneous_generator(
            Grid1D.make(64), KernelParams(alpha=ALPHA, theta=get_theta("one")))
        with pytest.raises(ValueError, match="size"):
            assemble_effective_generator(EffectiveCoefficients.from_values(1.0),
                                         grid, ALPHA, frac_matrix=frac)
