"""Cell-problem tests: periodized weights, form structure, corrector solves,
and the spectral periodic Poisson solver."""

import numpy as np
import pytest
from scipy import integrate

from nshom import cell, kernel
from nshom.cell import (
    CellGrid,
    assemble_cell_form,
    assemble_cell_rhs,
    apply_periodic_generator,
    fractional_symbol_factor,
    form_eigenvalues,
    periodic_symbol,
    periodized_kernel_weight,
    poisson_residual,
    solve_cell_problem,
    solve_periodic_poisson,
)
from nshom.presets import VSpec, get_theta, get_v

ALPHA = 1.5
V_PRESET_NAMES = ["cos2pi_y", "cos2pi_y_times_cos2pi_tau", "sin2pi_y_one_plus_sin2pi_tau"]


SYMBOL_ALPHAS = [1.001, 1.01, 1.1, 1.25, 1.5, 1.75, 1.9, 1.99, 1.999]


def symbol_by_quadrature(alpha: float) -> float:
    """I_alpha = 2 int_0^inf (1 - cos t) t^{-1-alpha} dt by adaptive quadrature.

    The nearly non-integrable t^{1-alpha} part at the origin is peeled off
    analytically (1 - cos t = t^2/2 - remainder with remainder ~ t^4/24), and
    the tail beyond pi uses a cosine-weighted rule, so quad only sees smooth
    integrands.
    """
    lead = np.pi ** (2.0 - alpha) / (2.0 * (2.0 - alpha))
    rem, _ = integrate.quad(
        lambda t: (0.5 * t * t - (1.0 - np.cos(t))) * t ** (-1.0 - alpha),
        0.0, np.pi, limit=200)
    osc, _ = integrate.quad(lambda t: t ** (-1.0 - alpha), np.pi, np.inf,
                            weight="cos", wvar=1.0, limit=200)
    far = np.pi ** (-alpha) / alpha - osc
    return 2.0 * (lead - rem + far)


class TestPeriodizedWeight:
    def test_symmetry(self):
        assert periodized_kernel_weight(0.2, 0.7, ALPHA, 8) == pytest.approx(
            periodized_kernel_weight(0.7, 0.2, ALPHA, 8), rel=1e-15)

    def test_translation_invariance(self):
        a = periodized_kernel_weight(0.15, 0.6, ALPHA, 8)
        b = periodized_kernel_weight(0.15 + 0.3, 0.6 + 0.3, ALPHA, 8)
        assert a == pytest.approx(b, rel=1e-12)

    def test_truncation_difference_below_tail_bound(self):
        k8 = periodized_kernel_weight(0.5, 0.0, ALPHA, 8)
        k16 = periodized_kernel_weight(0.5, 0.0, ALPHA, 16)
        tail_bound_at_8 = 2.0 * 8.5 ** (-ALPHA) / ALPHA
        assert abs(k16 - k8) < tail_bound_at_8

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            periodized_kernel_weight(0.25, 1.25, ALPHA, 8)


class TestCellForm:
    @pytest.mark.parametrize("theta_name", ["one", "cosine_product"])
    @pytest.mark.parametrize("mode", ["periodized", "cell_truncated"])
    @pytest.mark.parametrize("alpha", [1.05, ALPHA, 1.95])
    def test_symmetry_psd_constants_in_kernel(self, theta_name, mode, alpha):
        grid = CellGrid(m=64, m_tau=1, kernel_mode=mode)
        a = assemble_cell_form(get_theta(theta_name), alpha, grid)
        assert np.max(np.abs(a - a.T)) < 1e-12
        assert np.max(np.abs(a.sum(axis=1))) < 1e-10
        lam0, lam1, lam_max = form_eigenvalues(a)
        assert lam0 >= -1e-10 * lam_max
        assert lam0 < 1e-12 * lam_max  # constants: exactly one near-zero eigenvalue
        assert lam1 > 1e-6 * lam_max   # coercive on the mean-zero subspace

    def test_coercivity_stable_under_refinement(self):
        vals = []
        for m in (64, 128):
            a = assemble_cell_form(get_theta("cosine_product"), ALPHA, CellGrid(m=m))
            _, lam1, _ = form_eigenvalues(a)
            vals.append(lam1 * m)  # eigenvalue scales like 1/m at fixed form
        assert abs(vals[1] / vals[0] - 1.0) < 0.10

    def test_fourier_modes_diagonalize_constant_coefficient(self):
        grid = CellGrid(m=64, m_tau=1)
        a = assemble_cell_form(get_theta("one"), ALPHA, grid)
        y = grid.y
        modes = [np.cos(2 * np.pi * k * y) for k in (1, 2, 3)]
        modes += [np.sin(2 * np.pi * k * y) for k in (1, 2)]
        diag = [m_ @ a @ m_ for m_ in modes]
        for i, mi in enumerate(modes):
            for j, mj in enumerate(modes):
                if i == j:
                    continue
                cross = abs(mi @ a @ mj)
                assert cross <= 1e-8 * min(diag[i], diag[j])

    def test_form_value_consistency_order(self):
        # against the whole-line symbol: a(cos_k, cos_k) -> mu_k
        mu = lambda k: fractional_symbol_factor(ALPHA) * (2 * np.pi * k) ** ALPHA
        errs = []
        for m in (64, 128, 256):
            grid = CellGrid(m=m, m_tau=1)
            a = assemble_cell_form(get_theta("one"), ALPHA, grid)
            y = grid.y
            rel = [abs(np.cos(2 * np.pi * k * y) @ a @ np.cos(2 * np.pi * k * y) - mu(k)) / mu(k)
                   for k in (1, 2)]
            errs.append(max(rel))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.0), f"observed orders {orders}"

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(ValueError):
            assemble_cell_form(get_theta("scaled", base="one", factor=-1.0),
                               ALPHA, CellGrid(m=32))


class TestCellRhs:
    def test_vanishes_for_constant_theta_periodized(self):
        b = assemble_cell_rhs(get_theta("one"), ALPHA, CellGrid(m=128))
        assert np.max(np.abs(b)) < 1e-13

    def test_nonzero_for_constant_theta_truncated(self):
        b = assemble_cell_rhs(get_theta("one"), ALPHA,
                              CellGrid(m=128, kernel_mode="cell_truncated"))
        assert np.max(np.abs(b)) > 1e-3

    def test_nonzero_for_varying_theta(self):
        b = assemble_cell_rhs(get_theta("cosine_product"), ALPHA, CellGrid(m=128))
        assert np.max(np.abs(b)) > 1e-6


class TestCorrectorSolve:
    def test_constant_theta_gives_zero_corrector(self):
        sol = solve_cell_problem(get_theta("one"), ALPHA, CellGrid(m=128, m_tau=4))
        assert np.linalg.norm(sol.chi) < 1e-10

    def test_mean_zero_every_slice(self):
        sol = solve_cell_problem(get_theta("cosine_product"), ALPHA,
                                 CellGrid(m=96, m_tau=3))
        assert sol.mean_abs < 1e-14

    @pytest.mark.parametrize("m_tau", [1, 3, 16])
    def test_corrector_is_one_vector_for_any_tau_grid(self, m_tau):
        sol = solve_cell_problem(get_theta("cosine_sum"), ALPHA, CellGrid(m=64, m_tau=m_tau))
        assert sol.chi.shape == (64,)

    def test_one_bordered_solve_for_all_slices(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counting(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(cell.np.linalg, "solve", counting)
        solve_cell_problem(get_theta("cosine_sum"), ALPHA, CellGrid(m=64, m_tau=4))
        assert calls == [(65, 65)]

    @pytest.mark.parametrize("theta_name", ["cosine_product", "cosine_sum"])
    @pytest.mark.parametrize("mode", ["periodized", "cell_truncated"])
    def test_matches_per_slice_bordered_loop(self, theta_name, mode):
        # independent reference: the bordered Lagrange system written out and
        # solved once (chi has no tau slices), then centered
        grid = CellGrid(m=64, m_tau=3, kernel_mode=mode)
        theta = get_theta(theta_name)
        a = assemble_cell_form(theta, ALPHA, grid)
        b = assemble_cell_rhs(theta, ALPHA, grid)
        m = grid.m
        bordered = np.zeros((m + 1, m + 1))
        bordered[:m, :m] = a
        bordered[:m, m] = 1.0
        bordered[m, :m] = 1.0
        rhs = np.concatenate([b, [0.0]])
        ref = np.linalg.solve(bordered, rhs)[:m]
        ref = ref - ref.mean()
        sol = solve_cell_problem(theta, ALPHA, grid)
        assert np.array_equal(sol.chi, ref)
        assert sol.chi.shape == (m,)
        assert sol.chi.flags.writeable and sol.chi.flags.c_contiguous

    def test_manufactured_solution_recovery(self):
        grid = CellGrid(m=256, m_tau=1)
        a = assemble_cell_form(get_theta("cosine_product"), ALPHA, grid)
        y = grid.y
        chi_star = np.cos(2 * np.pi * y) - 0.5 * np.sin(4 * np.pi * y)
        chi_star -= chi_star.mean()
        b_star = a @ chi_star
        m = grid.m
        bordered = np.zeros((m + 1, m + 1))
        bordered[:m, :m] = a
        bordered[:m, m] = 1.0
        bordered[m, :m] = 1.0
        sol = np.linalg.solve(bordered, np.concatenate([b_star, [0.0]]))
        rel = np.linalg.norm(sol[:m] - chi_star) / np.linalg.norm(chi_star)
        assert rel < 1e-6

    def test_truncated_mode_produces_nontrivial_corrector(self):
        sol = solve_cell_problem(get_theta("one"), ALPHA,
                                 CellGrid(m=64, kernel_mode="cell_truncated"))
        assert np.linalg.norm(sol.chi) > 1e-4


class TestPeriodicPoisson:
    @pytest.mark.parametrize("alpha", SYMBOL_ALPHAS)
    def test_symbol_matches_mpmath(self, alpha):
        # the cosine form, evaluated at 40 digits, where its cancellation near
        # alpha = 1 does not reach double precision
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            a = mp.mpf(alpha)
            exact = -2 * mp.gamma(-a) * mp.cos(mp.pi * a / 2)
            rel = abs((fractional_symbol_factor(alpha) - exact) / exact)
        assert float(rel) < 2e-15

    @pytest.mark.parametrize("alpha", SYMBOL_ALPHAS)
    def test_symbol_matches_quadrature(self, alpha):
        assert fractional_symbol_factor(alpha) == pytest.approx(
            symbol_by_quadrature(alpha), rel=1e-9)

    def test_zero_potential_gives_zero(self):
        xi = solve_periodic_poisson(get_v("zero"), ALPHA, CellGrid(m=32, m_tau=2))
        assert np.max(np.abs(xi)) == 0.0

    def test_single_mode_closed_form(self):
        grid = CellGrid(m=128, m_tau=1)
        xi = solve_periodic_poisson(get_v("cos2pi_y"), ALPHA, grid)
        mu1 = fractional_symbol_factor(ALPHA) * (2 * np.pi) ** ALPHA
        expected = np.cos(2 * np.pi * grid.y) / (2.0 * mu1)
        assert np.max(np.abs(xi[:, 0] - expected)) < 1e-14

    def test_linearity(self):
        grid = CellGrid(m=64, m_tau=2)
        v1, v2 = get_v("cos2pi_y"), get_v("sin2pi_y_one_plus_sin2pi_tau")
        combo = VSpec("combo", lambda y, tau: 2.0 * v1.sample(y, tau) - 0.5 * v2.sample(y, tau))
        lhs = solve_periodic_poisson(combo, ALPHA, grid)
        rhs = (2.0 * solve_periodic_poisson(v1, ALPHA, grid)
               - 0.5 * solve_periodic_poisson(v2, ALPHA, grid))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("name", V_PRESET_NAMES)
    def test_residual_below_tolerance(self, name):
        grid = CellGrid(m=128, m_tau=8)
        v = get_v(name)
        xi = solve_periodic_poisson(v, ALPHA, grid)
        assert poisson_residual(xi, v, ALPHA, grid) < 1e-8

    def test_nonzero_mean_rejected(self):
        with pytest.raises(ValueError, match="mean"):
            solve_periodic_poisson(get_v("one_plus_cos"), ALPHA, CellGrid(m=32))

    def test_generator_application_matches_symbol(self):
        grid = CellGrid(m=64, m_tau=1)
        y = grid.y
        for k in (1, 3):
            mode = np.cos(2 * np.pi * k * y)
            out = apply_periodic_generator(mode, ALPHA)
            sym = periodic_symbol(np.array([k]), ALPHA)[0]
            assert np.max(np.abs(out - sym * mode)) < 1e-10 * sym


def loop_even_offset_weights(m, alpha, n_images):
    """Periodized even weights offset by offset, mirrored."""
    h = 1.0 / m
    w = np.zeros(m)
    kk = np.arange(-n_images, n_images + 1)
    for delta in range(1, m // 2 + 1):
        d0 = delta * h
        val = float(np.sum(kernel.pair_weights_even(d0 + kk, h, alpha)))
        val += h * h * ((n_images + 0.5 + d0) ** (-alpha)
                        + (n_images + 0.5 - d0) ** (-alpha)) / alpha
        w[delta] = val
        w[m - delta] = val
    return w


def loop_odd_offset_weights(m, alpha, n_images):
    """Periodized odd weights offset by offset, mirrored with opposite sign."""
    h = 1.0 / m
    w = np.zeros(m)
    p = (1.0 + alpha) / 2.0
    kk = np.arange(-n_images, n_images + 1)
    kk = kk[kk != 0]
    for delta in range(1, m // 2 + 1):
        if 2 * delta == m:
            continue
        d0 = delta * h
        val = float(cell._q_odd_near(np.array([d0]), h, alpha)[0])
        val += float(np.sum(cell._q_odd_far(d0 + kk, h, alpha)))
        val += h * h * ((n_images + 0.5 - d0) ** (1.0 - p)
                        - (n_images + 0.5 + d0) ** (1.0 - p)) / (1.0 - p)
        w[delta] = val
        w[m - delta] = -val
    return w


def index_offset_matrix(w, mode, odd=False):
    """W[j, l] = w[offset of l - j] by fancy indexing; odd cell_truncated
    weights change sign below the diagonal."""
    m = w.size
    d = np.arange(m)[None, :] - np.arange(m)[:, None]
    if mode == "periodized":
        return w[d % m]
    return (np.sign(d) if odd else 1.0) * w[np.abs(d)]


def dense_same_cell_form(theta, alpha, grid):
    """The cell form with its same-cell term as the dense product (P^T * Theta) @ P."""
    m, h = grid.m, 1.0 / grid.m
    mode = grid.kernel_mode
    w = index_offset_matrix(cell._even_offset_weights(m, alpha, grid.n_images, mode), mode)
    weights, theta_diag = kernel._theta_matrix(theta, grid.y)
    w *= weights
    i = np.arange(m)
    p = np.zeros((m, m))
    p[i, (i + 1) % m] = 1.0 / (2.0 * h)
    p[i, (i - 1) % m] = -1.0 / (2.0 * h)
    c = kernel.same_cell_coeff(h, alpha) * (p.T * theta_diag) @ p
    a = 2.0 * (np.diag(w.sum(axis=1)) - w) + c
    return 0.5 * (a + a.T)


class TestVectorizedOffsetWeights:
    @pytest.mark.parametrize("m", [64, 65, 1024])
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_periodized_weights_match_offset_loop_bitwise(self, m, alpha):
        even = cell._even_offset_weights(m, alpha, 8, "periodized")
        odd = cell._odd_offset_weights(m, alpha, 8, "periodized")
        assert even.tobytes() == loop_even_offset_weights(m, alpha, 8).tobytes()
        assert odd.tobytes() == loop_odd_offset_weights(m, alpha, 8).tobytes()
        d = np.arange(1, m)
        assert np.array_equal(even[m - d], even[d])
        assert np.array_equal(odd[m - d], -odd[d])

    @pytest.mark.parametrize("mode", ["periodized", "cell_truncated"])
    @pytest.mark.parametrize("theta_name", ["one", "cosine_sum"])
    def test_form_matches_dense_same_cell_product(self, mode, theta_name):
        grid = CellGrid(m=1024, kernel_mode=mode)
        theta = get_theta(theta_name)
        ref = dense_same_cell_form(theta, ALPHA, grid)
        got = assemble_cell_form(theta, ALPHA, grid)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


THETA_NAMES = ["one", "cosine_product", "cosine_shift", "cosine_sum"]


class TestToeplitzExpansion:
    @pytest.mark.parametrize("m", [8, 9, 64, 65])
    @pytest.mark.parametrize("mode", ["periodized", "cell_truncated"])
    @pytest.mark.parametrize("theta_name", THETA_NAMES)
    def test_form_is_exactly_symmetric(self, m, mode, theta_name):
        a = assemble_cell_form(get_theta(theta_name), ALPHA, CellGrid(m=m, kernel_mode=mode))
        assert np.array_equal(a, a.T)

    @pytest.mark.parametrize("m", [8, 9, 64, 65])
    @pytest.mark.parametrize("mode", ["periodized", "cell_truncated"])
    @pytest.mark.parametrize("theta_name", ["one", "cosine_sum"])
    def test_rhs_matches_index_expansion_bitwise(self, m, mode, theta_name):
        grid, h = CellGrid(m=m, kernel_mode=mode), 1.0 / m
        theta = get_theta(theta_name)
        w1 = index_offset_matrix(cell._odd_offset_weights(m, ALPHA, grid.n_images, mode),
                                 mode, odd=True)
        weights, theta_diag = kernel._theta_matrix(theta, grid.y)
        ref = 2.0 * np.sum(w1 * weights, axis=1)
        ref += cell._psi_even(h, ALPHA) / h * (np.roll(theta_diag, -1) - np.roll(theta_diag, 1))
        assert np.array_equal(assemble_cell_rhs(theta, ALPHA, grid), ref)


class TestCellGrid:
    def test_kernel_mode_checked_by_the_grid(self):
        assert CellGrid(m=8).kernel_mode == "periodized"
        assert cell.KERNEL_MODES == ("periodized", "cell_truncated")
        with pytest.raises(ValueError, match="kernel_mode"):
            CellGrid(m=8, kernel_mode="bogus")

    def test_solution_carries_its_inputs(self):
        theta = get_theta("cosine_sum")
        grid = CellGrid(m=32, m_tau=2, kernel_mode="cell_truncated")
        sol = solve_cell_problem(theta, ALPHA, grid)
        assert sol.theta is theta and sol.grid is grid and sol.alpha == ALPHA
        assert sol.residual < 1e-8
