"""Cell-problem tests: form structure, corrector solves,
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
    solve_cell_problem,
    solve_periodic_poisson,
)
from nshom.effective import compute_effective_coefficients
from nshom.presets import ThetaSpec, VSpec, get_theta, get_v

ALPHA = 1.5


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


class TestCellForm:
    @pytest.mark.parametrize("theta_name", ["one", "cosine_product"])
    @pytest.mark.parametrize("alpha", [1.05, ALPHA, 1.95])
    def test_symmetry_psd_constants_in_kernel(self, theta_name, alpha):
        grid = CellGrid(m=64, m_tau=1)
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

    def test_nonzero_for_varying_theta(self):
        b = assemble_cell_rhs(get_theta("cosine_product"), ALPHA, CellGrid(m=128))
        assert np.max(np.abs(b)) > 1e-6


class TestCorrectorSolve:
    def test_constant_theta_gives_zero_corrector(self):
        err, tol = cell.constant_corrector_error(ALPHA, m=128)
        assert err <= tol

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
    def test_matches_per_slice_bordered_loop(self, theta_name):
        # independent reference: the bordered Lagrange system written out and
        # solved once (chi has no tau slices), then centered
        grid = CellGrid(m=64, m_tau=3)
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

    def test_singular_bordered_system_raises_cell_solve_error(self):
        with pytest.raises(cell.CellSolveError,
                           match="^constrained cell solve failed: Singular matrix$"):
            cell.solve_bordered(np.zeros((8, 8)), np.ones(8))

    def test_manufactured_solution_recovery(self):
        err, tol = cell.manufactured_corrector_error(ALPHA, m=256)
        assert err <= tol


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

    @pytest.mark.parametrize("name", cell.POISSON_POTENTIALS)
    def test_residual_below_tolerance(self, name):
        err, tol = cell.poisson_residual_error(ALPHA, m=128, m_tau=8, potentials=(name,))
        assert err <= tol

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


def index_offset_matrix(w):
    """W[j, l] = w[(l - j) mod m] by fancy indexing."""
    m = w.size
    return w[(np.arange(m)[None, :] - np.arange(m)[:, None]) % m]


def dense_same_cell_form(theta, alpha, grid):
    """The cell form with its same-cell term as the dense product (P^T * Theta) @ P."""
    m, h = grid.m, 1.0 / grid.m
    w = index_offset_matrix(cell._even_offset_weights(m, alpha, grid.n_images))
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
        even = cell._even_offset_weights(m, alpha, 8)
        odd = cell._odd_offset_weights(m, alpha, 8)
        assert even.tobytes() == loop_even_offset_weights(m, alpha, 8).tobytes()
        assert odd.tobytes() == loop_odd_offset_weights(m, alpha, 8).tobytes()
        d = np.arange(1, m)
        assert np.array_equal(even[m - d], even[d])
        assert np.array_equal(odd[m - d], -odd[d])

    @pytest.mark.parametrize("theta_name", ["one", "cosine_sum"])
    def test_form_matches_dense_same_cell_product(self, theta_name):
        grid = CellGrid(m=1024)
        theta = get_theta(theta_name)
        ref = dense_same_cell_form(theta, ALPHA, grid)
        got = assemble_cell_form(theta, ALPHA, grid)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


THETA_NAMES = ["one", "cosine_product", "cosine_shift", "cosine_sum"]


class TestToeplitzExpansion:
    @pytest.mark.parametrize("m", [8, 9, 64, 65])
    @pytest.mark.parametrize("theta_name", THETA_NAMES)
    def test_form_is_exactly_symmetric(self, m, theta_name):
        a = assemble_cell_form(get_theta(theta_name), ALPHA, CellGrid(m=m))
        assert np.array_equal(a, a.T)

    @pytest.mark.parametrize("m", [8, 9, 64, 65])
    @pytest.mark.parametrize("theta_name", ["one", "cosine_sum"])
    def test_rhs_matches_index_expansion_bitwise(self, m, theta_name):
        grid, h = CellGrid(m=m), 1.0 / m
        theta = get_theta(theta_name)
        w1 = index_offset_matrix(cell._odd_offset_weights(m, ALPHA, grid.n_images))
        weights, theta_diag = kernel._theta_matrix(theta, grid.y)
        ref = 2.0 * np.sum(w1 * weights, axis=1)
        ref += cell._psi_even(h, ALPHA) / h * (np.roll(theta_diag, -1) - np.roll(theta_diag, 1))
        assert np.array_equal(assemble_cell_rhs(theta, ALPHA, grid), ref)


def remapped(theta, v, node_map):
    """Theta and V composed with the affine cell map y -> node_map(y)."""
    return (ThetaSpec(f"{theta.name}_mapped", lambda y, eta: theta.sample(node_map(y), node_map(eta)),
                      lower=theta.lower, upper=theta.upper),
            VSpec(f"{v.name}_mapped", lambda y, tau: v.sample(node_map(y), tau)))


class TestTorus:
    """The cell is the torus: a constant Theta has no corrector, and shifting or
    reflecting the cell permutes the discrete problem (the unit-square
    truncation the package once offered broke all three)."""

    @pytest.mark.parametrize("m", [8, 9, 64, 65])
    @pytest.mark.parametrize("alpha", [1.05, 1.25, ALPHA, 1.75, 1.95])
    def test_constant_theta_has_identity_coefficients(self, alpha, m):
        sol = solve_cell_problem(get_theta("one"), alpha, CellGrid(m=m, m_tau=2))
        assert np.max(np.abs(sol.rhs)) < 1e-13
        assert np.linalg.norm(sol.chi) < 1e-10
        coeffs = compute_effective_coefficients(sol, get_v("sin2pi_y_one_plus_sin2pi_tau"))
        assert coeffs.xi1 == 1.0
        assert abs(coeffs.xi2) < 1e-20 and abs(coeffs.xi3) < 1e-10

    # Theta of y - eta alone (cosine_shift) has b = 0 and chi = 0 to rounding,
    # so these two position-dependent presets carry the corrector checks
    @pytest.mark.parametrize("m, s", [(9, 1), (9, 4), (64, 1), (64, 21), (64, 32),
                                      (65, 1), (65, 22), (65, 32)])
    @pytest.mark.parametrize("theta_name", ["cosine_product", "cosine_sum"])
    def test_cell_shift_permutes_the_problem(self, theta_name, m, s):
        grid, v = CellGrid(m=m, m_tau=2), get_v("sin2pi_y_one_plus_sin2pi_tau")
        theta = get_theta(theta_name)
        theta_s, v_s = remapped(theta, v, lambda y: y + s / m)
        idx = (np.arange(m) + s) % m
        a, a_s = (assemble_cell_form(t, ALPHA, grid) for t in (theta, theta_s))
        assert np.max(np.abs(a_s - a[np.ix_(idx, idx)])) <= 1e-12 * np.max(np.abs(a))
        sol, sol_s = (solve_cell_problem(t, ALPHA, grid) for t in (theta, theta_s))
        assert np.max(np.abs(sol_s.rhs - sol.rhs[idx])) <= 1e-12 * np.max(np.abs(sol.rhs))
        assert np.max(np.abs(sol_s.chi - sol.chi[idx])) <= 1e-10 * np.max(np.abs(sol.chi))
        c, c_s = compute_effective_coefficients(sol, v), compute_effective_coefficients(sol_s, v_s)
        for got, want in zip(c_s.as_tuple(), c.as_tuple()):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("m", [9, 64, 65])
    @pytest.mark.parametrize("theta_name", ["cosine_product", "cosine_sum"])
    def test_cell_reflection_flips_the_odd_parts(self, theta_name, m):
        grid, v = CellGrid(m=m, m_tau=2), get_v("sin2pi_y_one_plus_sin2pi_tau")
        theta = get_theta(theta_name)
        theta_r, v_r = remapped(theta, v, lambda y: -y)
        idx = (-np.arange(m)) % m
        a, a_r = (assemble_cell_form(t, ALPHA, grid) for t in (theta, theta_r))
        assert np.max(np.abs(a_r - a[np.ix_(idx, idx)])) <= 1e-12 * np.max(np.abs(a))
        sol, sol_r = (solve_cell_problem(t, ALPHA, grid) for t in (theta, theta_r))
        # the odd kernel moments, hence b and chi, change sign with the orientation
        assert np.max(np.abs(sol_r.rhs + sol.rhs[idx])) <= 1e-12 * np.max(np.abs(sol.rhs))
        assert np.max(np.abs(sol_r.chi + sol.chi[idx])) <= 1e-10 * np.max(np.abs(sol.chi))
        c, c_r = compute_effective_coefficients(sol, v), compute_effective_coefficients(sol_r, v_r)
        assert c_r.xi1 == pytest.approx(c.xi1, rel=1e-12)
        assert c_r.xi2 == pytest.approx(c.xi2, rel=1e-10, abs=1e-14)
        assert c_r.xi3 == pytest.approx(-c.xi3, rel=1e-10, abs=1e-14)


class TestCellGrid:
    @pytest.mark.parametrize("sizes, message", [
        ({"m": 7}, "cell.m must be >= 8"),
        ({"m": 8, "m_tau": 0}, "cell.m_tau must be >= 1"),
        ({"m": 8, "n_images": 0}, "cell.n_images must be >= 1"),
    ])
    def test_sizes_checked_by_the_grid(self, sizes, message):
        with pytest.raises(ValueError) as exc:
            CellGrid(**sizes)
        assert str(exc.value) == message

    @pytest.mark.parametrize("sizes, message", [
        ({"m": 64.0}, "cell.m must be an integer, got 64.0"),
        ({"m": 8, "m_tau": 2.0}, "cell.m_tau must be an integer, got 2.0"),
        ({"m": 8, "n_images": True}, "cell.n_images must be an integer, got True"),
        ({"m": "12"}, "cell.m must be an integer, got '12'"),
    ])
    def test_non_integer_sizes_rejected_by_the_grid(self, sizes, message):
        with pytest.raises(TypeError) as exc:
            CellGrid(**sizes)
        assert str(exc.value) == message

    def test_numpy_integer_sizes_accepted_as_int(self):
        grid = CellGrid(m=np.int64(16), m_tau=np.int32(2), n_images=np.uint8(3))
        assert (grid.m, grid.m_tau, grid.n_images) == (16, 2, 3)
        assert all(type(v) is int for v in (grid.m, grid.m_tau, grid.n_images))

    def test_solution_carries_its_inputs(self):
        theta = get_theta("cosine_sum")
        grid = CellGrid(m=32, m_tau=2)
        sol = solve_cell_problem(theta, ALPHA, grid)
        assert sol.theta is theta and sol.grid is grid and sol.alpha == ALPHA
        assert sol.residual < 1e-8
