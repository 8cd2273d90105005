"""Kernel, exterior weight, and generator assembly tests.

Independent oracles: closed-form antiderivatives, adaptive quadrature
(scipy), the Fourier-side closed form of the weighted fractional norm of
(1 - x^2)^p fields (Weber-Schafheitlin integral of squared Bessel functions),
Getoor's pointwise closed form of L (1 - x^2)_+^{alpha/2}, and incomplete
gamma functions (mpmath) for the oscillating exterior weight.
"""

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn, jv

from nshom import kernel
from nshom.cell import CellGrid
from nshom.kernel import (
    Grid1D,
    KernelParams,
    assemble_heterogeneous_generator,
    dstar_apply,
    exterior_weight,
    gamma,
    h_rho_norm_sq,
    rho,
)
from nshom.presets import ThetaSpec, get_theta
from references import PVConvergenceError, pv_oracle

ALPHAS = [1.25, 1.5, 1.75]


def smooth_bump(z):
    z = float(z)
    if abs(z) >= 1.0:
        return 0.0
    return np.exp(-1.0 / (1.0 - z * z))


def closed_form_weighted_norm_sq(p: int, alpha: float) -> float:
    """||(1 - x^2)^p||^2 in the weighted fractional norm, via the Fourier
    transform sqrt(pi) Gamma(p+1) (2/|w|)^{p+1/2} J_{p+1/2}(|w|) and the
    closed form of int_0^inf J_nu(t)^2 t^{-lam} dt."""
    c_a = -2.0 * gamma_fn(-alpha) * np.cos(np.pi * alpha / 2.0)
    lam = 2 * p + 1 - alpha
    return (c_a * gamma_fn(p + 1) ** 2 * 2.0 ** alpha * gamma_fn(lam)
            * gamma_fn((alpha + 1) / 2.0)
            / (gamma_fn((lam + 1) / 2.0) ** 2 * gamma_fn(2 * p + 1.5 - alpha / 2.0)))


class TestGrid1D:
    @pytest.mark.parametrize("n", [1, 2, 3, np.int64(7), np.int32(256)])
    def test_integer_sizes_accepted_as_int(self, n):
        grid = Grid1D.make(n)
        assert type(grid.n) is int and grid.n == n and grid.nodes.shape == (n,)
        assert grid.h == 2.0 / (n + 1)

    @pytest.mark.parametrize("n", [256.7, 256.0, True, np.bool_(True), "12", None])
    def test_non_integer_sizes_rejected(self, n):
        with pytest.raises(TypeError) as exc:
            Grid1D.make(n)
        assert str(exc.value) == f"grid.n must be an integer, got {n!r}"

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_grid_rejected(self, n):
        with pytest.raises(ValueError) as exc:
            Grid1D.make(n)
        assert str(exc.value) == "grid.n must be >= 1"


class TestGamma:
    def test_point_values(self):
        err, tol = kernel.point_value_error()
        assert err <= tol

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(11)
        for x, z in rng.uniform(-3.0, 3.0, size=(50, 2)):
            if x == z:
                continue
            assert gamma(x, z, 1.5) + gamma(z, x, 1.5) == 0.0

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            gamma(0.3, 0.3, 1.5)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5, 2.5])
    def test_alpha_range_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            gamma(0.0, 1.0, alpha)


class TestRho:
    def test_closed_form_value(self):
        assert rho(0.0, 1.5) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_symmetry(self):
        for x in [0.1, 0.35, 0.77]:
            assert rho(x, 1.5) == pytest.approx(rho(-x, 1.5), rel=1e-15)

    def test_monotone_and_divergent_at_boundary(self):
        xs = np.linspace(0.0, 0.999, 200)
        vals = np.array([rho(x, 1.5) for x in xs])
        assert np.all(np.diff(vals) > 0)
        assert rho(0.9999, 1.5) > 1e5

    def test_domain_rejected(self):
        for x in (-1.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                rho(x, 1.5)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_against_adaptive_quadrature(self, alpha):
        err, tol = kernel.exterior_weight_error(alpha, size=30)
        assert err <= tol


class TestDstar:
    def test_constant_gives_zero(self):
        u = lambda z: 3.7 + 0j
        for x, z in [(-0.5, 0.2), (0.1, 0.9)]:
            assert dstar_apply(u, x, z, 1.5) == 0.0

    def test_linear_value(self):
        # u(x) = x at (0, 1): -(1 - 0) * gamma(0, 1) = -1
        u = lambda z: z
        assert dstar_apply(u, 0.0, 1.0, 1.5) == -1.0

    def test_swap_symmetry_exact(self):
        assert kernel.swap_symmetry_error(1.5, size=40) == (0.0, 0.0)


class TestGeneratorAssembly:
    @pytest.mark.parametrize("theta_name", ["one", "cosine_product", "cosine_shift"])
    def test_symmetric_psd(self, theta_name):
        err, tol = kernel.generator_psd_error(1.5, theta_name)
        assert err <= tol

    @pytest.mark.parametrize("n", [16, 97, 256])
    @pytest.mark.parametrize("theta_name", ["one", "cosine_product", "cosine_shift",
                                            "cosine_sum"])
    @pytest.mark.parametrize("eps", [0.5, 1.0 / 16.0])
    def test_exactly_symmetric(self, n, theta_name, eps):
        params = KernelParams(alpha=1.5, theta=get_theta(theta_name), epsilon=eps)
        mat = assemble_heterogeneous_generator(Grid1D.make(n), params)
        assert np.array_equal(mat, mat.T)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="4"):
            assemble_heterogeneous_generator(
                Grid1D.make(3), KernelParams(alpha=1.5, theta=get_theta("one")))

    def test_asymmetric_theta_rejected(self):
        # before any assembly: ThetaSpec checks symmetry when it is built
        with pytest.raises(ValueError, match="symmetric"):
            ThetaSpec("tilted", lambda y, eta: 1.0 + 0.3 * y + 0.0 * eta, lower=0.7, upper=1.3)

    @pytest.mark.parametrize("theta_name", ["one", "cosine_product"])
    def test_quadratic_form_identity(self, theta_name):
        err, tol = kernel.quadratic_form_error(1.5, n=128, theta=theta_name)
        assert err <= tol

    def test_form_matches_continuum_closed_form(self):
        grid = Grid1D.make(512)
        params = KernelParams(alpha=1.5, theta=get_theta("one"))
        for p, tol in [(1, 5e-4), (2, 2e-5), (3, 2e-5), (4, 2e-5), (5, 2e-5)]:
            u = (1.0 - grid.nodes ** 2) ** p
            assert h_rho_norm_sq(u, grid, params) == pytest.approx(
                closed_form_weighted_norm_sq(p, 1.5), rel=tol)

    def test_closed_form_norm_cross_checked_by_quadrature(self):
        # the Fourier-side oracle itself, checked against direct quadrature
        alpha, p = 1.5, 2
        c_a = -2.0 * gamma_fn(-alpha) * np.cos(np.pi * alpha / 2.0)

        def integrand(w):
            ut = np.sqrt(np.pi) * gamma_fn(p + 1) * (2.0 / w) ** (p + 0.5) * jv(p + 0.5, w)
            return c_a * w ** alpha * ut ** 2 / np.pi

        val = 0.0
        edges = np.concatenate([[1e-8], np.arange(1.0, 200.0, 10.0), [2000.0]])
        for a, b in zip(edges[:-1], edges[1:]):
            piece, _ = integrate.quad(integrand, a, b, limit=400)
            val += piece
        assert val == pytest.approx(closed_form_weighted_norm_sq(p, alpha), rel=1e-6)

    def test_row_apply_matches_pv_oracle(self):
        grid = Grid1D.make(512)
        params = KernelParams(alpha=1.5, theta=get_theta("one"))
        mat = assemble_heterogeneous_generator(grid, params)
        i = int(np.argmin(np.abs(grid.nodes - 0.3)))
        uvec = np.array([smooth_bump(z) for z in grid.nodes])
        row_val = (mat @ uvec)[i]
        oracle = pv_oracle(smooth_bump, float(grid.nodes[i]), 1.5, tol=1e-9)
        assert row_val == pytest.approx(oracle, rel=1e-4)

    def test_refinement_consistency_order(self):
        params = KernelParams(alpha=1.5, theta=get_theta("one"))
        errs = []
        for n in (128, 256, 512):
            grid = Grid1D.make(n)
            mat = assemble_heterogeneous_generator(grid, params)
            i = int(np.argmin(np.abs(grid.nodes - 0.3)))
            uvec = np.array([smooth_bump(z) for z in grid.nodes])
            oracle = pv_oracle(smooth_bump, float(grid.nodes[i]), 1.5, tol=1e-10)
            errs.append(abs((mat @ uvec)[i] - oracle) / abs(oracle))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.0), f"observed orders {orders}"

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_rows_match_getoor_closed_form(self, alpha):
        # Getoor (1961): L (1 - x^2)_+^{alpha/2} is a constant on (-1, 1)
        (err, tol), (fine, _) = (kernel.getoor_error(n, alpha) for n in (256, 1024))
        assert err <= tol, err
        # h falls by 4 from n = 256 to 1024
        order = np.log2(err / fine) / 2.0
        assert order >= 1.5, f"observed order {order}"

    @pytest.mark.parametrize("alpha", [1.01, 1.25, 1.5, 1.75, 1.99])
    def test_getoor_row_passes_on_coarse_grids(self, alpha):
        # the coarsest grids carry the largest error constant (n = 7 the most)
        for n in range(4, 41):
            err, tol = kernel.getoor_error(n, alpha)
            assert err <= tol, (n, err, tol)


class TestExteriorWeight:
    def test_constant_theta_matches_rho(self):
        params = KernelParams(alpha=1.5, theta=get_theta("one"))
        for x in (-0.8, 0.0, 0.55):
            assert exterior_weight(x, params, margin=0.0) == pytest.approx(
                rho(x, 1.5), rel=1e-14)

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 1.99])
    @pytest.mark.parametrize("n", [4, 257])
    def test_constant_theta_weight_is_rho_exactly(self, n, alpha):
        # one closed form behind both, so the quadrature check of rho in
        # ``nshom validate`` covers every Theta == 1 assembly
        nodes = Grid1D.make(n).nodes
        weights = exterior_weight(nodes, KernelParams(alpha=alpha, theta=get_theta("one")))
        assert weights.tolist() == [rho(x, alpha) for x in nodes]

    def test_general_theta_between_bounds(self):
        theta = get_theta("cosine_product")
        params = KernelParams(alpha=1.5, theta=theta, epsilon=0.25)
        for x in (-0.5, 0.1, 0.8):
            w = exterior_weight(x, params, margin=0.0)
            assert theta.lower * rho(x, 1.5) * 0.999 <= w <= theta.upper * rho(x, 1.5) * 1.001


OSCILLATING = ["cosine_sum", "cosine_product", "cosine_shift"]
EPS_LEVELS = [1 / 2, 1 / 4, 1 / 8, 1 / 16]


def per_node_quad_weight(x, params, margin):
    """The exterior weight as one adaptive quad per node and side: Theta at
    its fast variable integrated over distances [d, d + L], plus the
    fast-variable mean of Theta times the kernel tail beyond d + L."""
    alpha, eps = params.alpha, params.epsilon
    y_here = np.mod(x / eps, 1.0)
    eta = (np.arange(256) + 0.5) / 256
    theta_bar = float(np.mean(params.theta.sample(y_here, eta)))

    def side(sign, dist):
        def integrand(s):
            th = params.theta.sample(y_here, np.mod((x + sign * s) / eps, 1.0))
            return float(th) * s ** (-1.0 - alpha)

        cut = dist + min(4.0, max(10.0 * eps, 0.5))
        val, _ = integrate.quad(integrand, dist, cut, limit=300)
        return val + theta_bar * cut ** (-alpha) / alpha

    return side(+1.0, 1.0 - margin - x) + side(-1.0, 1.0 - margin + x)


def incomplete_gamma_weight(mp, name, x, alpha, eps, margin, exact=False):
    """The same quantity in closed form with mpmath: the three presets are
    Theta = b0(y) + Re[c(y) exp(2 pi i z / eps)] with default parameters, and
    int_d^e exp(i k s) s^{-1-alpha} ds = (-ik)^alpha [Gamma(-alpha, -ikd) -
    Gamma(-alpha, -ike)]. ``exact`` integrates Theta itself to infinity."""
    x, alpha, eps, margin = (mp.mpf(v) for v in (x, alpha, eps, margin))
    y = (x / eps) % 1
    b0, c = {
        "cosine_sum": (1 + mp.cos(2 * mp.pi * y) / 4, mp.mpf(1) / 4),
        "cosine_product": (mp.mpf(1), mp.cos(2 * mp.pi * y) / 2),
        "cosine_shift": (mp.mpf(1), mp.exp(-2j * mp.pi * y) / 2),
    }[name]
    omega = 2 * mp.pi / eps
    length = min(mp.mpf(4), max(10 * eps, mp.mpf(1) / 2))
    total = mp.mpf(0)
    for sign in (1, -1):
        d = 1 - margin - sign * x
        k = sign * omega
        # b0 over [d, d + L] plus the mean-Theta tail is b0 over [d, inf)
        total += b0 * d ** (-alpha) / alpha
        upper = mp.inf if exact else -1j * k * (d + length)
        osc = (-1j * k) ** alpha * mp.gammainc(-alpha, -1j * k * d, upper)
        total += mp.re(c * mp.exp(1j * omega * x) * osc)
    return total


def per_node_closed_form_weight(x, params, margin=0.0):
    """The closed form for constant Theta, node by node with scalar powers,
    as the assembly evaluated it one node per call."""
    c, alpha = params.theta.constant, params.alpha
    return np.array([c * ((1.0 - margin - xi) ** (-alpha) + (1.0 - margin + xi) ** (-alpha))
                     / alpha for xi in x])


class TestVectorizedExteriorWeight:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("eps", EPS_LEVELS)
    @pytest.mark.parametrize("name", OSCILLATING)
    def test_matches_per_node_quad(self, name, eps, alpha):
        grid = Grid1D.make(256)
        params = KernelParams(alpha=alpha, theta=get_theta(name), epsilon=eps)
        weights = exterior_weight(grid.nodes, params, margin=grid.h / 2)
        for i in [0, 1, 2, *range(17, 240, 37), 253, 254, 255]:
            ref = per_node_quad_weight(grid.nodes[i], params, grid.h / 2)
            assert weights[i] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("eps", EPS_LEVELS)
    @pytest.mark.parametrize("name", OSCILLATING)
    def test_matches_incomplete_gamma_reference(self, name, eps):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        grid = Grid1D.make(256)
        margin = grid.h / 2
        for alpha in ALPHAS:
            params = KernelParams(alpha=alpha, theta=get_theta(name), epsilon=eps)
            weights = exterior_weight(grid.nodes, params, margin=margin)
            # node 0 sits at distance h/2 from the left exterior, node 255 from the right
            for i in (0, 1, 128, 255):
                ref = float(incomplete_gamma_weight(mp, name, grid.nodes[i], alpha, eps, margin))
                assert weights[i] == pytest.approx(ref, rel=1e-10)

    def test_cutoff_model_error_against_exact_integral(self):
        # beyond d + L Theta is replaced by its fast-variable mean; against the
        # exact exterior integral that is a model error of about 1e-3, which no
        # quadrature refinement removes
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        grid = Grid1D.make(256)
        for name in OSCILLATING:
            for i in (0, 128):
                x = grid.nodes[i]
                defined = incomplete_gamma_weight(mp, name, x, 1.5, 1 / 16, grid.h / 2)
                exact = incomplete_gamma_weight(mp, name, x, 1.5, 1 / 16, grid.h / 2, exact=True)
                assert float(abs(defined - exact) / exact) < 2e-3

    def test_node_blocks_leave_values_unchanged(self, monkeypatch):
        grid = Grid1D.make(256)
        params = KernelParams(alpha=1.5, theta=get_theta("cosine_shift"), epsilon=1 / 16)
        whole = exterior_weight(grid.nodes, params, margin=grid.h / 2)
        monkeypatch.setattr(kernel, "EXTERIOR_BLOCK_ENTRIES", 5000)
        assert np.array_equal(exterior_weight(grid.nodes, params, margin=grid.h / 2), whole)

    @pytest.mark.parametrize("name", ["one", "cosine_sum"])
    def test_scalar_and_array_calls_agree(self, name):
        params = KernelParams(alpha=1.5, theta=get_theta(name), epsilon=0.125)
        for x in (-0.9, 0.0, 0.37):
            scalar = exterior_weight(x, params, margin=0.01)
            block = exterior_weight(np.full((2, 3), x), params, margin=0.01)
            assert isinstance(scalar, float) and block.shape == (2, 3)
            assert np.all(block == scalar)
            assert exterior_weight(np.array([x]), params, margin=0.01)[0] == scalar

    def test_nodes_outside_the_domain_rejected(self):
        params = KernelParams(alpha=1.5, theta=get_theta("cosine_sum"), epsilon=0.25)
        for x in (np.array([0.0, 0.995]), 1.2, np.nan):
            with pytest.raises(ValueError, match="strictly inside"):
                exterior_weight(x, params, margin=0.01)

    @pytest.mark.parametrize("theta", [get_theta("one"),
                                       get_theta("scaled", base="one", factor=2.5)])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_constant_theta_generator_bit_identical(self, theta, alpha, monkeypatch):
        grid = Grid1D.make(96)
        params = KernelParams(alpha=alpha, theta=theta)
        assert np.array_equal(exterior_weight(grid.nodes, params, margin=grid.h / 2),
                              per_node_closed_form_weight(grid.nodes, params, margin=grid.h / 2))
        fast = assemble_heterogeneous_generator(grid, params)
        monkeypatch.setattr(kernel, "exterior_weight", per_node_closed_form_weight)
        per_node = assemble_heterogeneous_generator(grid, params)
        assert np.array_equal(fast, per_node)

    @pytest.mark.parametrize("alpha", [1.01, 1.1, 1.25, 1.5, 1.75, 1.99])
    @pytest.mark.parametrize("n", [4, 5, 257, 2048])
    def test_constant_theta_weight_matches_per_node_bitwise(self, n, alpha):
        grid = Grid1D.make(n)
        params = KernelParams(alpha=alpha, theta=get_theta("one"))
        for margin in (0.0, grid.h / 2):
            ref = per_node_closed_form_weight(grid.nodes, params, margin=margin)
            assert np.array_equal(exterior_weight(grid.nodes, params, margin=margin), ref)
            assert exterior_weight(float(grid.nodes[1]), params, margin=margin) == ref[1]


class TestPVOracle:
    def test_zero_function(self):
        assert pv_oracle(lambda z: 0.0, 0.1, 1.5, tol=1e-10) == 0.0

    def test_linearity(self):
        u = smooth_bump
        v = lambda z: (1.0 - z * z) if abs(z) < 1 else 0.0
        a, b = 2.0, -0.7
        combo = lambda z: a * u(z) + b * v(z)
        lhs = pv_oracle(combo, 0.2, 1.5, tol=1e-9)
        rhs = a * pv_oracle(u, 0.2, 1.5, tol=1e-9) + b * pv_oracle(v, 0.2, 1.5, tol=1e-9)
        assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_parabola_matches_fine_matrix(self):
        grid = Grid1D.make(2048)
        params = KernelParams(alpha=1.5, theta=get_theta("one"))
        mat = assemble_heterogeneous_generator(grid, params)
        u = lambda z: (1.0 - z * z) if abs(z) < 1 else 0.0
        uvec = 1.0 - grid.nodes ** 2
        i = int(np.argmin(np.abs(grid.nodes)))
        oracle = pv_oracle(u, float(grid.nodes[i]), 1.5, tol=1e-9)
        assert (mat @ uvec)[i] == pytest.approx(oracle, rel=1e-4)

    def test_complex_field_supported(self):
        u = lambda z: smooth_bump(z) * (1.0 + 2.0j)
        val = pv_oracle(u, 0.0, 1.5, tol=1e-8)
        real = pv_oracle(smooth_bump, 0.0, 1.5, tol=1e-8)
        assert val == pytest.approx(real * (1.0 + 2.0j), rel=1e-7)

    def test_nonconvergent_refinement_reports_error(self):
        rough = lambda z: np.sqrt(abs(z)) if abs(z) < 1 else 0.0
        with pytest.raises(PVConvergenceError) as excinfo:
            pv_oracle(rough, 0.0, 1.5, tol=1e-10, max_levels=5)
        assert excinfo.value.achieved > 0.0


def dense_centered_difference(n, h, periodic):
    """(u_{j+1} - u_{j-1}) / 2h as a dense matrix, wrapping when periodic."""
    p = np.zeros((n, n))
    i = np.arange(n)
    p[i, (i + 1) % n] = 1.0 / (2.0 * h)
    p[i, (i - 1) % n] = -1.0 / (2.0 * h)
    if not periodic:
        p[0, -1] = p[-1, 0] = 0.0
    return p


def dense_same_cell_generator(grid, params):
    """The generator with its same-cell term as the dense product (P^T * Theta) @ P."""
    w, ext, theta_diag = kernel._assembly_pieces(grid, params)
    h = grid.h
    p = dense_centered_difference(grid.n, h, periodic=False)
    c = kernel.same_cell_coeff(h, params.alpha) / 2.0 * (p.T * theta_diag) @ p
    m = np.diag(ext) + (np.diag(w.sum(axis=1)) - w + c) / h
    return 0.5 * (m + m.T)


class TestSameCellBands:
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("n", [8, 33])
    def test_bands_match_dense_product(self, periodic, n):
        rng = np.random.default_rng(n)
        d = rng.uniform(0.5, 2.0, n)
        h, coef = 2.0 / (n + 1), 0.7
        base = rng.standard_normal((n, n))
        a = base.copy()
        kernel._add_same_cell_term(a, coef, d, h, periodic)
        p = dense_centered_difference(n, h, periodic)
        ref = coef * (p.T * d) @ p
        added = a - base
        assert np.array_equal(np.abs(added) > 1e-12, ref != 0.0)
        assert np.max(np.abs(added - ref)) <= 1e-14 * np.max(np.abs(ref))
        if periodic:
            # wrap entries: rows 0, 1 meet columns n - 2, n - 1 through d_{n-1}, d_0
            g = coef / (4.0 * h * h)
            for (r, c), dj in (((0, n - 2), d[n - 1]), ((n - 2, 0), d[n - 1]),
                               ((1, n - 1), d[0]), ((n - 1, 1), d[0])):
                assert a[r, c] - base[r, c] == pytest.approx(-g * dj, rel=1e-14)
            assert a[0, 0] - base[0, 0] == pytest.approx(g * (d[n - 1] + d[1]), rel=1e-14)

    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize("theta", ["one", "cosine_sum"])
    def test_generator_matches_dense_same_cell_product(self, n, theta):
        grid = Grid1D.make(n)
        params = KernelParams(alpha=1.5, theta=get_theta(theta), epsilon=1.0 / 16.0)
        ref = dense_same_cell_generator(grid, params)
        got = assemble_heterogeneous_generator(grid, params)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


THETA_SPECS = [get_theta(name) for name in ("cosine_product", "cosine_shift", "cosine_sum")] + [
    get_theta("scaled", factor=2.5), get_theta("scaled", base="cosine_shift", factor=0.3)]


class TestThetaMatrix:
    """``_theta_matrix`` samples Theta once; the weights must be the
    transposed-read average 0.5 (T + T^T) that earlier versions took, bit for
    bit (they are, as the sample is symmetric), and the diagonal a copy of
    theirs."""

    @staticmethod
    def transposed_average(theta, y):
        tm = theta.sample(y[:, None], y[None, :])
        return 0.5 * (tm + tm.T)

    @pytest.mark.parametrize("theta", THETA_SPECS, ids=lambda t: f"{t.name}-{t.params}")
    @pytest.mark.parametrize("m", [64, 129, 1024])
    def test_cell_grid_matches_transposed_average_bitwise(self, theta, m):
        y = CellGrid(m=m).y
        got, diag = kernel._theta_matrix(theta, y)
        assert got.flags.c_contiguous
        assert np.array_equal(got, self.transposed_average(theta, y))
        assert np.array_equal(diag, np.diag(got)) and not np.shares_memory(diag, got)

    @pytest.mark.parametrize("theta", THETA_SPECS, ids=lambda t: f"{t.name}-{t.params}")
    @pytest.mark.parametrize("n, eps", [(256, 1 / 16), (257, 0.3)])
    def test_fast_grid_matches_transposed_average_bitwise(self, theta, n, eps):
        y = np.mod(Grid1D.make(n).nodes / eps, 1.0)
        got, _ = kernel._theta_matrix(theta, y)
        assert np.array_equal(got, self.transposed_average(theta, y))

    def test_asymmetric_sample_names_the_preset(self):
        with pytest.raises(ValueError, match="theta preset 'tilted' is not symmetric"):
            ThetaSpec("tilted", lambda y, eta: 1.0 + 0.1 * y + 0.0 * eta, lower=1.0, upper=1.1)

    @pytest.mark.parametrize("fn", [
        # symmetric, but cos(2 pi (y - eta)) reaches -1 at distance 1/2
        lambda y, eta: np.cos(2 * np.pi * (y - eta)),
        # NaN passes both ThetaSpec's symmetry check and a "<= 0" test
        lambda y, eta: np.full(np.broadcast(y, eta).shape, np.nan),
    ], ids=["signed", "nan"])
    def test_nonpositive_sample_rejected(self, fn):
        signed = ThetaSpec("signed", fn, lower=0.5, upper=1.0)
        with pytest.raises(ValueError, match="strictly positive on the grid"):
            kernel._theta_matrix(signed, np.arange(32) / 32)

    def test_constant_theta_gives_the_constant_and_its_diagonal(self):
        weights, diag = kernel._theta_matrix(get_theta("one"), np.arange(8) / 8)
        assert weights == 1.0 and isinstance(weights, float)
        assert np.array_equal(diag, np.ones(8))
