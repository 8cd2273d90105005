"""Preset registries: the cosine Theta family samples bit for bit as written
out per preset, every Theta preset samples symmetric bit for bit, a VSpec
with nonzero mean over y is rejected when built, and unknown names fail with
one message per registry."""

import numpy as np
import pytest

from nshom.cell import CellGrid
from nshom.kernel import Grid1D
from nshom.presets import (PSI_PRESETS, THETA_PRESETS, V_PRESETS, ThetaSpec, VSpec, get_f, get_h,
                           get_theta, get_v)

# Theta(y, eta) per cosine preset, in the evaluation order of the formula
COSINE_THETAS = {
    "cosine_product": lambda a, c, y, eta: (
        c + a * (np.cos(2 * np.pi * y) * np.cos(2 * np.pi * eta))),
    "cosine_shift": lambda a, c, y, eta: c + a * np.cos(2 * np.pi * (y - eta)),
    "cosine_sum": lambda a, c, y, eta: (
        c + 0.5 * a * (np.cos(2 * np.pi * y) + np.cos(2 * np.pi * eta))),
}


@pytest.mark.parametrize("name", sorted(COSINE_THETAS))
@pytest.mark.parametrize("params, amplitude, offset", [
    ({}, 0.5, 1.0), ({"amplitude": 0.3, "offset": 2.0}, 0.3, 2.0)])
def test_cosine_theta_samples_bitwise(name, params, amplitude, offset):
    theta = get_theta(name, **params)
    y = np.linspace(-0.5, 1.5, 257)
    expected = COSINE_THETAS[name](amplitude, offset, y[:, None], y[None, :])
    assert expected.shape == (257, 257)
    assert np.array_equal(theta.sample(y[:, None], y[None, :]), expected)
    assert (theta.name, theta.lower, theta.upper, theta.constant) == (
        name, offset - amplitude, offset + amplitude, None)
    assert theta.params == {"amplitude": amplitude, "offset": offset}


@pytest.mark.parametrize("name", sorted(COSINE_THETAS))
@pytest.mark.parametrize("amplitude", [1.0, -0.1, float("nan")])
def test_cosine_theta_rejects_nonpositive_bounds(name, amplitude):
    # amplitude >= offset gives lower <= 0, a negative one lower > upper, and
    # NaN fails both; ThetaSpec is the one place that checks the bounds
    with pytest.raises(ValueError, match=f"^theta preset '{name}' needs finite bounds "
                                         "0 < lower <= upper"):
        get_theta(name, amplitude=amplitude, offset=1.0)


# the benchmark's Theta grids: its cell grids, and the fast variable of its
# eps-sweeps, x / eps mod 1 at n = 256
BENCHMARK_THETA_GRIDS = [CellGrid(m=m).y for m in (128, 1024)] + [
    np.mod(Grid1D.make(256).nodes / eps, 1.0) for eps in (1 / 2, 1 / 4, 1 / 8, 1 / 16)]


@pytest.mark.parametrize("name, params", [(name, {}) for name in sorted(THETA_PRESETS)] + [
    (name, {"amplitude": 0.3, "offset": 2.0}) for name in sorted(THETA_PRESETS) if name != "one"])
def test_theta_presets_sample_symmetric_on_benchmark_grids(name, params):
    # the assembly takes one sample of Theta as its symmetric weights; ThetaSpec
    # checks symmetry on its own probe only, so the benchmark's grids are checked here
    theta = get_theta(name, **params)
    for y in BENCHMARK_THETA_GRIDS:
        sample = theta.sample(y[:, None], y[None, :])
        assert np.array_equal(sample, sample.T)


def test_one_ulp_asymmetry_rejected_when_built():
    # (a c(y)) c(eta) differs from (a c(eta)) c(y) in the last bit at a = 0.3,
    # which is why cosine_product multiplies the cosines first
    with pytest.raises(ValueError, match="^theta preset 'unordered' is not symmetric$"):
        ThetaSpec("unordered", lambda y, eta: 2.0 + 0.3 * np.cos(2 * np.pi * y)
                  * np.cos(2 * np.pi * eta), lower=1.7, upper=2.3)


# V's mean over y is 1e-11, above the 1e-12 tolerance; and a mean sin(34 pi tau)
# that vanishes at the 17 points k/17 in tau but not at k/16 or 0.1
NONZERO_MEAN_POTENTIALS = {
    "offset": lambda y, tau: np.cos(2 * np.pi * y) + 1e-11 + 0.0 * tau,
    "tau34": lambda y, tau: np.cos(2 * np.pi * y) + np.sin(34 * np.pi * tau),
}


@pytest.mark.parametrize("name", sorted(NONZERO_MEAN_POTENTIALS))
def test_nonzero_mean_potential_rejected_when_built(name):
    with pytest.raises(ValueError, match=f"^potential preset '{name}' has nonzero spatial mean"):
        VSpec(name, NONZERO_MEAN_POTENTIALS[name])


@pytest.mark.parametrize("name", sorted(V_PRESETS))
def test_potential_presets_build_unless_their_mean_is_nonzero(name):
    if name == "one_plus_cos":
        with pytest.raises(ValueError, match=r"'one_plus_cos'.*= 1\.00e\+00\)$"):
            get_v(name)
    else:
        assert get_v(name).name == name


def test_nan_potential_builds():
    # the stepper's finiteness check, not the mean check, reports a NaN V
    v = VSpec("nan_near_zero", lambda y, tau: np.where(y < 0.1, np.nan, 0.0) + 0.0 * tau)
    assert np.isnan(v.sample(0.0, 0.5))


@pytest.mark.parametrize("lookup, message", [
    (get_theta, "unknown theta preset 'mystery'; known: "
                "['cosine_product', 'cosine_shift', 'cosine_sum', 'one', 'scaled']"),
    (get_v, "unknown potential preset 'mystery'; known: ['cos2pi_y', "
            "'cos2pi_y_times_cos2pi_tau', 'one_plus_cos', 'sin2pi_y_one_plus_sin2pi_tau', "
            "'zero']"),
    (get_f, "unknown forcing preset 'mystery'; known: ['bump_cos_t', 'zero']"),
    (get_h, "unknown initial-datum preset 'mystery'; known: ['bump', 'parabola']"),
])
def test_unknown_name_message(lookup, message):
    with pytest.raises(KeyError) as exc:
        lookup("mystery")
    assert exc.value.args == (message,)


@pytest.mark.parametrize("name, params, accepted", [
    ("one", {"amplitude": 1.0}, []),
    ("cosine_sum", {"phase": 1.0}, ["amplitude", "offset"]),
    # scaled takes its base preset's parameters too, and names itself
    ("scaled", {"shift": 1.0}, ["amplitude", "base", "factor", "offset"]),
    ("scaled", {"base": "one", "amplitude": 1.0}, ["base", "factor"]),
    ("scaled", {"base": "scaled", "shift": 1.0, "offset": 2.0},
     ["amplitude", "base", "factor", "offset"])])
def test_unexpected_theta_parameter_names_the_preset(name, params, accepted):
    unknown = sorted(set(params) - set(accepted))
    with pytest.raises(ValueError) as exc:
        get_theta(name, **params)
    assert str(exc.value) == (f"theta preset '{name}': unknown parameters {unknown}; "
                              f"accepted: {accepted}")


@pytest.mark.parametrize("name, params, named", [
    ("cosine_sum", {"amplitude": "x"}, "cosine_sum"), ("scaled", {"factor": "x"}, "scaled"),
    # a base parameter of the wrong type fails inside the base preset
    ("scaled", {"offset": "x"}, "cosine_product")])
def test_theta_parameter_of_wrong_type_names_the_preset(name, params, named):
    with pytest.raises(ValueError, match=f"^theta preset '{named}': "):
        get_theta(name, **params)


@pytest.mark.parametrize("n", [32, 257])
def test_bump_datum_has_unit_norm_and_is_even(n):
    grid, bump = Grid1D.make(n), get_h("bump")
    u = bump.sample(grid.nodes, grid.h)
    assert grid.h * np.sum(np.abs(u) ** 2) == pytest.approx(1.0, rel=1e-14)
    assert np.all(u.real > 0.0) and not u.imag.any()
    # even bit for bit in x; the grid's mirror nodes differ from -x in the last bits
    assert np.array_equal(bump.sample(-grid.nodes, grid.h), u)
    assert np.allclose(u, u[::-1], rtol=1e-12, atol=0.0)


def test_weak_error_test_functions_closed_forms():
    # (1 - x^2)^2 and (1 - x^2) cos(2 pi x) at x = 0, 1/3, 1/2, 1
    x = np.array([0.0, 1.0 / 3.0, 0.5, 1.0])
    psi = dict(PSI_PRESETS)
    assert list(psi) == ["poly_bump", "fourier_bump"]
    assert psi["poly_bump"](x) == pytest.approx([1.0, 64.0 / 81.0, 0.5625, 0.0],
                                                rel=1e-15, abs=1e-15)
    assert psi["fourier_bump"](x) == pytest.approx([1.0, -4.0 / 9.0, -0.75, 0.0],
                                                   rel=1e-15, abs=1e-15)
