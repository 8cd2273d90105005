"""Preset registries: the cosine Theta family samples bit for bit as written
out per preset, and unknown names fail with one message per registry."""

import numpy as np
import pytest

from nshom.presets import get_f, get_h, get_theta, get_v

# Theta(y, eta) per cosine preset, in the evaluation order of the formula
COSINE_THETAS = {
    "cosine_product": lambda a, c, y, eta: (
        c + a * np.cos(2 * np.pi * y) * np.cos(2 * np.pi * eta)),
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
    with pytest.raises(ValueError, match=f"^'{name}' needs finite bounds 0 < lower <= upper"):
        get_theta(name, amplitude=amplitude, offset=1.0)


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
