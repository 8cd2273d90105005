"""Named presets for the periodic coefficient, oscillating potential, forcing,
initial datum, and weak-error test functions.

All potentials are periodic in (y, tau) on the unit cell; ``VSpec`` checks
their zero mean over y when built. ``one_plus_cos`` (mean 1) stays in the
registry on purpose, so that ``get_v`` and the configuration reject it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# where ThetaSpec checks symmetry and VSpec checks zero y-mean (in tau) when
# built: the points k/64 and three points off that grid
_PROBE = np.concatenate((np.arange(64) / 64, [0.1, 1 / 3, 0.7]))


@dataclass(frozen=True)
class ThetaSpec:
    """Symmetric periodic two-point coefficient Theta(y, eta) with positive bounds.

    ``constant`` is set when Theta does not depend on (y, eta); the assembly
    routines use it to skip sampling and to keep constant-coefficient results
    exact. A non-constant ``fn`` is sampled once, when the spec is built, on
    ``_PROBE`` x ``_PROBE``, and that sample must equal its
    transpose bit for bit (NaN equal to NaN, so a NaN Theta gets as far as the
    assembly's positivity check). The assembly relies on this: it takes one
    sample of Theta as its symmetric weights.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lower: float
    upper: float
    params: dict = field(default_factory=dict)
    constant: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.upper) and 0.0 < self.lower <= self.upper) or not (
                self.constant is None or self.lower == self.upper == self.constant):
            raise ValueError(f"theta preset {self.name!r} needs finite bounds 0 < lower <= "
                             f"upper, equal to its constant if set; got "
                             f"{self.lower, self.upper, self.constant}")
        if self.constant is None:
            probe = self.sample(_PROBE[:, None], _PROBE[None, :])
            if not np.array_equal(probe, probe.T, equal_nan=True):
                raise ValueError(f"theta preset {self.name!r} is not symmetric")

    def sample(self, y, eta) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        eta = np.asarray(eta, dtype=float)
        if self.constant is not None:
            return np.full(np.broadcast(y, eta).shape, self.constant)
        return np.asarray(self.fn(y, eta), dtype=float)


@dataclass(frozen=True)
class VSpec:
    """Periodic potential V(y, tau) on the unit cell with int_Y V(y, tau) dy = 0.

    A non-zero ``fn`` is sampled once, when the spec is built, on k/512 in y
    times ``_PROBE`` in tau; each |mean over y| must be at most 1e-12 (NaN
    passes, so a NaN V reaches the stepper's finiteness check)."""

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    is_zero: bool = False

    def __post_init__(self):
        if not self.is_zero:
            means = np.abs(self.sample(np.arange(512)[:, None] / 512, _PROBE).mean(axis=0))
            worst = float(np.fmax.reduce(means, initial=0.0))  # fmax skips NaN
            if worst > 1e-12:
                raise ValueError(f"potential preset {self.name!r} has nonzero spatial mean "
                                 f"(max |mean over y| = {worst:.2e})")

    def sample(self, y, tau) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        tau = np.asarray(tau, dtype=float)
        if self.is_zero:
            return np.zeros(np.broadcast(y, tau).shape)
        return np.asarray(self.fn(y, tau), dtype=float)


@dataclass(frozen=True)
class FSpec:
    """Deterministic forcing f(t, x); ``fn=None`` is zero forcing, which the
    stepper skips."""

    name: str
    fn: Callable[[float, np.ndarray], np.ndarray] | None

    def sample(self, t: float, x: np.ndarray) -> np.ndarray | None:
        if self.fn is None:
            return None
        return np.asarray(self.fn(t, x), dtype=complex)


@dataclass(frozen=True)
class HSpec:
    """Initial datum h(x) on D, normalized to unit discrete L2 norm on the grid."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def sample(self, nodes: np.ndarray, h_weight: float) -> np.ndarray:
        vals = np.asarray(self.fn(nodes), dtype=complex)
        nrm = np.sqrt(h_weight * np.sum(np.abs(vals) ** 2))
        if nrm == 0.0:
            return vals
        return vals / nrm


def _theta_one() -> ThetaSpec:
    return ThetaSpec("one", lambda y, eta: np.ones(np.broadcast(y, eta).shape),
                     lower=1.0, upper=1.0, constant=1.0)


def _cosine_theta(name: str, term: Callable) -> Callable[..., ThetaSpec]:
    """Factory of Theta = offset + term(amplitude, y, eta), where |term| <= amplitude;
    ThetaSpec's bound check (0 < offset - amplitude <= offset + amplitude)
    keeps it positive."""

    def factory(amplitude: float = 0.5, offset: float = 1.0) -> ThetaSpec:
        return ThetaSpec(name, lambda y, eta: offset + term(amplitude, y, eta),
                         lower=offset - amplitude, upper=offset + amplitude,
                         params={"amplitude": amplitude, "offset": offset})

    return factory


def _theta_scaled(base: str = "cosine_product", factor: float = 1.0, **params) -> ThetaSpec:
    inner = get_theta(base, **params)
    return ThetaSpec(f"scaled_{base}", lambda y, eta: factor * inner.sample(y, eta),
                     lower=factor * inner.lower, upper=factor * inner.upper,
                     params={"base": base, "factor": factor, **params},
                     constant=None if inner.constant is None else factor * inner.constant)


THETA_PRESETS: dict[str, Callable[..., ThetaSpec]] = {
    "one": _theta_one,
    # a * (c(y) c(eta)), not (a c(y)) c(eta): only the product of the two
    # cosines is symmetric bit for bit at every amplitude
    "cosine_product": _cosine_theta(
        "cosine_product", lambda a, y, eta: a * (np.cos(2 * np.pi * y) * np.cos(2 * np.pi * eta))),
    "cosine_shift": _cosine_theta(
        "cosine_shift", lambda a, y, eta: a * np.cos(2 * np.pi * (y - eta))),
    # breaks the half-period symmetry y -> y + 1/2, so the corrector carries
    # odd frequencies and all three effective coefficients are active
    "cosine_sum": _cosine_theta("cosine_sum", lambda a, y, eta:
                                0.5 * a * (np.cos(2 * np.pi * y) + np.cos(2 * np.pi * eta))),
    "scaled": _theta_scaled,
}


V_PRESETS: dict[str, Callable[[], VSpec]] = {
    "zero": lambda: VSpec("zero", lambda y, tau: np.zeros(np.broadcast(y, tau).shape),
                          is_zero=True),
    "cos2pi_y": lambda: VSpec(
        "cos2pi_y",
        lambda y, tau: np.cos(2 * np.pi * y) * np.ones(np.broadcast(y, tau).shape)),
    "cos2pi_y_times_cos2pi_tau": lambda: VSpec(
        "cos2pi_y_times_cos2pi_tau",
        lambda y, tau: np.cos(2 * np.pi * y) * np.cos(2 * np.pi * tau)),
    "sin2pi_y_one_plus_sin2pi_tau": lambda: VSpec(
        "sin2pi_y_one_plus_sin2pi_tau",
        lambda y, tau: np.sin(2 * np.pi * y) * (1.0 + np.sin(2 * np.pi * tau))),
    # nonzero spatial mean on purpose: building it raises
    "one_plus_cos": lambda: VSpec(
        "one_plus_cos",
        lambda y, tau: (1.0 + np.cos(2 * np.pi * y)) * np.ones(np.broadcast(y, tau).shape)),
}


F_PRESETS: dict[str, Callable[[], FSpec]] = {
    "zero": lambda: FSpec("zero", None),
    "bump_cos_t": lambda: FSpec(
        "bump_cos_t",
        lambda t, x: ((1.0 - x ** 2) ** 2 * np.cos(t)).astype(complex)),
}


def _smooth_bump(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    return out


H_PRESETS: dict[str, Callable[[], HSpec]] = {
    "parabola": lambda: HSpec("parabola", lambda x: 1.0 - x ** 2),
    "bump": lambda: HSpec("bump", _smooth_bump),
}


# Test functions for weak-error measurements in the sweep report.
PSI_PRESETS: list[tuple[str, Callable[[np.ndarray], np.ndarray]]] = [
    ("poly_bump", lambda x: (1.0 - x ** 2) ** 2),
    ("fourier_bump", lambda x: (1.0 - x ** 2) * np.cos(2 * np.pi * x)),
]


def _lookup(registry: dict, kind: str, name: str):
    try:
        return registry[name]
    except (KeyError, TypeError):  # TypeError: a name that is not hashable
        raise KeyError(f"unknown {kind} preset {name!r}; known: {sorted(registry)}") from None


def _theta_keys(name: str, params: dict) -> set[str]:
    """The parameters Theta preset ``name`` takes; ``scaled`` passes those it
    does not name (its ``**params``) on to its base, so it takes the base's too."""
    signature = inspect.signature(_lookup(THETA_PRESETS, "theta", name)).parameters
    keys = {k for k, p in signature.items() if p.kind is not p.VAR_KEYWORD}
    if len(keys) < len(signature):
        keys |= _theta_keys(params.get("base", signature["base"].default),
                            {k: v for k, v in params.items() if k not in keys})
    return keys


def get_theta(name: str, **params) -> ThetaSpec:
    """The Theta preset ``name`` built with ``params``; a parameter it does not
    take is a ValueError naming the preset and the parameters it takes."""
    unexpected = sorted(set(params) - (keys := _theta_keys(name, params)))
    if unexpected:
        raise ValueError(f"theta preset {name!r}: unknown parameters {unexpected}; "
                         f"accepted: {sorted(keys)}")
    try:
        return THETA_PRESETS[name](**params)
    except TypeError as exc:  # a parameter of a type the preset cannot use
        raise ValueError(f"theta preset {name!r}: {exc}") from exc


def get_v(name: str) -> VSpec:
    return _lookup(V_PRESETS, "potential", name)()


def get_f(name: str) -> FSpec:
    return _lookup(F_PRESETS, "forcing", name)()


def get_h(name: str) -> HSpec:
    return _lookup(H_PRESETS, "initial-datum", name)()
