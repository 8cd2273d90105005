"""Run configuration: strict JSON schema with defaults, parsed once into typed
objects, and a canonical content hash for reproducibility manifests.

``RunConfig.from_dict`` merges the user's JSON over DEFAULTS and builds the
Theta and V presets, the ``Grid1D``, the ``CellGrid`` and the ``SimConfig``
exactly once. Each type checks its own fields and names its subject in its
message (``ThetaSpec`` its bounds and symmetry, ``VSpec`` V's zero mean over
the fast variable, ``Grid1D`` and ``CellGrid`` their integer sizes,
``SimConfig`` alpha, T and theta_scheme, ``NoiseModel`` the noise); any such
error becomes a ``ConfigError`` with the same message. The same pass checks
what no type owns: the schema version, the seed, grid.n >= 4, real-number
types, the dt rule and the kernel mode. ``kernel_mode`` accepts only
``"periodized"``; it stays a key so that existing configs and their hashes
keep working."""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .kernel import Grid1D
from .cell import CellGrid
from .integrator import NoiseModel, SimConfig
from . import presets


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


DEFAULTS: dict = {
    "schema_version": 1,
    "alpha": 1.5,
    "grid": {"n": 256},
    "cell": {"m": 128, "m_tau": 16, "n_images": 8},
    "kernel_mode": "periodized",
    "theta_preset": {"name": "one", "params": {}},
    "v_preset": "cos2pi_y_times_cos2pi_tau",
    "g": {"kind": "bounded", "sigma": 0.5},
    "f_preset": "zero",
    "h_preset": "parabola",
    "T": 1.0,
    "dt_rule": {"kind": "eps_over", "factor": 8.0, "default_dt": 1.0 / 128.0},
    "theta_scheme": 0.5,
    "seed": 0,
}

# Keys whose dict values are replaced wholesale rather than merged: preset
# parameters are preset-specific, and dt_rule is a variant record whose keys
# depend on its kind (validated separately).
_FREE_FORM = {("theta_preset", "params"), ("dt_rule",)}
# the numeric keys each dt_rule kind requires
_DT_RULE_KEYS = {"fixed": ("dt",), "eps_over": ("factor", "default_dt")}
# how close k T/eps must come to a whole number for the eps_over rule to take
# dt = eps/k: then n_steps dt lies within this fraction of T, inside the
# 1e-10 relative coverage check of ``integrator.simulate``
STEP_RULE_RTOL = 1e-10


def _is_real(value) -> bool:
    """An int or float from JSON; bool is an int subclass but not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _merge_strict(base: dict, user: dict, path: tuple = ()) -> dict:
    out = copy.deepcopy(base)
    for key, val in user.items():
        if key not in base:
            where = ".".join(path + (str(key),))
            raise ConfigError(f"unknown configuration key {where!r}")
        here = path + (key,)
        if isinstance(base[key], dict) and not isinstance(val, dict):
            raise ConfigError(f"key {'.'.join(here)!r} must be an object")
        if isinstance(base[key], dict) and here not in _FREE_FORM:
            out[key] = _merge_strict(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _check_untyped(d: dict) -> None:
    """The checks no typed object owns: schema version, kernel mode, seed,
    grid.n >= 4, real-number types and the dt rule."""
    if d["schema_version"] != 1:
        raise ConfigError(f"unsupported schema_version {d['schema_version']!r}")
    if d["kernel_mode"] != "periodized":
        raise ConfigError(f"kernel_mode must be 'periodized', got {d['kernel_mode']!r}: the "
                          "unit-square kernel was removed, it gave Xi_2 != 0 for Theta == 1")
    if not isinstance(d["seed"], int) or isinstance(d["seed"], bool):
        raise ConfigError(f"seed must be an integer, got {d['seed']!r}")
    # Grid1D.make rejects a non-integer n (bool included) and allows n >= 1
    if type(d["grid"]["n"]) is int and d["grid"]["n"] < 4:
        raise ConfigError("grid.n must be at least 4")
    reals = {"alpha": d["alpha"], "T": d["T"], "theta_scheme": d["theta_scheme"],
             "g.sigma": d["g"]["sigma"]}
    for key, value in reals.items():
        if not _is_real(value):
            raise ConfigError(f"{key} must be a number, got {value!r}")

    rule = d["dt_rule"]
    if "kind" not in rule:
        raise ConfigError("dt_rule must be an object with a 'kind'")
    kind = rule["kind"]
    if not isinstance(kind, str) or kind not in _DT_RULE_KEYS:
        raise ConfigError(f"unknown dt_rule kind {kind!r}")
    for key in _DT_RULE_KEYS[kind]:
        value = rule.get(key)
        if not _is_real(value) or not math.isfinite(value) or value <= 0:
            raise ConfigError(f"{kind} dt_rule requires a finite positive number "
                              f"{key!r}, got {value!r}")
    stray = set(rule) - {"kind", *_DT_RULE_KEYS[kind]}
    if stray:
        raise ConfigError(f"unknown dt_rule keys {sorted(stray)}")


@dataclass(frozen=True)
class RunConfig:
    """The merged configuration ``data`` (what the manifest records and the
    hash covers) and the typed objects parsed from it, each built once."""

    data: dict
    sim: SimConfig
    cell: CellGrid
    seed: int

    @classmethod
    def from_dict(cls, user: dict) -> "RunConfig":
        """Merge ``user`` over DEFAULTS and parse it once (module docstring)."""
        if not isinstance(user, dict):
            raise ConfigError("configuration must be a JSON object")
        d = _merge_strict(DEFAULTS, user)
        _check_untyped(d)
        tp, c, g = d["theta_preset"], d["cell"], d["g"]
        try:
            cell = CellGrid(m=c["m"], m_tau=c["m_tau"], n_images=c["n_images"])
            sim = SimConfig(
                grid=Grid1D.make(d["grid"]["n"]), alpha=float(d["alpha"]), T=float(d["T"]),
                theta_scheme=float(d["theta_scheme"]),
                theta=presets.get_theta(tp["name"], **tp["params"]),
                v_spec=presets.get_v(d["v_preset"]),
                f_spec=presets.get_f(d["f_preset"]), h_spec=presets.get_h(d["h_preset"]),
                noise=NoiseModel(kind=g["kind"], sigma=float(g["sigma"])))
        except (KeyError, TypeError, ValueError) as exc:
            # each type's message names its subject; args[0] drops a KeyError's repr quotes
            raise ConfigError(exc.args[0]) from exc
        return cls(data=d, sim=sim, cell=cell, seed=d["seed"])

    def sim_config(self) -> SimConfig:
        """The parsed SimConfig; kept because perfbench/workloads.py calls it."""
        return self.sim

    # --- hashing and the time step ---------------------------------------
    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def resolve_dt(self, eps: float | None = None) -> tuple[float, int]:
        """Time step and step count. The eps_over rule at eps with T/eps >= 2
        takes dt = eps/k for the smallest integer k from ceil(factor) to
        2 ceil(factor) that makes k T/eps a whole number of steps (to
        STEP_RULE_RTOL), so that the potential's phase t/eps cycles every k
        steps and its factors are reused. Below two periods a phase recurs at
        most once, so such a k could only add steps. Without such a k, and for
        the other rules, dt is the largest step within the rule's bound that
        divides T exactly (dt <= eps/factor resolves the tau = t/eps
        oscillation)."""
        rule = self.data["dt_rule"]
        if rule["kind"] == "fixed":
            raw = float(rule["dt"])
        elif eps is None:
            raw = float(rule["default_dt"])
        else:
            if self.sim.T >= 2.0 * eps:
                least = math.ceil(float(rule["factor"]))
                for k in range(least, 2 * least + 1):
                    steps = k * self.sim.T / eps
                    if abs(steps - round(steps)) <= STEP_RULE_RTOL * steps:
                        return eps / k, round(steps)
            raw = eps / float(rule["factor"])
        n_steps = max(1, math.ceil(self.sim.T / raw - 1e-12))
        return self.sim.T / n_steps, n_steps


def load_config(path: str | Path | None) -> RunConfig:
    """Load and validate a JSON config file; None gives the defaults."""
    if path is None:
        return RunConfig.from_dict({})
    p = Path(path)
    try:
        text = p.read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(user)
