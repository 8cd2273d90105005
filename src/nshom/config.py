"""Run configuration: strict JSON schema with defaults, parsed once into typed
objects, and a canonical content hash for reproducibility manifests.

``RunConfig.from_dict`` merges the user's JSON over DEFAULTS and builds the
Theta and V presets, the ``CellGrid`` and the ``SimConfig`` exactly once.
Each type checks its own fields (``ThetaSpec`` its bounds, ``CellGrid`` the
cell sizes and kernel mode, ``SimConfig`` alpha, T and theta_scheme,
``NoiseModel`` the noise), and its errors become ``ConfigError`` under the
label of what was being built. The same pass checks what no type owns: the
schema version, integer sizes, real-number types, the dt rule and V's zero
mean over the fast variable."""

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
        if isinstance(base[key], dict) and here not in _FREE_FORM:
            if not isinstance(val, dict):
                raise ConfigError(f"key {'.'.join(here)!r} must be an object")
            out[key] = _merge_strict(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _build(label: str, make):
    """make(), its errors reported as ConfigError under ``label``."""
    try:
        return make()
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _check_untyped(d: dict) -> None:
    """The checks no typed object owns: schema version, integer sizes,
    real-number types and the dt rule."""
    if d["schema_version"] != 1:
        raise ConfigError(f"unsupported schema_version {d['schema_version']!r}")
    sizes = {"grid.n": d["grid"]["n"], "seed": d["seed"],
             **{f"cell.{k}": v for k, v in d["cell"].items()}}
    for key, value in sizes.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    if d["grid"]["n"] < 4:
        raise ConfigError("grid.n must be at least 4")
    reals = {"alpha": d["alpha"], "T": d["T"], "theta_scheme": d["theta_scheme"],
             "g.sigma": d["g"]["sigma"]}
    for key, value in reals.items():
        if not _is_real(value):
            raise ConfigError(f"{key} must be a number, got {value!r}")

    rule = d["dt_rule"]
    if not isinstance(rule, dict) or "kind" not in rule:
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
        theta = _build("theta preset", lambda: presets.get_theta(tp["name"], **tp["params"]))
        v = _build("potential preset", lambda: presets.get_v(d["v_preset"]))
        cell = _build("cell", lambda: CellGrid(m=c["m"], m_tau=c["m_tau"], n_images=c["n_images"],
                                               kernel_mode=d["kernel_mode"]))
        sim = _build("simulation", lambda: SimConfig(
            grid=Grid1D.make(d["grid"]["n"]), alpha=float(d["alpha"]), T=float(d["T"]),
            theta_scheme=float(d["theta_scheme"]), theta=theta, v_spec=v,
            f_spec=presets.get_f(d["f_preset"]), h_spec=presets.get_h(d["h_preset"]),
            noise=NoiseModel(kind=g["kind"], sigma=float(g["sigma"]))))
        if not v.is_zero:
            worst = v.max_y_mean()
            if worst > 1e-12:
                raise ConfigError(
                    f"potential preset {v.name!r} has nonzero spatial mean "
                    f"(max |mean over y| = {worst:.2e}); the oscillating potential "
                    "must average to zero over the fast spatial variable")
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
        """Time step and step count: dt divides T exactly and respects the rule
        bound (dt <= eps / factor resolves the tau = t / eps oscillation)."""
        rule = self.data["dt_rule"]
        if rule["kind"] == "fixed":
            raw = float(rule["dt"])
        else:
            raw = float(rule["default_dt"]) if eps is None else eps / float(rule["factor"])
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
