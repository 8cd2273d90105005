"""Run configuration: strict JSON schema with defaults, preset binding, and a
canonical content hash for reproducibility manifests."""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .kernel import Grid1D, KernelParams
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


@dataclass
class RunConfig:
    """Fully resolved configuration with bound presets and a stable hash."""

    data: dict

    @classmethod
    def from_dict(cls, user: dict) -> "RunConfig":
        if not isinstance(user, dict):
            raise ConfigError("configuration must be a JSON object")
        rc = cls(data=_merge_strict(DEFAULTS, user))
        rc.validate()
        return rc

    # --- typed accessors -------------------------------------------------
    @property
    def alpha(self) -> float:
        return float(self.data["alpha"])

    @property
    def n(self) -> int:
        return int(self.data["grid"]["n"])

    @property
    def kernel_mode(self) -> str:
        return self.data["kernel_mode"]

    @property
    def T(self) -> float:
        return float(self.data["T"])

    @property
    def theta_scheme(self) -> float:
        return float(self.data["theta_scheme"])

    @property
    def seed(self) -> int:
        return int(self.data["seed"])

    def grid(self) -> Grid1D:
        return Grid1D.make(self.n)

    def cell_grid(self) -> CellGrid:
        c = self.data["cell"]
        return CellGrid(m=int(c["m"]), m_tau=int(c["m_tau"]), n_images=int(c["n_images"]))

    def theta_spec(self) -> presets.ThetaSpec:
        tp = self.data["theta_preset"]
        return presets.get_theta(tp["name"], **tp.get("params", {}))

    def v_spec(self) -> presets.VSpec:
        return presets.get_v(self.data["v_preset"])

    def f_spec(self) -> presets.FSpec:
        return presets.get_f(self.data["f_preset"])

    def h_spec(self) -> presets.HSpec:
        return presets.get_h(self.data["h_preset"])

    def noise(self) -> NoiseModel:
        g = self.data["g"]
        return NoiseModel(kind=g["kind"], sigma=float(g["sigma"]))

    def sim_config(self) -> SimConfig:
        return SimConfig(grid=self.grid(), alpha=self.alpha, T=self.T,
                         theta_scheme=self.theta_scheme, theta=self.theta_spec(),
                         v_spec=self.v_spec(), f_spec=self.f_spec(),
                         h_spec=self.h_spec(), noise=self.noise(),
                         kernel_mode=self.kernel_mode)

    # --- validation and hashing ------------------------------------------
    def validate(self) -> None:
        """Build the typed objects, which check their own fields, and check
        what no type owns: schema version, integer sizes, real-number types,
        dt rule, zero-mean potential."""
        d = self.data
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

        builders = (
            ("theta preset", self.theta_spec),
            ("potential preset", self.v_spec),
            ("cell", self.cell_grid),
            ("kernel", lambda: KernelParams(alpha=self.alpha, theta=self.theta_spec(),
                                            kernel_mode=self.kernel_mode)),
            ("simulation", self.sim_config),
        )
        for label, build in builders:
            try:
                build()
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{label}: {exc}") from exc

        v = self.v_spec()
        if not v.is_zero:
            worst = v.max_y_mean()
            if worst > 1e-12:
                raise ConfigError(
                    f"potential preset {v.name!r} has nonzero spatial mean "
                    f"(max |mean over y| = {worst:.2e}); the oscillating potential "
                    "must average to zero over the fast spatial variable")

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
        n_steps = max(1, math.ceil(self.T / raw - 1e-12))
        return self.T / n_steps, n_steps


def load_config(path: str | Path | None) -> RunConfig:
    """Load and validate a JSON config file; None gives the defaults."""
    if path is None:
        return RunConfig.from_dict({})
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        user = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(user)
