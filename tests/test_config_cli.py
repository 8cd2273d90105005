"""Configuration validation, hashing, and CLI behavior including bitwise
reproducibility of rerun outputs."""

import argparse
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nshom import cli, presets
from nshom.cli import main, parse_fraction
from nshom.config import ConfigError, RunConfig, load_config


BAD_DT_RULES = [
    {"kind": "fixed", "dt": "abc"},
    {"kind": "fixed", "dt": None},
    {"kind": "fixed", "dt": "nan"},
    {"kind": "fixed", "dt": float("inf")},
    {"kind": "eps_over", "factor": "inf", "default_dt": 0.01},
    {"kind": "fixed", "dt": True},
]
# real-valued keys given as a string, a bool, or a non-finite number
BAD_REALS = [
    {"T": float("inf")},
    {"T": float("nan")},
    {"g": {"kind": "linear", "sigma": float("nan")}},
    {"g": {"kind": "linear", "sigma": True}},
    {"alpha": "1.5"},
    {"T": "1.5"},
    {"theta_scheme": "0.5"},
    {"g": {"kind": "bounded", "sigma": "1.5"}},
]


class TestRunConfig:
    def test_minimal_config_gets_defaults(self):
        rc = RunConfig.from_dict({"alpha": 1.5})
        assert rc.sim.grid.n == 256
        assert rc.data["kernel_mode"] == "periodized"
        assert rc.data["v_preset"] == "cos2pi_y_times_cos2pi_tau"

    def test_default_hash_is_stable(self):
        # the hash covers the merged data only, so parsing it leaves the hash as it was
        assert RunConfig.from_dict({}).config_hash == (
            "8247b1ba3d5e38302a1e6d298cc626c8e9d4550b647b934b5f4b68d6decadbd7")

    def test_each_preset_is_built_once(self, monkeypatch):
        calls = {"theta": 0, "v": 0}

        def counting(key, lookup):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return lookup(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(presets, "get_theta", counting("theta", presets.get_theta))
        monkeypatch.setattr(presets, "get_v", counting("v", presets.get_v))
        rc = RunConfig.from_dict({"theta_preset": {"name": "cosine_sum", "params": {}}})
        assert calls == {"theta": 1, "v": 1}
        assert rc.sim.theta.name == "cosine_sum"

    def test_potential_is_sampled_once(self, monkeypatch):
        # VSpec's own zero-mean check, on 512 y points times its 67-point tau
        # probe, is the only sample of V while the configuration is parsed
        shapes, sample = [], presets.VSpec.sample

        def recording(self, y, tau):
            out = sample(self, y, tau)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(presets.VSpec, "sample", recording)
        RunConfig.from_dict({})
        assert shapes == [(512, 67)]

    def test_parsed_objects_are_shared(self):
        rc = RunConfig.from_dict({"seed": 7, "cell": {"m": 32}})
        assert rc.sim_config() is rc.sim
        assert rc.seed == 7 and rc.cell.m == 32 and rc.cell.m_tau == 16
        assert not hasattr(rc, "validate")

    def test_hash_deterministic_and_order_invariant(self):
        a = RunConfig.from_dict({"alpha": 1.5, "grid": {"n": 64}, "T": 0.5})
        b = RunConfig.from_dict({"T": 0.5, "grid": {"n": 64}, "alpha": 1.5})
        assert a.config_hash == b.config_hash
        assert a.config_hash == RunConfig.from_dict(json.loads(a.canonical_json())).config_hash

    def test_hash_changes_with_content(self):
        a = RunConfig.from_dict({"alpha": 1.5})
        b = RunConfig.from_dict({"alpha": 1.25})
        assert a.config_hash != b.config_hash

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 2.5, 0.3])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ConfigError, match="alpha"):
            RunConfig.from_dict({"alpha": alpha})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key 'alpa'"):
            RunConfig.from_dict({"alpa": 1.5})
        with pytest.raises(ConfigError, match="grid.m"):
            RunConfig.from_dict({"grid": {"m": 10}})

    @pytest.mark.parametrize("user", [{"grid": {"n": "abc"}}, {"grid": {"n": 256.7}},
                                      {"seed": True}, {"cell": {"m_tau": 2.0}}])
    def test_non_integer_sizes_rejected(self, user):
        with pytest.raises(ConfigError, match="must be an integer"):
            RunConfig.from_dict(user)

    def test_nonzero_mean_potential_rejected(self):
        with pytest.raises(ConfigError, match="zero"):
            RunConfig.from_dict({"v_preset": "one_plus_cos"})

    def test_zero_mean_potential_accepted(self):
        rc = RunConfig.from_dict({"v_preset": "cos2pi_y_times_cos2pi_tau"})
        assert rc.sim.v_spec.name == "cos2pi_y_times_cos2pi_tau"

    def test_unknown_presets_rejected(self):
        with pytest.raises(ConfigError, match="potential preset"):
            RunConfig.from_dict({"v_preset": "mystery"})
        with pytest.raises(ConfigError, match="theta preset"):
            RunConfig.from_dict({"theta_preset": {"name": "mystery", "params": {}}})

    def test_dt_rule_resolution(self):
        rc = RunConfig.from_dict({"T": 1.0})
        dt, n_steps = rc.resolve_dt(eps=0.125)
        assert dt <= 0.125 / 8.0 + 1e-15
        assert n_steps * dt == pytest.approx(1.0, rel=1e-14)
        rc_fixed = RunConfig.from_dict({"dt_rule": {"kind": "fixed", "dt": 0.3}})
        dt, n_steps = rc_fixed.resolve_dt()
        assert n_steps == 4 and dt == pytest.approx(0.25)

    @pytest.mark.parametrize("eps", [1 / 2, 1 / 4, 1 / 8, 1 / 16])
    def test_dyadic_eps_keep_their_step(self, eps):
        # the benchmark's levels at T = 1 and factor 8: eps/8 divides T exactly
        n_steps = round(8.0 / eps)
        assert RunConfig.from_dict({}).resolve_dt(eps) == (1.0 / n_steps, n_steps)

    @pytest.mark.parametrize("eps, step", [(0.7, (1.0 / 12, 12)), (0.3, (1.0 / 30, 30))])
    def test_the_step_search_needs_two_periods(self, eps, step):
        # T/eps = 1.43 < 2: the rounding's 12 steps, where k = 14 would take 20
        # steps with 14 phases; T/eps = 3.33: k = 9 gives 30 steps of 9 phases
        assert RunConfig.from_dict({}).resolve_dt(eps) == step

    def test_eps_without_a_whole_step_count_keeps_the_rounding(self):
        # k/(pi^-1) = k pi is no whole number for any k in 8..16: ceil(8 pi) = 26 steps
        assert RunConfig.from_dict({}).resolve_dt(1.0 / math.pi) == (1.0 / 26, 26)

    def test_dt_rule_variants_validated(self):
        with pytest.raises(ConfigError, match="dt_rule"):
            RunConfig.from_dict({"dt_rule": {"kind": "fixed"}})
        with pytest.raises(ConfigError, match="dt_rule"):
            RunConfig.from_dict({"dt_rule": {"kind": "eps_over", "factor": 8,
                                             "default_dt": 0.01, "bogus": 1}})

    @pytest.mark.parametrize("rule", BAD_DT_RULES)
    def test_dt_rule_values_must_be_finite_positive_numbers(self, rule):
        with pytest.raises(ConfigError, match="finite positive number"):
            RunConfig.from_dict({"dt_rule": rule})

    @pytest.mark.parametrize("theta_s", [0.0, 0.25, 0.49, 1.01, float("nan")])
    def test_theta_scheme_outside_one_half_to_one_rejected(self, theta_s):
        with pytest.raises(ConfigError, match=r"theta_scheme must lie in \[1/2, 1\]"):
            RunConfig.from_dict({"theta_scheme": theta_s})

    @pytest.mark.parametrize("theta_s", [0.5, 1.0])
    def test_theta_scheme_bounds_accepted(self, theta_s):
        assert RunConfig.from_dict({"theta_scheme": theta_s}).sim.theta_scheme == theta_s

    def test_load_config_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"alpha": 1.25, "grid": {"n": 32}}))
        rc = load_config(cfg_path)
        assert rc.sim.alpha == 1.25 and rc.sim.grid.n == 32
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(bad)

    def test_load_config_on_a_directory_is_a_config_error(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path)
        assert main(["validate", "--config", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_kernel_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="kernel_mode"):
            RunConfig.from_dict({"kernel_mode": "bogus"})
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kernel_mode": "bogus"}))
        assert main(["coefficients", "--config", str(cfg)]) == 2

    def test_cell_truncated_kernel_mode_rejected(self, tmp_path, capsys):
        message = ("kernel_mode must be 'periodized', got 'cell_truncated': the unit-square "
                   "kernel was removed, it gave Xi_2 != 0 for Theta == 1")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kernel_mode": "cell_truncated"}))
        assert main(["coefficients", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        # the key stays, so configs that name the one mode keep parsing and hashing
        assert (RunConfig.from_dict({"kernel_mode": "periodized"}).config_hash
                == RunConfig.from_dict({}).config_hash)

    @pytest.mark.parametrize("user, message", [
        ({"grid": 5}, "key 'grid' must be an object"),
        ({"schema_version": 2}, "unsupported schema_version 2"),
        ({"grid": {"n": 3}}, "grid.n must be at least 4"),
        ({"dt_rule": {"dt": 0.1}}, "dt_rule must be an object with a 'kind'"),
        ({"dt_rule": {"kind": "adaptive"}}, "unknown dt_rule kind 'adaptive'"),
        ([1, 2], "configuration must be a JSON object"),
        ({"grid": {"n": 0}}, "grid.n must be at least 4"),
        ({"grid": {"n": 256.7}}, "grid.n must be an integer, got 256.7"),
        ({"cell": {"m": 7}}, "cell.m must be >= 8"),
        ({"cell": {"m_tau": 0}}, "cell.m_tau must be >= 1"),
        ({"cell": {"n_images": 0}}, "cell.n_images must be >= 1"),
        ({"cell": {"m_tau": 2.0}}, "cell.m_tau must be an integer, got 2.0"),
        ({"v_preset": "one_plus_cos"}, "potential preset 'one_plus_cos' has nonzero spatial "
                                       "mean (max |mean over y| = 1.00e+00)"),
        ({"theta_preset": {"name": "bogus", "params": {}}},
         "unknown theta preset 'bogus'; known: "
         "['cosine_product', 'cosine_shift', 'cosine_sum', 'one', 'scaled']"),
        ({"theta_preset": {"name": ["one"], "params": {}}},
         "unknown theta preset ['one']; known: "
         "['cosine_product', 'cosine_shift', 'cosine_sum', 'one', 'scaled']"),
        ({"theta_preset": {"name": "one", "params": 5}},
         "key 'theta_preset.params' must be an object"),
        ({"dt_rule": 5}, "key 'dt_rule' must be an object"),
        ({"theta_preset": {"name": "one", "params": {"amplitude": 0.5}}},
         "theta preset 'one': unknown parameters ['amplitude']; accepted: []"),
        ({"theta_preset": {"name": "cosine_sum", "params": {"amplitude": 1.0}}},
         "theta preset 'cosine_sum' needs finite bounds 0 < lower <= upper, equal to its "
         "constant if set; got (0.0, 2.0, None)"),
        ({"theta_preset": {"name": "scaled", "params": {"shift": 1}}},
         "theta preset 'scaled': unknown parameters ['shift']; "
         "accepted: ['amplitude', 'base', 'factor', 'offset']"),
    ])
    def test_rejected_config_exits_2_with_its_message(self, tmp_path, capsys, user, message):
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(user)
        assert str(exc.value) == message
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(user))
        assert main(["coefficients", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "o").exists()


class TestCliBasics:
    def test_parse_fraction(self):
        assert parse_fraction("1/2") == 0.5
        assert parse_fraction("0.25") == 0.25
        assert parse_fraction(" 1/16 ") == 0.0625

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["simulate"]) == 1  # --system required
        assert main(["simulate", "--system", "het"]) == 1  # --eps required for het

    def test_removed_corrector_flag_is_usage_error(self, capsys):
        # sweep always writes corrector.json; the flag that asked for it is gone
        assert main(["sweep", "--eps", "1/2", "--corrector-diagnostic"]) == 1
        assert "--corrector-diagnostic" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alpha": 5.0}))
        assert main(["coefficients", "--config", str(bad)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_unstable_theta_scheme_exits_2_naming_the_bound(self, tmp_path, capsys):
        # stepped at theta = 0.45, this noiseless run would reach norm^2 ~ 1.6e16 by T = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_scheme": 0.45, "g": {"kind": "zero", "sigma": 0.0}}))
        out = tmp_path / "out"
        assert main(["simulate", "--system", "eff", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "theta_scheme must lie in [1/2, 1]" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_every_subcommand_takes_config_and_out_and_dispatches(self, monkeypatch):
        required = {"cell": [], "coefficients": [], "simulate": ["--system", "eff"],
                    "sweep": ["--eps", "1/2"], "validate": []}
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(required)
        seen = []
        for name in required:
            monkeypatch.setattr(cli, f"_cmd_{name}", lambda args, name=name: seen.append(
                (name, args.command, args.config, args.out)) or 7)
        for name, extra in required.items():
            assert main([name, *extra, "--config", "c.json", "--out", "o"]) == 7
        assert seen == [(name, name, "c.json", "o") for name in required]

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_module_runs_from_a_checkout(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-m", "nshom", "--version"], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "nshom 0.1.0\n")

    @pytest.mark.parametrize("argv, config, code", [
        (["simulate", "--system", "het", "--eps", "abc"], {}, 1),
        (["simulate", "--system", "het", "--eps", "1/0"], {}, 1),
        (["simulate", "--system", "het", "--eps", "0"], {}, 1),
        (["simulate", "--system", "eff", "--snap-every", "-3"], {}, 1),
        (["simulate", "--system", "eff", "--eps", "1/8"], {}, 1),
        (["sweep", "--eps", "1/2", "--paths", "1"], {}, 2),
        (["sweep", "--eps", "1/4,1/2", "--paths", "2"], {}, 2),
        (["coefficients"], {"grid": {"n": "abc"}}, 2),
        (["coefficients"], {"grid": {"n": 256.7}}, 2),
        (["coefficients"], {"seed": True}, 2),
        *((["coefficients"], {"dt_rule": rule}, 2) for rule in BAD_DT_RULES),
        *((["simulate", "--system", "eff"], user, 2) for user in BAD_REALS),
        (["coefficients"], {"theta_preset": {"name": "one", "params": {"amplitude": 0.5}}}, 2),
        (["coefficients"], {"theta_preset": {"name": "scaled", "params": {
            "base": "one", "factor": 2.0, "amplitude": 0.5}}}, 2),
        # json.dumps writes NaN and Infinity, and json.loads reads them back
        *((argv, {"theta_preset": {"name": "scaled", "params": {"factor": float("nan")}}}, 2)
          for argv in (["coefficients"], ["cell"])),
        (["coefficients"], {"theta_preset": {"name": "cosine_sum", "params": {
            "offset": float("inf")}}}, 2),
    ])
    def test_invalid_input_exit_code_without_traceback(self, argv, config, code,
                                                       tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 32}, "cell": {"m": 32, "m_tau": 2},
                                   "T": 0.25, **config}))
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == code
        assert "Traceback" not in capsys.readouterr().err


class TestCliCommands:
    def _small_cfg(self, tmp_path, **overrides):
        data = {"alpha": 1.5, "grid": {"n": 32},
                "cell": {"m": 32, "m_tau": 2, "n_images": 4},
                "T": 0.25, "dt_rule": {"kind": "fixed", "dt": 1.0 / 32.0}}
        data.update(overrides)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(data))
        return p

    def test_coefficients_stdout_constant_theta(self, tmp_path, capsys):
        cfg = self._small_cfg(tmp_path)
        assert main(["coefficients", "--config", str(cfg),
                     "--out", str(tmp_path / "coefficients")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["xi1"] == 1.0
        assert abs(payload["xi2"]) < 1e-8
        assert abs(payload["xi3"]) < 1e-8
        assert "kernel_mode" not in payload

    def test_json_outputs_are_rendered_canonically(self, tmp_path, capsys):
        cfg = self._small_cfg(tmp_path, theta_preset={"name": "cosine_sum", "params": {}})
        runs = {"cell": ["cell"], "coefficients": ["coefficients"],
                "sweep": ["sweep", "--eps", "1/2,1/4", "--paths", "2"],
                "validate": ["validate"]}
        files = {"cell": ["manifest", "metadata"], "coefficients": ["coefficients", "manifest"],
                 "sweep": ["corrector", "fit", "manifest"], "validate": ["manifest", "validate"]}
        for name, argv in runs.items():
            main(argv + ["--config", str(cfg), "--out", str(tmp_path / name)])
            stdout = capsys.readouterr().out
            paths = sorted((tmp_path / name).glob("*.json"))
            assert [path.stem for path in paths] == files[name]
            texts = [path.read_text() for path in paths]
            if name == "coefficients":
                assert stdout == texts[0]
            for text in texts:
                assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_cell_outputs(self, tmp_path, capsys):
        cfg = self._small_cfg(tmp_path)
        out = tmp_path / "cellout"
        assert main(["cell", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "chi.csv").read_text().splitlines()
        assert lines[0] == "y,value"
        assert len(lines) == 1 + 32
        assert (out / "xi.csv").exists()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["chi_l2"] < 1e-10
        assert "kernel_mode" not in meta
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "cell"
        assert "config_hash" in manifest

    def test_simulate_writes_series_and_snapshots(self, tmp_path):
        cfg = self._small_cfg(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--system", "het", "--eps", "1/4",
                     "--seed", "7", "--config", str(cfg), "--out", str(out)]) == 0
        norms = np.loadtxt(out / "norms.csv", delimiter=",", skiprows=1)
        assert norms.shape[1] == 4
        snaps = sorted(out.glob("snap_*.csv"))
        assert snaps
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [7]
        assert manifest["parameters"]["system"] == "het"

    def test_simulate_effective_with_bump_datum(self, tmp_path, capsys):
        cfg = self._small_cfg(tmp_path, h_preset="bump")
        out = tmp_path / "bump"
        assert main(["simulate", "--system", "eff", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        norms = np.loadtxt(out / "norms.csv", delimiter=",", skiprows=1)
        assert norms[0, 1] == pytest.approx(1.0, rel=1e-14)
        assert np.all(np.isfinite(norms))

    def test_failing_cell_solve_exits_3(self, tmp_path, capsys, monkeypatch):
        # a zero cell form leaves the bordered system singular, so LAPACK's solve fails
        from nshom import cell

        monkeypatch.setattr(cell, "assemble_cell_form",
                            lambda theta, alpha, grid, sample=None: np.zeros((grid.m, grid.m)))
        cfg = self._small_cfg(tmp_path)
        assert main(["coefficients", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: constrained cell solve failed: Singular matrix\n")

    def test_simulate_manifest_records_factor_counts(self, tmp_path):
        # dt = eps/8 over 64 steps: eight phases factorized, each reused seven times
        cfg = self._small_cfg(tmp_path, T=2.0)
        out = tmp_path / "sim"
        assert main(["simulate", "--system", "het", "--eps", "1/4",
                     "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["n_steps"] == 64
        assert manifest["telemetry"] == {"factorizations": 8, "factor_hits": 56}

    @pytest.mark.parametrize("argv, snap_every, steps", [
        (["--snap-every", "3"], 3, [0, 3, 6]),
        ([], 2, [0, 2, 4, 6, 8]),  # the default interval n_steps // 4 of 8 steps
    ])
    def test_simulate_writes_a_snapshot_every_interval(self, tmp_path, argv, snap_every,
                                                       steps):
        cfg = self._small_cfg(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--system", "eff", *argv,
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("snap_*.csv")) == [
            f"snap_{k:06d}.csv" for k in steps]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["snap_every"] == snap_every

    def test_run_dir_defaults_to_the_out_root_variable(self, tmp_path, monkeypatch):
        cfg = self._small_cfg(tmp_path)
        monkeypatch.setenv("NSHOM_OUT", str(tmp_path))
        assert main(["simulate", "--system", "het", "--eps", "1/4", "--seed", "3",
                     "--config", str(cfg)]) == 0
        name = f"simulate-{load_config(str(cfg)).config_hash[:8]}-het-eps0.25-seed3"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", name]
        assert (tmp_path / name / "manifest.json").exists()

    def test_simulate_effective_manifest_records_cell_residual(self, tmp_path):
        cfg = self._small_cfg(tmp_path, theta_preset={"name": "cosine_sum", "params": {}})
        out = tmp_path / "sim"
        assert main(["simulate", "--system", "eff", "--config", str(cfg),
                     "--out", str(out)]) == 0
        telemetry = json.loads((out / "manifest.json").read_text())["telemetry"]
        assert set(telemetry) == {"factorizations", "factor_hits", "cell_residual"}
        assert 0.0 <= telemetry["cell_residual"] <= 1e-8

    def test_sweep_manifest_records_setup_telemetry(self, tmp_path):
        cfg = self._small_cfg(tmp_path, theta_preset={"name": "cosine_sum", "params": {}})
        out = tmp_path / "sweep"
        assert main(["sweep", "--eps", "1/2", "--paths", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        telemetry = json.loads((out / "manifest.json").read_text())["telemetry"]
        assert set(telemetry) == {"cell_residual", "prepare_s", "wall_s", "corrector_s",
                                  "reflection", "effective_solve"}
        assert telemetry["reflection"] == ["even half"]
        assert telemetry["effective_solve"] == ["factor"]
        assert 0.0 <= telemetry["cell_residual"] <= 1e-8
        assert telemetry["prepare_s"] > 0.0
        assert len(telemetry["wall_s"]) == 1 and telemetry["wall_s"][0] > 0.0
        assert telemetry["corrector_s"] > 0.0

    @pytest.mark.parametrize("overrides, reflection, solve", [
        # the default inputs are even; the folded G_eff has 256 nodes, within
        # EIGENBASIS_MAX_NODES, where the full 512 would take the factors
        ({}, "even half", "eigenbasis"),
        ({"theta_preset": {"name": "cosine_sum", "params": {}},
          "v_preset": "sin2pi_y_one_plus_sin2pi_tau"}, "full grid", "factor"),
    ])
    def test_sweep_telemetry_records_the_stepped_systems(self, tmp_path, overrides,
                                                         reflection, solve):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 512}, **overrides}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--eps", "1/2", "--paths", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        telemetry = json.loads((out / "manifest.json").read_text())["telemetry"]
        assert telemetry["reflection"] == [reflection]
        assert telemetry["effective_solve"] == [solve]

    def test_sweep_telemetry_reads_the_interval_between_marks(self, tmp_path, monkeypatch):
        # a fake clock at 0, 1, 3, 6, 10: set-up, two levels and the corrector
        # diagnostic each get the interval since the previous mark, not since the start
        clock = iter([0.0, 1.0, 3.0, 6.0, 10.0])
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        cfg = self._small_cfg(tmp_path)
        out = tmp_path / "sweep"
        assert main(["sweep", "--eps", "1/2,1/4", "--paths", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        telemetry = json.loads((out / "manifest.json").read_text())["telemetry"]
        assert telemetry["prepare_s"] == 1.0
        assert telemetry["wall_s"] == [2.0, 3.0]
        assert telemetry["corrector_s"] == 4.0

    def test_manifest_records_blas_environment(self, tmp_path, monkeypatch):
        import scipy

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        cfg = self._small_cfg(tmp_path)
        out = tmp_path / "env"
        assert main(["simulate", "--system", "eff", "--config", str(cfg), "--out", str(out)]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                  "MKL_NUM_THREADS": "3"}
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        for key, module in (("numpy_blas", np), ("scipy_blas", scipy)):
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            assert env[key] == {"name": blas["name"], "version": blas["version"]}
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        assert env["cpus"] == cpus >= 1

    def test_manifest_blas_build_is_null_without_show_config_dicts(self, tmp_path, monkeypatch):
        """numpy before 1.25 and scipy before 1.11 have no show_config mode."""
        import scipy

        def show_config():
            raise AssertionError("printed instead of returning a dict")

        monkeypatch.setattr(np, "show_config", show_config)
        monkeypatch.setattr(scipy, "show_config", show_config)
        cfg = self._small_cfg(tmp_path)
        out = tmp_path / "env"
        assert main(["simulate", "--system", "eff", "--config", str(cfg), "--out", str(out)]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["numpy_blas"] == env["scipy_blas"] == {"name": None, "version": None}
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__

    def test_simulate_rerun_reproduces_outputs_bitwise(self, tmp_path):
        cfg = self._small_cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--system", "eff", "--seed", "3",
                         "--config", str(cfg), "--out", str(out)]) == 0
        for f1 in sorted(out1.glob("*.csv")):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes(), f1.name

    def test_rerun_from_manifest_config(self, tmp_path):
        # the manifest's embedded config is sufficient to reproduce the run
        cfg = self._small_cfg(tmp_path)
        out1 = tmp_path / "orig"
        assert main(["simulate", "--system", "eff", "--seed", "5",
                     "--config", str(cfg), "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg2 = tmp_path / "from_manifest.json"
        cfg2.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / "redo"
        seed = manifest["seeds"][0]
        assert main(["simulate", "--system", "eff", "--seed", str(seed),
                     "--config", str(cfg2), "--out", str(out2)]) == 0
        assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()

    def test_sweep_outputs_and_single_eps_degenerate_fit(self, tmp_path):
        cfg = self._small_cfg(tmp_path)
        out = tmp_path / "sweep"
        assert main(["sweep", "--eps", "1/2", "--paths", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["degenerate"] is True
        table = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
        assert table.shape[0] == 1
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert header.split(",")[:3] == ["eps", "strong_err", "strong_se"]

    def test_sweep_fit_names_the_error_definition_and_test_functions(self, tmp_path):
        from nshom.harness import STRONG_ERROR_DEFINITION

        cfg = self._small_cfg(tmp_path)
        out = tmp_path / "sweep"
        assert main(["sweep", "--eps", "1/2", "--paths", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["definition"] == STRONG_ERROR_DEFINITION
        assert fit["psi"] == ["poly_bump", "fourier_bump"]

    def test_sweep_outputs_reproduce_byte_for_byte(self, tmp_path):
        # the seconds of each eps level go to the manifest, not to sweep.csv
        cfg = self._small_cfg(tmp_path, theta_preset={"name": "cosine_sum", "params": {}},
                              dt_rule={"kind": "eps_over", "factor": 8,
                                       "default_dt": 0.0078125})
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            assert main(["sweep", "--eps", "1/2,1/4,1/8", "--paths", "3",
                         "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("sweep.csv", "fit.json", "corrector.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        assert (outs[0] / "sweep.csv").read_text().splitlines()[0] == (
            "eps,strong_err,strong_se,weak_err_1,weak_err_2,excluded")
        for out in outs:
            walls = json.loads((out / "manifest.json").read_text())["telemetry"]["wall_s"]
            assert len(walls) == 3 and all(w > 0.0 for w in walls)

    def test_sweep_multi_eps(self, tmp_path):
        cfg = self._small_cfg(tmp_path, dt_rule={"kind": "eps_over", "factor": 8,
                                                 "default_dt": 0.0078125})
        out = tmp_path / "sweep2"
        assert main(["sweep", "--eps", "1/2,1/4", "--paths", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        table = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
        assert table.shape[0] == 2
        assert table[1, 1] < table[0, 1]  # strong error decreases

    def test_sweep_solves_the_cell_once_and_writes_the_corrector(self, tmp_path,
                                                                  monkeypatch):
        from nshom import harness

        solve, calls = harness.solve_cell_problem, []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(harness, "solve_cell_problem", counted)
        cfg = self._small_cfg(tmp_path, dt_rule={"kind": "eps_over", "factor": 8,
                                                 "default_dt": 0.0078125})
        out = tmp_path / "diag"
        assert main(["sweep", "--eps", "1/2,1/4,1/8", "--paths", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert len(calls) == 1
        diags = json.loads((out / "corrector.json").read_text())
        assert [d["eps"] for d in diags] == [0.5, 0.25, 0.125]
        assert all(sorted(d) == ["eps", "gradient_error", "residual"] for d in diags)

    @pytest.mark.parametrize("eps, paths", [("1/2", "1"), ("1/4,1/2", "2"), (",", "2")])
    def test_sweep_rejects_bad_arguments_before_setup(self, tmp_path, monkeypatch, eps, paths):
        from nshom import cli

        calls = []
        monkeypatch.setattr(cli, "prepare_experiment", lambda *args: calls.append(args))
        cfg = self._small_cfg(tmp_path)
        out = tmp_path / "never"
        assert main(["sweep", "--eps", eps, "--paths", paths,
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert calls == []
        assert not out.exists()

    def test_sweep_numerical_failure_exit_code(self, tmp_path, capsys):
        # strong linear noise at a coarse fixed dt diverges every path, the
        # exclusion policy trips, and the CLI maps it to exit code 3
        cfg = self._small_cfg(tmp_path, grid={"n": 48}, g={"kind": "linear", "sigma": 200.0},
                              T=0.5, dt_rule={"kind": "fixed", "dt": 1.0 / 32.0})
        out = tmp_path / "failed_sweep"
        with pytest.warns(UserWarning, match="diverged"):
            code = main(["sweep", "--eps", "1/2,1/4", "--paths", "2",
                         "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "excluded" in capsys.readouterr().err
        # the partial report is still written for inspection, with the seconds
        # of the set-up and of each eps level that ran
        assert (out / "sweep.csv").exists()
        telemetry = json.loads((out / "manifest.json").read_text())["telemetry"]
        assert set(telemetry) == {"cell_residual", "prepare_s", "wall_s", "reflection",
                                  "effective_solve"}
        assert telemetry["reflection"] == ["even half"] * 2
        assert telemetry["effective_solve"] == ["eigenbasis"] * 2
        assert len(telemetry["wall_s"]) == 2 and all(w > 0.0 for w in telemetry["wall_s"])
        assert not (out / "corrector.json").exists()

    def test_sweep_failed_factorization_exit_code(self, tmp_path, capsys, monkeypatch):
        from nshom import integrator

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(integrator, "lu_factor", singular)
        cfg = self._small_cfg(tmp_path)
        code = main(["sweep", "--eps", "1/2", "--paths", "2",
                     "--config", str(cfg), "--out", str(tmp_path / "singular")])
        assert code == 3
        assert "factorization failed" in capsys.readouterr().err

    def test_sweep_failed_eigendecomposition_exit_code(self, tmp_path, capsys, monkeypatch):
        # Theta = 1: the symmetric G_eff is stepped in its eigenbasis
        from nshom import integrator

        monkeypatch.setattr(integrator, "dsyevd",
                            lambda a, **kwargs: (np.zeros(len(a)), np.zeros_like(a), 5))
        cfg = self._small_cfg(tmp_path)
        code = main(["sweep", "--eps", "1/2", "--paths", "2",
                     "--config", str(cfg), "--out", str(tmp_path / "failed")])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: effective system: eigendecomposition failed (dsyevd info 5)\n")

    def test_sweep_singular_symmetric_implicit_matrix_exit_3(self, tmp_path, capsys,
                                                              monkeypatch):
        # theta dt = 1/64 in the small config and V = 0, so G = 64i e_5 e_5^T
        # is symmetric and zeroes D[5, 5] of the two-path L D L^T factor
        from nshom import harness

        def singular(grid, params):
            g = np.zeros((grid.n, grid.n), dtype=complex)
            g[5, 5] = 64j
            return g

        monkeypatch.setattr(harness, "assemble_heterogeneous_generator", singular)
        cfg = self._small_cfg(tmp_path, v_preset="zero")
        code = main(["sweep", "--eps", "1/2", "--paths", "2",
                     "--config", str(cfg), "--out", str(tmp_path / "singular")])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: heterogeneous system at eps=0.5, phase None: "
            "implicit matrix is singular, pivot 5 of its L D L^T factor (D[5, 5]) is exactly "
            "zero; a position after row interchanges, not a grid node\n")

    @pytest.mark.parametrize("entry,cause", [
        (64j, "implicit matrix is singular, pivot 0 of its LU factor (U[0, 0]) is exactly "
              "zero; a position after column interchanges, not a grid node"),
        (np.nan, "implicit matrix is not finite")])
    def test_simulate_singular_implicit_matrix_exit_3(self, tmp_path, capsys, monkeypatch,
                                                       entry, cause):
        # theta dt = 1/64 in the small config, so 64i cancels the identity exactly
        from nshom import integrator

        monkeypatch.setattr(integrator, "assemble_effective_generator",
                            lambda coeffs, grid, alpha: entry * np.eye(grid.n))
        cfg = self._small_cfg(tmp_path)
        code = main(["simulate", "--system", "eff", "--config", str(cfg),
                     "--out", str(tmp_path / "singular")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"numerical failure: effective system, phase None: {cause}\n")

    def test_out_of_memory_is_one_line_exit_3(self, tmp_path, capsys, monkeypatch):
        # stands in for a grid too large to assemble; a real allocation of
        # that size could wake the host's OOM killer
        from nshom import integrator

        def too_large(grid, params):
            raise MemoryError("Unable to allocate 671. GiB for an array")

        monkeypatch.setattr(integrator, "assemble_heterogeneous_generator", too_large)
        cfg = self._small_cfg(tmp_path)
        code = main(["simulate", "--system", "het", "--eps", "1/2",
                     "--config", str(cfg), "--out", str(tmp_path / "oom")])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "out of memory: Unable to allocate 671. GiB for an array\n"

    VALIDATE_ROW_NAMES = (
        "kernel point values", "exterior weight closed form vs quadrature",
        "two-point field swap symmetry", "generator symmetric PSD", "quadratic form identity",
        "effective generator vs dense product", "L (1-x^2)^(alpha/2) vs Getoor closed form",
        "zeta(1-x^2) vs closed form", "R x vs closed form", "R x^2 vs closed form",
        "constant-coefficient corrector vanishes", "manufactured corrector recovery",
        "periodic Poisson residual", "norm conservation (g = f = 0)",
        "Ito norm growth magnitude", "counter-based path determinism")

    # the tolerance each row's oracle returns at alpha = 1.5 and n = 256, 32; the
    # n = 32 value of the zeta row is widened by (256/32)^1.5, the Getoor row's by
    # (256/32)^1.75 and R x^2's by (256/32)^2.25
    VALIDATE_TOLERANCES = {
        "kernel point values": (1e-15, 1e-15),
        "exterior weight closed form vs quadrature": (1e-8, 1e-8),
        "two-point field swap symmetry": (0.0, 0.0),
        "generator symmetric PSD": (1e-10, 1e-10),
        "quadratic form identity": (1e-12, 1e-12),
        "effective generator vs dense product": (1e-14, 1e-14),
        "L (1-x^2)^(alpha/2) vs Getoor closed form": (3e-4, 0.011416388304026122),
        "zeta(1-x^2) vs closed form": (1e-4, 0.002262741699796952),
        "R x vs closed form": (1e-14, 1e-14),
        "R x^2 vs closed form": (3e-5, 0.0032290422345742638),
        "constant-coefficient corrector vanishes": (1e-10, 1e-10),
        "manufactured corrector recovery": (1e-8, 1e-8),
        "periodic Poisson residual": (1e-8, 1e-8),
        "norm conservation (g = f = 0)": (1e-8, 1e-8),
        "Ito norm growth magnitude": (0.25, 0.25),
        "counter-based path determinism": (0.0, 0.0),
    }

    @pytest.mark.parametrize("n", [256, 32])
    def test_validate_tolerances_are_pinned(self, monkeypatch, n):
        """Every row's oracle, called as ``nshom validate`` calls it, returns
        its tolerance in the table, so a loosened tolerance fails here."""
        from nshom import cli
        returned = {}

        def recording(name, oracle):
            @functools.wraps(oracle)
            def wrapped(**inputs):
                measured, returned[name] = oracle(**inputs)
                return measured, returned[name]
            return wrapped

        monkeypatch.setattr(cli, "VALIDATE_ROWS",
                            tuple((name, recording(name, o)) for name, o in cli.VALIDATE_ROWS))
        cli._validate_checks(RunConfig.from_dict({"alpha": 1.5, "grid": {"n": n}}))
        column = 0 if n == 256 else 1
        assert list(returned) == list(self.VALIDATE_ROW_NAMES)
        assert returned == pytest.approx(
            {name: tols[column] for name, tols in self.VALIDATE_TOLERANCES.items()},
            rel=1e-12, abs=0.0)

    def test_validate_passes_and_dumps_matrices(self, tmp_path, capsys):
        cfg = self._small_cfg(tmp_path)
        dump = tmp_path / "mats"
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v"),
                     "--dump-matrices", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        rows = json.loads((tmp_path / "v" / "validate.json").read_text())
        assert [(r["check"], r["passed"]) for r in rows] == [
            (name, True) for name in self.VALIDATE_ROW_NAMES]
        mat = np.loadtxt(dump / "fractional_generator.csv", delimiter=",")
        assert mat.shape == (32, 32)
        assert np.max(np.abs(mat - mat.T)) < 1e-12

    def test_validate_dumps_the_generators_bitwise(self, tmp_path, capsys):
        # %.17e round-trips every double, so the CSVs read back bit for bit
        from nshom.kernel import KernelParams, assemble_heterogeneous_generator
        from nshom.presets import get_theta

        cfg = self._small_cfg(tmp_path, grid={"n": 16},
                              theta_preset={"name": "cosine_sum", "params": {}})
        dump = tmp_path / "mats"
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v"),
                     "--dump-matrices", str(dump)]) == 0
        capsys.readouterr()
        rc = load_config(str(cfg))
        expected = {
            "fractional_generator.csv": assemble_heterogeneous_generator(
                rc.sim.grid, KernelParams(alpha=rc.sim.alpha, theta=get_theta("one"))),
            "heterogeneous_generator.csv": assemble_heterogeneous_generator(
                rc.sim.grid, KernelParams(alpha=rc.sim.alpha, theta=rc.sim.theta, epsilon=0.5)),
        }
        assert not np.array_equal(*expected.values())
        for name, mat in expected.items():
            assert np.array_equal(np.loadtxt(dump / name, delimiter=","), mat), name

    CLOSED_FORM_ROWS = ("L (1-x^2)^(alpha/2) vs Getoor closed form", "zeta(1-x^2) vs closed form")

    @pytest.mark.parametrize("alpha", [1.25, 1.75])
    def test_validate_closed_form_rows_pass_at_n_256(self, tmp_path, capsys, alpha):
        """At n = 256 the two closed-form rows hold their stated tolerances,
        3e-4 (L) and 1e-4 (zeta), at the config's alpha."""
        cfg = self._small_cfg(tmp_path, alpha=alpha, grid={"n": 256})
        out = tmp_path / "validate"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = {r["check"]: r for r in json.loads((out / "validate.json").read_text())}
        for name, tol in zip(self.CLOSED_FORM_ROWS, ("tol 3.0e-04 at n=256", "tol 1.0e-04 at n=256")):
            assert rows[name]["passed"], rows[name]
            assert rows[name]["detail"].endswith(tol)

    @pytest.mark.parametrize("bad", ["above", "nan"])
    @pytest.mark.parametrize("name", VALIDATE_ROW_NAMES)
    def test_validate_row_fails_alone(self, tmp_path, capsys, monkeypatch, name, bad):
        """An oracle measuring above its tolerance, or NaN, fails its row and no other."""
        from nshom import cli
        rows = dict(cli.VALIDATE_ROWS)

        @functools.wraps(rows[name])
        def forced(**inputs):
            tol = rows[name](**inputs)[1]
            return (tol + 1.0 if bad == "above" else np.nan), tol

        monkeypatch.setattr(cli, "VALIDATE_ROWS", tuple({**rows, name: forced}.items()))
        out = tmp_path / "v"
        assert main(["validate", "--config", str(self._small_cfg(tmp_path)),
                     "--out", str(out)]) == 2
        failed = [line for line in capsys.readouterr().out.splitlines() if "  FAIL  " in line]
        assert len(failed) == 1 and failed[0].startswith(name + " ")
        assert [r["check"] for r in json.loads((out / "validate.json").read_text())
                if not r["passed"]] == [name]
