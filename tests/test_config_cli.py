"""Configuration validation, hashing, and CLI behavior including bitwise
reproducibility of rerun outputs."""

import json

import numpy as np
import pytest

from nshom import presets
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
        assert rc.cell.kernel_mode == "periodized"
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

    def test_kernel_mode_reaches_the_cell_grid(self):
        rc = RunConfig.from_dict({"kernel_mode": "cell_truncated"})
        assert rc.cell.kernel_mode == "cell_truncated"


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

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

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
        assert main(["coefficients", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["xi1"] == 1.0
        assert abs(payload["xi2"]) < 1e-8
        assert abs(payload["xi3"]) < 1e-8
        assert payload["kernel_mode"] == "periodized"

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

    def test_sweep_multi_eps(self, tmp_path):
        cfg = self._small_cfg(tmp_path, dt_rule={"kind": "eps_over", "factor": 8,
                                                 "default_dt": 0.0078125})
        out = tmp_path / "sweep2"
        assert main(["sweep", "--eps", "1/2,1/4", "--paths", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        table = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
        assert table.shape[0] == 2
        assert table[1, 1] < table[0, 1]  # strong error decreases

    def test_sweep_with_corrector_diagnostic_solves_the_cell_once(self, tmp_path,
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
                     "--corrector-diagnostic", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert len(json.loads((out / "corrector.json").read_text())) == 3

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
        # the partial report is still written for inspection
        assert (out / "sweep.csv").exists()

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

    @pytest.mark.parametrize("entry,cause", [
        (64j, "implicit matrix is singular, U[0, 0] is exactly zero"),
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

    def test_validate_passes_and_dumps_matrices(self, tmp_path, capsys):
        cfg = self._small_cfg(tmp_path)
        dump = tmp_path / "mats"
        assert main(["validate", "--config", str(cfg),
                     "--dump-matrices", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        mat = np.loadtxt(dump / "fractional_generator.csv", delimiter=",")
        assert mat.shape == (32, 32)
        assert np.max(np.abs(mat - mat.T)) < 1e-12
