"""Config parsing, command validation, artifacts, and exit codes."""

import csv
import json
import math

import pytest

from moranlimits import cli
from moranlimits.config import ConfigError, load_config, parse_config, validate_for_command
from moranlimits.model import MAX_RATE

BASE = {
    "schema_version": "1",
    "model": {"N": 100, "s": 1.0, "u": 0.5, "nu0": 0.5},
    "seed": 12345,
    "ode": {"z0": 0.1, "t_end": 1.0},
    "simulate": {"z0": 0.1, "t_end": 0.5, "n_paths": 5},
    "clt": {"z0": 0.1, "times": [0.25, 0.5], "n_paths": 20},
    "stationary": {"n_values": [50, 100]},
}


def make_config(tmp_path, overrides=None, drop=()):
    raw = json.loads(json.dumps(BASE))
    for key, value in (overrides or {}).items():
        outer, _, inner = key.partition(".")
        if inner:
            raw[outer][inner] = value
        else:
            raw[outer] = value
    for key in drop:
        outer, _, inner = key.partition(".")
        if inner:
            raw[outer].pop(inner, None)
        else:
            raw.pop(key, None)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def assert_no_artifact(out):
    assert not out.exists() or not any(out.iterdir())


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestConfigParsing:
    def test_defaults_materialised(self, tmp_path):
        config = load_config(make_config(tmp_path))
        assert config.seed == 12345
        ode = config.sections["ode"]
        assert ode.grid_step == 0.01
        assert ode.oracle_step == 1e-3
        sim = config.sections["simulate"]
        assert sim.grid_step == 0.025
        assert sim.store_paths is False
        stat = config.sections["stationary"]
        assert stat.epsilon == 0.05
        assert stat.n_values == (50, 100)

    def test_to_record_round_trips_through_json(self, tmp_path):
        config = load_config(make_config(tmp_path))
        record = json.loads(json.dumps(config.to_record()))
        assert record["model"]["N"] == 100
        assert record["clt"]["times"] == [0.25, 0.5]

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'extra'"):
            parse_config({**BASE, "extra": 1})

    def test_unknown_section_key(self, tmp_path):
        path = make_config(tmp_path, {"ode.weird": True})
        with pytest.raises(ConfigError, match="ode.weird"):
            load_config(path)

    def test_missing_model_key(self, tmp_path):
        path = make_config(tmp_path, drop=["model.nu0"])
        with pytest.raises(ConfigError, match="missing key 'model.nu0'"):
            load_config(path)

    def test_unknown_model_key(self, tmp_path):
        path = make_config(tmp_path, {"model.extra": 1})
        with pytest.raises(ConfigError, match="unknown key 'model.extra'"):
            load_config(path)

    def test_schema_version_mismatch(self, tmp_path):
        path = make_config(tmp_path, {"schema_version": "2"})
        with pytest.raises(ConfigError, match="unsupported schema_version"):
            load_config(path)

    def test_z0_range(self, tmp_path):
        path = make_config(tmp_path, {"ode.z0": 1.5})
        with pytest.raises(ConfigError, match="ode.z0"):
            load_config(path)

    def test_times_strictly_increasing(self, tmp_path):
        path = make_config(tmp_path, {"clt.times": [0.5, 0.5]})
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(path)

    def test_times_must_be_positive(self, tmp_path):
        path = make_config(tmp_path, {"clt.times": [0.0, 0.5]})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_epsilon_range(self, tmp_path):
        path = make_config(tmp_path, {"stationary.epsilon": 1.0})
        with pytest.raises(ConfigError, match="epsilon"):
            load_config(path)

    def test_grid_step_bounded_by_horizon(self, tmp_path):
        path = make_config(tmp_path, {"ode.grid_step": 2.0})
        with pytest.raises(ConfigError, match="grid_step"):
            load_config(path)

    def test_seed_bounds(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load_config(make_config(tmp_path, {"seed": -1}))
        with pytest.raises(ConfigError, match="seed"):
            load_config(make_config(tmp_path, {"seed": 2**64}))

    def test_missing_seed(self, tmp_path):
        path = make_config(tmp_path, drop=["seed"])
        with pytest.raises(ConfigError, match="missing key 'seed'"):
            load_config(path)

    def test_seed_override_fills_missing_seed(self, tmp_path):
        path = make_config(tmp_path, drop=["seed"])
        config = load_config(path, seed_override=7)
        assert config.seed == 7

    def test_overrides_win(self, tmp_path):
        config = load_config(make_config(tmp_path), seed_override=99)
        assert config.seed == 99

    def test_config_file_not_found(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestCommandValidation:
    def test_missing_section_names_command(self, tmp_path):
        config = load_config(make_config(tmp_path, drop=["clt"]))
        with pytest.raises(ConfigError, match="the clt command needs it"):
            validate_for_command(config, "clt")

    def test_mutation_free_model_blocks_long_run_commands(self, tmp_path, capsys):
        path = make_config(tmp_path, {"model.u": 0.0})
        for command in ("clt", "stationary"):
            out = tmp_path / command
            code = cli.main([command, "--config", str(path), "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert "u = 0" in err or "u > 0" in err
            assert "Traceback" not in err
            assert_no_artifact(out)
        # the flow itself is fine without noise
        assert cli.main(["ode", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_oracle_step_bounded_by_rk4_stability(self, tmp_path):
        largest = 2.785 / (1e3 + 0.5)
        config = load_config(
            make_config(tmp_path, {"model.s": 1e3, "ode.oracle_step": largest})
        )
        validate_for_command(config, "ode")
        config = load_config(
            make_config(tmp_path, {"model.s": 1e3, "ode.oracle_step": largest * 1.001})
        )
        with pytest.raises(ConfigError, match=repr(largest)):
            validate_for_command(config, "ode")

    def test_rate_cap_is_accepted(self, tmp_path):
        overrides = {"model.s": MAX_RATE, "model.u": MAX_RATE}
        config = load_config(make_config(tmp_path, overrides))
        assert config.model.s == config.model.u == MAX_RATE


class TestMainExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["ode", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_key_reports_and_exits_2(self, tmp_path, capsys):
        path = make_config(tmp_path, {"ode.weird": 1})
        code = cli.main(["ode", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "ode.weird" in capsys.readouterr().err

    def test_removed_threads_setting_exits_2(self, tmp_path, capsys):
        path = make_config(tmp_path, {"threads": 1})
        code = cli.main(["ode", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key 'threads'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["ode", "--config", str(path), "--threads", "2"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("s", [1e4, 3e3])
    def test_stiff_oracle_exits_2(self, tmp_path, capsys, s):
        path = make_config(tmp_path, {"model.s": s})
        code = cli.main(["ode", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'ode.oracle_step'" in err and "largest admissible step" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["ode", "simulate", "clt", "stationary"])
    @pytest.mark.parametrize(
        "overrides",
        [{"model.s": 1e300}, {"model.s": 1e200, "model.u": 1e200}],
        ids=["s=1e300", "s=u=1e200"],
    )
    def test_overflowing_rates_exit_2(self, tmp_path, capsys, command, overrides):
        path = make_config(tmp_path, overrides)
        out = tmp_path / "o"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: model: s must lie in [0, 1e+150]" in err
        assert "Traceback" not in err
        assert_no_artifact(out)

    @pytest.mark.parametrize("command", ["ode", "simulate", "clt", "stationary"])
    @pytest.mark.parametrize(
        "overrides",
        [{"model.s": 1e-200, "model.u": 1e-200}, {"model.s": 1e-200, "model.u": 0.0}],
        ids=["s=u=1e-200", "s=1e-200,u=0"],
    )
    def test_underflowing_discriminant_exits_2(self, tmp_path, capsys, command, overrides):
        path = make_config(tmp_path, overrides)
        out = tmp_path / "o"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        if overrides["model.u"] > 0.0 or command in ("ode", "simulate"):
            assert "discriminant D" in err  # clt and stationary check u > 0 first
        assert "Traceback" not in err
        assert_no_artifact(out)

    def test_subnormal_mutation_rate_names_s_and_u(self, tmp_path, capsys):
        path = make_config(tmp_path, {"model.s": 0.0, "model.u": 1e-320})
        out = tmp_path / "o"
        code = cli.main(["stationary", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "config error: the stationary variance diffusion(x_stable) / (2 relaxation_rate)"
            " overflows to inf at s = 0.0, u = 1e-320: the relaxation rate 1e-320 is too"
            " small to divide by\n"
        )
        assert_no_artifact(out)

    def test_other_exceptions_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a config error")

        monkeypatch.setattr(cli, "solve_deterministic", broken)
        path = make_config(tmp_path)
        with pytest.raises(RuntimeError, match="not a config error"):
            cli.main(["ode", "--config", str(path), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("s", [3000.0, 150.0])
    def test_stiff_clt_runs_with_finite_variance(self, tmp_path, capsys, s):
        # Sigma is in closed form, so a stiff variance equation needs no step bound
        path = make_config(tmp_path, {"model.s": s, "model.N": 50, "clt.n_paths": 8})
        code = cli.main(["clt", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "o" / "clt_report.json").read_text(encoding="utf-8"))
        sigma2 = [row["sigma2"] for row in report["results"]["rows"]]
        assert sigma2[0] == 0.0
        assert all(math.isfinite(value) and value > 0.0 for value in sigma2[1:])

    def test_clt_inside_variance_step_bound_runs(self, tmp_path, capsys):
        path = make_config(tmp_path, {"model.s": 99.0})
        code = cli.main(["clt", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0

    def test_clt_start_at_rounded_unstable_point_exits_2(self, tmp_path, capsys):
        # x_minus = -u nu0 / (s x_plus) is about -1e-310, so w(0) overflows at z0 = 0
        path = make_config(tmp_path, {"model.u": 1e-10, "model.nu0": 1e-300, "clt.z0": 0.0})
        out = tmp_path / "o"
        code = cli.main(["clt", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unstable point" in err and "Traceback" not in err
        assert_no_artifact(out)

    @pytest.mark.parametrize("key", ["model.s", "ode.t_end"])
    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys, key):
        path = make_config(tmp_path, {key: 10**400})
        code = cli.main(["ode", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_selfcheck_failure_maps_to_3(self, tmp_path, monkeypatch, capsys):
        from moranlimits import selfcheck

        def fake_run_all():
            return [
                selfcheck.CheckResult(
                    name="flow_vs_oracle", passed=False, detail="forced", metrics={}
                )
            ]

        monkeypatch.setattr(selfcheck, "run_all", fake_run_all)
        path = make_config(tmp_path)
        code = cli.main(
            ["selfcheck", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "FAIL flow_vs_oracle" in captured.out
        assert "FAILED" in captured.err


class TestOdeCommand:
    def test_run_and_artifacts(self, tmp_path, capsys):
        path = make_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["ode", "--config", str(path), "--out", str(out)]) == 0
        assert "ode:" in capsys.readouterr().out
        header, rows = read_csv(out / "ode_table.csv")
        assert header == ["t", "z_closed", "z_oracle", "abs_diff"]
        assert rows[0][0] == "0.0"
        assert float(rows[-1][0]) == 1.0
        report = json.loads((out / "ode_report.json").read_text(encoding="utf-8"))
        assert report["command"] == "ode"
        assert report["results"]["max_abs_diff"] < 1e-9
        assert report["results"]["equilibria"]["regime"] == "SELECTION"

    def test_neutral_model_constant_flow(self, tmp_path):
        path = make_config(tmp_path, {"model.s": 0.0, "model.u": 0.0})
        out = tmp_path / "out"
        assert cli.main(["ode", "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out / "ode_table.csv")
        assert all(float(row[1]) == 0.1 for row in rows)
        report = json.loads((out / "ode_report.json").read_text(encoding="utf-8"))
        assert report["results"]["regime"] == "NEUTRAL"
        assert report["results"]["equilibria"] is None

    def test_byte_determinism(self, tmp_path):
        path = make_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["ode", "--config", str(path), "--out", str(out_a)])
        cli.main(["ode", "--config", str(path), "--out", str(out_b)])
        for name in ("ode_table.csv", "ode_report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSimulateCommand:
    def test_artifacts(self, tmp_path, capsys):
        path = make_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert "simulate:" in capsys.readouterr().out
        header, rows = read_csv(out / "ensemble_table.csv")
        assert header == [
            "t",
            "z_ref",
            "mean_z",
            "var_z",
            "scaled_dev_mean",
            "scaled_dev_var",
        ]
        assert len(rows) == 21  # t_end 0.5 at grid_step 0.025
        report = json.loads((out / "ensemble_report.json").read_text(encoding="utf-8"))
        levels = report["results"]["frac_sup_above"]
        assert set(levels) == {"0.01", "0.02", "0.05", "0.1"}
        assert not (out / "ensemble_paths.csv").exists()

    def test_store_paths(self, tmp_path):
        path = make_config(tmp_path, {"simulate.store_paths": True})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "ensemble_paths.csv")
        assert header == ["path", "t", "k"]
        starts = [row for row in rows if row[1] == "0.0"]
        assert len(starts) == 5  # one t = 0 anchor row per path
        assert all(row[2] == "10" for row in starts)

    def test_store_paths_simulates_each_path_once(self, tmp_path, monkeypatch):
        path_seeds, ensembles = [], []
        simulate_path, run_ensemble = cli.simulate_path, cli.run_ensemble

        def path_spy(k0, t_end, rng_seed, params):
            path_seeds.append(rng_seed)
            return simulate_path(k0, t_end, rng_seed, params)

        def ensemble_spy(*args, **kwargs):
            ensembles.append(args)
            return run_ensemble(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_path", path_spy)
        monkeypatch.setattr(cli, "run_ensemble", ensemble_spy)
        path = make_config(tmp_path, {"simulate.store_paths": True})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert path_seeds == [[12345, p] for p in range(5)]
        assert ensembles == []

    def test_seed_override_changes_draws(self, tmp_path):
        path = make_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", str(path), "--out", str(out_a)])
        cli.main(
            ["simulate", "--config", str(path), "--seed", "777", "--out", str(out_b)]
        )
        a = (out_a / "ensemble_report.json").read_text(encoding="utf-8")
        b = (out_b / "ensemble_report.json").read_text(encoding="utf-8")
        assert json.loads(a)["seed"] == 12345
        assert json.loads(b)["seed"] == 777
        assert a != b


class TestCltCommand:
    def test_artifacts(self, tmp_path, capsys):
        path = make_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["clt", "--config", str(path), "--out", str(out)]) == 0
        assert "clt:" in capsys.readouterr().out
        header, rows = read_csv(out / "clt_table.csv")
        assert header == [
            "t",
            "scaled_mean",
            "scaled_var",
            "sigma2",
            "var_ratio",
            "ks_statistic",
        ]
        assert [row[0] for row in rows] == ["0.0", "0.25", "0.5"]
        assert rows[0][4] == ""  # no variance ratio at t = 0
        report = json.loads((out / "clt_report.json").read_text(encoding="utf-8"))
        assert report["results"]["k0"] == 10
        assert len(report["results"]["rows"]) == 3


class TestStationaryCommand:
    def test_artifacts(self, tmp_path, capsys):
        path = make_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["stationary", "--config", str(path), "--out", str(out)]) == 0
        assert "stationary:" in capsys.readouterr().out
        header, rows = read_csv(out / "stationary_pmf.csv")
        assert header == ["k", "probability"]
        assert len(rows) == 101
        total = sum(float(row[1]) for row in rows)
        assert total == pytest.approx(1.0, abs=1e-12)
        header, rows = read_csv(out / "stationary_sweep.csv")
        assert header[0] == "N"
        assert [row[0] for row in rows] == ["50", "100"]
        report = json.loads((out / "stationary_report.json").read_text(encoding="utf-8"))
        assert [entry["N"] for entry in report["results"]["sweep"]] == [50, 100]
        assert [entry["window_states"] for entry in report["results"]["sweep"]] == [51, 101]

    def test_billion_states_sums_a_window(self, tmp_path, capsys):
        path = make_config(tmp_path, {"stationary.n_values": [10**9]})
        out = tmp_path / "out"
        assert cli.main(["stationary", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "stationary_report.json").read_text(encoding="utf-8"))
        (entry,) = report["results"]["sweep"]
        assert entry["N"] == 10**9
        assert entry["window_states"] < 2 * 10**6
        assert abs(entry["empirical_var_scaled"] / entry["target"] - 1.0) < 1e-6
