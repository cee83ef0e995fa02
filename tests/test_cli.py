"""Config parsing, command validation, artifacts, and exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moranlimits
from moranlimits import cli, simulate
from moranlimits import config as config_module
from moranlimits import io as mio
from moranlimits.config import ConfigError, load_config, parse_config, validate_for_command
from moranlimits.model import MAX_RATE, max_jump_rate

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "reference.json").read_text(encoding="utf-8")
)

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: [], "top level of the config must be a JSON object"),
            (lambda raw: {**raw, "schema_version": 1}, "'schema_version' must be a string, got 1"),
            (lambda raw: {**raw, "model": []}, "'model' must be an object with keys N, s, u, nu0"),
            (lambda raw: {**raw, "ode": []}, "'ode' must be an object"),
            (
                lambda raw: {**raw, "simulate": {**raw["simulate"], "store_paths": 1}},
                "'simulate.store_paths' must be true or false, got 1",
            ),
            (
                lambda raw: {**raw, "clt": {**raw["clt"], "times": 1.0}},
                "'clt.times' must be a non-empty list of times",
            ),
        ],
        ids=["top-level", "schema-version", "model", "section", "store-paths", "times"],
    )
    def test_value_of_the_wrong_type(self, edit, message):
        with pytest.raises(ConfigError) as err:
            parse_config(edit(BASE))
        assert str(err.value) == message

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

    def test_ode_work_budget(self, tmp_path):
        # t_end / min(oracle_step, grid_step) may reach 10^7, and no more
        at_budget = {"ode.t_end": 1e7, "ode.grid_step": 1.0, "ode.oracle_step": 1.0}
        validate_for_command(load_config(make_config(tmp_path, at_budget)), "ode")
        for key, value in [
            ("ode.t_end", math.nextafter(1e7, math.inf)),
            ("ode.grid_step", 0.5),
            ("ode.oracle_step", 0.5),
        ]:
            config = load_config(make_config(tmp_path, {**at_budget, key: value}))
            with pytest.raises(ConfigError, match="exceeds the budget"):
                validate_for_command(config, "ode")

    def test_simulate_grid_budget(self, tmp_path):
        # the memory budget refuses 10^7 grid rows, and so every longer
        # grid: the report's 1280 B a grid row alone come to 1.28e10 bytes
        at_budget = {"simulate.t_end": 1e7, "simulate.grid_step": 1.0}
        with pytest.raises(ConfigError, match="bytes exceeds the memory budget"):
            validate_for_command(load_config(make_config(tmp_path, at_budget)), "simulate")
        for key, value in [
            ("simulate.t_end", math.nextafter(1e7, math.inf)),
            ("simulate.grid_step", math.nextafter(1.0, 0.0)),
        ]:
            config = load_config(make_config(tmp_path, {**at_budget, key: value}))
            with pytest.raises(ConfigError, match="bytes exceeds the memory budget"):
                validate_for_command(config, "simulate")

    @pytest.mark.parametrize("command", ["simulate", "clt", "stationary"])
    def test_chain_table_budget(self, tmp_path, command):
        # N + 1 rate-table rows (or stationary's pmf rows) may reach 10^7, and no more
        rows = "pmf rows" if command == "stationary" else "rate-table rows"
        validate_for_command(load_config(make_config(tmp_path, {"model.N": 10**7 - 1})), command)
        config = load_config(make_config(tmp_path, {"model.N": 10**7}))
        with pytest.raises(ConfigError, match=f"'model.N' \\+ 1 = 10000001 {rows}"):
            validate_for_command(config, command)

    @pytest.mark.parametrize("command", ["simulate", "clt"])
    def test_chain_event_budget(self, tmp_path, command):
        # s = u = 0 gives max_jump_rate 1/2, so 20 paths of N = 10^5 to
        # t = 10^4 make exactly 10^10 events, the budget
        horizon = {
            "simulate": lambda t: {"simulate.t_end": t, "simulate.grid_step": 1.0},
            "clt": lambda t: {"clt.times": [t]},
        }[command]
        at_budget = {"model.N": 10**5, "model.s": 0.0, "model.u": 0.0, f"{command}.n_paths": 20}
        validate_for_command(
            load_config(make_config(tmp_path, {**at_budget, **horizon(1e4)})), command
        )
        for overrides in [
            {**at_budget, **horizon(math.nextafter(1e4, math.inf))},
            {**at_budget, **horizon(1e4), f"{command}.n_paths": 21},
            {**at_budget, **horizon(1e4), "model.N": 10**5 + 1},
            {**at_budget, **horizon(1e4), "model.s": 1e-9},
            {**at_budget, **horizon(1e4), f"{command}.n_paths": 10**400},
        ]:
            config = load_config(make_config(tmp_path, overrides))
            with pytest.raises(ConfigError, match="events exceeds the budget of 1e\\+10"):
                validate_for_command(config, command)

    @pytest.mark.parametrize("command", ["simulate", "clt"])
    def test_chain_memory_budget(self, tmp_path, command):
        # 10 grid rows make 192 + 32 * 10 = 512 bytes a path, and the rows
        # 1280 * 10 bytes for simulate or 3072 * 10 for clt, so 2,097,127
        # or 2,097,092 paths fill the 2^30-byte budget exactly
        rows, n_paths = {
            "simulate": ({"simulate.t_end": 4.0, "simulate.grid_step": 0.5}, 2_097_127),  # 8 + 2
            "clt": ({"clt.times": [0.01 * (i + 1) for i in range(9)]}, 2_097_092),  # 0 and 9 times
        }[command]
        at_budget = {**rows, f"{command}.n_paths": n_paths}
        validate_for_command(load_config(make_config(tmp_path, at_budget)), command)
        over = {**at_budget, f"{command}.n_paths": n_paths + 1}
        config = load_config(make_config(tmp_path, over))
        with pytest.raises(ConfigError, match="bytes exceeds the memory budget of 1073741824"):
            validate_for_command(config, command)

    def test_stored_paths_memory_budget(self, tmp_path):
        # s = u = 0 gives max_jump_rate 1/2: 762,598 paths of N = 16 to t = 1
        # on 3 grid rows bound 6,100,784 events, and 762,598 * (192 + 32 * 3
        # + 800) bytes of kept paths, 1280 * 3 bytes of rows and 40 B per
        # kept event fill the 2^30-byte budget exactly
        n_paths = 762_598
        at_budget = {
            "model.N": 16, "model.s": 0.0, "model.u": 0.0, "simulate.t_end": 1.0,
            "simulate.grid_step": 1.0, "simulate.n_paths": n_paths, "simulate.store_paths": True,
        }
        validate_for_command(load_config(make_config(tmp_path, at_budget)), "simulate")
        for key, value in [
            ("simulate.n_paths", n_paths + 1),
            ("model.N", 17),
            ("model.s", 1e-9),
        ]:
            config = load_config(make_config(tmp_path, {**at_budget, key: value}))
            with pytest.raises(ConfigError, match="events kept by 'simulate.store_paths'"):
                validate_for_command(config, "simulate")
        # the kept events are what does not fit
        unstored = {**at_budget, "simulate.n_paths": n_paths + 1, "simulate.store_paths": False}
        validate_for_command(load_config(make_config(tmp_path, unstored)), "simulate")
        # the reference model stores its 100 paths (bound 3 * 10^5 events)
        reference = {"model.N": 1000, "simulate.t_end": 3.0, "simulate.n_paths": 100,
                     "simulate.store_paths": True}
        validate_for_command(load_config(make_config(tmp_path, reference)), "simulate")

    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            (
                "ode",
                {"ode.t_end": 1e12, "ode.grid_step": 1.0},
                "'ode.t_end' / min('ode.oracle_step', 'ode.grid_step') = 1000000000000.0 / 0.001"
                " = 1e+15 steps exceeds the budget of 1e+07; shorten t_end or lengthen the steps",
            ),
            (
                "stationary",
                {"model.N": 10**7},
                "'model.N' + 1 = 10000001 pmf rows exceeds the budget of 1e+07 for stationary;"
                " lower N",
            ),
            (
                "simulate",
                {"model.N": 10**7},
                "'model.N' + 1 = 10000001 rate-table rows exceeds the budget of 1e+07 for"
                " simulate; lower N",
            ),
            (
                "clt",
                {"model.N": 10**7},
                "'model.N' + 1 = 10000001 rate-table rows exceeds the budget of 1e+07 for clt;"
                " lower N",
            ),
            (
                "simulate",
                {"simulate.n_paths": 10**10},
                "'simulate.n_paths' * 'simulate.t_end' * 'model.N' * max_jump_rate ="
                " 10000000000 * 0.5 * 100 * 1 = 5e+11 events exceeds the budget of 1e+10"
                " (max_jump_rate, the largest jump rate per individual, is set by 'model.s',"
                " 'model.u' and 'model.nu0'); lower n_paths, the horizon or N",
            ),
            (
                "clt",
                {"clt.n_paths": 10**10},
                "'clt.n_paths' * max('clt.times') * 'model.N' * max_jump_rate ="
                " 10000000000 * 0.5 * 100 * 1 = 5e+11 events exceeds the budget of 1e+10"
                " (max_jump_rate, the largest jump rate per individual, is set by 'model.s',"
                " 'model.u' and 'model.nu0'); lower n_paths, the horizon or N",
            ),
            (
                "simulate",
                {"simulate.n_paths": 10**8, "simulate.t_end": 1e-8, "simulate.grid_step": 1e-8},
                "'simulate.n_paths' * (192 + 32 * ('simulate.t_end' / 'simulate.grid_step' + 2))"
                " + 1280 * ('simulate.t_end' / 'simulate.grid_step' + 2) = 100000000 * (192 + 32"
                " * 3) + 1280 * 3 = 2.88e+10 bytes exceeds the memory budget of 1073741824"
                " (1 GiB); lower n_paths or the number of grid rows",
            ),
            (
                "clt",
                {"clt.n_paths": 10**8, "clt.times": [1e-8]},
                "'clt.n_paths' * (192 + 32 * (len('clt.times') + 1)) + 3072 * (len('clt.times')"
                " + 1) = 100000000 * (192 + 32 * 2) + 3072 * 2 = 2.56e+10 bytes exceeds the"
                " memory budget of 1073741824 (1 GiB); lower n_paths or the number of grid rows",
            ),
            (
                "simulate",
                {
                    "model.N": 10**6, "simulate.n_paths": 1, "simulate.t_end": 1000.0,
                    "simulate.grid_step": 1.0, "simulate.store_paths": True,
                },
                "'simulate.n_paths' * (192 + 32 * ('simulate.t_end' / 'simulate.grid_step' + 2))"
                " + 1280 * ('simulate.t_end' / 'simulate.grid_step' + 2) + 800 * n_paths + 40 *"
                " events kept by 'simulate.store_paths' = 1 * (192 + 32 * 1002) + 1280 * 1002 +"
                " 800 * 1 + 40 * 1e+09 = 4e+10 bytes exceeds the memory budget of 1073741824"
                " (1 GiB); lower n_paths, the horizon or N, or set store_paths to false",
            ),
        ],
        ids=[
            "ode-steps", "pmf-rows", "simulate-table", "clt-table", "simulate-events",
            "clt-events", "simulate-memory", "clt-memory", "stored-memory",
        ],
    )
    def test_budget_refusal_texts(self, tmp_path, command, overrides, message):
        config = load_config(make_config(tmp_path, overrides))
        with pytest.raises(ConfigError) as raised:
            validate_for_command(config, command)
        assert str(raised.value) == message

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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"ode.t_end": 1e12, "ode.grid_step": 1.0},  # a 10^12-node time grid
            {"ode.oracle_step": 1e-12},  # 10^12 RK4 steps to t_end = 1
        ],
        ids=["grid", "oracle"],
    )
    def test_over_budget_ode_exits_2(self, tmp_path, capsys, overrides):
        path = make_config(tmp_path, overrides)
        out = tmp_path / "o"
        code = cli.main(["ode", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'ode.t_end'" in err and "'ode.oracle_step'" in err and "'ode.grid_step'" in err
        assert "Traceback" not in err
        assert_no_artifact(out)

    def test_over_budget_simulate_exits_2(self, tmp_path, capsys):
        # a 10^12-node time grid to t_end = 1
        path = make_config(tmp_path, {"simulate.t_end": 1.0, "simulate.grid_step": 1e-12})
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'simulate.t_end'" in err and "'simulate.grid_step'" in err
        assert "Traceback" not in err
        assert_no_artifact(out)

    @pytest.mark.parametrize("command", ["simulate", "clt"])
    @pytest.mark.parametrize(
        "overrides, keys",
        [
            ({"model.N": 10**12}, ["'model.N'"]),
            ({"model.s": MAX_RATE}, ["n_paths'", "'model.N'", "'model.s'", "'model.u'"]),
            ({"simulate.n_paths": 10**9, "clt.n_paths": 10**9}, ["n_paths'", "'model.N'"]),
        ],
        ids=["table", "rate", "paths"],
    )
    def test_over_chain_budget_exits_2(self, tmp_path, capsys, command, overrides, keys):
        path = make_config(tmp_path, overrides)
        out = tmp_path / "o"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "exceeds the budget" in err
        for key in keys:
            assert key in err
        assert "Traceback" not in err
        assert_no_artifact(out)

    @pytest.mark.parametrize(
        "content, fragment",
        [
            (b"\xff\xfe{", "not UTF-8"),
            (b"[" * 100_000, "nested too deeply"),
            (b"[]", "top level of the config must be a JSON object"),
        ],
        ids=["not-utf8", "nested-too-deep", "top-level-list"],
    )
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, content, fragment):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        out = tmp_path / "o"
        code = cli.main(["ode", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and fragment in err
        assert "Traceback" not in err
        assert_no_artifact(out)

    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, monkeypatch):
        path = make_config(tmp_path)

        def unreadable(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", unreadable)
        out = tmp_path / "o"
        code = cli.main(["ode", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot read config file {path}: Permission denied\n"
        assert_no_artifact(out)

    def test_unwritable_artifact_exits_2(self, tmp_path, capsys):
        path = make_config(tmp_path)
        out = tmp_path / "o"
        (out / "ode_table.csv").mkdir(parents=True)
        code = cli.main(["ode", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"output error: cannot write {out / 'ode_table.csv'}: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["ode_table.csv"]

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "command, artifact, overrides",
        [
            ("ode", "ode_table.csv", {}),
            # 146 rows over blocks of 16 rows: several blocks
            ("simulate", "ensemble_paths.csv", {"simulate.store_paths": True}),
        ],
        ids=["ode", "stored-paths"],
    )
    def test_full_disk_exits_2(self, tmp_path, capsys, monkeypatch, command, artifact, overrides):
        # the file opens, and the write fails with ENOSPC
        monkeypatch.setattr(mio, "_BLOCK_ROWS", 16)
        path = make_config(tmp_path, overrides)
        out = tmp_path / "o"
        out.mkdir()
        (out / artifact).symlink_to("/dev/full")
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"output error: cannot write {out / artifact}: No space left on device\n"
        with pytest.raises(ChildProcessError):  # no child, running or exited and unreaped
            os.waitpid(-1, os.WNOHANG)

    def test_unwritable_multi_block_paths_exit_2(self, tmp_path, capsys, monkeypatch):
        # 146 rows of 5 paths over blocks of 16 rows
        monkeypatch.setattr(mio, "_BLOCK_ROWS", 16)
        path = make_config(tmp_path, {"simulate.store_paths": True})
        out = tmp_path / "o"
        (out / "ensemble_paths.csv").mkdir(parents=True)
        code = cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"output error: cannot write {out / 'ensemble_paths.csv'}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("below", ["", "sub"], ids=["existing-file", "under-a-file"])
    def test_unusable_out_exits_2(self, tmp_path, capsys, below):
        path = make_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("not a directory", encoding="utf-8")
        out = taken / below if below else taken
        code = cli.main(["ode", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"output error: cannot create directory {out}: ")
        assert err.count("\n") == 1
        assert taken.read_text(encoding="utf-8") == "not a directory"

    def test_over_window_budget_stationary_exits_2(self, tmp_path, capsys):
        # N = 10^14 is only swept, so no pmf row budget applies; its window
        # would hold about 2 * 10^8 states on each side of the mode
        path = make_config(tmp_path, {"stationary.n_values": [10**14]})
        out = tmp_path / "o"
        code = cli.main(["stationary", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "budget of its window" in err
        assert "Traceback" not in err
        assert_no_artifact(out)

    def test_over_pmf_budget_stationary_exits_2(self, tmp_path, capsys):
        # a pmf of 10^12 + 1 rows; refused before the sweep runs
        path = make_config(tmp_path, {"model.N": 10**12})
        out = tmp_path / "o"
        code = cli.main(["stationary", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'model.N'" in err and "pmf rows exceeds the budget" in err
        assert "Traceback" not in err
        assert_no_artifact(out)

    @pytest.mark.parametrize(
        "command, overrides",
        [
            # two grid rows and 3 events: only the paths' own state is large
            (
                "simulate",
                {"simulate.n_paths": 10**8, "simulate.t_end": 1e-8, "simulate.grid_step": 1e-8},
            ),
            ("clt", {"clt.n_paths": 10**8, "clt.times": [1e-8]}),
        ],
    )
    def test_over_memory_budget_exits_2(self, tmp_path, capsys, command, overrides):
        path = make_config(tmp_path, overrides)
        out = tmp_path / "o"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"'{command}.n_paths'" in err and "memory budget" in err
        assert "Traceback" not in err
        assert_no_artifact(out)

    def test_stored_paths_over_memory_budget_exits_2(self, tmp_path, capsys, monkeypatch):
        # 10^9 events of one path kept twice over: about 40 GB, refused unrun
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a refused config")

        monkeypatch.setattr(simulate, "_run_chain", no_simulation)
        overrides = {
            "model.N": 10**6, "simulate.n_paths": 1, "simulate.t_end": 1000.0,
            "simulate.grid_step": 1.0, "simulate.store_paths": True,
        }
        path = make_config(tmp_path, overrides)
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'simulate.store_paths'" in err and "memory budget" in err
        assert_no_artifact(out)

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

    @pytest.mark.parametrize("command", ["ode", "simulate", "clt", "stationary"])
    def test_overflowing_unstable_root_exits_2(self, tmp_path, capsys, command):
        # u / s ~ 1e327 overflows x_minus to -inf; the sections are tiny so
        # that no budget refuses the config first
        overrides = {
            "model.s": 8.5e-206,
            "model.u": 7.7e122,
            "model.nu0": 0.76,
            "ode.z0": 0.5,
            "ode.t_end": 1e-120,
            "ode.grid_step": 1e-120,
            "ode.oracle_step": 1e-123,
            "simulate.z0": 0.5,
            "simulate.t_end": 1e-130,
            "simulate.grid_step": 1e-130,
            "simulate.n_paths": 2,
            "clt.z0": 0.5,
            "clt.times": [1e-130],
            "clt.n_paths": 2,
        }
        path = make_config(tmp_path, overrides)
        out = tmp_path / "o"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "x_minus" in err and "s = 8.5e-206, u = 7.7e+122" in err
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

    @pytest.mark.parametrize("command", ["clt", "stationary"])
    @pytest.mark.parametrize(
        "overrides, product",
        [
            ({"model.u": 1e-200, "model.nu0": 1e-200}, "u * nu0 = 0.0"),
            ({"model.u": 1e-310, "model.nu0": 1.0 - 2.0**-53}, "u * nu1 = 0.0"),
        ],
        ids=["u*nu0", "u*nu1"],
    )
    def test_underflowing_mutation_rate_exits_2(
        self, tmp_path, capsys, command, overrides, product
    ):
        # u > 0, but one mutation rate u nu_j is 0: a boundary state absorbs,
        # where the stationary pmf used to be NaN and fail in dump_json
        path = make_config(tmp_path, overrides)
        out = tmp_path / "o"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert product in err and f"u = {overrides['model.u']!r}" in err
        assert_no_artifact(out)

    def test_clt_row_with_underflowing_sigma_prints_na(self, tmp_path, capsys):
        # Sigma(1e-300) underflows to 0, so that row has no KS statistic
        path = make_config(
            tmp_path,
            {
                "model.N": 1000,
                "model.s": 25.0,
                "model.u": 7.0,
                "model.nu0": 1e-300,
                "clt.z0": 0.0,
                "clt.times": [1e-300, 1.0],
            },
        )
        code = cli.main(["clt", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        printed = capsys.readouterr()
        assert "Traceback" not in printed.err
        assert "clt: t=1e-300 var 0.0000 target 0.0000 ks n/a\n" in printed.out
        report = json.loads((tmp_path / "o" / "clt_report.json").read_text(encoding="utf-8"))
        assert report["results"]["rows"][1]["ks_statistic"] is None

    def test_other_exceptions_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a config error")

        monkeypatch.setattr(cli, "solve_deterministic", broken)
        path = make_config(tmp_path)
        with pytest.raises(RuntimeError, match="not a config error"):
            cli.main(["ode", "--config", str(path), "--out", str(tmp_path / "o")])

    def test_os_error_without_a_file_propagates(self, tmp_path, monkeypatch):
        # such as a fork that fails for want of processes
        def no_fork(*args, **kwargs):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "solve_deterministic", no_fork)
        path = make_config(tmp_path)
        with pytest.raises(BlockingIOError):
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

    @pytest.mark.parametrize(
        "overrides",
        [
            # refused while each path was charged 6 KB (1.24e9 bytes)
            {"simulate.n_paths": 200_000, "simulate.t_end": 1e-6, "simulate.grid_step": 1e-6},
            {"model.N": 20, "simulate.n_paths": 200, "simulate.t_end": 20.0,
             "simulate.grid_step": 1e-3},
            # configs/reference.json with store_paths
            {"model": REFERENCE["model"], "seed": REFERENCE["seed"],
             "simulate": {**REFERENCE["simulate"], "store_paths": True}},
            # the store-paths benchmark's shape: 4 paths of N = 5 * 10^4 to t = 3
            {"model.N": 50_000, "simulate": {"z0": 0.1, "t_end": 3.0, "n_paths": 4,
                                             "grid_step": 0.01, "store_paths": True}},
            # many short stored paths, most without an event: the per-path charge binds
            {"model.N": 16, "simulate.n_paths": 10_000, "simulate.t_end": 0.01,
             "simulate.grid_step": 0.01, "simulate.store_paths": True},
        ],
        ids=[
            "many-paths", "many-rows", "stored-reference", "stored-long-paths", "stored-many-paths"
        ],
    )
    def test_peak_memory_is_within_the_charge(self, tmp_path, overrides):
        """In a fresh interpreter, the run's peak memory above the import
        stays within the memory config charges it.

        Both readings are the process's own high-water mark, VmHWM: a
        child's ru_maxrss starts at its parent's peak, so under pytest it
        would read the suite's peak, not the run's.
        """
        if not Path("/proc/self/status").exists():
            pytest.skip("no /proc/self/status to read VmHWM from")
        path = make_config(tmp_path, overrides)
        config = load_config(path)
        settings = config.sections["simulate"]
        rows = settings.t_end / settings.grid_step + 2
        charge = settings.n_paths * (
            config_module._PATH_BYTES + config_module._GRID_ROW_BYTES * rows
        ) + config_module._REPORT_ROW_BYTES["simulate"] * rows
        if settings.store_paths:
            rate = max_jump_rate(config.model)
            events = settings.n_paths * settings.t_end * config.model.N * rate
            charge += settings.n_paths * config_module._STORED_PATH_BYTES
            charge += events * config_module._STORED_EVENT_BYTES
        probe = (
            "import sys; from moranlimits import cli;"
            " hwm = lambda: next(int(line.split()[1]) for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:'));"
            " base = hwm(); code = cli.main(sys.argv[1:]); print(code, hwm() - base)"
        )
        command = ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]
        result = subprocess.run(
            [sys.executable, "-c", probe, *command],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(moranlimits.__file__).parents[1])},
        )
        code, rise_kib = result.stdout.split()[-2:]  # after the command's summary line
        assert code == "0"
        assert int(rise_kib) * 1024 <= charge  # VmHWM counts KiB

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
        simulate_path, run_ensemble = simulate.simulate_path, cli.run_ensemble

        def path_spy(k0, t_end, rng_seed, params):
            path_seeds.append(rng_seed)
            return simulate_path(k0, t_end, rng_seed, params)

        def ensemble_spy(*args, **kwargs):
            ensembles.append(args)
            return run_ensemble(*args, **kwargs)

        monkeypatch.setattr(simulate, "simulate_path", path_spy)
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
