"""Every config the parser accepts runs to exit 0 or exits 2: no traceback, no NaN.

A Hypothesis sweep through cli.main over the whole accepted domain:
subnormal and near-MAX_RATE rates, nu0 and z0 at their extremes and
times down to 1e-300. Each config is validated first; a refused config
must exit 2 and write nothing. An accepted one runs only when its
predicted work is small (event bound, RK4 steps and pmf rows each at most
_MAX_WORK), so no example runs up to a budget.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from moranlimits import cli
from moranlimits.config import ConfigError, parse_config, validate_for_command
from moranlimits.model import MAX_RATE, max_jump_rate

_MAX_WORK = 2 * 10**4

_SUBNORMAL = 5e-324
_SMALLEST_NORMAL = 2.2250738585072014e-308


def log_uniform(low, high):
    """Floats spread evenly in magnitude between 10^low and 10^high."""
    return st.floats(low, high).map(lambda e: 10.0**e)


RATES = st.one_of(
    st.sampled_from(
        [0.0, _SUBNORMAL, 1e-310, _SMALLEST_NORMAL, 1e-200, 8.5e-206, 1e-9, 0.5, 1.0, 25.0,
         1e3, 7.7e122, math.nextafter(MAX_RATE, 0.0), MAX_RATE]
    ),
    log_uniform(-323.0, 2.0),
    log_uniform(-323.0, 150.0).map(lambda rate: min(rate, MAX_RATE)),
)
UNIT = st.one_of(
    st.sampled_from([0.0, 1e-300, 0.1, 0.5, 0.76, 1.0 - 1e-16, 1.0]), st.floats(0.0, 1.0)
)
TIMES = st.one_of(
    st.sampled_from([1e-300, 1e-130, 1e-120, 1e-8, 0.5, 1.0, 3.0]), log_uniform(-300.0, 2.0)
)
SIZES = st.one_of(st.sampled_from([1, 2, 10, 100, 1000]), st.integers(1, 10**5))
# a step as a fraction of its horizon; above 1 the parser refuses a grid step
FRACTIONS = st.sampled_from([1.0, 0.5, 0.1, 1e-3, 2.0])


@st.composite
def configs(draw):
    """(command, raw config, None) with a model and the command's one section."""
    command = draw(st.sampled_from(["ode", "simulate", "clt", "stationary"]))
    raw = {
        "schema_version": "1",
        "model": {
            "N": draw(SIZES),
            "s": draw(RATES),
            "u": draw(RATES),
            "nu0": draw(UNIT),
        },
        "seed": draw(st.integers(0, 2**64 - 1)),
    }
    if command == "ode":
        t_end = draw(TIMES)
        raw["ode"] = {
            "z0": draw(UNIT),
            "t_end": t_end,
            "grid_step": t_end * draw(FRACTIONS),
            "oracle_step": t_end * draw(FRACTIONS),
        }
    elif command == "simulate":
        t_end = draw(TIMES)
        raw["simulate"] = {
            "z0": draw(UNIT),
            "t_end": t_end,
            "n_paths": draw(st.integers(1, 20)),
            "grid_step": t_end * draw(FRACTIONS),
            "store_paths": draw(st.booleans()),
        }
    elif command == "clt":
        times = draw(st.lists(TIMES, min_size=1, max_size=3, unique=True))
        raw["clt"] = {"z0": draw(UNIT), "times": sorted(times), "n_paths": draw(st.integers(1, 20))}
    else:
        raw["stationary"] = {"n_values": draw(st.lists(SIZES, max_size=2))}
    return command, raw, None


def predicted_work(command, config):
    """The largest of the run's event bound, RK4 steps and grid or pmf rows."""
    model = config.model
    section = config.sections[command]
    if command == "ode":
        return section.t_end / min(section.oracle_step, section.grid_step)
    if command == "stationary":
        return max([model.N, *section.n_values]) + 1
    t_end = section.t_end if command == "simulate" else section.times[-1]
    events = section.n_paths * t_end * model.N * max_jump_rate(model)
    rows = section.t_end / section.grid_step if command == "simulate" else len(section.times)
    return max(events, rows)


def _reject_constant(name):
    raise AssertionError(f"{name} in a JSON artifact")


def assert_finite_artifacts(out):
    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=_reject_constant)
            continue
        for line in text.splitlines()[1:]:
            for cell in line.split(","):
                if cell and cell not in ("true", "false"):
                    assert math.isfinite(float(cell)), (path.name, line)


# Pinned with the exit code they must give:
# (a) clt where Sigma(t) underflows to 0 at a positive time: exit 0, ks n/a
# (b) mutation products that underflow to 0: exit 2
# (c) u / s overflowing x_minus, with the CI table's sections: exit 2
# and a store_paths run whose 10^9 kept events would need about 40 GB: exit 2;
# found by this sweep and refused since: roots closer than z0 resolves (the
# flow divided by 0) and a stationary variance ratio that overflowed: exit 2
_C_MODEL = {"N": 1000, "s": 8.5e-206, "u": 7.7e122, "nu0": 0.76}


def _raw(model, **sections):
    return {"schema_version": "1", "model": model, "seed": 20260817, **sections}


# A fixed sweep of 200 configs by default; HYPOTHESIS_PROFILE=wide
# (tests/conftest.py) runs the profile's random search instead.
_SWEEP = (
    {} if settings.get_current_profile_name() == "wide" else {"max_examples": 200, "derandomize": True}
)


@settings(deadline=None, **_SWEEP)
@given(case=configs())
@example(case=("clt", _raw({"N": 1000, "s": 25.0, "u": 7.0, "nu0": 1e-300},
                           clt={"z0": 0.0, "times": [1e-300, 1.0], "n_paths": 1}), 0))
@example(case=("stationary", _raw({"N": 1000, "s": 1.0, "u": 1e-200, "nu0": 1e-200},
                                  stationary={"n_values": [200]}), 2))
@example(case=("clt", _raw({"N": 1000, "s": 1.0, "u": 1e-200, "nu0": 1e-200},
                           clt={"z0": 0.1, "times": [0.5], "n_paths": 2}), 2))
@example(case=("ode", _raw(_C_MODEL, ode={"z0": 0.5, "t_end": 1e-120, "grid_step": 1e-120,
                                          "oracle_step": 1e-123}), 2))
@example(case=("simulate", _raw(_C_MODEL, simulate={"z0": 0.5, "t_end": 1e-130,
                                                    "grid_step": 1e-130, "n_paths": 2}), 2))
@example(case=("clt", _raw(_C_MODEL, clt={"z0": 0.5, "times": [1e-130], "n_paths": 2}), 2))
@example(case=("stationary", _raw(_C_MODEL, stationary={"n_values": [200]}), 2))
@example(case=("simulate", _raw({"N": 10**6, "s": 1.0, "u": 0.5, "nu0": 0.5},
                                simulate={"z0": 0.1, "t_end": 1000.0, "grid_step": 1.0,
                                          "n_paths": 1, "store_paths": True}), 2))
@example(case=("ode", _raw({"N": 1, "s": 1.0, "u": 1.0, "nu0": 2.3012815966784414e-207},
                           ode={"z0": 0.1, "t_end": 1.0, "grid_step": 0.5, "oracle_step": 0.01}),
               2))
@example(case=("stationary", _raw({"N": 1, "s": 1.0, "u": 1e-309, "nu0": 0.5},
                                  stationary={"n_values": [1]}), 2))
def test_every_config_exits_0_or_2_with_finite_artifacts(case):
    command, raw, expected = case
    try:
        config = parse_config(raw)
        validate_for_command(config, command)
        refused = False
    except ConfigError:
        refused = True
    if not refused and predicted_work(command, config) > _MAX_WORK:
        assert expected is None, "a pinned config must run or be refused"
        return
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(config_path), "--out", str(out)])
        assert "Traceback" not in err.getvalue()
        if refused or code == 2:
            assert code == 2 and err.getvalue().startswith("config error: ")
            assert not out.exists() or not any(out.iterdir())
        else:
            assert code == 0, err.getvalue()
            assert_finite_artifacts(out)
        assert expected is None or code == expected
