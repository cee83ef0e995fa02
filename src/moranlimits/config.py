"""Strict JSON configuration for the command-line front end.

A config file is one JSON object. Unknown keys are rejected anywhere,
missing required keys are reported by their dotted path, and every
value is checked for its type and range. Beyond that this module checks
only the rules that name a config key the library never sees: a
command's section must be present, the ode oracle step must keep RK4
stable, the ode table and the simulate time grid must fit one fixed
work budget of 10^7 steps, the chain that simulate and clt run must
fit budgets of 10^7 rate-table rows, 10^10 events and 1 GiB of path
state (with simulate.store_paths, of kept events too), and the pmf that
stationary writes must fit 10^7 rows. The
model's own preconditions (the rate cap, u nu0 > 0 and u nu1 > 0 for
the fluctuation and stationary laws, owned by model.require_mutation, a resolvable
discriminant) are raised by the library module that needs them, when
the command runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Optional

from .model import DomainError, ModelParams, check_int, check_real, max_jump_rate

CURRENT_SCHEMA = "1"

_MAX_SEED = 2**64 - 1

# RK4's stability interval on the negative real axis ends near -2.785.
# On [0, 1] the drift slope obeys |F'| <= s + u, so an oracle step h
# with h (s + u) <= 2.785 keeps the oracle from diverging.
_RK4_STABILITY_LIMIT = 2.785

# The ode command takes about t_end / min(oracle_step, grid_step) RK4
# steps and grid rows, and simulate t_end / grid_step grid rows per path;
# 10^7 RK4 steps run in about 10 s.
_MAX_STEPS = 10**7

# simulate and clt build a rate table of N + 1 rows, about 100 bytes
# each, and stationary writes a pmf CSV of N + 1 rows. simulate and clt
# run at most n_paths * t_end * N * max_jump_rate events, at 2.5 to 15
# million events per second on a 2-vCPU VM.
_MAX_TABLE_ROWS = 10**7
_MAX_EVENTS = 10**10

# Their ensembles hold about 5.9 KB per path before any event (two generators
# and two 256-draw buffers) and 16 B per path and grid row (states, proportions).
_PATH_BYTES = 6 * 1024
_GRID_ROW_BYTES = 16
_MAX_ENSEMBLE_BYTES = 2**30
# simulate with store_paths keeps every event twice: 16 B in its path's times
# and states, and 24 B in the three CSV columns (38.5 B measured per event).
_STORED_EVENT_BYTES = 40


class ConfigError(ValueError):
    """The configuration is malformed or violates a precondition."""


def _require(block: dict, key: str, path: str):
    if key not in block:
        raise ConfigError(f"missing key '{path}.{key}'" if path else f"missing key '{key}'")
    return block[key]


def _reject_unknown(block: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        where = f"{path}." if path else ""
        raise ConfigError(
            f"unknown key{'s' if len(unknown) > 1 else ''} "
            + ", ".join(f"'{where}{key}'" for key in unknown)
        )


def _checked(check, value, path: str, **bounds):
    """Run a model.py checker on a config value; its DomainError becomes a ConfigError."""
    try:
        return check(value, f"'{path}'", **bounds)
    except DomainError as err:
        raise ConfigError(str(err)) from None


_as_int = partial(_checked, check_int)
_as_count = partial(_checked, check_int, minimum=1)
_as_unit_interval = partial(_checked, check_real, minimum=0.0, maximum=1.0)
_as_positive = partial(_checked, check_real, minimum=0.0, exclusive=True)
_as_epsilon = partial(_checked, check_real, minimum=0.0, maximum=1.0, exclusive=True)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"'{path}' must be true or false, got {value!r}")
    return value


def _as_times(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{path}' must be a non-empty list of times")
    times = tuple(_as_positive(item, f"{path}[{i}]") for i, item in enumerate(value))
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError(f"'{path}' must be strictly increasing")
    return times


def _as_sizes(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{path}' must be a non-empty list")
    return tuple(_as_count(item, f"{path}[{i}]") for i, item in enumerate(value))


def _setting(parse, **default):
    """A settings field read from the config by parse(value, dotted_path)."""
    return field(metadata={"parse": parse}, **default)


@dataclass(frozen=True)
class OdeSettings:
    """Closed form vs RK4 oracle table over [0, t_end]."""

    z0: float = _setting(_as_unit_interval)
    t_end: float = _setting(_as_positive)
    grid_step: float = _setting(_as_positive, default=0.01)
    oracle_step: float = _setting(_as_positive, default=1e-3)


@dataclass(frozen=True)
class SimulateSettings:
    """Path ensemble against the deterministic reference curve."""

    z0: float = _setting(_as_unit_interval)
    t_end: float = _setting(_as_positive)
    n_paths: int = _setting(_as_count)
    grid_step: float = _setting(_as_positive, default=0.025)
    store_paths: bool = _setting(_as_bool, default=False)


@dataclass(frozen=True)
class CltSettings:
    """Scaled-deviation marginals at fixed positive times."""

    z0: float = _setting(_as_unit_interval)
    times: tuple = _setting(_as_times)
    n_paths: int = _setting(_as_count)


@dataclass(frozen=True)
class StationarySettings:
    """Stationary law + Gaussian concentration over a sweep of N values."""

    n_values: tuple = _setting(_as_sizes, default=())
    epsilon: float = _setting(_as_epsilon, default=0.05)


def _parse_section(section_type, block: dict, path: str):
    """One settings section: each field parsed by its own parser, defaults kept.

    A section holding both grid_step and t_end needs grid_step <= t_end.
    """
    specs = fields(section_type)
    _reject_unknown(block, {f.name for f in specs}, path)
    values = {
        f.name: f.metadata["parse"](_require(block, f.name, path), f"{path}.{f.name}")
        for f in specs
        if f.name in block or f.default is MISSING
    }
    section = section_type(**values)
    if hasattr(section, "grid_step") and section.grid_step > section.t_end:
        raise ConfigError(f"'{path}.grid_step' must not exceed t_end")
    return section


_SECTION_TYPES = {
    "ode": OdeSettings,
    "simulate": SimulateSettings,
    "clt": CltSettings,
    "stationary": StationarySettings,
}

_TOP_LEVEL_KEYS = {"schema_version", "model", "seed"} | set(_SECTION_TYPES)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated configuration with overrides already applied."""

    schema_version: str
    model: ModelParams
    seed: int
    sections: dict = field(default_factory=dict)

    def require(self, name: str):
        if name not in self.sections:
            raise ConfigError(f"missing key '{name}' (the {name} command needs it)")
        return self.sections[name]

    def to_record(self) -> dict:
        record = {
            "schema_version": self.schema_version,
            "model": asdict(self.model),
            "seed": self.seed,
        }
        for name, section in self.sections.items():
            record[name] = asdict(section)
        return record


def parse_config(raw: dict, seed_override: Optional[int] = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a JSON object")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "")

    schema = raw.get("schema_version", CURRENT_SCHEMA)
    if not isinstance(schema, str):
        raise ConfigError(f"'schema_version' must be a string, got {schema!r}")
    if schema != CURRENT_SCHEMA:
        raise ConfigError(
            f"unsupported schema_version {schema!r}; this build reads {CURRENT_SCHEMA!r}"
        )

    block = _require(raw, "model", "")
    if not isinstance(block, dict):
        raise ConfigError("'model' must be an object with keys N, s, u, nu0")
    names = [f.name for f in fields(ModelParams)]
    _reject_unknown(block, set(names), "model")
    values = {name: _require(block, name, "model") for name in names}
    try:
        model = ModelParams(**values)
    except DomainError as err:
        raise ConfigError(f"model: {err}") from None

    if seed_override is not None:
        seed = _as_int(seed_override, "--seed", minimum=0, maximum=_MAX_SEED)
    else:
        seed = _as_int(_require(raw, "seed", ""), "seed", minimum=0, maximum=_MAX_SEED)

    sections = {}
    for name, section_type in _SECTION_TYPES.items():
        if name in raw:
            block = raw[name]
            if not isinstance(block, dict):
                raise ConfigError(f"'{name}' must be an object")
            sections[name] = _parse_section(section_type, block, name)

    return ExperimentConfig(
        schema_version=schema, model=model, seed=seed, sections=sections
    )


def load_config(path, seed_override: Optional[int] = None) -> ExperimentConfig:
    file_path = Path(path)
    if not file_path.is_file():
        raise ConfigError(f"config file not found: {file_path}")
    try:
        raw = json.loads(file_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return parse_config(raw, seed_override=seed_override)


def validate_for_command(config: ExperimentConfig, command: str) -> None:
    """The config-only preconditions of a command, checked before any computation."""
    if command in _SECTION_TYPES:
        config.require(command)
    if command == "ode":
        _require_stable_oracle_step(config)
        _require_step_budget(config, "ode", ("oracle_step", "grid_step"))
    elif command == "simulate":
        _require_step_budget(config, "simulate", ("grid_step",))
    if command in ("simulate", "clt"):
        _require_chain_budget(config, command)
    elif command == "stationary":
        _require_table_rows(config, "stationary", "pmf rows")


def _require_stable_oracle_step(config: ExperimentConfig) -> None:
    """Raise ConfigError unless the oracle step h meets h * (s + u) <= 2.785."""
    step = config.sections["ode"].oracle_step
    limit = _RK4_STABILITY_LIMIT
    rate = config.model.s + config.model.u
    if rate > 0.0 and step > limit / rate:
        raise ConfigError(
            f"'ode.oracle_step' = {step!r} is too large for s + u = {rate!r}: RK4 needs"
            f" step * (s + u) <= {limit}, so the largest admissible step is"
            f" {limit} / (s + u) = {limit / rate!r}, and at this step s + u"
            f" must be <= {limit / step!r}"
        )


def _require_step_budget(config: ExperimentConfig, section: str, step_keys: tuple) -> None:
    """Raise ConfigError if t_end / min(step_keys) in the section exceeds the budget."""
    settings = config.sections[section]
    step = min(getattr(settings, key) for key in step_keys)
    steps = settings.t_end / step
    if steps > _MAX_STEPS:
        keys = ", ".join(f"'{section}.{key}'" for key in step_keys)
        divisor = f"min({keys})" if len(step_keys) > 1 else keys
        raise ConfigError(
            f"'{section}.t_end' / {divisor} = {settings.t_end!r} / {step!r} ="
            f" {steps:.3g} steps exceeds the budget of {_MAX_STEPS:.0e};"
            " shorten t_end or lengthen the steps"
        )


def _require_table_rows(config: ExperimentConfig, command: str, rows: str) -> None:
    """Raise ConfigError if the command's table of N + 1 rows exceeds the budget."""
    n = config.model.N
    if n + 1 > _MAX_TABLE_ROWS:
        raise ConfigError(
            f"'model.N' + 1 = {n + 1} {rows} exceeds the budget of"
            f" {_MAX_TABLE_ROWS:.0e} for {command}; lower N"
        )


def _require_chain_budget(config: ExperimentConfig, section: str) -> None:
    """Raise ConfigError if the chain's rate table, event bound or memory exceeds its budget.

    The event bound is n_paths * t_end * N * max_jump_rate, t_end being
    the section's last time: every state's total event rate is at most
    N * max_jump_rate. A simulate run with store_paths also holds each of
    those events in memory.
    """
    settings = config.sections[section]
    model = config.model
    simulate = section == "simulate"
    _require_table_rows(config, section, "rate-table rows")
    t_end = settings.t_end if simulate else settings.times[-1]
    rate = max_jump_rate(model)
    try:
        events = settings.n_paths * t_end * model.N * rate
    except OverflowError:  # an n_paths beyond the float range
        events = math.inf
    if events > _MAX_EVENTS:
        t_key = "'simulate.t_end'" if simulate else "max('clt.times')"
        raise ConfigError(
            f"'{section}.n_paths' * {t_key} * 'model.N' * max_jump_rate ="
            f" {settings.n_paths} * {t_end!r} * {model.N} * {rate:.6g} = {events:.3g}"
            f" events exceeds the budget of {_MAX_EVENTS:.0e} (max_jump_rate, the"
            " largest jump rate per individual, is set by 'model.s', 'model.u' and"
            " 'model.nu0'); lower n_paths, the horizon or N"
        )
    # below the event budget n_paths converts to a float
    rows = settings.t_end / settings.grid_step + 2 if simulate else len(settings.times) + 1
    size = float(settings.n_paths) * (_PATH_BYTES + _GRID_ROW_BYTES * rows)
    terms = f"'{section}.n_paths' * ({_PATH_BYTES} + {_GRID_ROW_BYTES} * grid rows)"
    values = f"{settings.n_paths} * ({_PATH_BYTES} + {_GRID_ROW_BYTES} * {rows:.6g})"
    remedy = "lower n_paths"
    if simulate and settings.store_paths:
        size += _STORED_EVENT_BYTES * events
        terms += f" + {_STORED_EVENT_BYTES} * events kept by 'simulate.store_paths'"
        values += f" + {_STORED_EVENT_BYTES} * {events:.3g}"
        remedy = "lower n_paths, the horizon or N, or set store_paths to false"
    if size > _MAX_ENSEMBLE_BYTES:
        raise ConfigError(
            f"{terms} = {values} = {size:.3g} bytes exceeds the memory budget of"
            f" {_MAX_ENSEMBLE_BYTES} (1 GiB); {remedy}"
        )
