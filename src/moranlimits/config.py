"""Strict JSON configuration for the command-line front end.

A config file is one JSON object. Unknown keys are rejected anywhere,
missing required keys are reported by their dotted path, and every
numeric field is checked against the preconditions of the operation
that will consume it before any computation starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .model import DomainError, ModelParams

CURRENT_SCHEMA = "1"

_MAX_SEED = 2**64 - 1

# Largest accepted model.s and model.u. The drift discriminant
# (s - u)^2 + 4 s u nu0 overflows a float from about 6e153; this cap
# keeps it, and every rate built from s and u, finite.
MAX_RATE = 1e150

# RK4's stability interval on the negative real axis ends near -2.785.
# On [0, 1] the drift slope obeys |F'| <= s + u, so an oracle step h
# with h (s + u) <= 2.785 keeps the oracle from diverging.
_RK4_STABILITY_LIMIT = 2.785


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


def _as_int(value, path: str, minimum: Optional[int] = None, maximum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"'{path}' must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"'{path}' must be <= {maximum}, got {value}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{path}' must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"'{path}' must be finite, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"'{path}' must be true or false, got {value!r}")
    return value


def _as_unit_interval(value, path: str) -> float:
    value = _as_float(value, path)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"'{path}' must lie in [0, 1], got {value}")
    return value


def _as_positive(value, path: str) -> float:
    value = _as_float(value, path)
    if value <= 0.0:
        raise ConfigError(f"'{path}' must be > 0, got {value}")
    return value


@dataclass(frozen=True)
class OdeSettings:
    """Closed form vs RK4 oracle table over [0, t_end]."""

    z0: float
    t_end: float
    grid_step: float = 0.01
    oracle_step: float = 1e-3

    @classmethod
    def from_block(cls, block: dict, path: str) -> "OdeSettings":
        _reject_unknown(block, {"z0", "t_end", "grid_step", "oracle_step"}, path)
        z0 = _as_unit_interval(_require(block, "z0", path), f"{path}.z0")
        t_end = _as_positive(_require(block, "t_end", path), f"{path}.t_end")
        grid_step = _as_positive(block.get("grid_step", cls.grid_step), f"{path}.grid_step")
        oracle_step = _as_positive(
            block.get("oracle_step", cls.oracle_step), f"{path}.oracle_step"
        )
        if grid_step > t_end:
            raise ConfigError(f"'{path}.grid_step' must not exceed t_end")
        return cls(z0=z0, t_end=t_end, grid_step=grid_step, oracle_step=oracle_step)

    def to_record(self) -> dict:
        return {
            "z0": self.z0,
            "t_end": self.t_end,
            "grid_step": self.grid_step,
            "oracle_step": self.oracle_step,
        }


@dataclass(frozen=True)
class SimulateSettings:
    """Path ensemble against the deterministic reference curve."""

    z0: float
    t_end: float
    n_paths: int
    grid_step: float = 0.025
    store_paths: bool = False

    @classmethod
    def from_block(cls, block: dict, path: str) -> "SimulateSettings":
        _reject_unknown(
            block, {"z0", "t_end", "n_paths", "grid_step", "store_paths"}, path
        )
        z0 = _as_unit_interval(_require(block, "z0", path), f"{path}.z0")
        t_end = _as_positive(_require(block, "t_end", path), f"{path}.t_end")
        n_paths = _as_int(_require(block, "n_paths", path), f"{path}.n_paths", minimum=1)
        grid_step = _as_positive(block.get("grid_step", cls.grid_step), f"{path}.grid_step")
        store_paths = _as_bool(
            block.get("store_paths", cls.store_paths), f"{path}.store_paths"
        )
        if grid_step > t_end:
            raise ConfigError(f"'{path}.grid_step' must not exceed t_end")
        return cls(
            z0=z0,
            t_end=t_end,
            n_paths=n_paths,
            grid_step=grid_step,
            store_paths=store_paths,
        )

    def to_record(self) -> dict:
        return {
            "z0": self.z0,
            "t_end": self.t_end,
            "n_paths": self.n_paths,
            "grid_step": self.grid_step,
            "store_paths": self.store_paths,
        }


@dataclass(frozen=True)
class CltSettings:
    """Scaled-deviation marginals at fixed positive times."""

    z0: float
    times: tuple
    n_paths: int

    @classmethod
    def from_block(cls, block: dict, path: str) -> "CltSettings":
        _reject_unknown(block, {"z0", "times", "n_paths"}, path)
        z0 = _as_unit_interval(_require(block, "z0", path), f"{path}.z0")
        raw_times = _require(block, "times", path)
        if not isinstance(raw_times, list) or not raw_times:
            raise ConfigError(f"'{path}.times' must be a non-empty list of times")
        times = tuple(
            _as_positive(item, f"{path}.times[{i}]") for i, item in enumerate(raw_times)
        )
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError(f"'{path}.times' must be strictly increasing")
        n_paths = _as_int(_require(block, "n_paths", path), f"{path}.n_paths", minimum=1)
        return cls(z0=z0, times=times, n_paths=n_paths)

    def to_record(self) -> dict:
        return {"z0": self.z0, "times": list(self.times), "n_paths": self.n_paths}


@dataclass(frozen=True)
class StationarySettings:
    """Stationary law + Gaussian concentration over a sweep of N values."""

    n_values: tuple = ()
    epsilon: float = 0.05

    @classmethod
    def from_block(cls, block: dict, path: str) -> "StationarySettings":
        _reject_unknown(block, {"n_values", "epsilon"}, path)
        n_values: tuple = ()
        if "n_values" in block:
            raw = block["n_values"]
            if not isinstance(raw, list) or not raw:
                raise ConfigError(f"'{path}.n_values' must be a non-empty list")
            n_values = tuple(
                _as_int(item, f"{path}.n_values[{i}]", minimum=1)
                for i, item in enumerate(raw)
            )
        epsilon = _as_float(block.get("epsilon", cls.epsilon), f"{path}.epsilon")
        if not 0.0 < epsilon < 1.0:
            raise ConfigError(f"'{path}.epsilon' must lie in (0, 1), got {epsilon}")
        return cls(n_values=n_values, epsilon=epsilon)

    def to_record(self) -> dict:
        return {"n_values": list(self.n_values), "epsilon": self.epsilon}


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
            "model": self.model.to_dict(),
            "seed": self.seed,
        }
        for name, section in self.sections.items():
            record[name] = section.to_record()
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

    model_block = _require(raw, "model", "")
    if not isinstance(model_block, dict):
        raise ConfigError("'model' must be an object with keys N, s, u, nu0")
    try:
        model = ModelParams.from_dict(model_block)
    except DomainError as err:
        raise ConfigError(f"model: {err}") from err
    for name, rate in (("s", model.s), ("u", model.u)):
        if rate > MAX_RATE:
            raise ConfigError(f"'model.{name}' must be <= {MAX_RATE:g}, got {rate!r}")

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
            sections[name] = section_type.from_block(block, name)

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
    """Command-specific preconditions, checked before any computation."""
    if command in _SECTION_TYPES:
        config.require(command)
    if command in ("clt", "stationary") and config.model.u <= 0.0:
        raise ConfigError(
            f"the {command} command requires u > 0; the configured model has u = 0"
            " and its boundary states absorb"
        )
    if command == "ode":
        stiffness = config.model.s + config.model.u
        oracle_step = config.sections["ode"].oracle_step
        if stiffness > 0.0 and oracle_step > _RK4_STABILITY_LIMIT / stiffness:
            raise ConfigError(
                f"'ode.oracle_step' = {oracle_step!r} makes the RK4 oracle unstable"
                f" for s + u = {stiffness!r}; the largest admissible step is"
                f" {_RK4_STABILITY_LIMIT} / (s + u) = {_RK4_STABILITY_LIMIT / stiffness!r}"
            )
