"""Golden artifacts: refactors and kernel changes must not move any output.

Criterion 9 shows that two runs of one build agree. These digests show
that a change to the code did not change what it writes: SHA-256 of
every CSV artifact, and of the canonical JSON (sorted keys) of each
report's `results` object. The `config` record is left out of those,
since it restates the config file rather than computing anything; it is
pinned on its own, because the parser writes it.

The digests were taken with numpy 2.4 and scipy 1.17 on x86-64. Another
build of numpy, scipy or libm may round the last bit of a float
differently; regenerate the digests then, after checking with the
per-path reference tests that only rounding moved.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from moranlimits import cli

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference.json"

# u = 0 with k0 = 5 of N = 500: the boundary absorbs 22 of the 96 paths.
ABSORBING_CONFIG = {
    "schema_version": "1",
    "model": {"N": 500, "s": 0.2, "u": 0.0, "nu0": 0.5},
    "seed": 4242,
    "simulate": {"z0": 0.01, "t_end": 4.0, "n_paths": 96, "grid_step": 0.1},
}

GOLDEN = {
    ("simulate", "reference"): {
        "ensemble_table.csv": "4268445bbd75cc4e230994563a4ebf4379c1580669ec7a4a14b264764cc85a38",
        "ensemble_report.json": "6347e6c95e019502892b91c4140a6978fef19cfecaf850463476ab35c8251078",
    },
    ("clt", "reference"): {
        "clt_table.csv": "69a9d059bd06cb8878a134951da4332f2061ae2a7646771b85d3fe8374ae31e5",
        "clt_report.json": "3361810b7f98d891ce98d85c380bea6c7aeb48c2f3277a0d7e59795803d02975",
    },
    ("simulate", "absorbing"): {
        "ensemble_table.csv": "5c08c44a295deb0e88c51399b16cc0d659718f782462dac5d31568f2ba92fbb5",
        "ensemble_report.json": "e3cac5276bc8eaa4a120f7def2712e4b9d675917b3cc74dbaedfd3dc8564d7cb",
    },
    ("ode", "reference"): {
        "ode_report.json": "9d6da5cc8a4755d77cfaffe729607dcfaa11ff7e00a1eb42ec7bfbbc0ce81f1c",
        "ode_table.csv": "aa01db90554af84df7830f2fae9c4a29f0d3006903fcf04e6979354ca133280a",
    },
    ("stationary", "reference"): {
        "stationary_pmf.csv": "28f8c27f83de9c61832af63dc5d69d5c3f87f84a11becf6a9d7e26b6bdd80e9e",
        "stationary_report.json": "dc584e79a712b31dddf79d1c0f5b37b171e104c2b0ef978ad6da9e76096fb4a8",
        "stationary_sweep.csv": "727c51d1a54bfb3d5729f4920c97f0a30a6d267cc8b562366c27823b1591fe28",
    },
    ("simulate", "reference+store_paths"): {
        "ensemble_paths.csv": "de62e11e19450097bf8e5b8964e1150b5e4193b32274aecef50e2ee0cb43584a",
        "ensemble_report.json": "7998334baaee5f99d9d5c99cfae0fb1913dc86539fdcadd41db16c6767a321af",
        "ensemble_table.csv": "4268445bbd75cc4e230994563a4ebf4379c1580669ec7a4a14b264764cc85a38",
    },
    ("simulate", "absorbing+store_paths"): {
        "ensemble_paths.csv": "5c60824aa1c5ac57d26436855382ff89f31f11895756d920ffd3e5169eed2221",
        "ensemble_report.json": "d1cb6babbe26004ed3e24436d0fae8678b5f6655cd0403a8a2bb691d1909fa58",
        "ensemble_table.csv": "5c08c44a295deb0e88c51399b16cc0d659718f782462dac5d31568f2ba92fbb5",
    },
}


def results_digest(report: dict) -> str:
    canonical = json.dumps(report["results"], sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def artifact_digests(out_dir: Path) -> dict:
    digests = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            digests[path.name] = results_digest(json.loads(path.read_text(encoding="utf-8")))
    return digests


def write_config(tmp_path: Path, config: str) -> Path:
    """The named config as a file; a "+store_paths" suffix turns store_paths on."""
    base, _, variant = config.partition("+")
    if base == "reference" and not variant:
        return REFERENCE_CONFIG
    if base == "reference":
        raw = json.loads(REFERENCE_CONFIG.read_text(encoding="utf-8"))
    else:
        raw = json.loads(json.dumps(ABSORBING_CONFIG))
    if variant == "store_paths":
        raw["simulate"]["store_paths"] = True
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw), encoding="utf-8")
    return config_path


@pytest.mark.parametrize("command, config", sorted(GOLDEN))
def test_artifacts_match_golden_digests(tmp_path, command, config):
    config_path = write_config(tmp_path, config)
    out_dir = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0
    assert artifact_digests(out_dir) == GOLDEN[(command, config)]


# Integers where floats are expected, and an empty stationary section
# whose defaults must be written out in full.
INTEGER_CONFIG = {
    "schema_version": "1",
    "model": {"N": 200, "s": 1.0, "u": 1, "nu0": 0.5},
    "seed": 11,
    "ode": {"z0": 1, "t_end": 2},
    "stationary": {},
}

# SHA-256 of the canonical JSON of each report's `config` record.
GOLDEN_CONFIG_RECORDS = {
    "reference": "79d32ad6f8467aed61f95655817c6b295b885a6b446470405148704527d9e8e9",
    "integer": "23a6ca76f24d4c9f9751a93cbb46510737979f89ae0e07cc3217a3969c478232",
}

REPORTS = {
    "ode": "ode_report.json",
    "simulate": "ensemble_report.json",
    "clt": "clt_report.json",
    "stationary": "stationary_report.json",
}


@pytest.mark.parametrize(
    "command, config",
    [(command, "reference") for command in REPORTS]
    + [("ode", "integer"), ("stationary", "integer")],
)
def test_config_record_matches_golden_digest(tmp_path, command, config):
    if config == "reference":
        config_path = REFERENCE_CONFIG
    else:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(INTEGER_CONFIG), encoding="utf-8")
    out_dir = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / REPORTS[command]).read_text(encoding="utf-8"))
    canonical = json.dumps(report["config"], sort_keys=True)
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == GOLDEN_CONFIG_RECORDS[config]
