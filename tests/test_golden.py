"""Golden artifacts: refactors and kernel changes must not move any output.

Criterion 9 shows that two runs of one build agree. These digests show
that a change to the code did not change what it writes: SHA-256 of
every CSV artifact, and of the canonical JSON (sorted keys) of each
report's `results` object. The `config` record is left out of those,
since it restates the config file rather than computing anything; it is
pinned on its own, because the parser writes it.

The digests were taken with numpy 2.4 on x86-64. Another build of
numpy or libm may round the last bit of a float differently; regenerate
the digests then, after checking with the per-path reference tests that
only rounding moved.
"""

import contextlib
import hashlib
import io
import json
import multiprocessing
from pathlib import Path

import pytest

from moranlimits import cli
from moranlimits import io as mio

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference.json"

# u = 0 with k0 = 5 of N = 500: the boundary absorbs 22 of the 96 paths.
ABSORBING_CONFIG = {
    "schema_version": "1",
    "model": {"N": 500, "s": 0.2, "u": 0.0, "nu0": 0.5},
    "seed": 4242,
    "simulate": {"z0": 0.01, "t_end": 4.0, "n_paths": 96, "grid_step": 0.1},
}

# Two stored paths long enough to reach the capped 8192-draw batches of
# the chain's 64 -> 8192 draw schedule: more than 64 + 256 + 1024 + 4096
# + 8192 = 13632 events each.
LONG_PATHS = {"N": 20_000, "t_end": 1.0, "events": [15627, 15856]}

GOLDEN = {
    ("simulate", "reference"): {
        "ensemble_table.csv": "4268445bbd75cc4e230994563a4ebf4379c1580669ec7a4a14b264764cc85a38",
        "ensemble_report.json": "6347e6c95e019502892b91c4140a6978fef19cfecaf850463476ab35c8251078",
    },
    ("clt", "reference"): {
        "clt_table.csv": "55513adda8efc6947efb9a3ebfd00a525f7a0f3c07de426609af169499c7a23e",
        "clt_report.json": "8bf7819ab17109b3b3540a5f3fa085dfa1283ce162e5c47c922d255b1bd2b72f",
    },
    ("simulate", "absorbing"): {
        "ensemble_table.csv": "5c08c44a295deb0e88c51399b16cc0d659718f782462dac5d31568f2ba92fbb5",
        "ensemble_report.json": "e3cac5276bc8eaa4a120f7def2712e4b9d675917b3cc74dbaedfd3dc8564d7cb",
    },
    ("ode", "reference"): {
        "ode_report.json": "9d6da5cc8a4755d77cfaffe729607dcfaa11ff7e00a1eb42ec7bfbbc0ce81f1c",
        "ode_table.csv": "aa01db90554af84df7830f2fae9c4a29f0d3006903fcf04e6979354ca133280a",
    },
    # The limits horizon: 100,000 oracle steps from t = 0 to t = 100.
    ("ode", "reference+long_ode"): {
        "ode_report.json": "848fa9e52e31b82a4ee2e5eb483a4360bf5e2c7c05451e470b114cdee1df6bba",
        "ode_table.csv": "b29b2ca91eb73c29318a039a724245e39ede2d7603ad1344eaf49ed6d5b0c5c8",
    },
    ("stationary", "reference"): {
        "stationary_pmf.csv": "13db5375875f46bf4361e3d75a25de9b9f131ae5d4a7d529f40ea49a8c870cd9",
        "stationary_report.json": "ce0638bdcc96bc5f3047fa5df259a7fb62b6ccd251afff949568c2c0d41a7f8d",
        "stationary_sweep.csv": "e142cec2277c4c04c3e79b906576d3e59894e4977ebdd9af5da6c63b417935ce",
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
    ("simulate", "reference+long_paths"): {
        "ensemble_paths.csv": "38a1a1a85f693de714f0fd9b55ea0f432330b3e4b4565e80171eb787e81ff4f4",
        "ensemble_report.json": "81e7f2aa566861cc0f201f9810bd4ad7dd16c6b11a149005b6a35732a15aa447",
        "ensemble_table.csv": "e7c98554b6180f107cce7908b9c865867c19cd8e984bb7008d77c8556719f2fa",
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
    """The named config as a file.

    A "+store_paths" suffix turns store_paths on; "+long_ode" sets
    ode.t_end to 100; "+long_paths" keeps 2 paths at N = 2 * 10^4 to
    t = 1 (LONG_PATHS).
    """
    base, _, variant = config.partition("+")
    if base == "reference" and not variant:
        return REFERENCE_CONFIG
    if base == "reference":
        raw = json.loads(REFERENCE_CONFIG.read_text(encoding="utf-8"))
    else:
        raw = json.loads(json.dumps(ABSORBING_CONFIG))
    if variant == "store_paths":
        raw["simulate"]["store_paths"] = True
    elif variant == "long_ode":
        raw["ode"]["t_end"] = 100.0
    elif variant == "long_paths":
        raw["model"]["N"] = LONG_PATHS["N"]
        raw["simulate"].update(
            t_end=LONG_PATHS["t_end"], n_paths=len(LONG_PATHS["events"]), store_paths=True
        )
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


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the block worker is forked only where the platform has fork",
)
def test_long_paths_through_the_block_worker(tmp_path, monkeypatch):
    """The long-paths case again, its ~31.5k stored rows cut into 8 blocks
    of 4096, so a forked worker formats every other one."""
    blocks = []
    alternating = mio._alternating_blocks

    def spy(pool, first, columns, starts):
        blocks.append(len(starts))
        return alternating(pool, first, columns, starts)

    monkeypatch.setattr(mio, "_BLOCK_ROWS", 4096)
    monkeypatch.setattr(mio, "_alternating_blocks", spy)
    config_path = write_config(tmp_path, "reference+long_paths")
    out_dir = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0
    assert blocks == [8]
    assert artifact_digests(out_dir) == GOLDEN[("simulate", "reference+long_paths")]


def test_long_paths_reach_the_capped_batches(tmp_path):
    config_path = write_config(tmp_path, "reference+long_paths")
    out_dir = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0
    lines = (out_dir / "ensemble_paths.csv").read_text(encoding="utf-8").splitlines()[1:]
    rows = [0] * len(LONG_PATHS["events"])
    for line in lines:
        rows[int(line.split(",")[0])] += 1
    events = [n - 1 for n in rows]  # less each path's t = 0 anchor row
    assert events == LONG_PATHS["events"]
    assert min(events) > 64 + 256 + 1024 + 4096 + 8192


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
