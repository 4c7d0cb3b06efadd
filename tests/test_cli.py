"""Command-line interface: exit codes, artifacts, determinism."""

import json

import pytest

from sirblab.cli import main
from sirblab.grid import Grid, neumann_modes

from common import REF, DAMPED


def write_json(tmp_path, name, doc):
    f = tmp_path / name
    f.write_text(json.dumps(doc, indent=2) + "\n")
    return str(f)


def scenario_doc(**overrides):
    params = dict(REF)
    params.update(overrides.pop("params", {}))
    doc = {
        "name": "cli-case",
        "params": params,
        "grid": {"lengths": [2.0], "cells": [32]},
        "coefficients": {
            "a1": {"kind": "constant", "value": 0.05},
            "a2": {"kind": "constant", "value": 0.05},
            "a3": {"kind": "constant", "value": 0.05},
            "a4": {"kind": "constant", "value": 0.01},
        },
        "initial": {"kind": "constant", "values": [1.0, 0.5, 0.2, 0.5]},
        "run": {"t_end": 0.2, "record_every": 2,
                "record_modes": [0, 1], "snapshot_times": [0.1, 0.2]},
    }
    doc.update(overrides)
    return doc


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# steady
# ---------------------------------------------------------------------------

def test_steady_reports_all_states(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", scenario_doc())
    out = tmp_path / "out"
    rc, stdout, _ = run_cli(capsys, "steady", "--config", cfg, "--out", str(out))
    assert rc == 0
    payload = json.loads(stdout)
    assert [st["tag"] for st in payload["states"]] == \
        ["Z1", "Z2", "Z3", "Z4-branch-S2"]
    assert payload["endemic"]["exists"] is True
    assert all(abs(st["residual"]) < 1e-10 for st in payload["states"])
    # file copy is byte-for-byte the stdout report
    assert (out / "steady.json").read_text() == stdout


def test_steady_collapses_to_origin_when_everything_dies(tmp_path, capsys):
    doc = scenario_doc(params={"b0": 0.8, "d1": 1.2, "g0": 0.5, "d4": 1.0})
    cfg = write_json(tmp_path, "cfg.json", doc)
    rc, stdout, _ = run_cli(capsys, "steady", "--config", cfg)
    assert rc == 0
    payload = json.loads(stdout)
    assert [st["tag"] for st in payload["states"]] == ["Z1"]
    assert payload["endemic"]["exists"] is False


def test_steady_surfaces_bracket_failure_as_warning(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", scenario_doc(params={"beta2": 2.0}))
    rc, stdout, stderr = run_cli(capsys, "steady", "--config", cfg)
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["endemic"]["exists"] is True
    assert "endemic_error" in payload
    assert [st["tag"] for st in payload["states"]] == ["Z1", "Z2", "Z3"]
    assert "warning" in stderr


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def test_stability_echoes_the_exact_spectrum(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", scenario_doc())
    rc, stdout, _ = run_cli(capsys, "stability", "--config", cfg)
    assert rc == 0
    payload = json.loads(stdout)
    spectrum = neumann_modes(Grid((2.0,), (32,)), 32)
    assert payload["mode_count"] == 32
    assert payload["lambdas"] == [m.lam for m in spectrum]

    verdicts = {r["state"]["tag"]: r["overall"] for r in payload["reports"]}
    assert verdicts["Z1"] == "unstable"
    assert verdicts["Z2"] == "unstable"
    assert verdicts["Z3"] == "unstable"
    assert verdicts["Z4-branch-S2"] == "stable"


def test_stability_mode_count_override(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", scenario_doc())
    rc, stdout, _ = run_cli(capsys, "stability", "--config", cfg, "--modes", "8")
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["mode_count"] == 8
    assert len(payload["lambdas"]) == 8
    assert len(payload["reports"][0]["per_mode"]) == 8


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_the_advertised_artifacts(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", scenario_doc())
    out = tmp_path / "run1"
    rc, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert rc == 0

    meta = json.loads((out / "meta.json").read_text())
    assert meta["completed"] is True
    assert meta["violations"] == []
    assert meta["files"] == ["trajectory.csv", "snapshot_000.csv", "snapshot_001.csv"]
    for name in meta["files"]:
        assert (out / name).exists()

    # recorded numbers survive a parse/print round trip unchanged
    line = (out / "trajectory.csv").read_text().splitlines()[1]
    for cell in line.split(","):
        assert cell == repr(float(cell))

    header = (out / "snapshot_000.csv").read_text().splitlines()[0]
    assert header == "x,S,I,R,B"

    # the timestamp is confined to meta.json
    for name in meta["files"]:
        assert "timestamp" not in (out / name).read_text()


def test_simulate_reruns_byte_identically(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", scenario_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, "simulate", "--config", cfg, "--out", str(out1))[0] == 0
    assert run_cli(capsys, "simulate", "--config", cfg, "--out", str(out2))[0] == 0

    for name in ("trajectory.csv", "snapshot_000.csv", "snapshot_001.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    m1 = json.loads((out1 / "meta.json").read_text())
    m2 = json.loads((out2 / "meta.json").read_text())
    m1.pop("timestamp"), m2.pop("timestamp")
    assert m1 == m2


def test_simulate_seed_override(tmp_path, capsys):
    doc = scenario_doc(initial={"kind": "random", "low": [0.5, 0.1, 0.1, 0.1],
                                "high": [1.0, 0.5, 0.3, 0.5], "seed": 0})
    cfg = write_json(tmp_path, "cfg.json", doc)
    outs = [tmp_path / n for n in ("s1", "s1b", "s2")]
    for out, seed in zip(outs, ("1", "1", "2")):
        rc, _, _ = run_cli(capsys, "simulate", "--config", cfg,
                           "--out", str(out), "--seed", seed)
        assert rc == 0
    t = [(o / "trajectory.csv").read_bytes() for o in outs]
    assert t[0] == t[1]
    assert t[0] != t[2]


def test_seed_on_nonrandom_initial_warns(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", scenario_doc())
    rc, _, stderr = run_cli(capsys, "simulate", "--config", cfg,
                            "--out", str(tmp_path / "o"), "--seed", "5")
    assert rc == 0
    assert "only affects 'random'" in stderr


def test_config_errors_exit_2_and_name_the_field(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", scenario_doc(params={"beta1": -0.3}))
    rc, stdout, stderr = run_cli(capsys, "simulate", "--config", cfg,
                                 "--out", str(tmp_path / "o"))
    assert rc == 2
    assert stdout == ""
    assert "params" in stderr and "beta1" in stderr


def test_malformed_json_exits_2(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text('{"params": {,}}')
    rc, stdout, stderr = run_cli(capsys, "steady", "--config", str(f))
    assert rc == 2
    assert stdout == ""
    assert "line 1" in stderr


def test_missing_config_exits_2(tmp_path, capsys):
    rc, stdout, stderr = run_cli(capsys, "steady", "--config",
                                 str(tmp_path / "nope.json"))
    assert rc == 2
    assert stdout == ""


def test_numeric_failure_exits_3(tmp_path, capsys):
    doc = scenario_doc(initial={"kind": "constant", "values": [0.5, 2.0, 0.2, 1.0]},
                       run={"t_end": 10.0, "dt": 2.0, "adaptive": False})
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "o"
    rc, _, stderr = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert rc == 3
    assert "t = " in stderr and "cell" in stderr

    meta = json.loads((out / "meta.json").read_text())
    assert meta["completed"] is False
    assert "PositivityError" in meta["error"]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_doc(axes, outputs):
    return {
        "name": "cli-sweep",
        "base": scenario_doc(),
        "axes": axes,
        "outputs": outputs,
    }


def sweep_column(out_dir, column):
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    k = lines[0].split(",").index(column)
    return [line.split(",")[k] for line in lines[1:]]


def test_sweep_endemic_threshold_flips_once(tmp_path, capsys):
    doc = sweep_doc([{"param": "beta2", "values": [0.3, 0.35, 0.4, 0.45, 0.5]}],
                    ["endemic_exists"])
    cfg = write_json(tmp_path, "sweep.json", doc)
    out = tmp_path / "o"
    rc, _, _ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out))
    assert rc == 0
    # threshold sits at beta2 = 0.4; the condition is strict, so the
    # boundary point itself reports no endemic state
    assert sweep_column(out, "endemic_exists") == \
        ["false", "false", "false", "true", "true"]


def test_sweep_z2_existence_flips_at_equal_rates(tmp_path, capsys):
    doc = sweep_doc([{"param": "d1", "values": [1.8, 1.9, 2.0, 2.1]}],
                    ["Z2.exists"])
    cfg = write_json(tmp_path, "sweep.json", doc)
    out = tmp_path / "o"
    rc, _, _ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out))
    assert rc == 0
    assert sweep_column(out, "Z2.exists") == ["true", "true", "false", "false"]


def test_sweep_parallel_is_byte_identical(tmp_path, capsys):
    doc = sweep_doc([{"param": "beta2", "values": [0.4, 0.5, 0.6]},
                     {"param": "d4", "values": [0.9, 1.1]}], None)
    cfg = write_json(tmp_path, "sweep.json", doc)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(serial))[0] == 0
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(parallel),
                   "--jobs", "2")[0] == 0

    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
    m1 = json.loads((serial / "meta.json").read_text())
    m2 = json.loads((parallel / "meta.json").read_text())
    m1.pop("timestamp"), m2.pop("timestamp")
    m1.pop("jobs"), m2.pop("jobs")
    assert m1 == m2


def test_sweep_unknown_output_exits_2(tmp_path, capsys):
    doc = sweep_doc([{"param": "beta2", "values": [0.5]}], ["bogus"])
    cfg = write_json(tmp_path, "sweep.json", doc)
    rc, _, stderr = run_cli(capsys, "sweep", "--config", cfg,
                            "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "bogus" in stderr


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    doc = sweep_doc([{"param": "beta2", "values": [0.5]}], None)
    cfg = write_json(tmp_path, "sweep.json", doc)
    out = tmp_path / "o"
    rc, _, stderr = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out),
                            "--jobs", jobs)
    assert rc == 2
    assert "--jobs" in stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("sirblab ")
