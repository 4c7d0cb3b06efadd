"""Command-line interface: exit codes, artifacts, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from sirblab.cli import main
from sirblab.grid import Grid, neumann_modes
from sirblab import grid as grid_module
from sirblab import kernels
from sirblab.scenario import MAX_AXIS_CELLS, MAX_MODE_COUNT

from common import REF, DAMPED

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


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


@pytest.mark.parametrize("command", ["steady", "stability"])
@pytest.mark.parametrize("rates,named", [({"d2": 0.0, "d3": 0.0}, "d2=0.0"),
                                         ({"b0": 1e300, "d1": 0.0}, "b0=1e+300")],
                         ids=["degenerate-removal", "overflow"])
def test_rates_the_endemic_reduction_cannot_take_exit_2(tmp_path, capsys, command,
                                                        rates, named):
    cfg = write_json(tmp_path, "cfg.json", scenario_doc(params=rates))
    rc, stdout, stderr = run_cli(capsys, command, "--config", cfg)
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("config error: params: ") and named in stderr


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


def test_stability_of_endemic_1d_passes_its_crosscheck_at_256_modes(capsys):
    # the Z3 (S, I, R) block has a nearly double eigenvalue at mode 143
    cfg = str(SCENARIOS / "endemic_1d.json")
    rc, stdout, stderr = run_cli(capsys, "stability", "--config", cfg, "--modes", "256")
    assert rc == 0, stderr
    reports = {r["state"]["tag"]: r for r in json.loads(stdout)["reports"]}
    assert len(reports["Z3"]["per_mode"]) == 256


@pytest.mark.parametrize("spec", [
    {"kind": "cells", "values": [0.05] * 64},
    {"kind": "profile", "profile": "cosine", "base": 0.05, "amplitude": 0.0},
], ids=["cells", "flat-profile"])
def test_constant_coefficient_of_any_kind_is_analysed(tmp_path, capsys, spec):
    shipped = SCENARIOS / "endemic_1d.json"
    doc = json.loads(shipped.read_text())
    doc["coefficients"]["a1"] = spec
    cfg = write_json(tmp_path, "cfg.json", doc)
    rc, stdout, stderr = run_cli(capsys, "stability", "--config", cfg)
    assert rc == 0, stderr
    assert stdout == run_cli(capsys, "stability", "--config", str(shipped))[1]

    sweep = write_json(tmp_path, "sweep.json",
                       {"base": doc, "axes": [{"param": "beta2", "values": [0.4, 0.5]}]})
    rc, _, stderr = run_cli(capsys, "sweep", "--config", sweep,
                            "--out", str(tmp_path / "o"))
    assert rc == 0, stderr


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


def test_every_trajectory_cell_is_a_plain_float(tmp_path, capsys):
    # adaptive steps must not leak numpy scalars into the recorded times,
    # which repr would spell as np.float64(...)
    cfg = str(SCENARIOS / "endemic_1d.json")
    out = tmp_path / "run"
    rc, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert rc == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) > 2
    for row in rows:
        for cell in row.split(","):
            float(cell)


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


def test_simulate_from_an_unresolvable_state_tag_exits_2(tmp_path, capsys):
    doc = scenario_doc(params={"beta2": 2.0})  # the endemic bracket fails
    doc["initial"] = {"kind": "mode", "state": "Z4-branch-S2", "epsilon": 0.01, "mode": 1}
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "o"
    rc, stdout, stderr = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert "initial.state" in stderr
    assert not out.exists()


def test_simulate_from_a_state_tag_at_overflowing_rates_names_the_range(tmp_path, capsys):
    # 2*b0 overflows: the endemic gate must not answer "no endemic state"
    doc = scenario_doc(params={"b0": 1e308, "d1": 0.0, "k1": 1.7, "beta2": 5.0})
    doc["initial"] = {"kind": "mode", "state": "Z4-branch-S2", "epsilon": 0.01, "mode": 1}
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "o"
    rc, stdout, stderr = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert "initial.state" in stderr and "rates out of floating-point range" in stderr
    assert "no steady state tagged" not in stderr
    assert not out.exists()


def _shipped(name):
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def _damped_2d(initial=None, **coefficients):
    """damped_2d with fields of its bump or its coefficients replaced."""
    doc = _shipped("damped_2d")
    doc["initial"].update(initial or {})
    doc["coefficients"].update(coefficients)
    return doc


def _gaussian(**args):
    return {"kind": "profile", "profile": "gaussian", "base": 0.02, "amplitude": 0.01, **args}


def _turing_point_at_epsilon(epsilon):
    doc = _shipped("turing_point")
    doc["initial"]["epsilon"] = epsilon
    return doc


@pytest.mark.parametrize("doc,path,named", [
    (scenario_doc(initial={"kind": "constant", "values": [-1.0, 0.5, 0.2, 0.5]}),
     "initial", "min -1.0"),
    (_damped_2d({"amplitude": [-5.0, 0.8, 0.2, 1.0]}), "initial", "nonnegative"),
    (_turing_point_at_epsilon(1e6), "initial", "nonnegative"),
    (scenario_doc(initial={"kind": "random", "low": [1.0, 0.0, 0.0, 0.0],
                           "high": [0.5, 1.0, 1.0, 1.0]}), "initial", "low <= high"),
    (_damped_2d({"width": 0.0}), "initial", "width"),
    (_damped_2d({"width": -0.2}), "initial", "width"),
    (_damped_2d({"center": [0.5]}), "initial", "center"),
    (_damped_2d({"center": [0.5, 0.5, 0.5]}), "initial", "center"),
    (_damped_2d(a2=_gaussian(width=0.0)), "coefficients.a2", "width"),
    (_damped_2d(a2=_gaussian(center=[0.5])), "coefficients.a2", "center"),
    (_damped_2d(a1={"kind": "profile", "profile": "cosine", "base": 0.02,
                    "amplitude": 0.01, "modes": [1]}), "coefficients.a1", "modes"),
], ids=["negative-constant", "negative-bump", "mode-epsilon", "random-low-above-high",
        "bump-width-0", "bump-width-negative", "bump-center-short", "bump-center-long",
        "gaussian-width-0", "gaussian-center-short", "cosine-modes-short"])
def test_simulate_rejects_bad_initial_data_and_geometry(tmp_path, capsys, doc, path, named):
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "o"
    rc, stdout, stderr = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert f"config error: {path}: " in stderr and named in stderr
    assert "np.float64" not in stderr
    assert not out.exists()


def _with_lengths(name, lengths):
    doc = _shipped(name)
    doc["grid"]["lengths"] = lengths
    return doc


@pytest.mark.parametrize("command,doc,path", [
    ("stability", _with_lengths("endemic_1d", [1e-200]), "grid.lengths[0]"),
    ("simulate", _with_lengths("endemic_1d", [1e-200]), "grid.lengths[0]"),
    ("simulate", _with_lengths("damped_2d", [1e-160, 1e-160]), "grid.lengths[0]"),
    ("simulate", _with_lengths("damped_2d", [1e200, 1e200]), "grid.lengths[0]"),
    ("simulate", _damped_2d({"width": 1e200}), "initial"),
    ("stability", _damped_2d(a2=_gaussian(width=1e200)), "coefficients.a2"),
], ids=["1d-length-1e-200-stability", "1d-length-1e-200-simulate",
        "2d-lengths-1e-160", "2d-lengths-1e200", "bump-width-1e200", "gaussian-width-1e200"])
def test_geometry_outside_floating_point_range_exits_2(tmp_path, capsys, command, doc, path):
    # each exited 1 with an OverflowError, or a nan dt, deep in the run
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "o"
    argv = ["--modes", "8"] if command == "stability" else ["--out", str(out)]
    rc, stdout, stderr = run_cli(capsys, command, "--config", cfg, *argv)
    assert rc == 2
    assert stdout == ""
    assert f"config error: {path}: " in stderr
    assert not out.exists()


def _cosine(**args):
    return {"kind": "profile", "profile": "cosine", "base": 0.02, "amplitude": 0.01,
            "modes": [1, 2], **args}


@pytest.mark.parametrize("doc,path", [
    (_damped_2d(a2=_gaussian(center=5)), "coefficients.a2.center"),
    (_damped_2d(a2=_gaussian(center=[0.5, "0.5"])), "coefficients.a2.center[1]"),
    (_damped_2d(a2=_gaussian(width=[1])), "coefficients.a2.width"),
    (_damped_2d(a2=_gaussian(base=None)), "coefficients.a2.base"),
    (_damped_2d(a2=_gaussian(amplitude=True)), "coefficients.a2.amplitude"),
    (_damped_2d(a1=_cosine(modes=1)), "coefficients.a1.modes"),
    (_damped_2d(a1=_cosine(modes=[1.5, 1])), "coefficients.a1.modes[0]"),
    (_damped_2d(a1=_cosine(base=True)), "coefficients.a1.base"),
], ids=["center-number", "center-string-entry", "width-list", "base-null",
        "amplitude-bool", "modes-number", "modes-float-entry", "base-bool"])
def test_simulate_rejects_profile_arguments_of_the_wrong_type(tmp_path, capsys, doc, path):
    # each exited 1 with a TypeError traceback, or ran on with the value
    # coerced (int(1.5), float(True))
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "o"
    rc, stdout, stderr = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert f"config error: {path}: expected " in stderr
    assert not out.exists()


def test_simulate_rejects_an_oversized_grid_before_allocating(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("allocated grid-sized data before the grid was bounded")

    monkeypatch.setattr(kernels, "axis_spectrum", forbidden)
    monkeypatch.setattr(grid_module.CoefficientField, "materialize", forbidden)
    doc = scenario_doc(grid={"lengths": [2.0], "cells": [MAX_AXIS_CELLS + 1]})
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "o"
    rc, stdout, stderr = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert "grid.cells[0]" in stderr
    assert not out.exists()


def test_malformed_json_exits_2(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text('{"params": {,}}')
    rc, stdout, stderr = run_cli(capsys, "steady", "--config", str(f))
    assert rc == 2
    assert stdout == ""
    assert "line 1" in stderr


def _unreadable_config(tmp_path, kind):
    f = tmp_path / "cfg.json"
    if kind == "directory":
        f.mkdir()
    elif kind == "not-utf8":
        f.write_bytes(b'{"name": "caf\xe9"}')
    return f


def _existing_file(tmp_path):
    f = tmp_path / "taken"
    f.write_text("")
    return f


@pytest.mark.parametrize("command,config,out", [
    ("steady", "missing", None),
    ("steady", "directory", None),
    ("steady", "not-utf8", None),
    ("steady", None, "file"),
    ("stability", None, "file"),
    ("simulate", None, "file"),
    ("sweep", None, "file"),
], ids=["steady-missing-config", "steady-config-directory", "steady-config-not-utf8",
        "steady-out-file", "stability-out-file", "simulate-out-file", "sweep-out-file"])
def test_unusable_paths_exit_2_and_name_the_path(tmp_path, capsys, command, config, out):
    # a directory, undecodable bytes or an --out that is a file each
    # exited 1 with a traceback, and steady/stability printed first
    if config is None:
        doc = sweep_doc([{"param": "beta2", "values": [0.5]}], None) \
            if command == "sweep" else scenario_doc()
        cfg = pathlib.Path(write_json(tmp_path, "cfg.json", doc))
    else:
        cfg = _unreadable_config(tmp_path, config)
    argv = [command, "--config", str(cfg)]
    named = cfg
    if out is not None:
        named = _existing_file(tmp_path)
        argv += ["--out", str(named)]
    elif command != "steady":
        argv += ["--out", str(tmp_path / "o")]
    rc, stdout, stderr = run_cli(capsys, *argv)
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("config error: ") and str(named) in stderr
    assert "Traceback" not in stderr


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


def test_sweep_on_variable_diffusion_exits_2_like_stability(tmp_path, capsys):
    doc = sweep_doc([{"param": "beta2", "values": [0.4, 0.5]}], None)
    doc["base"]["coefficients"]["a1"] = {"kind": "profile", "profile": "cosine",
                                         "base": 0.1, "amplitude": 0.05}
    cfg = write_json(tmp_path, "sweep.json", doc)
    out = tmp_path / "o"
    rc, _, stderr = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert "coefficients" in stderr and "constant diffusion" in stderr
    assert not out.exists()

    base = write_json(tmp_path, "base.json", doc["base"])
    rc, _, stability_stderr = run_cli(capsys, "stability", "--config", base)
    assert rc == 2
    assert stability_stderr == stderr


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


def _forbid_mode_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("modes enumerated before the count was validated")
    monkeypatch.setattr("sirblab.cli.neumann_modes", refuse)
    monkeypatch.setattr("sirblab.sweep.neumann_modes", refuse)


def test_stability_rejects_mode_count_above_cap(tmp_path, capsys, monkeypatch):
    _forbid_mode_enumeration(monkeypatch)
    cfg = write_json(tmp_path, "cfg.json", scenario_doc())
    rc, stdout, stderr = run_cli(capsys, "stability", "--config", cfg,
                                 "--modes", str(MAX_MODE_COUNT + 1))
    assert rc == 2
    assert stdout == ""
    assert "--modes" in stderr and str(MAX_MODE_COUNT) in stderr


def test_sweep_rejects_mode_count_above_cap(tmp_path, capsys, monkeypatch):
    _forbid_mode_enumeration(monkeypatch)
    doc = sweep_doc([{"param": "beta2", "values": [0.5]}], None)
    doc["base"]["analysis"] = {"modes": 10**9}
    cfg = write_json(tmp_path, "sweep.json", doc)
    out = tmp_path / "o"
    rc, _, stderr = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert "analysis.modes" in stderr
    assert not out.exists()


@pytest.mark.parametrize("field,index", [("run.record_modes[1]", 400000),
                                         ("run.record_modes[1]", 32),
                                         ("initial.mode", 400000)])
def test_simulate_rejects_unresolvable_mode_indices(tmp_path, capsys, field, index):
    doc = scenario_doc()
    if field == "initial.mode":
        doc["initial"] = {"kind": "mode", "state": "Z4-branch-S2",
                          "epsilon": 0.01, "mode": index}
    else:
        doc["run"]["record_modes"] = [0, index]
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "o"
    rc, stdout, stderr = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert field in stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# shipped scenarios
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command,scenario", [
    (command, scenario) for command in ("steady", "stability")
    for scenario in ("endemic_1d", "damped_2d", "turing_point")
] + [("simulate", "endemic_1d"), ("simulate", "damped_2d"), ("sweep", "turing_sweep")])
def test_shipped_scenarios_run_with_warnings_as_errors(tmp_path, command, scenario):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    argv = [sys.executable, "-W", "error", "-m", "sirblab.cli", command,
            "--config", str(SCENARIOS / f"{scenario}.json")]
    if command in ("simulate", "sweep"):
        argv += ["--out", str(tmp_path / "o")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["stability", "sweep"])
@pytest.mark.parametrize("length,code", [(1e-100, 2), (1e-45, 0)])
def test_lengths_whose_mode_products_overflow_exit_2(tmp_path, command, length, code):
    # endemic_1d at 8 modes: at length 1e-100 a*lambda_max is 2.4e201, and
    # the analyzer's cubic products of it overflow; at 1e-45 it is 2.4e91.
    base = json.loads((SCENARIOS / "endemic_1d.json").read_text())
    base["grid"]["lengths"] = [length]
    doc = base
    if command == "sweep":
        doc = {"name": "tiny", "base": base, "outputs": ["Z4.overall"],
               "axes": [{"param": "beta2", "values": [0.5]}]}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sirblab.cli", command,
         "--config", write_json(tmp_path, "cfg.json", doc), "--modes", "8",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stderr.startswith("config error") and "grid.lengths" in proc.stderr
        assert proc.stdout == "" and not out.exists()
    else:
        assert "Warning" not in proc.stderr


def _turing_point_stability(tmp_path, **rates):
    doc = json.loads((SCENARIOS / "turing_point.json").read_text())
    doc["params"].update(rates)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "sirblab.cli", "stability",
         "--config", write_json(tmp_path, "cfg.json", doc), "--modes", "8"],
        env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("rate", ["xi", "sigma", "beta1"])
def test_rates_whose_mode_norms_overflow_exit_2(tmp_path, rate):
    # At 1e160 a squared entry overflows, tol becomes inf and every mode
    # read marginal (Z1's max real part is +3.34); the state is refused first.
    proc = _turing_point_stability(tmp_path, **{rate: 1e160})
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: params: state Z")
    assert "rates too large for a mode analysis" in proc.stderr


@pytest.mark.parametrize("rate", ["xi", "sigma", "beta1"])
def test_large_rates_whose_products_stay_finite_still_analyse(tmp_path, rate):
    proc = _turing_point_stability(tmp_path, **{rate: 1e110})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["reports"]


@pytest.mark.parametrize("value,code", [(1e-310, 2), (1e-305, 2), (1e-300, 0)])
def test_coefficients_whose_tail_threshold_overflows_exit_2(tmp_path, value, code):
    # The Gershgorin tail threshold of a row is (J_ii + R_i) / a_i: at
    # a1 = 1e-310 (subnormal) or 1e-305 it overflows, at 1e-300 it is finite.
    doc = json.loads((SCENARIOS / "turing_point.json").read_text())
    doc["coefficients"]["a1"] = {"kind": "constant", "value": value}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sirblab.cli", "stability",
         "--config", write_json(tmp_path, "cfg.json", doc), "--modes", "8"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("config error: coefficients.a1: ")
        assert "Gershgorin tail" in proc.stderr
    else:
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["reports"]


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("sirblab ")


def test_sweep_repeated_output_exits_2(tmp_path, capsys):
    doc = sweep_doc([{"param": "beta2", "values": [0.5]}], ["Z1.overall", "Z1.overall"])
    cfg = write_json(tmp_path, "sweep.json", doc)
    out = tmp_path / "o"
    rc, _, stderr = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert stderr.startswith("config error: outputs[1]: duplicate output 'Z1.overall'")
    assert not out.exists()


def test_repeated_record_mode_exits_2(tmp_path, capsys):
    # the repeat appended twice to one amplitude list, and the CSV read the
    # first half of it: the t=0.0564 row showed the t=0 amplitudes, exit 0
    doc = _shipped("endemic_1d")
    doc["run"].update(record_modes=[1, 1], record_every=1)
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "o"
    rc, stdout, stderr = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("config error: run.record_modes[1]: duplicate mode 1")
    assert not out.exists()


def test_snapshot_at_t_end_takes_the_final_state(tmp_path, capsys):
    # a snapshot time within 1e-12 of t_end was taken as reached one step
    # early, while the run went on to t_end
    doc = _shipped("endemic_1d")
    doc["run"]["snapshot_times"] = [1.9999999999998, 2.0]
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "o"
    rc, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert rc == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["final_time"] == 2.0
    assert [s["time"] for s in meta["snapshots"]] == [1.9999999999998, 2.0]


_HUGE = 10**400  # a JSON integer beyond float range


@pytest.mark.parametrize("command,doc,path", [
    ("stability", scenario_doc(params={"b0": _HUGE}), "params.b0"),
    ("simulate", _with_lengths("endemic_1d", [_HUGE]), "grid.lengths[0]"),
    ("sweep", sweep_doc([{"param": "beta2", "values": [0.5, _HUGE]}], ["Z1.overall"]),
     "axes[0].values[1]"),
    ("simulate", _damped_2d(a1=_cosine(modes=[_HUGE, 1])), "coefficients.a1.modes[0]"),
], ids=["params", "lengths", "sweep-axis", "cosine-modes"])
def test_integers_beyond_float_range_exit_2(tmp_path, capsys, command, doc, path):
    # each exited 1 with an OverflowError from float() or int * float
    cfg = write_json(tmp_path, "cfg.json", doc)
    out = tmp_path / "o"
    argv = ["--modes", "8"] if command == "stability" else ["--out", str(out)]
    rc, stdout, stderr = run_cli(capsys, command, "--config", cfg, *argv)
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith(f"config error: {path}: expected a finite number")
    assert not out.exists()


def test_integer_too_long_to_read_exits_2(tmp_path, capsys):
    # json refuses integers of more than 4300 digits with a plain ValueError
    f = tmp_path / "long.json"
    f.write_text('{"params": {"b0": 1' + "0" * 5000 + "}}")
    rc, stdout, stderr = run_cli(capsys, "steady", "--config", str(f))
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith(f"config error: {f}: invalid JSON")


def test_seed_with_an_initial_that_is_not_an_object_exits_2(tmp_path, capsys):
    # the --seed warning read initial.kind before initial was checked
    cfg = write_json(tmp_path, "cfg.json", scenario_doc(initial=[1, 2]))
    out = tmp_path / "o"
    rc, stdout, stderr = run_cli(capsys, "simulate", "--config", cfg,
                                 "--out", str(out), "--seed", "3")
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("config error: initial: expected an object")
    assert not out.exists()
