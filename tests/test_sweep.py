"""Parameter sweeps: per-point evaluation, CSV layout, parallel dispatch."""

import json
import os
import subprocess
import sys

import pytest

from sirblab import stability, sweep
from sirblab.grid import Grid, neumann_modes
from sirblab.scenario import ConfigError
from sirblab.stability import DiffusionMatrix
from sirblab.sweep import (
    DEFAULT_OUTPUTS,
    OUTPUT_COLUMNS,
    _cell_text,
    evaluate_point,
    run_sweep,
)

from common import REF

GRID = {"lengths": [2.0], "cells": [16]}
COEFFS = {
    "a1": {"kind": "constant", "value": 0.05},
    "a2": {"kind": "constant", "value": 0.05},
    "a3": {"kind": "constant", "value": 0.05},
    "a4": {"kind": "constant", "value": 0.01},
}

# the sweep's diffusion matrix and spectrum for GRID, COEFFS and 32 modes
DIFF = DiffusionMatrix(0.05, 0.05, 0.05, 0.01)
SPECTRUM = neumann_modes(Grid((2.0,), (16,)), 32)


def point_doc(**param_overrides):
    params = dict(REF)
    params.update(param_overrides)
    return {"params": params, "grid": GRID, "coefficients": COEFFS, "modes": 32}


def base_doc():
    return {"params": dict(REF), "grid": GRID, "coefficients": COEFFS}


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------

def test_point_record_covers_every_column():
    record = evaluate_point(point_doc(), DIFF, SPECTRUM)
    assert set(record) == set(OUTPUT_COLUMNS) | {"error"}
    assert record["error"] == ""

    assert record["endemic_exists"] is True
    assert record["condition_lhs"] == pytest.approx(2.5)
    assert record["condition_rhs"] == pytest.approx(2.0)
    for tag in ("Z1", "Z2", "Z3", "Z4"):
        assert record[f"{tag}.exists"] is True
    assert record["Z4.count"] == 1
    assert record["Z1.overall"] == "unstable"
    assert record["Z4.overall"] == "stable"
    assert record["Z4.turing"] is False


def test_point_solver_failure_is_in_row_data():
    # Steep transmission makes the endemic bracket fail while the
    # existence condition still holds; the row keeps the trivial states.
    record = evaluate_point(point_doc(beta2=2.0), DIFF, SPECTRUM)
    assert record["endemic_exists"] is True
    assert record["Z4.exists"] is False
    assert record["Z4.count"] == 0
    assert record["Z4.overall"] is None
    assert record["error"] != ""
    assert record["Z1.exists"] is True and record["Z1.overall"] == "unstable"


def test_rates_out_of_float_range_record_the_named_error(tmp_path):
    base = base_doc()
    base["params"]["d1"] = 0.0
    run_sweep(base, [("b0", [2.0, 1e300])], ["endemic_exists"], 32, str(tmp_path))
    ok, bad = (json.loads((tmp_path / f"point_{k:05d}.json").read_text())["record"]
               for k in range(2))
    assert ok["error"] == ""
    assert bad["error"].startswith("ValueError: rates out of floating-point range")
    assert "b0=1e+300" in bad["error"]


def test_point_builds_no_per_mode_objects(monkeypatch):
    expected = evaluate_point(point_doc(), DIFF, SPECTRUM)

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep point built a ModeVerdict")

    monkeypatch.setattr(stability, "ModeVerdict", refuse)
    record = evaluate_point(point_doc(), DIFF, SPECTRUM)
    assert record["error"] == ""
    assert record == expected


def test_point_config_failure_is_in_row_data():
    record = evaluate_point(point_doc(beta1=-0.3), DIFF, SPECTRUM)
    assert record["error"].startswith("ConfigError")
    assert "beta1" in record["error"]
    assert record["endemic_exists"] is None


def test_cell_text_formats():
    assert _cell_text(None) == ""
    assert _cell_text(True) == "true"
    assert _cell_text(False) == "false"
    assert _cell_text(0.1) == repr(0.1)
    assert _cell_text(2) == "2"
    assert _cell_text("stable") == "stable"


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------

def test_unknown_output_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="Z9.exists"):
        run_sweep(base_doc(), [], ["Z9.exists"], 32, str(tmp_path))


def test_sweep_table_layout(tmp_path):
    axes = [("beta2", [0.4, 0.5]), ("d4", [0.9, 1.1])]
    path = run_sweep(base_doc(), axes, ["endemic_exists"], 32, str(tmp_path))
    assert os.path.basename(path) == "sweep.csv"
    lines = open(path).read().splitlines()
    assert lines[0] == "beta2,d4,endemic_exists,error"
    assert len(lines) == 5

    # rows follow the lexicographic axis order
    combos = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert combos == [("0.4", "0.9"), ("0.4", "1.1"),
                      ("0.5", "0.9"), ("0.5", "1.1")]

    # one JSON witness per point, indexed in the same order
    for index, (b2, d4) in enumerate([(0.4, 0.9), (0.4, 1.1),
                                      (0.5, 0.9), (0.5, 1.1)]):
        payload = json.loads((tmp_path / f"point_{index:05d}.json").read_text())
        assert payload["index"] == index
        assert payload["axes"] == {"beta2": b2, "d4": d4}
        assert payload["record"]["error"] == ""

    assert not list(tmp_path.glob("*.tmp"))


def test_sweep_default_outputs(tmp_path):
    path = run_sweep(base_doc(), [("beta2", [0.5])], None, 32, str(tmp_path))
    header = open(path).read().splitlines()[0].split(",")
    assert header == ["beta2"] + list(DEFAULT_OUTPUTS) + ["error"]


def test_sweep_without_axes_is_one_base_row(tmp_path):
    path = run_sweep(base_doc(), [], ["endemic_exists", "Z4.overall"],
                     32, str(tmp_path))
    lines = open(path).read().splitlines()
    assert lines[0] == "endemic_exists,Z4.overall,error"
    assert lines[1] == "true,stable,"


def test_sweep_rows_survive_solver_failures(tmp_path):
    axes = [("beta2", [0.5, 2.0])]
    path = run_sweep(base_doc(), axes, ["endemic_exists", "Z4.exists"],
                     32, str(tmp_path))
    lines = open(path).read().splitlines()
    good, bad = lines[1], lines[2]
    assert good.startswith("0.5,true,true,")
    assert bad.startswith("2.0,true,false,")
    assert '"' in bad  # quoted error text
    assert "," not in bad.split('"')[1]  # commas stripped inside the quotes


def test_parallel_matches_serial(tmp_path):
    axes = [("beta2", [0.4, 0.5, 0.6]), ("g0", [2.0, 3.0])]
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    run_sweep(base_doc(), axes, None, 32, str(serial), jobs=1)
    run_sweep(base_doc(), axes, None, 32, str(parallel), jobs=2)
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
    for index in range(6):
        name = f"point_{index:05d}.json"
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


@pytest.mark.parametrize("jobs,cpus,expected", [
    (64, 4, [4]),   # capped by the CPU count
    (64, 16, [6]),  # capped by the number of points
    (2, 4, [2]),    # as asked
    (64, 1, []),    # one CPU: no pool at all
])
def test_worker_count_is_capped(tmp_path, monkeypatch, jobs, cpus, expected):
    sizes = []

    class RecordingPool:
        """Serial stand-in for ProcessPoolExecutor that records its size."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    run_sweep(base_doc(), [("d1", [0.5, 0.75, 1.0, 1.25, 1.5, 1.75])],
              ["Z2.exists"], 8, str(tmp_path), jobs=jobs)
    assert sizes == expected
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 7


def test_cli_start_up_leaves_the_process_pool_unimported():
    # concurrent.futures.process pulls in multiprocessing and socket; only a
    # parallel sweep needs them, so importing the CLI must not load them
    src = os.path.dirname(os.path.dirname(sweep.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
    code = ("import sys, sirblab.cli; "
            "print(sorted(m for m in ('multiprocessing', 'socket', 'concurrent.futures') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_spectrum_is_built_once_per_sweep(tmp_path, monkeypatch):
    calls = []
    original = sweep.neumann_modes

    def counting(grid, count):
        calls.append(count)
        return original(grid, count)

    monkeypatch.setattr(sweep, "neumann_modes", counting)
    axes = [("beta2", [0.4, 0.5, 2.0]), ("d4", [0.9, 1.1])]
    run_sweep(base_doc(), axes, None, 32, str(tmp_path))
    assert calls == [32]

    # the shared spectrum gives the records each point builds on its own
    for index, (b2, d4) in enumerate([(b2, d4) for b2 in (0.4, 0.5, 2.0)
                                      for d4 in (0.9, 1.1)]):
        payload = json.loads((tmp_path / f"point_{index:05d}.json").read_text())
        assert payload["record"] == evaluate_point(point_doc(beta2=b2, d4=d4), DIFF, SPECTRUM)


def test_bad_base_grid_raises_before_any_output(tmp_path):
    base = base_doc()
    base["grid"] = {"lengths": [2.0], "cells": [0]}
    out = tmp_path / "o"
    # the base is checked before the outputs, so the grid field is named
    for outputs in (["endemic_exists"], ["Z9.exists"]):
        with pytest.raises(ConfigError) as e:
            run_sweep(base, [("beta2", [0.4, 0.5])], outputs, 32, str(out))
        assert e.value.path == "grid.cells[0]"
    assert not out.exists()


# ---------------------------------------------------------------------------
# One classification per distinct (state tag, Jacobian) in a sweep
# ---------------------------------------------------------------------------

def _counting_classify(monkeypatch):
    calls = []
    original = sweep.classify_state

    def counting(state, *args):
        calls.append(state.tag)
        return original(state, *args)

    monkeypatch.setattr(sweep, "classify_state", counting)
    return calls


def _one_point_at_a_time(monkeypatch):
    original = sweep.evaluate_point
    monkeypatch.setattr(sweep, "evaluate_point",
                        lambda point, diff, spectrum, memo: original(point, diff, spectrum))


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_a_sweep_classifies_each_distinct_state_once(tmp_path, monkeypatch):
    # Z1's Jacobian involves no infection rate, so a beta2 axis leaves it
    # one matrix; every file equals that of points evaluated one at a time.
    axes = [("beta2", [0.4, 0.45, 0.5, 0.55, 0.6, 2.0])]
    calls = _counting_classify(monkeypatch)
    run_sweep(base_doc(), axes, list(OUTPUT_COLUMNS), 32, str(tmp_path / "memo"))
    assert calls.count("Z1") == 1
    assert calls.count("Z2") == 6
    calls.clear()
    _one_point_at_a_time(monkeypatch)
    run_sweep(base_doc(), axes, list(OUTPUT_COLUMNS), 32, str(tmp_path / "apart"))
    assert calls.count("Z1") == 6
    assert _files(tmp_path / "memo") == _files(tmp_path / "apart")


def test_an_analysis_that_raises_is_not_cached(tmp_path, monkeypatch):
    # xi = 1e160 overflows the mode norms of every state: each point raises
    # again and records the same in-row error (beta2 stays below the
    # endemic threshold, 0.4, so no endemic root is sought).
    base = base_doc()
    base["params"]["xi"] = 1e160
    checked = []
    original = sweep.check_state_products

    def counting(jac, *args):
        checked.append(jac.tag)
        return original(jac, *args)

    monkeypatch.setattr(sweep, "check_state_products", counting)
    run_sweep(base, [("beta2", [0.1, 0.2, 0.3])], ["Z1.overall"], 32, str(tmp_path))
    assert checked == ["Z1"] * 3
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    errors = {line.split(",", 2)[2] for line in lines[1:]}
    assert len(errors) == 1
    assert errors.pop().startswith('"ConfigError: params: state Z1: rates too large for a mode')


def test_overflowing_mode_norms_are_an_in_row_error_without_warnings(tmp_path):
    doc = {"name": "overflow", "base": {**base_doc(), "params": {**REF, "xi": 1e160}},
           "axes": [{"param": "beta2", "values": [0.3]}], "outputs": ["Z1.overall"]}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(sweep.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sirblab.cli", "sweep", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    row = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1]
    assert row.startswith('0.3,,"ConfigError: params: state Z1: rates too large for a mode analysis')


def test_an_overflowing_tail_threshold_is_an_in_row_error_without_warnings(tmp_path):
    base = base_doc()
    base["coefficients"] = {**COEFFS, "a1": {"kind": "constant", "value": 1e-310}}
    doc = {"name": "subnormal", "base": base,
           "axes": [{"param": "beta2", "values": [0.3]}], "outputs": ["Z1.overall"]}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(sweep.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sirblab.cli", "sweep", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    row = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1]
    assert row.startswith('0.3,,"ConfigError: coefficients.a1: ')
    assert "Gershgorin tail" in row


def test_a_repeated_output_is_rejected_before_any_file(tmp_path):
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match=r"^outputs\[2\]: duplicate output 'Z1.overall'"):
        run_sweep(base_doc(), [], ["Z1.overall", "Z2.overall", "Z1.overall"], 32, str(out))
    assert not out.exists()
