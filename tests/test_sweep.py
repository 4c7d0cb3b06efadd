"""Parameter sweeps: per-point evaluation, CSV layout, parallel dispatch."""

import json
import os

import pytest

from sirblab import sweep
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
    record = evaluate_point(point_doc())
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
    record = evaluate_point(point_doc(beta2=2.0))
    assert record["endemic_exists"] is True
    assert record["Z4.exists"] is False
    assert record["Z4.count"] == 0
    assert record["Z4.overall"] is None
    assert record["error"] != ""
    assert record["Z1.exists"] is True and record["Z1.overall"] == "unstable"


def test_point_config_failure_is_in_row_data():
    record = evaluate_point(point_doc(beta1=-0.3))
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


def test_row_callback_sees_every_point_in_order(tmp_path):
    seen = []
    run_sweep(base_doc(), [("d1", [0.5, 1.0])], ["Z2.exists"], 8,
              str(tmp_path), on_row=lambda i, axes, rec: seen.append((i, axes["d1"])))
    assert seen == [(0, 0.5), (1, 1.0)]


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
