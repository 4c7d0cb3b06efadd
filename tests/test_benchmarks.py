"""Smoke tests of the benchmark scripts."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_kernels_runs_on_a_small_grid():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
         "--grids", "8", "--repeats", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "step" in proc.stdout and "turing 64" in proc.stdout
    assert "8         smooth" in proc.stdout


def test_bench_e2e_records_a_tiny_run(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_e2e.py"), "--label", "smoke",
         "--size", "tiny", "--seconds", "1", "--workload", "turing-1d", "--seeds", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["label"] == "smoke" and record["seeds"] == [1]
    assert record["env"]["backend"] == "numpy" and "numba" in record["env"]
    assert {"nproc", "python", "numpy", "l2_cache_bytes"} <= set(record["env"])
    assert set(record["checkouts"]) == {"change"}
    assert "commit" in record["checkouts"]["change"]
    assert [(r["trace"], r["failed"]) for r in record["runs"]] == [(0, 0), (1, 0)]
    summary = record["summary"]["turing-1d"]
    assert summary["wall_s"]["change"]["n"] == 1
    assert summary["kernels.cg_solves"]["change"]["median"] > 0
    assert summary["failed"] == {"change": 0}


def test_every_traced_name_exists_and_is_restored():
    # perfbench/tracing.py wraps module attributes by name; a renamed or
    # removed one fails here, in the tier-1 suite
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def current():
        return [tracing._owner(module, path) for module, path, _, _ in tracing.TARGETS]

    originals = [owner.__dict__[attr] for owner, attr in current()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr in current()]
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    finally:
        tracer.restore()
    assert [owner.__dict__[attr] for owner, attr in current()] == originals
