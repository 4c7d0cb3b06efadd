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


def _same_artifacts():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "same_artifacts", ROOT / "benchmarks" / "same_artifacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_artifacts_finds_a_tree_equal_to_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "same_artifacts.py"),
         str(ROOT / "src"), str(ROOT / "src"), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("same: ") and "from 18 commands" in proc.stdout


def test_same_artifacts_ignores_only_the_meta_timestamp(tmp_path):
    differences = _same_artifacts().differences
    meta = '{\n  "steps": 3,\n  "timestamp": "%s",\n  "version": "0.1.0"\n}\n'
    for side, stamp in (("a", "2026-01-01T00:00:00"), ("b", "2026-01-02T09:30:00")):
        run = tmp_path / side / "job" / "out"
        run.mkdir(parents=True)
        (run / "meta.json").write_text(meta % stamp)
        (run / "trajectory.csv").write_text("time\n0.0\n")
    assert differences(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "job" / "out" / "trajectory.csv").write_text("time\n-0.0\n")
    assert differences(tmp_path / "a", tmp_path / "b") == [
        ("job/out/trajectory.csv", "max relative deviation 0")]
    (tmp_path / "b" / "job" / "out" / "meta.json").write_text(
        (meta % "x").replace('"steps": 3', '"steps": 4'))
    assert [rel for rel, _ in differences(tmp_path / "a", tmp_path / "b")] == [
        "job/out/meta.json", "job/out/trajectory.csv"]
    (tmp_path / "b" / "job" / "extra.txt").write_text("")
    assert differences(tmp_path / "a", tmp_path / "b")[0] == ("job/extra.txt", "only in B")


def test_same_artifacts_lists_every_differing_file(tmp_path, capsys):
    report = _same_artifacts().report
    rows = ["x,S,I", "0.25,1.5,0.125", "0.75,2.0,0.0625"]
    for side in ("a", "b"):
        for job in ("one", "two"):
            run = tmp_path / side / job / "out"
            run.mkdir(parents=True)
            (run / "snapshot_000.csv").write_text("\n".join(rows) + "\n")
            (run / "console.txt").write_text("exit 0\n")
    assert report(tmp_path / "a", tmp_path / "b", 2) == 0
    assert capsys.readouterr().out == "same: 4 files from 2 commands\n"

    rows[2] = "0.75,2.000000002,0.0625"  # one number, 1e-9 relative
    for job in ("one", "two"):
        (tmp_path / "b" / job / "out" / "snapshot_000.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "b" / "two" / "out" / "console.txt").write_text("exit 1\n")
    assert report(tmp_path / "a", tmp_path / "b", 2) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "differs: one/out/snapshot_000.csv (max relative deviation 1e-09)"
    assert lines[1:] == ["differs: two/out/console.txt",
                         "differs: two/out/snapshot_000.csv (max relative deviation 1e-09)",
                         "3 of 4 files differ"]

    # a number that turns nan, and an infinity that changes sign
    for side, one, two in (("a", "0.75,2.0,0.0625", "0.75,2.0,inf"),
                           ("b", "0.75,nan,0.0625", "0.75,2.0,-inf")):
        for job, last in (("one", one), ("two", two)):
            csv = tmp_path / side / job / "out" / "snapshot_000.csv"
            csv.write_text("\n".join(rows[:2] + [last]) + "\n")
    (tmp_path / "b" / "two" / "out" / "console.txt").write_text("exit 0\n")
    assert report(tmp_path / "a", tmp_path / "b", 2) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: one/out/snapshot_000.csv (max relative deviation inf)",
        "differs: two/out/snapshot_000.csv (max relative deviation inf)",
        "2 of 4 files differ"]
