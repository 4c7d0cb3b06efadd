"""Self-test of the benchmark: ``python3 -m pytest perfbench``.

Smoke runs use the tiny variant of every workload against references
recorded on the spot, so they check the benchmark's plumbing, not the
program's numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def _bench(refs: Path, workload: str, trace: int):
    return _run([str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny",
                 "--references", str(refs)])


@pytest.fixture(scope="module")
def tiny_refs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("refs") / "tiny.json"
    proc = _run([str(HERE / "make_references.py"), "--src", str(ROOT / "src"),
                 "--out", str(out), "--size", "tiny", "--variant", "1"])
    assert proc.returncode == 0, proc.stderr
    return out


def test_default_seed_is_the_shipped_scenario():
    shipped = ROOT / "scenarios" / "turing_point.json"
    if not shipped.is_file():
        pytest.skip("scenarios/turing_point.json is not in this checkout")
    assert workloads.make_doc("turing-1d", 0) == json.loads(shipped.read_text())


def test_seeds_cover_the_reference_table():
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    assert refs["size"] == "full"
    for name in workloads.WORKLOADS:
        assert sorted(map(int, refs["workloads"][name])) == list(range(workloads.VARIANTS))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(tiny_refs, workload, trace):
    proc = _bench(tiny_refs, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in lines[:-1]), m["name"]
    if not trace:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def _corrupt_output(ref):
    if "rows" in ref:
        ref["rows"][0][1] = repr(float(ref["rows"][0][1]) * 1.001)
    else:
        ref["final_row"][1] *= 1.001


def _corrupt_snapshot(ref):
    snap = ref["snapshots"][-1]
    snap["sampled"][str(snap["rows"] - 1)][-1] *= 1.001


@pytest.mark.parametrize("workload,corrupt", [
    *((w, _corrupt_output) for w in sorted(workloads.WORKLOADS)),
    *((w, _corrupt_snapshot) for w, kind in sorted(workloads.WORKLOADS.items())
      if kind == workloads.SIMULATE),
])
def test_corrupted_reference_raises_the_error_rate(tiny_refs, tmp_path, workload, corrupt):
    refs = json.loads(tiny_refs.read_text(encoding="utf-8"))
    corrupt(refs["workloads"][workload]["1"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(refs), encoding="utf-8")
    proc = _bench(bad, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run([*BENCH["command"][1:], "--workload", "turing-1d", "--seed", "0",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_counts_each_bad_sweep_point():
    ref = {"header": ["beta2", "Z1.overall", "Z1.max_real0", "error"],
           "rows": [["1.0", "stable", "-0.5", ""],
                    ["2.0", "unstable", "0.25", "no branch intersection (lhs 1 > rhs 0)"]]}
    same = json.loads(json.dumps(ref))
    same["rows"][1][3] = "no branch intersection (lhs 1.5 > rhs 0)"
    assert reference.compare("sweep", ref, same) == (0, 0.0)
    bad = json.loads(json.dumps(ref))
    bad["rows"][0][1] = "marginal"
    bad["rows"][1][3] = ""
    assert reference.compare("sweep", ref, bad)[0] == 2
    nan = json.loads(json.dumps(ref))
    nan["rows"][0][2] = "nan"
    assert reference.compare("sweep", ref, nan)[0] == 1


def test_compare_reads_numpy_scalar_reprs():
    ref = {"header": ["time", "amp_S_m0"], "final_row": [1.0, 2.0],
           "amplitudes": {"amp_S_m0": [2.0, 2.0]}, "snapshots": []}
    assert reference._number("np.float64(160.0)") == 160.0
    got = json.loads(json.dumps(ref))
    got["amplitudes"]["amp_S_m0"][0] = 2.0 * (1 + 1e-3)
    assert reference.compare("simulate", ref, ref) == (0, 0.0)
    assert reference.compare("simulate", ref, got)[0] == 1


def _simulate_out(path: Path, snapshot_rows) -> Path:
    path.mkdir()
    (path / "trajectory.csv").write_text("time,sup_S,amp_S_m0\n0.0,1.0,0.5\n1.0,0.9,0.4\n")
    (path / "meta.json").write_text(json.dumps(
        {"snapshots": [{"file": "snapshot_000.csv", "time": 1.0}]}))
    (path / "snapshot_000.csv").write_text(
        "x,y,S\n" + "".join(",".join(map(repr, row)) + "\n" for row in snapshot_rows))
    return path


def test_compare_catches_garbled_snapshots(tmp_path):
    rows = [(0.25 + i, 0.25 + j, 1.0 + 3 * i + j) for i in range(3) for j in range(3)]
    ref = reference.fingerprint("simulate", _simulate_out(tmp_path / "ref", rows))
    same = reference.fingerprint("simulate", _simulate_out(tmp_path / "same", rows))
    assert reference.compare("simulate", ref, same) == (0, 0.0)
    transposed = [(x, y, s) for (x, y, _), (_, _, s) in zip(rows, sorted(
        rows, key=lambda r: (r[1], r[0])))]
    for name, garbled in [("transposed", transposed), ("truncated", rows[:-1])]:
        got = reference.fingerprint("simulate", _simulate_out(tmp_path / name, garbled))
        assert reference.compare("simulate", ref, got)[0] == 1, name
    (tmp_path / "same" / "snapshot_000.csv").unlink()
    with pytest.raises(OSError):
        reference.fingerprint("simulate", tmp_path / "same")
