"""sirblab benchmark: end-to-end timings and an outside-in per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload turing-1d --seed 0 --seconds 30 --trace 0

The workload's input document is generated from the seed (workloads.py)
and the program receives only that document, through its public entry
point ``sirblab.cli.main``, called inside a worker process that has already
imported the package (worker.py). Outputs of every operation are checked
against the recorded reference (reference.py, references.json).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``wall_s``: median seconds of one operation (one ``simulate`` or one
  ``sweep``), over the operations that fit in ``--seconds``;
* ``setup_s``: median over fresh processes of importing ``sirblab.cli``,
  and the calls the CLI makes before its operation starts: parsing the
  scenario and building the initial state (setup_probe.py);
* ``peak_rss_mb``: peak resident memory of the worker process.

``--trace 1`` runs one untraced and one traced operation and reports the
per-layer metrics of BENCHMARK.json (tracing.py), including the tracing
overhead; the traced artifacts must equal the untraced ones byte for byte,
apart from the ``meta.json`` timestamp.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
checked units (one per simulation, one per sweep point) and ``failed``
those whose output differs from the reference, so ``failed/attempted`` is
the error rate. A sweep point whose reference row records an in-row error
(``EndemicBracketError``) passes when the same error recurs; such points are
reported on their own line, not as failures. Lines before the JSON object
repeat every metric with its unit, the environment stamp and figures that
are information only (rates, ``check.max_rel_dev``).

Processes run one at a time, so the benchmark never runs more than one
child beside itself, and children get one BLAS/OpenMP thread each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
# Every run must finish well inside three minutes.
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(args, env, deadline: float) -> str:
    """Run one child to completion and return its standard output."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a child could start")
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    return int(out) if out.isdigit() else None


def _same_artifacts(a: Path, b: Path) -> bool:
    """Equal file sets and bytes; meta.json may differ in its timestamp."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    for name in names:
        da, db = (a / name).read_bytes(), (b / name).read_bytes()
        if name == "meta.json":
            ma, mb = json.loads(da), json.loads(db)
            ma.pop("timestamp", None)
            mb.pop("timestamp", None)
            if ma != mb:
                return False
        elif da != db:
            return False
    return True


def _check(kind: str, ref: dict, ops) -> dict:
    """Compare every operation's outputs with the reference."""
    units = reference.units(kind, ref)
    attempted = failed = in_row_errors = 0
    worst = 0.0
    for op in ops:
        attempted += units
        if op["exit_code"] != 0:
            failed += units
            continue
        try:
            got = reference.fingerprint(kind, op["out_dir"])
        except (OSError, IndexError, KeyError, ValueError):
            failed += units
            continue
        bad, dev = reference.compare(kind, ref, got)
        failed += min(bad, units)
        worst = max(worst, dev)
        if kind == workloads.SWEEP:
            in_row_errors += sum(1 for row in got["rows"] if row[-1])
    return {"attempted": attempted, "failed": failed, "max_rel_dev": worst,
            "in_row_errors": in_row_errors}


def _accepted_steps(out_dir: str) -> int:
    with open(os.path.join(out_dir, "meta.json"), encoding="utf-8") as fh:
        return int(json.load(fh)["steps"])


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="input size; 'tiny' is for the self-test")
    parser.add_argument("--references", type=Path, default=HERE / "references.json",
                        help="recorded reference outputs (make_references.py)")
    return parser.parse_args(argv)


def run(args):
    """Run one benchmark invocation; returns (result record, info figures)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    src = ROOT / "src"
    if not (src / "sirblab" / "cli.py").is_file():
        raise BenchError(f"no sirblab package under {src}; run from a full checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    kind = workloads.WORKLOADS[args.workload]
    variant = workloads.variant_of(args.seed)
    refs = json.loads(args.references.read_text(encoding="utf-8"))
    ref = refs["workloads"].get(args.workload, {}).get(str(variant))
    if ref is None or refs["size"] != args.size:
        raise BenchError(f"{args.references} has no {args.size} reference for "
                         f"{args.workload} variant {variant}")

    work = HERE / ".work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc = workloads.make_doc(args.workload, variant, args.size)
    config = work / "input.json"
    config.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    env = _child_env(src)

    def operation(label: str, traced: bool = False) -> dict:
        out_dir = work / label
        job = {"argv": workloads.cli_argv(args.workload, str(config), str(out_dir)),
               "traced": traced, "spans": str(work / "spans.json")}
        job_path, result_path = work / f"{label}.job.json", work / f"{label}.result.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        _run_child([str(HERE / "worker.py"), str(job_path), str(result_path)], env, deadline)
        op = json.loads(result_path.read_text(encoding="utf-8"))
        if not Path(op["env"]["sirblab_path"]).resolve().is_relative_to(src.resolve()):
            raise BenchError(f"imported sirblab from {op['env']['sirblab_path']}, "
                             f"not from {src}")
        op["out_dir"] = str(out_dir)
        return op

    setup, layers = [], {}
    if args.trace:
        ops = [operation("plain"), operation("traced", traced=True)]
        layers = dict(ops[1]["layers"])
        layers["trace.overhead_s"] = ops[1]["wall_s"] - ops[0]["wall_s"]
    else:
        for _ in range(SETUP_REPEATS):
            out = _run_child([str(HERE / "setup_probe.py"), str(config)], env, deadline)
            setup.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        # Operations run back to back until the next one would overrun.
        ops, begun = [], time.monotonic()
        while True:
            ops.append(operation(f"op{len(ops)}"))
            elapsed = time.monotonic() - begun
            if elapsed + elapsed / len(ops) > args.seconds:
                break

    check = _check(kind, ref, ops)
    identical = None
    if args.trace:
        identical = _same_artifacts(Path(ops[0]["out_dir"]), Path(ops[1]["out_dir"]))
        if not identical:
            check["failed"] += reference.units(kind, ref)
    walls = [op["wall_s"] for op in ops]
    wall = statistics.median(walls[:1] if args.trace else walls)  # untraced only
    cells, points = workloads.work_units(doc)

    values = dict(layers)
    values["wall_s"] = wall
    values["peak_rss_mb"] = statistics.median(op["peak_rss_mb"] for op in ops)
    if setup:
        values["setup_s"] = statistics.median(setup)
    info = {}
    if kind == workloads.SIMULATE and ops[0]["exit_code"] == 0:
        steps = _accepted_steps(ops[0]["out_dir"])
        info["cell_steps_per_s"] = (cells * steps / wall, "1/s")
    if kind == workloads.SWEEP:
        info["points_per_s"] = (points / wall, "1/s")
        info["sweep.in_row_errors"] = (check["in_row_errors"], "count")
        info["sweep.reference_in_row_errors"] = (
            len(ops) * sum(1 for row in ref["rows"] if row[-1]), "count")
    info["error_rate"] = (check["failed"] / check["attempted"], "1")
    info["check.max_rel_dev"] = (check["max_rel_dev"], "1")
    if identical is not None:
        info["trace.artifacts_identical"] = (identical, "bool")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env_stamp = {
        "backend": ops[0]["env"]["backend"],
        "numba": "not installed: numba path unmeasured"
                 if ops[0]["env"]["backend"] == "numpy" else "measured",
        "nproc": os.cpu_count(),
        "python": ops[0]["env"]["python"],
        "numpy": ops[0]["env"]["numpy"],
        "machine": platform.machine(),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "field_bytes": 8 * cells,  # one float64 field
        "bytes_note": "cg_bytes_computed is computed from iterations and array "
                      "sizes; no bandwidth is measured",
    }
    record = {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "size": args.size, "trace": args.trace, "walls_s": walls, "setup_s": setup,
        "env": env_stamp, "info": {k: v[0] for k, v in info.items()},
        "correct": check["failed"] == 0, "attempted": check["attempted"],
        "failed": check["failed"], "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if record["correct"]:
        for op in ops:
            shutil.rmtree(op["out_dir"], ignore_errors=True)
    return record, info


def _report(record, info):
    print(f"perfbench {record['workload']} seed {record['seed']} "
          f"(variant {record['variant']}, {record['size']}), trace {record['trace']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"operations {len(record['walls_s'])}: "
          + ", ".join(f"{w:.4f}" for w in record["walls_s"]) + " s")
    if record["setup_s"]:
        print(f"setup samples {len(record['setup_s'])}: "
              + ", ".join(f"{s:.4f}" for s in record["setup_s"]) + " s")
    for name, m in record["metrics"].items():
        print(f"{name:34s} {m['value']!r} {m['unit']}")
    print(f"{'attempted / failed':34s} {record['attempted']} / {record['failed']} units")
    for name, (value, unit) in info.items():
        print(f"{name:34s} {value!r} {unit}  (information only)")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        record, info = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    _report(record, info)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
