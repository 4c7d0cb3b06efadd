"""Record the benchmark of one or more checkouts as BENCH_<label>.json.

Runs ``perfbench/run.py`` of each checkout, one process at a time, for
every workload of BENCHMARK.json: ``--trace 0`` once per seed (the
end-to-end metrics) and ``--trace 1`` once, on the first seed (the
per-layer metrics). Each run's final JSON line gives its metrics, its ``env`` line
the environment stamp. Nothing here times anything itself; the file holds
what run.py printed, plus medians, quartiles and, for two checkouts, how
many seeds the second one won per end-to-end metric. With several
checkouts the order alternates from seed to seed, so neither side always
runs first.

    python3 benchmarks/bench_e2e.py --label pr6 \\
        --checkout parent=../parent --checkout change=. --seeds 7600 7601 ...

A checkout is a directory holding ``src/`` and ``perfbench/`` (a git clone
at the commit to measure; its commit is recorded). ``--size tiny`` records
tiny references on the spot with the checkout's own make_references.py,
for a quick check of the plumbing; the benchmark itself is ``full``.
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# run.py stops itself after 170 s; this limit only guards against a hang.
RUN_TIMEOUT_S = 600


def _checkout(text: str):
    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {text!r}")
    return name, Path(path).resolve()


def _git(path: Path, *args) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(path), *args], capture_output=True,
                              text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _commit(path: Path) -> dict:
    status = _git(path, "status", "--porcelain", "--", "src", "perfbench")
    return {"commit": _git(path, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def _run(cmd, cwd: Path) -> str:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(map(str, cmd))} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout


def _parse(stdout: str) -> dict:
    """Metrics, outcome, env stamp and information lines of one run.py run."""
    lines = stdout.strip().splitlines()
    last = json.loads(lines[-1])
    out = {"correct": last["correct"], "attempted": last["attempted"],
           "failed": last["failed"],
           "metrics": {k: m["value"] for k, m in last["metrics"].items()},
           "info": {}, "env": None}
    for line in lines[:-1]:
        if line.startswith("env "):
            out["env"] = json.loads(line[4:])
        elif line.endswith("(information only)"):
            name, value = line.split()[:2]
            try:
                out["info"][name] = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                out["info"][name] = value
    return out


def _references(path: Path, variant: int, tmp: Path, cache: dict) -> Path:
    """Tiny references of one variant, recorded with the checkout's sources."""
    key = (path, variant)
    if key not in cache:
        out = tmp / f"refs-{len(cache)}.json"
        _run([sys.executable, str(path / "perfbench" / "make_references.py"),
              "--src", str(path / "src"), "--out", str(out), "--size", "tiny",
              "--variant", str(variant)], path)
        cache[key] = out
    return cache[key]


def _spread(values) -> dict:
    values = sorted(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs, names, bench) -> dict:
    """Per workload and metric: each checkout's spread and, for two
    checkouts, the seeds on which the second beat the first."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        table = summary[workload] = {}
        for trace in (0, 1):
            picked = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            metrics = sorted({m for r in picked for m in r["metrics"]})
            for metric in metrics:
                values = {n: [r["metrics"][metric] for r in picked if r["checkout"] == n]
                          for n in names}
                entry = {n: _spread(v) for n, v in values.items() if v}
                if trace == 0 and len(names) == 2 and all(values[n] for n in names):
                    first, second = names
                    by_seed = {n: {r["seed"]: r["metrics"][metric] for r in picked
                                   if r["checkout"] == n} for n in names}
                    seeds = sorted(set(by_seed[first]) & set(by_seed[second]))
                    sign = 1.0 if better.get(metric) == "lower" else -1.0
                    entry["pairs"] = len(seeds)
                    entry[f"{second}_wins"] = sum(
                        1 for s in seeds
                        if sign * (by_seed[second][s] - by_seed[first][s]) < 0)
                table[metric] = entry
        table["failed"] = {n: sum(r["failed"] for r in runs
                                  if r["workload"] == workload and r["checkout"] == n)
                           for n in names}
    return summary


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload_names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--checkout", type=_checkout, action="append", dest="checkouts",
                    metavar="NAME=PATH", help=f"default: change={ROOT}")
    ap.add_argument("--workload", action="append", dest="workloads",
                    choices=workload_names, help="default: every workload")
    ap.add_argument("--seeds", type=int, nargs="+", default=[3])
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=Path, help="default: BENCH_<label>.json in the repo root")
    args = ap.parse_args(argv)
    checkouts = args.checkouts or [("change", ROOT)]
    names = [n for n, _ in checkouts]
    if len(set(names)) != len(names):
        ap.error("checkout names must differ")
    workloads = args.workloads or workload_names
    out_path = args.out or ROOT / f"BENCH_{args.label}.json"

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import variant_of

    jobs = [(w, s, 0) for w in workloads for s in args.seeds]
    jobs += [(w, args.seeds[0], 1) for w in workloads]
    runs, env = [], None
    with tempfile.TemporaryDirectory() as tmp:
        refs = {}
        for index, (workload, seed, trace) in enumerate(jobs):
            order = checkouts if index % 2 == 0 else checkouts[::-1]
            for position, (name, path) in enumerate(order):
                cmd = [sys.executable, str(path / "perfbench" / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--size", args.size]
                if args.size == "tiny":
                    refs_path = _references(path, variant_of(seed), Path(tmp), refs)
                    cmd += ["--references", str(refs_path)]
                result = _parse(_run(cmd, path))
                run_env = result.pop("env")
                env = env or run_env
                runs.append({"checkout": name, "workload": workload, "seed": seed,
                             "trace": trace, "position": position, **result})
                print(f"{name:10s} {workload:10s} seed {seed:5d} trace {trace} "
                      f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)

    record = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace T --size {args.size}",
        "size": args.size, "seconds": args.seconds,
        "seeds": args.seeds, "trace_seed": args.seeds[0], "env": env,
        "checkouts": {n: _commit(p) for n, p in checkouts},
        "summary": summarize(runs, names, bench),
        "runs": runs,
    }
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
