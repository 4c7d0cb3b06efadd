"""Check that two source trees write the same artifacts, byte for byte.

A performance change must leave every artifact as it was: any other dt or
rounding changes every number a run writes. This script runs the same
commands on two ``src`` trees and compares what they wrote:

    python3 benchmarks/same_artifacts.py ../parent/src src

The commands, with ``--size full`` (the default):

* ``steady``, ``stability --modes 32``, ``stability --modes 256`` and
  ``simulate`` on each shipped scenario in ``scenarios/`` (the sweep
  document aside);
* ``sweep`` on ``scenarios/turing_sweep.json`` at ``--jobs 1`` and
  ``--jobs 2``;
* variants 0-3 of the three benchmark workloads, whose documents come
  from ``perfbench/workloads.py`` (imported, never written to) and whose
  command line is the one the benchmark runs.

``--size tiny`` runs the workloads at their tiny size and the shipped
scenarios through ``steady`` and ``stability --modes 32`` only: a check
of the plumbing in a few seconds.

Each tree runs every command in one child process (``sirblab.cli.main``,
one BLAS thread), with the output directory relative to the command's own
working directory, so that messages naming it read the same for both
trees. Besides the files a command writes, its exit code, standard output
and standard error are kept as ``console.txt``. ``meta.json`` is compared
with its top-level ``timestamp`` line removed; every other file byte for
byte. Exits 0 when all files are the same, and 1 after listing every file
that differs or exists on one side only, each differing CSV with the
largest relative deviation between its numbers, cell by cell.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
SWEEP_SCENARIO = "turing_sweep.json"
VARIANTS = (0, 1, 2, 3)
# A child runs every command of one tree; this only guards against a hang.
CHILD_TIMEOUT_S = 1800
_TIMESTAMP = re.compile(rb'^  "timestamp": "[^"]*",?\n', re.M)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def jobs(size: str, configs: Path) -> list:
    """(name, argv) of every command, in order; writes the workload
    documents into ``configs``. Every ``--out`` is the relative "out"."""
    out = []
    for path in sorted(SCENARIOS.glob("*.json")):
        if path.name == SWEEP_SCENARIO:
            continue
        config, stem = str(path), path.stem
        out.append((f"{stem}-steady", ["steady", "--config", config, "--out", "out"]))
        modes = (32,) if size == "tiny" else (32, 256)
        out += [(f"{stem}-stability-{m}", ["stability", "--config", config,
                                           "--modes", str(m), "--out", "out"])
                for m in modes]
        if size == "full":
            out.append((f"{stem}-simulate", ["simulate", "--config", config, "--out", "out"]))
    if size == "full":
        config = str(SCENARIOS / SWEEP_SCENARIO)
        out += [(f"turing_sweep-jobs{n}", ["sweep", "--config", config, "--out", "out",
                                           "--jobs", str(n)]) for n in (1, 2)]
    workloads = _workloads()
    for workload in workloads.WORKLOADS:
        for variant in VARIANTS:
            name = f"{workload}-v{variant}"
            config = configs / f"{name}.json"
            doc = workloads.make_doc(workload, variant, size)
            config.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            out.append((name, workloads.cli_argv(workload, str(config), "out")))
    return out


def run_child(job_file: Path, root: Path) -> int:
    """Run every job of ``job_file`` with the sirblab on sys.path, each in
    its own directory under ``root``."""
    from sirblab import cli

    here = os.getcwd()
    for name, argv in json.loads(job_file.read_text(encoding="utf-8")):
        work = root / name
        work.mkdir(parents=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as e:
                    code = e.code
                except Exception as e:  # the CLI would exit 1 with a traceback
                    code = 1
                    print(f"{type(e).__name__}: {e}", file=sys.stderr)
        finally:
            os.chdir(here)
        (work / "console.txt").write_text(
            f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}",
            encoding="utf-8")
    return 0


def _files(root: Path) -> list:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    return _TIMESTAMP.sub(b"", data) if path.name == "meta.json" else data


def _deviation(a: bytes, b: bytes):
    """Largest relative deviation between the numbers of two CSV texts of
    one layout, cell by cell, or None when a row count, a column count or
    a cell that is not a number differs. A nan, or an infinity, against
    any other value is an infinite deviation."""
    rows_a, rows_b = a.decode().splitlines(), b.decode().splitlines()
    if len(rows_a) != len(rows_b):
        return None
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        if len(cells_a) != len(cells_b):
            return None
        for x, y in zip(cells_a, cells_b):
            if x == y:
                continue
            try:
                x, y = float(x), float(y)
            except ValueError:
                return None
            if x == y:
                continue
            if not (math.isfinite(x) and math.isfinite(y)):
                return math.inf
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def differences(a: Path, b: Path) -> list:
    """Every file that differs, as (path, note) in path order. The note is
    "only in A" or "only in B", the largest relative deviation of a CSV
    whose cells differ only in their numbers, or "" for any other file."""
    files_a, files_b = _files(a), _files(b)
    out = []
    for rel in sorted(set(files_a) | set(files_b)):
        if (a / rel).is_file() != (b / rel).is_file():
            out.append((rel, "only in " + ("A" if (a / rel).is_file() else "B")))
            continue
        left, right = _content(a / rel), _content(b / rel)
        if left != right:
            dev = _deviation(left, right) if rel.endswith(".csv") else None
            out.append((rel, "" if dev is None else f"max relative deviation {dev:.3g}"))
    return out


def report(a: Path, b: Path, commands: int) -> int:
    """Print every file that differs between the artifact trees ``a`` and
    ``b``; the exit code: 0 when none does, else 1."""
    diffs = differences(a, b)
    count = len(set(_files(a)) | set(_files(b)))
    for rel, note in diffs:
        print(f"differs: {rel}" + (f" ({note})" if note else ""))
    if diffs:
        print(f"{len(diffs)} of {count} files differ")
        return 1
    print(f"same: {count} files from {commands} commands")
    return 0


def _run_tree(src: Path, job_file: Path, root: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child",
                           str(job_file), str(root)],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"the run of {src} failed:\n{proc.stderr[-2000:]}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:  # one tree's run: --child JOBS ROOT
        return run_child(Path(argv[1]), Path(argv[2]))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs=2, type=Path, metavar="SRC",
                    help="two source trees, each holding the sirblab package")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    for src in args.trees:
        if not (src / "sirblab" / "__init__.py").is_file():
            ap.error(f"{src} holds no sirblab package")
    with tempfile.TemporaryDirectory(prefix="same-artifacts-") as tmp:
        tmp = Path(tmp)
        configs = tmp / "configs"
        configs.mkdir()
        job_list = jobs(args.size, configs)
        job_file = tmp / "jobs.json"
        job_file.write_text(json.dumps(job_list), encoding="utf-8")
        roots = (tmp / "a", tmp / "b")
        for src, root in zip(args.trees, roots):
            _run_tree(src.resolve(), job_file, root)
        return report(*roots, len(job_list))


if __name__ == "__main__":
    sys.exit(main())
