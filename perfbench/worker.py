"""Benchmark worker: one fresh process, one operation.

Started by run.py as ``python3 perfbench/worker.py JOB.json RESULT.json``
with PYTHONPATH pointing at the checkout's ``src`` and the BLAS/OpenMP
thread counts pinned to 1. The package is imported before the clock
starts; then ``sirblab.cli.main`` runs the job's arguments once, with the
layer wrappers of tracing.py installed when the job is traced. Every
operation gets a fresh process because that is how the CLI is used: the
first large arrays of a process are slower to allocate (the C allocator
has not yet raised its thresholds), which costs ``hetero-2d`` about half
its time, and a long-lived process would hide that cost.

The result holds the operation's wall time and exit code, the process's
peak resident memory, the environment and, when traced, the layer metrics;
the spans themselves go to the job's ``spans`` file.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import numpy
import sirblab
import sirblab.cli
import sirblab.kernels

from tracing import Tracer, layer_metrics


def main(job_path, result_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = Tracer() if job["traced"] else None
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        code = sirblab.cli.main(job["argv"])
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.restore()
    result = {
        "wall_s": wall,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "layers": layer_metrics(tracer.spans) if tracer else {},
        "env": {
            "backend": sirblab.kernels.backend_name(),
            "sirblab_path": os.path.dirname(sirblab.__file__),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    if tracer:
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "status", "note"],
                       "spans": tracer.spans}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
