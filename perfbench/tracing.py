"""Outside-in tracing: wrap the module attributes each layer calls.

Every sirblab module looks up its collaborators by name at call time
(``kernels.cg_solve``, the ``step`` global in ``integrator``, the
``classify_state`` global in ``sweep`` ...). ``Tracer.install`` swaps those
names for timing wrappers and ``Tracer.restore`` puts the originals back,
so the package itself carries no tracing code. Each call records one span
``(name, start, end, parent, status, note)`` in memory: ``parent`` is the
index of the enclosing span (-1 at the top), ``status`` the exception class
name or "" and ``note`` a small number taken from the arguments or result
(CG iterations, bytes written, ...). ``layer_metrics`` folds the spans into
the per-layer figures of BENCHMARK.json. Layer times are inclusive: a span
covers its children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

# CG model behind kernels.cg_bytes_computed: per iteration one stencil
# apply (reads p and a, writes Ap), two dot products (p.Ap, r.r) and three
# axpy updates (x, r, p): 3 + 3 + 9 = 15 float64 array passes. Per solve
# the start-up costs x = b, r = b - Ax, the two norms and p = r: 8 passes.
# numpy temporaries are not counted, so this is a computed figure, not a
# measured bandwidth.
CG_PASSES_PER_ITER = 15
CG_PASSES_PER_SOLVE = 8


def _cg_note(args, kwargs, result):
    _, iters, relres = result
    return (iters, relres, args[0].size)


def _classify_note(args, kwargs, result):
    return len(args[3])


def _write_note(args, kwargs, result):
    return len(args[1].encode("utf-8"))


def _point_note(args, kwargs, result):
    return int(bool(result["error"]))


# (module, attribute path, span name, note). Names are wrapped where the
# caller looks them up, so both module functions and Trajectory methods work.
TARGETS = (
    ("sirblab.cli", "main", "cli.main", None),
    ("sirblab.cli", "load_json", "scenario.load_json", None),
    ("sirblab.cli", "build_sim_config", "scenario.build_sim_config", None),
    ("sirblab.cli", "parse_sweep", "scenario.parse_sweep", None),
    ("sirblab.cli", "run_sweep", "sweep.run_sweep", None),
    ("sirblab.cli", "_write", "cli.write", _write_note),
    ("sirblab.integrator", "Trajectory.to_csv", "cli.to_csv", None),
    ("sirblab.integrator", "Trajectory.snapshot_csv", "cli.snapshot_csv", None),
    ("sirblab.scenario", "all_steady_states", "steady.all_steady_states", None),
    ("sirblab.kernels", "cg_solve", "kernels.cg_solve", _cg_note),
    ("sirblab.integrator", "step", "integrator.step", None),
    ("sirblab.integrator", "_check_positivity", "integrator.positivity", None),
    ("sirblab.integrator", "stability_dt", "integrator.stability_dt", None),
    ("sirblab.integrator", "_rhs_terms", "model.rhs", None),
    ("sirblab.integrator", "project_mode", "grid.project_mode", None),
    ("sirblab.sweep", "evaluate_point", "sweep.evaluate_point", _point_note),
    ("sirblab.sweep", "neumann_modes", "grid.neumann_modes", None),
    ("sirblab.sweep", "classify_state", "stability.classify_state", _classify_note),
    ("sirblab.sweep", "solve_endemic", "steady.solve_endemic", None),
    ("sirblab.sweep", "endemic_exists", "steady.endemic_exists", None),
    ("sirblab.sweep", "trivial_states", "steady.trivial_states", None),
    ("sirblab.stability", "eigenvalues4", "stability.eigenvalues4", None),
    ("sirblab.stability", "_closed_form", "stability.closed_form", None),
    ("sirblab.stability", "_match_eigs", "stability.match_eigs", None),
)


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Collects spans from wrapped callables while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            status, result = "", None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                status = type(e).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                extra = note(args, kwargs, result) if note and not status else None
                spans[index] = (name, start, end, parent, status, extra)

        return traced

    def install(self, targets=TARGETS):
        for module, path, name, note in targets:
            owner, attr = _owner(module, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _pct(values, q: int):
    """q-th percentile (1..99) of the values, 0.0 when there are none."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans) -> dict:
    """Per-layer totals and counts from one traced operation's spans."""
    durations = {}
    for name, start, end, _, _, _ in spans:
        durations.setdefault(name, []).append(end - start)

    def total(*names):
        return sum(sum(durations.get(n, ())) for n in names)

    def count(name):
        return len(durations.get(name, ()))

    cg = [s[5] for s in spans if s[0] == "kernels.cg_solve" and s[5] is not None]
    iters = sum(c[0] for c in cg)
    cg_bytes = sum((c[0] * CG_PASSES_PER_ITER + CG_PASSES_PER_SOLVE) * c[2] * 8 for c in cg)
    steps = [s for s in spans if s[0] == "integrator.step"]
    accepted = [(s[2] - s[1]) * 1e3 for s in steps if not s[4]]
    points = [s for s in spans if s[0] == "sweep.evaluate_point"]
    return {
        "kernels.cg_solve_s": total("kernels.cg_solve"),
        "kernels.cg_solves": len(cg),
        "kernels.cg_iters": iters,
        "kernels.cg_iters_per_solve": iters / len(cg) if cg else 0.0,
        "kernels.cg_max_relres": max((c[1] for c in cg), default=0.0),
        "kernels.cg_bytes_computed": cg_bytes,
        "integrator.steps": len(accepted),
        "integrator.rejected_steps": sum(1 for s in steps if s[4] == "PositivityError"),
        "integrator.step_s": total("integrator.step"),
        "integrator.step_ms.p50": _pct(accepted, 50),
        "integrator.step_ms.p99": _pct(accepted, 99),
        "integrator.positivity_s": total("integrator.positivity"),
        "integrator.positivity_checks": count("integrator.positivity"),
        "integrator.stability_dt_s": total("integrator.stability_dt"),
        "model.rhs_s": total("model.rhs"),
        "model.rhs_calls": count("model.rhs"),
        "grid.project_mode_s": total("grid.project_mode"),
        "grid.project_mode_calls": count("grid.project_mode"),
        "grid.neumann_modes_s": total("grid.neumann_modes"),
        "grid.neumann_modes_calls": count("grid.neumann_modes"),
        "steady.solve_s": total("steady.all_steady_states", "steady.solve_endemic",
                                "steady.endemic_exists", "steady.trivial_states"),
        "steady.bracket_errors": sum(1 for s in spans if s[0] == "steady.solve_endemic"
                                     and s[4] == "EndemicBracketError"),
        "stability.classify_s": total("stability.classify_state"),
        "stability.mode_evals": sum(s[5] for s in spans
                                    if s[0] == "stability.classify_state" and s[5]),
        "stability.eigvals_s": total("stability.eigenvalues4"),
        "stability.eigvals_calls": count("stability.eigenvalues4"),
        "stability.crosscheck_s": total("stability.closed_form", "stability.match_eigs"),
        "sweep.points": len(points),
        "sweep.point_errors": sum(s[5] or 0 for s in points),
        "sweep.point_s.p50": _pct([s[2] - s[1] for s in points], 50),
        "sweep.point_s.p84": _pct([s[2] - s[1] for s in points], 84),
        "sweep.write_s": total("sweep.run_sweep") - total("sweep.evaluate_point"),
        "cli.write_s": total("cli.write", "cli.to_csv", "cli.snapshot_csv"),
        "cli.bytes_written": sum(s[5] for s in spans if s[0] == "cli.write"),
        "scenario.parse_s": total("scenario.load_json", "scenario.build_sim_config",
                                  "scenario.parse_sweep"),
        "trace.spans": len(spans),
    }
