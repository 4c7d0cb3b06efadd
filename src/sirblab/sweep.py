"""Parameter sweeps over the steady-state / stability analysis.

Each sweep point re-runs the analysis for one parameter combination:
find every constant steady state, classify each against the diffusion
spectrum, and flatten the results into one scalar record.  Records use a
fixed column registry so rows from different points always align.

Endemic columns (the Z4 family) summarise whatever the root-finder found:
``Z4.count`` intersections, ``Z4.turing`` true when any of them is
Turing-flagged, and ``Z4.overall``/``Z4.max_real0`` taken from the state
with the largest infected component.  Points whose evaluation raises are
recorded in-row through the ``error`` column; the sweep itself carries on.

Axes move model parameters only, so ``run_sweep`` parses the base's grid
and coefficients once, into one DiffusionMatrix and one mode spectrum,
before any point runs or any file exists: a bad base raises ConfigError
naming the field. Each point is then just ``{"params": ...}``; a bad rate
stays an error in its row. Workers receive those dicts plus the shared
matrix and spectrum, so the parallel path (one process per ``--jobs``)
evaluates exactly what the serial path does and the output files are
byte-identical either way.

With the matrix and spectrum fixed, a state's verdicts depend only on its
tag and reaction Jacobian, and the extinction state Z1's Jacobian involves
no infection rate: an axis over those rates repeats it at every point. A
sweep keeps the three values a row reads per distinct (tag, Jacobian) and
classifies each pair once (a parallel worker keeps its own, per point).
"""

from __future__ import annotations

import functools
import itertools
import json
import os

from .grid import neumann_modes
from .scenario import (ConfigError, check_mode_products, check_state_products,
                       diffusion_matrix, parse_coefficients, parse_grid, parse_params)
from .stability import classify_state, jacobian
from .steady import EndemicBracketError, endemic_exists, solve_endemic, trivial_states

__all__ = ["OUTPUT_COLUMNS", "DEFAULT_OUTPUTS", "evaluate_point", "run_sweep"]

_STATE_TAGS = ("Z1", "Z2", "Z3", "Z4")

OUTPUT_COLUMNS = (
    ("endemic_exists", "condition_lhs", "condition_rhs")
    + tuple(f"{tag}.{field}" for tag in _STATE_TAGS
            for field in ("exists", "overall", "turing", "max_real0"))
    + ("Z4.count",)
)

DEFAULT_OUTPUTS = (
    ("endemic_exists",)
    + tuple(f"{tag}.{field}" for tag in _STATE_TAGS
            for field in ("exists", "overall", "turing"))
    + ("Z4.count",)
)


def _blank_record() -> dict:
    record = {name: None for name in OUTPUT_COLUMNS}
    record["error"] = ""
    return record


def _summary(state, params, diff, spectrum, memo: dict) -> tuple:
    """(overall, turing, max_real0) of a state's stability report.

    With ``diff`` and ``spectrum`` fixed, a report's verdicts follow from
    the state's tag and reaction Jacobian alone, so each distinct pair is
    classified once per ``memo``. Only the three values a row reads are
    kept, not the report; an analysis that raises keeps nothing and raises
    again at the next point that reaches it.
    """
    jac = jacobian(state.value, params, state.tag)
    key = (state.tag, jac.matrix.tobytes())
    summary = memo.get(key)
    if summary is None:
        check_state_products(jac, diff, spectrum)
        report = classify_state(state, params, diff, spectrum)
        summary = memo[key] = (report.overall, bool(report.turing),
                               float(report.max_real[0]))
    return summary


def evaluate_point(point_doc: dict, diff, spectrum, memo: dict | None = None) -> dict:
    """Run steady states + stability for one parameter set.

    point_doc holds the point's 'params'; ``diff`` and ``spectrum`` are the
    sweep's DiffusionMatrix and ``neumann_modes(grid, modes)``, which every
    point shares, and ``memo`` the sweep's dict of state summaries (see
    ``_summary``; a fresh one when None). Any exception is captured into
    the record's 'error' field.
    """
    memo = {} if memo is None else memo
    record = _blank_record()
    try:
        params = parse_params(point_doc)

        exists, diag = endemic_exists(params, diagnostics=True)
        record["endemic_exists"] = exists
        record["condition_lhs"] = diag.condition_lhs
        record["condition_rhs"] = diag.condition_rhs

        states = list(trivial_states(params))
        try:
            endemic = solve_endemic(params)
        except EndemicBracketError as e:
            endemic = []
            record["error"] = str(e)
        states.extend(endemic)

        present = {tag: False for tag in _STATE_TAGS}
        endemic_summaries = []
        for state in states:
            summary = _summary(state, params, diff, spectrum, memo)
            family = state.tag.split("-")[0]
            present[family] = True
            if family == "Z4":
                endemic_summaries.append((state, summary))
            else:
                (record[f"{family}.overall"], record[f"{family}.turing"],
                 record[f"{family}.max_real0"]) = summary
        for tag in ("Z1", "Z2", "Z3"):
            record[f"{tag}.exists"] = present[tag]
        record["Z4.exists"] = bool(endemic_summaries)
        record["Z4.count"] = len(endemic_summaries)
        if endemic_summaries:
            record["Z4.turing"] = any(turing for _, (_, turing, _) in endemic_summaries)
            _, (record["Z4.overall"], _, record["Z4.max_real0"]) = max(
                endemic_summaries, key=lambda ss: ss[0].i)
    except Exception as e:  # recorded in-row so the sweep survives bad corners
        record["error"] = f"{type(e).__name__}: {e}"
    return record


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain repr even for numpy scalars
    return str(value)


def ProcessPoolExecutor(max_workers):
    """A ``concurrent.futures.ProcessPoolExecutor`` of ``max_workers``.

    Imported here, when a sweep first runs in parallel: the import pulls in
    multiprocessing and socket, which a serial run never uses, and would
    otherwise cost every CLI start-up.
    """
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def run_sweep(base: dict, axes, outputs, modes: int, out_dir: str,
              jobs: int = 1) -> str:
    """Evaluate every axis combination; returns the path of the sweep table.

    Parses the base's grid and coefficients and builds the spectrum first,
    so a bad base raises ConfigError naming the field before out_dir or
    any worker exists. Evaluates every point next, then writes
    point_NNNNN.json per point and the combined sweep.csv in one atomic
    rename.  jobs > 1 distributes points across min(jobs, points, CPUs)
    processes; row order is always the lexicographic axis order.
    """
    grid = parse_grid(base)
    diff = diffusion_matrix(parse_coefficients(base, grid))
    spectrum = neumann_modes(grid, modes)
    check_mode_products(diff, spectrum)
    if outputs is None:
        outputs = list(DEFAULT_OUTPUTS)
    unknown = sorted(set(outputs) - set(OUTPUT_COLUMNS))
    if unknown:
        raise ConfigError("outputs", f"unknown outputs: {', '.join(unknown)}; "
                                     f"available: {', '.join(OUTPUT_COLUMNS)}")
    for k, name in enumerate(outputs):
        if name in outputs[:k]:
            raise ConfigError(f"outputs[{k}]", f"duplicate output {name!r}")
    os.makedirs(out_dir, exist_ok=True)

    names = [name for name, _ in axes]
    combos = list(itertools.product(*(values for _, values in axes)))
    points = [{"params": {**base["params"], **dict(zip(names, combo))}}
              for combo in combos]
    # A parallel worker gets its own empty copy of the memo with each point.
    evaluate = functools.partial(evaluate_point, diff=diff, spectrum=spectrum, memo={})

    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(evaluate, points, chunksize=1))
    else:
        records = [evaluate(pt) for pt in points]

    header = names + list(outputs) + ["error"]
    lines = [",".join(header)]
    for index, (combo, record) in enumerate(zip(combos, records)):
        point_path = os.path.join(out_dir, f"point_{index:05d}.json")
        payload = {
            "index": index,
            "axes": dict(zip(names, combo)),
            "record": record,
        }
        with open(point_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        row = [repr(float(v)) for v in combo]
        row += [_cell_text(record[name]) for name in outputs]
        error_text = record["error"].replace(",", ";").replace("\n", " ")
        row.append(f'"{error_text}"' if error_text else "")
        lines.append(",".join(row))

    table_path = os.path.join(out_dir, "sweep.csv")
    tmp_path = table_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp_path, table_path)
    return table_path
