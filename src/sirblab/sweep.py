"""Parameter sweeps over the steady-state / stability analysis.

Each sweep point re-runs the full pipeline for one parameter combination:
find every constant steady state, classify each against the diffusion
spectrum, and flatten the results into one scalar record.  Records use a
fixed column registry so rows from different points always align.

Endemic columns (the Z4 family) summarise whatever the root-finder found:
``Z4.count`` intersections, ``Z4.turing`` true when any of them is
Turing-flagged, and ``Z4.overall``/``Z4.max_real0`` taken from the state
with the largest infected component.  Points whose evaluation raises are
recorded in-row through the ``error`` column; the sweep itself carries on.

Workers receive plain JSON-style dicts, so the parallel path (one process
per ``--jobs``) evaluates exactly what the serial path does and the output
files are byte-identical either way.
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor

from .grid import neumann_modes
from .scenario import diffusion_matrix, parse_coefficients, parse_grid, parse_params
from .stability import classify_state
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


def evaluate_point(point_doc: dict) -> dict:
    """Run steady states + stability for one parameter set.

    point_doc holds 'params', 'grid', 'coefficients', and 'modes'; any
    exception is captured into the record's 'error' field.
    """
    record = _blank_record()
    try:
        params = parse_params(point_doc)
        grid = parse_grid(point_doc)
        coeffs = parse_coefficients(point_doc, grid)
        diff = diffusion_matrix(coeffs)
        spectrum = neumann_modes(grid, point_doc["modes"])

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
        endemic_reports = []
        for state in states:
            report = classify_state(state, params, diff, spectrum)
            family = state.tag.split("-")[0]
            present[family] = True
            if family == "Z4":
                endemic_reports.append((state, report))
            else:
                record[f"{family}.overall"] = report.overall
                record[f"{family}.turing"] = bool(report.turing)
                record[f"{family}.max_real0"] = float(report.per_mode[0].max_real)
        for tag in ("Z1", "Z2", "Z3"):
            record[f"{tag}.exists"] = present[tag]
        record["Z4.exists"] = bool(endemic_reports)
        record["Z4.count"] = len(endemic_reports)
        if endemic_reports:
            record["Z4.turing"] = any(bool(r.turing) for _, r in endemic_reports)
            top = max(endemic_reports, key=lambda sr: sr[0].i)
            record["Z4.overall"] = top[1].overall
            record["Z4.max_real0"] = float(top[1].per_mode[0].max_real)
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


def run_sweep(base: dict, axes, outputs, modes: int, out_dir: str,
              jobs: int = 1, on_row=None) -> str:
    """Evaluate every axis combination; returns the path of the sweep table.

    Evaluates every point first, then writes point_NNNNN.json per point
    and the combined sweep.csv in one atomic rename.  jobs > 1 distributes
    points across min(jobs, points, CPUs) processes; row order is always
    the lexicographic axis order.
    """
    if outputs is None:
        outputs = list(DEFAULT_OUTPUTS)
    unknown = sorted(set(outputs) - set(OUTPUT_COLUMNS))
    if unknown:
        raise ValueError(f"unknown sweep outputs: {', '.join(unknown)}; "
                         f"available: {', '.join(OUTPUT_COLUMNS)}")
    os.makedirs(out_dir, exist_ok=True)

    names = [name for name, _ in axes]
    combos = list(itertools.product(*(values for _, values in axes)))
    points = []
    for combo in combos:
        params = dict(base["params"])
        params.update(dict(zip(names, combo)))
        points.append({
            "params": params,
            "grid": base["grid"],
            "coefficients": base["coefficients"],
            "modes": modes,
        })

    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(evaluate_point, points, chunksize=1))
    else:
        records = [evaluate_point(pt) for pt in points]

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
        if on_row is not None:
            on_row(index, dict(zip(names, combo)), record)

    table_path = os.path.join(out_dir, "sweep.csv")
    tmp_path = table_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp_path, table_path)
    return table_path
