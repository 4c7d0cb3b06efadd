"""Reference outputs: what one operation must reproduce, and the check.

For ``simulate`` the fingerprint is the final row of ``trajectory.csv``,
every recorded modal amplitude column and every snapshot file that
``meta.json`` lists: its name and time, header, row count, per-column sums
and ``SAMPLED_ROWS`` rows spread over the file, so a snapshot that is
missing, truncated, reordered or garbled fails. For ``sweep`` it is
``sweep.csv``: axis values and float columns must agree within ``RTOL``,
categorical columns exactly, and the ``error`` column by its leading clause
(the part before any parenthesised numbers), so an in-row bracket failure
must recur at exactly the points where the reference has one.

A simulate operation is one checked unit; a sweep operation contributes
one unit per point. ``compare`` returns the number of failed units and the
largest relative deviation seen, which is information only.
"""

from __future__ import annotations

import csv
import json
import os
import re

RTOL = 1e-6
# Relative deviations are taken against max(|reference|, FLOOR).
FLOOR = 1e-6
SAMPLED_ROWS = 16

_NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


def _number(cell: str) -> float:
    """Parse a CSV number, also in numpy's ``np.float64(x)`` repr."""
    m = _NUMPY_REPR.match(cell)
    return float(m.group(1) if m else cell)


def _read(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _snapshot(out_dir: str, entry: dict) -> dict:
    rows = _read(os.path.join(out_dir, entry["file"]))
    header, body = rows[0], [[_number(c) for c in row] for row in rows[1:]]
    step = max(1, len(body) // SAMPLED_ROWS)
    picks = sorted({*range(0, len(body), step), len(body) - 1})
    return {
        "file": entry["file"],
        "time": float(entry["time"]),
        "header": header,
        "rows": len(body),
        "sums": [sum(col) for col in zip(*body)],
        "sampled": {str(k): body[k] for k in picks},
    }


def fingerprint(kind: str, out_dir: str) -> dict:
    """Extract the checked outputs of one finished operation."""
    if kind == "simulate":
        rows = _read(os.path.join(out_dir, "trajectory.csv"))
        header, body = rows[0], rows[1:]
        amp_cols = [k for k, name in enumerate(header) if name.startswith("amp_")]
        with open(os.path.join(out_dir, "meta.json"), encoding="utf-8") as fh:
            snapshots = json.load(fh)["snapshots"]
        return {
            "header": header,
            "final_row": [_number(c) for c in body[-1]],
            "amplitudes": {header[k]: [_number(r[k]) for r in body] for k in amp_cols},
            "snapshots": [_snapshot(out_dir, entry) for entry in snapshots],
        }
    rows = _read(os.path.join(out_dir, "sweep.csv"))
    return {"header": rows[0], "rows": rows[1:]}


def units(kind: str, ref: dict) -> int:
    return 1 if kind == "simulate" else len(ref["rows"])


def _dev(got: float, want: float, scale: float) -> float:
    if got == want:
        return 0.0
    dev = abs(got - want) / max(scale, FLOOR)
    return dev if dev == dev else float("inf")  # a NaN on one side only


def _error_kind(cell: str) -> str:
    return cell.split("(")[0].strip().strip('"').strip()


def _is_number(cell: str) -> bool:
    try:
        _number(cell)
    except ValueError:
        return False
    return True


def _worst(got: list, want: list) -> float:
    """Largest relative deviation of two equally long lists of numbers."""
    if len(got) != len(want):
        return float("inf")
    return max((_dev(g, w, abs(w)) for g, w in zip(got, want)), default=0.0)


def _compare_snapshot(ref: dict, got: dict) -> float:
    if (got["file"], got["header"], got["rows"]) != (ref["file"], ref["header"], ref["rows"]) \
            or got["sampled"].keys() != ref["sampled"].keys():
        return float("inf")
    worst = max(_worst([got["time"]], [ref["time"]]), _worst(got["sums"], ref["sums"]))
    for k, want in ref["sampled"].items():
        worst = max(worst, _worst(got["sampled"][k], want))
    return worst


def _compare_simulate(ref: dict, got: dict):
    if got["header"] != ref["header"] or len(got["snapshots"]) != len(ref["snapshots"]):
        return 1, float("inf")
    worst = _worst(got["final_row"], ref["final_row"])
    for name, want in ref["amplitudes"].items():
        have = got["amplitudes"].get(name)
        if have is None or len(have) != len(want):
            return 1, float("inf")
        scale = max(abs(v) for v in want)
        worst = max(worst, max(_dev(g, w, scale) for g, w in zip(have, want)))
    for have, want in zip(got["snapshots"], ref["snapshots"]):
        worst = max(worst, _compare_snapshot(want, have))
    return int(worst > RTOL), worst


def _compare_sweep(ref: dict, got: dict):
    n = len(ref["rows"])
    if got["header"] != ref["header"]:
        return n, float("inf")
    error_col = ref["header"].index("error")
    failed, worst = 0, 0.0
    for k, want in enumerate(ref["rows"]):
        have = got["rows"][k] if k < len(got["rows"]) else None
        if have is None or len(have) != len(want):
            failed += 1
            worst = float("inf")
            continue
        bad = False
        for col, (g, w) in enumerate(zip(have, want)):
            if col == error_col:
                bad |= _error_kind(g) != _error_kind(w)
            elif w and g and _is_number(w) and _is_number(g):
                d = _dev(_number(g), _number(w), abs(_number(w)))
                worst = max(worst, d)
                bad |= d > RTOL
            else:
                bad |= g != w
        failed += bad
    failed += max(0, len(got["rows"]) - n)
    return failed, worst


def compare(kind: str, ref: dict, got: dict):
    """(failed units, max relative deviation) of ``got`` against ``ref``."""
    if kind == "simulate":
        return _compare_simulate(ref, got)
    return _compare_sweep(ref, got)
