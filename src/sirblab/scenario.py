"""Scenario and sweep documents: JSON in, validated objects out.

A scenario document describes one run or analysis:

    {
      "name": "optional label",
      "params": { ... the 14 rate constants ... },
      "grid": {"lengths": [2.0], "cells": [64]},
      "coefficients": {"a1": {"kind": "constant", "value": 0.1}, ... "a4"},
      "initial": {"kind": "constant" | "bump" | "mode" | "random", ...},
      "run": {"t_end": 2.0, "dt": null, "adaptive": true,
              "record_every": 1, "record_modes": [0, 1],
              "snapshot_times": [1.0]},
      "analysis": {"modes": 32}
    }

A sweep document wraps a base scenario with up to three parameter axes:

    {
      "name": "optional label",
      "base": { ... scenario ... },
      "axes": [{"param": "beta2", "values": [0.5, 1.0, 2.0]}, ...],
      "outputs": ["endemic_exists", "Z4.turing", ...]
    }

Validation errors carry the dotted path of the offending field.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .grid import Grid, CoefficientField, neumann_modes
from .integrator import (
    BumpInit,
    ConstantInit,
    ModeInit,
    RandomInit,
    SimConfig,
)
from .model import ModelParams
from .stability import DiffusionMatrix, Jacobian4
from .steady import EndemicBracketError, all_steady_states

__all__ = [
    "ConfigError",
    "load_json",
    "parse_params",
    "parse_grid",
    "parse_coefficients",
    "parse_initial",
    "build_sim_config",
    "analysis_mode_count",
    "parse_sweep",
    "DEFAULT_MODE_COUNT",
    "MAX_MODE_COUNT",
    "MAX_AXIS_CELLS",
    "MAX_GRID_CELLS",
    "LENGTH_RANGE",
]

DEFAULT_MODE_COUNT = 32

# Upper limit on --modes / analysis.modes: every steady state builds one
# 4x4 mode matrix per mode, so larger lists only burn time and memory.
MAX_MODE_COUNT = 65536

# Upper limits on grid.cells. An axis of n cells gets a dense n x n DCT
# basis (32 MB at n = 2048, built with temporaries of the same size), and
# a 2D transform costs O(n^3); the total bounds every per-cell array (a
# state of 2^20 cells is 32 MB) and the CG iteration cap of 10 per cell.
# Both are checked before anything of the grid's size is allocated.
MAX_AXIS_CELLS = 2048
MAX_GRID_CELLS = 1 << 20

# Bounds on grid.lengths. Inside them every spacing, squared spacing, cell
# volume and listed eigenvalue (j*pi/L)^2 is a normal float; a length of
# 1e-200 overflows the eigenvalues and one of 1e200 its default bump width.
LENGTH_RANGE = (1e-100, 1e100)

_COEFF_KEYS = ("a1", "a2", "a3", "a4")


class ConfigError(ValueError):
    """A scenario/sweep document failed validation at a named field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def load_json(path: str) -> dict:
    """Read a JSON document, reporting parse position on failure.

    A file that cannot be opened or is not UTF-8 is a ConfigError too.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(path, f"cannot read: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(path, f"cannot read: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(path, f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    if not isinstance(doc, dict):
        raise ConfigError(path, "top-level JSON value must be an object")
    return doc


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true/false, got {value!r}")
    return value


def _as_list(value, path: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ConfigError(path, f"expected {length} entries, got {len(value)}")
    return value


def _number_list(value, path: str, length: int | None = None) -> list:
    return [_as_number(v, f"{path}[{k}]") for k, v in
            enumerate(_as_list(value, path, length))]


def _int_list(value, path: str) -> list:
    return [_as_int(v, f"{path}[{k}]") for k, v in enumerate(_as_list(value, path))]


# The type of each profile argument (``grid._PROFILE_ARGS``); lengths and
# ranges are the grid's to check.
_PROFILE_ARG_TYPES = {
    "base": _as_number,
    "amplitude": _as_number,
    "width": _as_number,
    "center": _number_list,
    "modes": _int_list,
}


def parse_params(doc: dict) -> ModelParams:
    data = _as_dict(_require(doc, "params", ""), "params")
    for key, value in data.items():
        _as_number(value, f"params.{key}")
    try:
        return ModelParams.from_dict(data)
    except ValueError as e:
        raise ConfigError("params", str(e)) from None


def parse_grid(doc: dict) -> Grid:
    path = "grid"
    data = _as_dict(_require(doc, "grid", ""), path)
    extra = sorted(set(data) - {"lengths", "cells"})
    if extra:
        raise ConfigError(path, f"unknown fields: {', '.join(extra)}")
    lengths = _number_list(_require(data, "lengths", path), f"{path}.lengths")
    lo, hi = LENGTH_RANGE
    for k, length in enumerate(lengths):
        if not lo <= length <= hi:
            raise ConfigError(f"{path}.lengths[{k}]",
                              f"must lie in [{lo:g}, {hi:g}], got {length!r}")
    cells = _int_list(_require(data, "cells", path), f"{path}.cells")
    for k, n in enumerate(cells):
        if n < 3:  # as Grid says, but before the total is taken
            raise ConfigError(f"{path}.cells[{k}]",
                              f"need at least 3 cells per axis, got {tuple(cells)}")
        if n > MAX_AXIS_CELLS:
            raise ConfigError(f"{path}.cells[{k}]",
                              f"at most {MAX_AXIS_CELLS} cells per axis, got {n}")
    if math.prod(cells) > MAX_GRID_CELLS:
        raise ConfigError(f"{path}.cells", f"at most {MAX_GRID_CELLS} cells in all, "
                                           f"got {'x'.join(map(str, cells))}")
    try:
        return Grid(tuple(lengths), tuple(cells))
    except ValueError as e:
        raise ConfigError(path, str(e)) from None


def _parse_one_coefficient(spec, grid: Grid, path: str) -> CoefficientField:
    """One coefficient; equal samples on every cell make it a constant.

    That is the solver's test (``kernels.prepare_coefficient``), so a
    flat ``cells`` list or a profile of amplitude 0 gets the mode analysis
    as well as the constant-coefficient solve.
    """
    spec = _as_dict(spec, path)
    kind = _require(spec, "kind", path)
    if kind not in ("constant", "cells", "profile"):
        raise ConfigError(f"{path}.kind", f"unknown coefficient kind {kind!r}; "
                                          "expected constant, cells, or profile")
    try:
        if kind == "constant":
            return CoefficientField.constant(_as_number(_require(spec, "value", path),
                                                        f"{path}.value"))
        if kind == "cells":
            values = _number_list(_require(spec, "values", path), f"{path}.values")
            c = CoefficientField.from_cells(grid, np.asarray(values))
        else:
            name = _require(spec, "profile", path)
            args = {k: _PROFILE_ARG_TYPES[k](v, f"{path}.{k}") if k in _PROFILE_ARG_TYPES else v
                    for k, v in spec.items() if k not in ("kind", "profile")}
            c = CoefficientField.from_profile(name, **args)
        lo, hi = c.bounds(grid)  # surfaces positivity violations now
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(path, str(e)) from None
    return CoefficientField.constant(lo) if lo == hi else c


def parse_coefficients(doc: dict, grid: Grid) -> tuple:
    path = "coefficients"
    data = _as_dict(_require(doc, "coefficients", ""), path)
    extra = sorted(set(data) - set(_COEFF_KEYS))
    if extra:
        raise ConfigError(path, f"unknown fields: {', '.join(extra)}")
    return tuple(
        _parse_one_coefficient(_require(data, key, path), grid, f"{path}.{key}")
        for key in _COEFF_KEYS
    )


def _resolve_base_state(spec: dict, params: ModelParams, path: str):
    has_base = "base" in spec
    has_state = "state" in spec
    if has_base == has_state:
        raise ConfigError(path, "give exactly one of 'base' (4 values) or 'state' (a tag)")
    if has_base:
        return _number_list(spec["base"], f"{path}.base", 4)
    tag = spec["state"]
    try:
        states = all_steady_states(params)
    except (EndemicBracketError, ValueError) as e:
        raise ConfigError(f"{path}.state", f"cannot resolve steady state {tag!r}: {e}") from None
    for st in states:
        if st.tag == tag:
            return [float(v) for v in st.value]
    known = ", ".join(st.tag for st in states)
    raise ConfigError(f"{path}.state",
                      f"no steady state tagged {tag!r} for these parameters (found: {known})")


def parse_initial(doc: dict, params: ModelParams, seed_override: int | None = None):
    path = "initial"
    spec = _as_dict(_require(doc, "initial", ""), path)
    kind = _require(spec, "kind", path)
    if kind == "constant":
        return ConstantInit(tuple(_number_list(_require(spec, "values", path),
                                               f"{path}.values", 4)))
    if kind == "bump":
        base = _number_list(_require(spec, "base", path), f"{path}.base", 4)
        amp = _number_list(_require(spec, "amplitude", path), f"{path}.amplitude", 4)
        center = spec.get("center")
        if center is not None:
            center = tuple(_number_list(center, f"{path}.center"))
        width = spec.get("width")
        if width is not None:
            width = _as_number(width, f"{path}.width")
        return BumpInit(tuple(base), tuple(amp), center, width)
    if kind == "mode":
        base = _resolve_base_state(spec, params, path)
        eps = _as_number(_require(spec, "epsilon", path), f"{path}.epsilon")
        mode = _as_int(_require(spec, "mode", path), f"{path}.mode")
        if mode < 0:
            raise ConfigError(f"{path}.mode", f"mode index must be >= 0, got {mode}")
        weights = spec.get("weights", [1.0, 1.0, 1.0, 1.0])
        weights = _number_list(weights, f"{path}.weights", 4)
        return ModeInit(tuple(base), eps, mode, tuple(weights))
    if kind == "random":
        low = _number_list(_require(spec, "low", path), f"{path}.low", 4)
        high = _number_list(_require(spec, "high", path), f"{path}.high", 4)
        seed = spec.get("seed", 0)
        seed = _as_int(seed, f"{path}.seed")
        if seed_override is not None:
            seed = seed_override
        return RandomInit(tuple(low), tuple(high), seed)
    raise ConfigError(f"{path}.kind",
                      f"unknown initial kind {kind!r}; expected constant, bump, mode, or random")


def _check_mode_indices(grid: Grid, fields: list) -> None:
    """Reject mode indices the grid cannot resolve, naming the field.

    ``fields`` holds (path, index) pairs. Indices outside
    [0, MAX_MODE_COUNT) are rejected before any enumeration, so the
    spectrum built for the rest holds at most MAX_MODE_COUNT modes.
    """
    for path, j in fields:
        if not 0 <= j < MAX_MODE_COUNT:
            raise ConfigError(path, f"mode index must lie in [0, {MAX_MODE_COUNT}), got {j}")
    if not fields:
        return
    spectrum = neumann_modes(grid, max(j for _, j in fields) + 1)
    for path, j in fields:
        mode = spectrum[j]
        if any(i >= n for i, n in zip(mode.axis_indices, grid.cells)):
            raise ConfigError(path, f"mode {j} ({mode.description}) is not resolvable "
                                    f"on {'x'.join(map(str, grid.cells))} cells")


def build_sim_config(doc: dict, seed_override: int | None = None) -> SimConfig:
    """Assemble a SimConfig from a full scenario document."""
    params = parse_params(doc)
    grid = parse_grid(doc)
    coeffs = parse_coefficients(doc, grid)
    initial = parse_initial(doc, params, seed_override=seed_override)
    run = _as_dict(_require(doc, "run", ""), "run")
    extra = sorted(set(run) - {"t_end", "dt", "adaptive", "record_every",
                               "record_modes", "snapshot_times"})
    if extra:
        raise ConfigError("run", f"unknown fields: {', '.join(extra)}")
    t_end = _as_number(_require(run, "t_end", "run"), "run.t_end")
    dt = run.get("dt")
    if dt is not None:
        dt = _as_number(dt, "run.dt")
    adaptive = _as_bool(run.get("adaptive", True), "run.adaptive")
    record_every = _as_int(run.get("record_every", 1), "run.record_every")
    record_modes = _int_list(run.get("record_modes", []), "run.record_modes")
    snapshot_times = _number_list(run.get("snapshot_times", []), "run.snapshot_times")
    mode_fields = [(f"run.record_modes[{k}]", j) for k, j in enumerate(record_modes)]
    if isinstance(initial, ModeInit):
        mode_fields.append(("initial.mode", initial.mode))
    _check_mode_indices(grid, mode_fields)
    try:
        initial.build(grid)  # rejects negative or misshapen initial data now
    except ValueError as e:
        raise ConfigError("initial", str(e)) from None
    try:
        return SimConfig(
            grid=grid, params=params, coefficients=coeffs, initial=initial,
            t_end=t_end, dt=dt, adaptive=adaptive, record_every=record_every,
            record_modes=tuple(record_modes), snapshot_times=tuple(snapshot_times),
        )
    except ValueError as e:
        raise ConfigError("run", str(e)) from None


def analysis_mode_count(doc: dict, override: int | None = None) -> int:
    """Mode count for stability/sweep: the override, analysis.modes or the default.

    Counts outside [1, MAX_MODE_COUNT] raise ConfigError naming the field.
    """
    if override is not None:
        count, path = override, "--modes"
    else:
        analysis = doc.get("analysis")
        if analysis is None:
            return DEFAULT_MODE_COUNT
        analysis = _as_dict(analysis, "analysis")
        count = _as_int(analysis.get("modes", DEFAULT_MODE_COUNT), "analysis.modes")
        path = "analysis.modes"
    if count < 1:
        raise ConfigError(path, f"mode count must be >= 1, got {count}")
    if count > MAX_MODE_COUNT:
        raise ConfigError(path, f"mode count must be <= {MAX_MODE_COUNT}, got {count}")
    return count


def check_mode_products(diff: DiffusionMatrix, spectrum) -> None:
    """Raise ConfigError at grid.lengths when the mode analysis of ``diff``
    over ``spectrum`` could overflow.

    The analyzer's largest products are cubic in a mode matrix's entries:
    the determinant of its (S, I, R) block and the Routh-Hurwitz product
    p*q of that block's cubic, summed into the cubic's tolerance. The
    diffusion part of an entry is at most m = max_k a_k * lambda_max, and
    those products of it stay below 16*m^3, so a spectrum whose 16*m^3 is
    not finite is refused before any mode matrix is built. The bound is
    conservative on purpose: ``endemic_1d`` at 8 modes overflows from a
    length of 2.6e-51 down and is refused from 3.3e-51 down. The reaction
    Jacobian's entries do not depend on the lengths and are not bounded
    here. ``cmd_stability`` and ``run_sweep`` call it right after building
    their spectrum; another mode-analysis entry point must do the same.
    """
    m = max(diff.to_dict().values()) * float(spectrum.lambdas()[-1])
    if not math.isfinite(16.0 * m * m * m):
        raise ConfigError("grid.lengths",
                          f"too short for a mode analysis of {len(spectrum)} modes: "
                          f"max a_k * lambda_max = {m:.3g}, whose cube overflows")


def check_state_products(jac: Jacobian4, diff: DiffusionMatrix, spectrum) -> None:
    """Raise ConfigError at params when the mode analysis of the state whose
    reaction Jacobian is ``jac`` could overflow.

    Entry (i, k) of every mode matrix is at most e_ik = |J_ik| + [i = k]
    a_i lambda_max. The analyzer squares entries (the Frobenius norms behind
    each tol, the Z2 quadratic), and for Z3 and Z4 multiplies three of the
    (S, I, R) block (the cubic's p*q and determinant, summed into its
    tolerance). On e the block's trace, its principal 2x2 minors with
    every sign positive and its permanent bound |p|, |q| and |h|. A state
    whose sum of squares, or p*q + h bound where a cubic is formed, is not
    finite (with a margin) is refused: an infinite tol would call every
    mode marginal. Python floats give inf here, never a warning. Called
    with ``check_mode_products`` wherever a state is classified.
    """
    e = [[abs(v) for v in row] for row in jac.matrix.tolist()]
    lam_max = float(spectrum.lambdas()[-1])
    for i, a in enumerate(diff.to_dict().values()):
        e[i][i] += a * lam_max
    bound = 16.0 * sum(v * v for row in e for v in row)
    if jac.tag.startswith(("Z3", "Z4")):
        b = e[:3]
        q = sum(b[i][i] * b[k][k] + b[i][k] * b[k][i]
                for i, k in itertools.combinations(range(3), 2))
        h = sum(b[0][i] * b[1][j] * b[2][k] for i, j, k in itertools.permutations(range(3)))
        bound += 4.0 * ((b[0][0] + b[1][1] + b[2][2]) * q + h)
    if not math.isfinite(bound):
        raise ConfigError("params",
                          f"state {jac.tag}: rates too large for a mode analysis: the "
                          f"largest mode-matrix entry reaches {max(map(max, e)):.3g}, and "
                          f"the squares or cubic products of the entries overflow")


def diffusion_matrix(coeffs) -> DiffusionMatrix:
    try:
        return DiffusionMatrix.from_coefficients(coeffs)
    except ValueError as e:
        raise ConfigError("coefficients", str(e)) from None


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

_AXIS_PARAMS = tuple(f.name for f in ModelParams.__dataclass_fields__.values())

_MAX_SWEEP_POINTS = 100_000


def parse_sweep(doc: dict):
    """Validate a sweep document; returns (base_doc, axes, outputs, name).

    axes is a list of (param_name, values) in document order; rows are
    generated lexicographically over those values.
    """
    base = _as_dict(_require(doc, "base", ""), "base")
    parse_params(base)  # validate eagerly so errors name the base fields
    # no axes at all is legal: the sweep degenerates to the base point
    axes_doc = _as_list(doc.get("axes", []), "axes")
    if len(axes_doc) > 3:
        raise ConfigError("axes", f"expected at most 3 axes, got {len(axes_doc)}")
    axes = []
    seen = set()
    for k, ax in enumerate(axes_doc):
        ax = _as_dict(ax, f"axes[{k}]")
        name = _require(ax, "param", f"axes[{k}]")
        if name not in _AXIS_PARAMS:
            raise ConfigError(f"axes[{k}].param",
                              f"unknown parameter {name!r}; expected one of {_AXIS_PARAMS}")
        if name in seen:
            raise ConfigError(f"axes[{k}].param", f"duplicate axis {name!r}")
        seen.add(name)
        values = _number_list(_require(ax, "values", f"axes[{k}]"), f"axes[{k}].values")
        if not values:
            raise ConfigError(f"axes[{k}].values", "axis needs at least one value")
        axes.append((name, values))
    npoints = 1
    for _, values in axes:
        npoints *= len(values)
    if npoints > _MAX_SWEEP_POINTS:
        raise ConfigError("axes", f"sweep has {npoints} points, limit is {_MAX_SWEEP_POINTS}")
    outputs = doc.get("outputs")
    if outputs is not None:
        outputs = [str(v) for v in _as_list(outputs, "outputs")]
    name = str(doc.get("name", "sweep"))
    return base, axes, outputs, name
