"""Seeded input documents for the three benchmark workloads.

Every workload is one sirblab command on one generated JSON document. The
seed picks one of ``VARIANTS`` input variants (``seed % VARIANTS``), so the
recorded reference outputs in ``references.json`` cover every seed.

* ``turing-1d``: the shipped ``scenarios/turing_point.json`` (variant 0
  reproduces it exactly); other variants scale the initial mode amplitude
  ``epsilon`` log-uniformly within [0.9, 1.1]x and pick its sign, which
  mirrors the start. Thousands of tiny implicit solves on 64 cells with
  constant coefficients. The narrow range keeps the work per run steady:
  CG iterations per solve grow with epsilon (10.7 at 0.5x, 12.5 at 1.75x).
* ``hetero-2d``: damped-regime rates on a 96x96 grid with spatially varying
  (``profile``) diffusion of S, I and B, seeded ``random`` initial data,
  four recorded modes and two full-field snapshots. The step is capped at
  5/32 so every variant takes exactly 32 steps landing on binary-exact
  times; the variant moves the random field and the gaussian centre only.
* ``sweep-2d``: an 8x8 stability sweep of ``beta2`` in [0.5, 25] and ``d4``
  in [1, 6] around the Turing rates on a 64x32 grid with 256 modes. Axis
  values are jittered inside eight equal strata per axis, so every variant
  covers the whole box, including the corner where ``solve_endemic``
  cannot bracket a root and the point records an in-row error.

``size="tiny"`` shrinks every workload to well under a second for the
benchmark's self-test; the benchmark itself always runs ``"full"``.
"""

from __future__ import annotations

import math
import random

VARIANTS = 16

SIMULATE = "simulate"
SWEEP = "sweep"

# Rates and diffusion of scenarios/turing_point.json, kept here so that the
# workload does not change when the shipped scenario is edited.
TURING_PARAMS = {
    "b0": 3.77548, "k1": 31.5645,
    "beta1": 0.628043, "beta2": 16.4248, "k2": 0.0824908,
    "g0": 1.85611, "k3": 3.73559,
    "d1": 0.430803, "d2": 0.201893, "d3": 0.582868, "d4": 3.158,
    "sigma": 0.0978616, "gamma": 0.693445, "xi": 1.62725,
}
TURING_COEFFICIENTS = {
    "a1": {"kind": "constant", "value": 3e-05},
    "a2": {"kind": "constant", "value": 3e-05},
    "a3": {"kind": "constant", "value": 2.7728},
    "a4": {"kind": "constant", "value": 3e-05},
}

# d1 > b0 and d4 > g0 (damped regime); the reaction Lipschitz bound stays
# below 3.2, so the 5/32 step cap, not the stability estimate, sets dt.
HETERO_PARAMS = {
    "b0": 0.3, "k1": 10.0,
    "beta1": 0.1, "beta2": 0.2, "k2": 1.0,
    "g0": 0.2, "k3": 6.0,
    "d1": 0.5, "d2": 0.4, "d3": 0.4, "d4": 0.5,
    "sigma": 0.2, "gamma": 0.3, "xi": 0.3,
}
HETERO_DIFFUSION = 0.015
HETERO_DT = 0.15625

SWEEP_OUTPUTS = [
    "endemic_exists", "condition_lhs", "condition_rhs",
    "Z1.exists", "Z1.overall", "Z1.max_real0",
    "Z2.exists", "Z2.overall", "Z2.max_real0",
    "Z3.exists", "Z3.overall", "Z3.max_real0",
    "Z4.exists", "Z4.overall", "Z4.turing", "Z4.max_real0", "Z4.count",
]

WORKLOADS = {
    "turing-1d": SIMULATE,
    "hetero-2d": SIMULATE,
    "sweep-2d": SWEEP,
}

SIZES = ("full", "tiny")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _rng(workload: str, variant: int) -> random.Random:
    return random.Random(f"{workload}/{variant}")


def _turing_1d(variant: int, size: str) -> dict:
    scale = 1.0
    if variant:
        rng = _rng("turing-1d", variant)
        scale = math.exp(rng.uniform(math.log(0.9), math.log(1.1))) * rng.choice((-1, 1))
    t_end = 160.0 if size == "full" else 2.0
    return {
        "name": "turing-point",
        "params": dict(TURING_PARAMS),
        "grid": {"lengths": [2.0], "cells": [64]},
        "coefficients": {k: dict(v) for k, v in TURING_COEFFICIENTS.items()},
        "initial": {
            "kind": "mode",
            "state": "Z4-branch-S2",
            "epsilon": 3e-05 * scale,
            "mode": 1,
        },
        "run": {
            "t_end": t_end,
            "record_every": 50,
            "record_modes": [0, 1],
            "snapshot_times": [t_end],
        },
        "analysis": {"modes": 32},
    }


def _hetero_2d(variant: int, size: str) -> dict:
    rng = _rng("hetero-2d", variant)
    n, steps = (96, 32) if size == "full" else (12, 4)
    t_end = steps * HETERO_DT
    a = HETERO_DIFFUSION
    center = [round(rng.uniform(0.35, 0.65), 6), round(rng.uniform(0.35, 0.65), 6)]
    return {
        "name": "hetero-2d",
        "params": dict(HETERO_PARAMS),
        "grid": {"lengths": [1.0, 1.0], "cells": [n, n]},
        "coefficients": {
            "a1": {"kind": "profile", "profile": "cosine", "base": a,
                   "amplitude": 0.5 * a, "modes": [1, 2]},
            "a2": {"kind": "profile", "profile": "gaussian", "base": a,
                   "amplitude": 2.0 * a, "width": 0.3, "center": center},
            "a3": {"kind": "constant", "value": a},
            "a4": {"kind": "profile", "profile": "cosine", "base": a,
                   "amplitude": 0.5 * a, "modes": [2, 1]},
        },
        "initial": {
            "kind": "random",
            "low": [0.5, 0.1, 0.1, 0.2],
            "high": [1.5, 0.6, 0.4, 1.2],
            "seed": 1000 + variant,
        },
        "run": {
            "t_end": t_end,
            "dt": HETERO_DT,
            "record_every": 5,
            "record_modes": [0, 1, 2, 3],
            "snapshot_times": [t_end / 2, t_end],
        },
    }


def _sweep_2d(variant: int, size: str) -> dict:
    rng = _rng("sweep-2d", variant)
    count, cells, modes = (8, [64, 32], 256) if size == "full" else (2, [8, 4], 16)

    def axis(lo, hi):
        width = (hi - lo) / count
        return [round(lo + (k + rng.random()) * width, 6) for k in range(count)]

    return {
        "name": "sweep-2d",
        "base": {
            "params": dict(TURING_PARAMS),
            "grid": {"lengths": [2.0, 1.0], "cells": cells},
            "coefficients": {k: dict(v) for k, v in TURING_COEFFICIENTS.items()},
            "analysis": {"modes": modes},
        },
        "axes": [
            {"param": "beta2", "values": axis(0.5, 25.0)},
            {"param": "d4", "values": axis(1.0, 6.0)},
        ],
        "outputs": list(SWEEP_OUTPUTS),
    }


_BUILDERS = {"turing-1d": _turing_1d, "hetero-2d": _hetero_2d, "sweep-2d": _sweep_2d}


def make_doc(workload: str, variant: int, size: str = "full") -> dict:
    """The JSON document the program receives for one workload variant."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return _BUILDERS[workload](variant, size)


def cli_argv(workload: str, config: str, out_dir: str) -> list:
    """Arguments for ``sirblab.cli.main``; one process, one sweep job."""
    if WORKLOADS[workload] == SIMULATE:
        return ["simulate", "--config", config, "--out", out_dir]
    return ["sweep", "--config", config, "--out", out_dir, "--jobs", "1"]


def work_units(doc: dict) -> tuple:
    """(cells per field, sweep points) of a document; points is 0 for a run."""
    if "base" in doc:
        points = math.prod(len(axis["values"]) for axis in doc["axes"])
        return math.prod(doc["base"]["grid"]["cells"]), points
    return math.prod(doc["grid"]["cells"]), 0
