"""Time of the implicit solve, of the mode analysis and of one time step.

Implicit solve, kernels.cg_solve.

Solves (I - dt*D) x = b once per repeat on each grid, with a constant
coefficient (the preconditioner is then the exact inverse) and with a
cosine profile varying by a factor of 3 (the case the preconditioner
only approximates). Prints the median time per solve, the CG
iterations and the final relative residual (one core, BLAS pinned to one
thread)::

    grid      coefficient        time  iters    relres
    64        constant        43.2 us      1   5.0e-15
    96x96     constant       361.1 us      1   5.8e-14
    96x96     variable        7.83 ms     24   3.5e-14
    256x256   constant        9.86 ms      2   1.6e-26

A constant coefficient starts from the exact spectral solve: one
transform pair and one stencil application. At 256x256 that leaves a
rounding residual of about cond * eps, above the 1e-13 target, and a
second iteration removes it. Started from x = b instead, the constant
cases took 59.3 us, 494.1 us and 13.50 ms in back-to-back runs (the
variable case, which still starts from b, 8.00 ms).

Mode analysis, on the 2 x 1 domain with 64x32 cells of the sweep-2d
benchmark workload and the rates of scenarios/turing_point.json: the
median time of grid.neumann_modes per mode count, and of
stability.classify_state on the endemic (Z4) state per mode::

    neumann_modes  64x32     256 modes      1.57 ms
    neumann_modes  64x32    1024 modes      6.28 ms
    neumann_modes  64x32    4096 modes     27.21 ms
    classify_state Z4        256 modes      14.3 us/mode

Time stepping, on the start of scenarios/turing_point.json (64 cells,
constant coefficients, dt from stability_dt) and on a 96x96 state with
the damped rates of scenarios/damped_2d.json, cosine and gaussian
diffusion profiles and random data (dt 5/32): the median time of one
integrator.step, given the coefficient views ``_drive`` builds once per
run, of one positivity check of a state and of its sup-norms::

    step           turing 64         172.4 us
    step           hetero 96x96      24.36 ms
    positivity     turing 64           7.4 us
    positivity     hetero 96x96       19.7 us
    sup_norms      turing 64           9.0 us
    sup_norms      hetero 96x96       19.9 us

(2 vCPU VM, Python 3.11, numpy 2.4; the timings vary by about 20% from
run to run on this VM). With every solve started from x = b and the
coefficient views rebuilt each step, back-to-back runs gave 237.2 us and
27.51 ms for the two steps.

Run as ``PYTHONPATH=src python3 benchmarks/bench_kernels.py``; --grids
takes grid shapes such as ``64 64x64 96x96 256x256``.
"""

import argparse
import json
import math
import pathlib
import time

import numpy as np

from sirblab import integrator
from sirblab.grid import Grid, neumann_modes
from sirblab.kernels import cg_solve
from sirblab.model import ModelParams
from sirblab.scenario import build_sim_config
from sirblab.stability import DiffusionMatrix, classify_state
from sirblab.steady import solve_endemic

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
SCENARIO = SCENARIOS / "turing_point.json"

RTOL = 1e-13


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def per_call(fn, repeats, number):
    """Median over repeats of the mean time of `number` back-to-back calls."""
    return median_time(lambda: [fn() for _ in range(number)], repeats) / number


def fmt(seconds):
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:8.2f} ms"
    return f"{seconds:8.3f} s "


def parse_grid(text):
    cells = tuple(int(c) for c in text.lower().split("x"))
    if len(cells) == 1:
        return (cells[0], 1)
    if len(cells) == 2:
        return cells
    raise argparse.ArgumentTypeError(f"expected N or NxM, got {text!r}")


def problem(shape, variable, base=0.015):
    """Unit-box grid, smooth-plus-noise right-hand side, coefficient field."""
    nx, ny = shape
    hx, hy = 1.0 / nx, (1.0 / ny if ny > 1 else 1.0)
    x = (np.arange(nx) + 0.5) * hx
    y = (np.arange(ny) + 0.5) / ny
    rng = np.random.default_rng(0)
    b = 1.0 + 0.3 * np.cos(math.pi * x)[:, None] * np.cos(math.pi * y)[None, :]
    b = b + rng.uniform(-0.05, 0.05, size=shape)
    a = np.full(shape, base)
    if variable:
        a = a + 0.5 * base * np.cos(math.pi * x)[:, None] * np.cos(2 * math.pi * y)[None, :]
    return b, a, hx, hy


def step_cases():
    """(label, config, state, dt) for the two step benchmarks."""
    turing = build_sim_config(json.loads(SCENARIO.read_text()))
    doc = json.loads((SCENARIOS / "damped_2d.json").read_text())
    a = 0.015
    doc["grid"] = {"lengths": [1.0, 1.0], "cells": [96, 96]}
    doc["coefficients"] = {
        "a1": {"kind": "profile", "profile": "cosine", "base": a,
               "amplitude": 0.5 * a, "modes": [1, 2]},
        "a2": {"kind": "profile", "profile": "gaussian", "base": a,
               "amplitude": 2.0 * a, "width": 0.3, "center": [0.4, 0.6]},
        "a3": {"kind": "constant", "value": a},
        "a4": {"kind": "profile", "profile": "cosine", "base": a,
               "amplitude": 0.5 * a, "modes": [2, 1]},
    }
    doc["initial"] = {"kind": "random", "low": [0.5, 0.1, 0.1, 0.2],
                      "high": [1.5, 0.6, 0.4, 1.2], "seed": 1}
    doc["run"] = {"t_end": 5.0}
    hetero = build_sim_config(doc)
    cases = []
    for label, cfg, cap in (("turing 64", turing, math.inf),
                            ("hetero 96x96", hetero, 5.0 / 32.0)):
        state = cfg.build_initial()
        dt = min(integrator.stability_dt(state, cfg.params), cap)
        cases.append((label, cfg, state, dt))
    return cases


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grids", type=parse_grid, nargs="+",
                    default=[(64, 1), (64, 64), (96, 96), (256, 256)])
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--dt", type=float, default=5.0 / 32.0)
    args = ap.parse_args()

    print(f"{'grid':9s} {'coefficient':11s} {'time':>11s} {'iters':>6s} {'relres':>9s}")
    for shape in args.grids:
        label = str(shape[0]) if shape[1] == 1 else f"{shape[0]}x{shape[1]}"
        for variable in (False, True):
            b, a, hx, hy = problem(shape, variable)
            maxiter = 10 * b.size
            _, iters, relres = cg_solve(b, a, args.dt, hx, hy, RTOL, maxiter)
            t = median_time(lambda: cg_solve(b, a, args.dt, hx, hy, RTOL, maxiter),
                            args.repeats)
            kind = "variable" if variable else "constant"
            print(f"{label:9s} {kind:11s} {fmt(t):>11s} {iters:6d} {relres:9.1e}")

    print()
    grid = Grid((2.0, 1.0), (64, 32))
    for count in (256, 1024, 4096):
        t = median_time(lambda: neumann_modes(grid, count), args.repeats)
        print(f"neumann_modes  64x32  {count:6d} modes  {fmt(t):>11s}")
    doc = json.loads(SCENARIO.read_text())
    p = ModelParams.from_dict(doc["params"])
    diff = DiffusionMatrix(*(doc["coefficients"][k]["value"]
                             for k in ("a1", "a2", "a3", "a4")))
    z4 = solve_endemic(p)[0]
    spectrum = neumann_modes(grid, 256)
    t = median_time(lambda: classify_state(z4, p, diff, spectrum), args.repeats)
    print(f"classify_state {z4.tag[:2]:6s} {len(spectrum):6d} modes  "
          f"{t / len(spectrum) * 1e6:8.1f} us/mode")

    print()
    cases = step_cases()
    for label, cfg, state, dt in cases:
        coeffs = integrator._coefficient_views(cfg)  # as _drive passes them
        number = 200 if cfg.grid.ncells <= 64 else 2
        t = per_call(lambda: integrator.step(state, dt, cfg, coeffs),
                     args.repeats, number)
        print(f"{'step':14s} {label:14s} {fmt(t):>11s}")
    for name, fn in (("positivity", lambda s: integrator._check_positivity(s.values, s.t)),
                     ("sup_norms", lambda s: s.sup_norms())):
        for label, cfg, state, _ in cases:
            number = 2000 if cfg.grid.ncells <= 64 else 200
            t = per_call(lambda: fn(state), args.repeats, number)
            print(f"{name:14s} {label:14s} {fmt(t):>11s}")


if __name__ == "__main__":
    main()
