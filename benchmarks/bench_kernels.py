"""Time of the implicit solve, the mode analysis, the steady states and one step.

Implicit solve, kernels.cg_solve.

Solves (I - dt*D) x = b once per repeat on each grid, with a constant
coefficient (the preconditioner is then the exact inverse), with a
cosine profile varying by a factor of 3 (the case the preconditioner
only approximates) passed as a raw field, and with that profile prepared
as smooth, as the integrator prepares every ``profile`` coefficient (the
preconditioner scaled by (a/mean)^(-1/4) on both sides); then four
constant coefficients on the same grid,
as one stacked call and as four calls with the coefficients prepared.
Prints the median time per solve (per four solves for the last two
rows), the CG iterations and the final relative residual (one core,
BLAS pinned to one thread)::

    grid      coefficient        time  iters    relres
    64        constant        59.2 us      1   5.0e-15
    64        4 stacked       52.2 us      1   1.1e-14
    64        4 apart        120.7 us
    64x64     constant       155.1 us      1   1.9e-14
    64x64     4 stacked      578.8 us      1   3.9e-14
    64x64     4 apart        599.8 us
    96x96     constant       331.5 us      1   5.8e-14
    96x96     variable        4.47 ms     24   3.5e-14
    96x96     smooth          3.23 ms     16   4.3e-14
    96x96     4 stacked       1.93 ms      2   5.8e-14
    96x96     4 apart         1.59 ms
    256x256   constant        9.55 ms      2   1.6e-26
    256x256   4 stacked      39.31 ms      2   3.2e-26
    256x256   4 apart        33.43 ms

(The smooth row is from a later run, in which the variable row read
5.82 ms; a second run gave 5.92 against 4.72 ms. The scaling costs two
elementwise products per iteration and saves a third of the
iterations. The two 96x96 variable rows are the least of five runs
alternating with the float64 preconditioner, which read 5.38 and
3.81 ms: the float32 preconditioner takes the same 24 and 16
iterations.) A constant coefficient starts from the exact spectral solve: one
transform pair and one stencil application. At 256x256 that leaves a
rounding residual of about cond * eps, above the 1e-13 target, and a
second iteration removes it. On 64 cells four solves cost little more
than one, because fixed per-call cost dominates; that is the stack
``integrator.step`` uses for every species with a constant coefficient.
On large grids the two rows are within the noise of this VM (an earlier
run gave 2.36 against 3.59 ms at 96x96, stacked against apart); where
the stack loses, the stacked temporaries are 128 KB and more, which
glibc malloc maps fresh from the OS on each call by default.

Mode analysis, on the 2 x 1 domain with 64x32 cells of the sweep-2d
benchmark workload and the rates of scenarios/turing_point.json: the
median time of grid.neumann_modes per mode count, and of
stability.classify_state on the endemic (Z4) and the extinction (Z1)
state, per listed mode and per distinct eigenvalue (179 of the 256)::

    neumann_modes  64x32     256 modes     669.4 us
    neumann_modes  64x32    1024 modes      2.95 ms
    neumann_modes  64x32    4096 modes     11.77 ms
    classify_state Z4        256 modes       2.3 us/mode       3.3 us/distinct lambda (179)
    classify_state Z1        256 modes       0.8 us/mode       1.1 us/distinct lambda (179)

(Those rows are one run with --repeats 30. An earlier run, on a slower
day of the same VM, read 1.29 ms for 256 modes and 6.0 us/mode for Z4
with one row per listed mode. A back-to-back run gave 11.2 us/mode when
the verdicts, the consistency checks and the per-mode records were made
one mode at a time in Python; the records are now built only for JSON
output. Three back-to-back runs gave 6.2-7.4 us/mode with the spectrum
arrays rebuilt per state, the lexsort and the Jacobian on numpy scalars,
and 6.0-6.4 us/mode without; most of it is the stacked eigen-solve.
With one row per distinct eigenvalue,
the median of 30 calls in three fresh processes per side, alternating,
read 797-1111 against 634-643 us for Z4 and 234-251 against 188-207 us
for Z1, one row per listed mode against one per distinct eigenvalue.)

Steady states, on the rates of scenarios/turing_point.json: the median
time of steady.solve_endemic (the scan, the bisection of each bracket
and the assembly of its state) and of steady.SteadyState.make on the
endemic state it finds::

    solve_endemic    turing_point      285.5 us
    SteadyState.make turing_point        5.3 us

(Three back-to-back runs gave 1.57-1.69 ms and 72-87 us when the
bisection objective and the residual ran on numpy scalars, against
281-329 us and 7.3-7.7 us on Python floats. Since the scan and the
bisection share one body per formula, taking its square root as an
argument, three runs with ``--grids 8 --repeats 200`` alternating with
the twin-formula version gave 189-295 us and 5.3-7.8 us, against
203-306 us and 5.1-7.7 us for the twins; SteadyState.make, which did not
change, shows that this VM's speed moved by half between runs. Best of
seven 200-call loops, four runs alternating: 296-328 us against 284-305
us, about 4% slower: one more call per square root.)

Layers of a variable-coefficient CG iteration, on the 96x96 cosine
profile of the solve rows prepared as smooth, as a run prepares it
(dt 5/32): one application of (I - dt*D) and one of the S M S
preconditioner in float32, each the median of 200-call loops in a fresh
process of this script (``--layer LABEL``). Six fresh processes per
row, the two sides alternating, median [range]::

                                        before               after
    helmholtz      cosine 96x96   149.3 [143-153] us    68.1 [56-69] us
    precondition   cosine 96x96   173.1 [129-175] us   119.8 [100-122] us

"Before" applied the stencil with strided y passes, which zero-filled
two flux arrays and made about eight temporaries per call, and the
preconditioner with fresh float32 and float64 arrays per call; "after"
is the flat stencil and the preconditioner writing into the run's
scratch arrays. (The "before" rows are the same calls spelled for the
parent's functions.) In one process, after other work, the same
Helmholtz application read 75-79 against 52-56 us. In a fresh process
the strided form's per-call arrays fault their pages in again and
again: a process timing 2,000 applications took about 39,000 minor
page faults before and 3,900 after, most of the latter its imports.

Time stepping, on the start of scenarios/turing_point.json (64 cells,
four constant coefficients, dt from stability_dt), on a 96x96 state with
the damped rates of scenarios/damped_2d.json, cosine and gaussian
diffusion profiles and random data (dt 5/32), and on that state with
four constant coefficients: the median time of one integrator.step,
given the solver plan ``_drive`` builds once per run, of one positivity
check of a state and of its sup-norms. Each step row is timed in a fresh
process of this script (``--step LABEL``): in one process a row moves
with what the rows before it allocated (a change to the float32
preconditioner read ``step constant 96x96``, which it does not run, at
2.80 against 1.95 ms for its parent, and 2.57-2.62 against 2.68-2.71 ms
with the step alone in fresh processes). Before and after the step's
per-call budget (0-d rates, a stack solved from a view of the right-hand
sides, one norm pass, one global minimum in the positivity check), the
least of five to eight runs of each, the two sides alternating::

                                      before      after
    step           turing 64          67.5 us    50.7 us
    step           hetero 96x96      16.16 ms   13.21 ms
    step           constant 96x96     1.86 ms    1.75 ms
    positivity     turing 64           5.3 us     3.4 us
    positivity     hetero 96x96       15.0 us    12.3 us
    sup_norms      turing 64           5.4 us     3.8 us
    sup_norms      hetero 96x96       14.8 us    13.4 us

(2 vCPU VM, Python 3.11, numpy 2.4; the timings vary by 20% and more
from run to run on this VM, and single runs of the turing step read
51-96 us after and 68-124 us before). The hetero step moves within that
noise: the budget saves it only the copy of its one constant species and
a few microseconds of rates and reductions. With one cg_solve call per species and
step, each testing its coefficient for constancy and building its
preconditioner, back-to-back runs gave 211.0 us and 28.42 ms for the
first two steps. With the cosine and gaussian profiles prepared as
smooth, two runs gave 21.21 and 16.22 ms for the hetero step, and a
run right after them with every profile unscaled gave 28.18 ms. With the
float32 preconditioner of the variable coefficients, the hetero step
took 11.2 against 13.4 ms with the float64 one (least of seven 5-call
loops in fresh processes, three alternating runs each); the turing step,
whose stack has no variable coefficient, read 55-105 us against 53-96 us
in five runs of this script on each side, which is this VM's noise.

Run as ``PYTHONPATH=src python3 benchmarks/bench_kernels.py``; --grids
takes grid shapes such as ``64 64x64 96x96 256x256``.
"""

import argparse
import json
import math
import pathlib
import subprocess
import sys
import time

import numpy as np

from sirblab import integrator, kernels
from sirblab.grid import Grid, neumann_modes
from sirblab.kernels import cg_solve, prepare_coefficient, stack_coefficients
from sirblab.model import ModelParams
from sirblab.scenario import build_sim_config
from sirblab.stability import DiffusionMatrix, classify_state
from sirblab.steady import SteadyState, solve_endemic, trivial_states

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


def stack_problem(shape, values=(0.015, 0.015, 0.03, 0.005)):
    """Four constant coefficients, prepared, and one right-hand side each."""
    b, _, hx, hy = problem(shape, False)
    rhs = np.stack([b * (1.0 + 0.1 * k) for k in range(len(values))])
    members = [prepare_coefficient(np.full(shape, v), hx, hy) for v in values]
    return rhs, members, hx, hy


STEP_LABELS = ("turing 64", "hetero 96x96", "constant 96x96")


def step_case(label):
    """(config, state, dt) of one step benchmark, by its label."""
    if label == "turing 64":
        cfg, cap = build_sim_config(json.loads(SCENARIO.read_text())), math.inf
    else:
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
        if label == "constant 96x96":
            doc["coefficients"] = {k: {"kind": "constant", "value": v} for k, v in
                                   zip(("a1", "a2", "a3", "a4"), (a, a, 2 * a, a / 3))}
        doc["initial"] = {"kind": "random", "low": [0.5, 0.1, 0.1, 0.2],
                          "high": [1.5, 0.6, 0.4, 1.2], "seed": 1}
        doc["run"] = {"t_end": 5.0}
        cfg, cap = build_sim_config(doc), 5.0 / 32.0
    state = cfg.build_initial()
    return cfg, state, min(integrator.stability_dt(state, cfg.params), cap)


def step_row(label, repeats):
    """The timing row of one integrator.step, given the plan _drive builds."""
    cfg, state, dt = step_case(label)
    plan = integrator._solver_plan(cfg)
    number = 200 if cfg.grid.ncells <= 64 else 2
    t = per_call(lambda: integrator.step(state, dt, cfg, plan), repeats, number)
    return f"{'step':14s} {label:14s} {fmt(t):>11s}"


LAYER_LABELS = ("helmholtz", "precondition")


def layer_row(label, repeats):
    """The timing row of one application of (I - dt*D) or of the S M S
    preconditioner on the 96x96 cosine profile, prepared as a run prepares
    it: smooth, with its own scratch arrays."""
    b, a, hx, hy = problem((96, 96), True)
    c = prepare_coefficient(a, hx, hy, smooth=True, scratch=kernels.Scratch())
    dt = 5.0 / 32.0
    if label == "helmholtz":
        fn = lambda: kernels._helmholtz(b, c.weights, dt, hx, hy, c.scratch)
    else:
        precondition = kernels._mean_coefficient_solver(c, dt, hx, hy, c.scratch)
        fn = lambda: precondition(b)
    t = per_call(fn, repeats, 200)
    return f"{label:14s} {'cosine 96x96':14s} {fmt(t):>11s}"


def fresh_rows(option, labels, repeats):
    """Each row from a fresh process of this script: within one process a
    row's time depends on what earlier rows allocated."""
    for label in labels:
        proc = subprocess.run([sys.executable, __file__, option, label,
                               "--repeats", str(repeats)],
                              capture_output=True, text=True, check=True)
        print(proc.stdout, end="")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grids", type=parse_grid, nargs="+",
                    default=[(64, 1), (64, 64), (96, 96), (256, 256)])
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--dt", type=float, default=5.0 / 32.0)
    ap.add_argument("--step", choices=STEP_LABELS,
                    help="time only this step row (as each fresh process does)")
    ap.add_argument("--layer", choices=LAYER_LABELS,
                    help="time only this layer row (as each fresh process does)")
    args = ap.parse_args()
    if args.step:
        print(step_row(args.step, args.repeats))
        return
    if args.layer:
        print(layer_row(args.layer, args.repeats))
        return

    print(f"{'grid':9s} {'coefficient':11s} {'time':>11s} {'iters':>6s} {'relres':>9s}")
    for shape in args.grids:
        label = str(shape[0]) if shape[1] == 1 else f"{shape[0]}x{shape[1]}"
        for kind in ("constant", "variable", "smooth"):
            b, a, hx, hy = problem(shape, kind != "constant")
            if kind == "smooth":  # prepared as a profile is: the balanced preconditioner
                a = prepare_coefficient(a, hx, hy, smooth=True)
            maxiter = 10 * b.size
            _, iters, relres = cg_solve(b, a, args.dt, hx, hy, RTOL, maxiter)
            t = median_time(lambda: cg_solve(b, a, args.dt, hx, hy, RTOL, maxiter),
                            args.repeats)
            print(f"{label:9s} {kind:11s} {fmt(t):>11s} {iters:6d} {relres:9.1e}")
        rhs, members, hx, hy = stack_problem(shape)
        stack = stack_coefficients(members)
        maxiter = 10 * rhs[0].size
        number = 200 if rhs[0].size <= 64 else 2
        _, iters, relres = cg_solve(rhs, stack, args.dt, hx, hy, RTOL, maxiter)
        t = per_call(lambda: cg_solve(rhs, stack, args.dt, hx, hy, RTOL, maxiter),
                     args.repeats, number)
        print(f"{label:9s} {'4 stacked':11s} {fmt(t):>11s} {iters:6d} {relres:9.1e}")
        t = per_call(lambda: [cg_solve(r, c, args.dt, hx, hy, RTOL, maxiter)
                              for r, c in zip(rhs, members)], args.repeats, number)
        print(f"{label:9s} {'4 apart':11s} {fmt(t):>11s}")

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
    distinct = len(spectrum.distinct_lambdas()[0])
    for state in (z4, trivial_states(p)[0]):
        t = median_time(lambda: classify_state(state, p, diff, spectrum), args.repeats)
        print(f"classify_state {state.tag[:2]:6s} {len(spectrum):6d} modes  "
              f"{t / len(spectrum) * 1e6:8.1f} us/mode  "
              f"{t / distinct * 1e6:8.1f} us/distinct lambda ({distinct})")

    print()
    t = per_call(lambda: solve_endemic(p), args.repeats, 20)
    print(f"{'solve_endemic':16s} {'turing_point':14s} {fmt(t):>11s}")
    t = per_call(lambda: SteadyState.make(z4.tag, z4.value, p), args.repeats, 2000)
    print(f"{'SteadyState.make':16s} {'turing_point':14s} {fmt(t):>11s}")

    print()
    fresh_rows("--layer", LAYER_LABELS, args.repeats)
    fresh_rows("--step", STEP_LABELS, args.repeats)
    cases = [(label, *step_case(label)) for label in STEP_LABELS]
    for name, fn in (("positivity", lambda s: integrator._check_positivity(s.values, s.t)),
                     ("sup_norms", lambda s: s.sup_norms())):
        for label, cfg, state, _ in cases:
            number = 2000 if cfg.grid.ncells <= 64 else 200
            t = per_call(lambda: fn(state), args.repeats, number)
            print(f"{name:14s} {label:14s} {fmt(t):>11s}")


if __name__ == "__main__":
    main()
