"""Time and iteration count of the implicit solve, kernels.cg_solve.

Solves (I - dt*D) x = b once per repeat on each grid, with a constant
coefficient (the preconditioner is then the exact inverse) and with a
cosine profile varying by a factor of 3 (the case the preconditioner
only approximates). Prints the median time per solve, the CG
iterations and the final relative residual (one core, BLAS pinned to one
thread)::

    grid      coefficient        time  iters    relres
    64        constant        65.8 us      1   3.0e-15
    96x96     variable        7.62 ms     24   3.5e-14
    256x256   constant       11.79 ms      2   1.9e-26

At 256x256 the constant case needs a second iteration: one application
leaves a rounding residual of about cond * eps, above the 1e-13 target.

Run as ``PYTHONPATH=src python3 benchmarks/bench_kernels.py``; --grids
takes grid shapes such as ``64 64x64 96x96 256x256``.
"""

import argparse
import math
import time

import numpy as np

from sirblab.kernels import cg_solve

RTOL = 1e-13


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


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


if __name__ == "__main__":
    main()
