"""Hot numeric kernels: flux-form diffusion and the implicit solve.

All kernels take 2D arrays; 1D fields are viewed as shape (nx, 1) with
unit y-spacing, which makes the y-direction fluxes vanish. A 1D field
does no y-direction work at all: no y face weights, no y fluxes, and no
y transform or eigenvalues in the preconditioner; every float operation
left is the one the 2D formulas make, in the same order. Per cell the
divergence is assembled as

    out = (fxE - fxW)/hx^2 + (fyN - fyS)/hy^2

with a +0.0 flux across every boundary face. Each face flux is computed
once from the two cells it separates, so mirroring u and a reverses
every flux sign exactly and the output is bitwise mirror-symmetric.

The stencil runs on the flat C-order field, so every pass is contiguous:
x faces join cells ny apart, y faces join flat neighbours. The flat y
pass also crosses from the end of one row to the start of the next,
where there is no face; the flux there is written as +0.0 after the
pass, which left a weight times the difference of two cells that share
no face (not zero for a stack's constant weight, and -0.0 for the zero
weight of a variable field and a negative difference). Per
cell it makes the same float operations, in the same order, as the
(nx, ny) form with strided y views, so the bits are the same. At 96x96
(2 vCPU VM, one BLAS thread) one strided y difference takes about 12 us,
an x difference 5.8 us and a flat one 4.0 us. A whole (I - dt*D)
application took 52-56 against 75-79 us with the strided form (in one
process, the two alternating), which also zero-filled two flux arrays
and made eight temporaries per call; ``benchmarks/bench_kernels.py``
gives the same row timed alone in fresh processes.

The implicit step solves (I - dt*D) x = b by preconditioned conjugate
gradients. D is symmetric negative semidefinite, so the system matrix is
symmetric positive definite with smallest eigenvalue 1. On a uniform
cell-centred grid with zero-flux faces the orthonormal DCT-II basis
diagonalises the constant-coefficient stencil exactly, with eigenvalues
-a * lam_h, lam_h = (4/h^2) sin^2(j*pi/(2N)) per axis (Strang, "The
Discrete Cosine Transform", SIAM Review 1999). The preconditioner M is
that spectral solve at the mean coefficient abar. When the coefficient
is constant it is the exact inverse, and CG starts from it: one
transform pair gives x = M b and one stencil application
checks its residual, which is the whole solve unless the rounding of
that application (about cond * eps relative) exceeds the tolerance; then
the same PCG loop carries on from there. A constant right-hand side is
the exception: diffusion annihilates it, so it is returned unchanged and
uniform states stay uniform bit for bit. Iterations are counted as
preconditioner applications, the spectral start included. The
transforms are dense matrix products with a cached basis per axis, which
keeps the module numpy-only.

A variable coefficient starts CG from x = b, with one of two
preconditioners:

* M itself, for a field not known to be smooth (per-cell data, and any
  raw field passed to ``cg_solve``). It ignores where the coefficient is
  large, so the whole contrast of a lands on the diffusion-dominated
  high modes.
* S M S with S = (a/abar)^(-1/4), for a field prepared as smooth
  (``prepare_coefficient(..., smooth=True)``; the integrator asks for it
  for ``profile`` coefficients, analytic cosines and gaussians). Up to
  lower-order terms, S (I - dt*D) S is sqrt(abar/a) - dt*sqrt(abar*a)*Lap,
  which M inverts with abar in both places: the identity-dominated low
  modes and the diffusion-dominated high modes are each off by only the
  square root of the contrast. The full Concus-Golub scaling
  S = (a/abar)^(-1/2) (SIAM J. Numer. Anal. 10, 1973) puts the whole
  contrast on the low modes instead. S is computed once per prepared
  field and costs two elementwise products per iteration.

M runs in single precision for both: the grid's basis (one float32 copy
per grid, ``_single_basis``), 1/(1 + dt*abar*lam) and the vector M is
applied to are rounded to float32, four float32 products transform, and
the result is widened back to float64. The stencil, the residual
recurrence and the stopping test stay in float64, so the returned
relative residual meets the tolerance as before; an inexact
preconditioner only changes the CG iterates, not what they converge to
(Golub & Ye, SIAM J. Sci. Comput. 21, 1999).

Iterations at 96x96 on the unit square, base 0.015, a right-hand side
uniform in [0, 2), rtol 1e-13, M against S M S, with M in float32 and,
in brackets where they differ, in float64:

    coefficient                               dt     M         S M S
    cos(pi x)cos(2 pi y) profile, amp 0.5    5/32   26         17
    gaussian, amp 2, width 0.3               5/32   26         18
    gaussian, amp 50, width 0.05             5/32  112 (107)   48 (45)
    gaussian, amp 50, width 0.05             2     120 (115)   53 (49)
    white-noise cells U(0.0015, 0.015)       5/32   37         44
    white-noise cells U(0.0015, 0.015)       2      41        179 (159)
    white-noise cells U(0.0015, 0.015)       40     44        586 (352)

The rounding error of one application, relative to M's smallest
eigenvalue 1/(1 + dt*abar*lam_max), grows like 2^-24 * dt*max(a)*lam_max,
so float32 costs iterations at large dt: at dt 4000 the cosine profile
takes 35 S M S iterations against 28, the amp-50 gaussian 131 against 90.
An application costs about 0.6 of a float64 one, so by that cost those
solves are still no slower; the cells, which keep M, take 49 iterations
in either precision. (S M S on the cells, which no solve uses, takes 1247 against
480.)

On rough data the scaling is a large loss, which is why per-cell
coefficients keep M. A profile that varies on the grid scale is rough
too: a cosine with 60 half-waves per axis on 96 cells takes 16 against
77 iterations at dt 2 (14 against 31 at dt 5/32); no shipped scenario
or benchmark workload has one.

A coefficient is prepared once for many solves (``prepare_coefficient``):
the constant test, the mean of a variable field, its flat face weights,
its scaling when it is smooth, and the grid's spectrum. A run's
coefficients share one ``Scratch``: the flux arrays of the stencil (whose
boundary faces are zeroed once), its output, the CG vectors and the
float32 buffers of the preconditioner, made at the first solve and
reused by every later one, so a CG iteration allocates nothing. The
species are solved one at a time, so one set serves them all; nothing a
solve returns is a scratch array. Without a Scratch (a raw field, or
coefficients prepared without one) each solve makes its own.
Constant coefficients on one grid form a stack
(``stack_coefficients``), solved by one ``cg_solve`` call on an
(m, nx, ny) stack of right-hand sides: one forward transform, one scaling
by 1/(1 + dt*a_k*lam_h), one inverse transform and one stencil residual
for all members, with a relative residual per member; a member that
misses the tolerance carries on in the PCG loop alone. A single 2D
right-hand side with a constant coefficient is a stack of one, so the
spectral start exists once. Variable coefficients are solved one field
at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "backend_name",
    "as_2d",
    "spacing_2d",
    "axis_spectrum",
    "Coefficients",
    "prepare_coefficient",
    "stack_coefficients",
    "Scratch",
    "diffusion_apply",
    "helmholtz_apply",
    "cg_solve",
]


def backend_name() -> str:
    """Kernel implementation recorded in run metadata: always 'numpy'."""
    return "numpy"


def as_2d(arr: np.ndarray) -> np.ndarray:
    """View a field array as 2D; 1D fields become a single column."""
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if a.ndim == 1:
        return a.reshape(a.shape[0], 1)
    if a.ndim != 2:
        raise ValueError(f"expected 1D or 2D array, got ndim={a.ndim}")
    return a


def spacing_2d(grid) -> tuple:
    """(hx, hy) for kernel calls; hy is 1 for 1D grids (no y faces)."""
    h = grid.spacing
    return (h[0], 1.0) if len(h) == 1 else (h[0], h[1])


# ---------------------------------------------------------------------------
# stencil
# ---------------------------------------------------------------------------

def _face_weights(a):
    """Coefficient on each interior x and y face: the mean of its two cells.

    A 1D field (one column) has no y faces; its y weights are None.
    """
    wx = 0.5 * (a[:-1, :] + a[1:, :])
    if a.shape[1] == 1:
        return wx, None
    return wx, 0.5 * (a[:, :-1] + a[:, 1:])


def _flat_weights(a):
    """``_face_weights`` of a 2D field in the stencil's flat layout: the x
    weights as they are, the y weights with a 0.0 at each row crossing."""
    wx, wy = _face_weights(a)
    if wy is None:
        return wx.reshape(-1), None
    nx, ny = a.shape
    flat = np.zeros(nx * ny)
    flat.reshape(nx, ny)[:, :-1] = wy
    return wx.reshape(-1), flat[:-1]


class Scratch:
    """Work arrays of the solves on one grid, made on first use and reused
    by every later solve given the same Scratch (``prepare_coefficient``).

    Solves that share a Scratch must run one at a time. Nothing a solve
    returns is one of these arrays; the stencil and the preconditioner
    return theirs, valid until their next call.
    """

    def __init__(self):
        self._stencil = self._vectors = None

    def stencil(self, m, nx, ny):
        """Views into the stencil's arrays for m stacked (nx, ny) fields:
        the interior x faces, the x fluxes above and below each cell, the
        same three of y (None when ny is 1) with the y faces at row
        crossings, a temporary and the output. The fluxes are flat
        (m, nx*ny + ny) and (m, nx*ny + 1) arrays whose boundary faces
        stay +0.0."""
        s = self._stencil
        if s is None or s[0] < m or s[1] != (nx, ny):
            n = nx * ny
            fx = np.zeros((m, n + ny))
            views = [fx[:, ny:n], fx[:, ny:], fx[:, :n]]
            if ny > 1:
                fy = np.zeros((m, n + 1))
                views += [fy[:, 1:n], fy[:, 1:], fy[:, :n], fy[:, ny:n:ny]]
            else:
                views += [None] * 4
            s = self._stencil = (m, (nx, ny), *views, np.empty((m, n)), np.empty((m, n)))
        if s[0] == m:
            return s[2:]
        return tuple(None if v is None else v[:m] for v in s[2:])

    def vectors(self, shape):
        """(r, p, z) in float64 and two float32 arrays, all of one field's
        shape: the CG residual, direction and preconditioned residual, and
        the preconditioner's buffers."""
        v = self._vectors
        if v is None or v[0].shape != shape:
            v = self._vectors = tuple(np.empty(shape) for _ in range(3)) + tuple(
                np.empty(shape, np.float32) for _ in range(2))
        return v


def _divergence(u, weights, hx, hy, work=None):
    """div(a grad u) from flat face weights; boundary fluxes are zero.

    ``u`` is one (nx, ny) field or a stack of them, (m, nx, ny), and
    ``weights`` its ``_flat_weights``, or a pair of per-member constants
    of shape (m, 1). The result is ``work``'s output array (a fresh
    Scratch's when ``work`` is None), in the shape of ``u``.
    """
    wx, wy = weights
    nx, ny = u.shape[-2:]
    flat = u.reshape(-1, nx * ny)
    x_in, x_hi, x_lo, y_in, y_hi, y_lo, crossings, tmp, out = (
        work or Scratch()).stencil(flat.shape[0], nx, ny)
    np.subtract(flat[:, ny:], flat[:, :-ny], out=x_in)  # cells ny apart
    x_in *= wx
    np.subtract(x_hi, x_lo, out=out)
    out /= hx * hx
    if ny > 1:  # a 1D field has no y faces
        np.subtract(flat[:, 1:], flat[:, :-1], out=y_in)  # flat neighbours
        y_in *= wy
        crossings[...] = 0.0  # no face between rows: a +0.0 flux
        np.subtract(y_hi, y_lo, out=tmp)
        tmp /= hy * hy
        out += tmp
    return out.reshape(u.shape)


def _helmholtz(v, weights, dt, hx, hy, work=None):
    """(I - dt*D) v, in the stencil's output array."""
    out = _divergence(v, weights, hx, hy, work)
    out *= dt
    return np.subtract(v, out, out=out)


def diffusion_apply(u, a, hx, hy):
    """div(a grad u), zero-flux boundaries, second order flux form."""
    return _divergence(u, _flat_weights(a), hx, hy)


def helmholtz_apply(x, a, dt, hx, hy):
    """(I - dt*D) x for the implicit diffusion step."""
    return _helmholtz(x, _flat_weights(a), dt, hx, hy)


# ---------------------------------------------------------------------------
# spectral solve
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def axis_spectrum(n: int, h: float) -> tuple:
    """Orthonormal DCT-II basis and Neumann eigenvalues of one grid axis.

    Returns (C, lam): column j of the (n, n) matrix C is the cosine mode
    cos(j*pi*(i + 1/2)/n), normalised, and lam[j] = (4/h^2) sin^2(j*pi/(2n)),
    so the 3-point zero-flux Laplacian along the axis is C diag(-lam) C^T.
    Both arrays are read-only because every caller shares them.
    """
    i = np.arange(n) + 0.5
    j = np.arange(n)
    basis = np.cos(np.pi * np.outer(i, j) / n) * math.sqrt(2.0 / n)
    basis[:, 0] = math.sqrt(1.0 / n)
    lam = (4.0 / (h * h)) * np.sin(0.5 * np.pi * j / n) ** 2
    basis.setflags(write=False)
    lam.setflags(write=False)
    return basis, lam


@functools.lru_cache(maxsize=32)
def _grid_spectrum(shape, hx, hy) -> tuple:
    """((cx, cy), lam) of an (nx, ny) grid; lam[i, j] = lam_x[i] + lam_y[j].

    A 1D field (one column) has no y transform: cy is None and lam is the
    x eigenvalues as one column. Cached and read-only like axis_spectrum,
    so the coefficients of one grid share one lam.
    """
    nx, ny = shape
    cx, lx = axis_spectrum(nx, hx)
    if ny == 1:
        return (cx, None), lx[:, None]
    cy, ly = axis_spectrum(ny, hy)
    lam = lx[:, None] + ly[None, :]
    lam.setflags(write=False)
    return (cx, cy), lam


@functools.lru_cache(maxsize=32)
def _single_basis(shape, hx, hy) -> tuple:
    """float32 copy of the ``_grid_spectrum`` basis, for the preconditioner
    of a variable coefficient; cached and read-only like it."""
    out = []
    for c in _grid_spectrum(shape, hx, hy)[0]:
        if c is not None:
            c = c.astype(np.float32)
            c.setflags(write=False)
        out.append(c)
    return tuple(out)


def _spectral(r, inv, basis, buffers=(None, None, None)):
    """C ((C^T r) * inv) over the last two axes of one field or a stack.

    ``buffers`` are two intermediates and the output, each of r's shape
    and dtype (fresh arrays where None); r itself may serve as the second
    intermediate and the output.
    """
    cx, cy = basis
    t1, t2, out = buffers
    if cy is None:
        t = np.matmul(cx.T, r, out=t1)
        t *= inv
        return np.matmul(cx, t, out=out)
    t = np.matmul(np.matmul(cx.T, r, out=t1), cy, out=t2)
    t *= inv
    return np.matmul(np.matmul(cx, t, out=t1), cy.T, out=out)


def _mean_coefficient_solver(a, dt, hx, hy, work=None):
    """r -> M r, or S M S r for a field prepared as smooth: the
    preconditioner of a variable coefficient (``Coefficients`` or a raw
    field), with M = (I - dt*abar*D_1)^{-1} and D_1 the unit-coefficient
    stencil.

    M runs in float32 (the module docstring gives the rounding argument):
    inv is computed in float64 and rounded once, r (or S r) is rounded into
    a float32 buffer, and the result is widened back to float64. Every
    array it writes, the result included, is ``work``'s (a fresh
    Scratch's when None).
    """
    c = a if isinstance(a, Coefficients) else prepare_coefficient(a, hx, hy)
    inv = (1.0 / (1.0 + (dt * c.scale) * c.lam)).astype(np.float32)
    s = c.scaling
    basis = _single_basis(c.field.shape, hx, hy)
    _, _, z, buf, t = (work or Scratch()).vectors(c.field.shape)
    buffers = (t, buf, buf)
    if s is None:
        def precondition(v):
            np.copyto(buf, v, casting="same_kind")
            np.copyto(z, _spectral(buf, inv, basis, buffers))
            return z
    else:
        def precondition(v):
            np.multiply(s, v, out=buf, casting="same_kind")
            return np.multiply(s, _spectral(buf, inv, basis, buffers), out=z)
    return precondition


@dataclass(frozen=True)
class Coefficients:
    """Diffusion coefficients on one grid, prepared once for many solves.

    Either a stack of m constants (``constant`` True; ``scale`` holds the
    values, shape (m, 1, 1)) or one variable field (``scale`` is its mean,
    ``field`` the 2D field). ``weights`` are the stencil's face weights:
    the values again, shape (m, 1), or the field's ``_flat_weights``.
    ``basis`` and ``lam`` are the grid's spectrum (``_grid_spectrum``); the
    preconditioner at coefficient c solves with 1 / (1 + dt*c*lam).
    ``scaling`` is S = (field/scale)^(-1/4) for a variable field prepared
    as smooth, whose preconditioner is then S M S; it is None otherwise.
    ``scratch`` is the ``Scratch`` its solves work in, or None for fresh
    arrays at every solve.
    """

    constant: bool
    scale: object
    field: np.ndarray | None
    weights: tuple
    basis: tuple
    lam: np.ndarray
    scaling: np.ndarray | None = None
    scratch: Scratch | None = None


def prepare_coefficient(a, hx, hy, smooth=False, scratch=None) -> Coefficients:
    """One 2D coefficient field, tested for constancy once: a stack of one
    if ``a.min() == a.max()``, else a variable field.

    ``smooth`` declares that a variable ``a`` varies smoothly on the grid
    (an analytic profile), so the balanced preconditioner pays off: its
    scaling (``Coefficients.scaling``) is computed here, once. A rough
    field must keep the default, whose preconditioner ignores where the
    coefficient is large (see the module docstring). ``scratch`` is kept
    for the solves (``Coefficients.scratch``); coefficients of one grid
    may share one.
    """
    basis, lam = _grid_spectrum(a.shape, hx, hy)
    value = a.min()
    if value == a.max():
        scale = np.full((1, 1, 1), float(value))
        w = scale.reshape(1, 1)
        return Coefficients(True, scale, None, (w, w), basis, lam, None, scratch)
    mean = float(a.sum()) / a.size
    scaling = (a / mean) ** -0.25 if smooth else None
    return Coefficients(False, mean, a, _flat_weights(a), basis, lam, scaling, scratch)


def stack_coefficients(members) -> Coefficients:
    """One stack of the constant coefficients ``members``, on one grid; it
    works in the first member's scratch."""
    scale = np.concatenate([m.scale for m in members])
    w = scale.reshape(-1, 1)
    first = members[0]
    return Coefficients(True, scale, None, (w, w), first.basis, first.lam, None, first.scratch)


# ---------------------------------------------------------------------------
# implicit solve
# ---------------------------------------------------------------------------

def _pcg(x, r, rs, helmholtz, precondition, target, it, maxiter, p):
    """Carry preconditioned CG on from x, whose residual r has r.r = rs,
    after ``it`` iterations; returns (x, iterations, r.r).

    x and r are updated in place and p is the search direction's buffer.
    ``helmholtz`` and ``precondition`` may return the same array at every
    call; the loop writes only into x, r, p and what ``helmholtz`` returned.
    """
    z = precondition(r)
    rz = float(np.dot(r.ravel(), z.ravel()))
    np.copyto(p, z)
    for it in range(it + 1, int(maxiter) + 1):
        ap = helmholtz(p)
        pap = float(np.dot(p.ravel(), ap.ravel()))
        if pap <= 0.0:
            break
        alpha = rz / pap
        ap *= alpha
        r -= ap
        x += np.multiply(p, alpha, out=ap)
        rs = float(np.dot(r.ravel(), r.ravel()))
        if math.sqrt(rs) <= target:
            break
        z = precondition(r)
        rz_new = float(np.dot(r.ravel(), z.ravel()))
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x, it, rs


def _constant_solve(b, c, dt, hx, hy, rtol, maxiter, work):
    """The spectral start of ``cg_solve`` for a stack of constants.

    On small grids its cost is the number of numpy calls, so the start
    makes as few as it can: the corner-cell test for uniform right-hand
    sides runs on Python floats, and for a stack of several members b and
    the residual r share one (2m, nx*ny) buffer, whose row norms one
    ``einsum`` takes. A single member takes its two norms with two calls
    instead, so that b is not copied. Up to 8192 cells a row's bits are
    the same either way; above that, ``einsum`` sums a lone row in pieces
    of 8192 and its norm may differ in the last bit, which only the
    reported residual and the test against ``rtol`` see.
    """
    nx, ny = b.shape[-2:]
    flat = b.reshape(-1, nx * ny)
    m = flat.shape[0]
    w = c.scale.reshape(b.shape[:-2] + (1, 1))
    inv = 1.0 / (1.0 + (dt * w) * c.lam)
    x = _spectral(b, inv, c.basis)
    members = x.reshape(-1, nx, ny)  # views of x, one per member
    # the corner cells settle most right-hand sides without a scan
    uniform = [first == last for first, last in zip(flat[:, 0].tolist(), flat[:, -1].tolist())]
    if any(uniform):
        mask = np.array(uniform) & (flat.min(axis=1) == flat.max(axis=1))
        members[mask] = b.reshape(members.shape)[mask]
        uniform = mask.tolist()
    if m == 1:  # two calls, so that b is not copied
        r = work.vectors((nx, ny))[0]
        np.subtract(b, _helmholtz(x, c.weights, dt, hx, hy, work), out=r.reshape(b.shape))
        rows = (flat, r.reshape(1, -1))
        norms = [math.sqrt(np.einsum("ij,ij->i", v, v)[0]) for v in rows]
    else:
        both = np.empty((2 * m, nx * ny))
        both[:m] = flat
        r = both[m:].reshape(b.shape)
        np.subtract(b, _helmholtz(x, c.weights, dt, hx, hy, work), out=r)
        norms = np.sqrt(np.einsum("ij,ij->i", both, both)).tolist()
    iters, relres = 0, 0.0
    for k, (skip, bnorm, rnorm) in enumerate(zip(uniform, norms[:m], norms[m:])):
        if skip:  # D b = 0: returned unchanged, 0 iterations, residual 0.0
            continue
        it, target = 1, rtol * bnorm
        if rnorm > target:  # the start's rounding missed rtol: carry on
            wk, inv_k = c.weights[0][k:k + 1], inv.reshape(members.shape)[k]
            members[k], it, rs = _pcg(
                members[k], r.reshape(members.shape)[k], rnorm * rnorm,
                lambda v: _helmholtz(v, (wk, wk), dt, hx, hy, work),
                lambda v: _spectral(v, inv_k, c.basis), target, it, maxiter,
                work.vectors((nx, ny))[1])
            rnorm = math.sqrt(rs)
        rnorm /= bnorm  # the largest count and relative residual, without max() calls
        if it > iters:
            iters = it
        if rnorm > relres:
            relres = rnorm
    return x, iters, relres


def cg_solve(b, a, dt, hx, hy, rtol, maxiter):
    """Solve (I - dt*D) x = b by preconditioned conjugate gradients.

    ``a`` is a 2D coefficient field or ``Coefficients`` prepared for this
    grid and spacing (``prepare_coefficient``, ``stack_coefficients``).
    ``b`` is one (nx, ny) right-hand side, or, for a stack of m constants,
    an (m, nx, ny) stack with one right-hand side per member. The
    preconditioner M is the exact spectral solve at the coefficient's
    mean, or S M S for a variable coefficient prepared as smooth
    (``Coefficients.scaling``; a raw field is never scaled). The start
    follows from the input; there is no option:

    * constant coefficients: M is the exact inverse, so every member
      starts from x = M b: one transform pair and one stencil residual for
      the whole stack. The start counts as one iteration; a member whose
      rounding (about cond * eps relative) misses ``rtol`` carries on in
      the PCG loop alone. A member with a constant ``b`` is returned
      unchanged (D b = 0) with 0 iterations and residual 0.0, so uniform
      states stay uniform bit for bit.
    * a variable coefficient: x = b, and PCG runs from there (a constant
      ``b`` is its own solution and takes 0 iterations).

    The iteration count is the number of preconditioner applications the
    returned x is built from (the spectral start included); for a stack it
    is the largest count of its members and the residual their largest
    relative residual. Convergence is judged on the unpreconditioned
    residual: returns (x, iterations, relative_residual), and the caller
    checks ``relres <= rtol``.
    """
    c = a if isinstance(a, Coefficients) else prepare_coefficient(a, hx, hy)
    work = c.scratch or Scratch()
    if c.constant:
        return _constant_solve(b, c, dt, hx, hy, rtol, maxiter, work)
    bnorm = math.sqrt(float(np.dot(b.ravel(), b.ravel())))
    if bnorm == 0.0:
        return b.copy(), 0, 0.0
    target = rtol * bnorm

    def helmholtz(v):
        return _helmholtz(v, c.weights, dt, hx, hy, work)

    r, p = work.vectors(b.shape)[:2]
    x, it = b.copy(), 0
    np.subtract(b, helmholtz(x), out=r)
    rs = float(np.dot(r.ravel(), r.ravel()))
    if math.sqrt(rs) > target:
        precondition = _mean_coefficient_solver(c, dt, hx, hy, work)
        x, it, rs = _pcg(x, r, rs, helmholtz, precondition, target, it, maxiter, p)
    return x, it, math.sqrt(rs) / bnorm
