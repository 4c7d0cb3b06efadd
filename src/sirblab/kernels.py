"""Hot numeric kernels: flux-form diffusion and the implicit solve.

All kernels take 2D arrays; 1D fields are viewed as shape (nx, 1) with
unit y-spacing, which makes the y-direction fluxes vanish. Per cell the
divergence is assembled as

    out = (fxE - fxW)/hx^2 + (fyN - fyS)/hy^2

with a literal zero for the flux across a boundary face. Each face flux
is computed once from the two cells it separates, so mirroring u and a
reverses every flux sign exactly and the output is bitwise
mirror-symmetric.

The implicit step solves (I - dt*D) x = b by preconditioned conjugate
gradients. D is symmetric negative semidefinite, so the system matrix is
symmetric positive definite with smallest eigenvalue 1. On a uniform
cell-centred grid with zero-flux faces the orthonormal DCT-II basis
diagonalises the constant-coefficient stencil exactly, with eigenvalues
-a * lam_h, lam_h = (4/h^2) sin^2(j*pi/(2N)) per axis (Strang, "The
Discrete Cosine Transform", SIAM Review 1999). The preconditioner is
that spectral solve at the mean coefficient. When the coefficient is
constant it is the exact inverse, so CG converges in one iteration
unless the rounding of that one application (about cond * eps relative)
exceeds the tolerance; when the coefficient varies smoothly it is a close
approximation. The transforms are dense matrix products with a cached
basis per axis, which keeps the module numpy-only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "backend_name",
    "as_2d",
    "spacing_2d",
    "axis_spectrum",
    "diffusion_apply",
    "helmholtz_apply",
    "cg_solve",
    "diffusion_apply_numpy",
    "helmholtz_apply_numpy",
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
    """Coefficient on each interior x and y face: the mean of its two cells."""
    return 0.5 * (a[:-1, :] + a[1:, :]), 0.5 * (a[:, :-1] + a[:, 1:])


def _divergence(u, weights, hx, hy):
    """div(a grad u) from precomputed face weights; boundary fluxes are zero."""
    wx, wy = weights
    nx, ny = u.shape
    fx = np.zeros((nx + 1, ny))
    np.multiply(wx, u[1:, :] - u[:-1, :], out=fx[1:-1])
    out = (fx[1:] - fx[:-1]) / (hx * hx)
    if ny > 1:  # a 1D field has no y faces
        fy = np.zeros((nx, ny + 1))
        np.multiply(wy, u[:, 1:] - u[:, :-1], out=fy[:, 1:-1])
        out += (fy[:, 1:] - fy[:, :-1]) / (hy * hy)
    return out


def diffusion_apply_numpy(u, a, hx, hy):
    """div(a grad u), zero-flux boundaries, second order flux form."""
    return _divergence(u, _face_weights(a), hx, hy)


def helmholtz_apply_numpy(x, a, dt, hx, hy):
    """(I - dt*D) x for the implicit diffusion step."""
    return x - dt * diffusion_apply_numpy(x, a, hx, hy)


diffusion_apply = diffusion_apply_numpy
helmholtz_apply = helmholtz_apply_numpy


# ---------------------------------------------------------------------------
# spectral preconditioner
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


def _mean_coefficient_solver(a, dt, hx, hy):
    """r -> (I - dt*abar*D_1)^{-1} r, with D_1 the unit-coefficient stencil."""
    nx, ny = a.shape
    cx, lx = axis_spectrum(nx, hx)
    cy, ly = axis_spectrum(ny, hy)
    abar = float(a.sum()) / a.size
    inv = 1.0 / (1.0 + (dt * abar) * (lx[:, None] + ly[None, :]))
    if ny == 1:  # a 1D field: the y transform is the 1x1 identity
        return lambda r: cx @ ((cx.T @ r) * inv)
    return lambda r: cx @ ((cx.T @ r @ cy) * inv) @ cy.T


def cg_solve(b, a, dt, hx, hy, rtol, maxiter):
    """Solve (I - dt*D) x = b by preconditioned conjugate gradients.

    Starts from x = b, so a constant right-hand side (D b = 0) is
    returned unchanged without a single iteration. The preconditioner is
    the exact spectral solve at the mean of ``a``. Convergence is judged
    on the unpreconditioned residual: returns (x, iterations,
    relative_residual), and the caller checks ``relres <= rtol``.
    """
    weights = _face_weights(a)

    def helmholtz(v):
        # helmholtz_apply(v, a, ...) with the face weights computed once
        return v - dt * _divergence(v, weights, hx, hy)

    x = b.copy()
    bnorm = math.sqrt(float(np.dot(b.ravel(), b.ravel())))
    if bnorm == 0.0:
        return x, 0, 0.0
    r = b - helmholtz(x)
    rs = float(np.dot(r.ravel(), r.ravel()))
    target = rtol * bnorm
    if math.sqrt(rs) <= target:
        return x, 0, math.sqrt(rs) / bnorm
    precondition = _mean_coefficient_solver(a, dt, hx, hy)
    z = precondition(r)
    rz = float(np.dot(r.ravel(), z.ravel()))
    p = z
    it = 0
    for it in range(1, int(maxiter) + 1):
        ap = helmholtz(p)
        pap = float(np.dot(p.ravel(), ap.ravel()))
        if pap <= 0.0:
            break
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        rs = float(np.dot(r.ravel(), r.ravel()))
        if math.sqrt(rs) <= target:
            return x, it, math.sqrt(rs) / bnorm
        z = precondition(r)
        rz_new = float(np.dot(r.ravel(), z.ravel()))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, it, math.sqrt(rs) / bnorm
