"""Diffusion stencil and the DCT-preconditioned implicit solve."""

import numpy as np
import pytest

from sirblab import kernels
from sirblab.grid import CoefficientField, Grid
from sirblab.kernels import (
    axis_spectrum,
    backend_name,
    cg_solve,
    diffusion_apply,
    diffusion_apply_numpy,
    helmholtz_apply,
    helmholtz_apply_numpy,
)


def _random_problem(shape, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 2.0, shape)
    a = rng.uniform(0.1, 1.5, shape)
    return u, a


def test_backend_name_reports_active_choice():
    assert backend_name() == "numpy"


def test_as_2d_shapes():
    assert kernels.as_2d(np.zeros(5)).shape == (5, 1)
    assert kernels.as_2d(np.zeros((3, 4))).shape == (3, 4)


def test_helmholtz_is_identity_minus_dt_diffusion():
    u, a = _random_problem((9, 11), 3)
    dt, hx, hy = 0.02, 0.125, 0.25
    lhs = helmholtz_apply(u, a, dt, hx, hy)
    rhs = u - dt * diffusion_apply(u, a, hx, hy)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-14, atol=1e-14)


def _dense_helmholtz(a, dt, hx, hy):
    """Assemble (I - dt*D) column by column for a brute-force solve."""
    n = a.size
    mat = np.empty((n, n))
    for c in range(n):
        e = np.zeros(n)
        e[c] = 1.0
        mat[:, c] = helmholtz_apply_numpy(e.reshape(a.shape), a, dt, hx, hy).ravel()
    return mat


@pytest.mark.parametrize("shape,hx,hy", [((20, 1), 0.05, 1.0), ((6, 7), 0.2, 0.15)])
def test_cg_matches_dense_solve(shape, hx, hy):
    rng = np.random.default_rng(17)
    b = rng.uniform(-1.0, 2.0, shape)
    a = rng.uniform(0.3, 1.2, shape)
    dt = 0.08
    x, _, relres = cg_solve(b, a, dt, hx, hy, 1e-13, 10 * b.size)
    assert relres <= 1e-13
    dense = _dense_helmholtz(a, dt, hx, hy)
    x_ref = np.linalg.solve(dense, b.ravel()).reshape(shape)
    np.testing.assert_allclose(x, x_ref, rtol=1e-10, atol=1e-12)


def test_cg_constant_rhs_is_fixed_point():
    # Diffusion annihilates constants, so (I - dt*D) c = c and CG must
    # return the right-hand side unchanged.
    a = np.full((16, 1), 0.7)
    b = np.full((16, 1), 3.25)
    x, iters, relres = cg_solve(b, a, 0.1, 0.0625, 1.0, 1e-13, 160)
    np.testing.assert_array_equal(x, b)
    assert relres == 0.0


def test_cg_reports_residual_when_starved_of_iterations():
    u, a = _random_problem((32, 1), 5)
    # maxiter=1 cannot converge for a non-constant right-hand side
    _, _, relres = cg_solve(u, a, 0.5, 0.03125, 1.0, 1e-13, 1)
    assert relres > 1e-13


def test_cg_solution_satisfies_operator_equation():
    u, a = _random_problem((14, 9), 23)
    dt, hx, hy = 0.04, 0.07, 0.11
    x, _, _ = cg_solve(u, a, dt, hx, hy, 1e-13, 10 * u.size)
    back = helmholtz_apply(x, a, dt, hx, hy)
    np.testing.assert_allclose(back, u, rtol=0.0, atol=1e-12 * np.max(np.abs(u)))


# 1D (unit y-spacing, one column), square 2D and non-square 2D grids.
SPECTRAL_GRIDS = [((64, 1), 0.03125, 1.0), ((12, 12), 0.1, 0.1),
                  ((12, 18), 0.08, 0.05)]


@pytest.mark.parametrize("shape,hx,hy", SPECTRAL_GRIDS)
def test_cached_basis_diagonalises_the_stencil(shape, hx, hy):
    u, _ = _random_problem(shape, 11)
    a = 0.7
    cx, lx = axis_spectrum(shape[0], hx)
    cy, ly = axis_spectrum(shape[1], hy)
    np.testing.assert_allclose(cx.T @ cx, np.eye(shape[0]), rtol=0.0, atol=1e-14)
    eig = -a * (lx[:, None] + ly[None, :])
    spectral = cx @ ((cx.T @ u @ cy) * eig) @ cy.T
    stencil = diffusion_apply_numpy(u, np.full(shape, a), hx, hy)
    np.testing.assert_allclose(spectral, stencil, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(stencil)))


@pytest.mark.parametrize("shape,hx,hy", SPECTRAL_GRIDS)
def test_constant_coefficient_converges_in_one_iteration(shape, hx, hy):
    # The preconditioner is the exact inverse here, so one iteration leaves
    # only the rounding of one application, about cond * eps relative. With
    # cond = 1 + dt*a*lam_max = 21 that is far below the 1e-13 target; for a
    # rough right-hand side at cond of a few hundred and more, a second
    # iteration removes it.
    b, _ = _random_problem(shape, 13)
    a = 0.7
    lam_max = axis_spectrum(shape[0], hx)[1][-1] + axis_spectrum(shape[1], hy)[1][-1]
    dt = 20.0 / (a * lam_max)
    _, iters, relres = cg_solve(b, np.full(shape, a), dt, hx, hy, 1e-13, 10 * b.size)
    assert iters == 1
    assert relres <= 1e-13


def _profile_coefficient(cells, profile):
    """Coefficients varying by a factor of about 3 over the unit square."""
    grid = Grid((1.0, 1.0), cells)
    base = 0.015
    if profile == "cosine":
        field = CoefficientField.from_profile("cosine", base=base,
                                              amplitude=0.5 * base, modes=[1, 2])
    else:
        field = CoefficientField.from_profile("gaussian", base=base,
                                              amplitude=2.0 * base, width=0.3)
    return field.materialize(grid), grid.spacing


@pytest.mark.parametrize("profile", ["cosine", "gaussian"])
def test_variable_coefficient_converges_quickly_and_exactly(profile):
    dt = 5.0 / 32.0
    a, (hx, hy) = _profile_coefficient((96, 96), profile)
    assert 2.5 < np.max(a) / np.min(a) < 3.5
    b, _ = _random_problem(a.shape, 29)
    _, iters, relres = cg_solve(b, a, dt, hx, hy, 1e-13, 10 * b.size)
    assert relres <= 1e-13
    assert iters <= 40  # unpreconditioned CG needs 221 (cosine) and 307 (gaussian)

    a, (hx, hy) = _profile_coefficient((10, 12), profile)
    b, _ = _random_problem(a.shape, 31)
    x, _, relres = cg_solve(b, a, dt, hx, hy, 1e-13, 10 * b.size)
    assert relres <= 1e-13
    dense = _dense_helmholtz(a, dt, hx, hy)
    x_ref = np.linalg.solve(dense, b.ravel()).reshape(a.shape)
    np.testing.assert_allclose(x, x_ref, rtol=1e-10, atol=1e-12)
