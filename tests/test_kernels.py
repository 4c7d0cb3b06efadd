"""Diffusion stencil and the DCT-preconditioned implicit solve."""

import math

import numpy as np
import pytest

from sirblab import kernels
from sirblab.grid import CoefficientField, Grid
from sirblab.kernels import (
    axis_spectrum,
    backend_name,
    cg_solve,
    diffusion_apply,
    helmholtz_apply,
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
        mat[:, c] = helmholtz_apply(e.reshape(a.shape), a, dt, hx, hy).ravel()
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
    stencil = diffusion_apply(u, np.full(shape, a), hx, hy)
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


@pytest.mark.parametrize("profile", ["cosine", "gaussian"])
def test_smooth_coefficient_balanced_preconditioner_converges_faster(profile):
    # S M S with S = (a/abar)^(-1/4): 17 and 18 iterations where the mean
    # coefficient preconditioner alone takes 26 (bound 40 above)
    dt = 5.0 / 32.0
    a, (hx, hy) = _profile_coefficient((96, 96), profile)
    c = kernels.prepare_coefficient(a, hx, hy, smooth=True)
    assert np.array_equal(c.scaling, (a / c.scale) ** -0.25)
    assert kernels.prepare_coefficient(a, hx, hy).scaling is None
    flat = kernels.prepare_coefficient(np.full_like(a, 0.3), hx, hy, smooth=True)
    assert flat.constant and flat.scaling is None
    b, _ = _random_problem(a.shape, 29)
    _, iters, relres = cg_solve(b, c, dt, hx, hy, 1e-13, 10 * b.size)
    assert relres <= 1e-13
    assert iters <= 20

    a, (hx, hy) = _profile_coefficient((10, 12), profile)
    b, _ = _random_problem(a.shape, 31)
    x, _, relres = cg_solve(b, kernels.prepare_coefficient(a, hx, hy, smooth=True),
                            dt, hx, hy, 1e-13, 10 * b.size)
    assert relres <= 1e-13
    x_ref = np.linalg.solve(_dense_helmholtz(a, dt, hx, hy), b.ravel()).reshape(a.shape)
    np.testing.assert_allclose(x, x_ref, rtol=1e-10, atol=1e-12)


def _mean_solver(a, dt, hx, hy):
    """The preconditioner of a raw field, written out: the spectral solve at
    the mean coefficient with the basis, 1/(1 + dt*abar*lam) and the input
    rounded to float32, and the result widened to float64."""
    nx, ny = a.shape
    cx, lx = axis_spectrum(nx, hx)
    cy, ly = axis_spectrum(ny, hy)
    abar = float(a.sum()) / a.size
    inv = (1.0 / (1.0 + (dt * abar) * (lx[:, None] + ly[None, :]))).astype(np.float32)
    cx, cy = cx.astype(np.float32), cy.astype(np.float32)
    if ny == 1:
        return lambda r: (cx @ ((cx.T @ r.astype(np.float32)) * inv)).astype(np.float64)
    return lambda r: (cx @ ((cx.T @ r.astype(np.float32) @ cy) * inv) @ cy.T).astype(np.float64)


def test_1d_fields_skip_y_work_with_the_same_floats():
    # A (n, 1) field has no y faces and a 1x1 identity y transform; the
    # 1D shortcuts must give the bits of the general 2D formulas.
    rng = np.random.default_rng(11)
    n, hx, hy, dt = 64, 2.0 / 64, 1.0, 0.37
    a = rng.uniform(0.01, 3.0, size=(n, 1))
    r = rng.normal(size=(n, 1))

    wx, wy = kernels._face_weights(a)
    assert wy is None
    assert np.array_equal(wx, 0.5 * (a[:-1, :] + a[1:, :]))

    got = kernels._mean_coefficient_solver(a, dt, hx, hy)(r)
    assert got.dtype == np.float64
    assert np.array_equal(got, _mean_solver(a, dt, hx, hy)(r))


# ---------------------------------------------------------------------------
# Start of the solve: spectral for a constant coefficient, x = b otherwise
# ---------------------------------------------------------------------------

def _pcg_from_b(b, a, dt, hx, hy, rtol, maxiter):
    """PCG from x = b: the reference for every solve without the spectral
    start, preconditioned by ``_mean_solver``."""
    weights = kernels._face_weights(a)

    def helmholtz(v):
        return v - dt * kernels._divergence(v, weights, hx, hy)

    x = b.copy()
    bnorm = math.sqrt(float(np.dot(b.ravel(), b.ravel())))
    if bnorm == 0.0:
        return x, 0, 0.0
    r = b - helmholtz(x)
    rs = float(np.dot(r.ravel(), r.ravel()))
    target = rtol * bnorm
    if math.sqrt(rs) <= target:
        return x, 0, math.sqrt(rs) / bnorm
    precondition = _mean_solver(a, dt, hx, hy)
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


def _variable_cases():
    b, a = _random_problem((64, 1), 41)
    yield b, a, 0.37, 2.0 / 64, 1.0
    for profile in ("cosine", "gaussian"):
        a, (hx, hy) = _profile_coefficient((96, 96), profile)
        b, _ = _random_problem(a.shape, 43)
        yield b, a, 5.0 / 32.0, hx, hy
    b, a = _random_problem((12, 18), 47)
    yield b, a, 0.05, 0.08, 0.05


def test_variable_coefficient_solves_are_unchanged_bit_for_bit():
    for b, a, dt, hx, hy in _variable_cases():
        for maxiter in (10 * b.size, 3):
            x, iters, relres = cg_solve(b, a, dt, hx, hy, 1e-13, maxiter)
            x_ref, iters_ref, relres_ref = _pcg_from_b(b, a, dt, hx, hy, 1e-13, maxiter)
            assert np.array_equal(x, x_ref)
            assert iters == iters_ref
            assert relres == relres_ref


def _single_precision_cases():
    """The amp-50 gaussian (smooth, so S M S) and white-noise cells (M) on
    96x96, each with the largest float32 iteration count measured at dt
    5/32, 2, 40 and 4000 plus about a tenth."""
    grid = Grid((1.0, 1.0), (96, 96))
    base = 0.015
    gaussian = CoefficientField.from_profile("gaussian", base=base, amplitude=50.0 * base,
                                             width=0.05).materialize(grid)
    cells = np.random.default_rng(5).uniform(0.0015, 0.015, grid.shape)
    # measured: 48, 53, 64, 131 and 37, 41, 44, 49 (the float64 basis: 45,
    # 49, 57, 90 and 37, 41, 44, 49)
    yield gaussian, True, (53, 59, 71, 145), grid.spacing
    yield cells, False, (41, 46, 49, 54), grid.spacing


def test_single_precision_preconditioner_reaches_the_tolerance(monkeypatch):
    calls = []
    single = kernels._single_basis

    def counting(*args):
        calls.append(args)
        return single(*args)

    monkeypatch.setattr(kernels, "_single_basis", counting)
    b = np.random.default_rng(29).uniform(0.0, 2.0, (96, 96))
    for a, smooth, bounds, (hx, hy) in _single_precision_cases():
        c = kernels.prepare_coefficient(a, hx, hy, smooth=smooth)
        for dt, bound in zip((5.0 / 32.0, 2.0, 40.0, 4000.0), bounds):
            calls.clear()
            x, iters, relres = cg_solve(b, c, dt, hx, hy, 1e-13, 10 * b.size)
            assert calls == [((96, 96), hx, hy)]
            assert x.dtype == np.float64
            assert relres <= 1e-13
            assert iters <= bound, (smooth, dt, iters)


@pytest.mark.parametrize("dt", [5.0 / 32.0, 4000.0])
def test_balanced_preconditioner_rounds_s_v_once(dt):
    # S M S: S v is formed in float64 and rounded once, M runs on the
    # float32 basis, and S widens the result; at every dt, one precision.
    a = np.random.default_rng(5).uniform(0.0015, 0.015, (96, 96))
    hx = hy = 1.0 / 96
    c = kernels.prepare_coefficient(a, hx, hy, smooth=True)
    cx, cy = (m.astype(np.float32) for m in c.basis)
    inv = (1.0 / (1.0 + (dt * c.scale) * c.lam)).astype(np.float32)
    r = np.random.default_rng(31).normal(size=a.shape)
    v = (c.scaling * r).astype(np.float32)
    want = c.scaling * (cx @ ((cx.T @ v @ cy) * inv) @ cy.T)
    got = kernels._mean_coefficient_solver(c, dt, hx, hy)(r)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


def _count_stencils(monkeypatch):
    calls = []
    original = kernels._divergence

    def counting(*args):
        calls.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(kernels, "_divergence", counting)
    return calls


@pytest.mark.parametrize("shape,hx,hy", [((20, 1), 0.05, 1.0)] + SPECTRAL_GRIDS[1:])
def test_constant_coefficient_solve_is_one_stencil(monkeypatch, shape, hx, hy):
    b, _ = _random_problem(shape, 53)
    corners = b.copy()  # equal corner cells, yet not a constant
    corners[-1, -1] = corners[0, 0]
    a = np.full(shape, 0.7)
    dt = 0.02
    dense = _dense_helmholtz(a, dt, hx, hy)
    calls = _count_stencils(monkeypatch)
    for rhs in (b, corners):
        calls.clear()
        x, iters, relres = cg_solve(rhs, a, dt, hx, hy, 1e-13, 10 * b.size)
        assert calls == [shape]
        assert iters == 1
        assert relres <= 1e-13
        x_ref = np.linalg.solve(dense, rhs.ravel()).reshape(shape)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-14)


def test_spectral_start_continues_with_pcg_when_rounding_misses_rtol(monkeypatch):
    # At cond = 1e5 one spectral solve leaves a relative residual of about
    # cond * eps > 1e-13; the solve carries on from there and converges.
    shape, hx, hy = (64, 1), 1.0 / 64, 1.0
    b, _ = _random_problem(shape, 59)
    a = np.full(shape, 0.7)
    dt = 1e5 / (0.7 * axis_spectrum(64, hx)[1][-1])
    calls = _count_stencils(monkeypatch)
    x, iters, relres = cg_solve(b, a, dt, hx, hy, 1e-13, 10 * b.size)
    assert iters == 2 and len(calls) == 2
    assert relres <= 1e-13
    x_ref = np.linalg.solve(_dense_helmholtz(a, dt, hx, hy), b.ravel()).reshape(shape)
    np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("shape", [(16, 1), (6, 9)])
def test_constant_rhs_with_constant_coefficient_skips_the_spectral_start(shape):
    a = np.full(shape, 0.7)
    b = np.full(shape, 3.25)
    x, iters, relres = cg_solve(b, a, 0.1, 0.0625, 0.1, 1e-13, 10 * b.size)
    assert np.array_equal(x, b) and x is not b
    assert iters == 0 and relres == 0.0


# ---------------------------------------------------------------------------
# Stacked constant-coefficient solves
# ---------------------------------------------------------------------------

STACK_GRIDS = [((64, 1), 2.0 / 64, 1.0), ((12, 18), 0.08, 0.05), ((16, 16), 1.0 / 16, 1.0 / 16)]


def _stack(values, shape, hx, hy):
    members = [kernels.prepare_coefficient(np.full(shape, v), hx, hy) for v in values]
    return kernels.stack_coefficients(members)


@pytest.mark.parametrize("shape,hx,hy", STACK_GRIDS)
def test_stacked_solve_matches_per_species_solves(shape, hx, hy):
    # The coefficients of scenarios/turing_point.json, plus a fifth member.
    values = (3e-5, 3e-5, 2.7728, 3e-5, 0.4)
    rng = np.random.default_rng(61)
    b = rng.uniform(0.0, 2.0, (len(values),) + shape)
    dt = 0.01
    x, iters, relres = cg_solve(b, _stack(values, shape, hx, hy), dt, hx, hy,
                                1e-13, 10 * b[0].size)
    assert x.shape == b.shape
    assert iters == 1 and relres <= 1e-13
    for k, v in enumerate(values):
        xk, it, rk = cg_solve(b[k], np.full(shape, v), dt, hx, hy, 1e-13, 10 * b[0].size)
        assert it == 1 and rk <= 1e-13
        np.testing.assert_allclose(x[k], xk, rtol=0.0, atol=2e-14 * np.max(np.abs(xk)))
        x_ref = np.linalg.solve(_dense_helmholtz(np.full(shape, v), dt, hx, hy),
                                b[k].ravel()).reshape(shape)
        np.testing.assert_allclose(x[k], x_ref, rtol=1e-12, atol=1e-14)


def test_stiff_member_continues_in_pcg_while_the_others_stop(monkeypatch):
    # Member 1 has cond = 1e5, so its spectral start misses 1e-13 and it
    # carries on alone (one more stencil, on one field); the others stop
    # after the start, which is one stencil on the whole stack.
    shape, hx, hy = (64, 1), 1.0 / 64, 1.0
    dt = 1e5 / (0.7 * axis_spectrum(64, hx)[1][-1])
    values = (1e-9, 0.7, 2e-9)
    b = np.random.default_rng(67).uniform(0.0, 2.0, (3,) + shape)
    calls = _count_stencils(monkeypatch)
    x, iters, relres = cg_solve(b, _stack(values, shape, hx, hy), dt, hx, hy,
                                1e-13, 10 * b[0].size)
    assert calls == [(3,) + shape, shape]
    assert iters == 2 and relres <= 1e-13
    for k, v in enumerate(values):
        calls.clear()
        xk, it, _ = cg_solve(b[k], np.full(shape, v), dt, hx, hy, 1e-13, 10 * b[0].size)
        assert it == (2 if k == 1 else 1)
        x_ref = np.linalg.solve(_dense_helmholtz(np.full(shape, v), dt, hx, hy),
                                b[k].ravel()).reshape(shape)
        np.testing.assert_allclose(x[k], x_ref, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(x[k], xk, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape,hx,hy", STACK_GRIDS[:2])
def test_constant_and_zero_rhs_members_come_back_unchanged(shape, hx, hy):
    rng = np.random.default_rng(71)
    b = rng.uniform(0.0, 2.0, (4,) + shape)
    b[1] = 3.25
    b[2] = 0.0
    b[3, 0, 0] = b[3, -1, -1]  # equal corner cells, yet not a constant
    coefficients = _stack((0.3, 0.3, 0.7, 0.3), shape, hx, hy)
    x, iters, relres = cg_solve(b, coefficients, 0.05, hx, hy, 1e-13, 10 * b[0].size)
    assert np.array_equal(x[1], b[1]) and np.array_equal(x[2], b[2])
    assert not np.signbit(x[2]).any()
    assert iters == 1 and relres <= 1e-13
    for k in (0, 3):
        assert not np.array_equal(x[k], b[k])
        xk, _, _ = cg_solve(b[k], np.full(shape, 0.3), 0.05, hx, hy, 1e-13, 10 * b[0].size)
        np.testing.assert_allclose(x[k], xk, rtol=0.0, atol=2e-14 * np.max(np.abs(xk)))
    uniform = b[1:3].copy()
    x, iters, relres = cg_solve(uniform, _stack((0.3, 0.7), shape, hx, hy), 0.05, hx, hy,
                                1e-13, 10 * b[0].size)
    assert np.array_equal(x, uniform) and x is not uniform
    assert iters == 0 and relres == 0.0


def test_prepared_coefficients_give_the_solves_of_the_raw_fields():
    # cg_solve on a raw field prepares it on the spot: the same bits as a
    # solve with the coefficients prepared once.
    for b, a, dt, hx, hy in list(_variable_cases())[::3]:
        prepared = kernels.prepare_coefficient(a, hx, hy)
        assert not prepared.constant
        got = cg_solve(b, prepared, dt, hx, hy, 1e-13, 10 * b.size)
        want = cg_solve(b, a, dt, hx, hy, 1e-13, 10 * b.size)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
    b, _ = _random_problem((12, 18), 73)
    prepared = kernels.prepare_coefficient(np.full((12, 18), 0.7), 0.08, 0.05)
    assert prepared.constant
    got = cg_solve(b, prepared, 0.05, 0.08, 0.05, 1e-13, 10 * b.size)
    want = cg_solve(b, np.full((12, 18), 0.7), 0.05, 0.08, 0.05, 1e-13, 10 * b.size)
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

