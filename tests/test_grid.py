"""Grids, diffusion operator, coefficient fields, and the Neumann spectrum."""

import itertools
import math

import numpy as np
import pytest

from sirblab.grid import (
    CoefficientField,
    Grid,
    Mode,
    ScalarField,
    apply_diffusion,
    mode_profile,
    neumann_modes,
    project_mode,
)
from sirblab.kernels import axis_spectrum


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------

def test_grid_basic_properties():
    g = Grid((2.0,), (64,))
    assert g.dim == 1
    assert g.ncells == 64
    assert g.spacing == (2.0 / 64,)
    assert g.cell_volume == pytest.approx(2.0 / 64)

    g2 = Grid((1.0, 3.0), (8, 12))
    assert g2.dim == 2
    assert g2.shape == (8, 12)
    assert g2.cell_volume == pytest.approx((1.0 / 8) * (3.0 / 12))


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Grid((1.0,), (2,))          # too few cells
    with pytest.raises(ValueError):
        Grid((-1.0,), (16,))        # negative extent
    with pytest.raises(ValueError):
        Grid((1.0, 1.0, 1.0), (4, 4, 4))  # only 1D/2D supported
    with pytest.raises(ValueError):
        Grid((1.0, 1.0), (16,))     # mismatched lengths/cells


def test_grid_dict_roundtrip():
    g = Grid((1.5, 2.5), (10, 20))
    assert g.to_dict() == {"lengths": [1.5, 2.5], "cells": [10, 20]}
    assert Grid(**g.to_dict()) == g


def test_axis_centers_are_cell_midpoints():
    g = Grid((1.0,), (4,))
    np.testing.assert_allclose(g.axis_centers(0), [0.125, 0.375, 0.625, 0.875])


# ---------------------------------------------------------------------------
# Neumann mode spectrum
# ---------------------------------------------------------------------------

def test_modes_1d_unit_pi_interval():
    spec = neumann_modes(Grid((math.pi,), (32,)), 3)
    np.testing.assert_allclose(spec.lambdas(), [0.0, 1.0, 4.0], atol=1e-14)


def test_modes_2d_square_multiplicities():
    spec = neumann_modes(Grid((math.pi, math.pi), (12, 12)), 4)
    np.testing.assert_allclose(spec.lambdas(), [0.0, 1.0, 1.0, 2.0], atol=1e-14)


def test_modes_start_at_zero_and_are_sorted():
    for g in (Grid((2.0,), (16,)), Grid((1.0, 2.0), (8, 8))):
        spec = neumann_modes(g, 12)
        lams = spec.lambdas()
        assert lams[0] == 0.0
        assert np.all(np.diff(lams) >= 0.0)
        assert len(spec) == 12


def test_modes_reject_bad_count():
    with pytest.raises(ValueError):
        neumann_modes(Grid((1.0,), (8,)), 0)


def _brute_force_modes(grid, count):
    """(lambda, indices, description) of the first `count` of all count^dim
    index tuples, sorted by (lambda, indices): the reference enumeration."""
    axes = [[(j * math.pi / L) ** 2 for j in range(count)] for L in grid.lengths]
    if grid.dim == 1:
        cand = [(lam, (j,)) for j, lam in enumerate(axes[0])]
    else:
        cand = [(lx + ly, (jx, jy)) for jx, lx in enumerate(axes[0])
                for jy, ly in enumerate(axes[1])]
    cand.sort()
    out = []
    for lam, idx in cand[:count]:
        parts = [f"cos({j}*pi*{'xy'[k]}/{L:g})"
                 for k, (j, L) in enumerate(zip(idx, grid.lengths)) if j]
        out.append((lam, idx, "*".join(parts) or "1"))
    return out


@pytest.mark.parametrize("count", [1, 2, 7, 64, 300])
@pytest.mark.parametrize("grid", [
    Grid((2.0,), (64,)),                    # 1D
    Grid((math.pi, math.pi), (12, 12)),     # square: multiplicities and ties
    Grid((2.0, 1.0), (64, 32)),             # 2:1 rectangle
    Grid((1.0, math.sqrt(2.0)), (16, 16)),  # irrational aspect ratio
], ids=["1d", "square", "rect-2to1", "irrational"])
def test_modes_equal_brute_force_sort(grid, count):
    spec = neumann_modes(grid, count)
    ref = _brute_force_modes(grid, count)
    assert len(spec) == count
    for j, (mode, (lam, idx, desc)) in enumerate(zip(spec.modes, ref)):
        assert mode.j == j
        assert type(mode.lam) is float and mode.lam.hex() == lam.hex()
        assert mode.axis_indices == idx
        assert mode.description == desc


# ---------------------------------------------------------------------------
# Mode projection
# ---------------------------------------------------------------------------

def test_project_own_profile_is_unit():
    g = Grid((2.0,), (64,))
    spec = neumann_modes(g, 5)
    for j in range(5):
        u = ScalarField(g, mode_profile(g, spec[j]))
        assert project_mode(u, j, spec) == pytest.approx(1.0, abs=1e-12)


def test_project_constant_onto_higher_modes_vanishes():
    g = Grid((2.0,), (48,))
    u = ScalarField.constant(g, 4.2)
    spec = neumann_modes(g, 4)
    for j in (1, 2, 3):
        assert abs(project_mode(u, j, spec)) < 1e-12
    # mode 0 carries the mean scaled by the domain-normalized profile
    assert project_mode(u, 0, spec) == pytest.approx(4.2 * math.sqrt(2.0))


def test_project_zero_field():
    g = Grid((1.0,), (16,))
    assert project_mode(ScalarField.constant(g, 0.0), 2) == 0.0


def test_project_sampled_cosine():
    # An analytic cosine lands on mode 1 with its continuum amplitude.
    L, n = 3.0, 96
    g = Grid((L,), (n,))
    x = g.axis_centers(0)
    u = ScalarField(g, np.cos(math.pi * x / L))
    amp = project_mode(u, 1)
    assert amp == pytest.approx(math.sqrt(L / 2.0), rel=1e-12)
    assert abs(project_mode(u, 2)) < 1e-12


def test_project_mode_out_of_range():
    g = Grid((1.0,), (8,))
    spec = neumann_modes(g, 3)
    with pytest.raises((IndexError, ValueError)):
        project_mode(ScalarField.constant(g, 1.0), 7, spec)


@pytest.mark.parametrize("lengths, cells", [
    ((4.0,), (16,)), ((1.0, 1.0), (16, 16)), ((4.0, 0.25), (16, 16)), ((2.0, 1.0), (32, 16)),
], ids=["1d", "square", "unequal-spacing", "non-square"])
def test_mode_profile_is_the_solver_basis_column(lengths, cells):
    # Power-of-two spacings make the sqrt(h) scaling exact, so the profile
    # must be the cached DCT-II column bit for bit, for every resolvable
    # mode; the next index along each axis is not resolvable.
    g = Grid(lengths, cells)
    bases = [axis_spectrum(n, h)[0] for n, h in zip(g.cells, g.spacing)]
    scale = math.sqrt(g.cell_volume)
    for idx in itertools.product(*(range(n) for n in cells)):
        profile = mode_profile(g, Mode(0, idx, 0.0, ""))
        want = bases[0][:, idx[0]]
        if g.dim == 2:
            want = np.outer(want, bases[1][:, idx[1]])
        assert np.array_equal(profile * scale, want)
    for axis, n in enumerate(cells):
        idx = tuple(n if k == axis else 0 for k in range(g.dim))
        with pytest.raises(ValueError, match="not resolvable"):
            mode_profile(g, Mode(0, idx, 0.0, ""))


def test_project_2d_orthonormality():
    g = Grid((1.0, 2.0), (16, 24))
    spec = neumann_modes(g, 8)
    for j in range(8):
        u = ScalarField(g, mode_profile(g, spec[j]))
        for k in range(8):
            want = 1.0 if spec[k].lam == spec[j].lam and k == j else 0.0
            assert project_mode(u, k, spec) == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# Diffusion operator
# ---------------------------------------------------------------------------

def _const_coeff(value=1.0):
    return CoefficientField.constant(value)


def test_diffusion_of_constant_is_zero():
    for g in (Grid((2.0,), (32,)), Grid((1.0, 1.0), (8, 10))):
        out = apply_diffusion(ScalarField.constant(g, 5.0), _const_coeff(0.3))
        assert np.max(np.abs(out.values)) == 0.0


def test_diffusion_eigenfunction_1d():
    L, n = 2.0, 128
    g = Grid((L,), (n,))
    x = g.axis_centers(0)
    u = np.cos(math.pi * x / L)
    out = apply_diffusion(ScalarField(g, u), _const_coeff(1.0))
    lam = (math.pi / L) ** 2
    err = np.max(np.abs(out.values + lam * u))
    assert err < 2.0 * lam * (L / n) ** 2


def test_diffusion_eigenfunction_2d():
    g = Grid((1.0, 1.0), (48, 48))
    xx, yy = g.meshgrid()
    u = np.cos(math.pi * xx) * np.cos(2 * math.pi * yy)
    lam = math.pi**2 + (2 * math.pi) ** 2
    out = apply_diffusion(ScalarField(g, u), _const_coeff(0.7))
    err = np.max(np.abs(out.values + 0.7 * lam * u))
    assert err < 0.02 * 0.7 * lam


def test_diffusion_second_order_convergence():
    L = 2.0
    errs = []
    for n in (32, 64, 128):
        g = Grid((L,), (n,))
        x = g.axis_centers(0)
        u = np.cos(math.pi * x / L)
        out = apply_diffusion(ScalarField(g, u), _const_coeff(1.0))
        errs.append(np.max(np.abs(out.values + (math.pi / L) ** 2 * u)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.2)


def test_diffusion_conserves_mass():
    rng = np.random.default_rng(3)
    g = Grid((1.0, 2.0), (16, 24))
    u = ScalarField(g, rng.uniform(0.0, 2.0, g.shape))
    a = CoefficientField.from_cells(g, rng.uniform(0.5, 1.5, g.shape))
    out = apply_diffusion(u, a)
    total = np.sum(out.values) * g.cell_volume
    assert abs(total) < 1e-12 * np.max(np.abs(out.values))


def test_diffusion_mirror_symmetry_is_bitwise():
    rng = np.random.default_rng(11)
    g = Grid((1.0,), (33,))
    u = rng.uniform(0.0, 1.0, g.shape)
    a = rng.uniform(0.2, 2.0, g.shape)
    fwd = apply_diffusion(ScalarField(g, u), CoefficientField.from_cells(g, a)).values
    rev = apply_diffusion(ScalarField(g, u[::-1].copy()),
                          CoefficientField.from_cells(g, a[::-1].copy())).values
    np.testing.assert_array_equal(fwd, rev[::-1])

    g2 = Grid((1.0, 1.0), (12, 14))
    u2 = rng.uniform(0.0, 1.0, g2.shape)
    a2 = rng.uniform(0.2, 2.0, g2.shape)
    fwd2 = apply_diffusion(ScalarField(g2, u2), CoefficientField.from_cells(g2, a2)).values
    rev2 = apply_diffusion(ScalarField(g2, u2[::-1, ::-1].copy()),
                           CoefficientField.from_cells(g2, a2[::-1, ::-1].copy())).values
    np.testing.assert_array_equal(fwd2, rev2[::-1, ::-1])


def test_diffusion_grid_mismatch_rejected():
    u = ScalarField.constant(Grid((1.0,), (8,)), 1.0)
    a = CoefficientField.from_cells(Grid((1.0,), (16,)), np.ones(16))
    with pytest.raises(ValueError):
        apply_diffusion(u, a)


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

def test_coefficient_constant_positive_only():
    assert CoefficientField.constant(0.5).constant_value() == 0.5
    for bad in (0.0, -1.0, float("inf")):
        with pytest.raises(ValueError):
            CoefficientField.constant(bad)


def test_coefficient_cells_validation():
    g = Grid((1.0,), (8,))
    with pytest.raises(ValueError):
        CoefficientField.from_cells(g, np.zeros(8))
    with pytest.raises(ValueError):
        CoefficientField.from_cells(g, np.ones(7))


def test_coefficient_profiles():
    g = Grid((2.0,), (32,))
    cos = CoefficientField.from_profile("cosine", base=1.0, amplitude=0.5, modes=[1])
    lo, hi = cos.bounds(g)
    assert 0.4 < lo < 0.6 and 1.4 < hi <= 1.5

    gauss = CoefficientField.from_profile("gaussian", base=0.1, amplitude=1.0, width=0.3)
    lo, hi = gauss.bounds(g)
    assert lo >= 0.1 and hi <= 1.1

    with pytest.raises(ValueError, match="profile"):
        CoefficientField.from_profile("sawtooth", base=1.0)


def test_coefficient_profile_must_stay_positive():
    g = Grid((2.0,), (32,))
    dip = CoefficientField.from_profile("cosine", base=0.5, amplitude=1.0)
    with pytest.raises(ValueError, match="positive"):
        dip.materialize(g)


def test_scalar_field_shape_checked():
    g = Grid((1.0, 1.0), (4, 4))
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((4, 5)))
