"""Cell-centered grids with zero-flux boundaries, diffusion, and cosine modes.

The domain is an interval (0, Lx) or a rectangle (0, Lx) x (0, Ly),
covered by a uniform cell-centered mesh: cell i has center (i + 1/2)*h.
Homogeneous Neumann conditions are imposed by mirroring values across
the boundary, which makes every boundary face flux exactly zero.

The diffusion operator div(a grad u) is discretized in flux form with
arithmetic-mean face coefficients:

    (D u)_i = (F_{i+1/2} - F_{i-1/2}) / h^2,
    F_{i+1/2} = (a_i + a_{i+1})/2 * (u_{i+1} - u_i),

second order accurate for smooth a and u, symmetric as a matrix, and
exactly conservative: the fluxes telescope so the sum of (D u) over all
cells vanishes.

The Neumann eigenfunctions cos(j pi x / L) evaluated at cell centers
form the DCT-II basis, which is exactly orthogonal under the discrete
cell-volume inner product for mode indices below the cell count. The
basis comes from ``kernels.axis_spectrum``, the cached orthonormal
DCT-II matrix per axis that the implicit solver uses: a normalized mode
profile is a column of it divided by sqrt(h) (the outer product of two
columns in 2D), and a projection applies the columns to the field. Mode
projections therefore measure perturbation amplitudes cleanly: constant
fields have zero projection, up to rounding, on every mode with j >= 1.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels

__all__ = [
    "Grid",
    "ScalarField",
    "CoefficientField",
    "Mode",
    "ModeSpectrum",
    "neumann_modes",
    "mode_profile",
    "project_mode",
    "apply_diffusion",
]


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on an interval or rectangle.

    lengths: domain extents per axis, all positive.
    cells:   cell counts per axis, each at least 3 so the interior
             stencil is distinguishable from the boundary one.
    """

    lengths: tuple
    cells: tuple

    def __post_init__(self):
        lengths = tuple(float(v) for v in self.lengths)
        cells = tuple(int(v) for v in self.cells)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "cells", cells)
        if len(lengths) not in (1, 2) or len(cells) != len(lengths):
            raise ValueError("grid must be 1D or 2D with matching lengths/cells")
        if any(not math.isfinite(L) or L <= 0.0 for L in lengths):
            raise ValueError(f"domain lengths must be positive, got {lengths}")
        if any(n < 3 for n in cells):
            raise ValueError(f"need at least 3 cells per axis, got {cells}")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple:
        return self.cells

    @property
    def ncells(self) -> int:
        n = 1
        for c in self.cells:
            n *= c
        return n

    @property
    def spacing(self) -> tuple:
        return tuple(L / n for L, n in zip(self.lengths, self.cells))

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for h in self.spacing:
            v *= h
        return v

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def meshgrid(self):
        """Cell-center coordinate arrays of shape ``self.shape``."""
        axes = [self.axis_centers(k) for k in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(axes[0], axes[1], indexing="ij"))

    def gaussian(self, center, width: float) -> np.ndarray:
        """exp(-|x - center|^2 / width^2) at the cell centers.

        ``center`` needs one entry per axis and ``width`` must be positive,
        with a square that does not overflow.
        """
        if len(center) != self.dim:
            raise ValueError(f"center needs {self.dim} entries, got {len(center)}")
        width = float(width)
        if not width > 0.0:
            raise ValueError(f"width must be positive, got {width}")
        try:
            width2 = width**2
        except OverflowError:
            raise ValueError(f"width**2 overflows, got width {width}") from None
        r2 = np.zeros(self.shape)
        for c, x0 in zip(self.meshgrid(), center):
            r2 = r2 + (c - float(x0)) ** 2
        return np.exp(-r2 / width2)

    def to_dict(self) -> dict:
        return {"lengths": list(self.lengths), "cells": list(self.cells)}

    @classmethod
    def from_dict(cls, data: dict) -> "Grid":
        return cls(tuple(data["lengths"]), tuple(data["cells"]))


def _as_grid_array(grid: Grid, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != grid.shape:
        if arr.size == grid.ncells:
            arr = arr.reshape(grid.shape)
        else:
            raise ValueError(
                f"values shape {arr.shape} does not match grid shape {grid.shape}"
            )
    return np.ascontiguousarray(arr)


@dataclass
class ScalarField:
    """One density sampled at cell centers."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_grid_array(self.grid, self.values)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values)) * self.grid.cell_volume)

    def integral(self) -> float:
        return float(np.sum(self.values) * self.grid.cell_volume)

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def to_csv(self) -> str:
        return _cells_csv(self.grid, ["value"], [self.values])


# Cells per block of CSV rows converted to text at once.
_CSV_BLOCK = 1024


def _cells_csv(grid: Grid, names, columns, block: int = _CSV_BLOCK) -> str:
    """CSV text with one row per cell: its center coordinates, then its
    value in each field of ``columns``, headed ``names``.

    tolist gives Python floats, whose repr is the shortest string that
    reads back to the same double. The coordinates are converted once per
    axis and paired cell by cell in C order, as ``meshgrid`` lays them out;
    the values are converted and joined ``block`` cells at a time, so only
    one block's floats and rows are alive at once. Each block is appended
    to the text with ``+=``, which CPython does in place for a string with
    one reference, so the text is never alive twice, as a join of all the
    blocks would make it.
    """
    header = ["x", "y"][: grid.dim] + list(names)
    axes = [list(map(repr, grid.axis_centers(k).tolist())) for k in range(grid.dim)]
    cells = map(",".join, itertools.product(*axes))
    columns = [c.ravel() for c in columns]
    text = ",".join(header)
    for start in range(0, grid.ncells, block):
        values = [map(repr, c[start:start + block].tolist()) for c in columns]
        text += "\n" + "\n".join(map(",".join, zip(itertools.islice(cells, block), *values)))
    text += "\n"
    return text


# ---------------------------------------------------------------------------
# Diffusion coefficients
# ---------------------------------------------------------------------------

_PROFILES = ("cosine", "gaussian")
_PROFILE_ARGS = {
    "cosine": frozenset(("base", "amplitude", "modes")),
    "gaussian": frozenset(("base", "amplitude", "width", "center")),
}


@dataclass
class CoefficientField:
    """Spatially varying (or constant) diffusion coefficient.

    kind is one of:
      constant  a(x) = value
      cells     explicit per-cell samples on a fixed grid
      profile   named analytic profile evaluated on demand:
                  cosine:   base + amp * prod_axis cos(m_k pi x_k / L_k)
                  gaussian: base + amp * exp(-|x - center|^2 / width^2)

    The materialized coefficient must be strictly positive; the bounds
    (min, max) over the grid are checked the first time the field is
    materialized and cached with the samples.
    """

    kind: str
    value: float | None = None
    grid: Grid | None = None
    samples: np.ndarray | None = None
    profile: str | None = None
    profile_args: dict = field(default_factory=dict)

    @classmethod
    def constant(cls, value: float) -> "CoefficientField":
        value = float(value)
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"constant coefficient must be positive, got {value}")
        return cls(kind="constant", value=value)

    @classmethod
    def from_cells(cls, grid: Grid, values) -> "CoefficientField":
        arr = _as_grid_array(grid, values)
        if not np.all(np.isfinite(arr)) or np.min(arr) <= 0.0:
            raise ValueError("per-cell coefficients must be finite and positive")
        return cls(kind="cells", grid=grid, samples=arr)

    @classmethod
    def from_profile(cls, name: str, **args) -> "CoefficientField":
        if name not in _PROFILES:
            raise ValueError(f"unknown profile {name!r}; expected one of {_PROFILES}")
        extra = sorted(set(args) - _PROFILE_ARGS[name])
        if extra:
            raise ValueError(f"unknown arguments for profile {name!r}: {', '.join(extra)}")
        if "base" not in args:
            raise ValueError(f"profile {name!r} needs a 'base' level")
        return cls(kind="profile", profile=name, profile_args=dict(args))

    def _evaluate_profile(self, grid: Grid) -> np.ndarray:
        a = self.profile_args
        base = float(a["base"])
        amp = float(a.get("amplitude", 0.0))
        if self.profile == "cosine":
            modes = a.get("modes", [1] * grid.dim)
            if len(modes) != grid.dim:
                raise ValueError(f"modes needs {grid.dim} entries, got {len(modes)}")
            out = np.full(grid.shape, base)
            wave = np.ones(grid.shape)
            for axis, m in enumerate(modes):
                x = grid.axis_centers(axis)
                c = np.cos(int(m) * math.pi * x / grid.lengths[axis])
                wave = wave * (c if grid.dim == 1 else
                               c.reshape([-1, 1] if axis == 0 else [1, -1]))
            return out + amp * wave
        if self.profile == "gaussian":
            width = a.get("width", 0.25 * min(grid.lengths))
            center = a.get("center", [0.5 * L for L in grid.lengths])
            return base + amp * grid.gaussian(center, width)
        raise ValueError(f"unknown profile {self.profile!r}")

    def materialize(self, grid: Grid) -> np.ndarray:
        """Per-cell samples on the given grid, positivity-checked."""
        if self.kind == "constant":
            return np.full(grid.shape, self.value)
        if self.kind == "cells":
            if self.grid != grid:
                raise ValueError("coefficient samples belong to a different grid")
            return self.samples
        if self.kind == "profile":
            if self.samples is None or self.grid != grid:
                arr = self._evaluate_profile(grid)
                if not np.all(np.isfinite(arr)) or np.min(arr) <= 0.0:
                    raise ValueError(
                        f"profile {self.profile!r} is not strictly positive on the grid "
                        f"(min {float(np.min(arr))!r})"
                    )
                self.grid = grid
                self.samples = arr
            return self.samples
        raise ValueError(f"unknown coefficient kind {self.kind!r}")

    def bounds(self, grid: Grid) -> tuple:
        arr = self.materialize(grid)
        return float(np.min(arr)), float(np.max(arr))

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("coefficient is not spatially constant")
        return self.value


# ---------------------------------------------------------------------------
# Neumann cosine modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mode:
    """One Laplacian eigenmode under zero-flux conditions."""

    j: int
    axis_indices: tuple
    lam: float
    description: str


@dataclass(frozen=True)
class ModeSpectrum:
    grid: Grid
    modes: tuple

    def __len__(self) -> int:
        return len(self.modes)

    def __getitem__(self, j: int) -> Mode:
        return self.modes[j]

    @functools.cached_property
    def _columns(self) -> tuple:
        """Mode indices and eigenvalues as two read-only arrays, built once."""
        j = np.array([m.j for m in self.modes])
        lam = np.array([m.lam for m in self.modes])
        j.flags.writeable = lam.flags.writeable = False
        return j, lam

    def indices(self) -> np.ndarray:
        """Index j of every mode, in order (read-only, shared by all callers)."""
        return self._columns[0]

    def lambdas(self) -> np.ndarray:
        """Eigenvalue of every mode, in order (read-only, shared by all callers)."""
        return self._columns[1]

    @functools.cached_property
    def _distinct(self) -> tuple:
        lam = self.lambdas()
        new = np.empty(len(lam), dtype=bool)
        new[:1] = True
        np.not_equal(lam[1:], lam[:-1], out=new[1:])
        if new.all():
            return lam, None
        inverse = np.cumsum(new) - 1
        distinct = lam[new]
        distinct.flags.writeable = inverse.flags.writeable = False
        return distinct, inverse

    def distinct_lambdas(self) -> tuple:
        """(distinct, inverse): each run of bit-equal neighbouring
        eigenvalues once, and the row of ``distinct`` of every mode, so that
        ``distinct[inverse]`` equals ``lambdas()``; inverse is None when no
        two neighbours are equal, as on every 1D spectrum. Both read-only.

        ``neumann_modes`` lists the eigenvalues sorted, so there equal
        values are neighbours and ``distinct`` holds each value once. A
        neighbour comparison (not np.unique, which imports numpy.ma, about
        9 ms of a fresh process) finds them; ``inverse`` never decreases.
        """
        return self._distinct


def _describe(indices, lengths) -> str:
    parts = []
    for k, (j, L) in enumerate(zip(indices, lengths)):
        var = "xy"[k]
        if j == 0:
            continue
        parts.append(f"cos({j}*pi*{var}/{L:g})")
    return "*".join(parts) if parts else "1"


def neumann_modes(grid: Grid, count: int) -> ModeSpectrum:
    """The `count` smallest Laplacian eigenvalues on the domain.

    1D: lambda_j = (j pi / Lx)^2 for j = 0, 1, ...
    2D: lambda = (jx pi / Lx)^2 + (jy pi / Ly)^2, repeated eigenvalues
        kept with their multiplicity. Only index pairs under a bound that
        is certain to hold `count` modes are enumerated and sorted, about
        2*count of them: each corner rectangle of a x b pairs with
        a*b >= count holds `count` modes, so the smallest over a of the
        largest lambda in the a x ceil(count/a) rectangle (the k x k
        square and the single axis among them) bounds the count-th mode.
    Ties are broken by the index tuple, so the ordering is deterministic
    and equal to a sort of all count x count pairs.
    """
    count = int(count)
    if count < 1:
        raise ValueError(f"mode count must be >= 1, got {count}")
    axes = [[(j * math.pi / L) ** 2 for j in range(count)] for L in grid.lengths]
    if grid.dim == 1:
        cand = [(lam, (j,)) for j, lam in enumerate(axes[0])]
    else:
        lx, ly = axes
        bound = min(lx[a - 1] + ly[(count - 1) // a] for a in range(1, count + 1))
        # Rounding keeps the sums monotone in each index, so a pair under
        # the bound has both axis terms under it.
        lx = lx[:bisect.bisect_right(lx, bound)]
        ly = ly[:bisect.bisect_right(ly, bound)]
        cand = [(x + y, (jx, jy)) for jx, x in enumerate(lx)
                for jy, y in enumerate(ly) if x + y <= bound]
        cand.sort()
    modes = tuple(
        Mode(j, idx, lam, _describe(idx, grid.lengths))
        for j, (lam, idx) in enumerate(cand[:count])
    )
    return ModeSpectrum(grid, modes)


def _mode_columns(grid: Grid, mode: Mode) -> list:
    """Column of ``kernels.axis_spectrum`` for each axis index of a mode.

    Column j of an axis basis is cos(j pi x / L) at the cell centers,
    normalized to 1 in the plain sum; divided by sqrt(h) it is normalized
    under the cell-volume inner product. Raises ValueError for an index
    the axis cannot resolve (j >= cells).
    """
    columns = []
    for axis, j in enumerate(mode.axis_indices):
        n = grid.cells[axis]
        if j >= n:
            raise ValueError(
                f"mode index {j} along axis {axis} is not resolvable on {n} cells"
            )
        columns.append(kernels.axis_spectrum(n, grid.spacing[axis])[0][:, j])
    return columns


def mode_profile(grid: Grid, mode: Mode) -> np.ndarray:
    """Normalized eigenfunction samples for one mode, shape grid.shape."""
    factors = [c / math.sqrt(h) for c, h in zip(_mode_columns(grid, mode), grid.spacing)]
    if grid.dim == 1:
        return factors[0]
    return np.outer(factors[0], factors[1])


def project_mode(u: ScalarField, j: int, spectrum: ModeSpectrum | None = None) -> float:
    """Amplitude of mode j in the field: <u, phi_j> with cell-volume weights.

    The basis columns are applied to the field directly (cx @ u, or
    cx @ u @ cy in 2D), so no profile of the grid's size is built.
    """
    if j < 0:
        raise ValueError(f"mode index must be >= 0, got {j}")
    if spectrum is None:
        spectrum = neumann_modes(u.grid, j + 1)
    elif spectrum.grid != u.grid:
        raise ValueError("mode spectrum belongs to a different grid")
    if j >= len(spectrum):
        raise ValueError(f"mode index {j} out of range for spectrum of {len(spectrum)}")
    columns = _mode_columns(u.grid, spectrum[j])
    amp = columns[0] @ u.values
    if u.grid.dim == 2:
        amp = amp @ columns[1]
    vol = u.grid.cell_volume
    return float(amp * (vol / math.sqrt(vol)))


# ---------------------------------------------------------------------------
# Diffusion operator
# ---------------------------------------------------------------------------

def apply_diffusion(u: ScalarField, a: CoefficientField) -> ScalarField:
    """Evaluate div(a grad u) with zero-flux boundaries."""
    grid = u.grid
    acells = a.materialize(grid)
    u2, a2 = kernels.as_2d(u.values), kernels.as_2d(acells)
    hx, hy = kernels.spacing_2d(grid)
    out = kernels.diffusion_apply(u2, a2, hx, hy)
    return ScalarField(grid, out.reshape(grid.shape))
