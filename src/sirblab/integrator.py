"""Time integration: implicit diffusion, explicit reactions.

One step from t to t + dt treats diffusion implicitly (backward Euler,
unconditionally stable) and the reactions explicitly:

    (I - dt * D_i) u_i(t+dt) = u_i(t) + dt * f_i(U(t)),   i = 1..4.

Each implicit solve is a symmetric positive definite system handled by
conjugate gradients preconditioned with the exact DCT solve at the mean
coefficient (see kernels): for a constant coefficient the solve starts
from that DCT solve and is one transform pair and one stencil
application. A ``profile`` coefficient is smooth by construction, so it
is prepared as smooth and its solves use the balanced preconditioner,
scaled by (a/mean)^(-1/4) on both sides (on the 96x96 profiles of the
hetero-2d benchmark, about ten iterations a solve where the plain one
takes fifteen); ``cells`` data may be rough and keeps the plain one.
``_drive`` builds a ``SolverPlan`` once per run: each coefficient
prepared by the kernels (constant or not, mean, face weights, scaling,
axis spectra, and one set of work arrays for all the solves),
the stack of the species with a constant coefficient, and the rates as
0-d arrays for the reaction terms. The stacked species share one grid
and one dt, so a step solves them as one stack (one transform pair and
one stencil residual for all of them); each species with a variable
coefficient is solved alone. A failed solve names its species
and the iterations it made; a failed stack is solved again species by
species to find it.

The explicit reaction part limits dt: steps are kept below 0.5 over a
Lipschitz estimate of the reaction Jacobian built from the current field
maxima, and an adaptive run halves dt and retries whenever a step still
produces a negative value beyond tolerance.

Positivity is a monitored invariant, not an enforced one: values are
never clipped. A component below -1e-12 times the species sup-norm
aborts the run with the offending species, cell, and time, which almost
always means the explicit part outran its stability bound. Every state
is checked once, when it is produced: the initial state by
``build_initial`` (nonnegative and finite), every later one by the step
that computes it, with one minimum over the whole state and one maximum
per species (the per-species minima too only when some cell is
negative). The sup-norms of that check stay with the state and set the
next step's dt bound, so each state is reduced once.

One generator owns time: ``_drive`` yields the initial state and every
accepted step's state, each with its dt and the number of snapshot times
it lands on. It alone bounds dt, retries a step that fails positivity,
clips each step to the next pending snapshot time and the last one to
t_end, and ends the run; ``simulate`` is a plain loop over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .grid import (Grid, CoefficientField, ScalarField, neumann_modes, mode_profile,
                   project_mode, _CSV_BLOCK, _cells_csv)
from .model import ModelParams, check_regime, _rate_arrays, _rhs_terms

__all__ = [
    "SPECIES",
    "StateField",
    "ConstantInit",
    "BumpInit",
    "ModeInit",
    "RandomInit",
    "SimConfig",
    "Trajectory",
    "PositivityError",
    "CGError",
    "stability_dt",
    "step",
    "simulate",
]

SPECIES = ("S", "I", "R", "B")

# Negative undershoot tolerance, relative to each species' sup-norm.
POSITIVITY_RTOL = 1e-12

# CG is driven well past the 1e-10 contract so that truncation noise
# stays far below the positivity tolerance.
CG_RTOL = 1e-13

# Relative slack for the monotone-mass check in the damped regime.
MASS_RTOL = 1e-10

_MIN_DT_FRACTION = 1e-9


class PositivityError(RuntimeError):
    """A species went negative beyond tolerance (dt too large)."""

    def __init__(self, species: str, cell, value: float, time: float):
        self.species = species
        self.cell = tuple(int(c) for c in np.atleast_1d(cell))
        self.value = float(value)
        self.time = float(time)
        super().__init__(
            f"species {species} fell to {value:.6e} at cell {self.cell} "
            f"(t = {time:.6g}); the explicit reaction step is too large, "
            f"reduce dt or enable the adaptive driver"
        )


class CGError(RuntimeError):
    """The implicit diffusion solve failed to converge."""


@dataclass
class StateField:
    """All four species on one grid at one time.

    A state that ``step`` returns carries the sup-norms its positivity
    check took, and ``sup_norms`` returns them without reducing the
    field again; its values are read-only, so the two cannot drift apart
    (``copy`` gives a writable state). Any other state reduces its values
    on each ``sup_norms`` call.
    """

    grid: Grid
    values: np.ndarray
    t: float = 0.0
    _sup_norms: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        expect = (4,) + self.grid.shape
        if arr.shape != expect:
            raise ValueError(f"state shape {arr.shape} does not match {expect}")
        self.values = arr

    @classmethod
    def constant(cls, grid: Grid, z, t: float = 0.0) -> "StateField":
        z = np.asarray(z, dtype=float).reshape(4)
        vals = np.empty((4,) + grid.shape)
        for k in range(4):
            vals[k] = z[k]
        return cls(grid, vals, t)

    def component(self, k: int) -> ScalarField:
        return ScalarField(self.grid, self.values[k])

    def sup_norms(self) -> np.ndarray:
        return np.array(self._sup_list())

    def _sup_list(self) -> list:
        """The four sup-norms as floats: the cached list, or one reduction."""
        if self._sup_norms is not None:
            return self._sup_norms
        return _extremes(self.values)[1]

    def copy(self) -> "StateField":
        return StateField(self.grid, self.values.copy(), self.t)


def _extremes(values: np.ndarray) -> tuple:
    """Per-species minima and sup-norms of a (4, ...) array, as floats.

    Returns (minima, sup-norms), with the minima None when no cell is
    negative. One global minimum and one per-species maximum settle that
    usual case: every u_k is then >= 0, so max |u_k| = |max u_k| exactly,
    ``-0.0`` included. Otherwise (a negative cell, or a NaN) the
    per-species minima are taken too, and max |u_k| = max(|min|, |max|).
    No temporary of the field's size is made, and either way the
    sup-norms are the floats np.max(np.abs(u_k)) gives.
    """
    flat = values.reshape(4, -1)
    high = flat.max(axis=1).tolist()
    if flat.min() >= 0.0:
        return None, [abs(hi) for hi in high]
    low = flat.min(axis=1).tolist()
    return low, [max(abs(lo), abs(hi)) for lo, hi in zip(low, high)]


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

def _validate_initial(vals: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what}: initial data must be finite")
    if np.min(vals) < 0.0:
        raise ValueError(f"{what}: initial data must be nonnegative "
                         f"(min {float(np.min(vals))!r})")


@dataclass(frozen=True)
class ConstantInit:
    """Spatially uniform start."""

    values: tuple

    def build(self, grid: Grid) -> StateField:
        state = StateField.constant(grid, self.values)
        _validate_initial(state.values, "constant initial")
        return state


@dataclass(frozen=True)
class BumpInit:
    """Uniform background plus a Gaussian bump per species."""

    base: tuple
    amplitude: tuple
    center: tuple | None = None
    width: float | None = None

    def build(self, grid: Grid) -> StateField:
        center = tuple(0.5 * L for L in grid.lengths) if self.center is None else self.center
        width = 0.2 * min(grid.lengths) if self.width is None else self.width
        bump = grid.gaussian(center, width)
        vals = np.empty((4,) + grid.shape)
        for k in range(4):
            vals[k] = float(self.base[k]) + float(self.amplitude[k]) * bump
        _validate_initial(vals, "bump initial")
        return StateField(grid, vals)


@dataclass(frozen=True)
class ModeInit:
    """A steady state (or any constant) plus one cosine mode.

    u_k = base_k + epsilon * weight_k * phi_j(x), with phi_j the
    normalized eigenfunction of mode j in the grid's spectrum.
    """

    base: tuple
    epsilon: float
    mode: int
    weights: tuple = (1.0, 1.0, 1.0, 1.0)

    def build(self, grid: Grid) -> StateField:
        spectrum = neumann_modes(grid, self.mode + 1)
        phi = mode_profile(grid, spectrum[self.mode])
        vals = np.empty((4,) + grid.shape)
        for k in range(4):
            vals[k] = float(self.base[k]) + self.epsilon * float(self.weights[k]) * phi
        _validate_initial(vals, "mode-perturbed initial")
        return StateField(grid, vals)


@dataclass(frozen=True)
class RandomInit:
    """Independent uniform cell values in [low_k, high_k] per species."""

    low: tuple
    high: tuple
    seed: int = 0

    def build(self, grid: Grid) -> StateField:
        rng = np.random.default_rng(self.seed)
        vals = np.empty((4,) + grid.shape)
        for k in range(4):
            lo, hi = float(self.low[k]), float(self.high[k])
            if lo < 0.0 or hi < lo:
                raise ValueError(f"random initial: need 0 <= low <= high, "
                                 f"got [{lo}, {hi}] for {SPECIES[k]}")
            vals[k] = rng.uniform(lo, hi, size=grid.shape)
        _validate_initial(vals, "random initial")
        return StateField(grid, vals)


# ---------------------------------------------------------------------------
# Configuration and trajectory records
# ---------------------------------------------------------------------------

@dataclass
class SimConfig:
    """Everything one run needs.

    dt=None runs fully adaptive from the reaction Lipschitz bound;
    a given dt acts as a cap when adaptive=True and as a hard fixed
    step when adaptive=False.
    """

    grid: Grid
    params: ModelParams
    coefficients: tuple
    initial: object
    t_end: float
    dt: float | None = None
    adaptive: bool = True
    record_every: int = 1
    record_modes: tuple = ()
    snapshot_times: tuple = ()

    def __post_init__(self):
        if len(self.coefficients) != 4:
            raise ValueError("need exactly 4 diffusion coefficients")
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.dt is not None and not (0.0 < self.dt <= self.t_end):
            raise ValueError(f"dt must lie in (0, t_end], got {self.dt}")
        if self.dt is None and not self.adaptive:
            raise ValueError("fixed-step runs must specify dt")
        if int(self.record_every) < 1:
            raise ValueError("record_every must be >= 1")
        self.record_every = int(self.record_every)
        self.record_modes = tuple(int(j) for j in self.record_modes)
        if any(j < 0 for j in self.record_modes):
            raise ValueError("recorded mode indices must be >= 0")
        if len(set(self.record_modes)) < len(self.record_modes):
            raise ValueError("recorded mode indices must be distinct")
        self.snapshot_times = tuple(float(t) for t in self.snapshot_times)
        if any(t < 0.0 or t > self.t_end for t in self.snapshot_times):
            raise ValueError("snapshot times must lie in [0, t_end]")

    def build_initial(self) -> StateField:
        if isinstance(self.initial, StateField):
            if self.initial.grid != self.grid:
                raise ValueError("initial state lives on a different grid")
            _validate_initial(self.initial.values, "initial state")
            return self.initial.copy()
        return self.initial.build(self.grid)


@dataclass
class Trajectory:
    """Sampled diagnostics of one run."""

    config: SimConfig
    times: list = field(default_factory=list)
    sup: dict = field(default_factory=lambda: {s: [] for s in SPECIES})
    l1: dict = field(default_factory=lambda: {s: [] for s in SPECIES})
    mass: list = field(default_factory=list)
    amplitudes: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    steps: int = 0
    final: StateField | None = None

    def columns(self) -> list:
        cols = ["time"]
        cols += [f"sup_{s}" for s in SPECIES]
        cols += [f"l1_{s}" for s in SPECIES]
        cols += ["mass_sir"]
        for j in self.config.record_modes:
            cols += [f"amp_{s}_m{j}" for s in SPECIES]
        return cols

    def to_csv(self) -> str:
        lines = [",".join(self.columns())]
        for k, t in enumerate(self.times):
            row = [repr(t)]
            row += [repr(self.sup[s][k]) for s in SPECIES]
            row += [repr(self.l1[s][k]) for s in SPECIES]
            row.append(repr(self.mass[k]))
            for j in self.config.record_modes:
                row += [repr(self.amplitudes[(s, j)][k]) for s in SPECIES]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def snapshot_csv(self, index: int) -> str:
        state = self.snapshots[index][1]
        return _cells_csv(state.grid, SPECIES, state.values, _CSV_BLOCK)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def stability_dt(state: StateField, p: ModelParams) -> float:
    """Half the inverse Lipschitz estimate of the reaction Jacobian.

    Row sums of |df/du| are bounded using the current field maxima;
    h1 <= 1 and h1' <= 1/k2 bound the ingestion terms.
    """
    smax, imax, _, bmax = state._sup_list()  # floats, so dt and t stay floats
    trans = p.beta1 * imax + p.beta2 + p.beta1 * smax + p.beta2 * smax / p.k2
    l1 = p.b0 * (1.0 + 2.0 * smax / p.k1) + p.d1 + p.sigma + trans
    l2 = (p.d2 + p.gamma) + trans
    l3 = p.gamma + p.d3 + p.sigma
    l4 = p.xi + p.g0 * (1.0 + 2.0 * bmax / p.k3) + p.d4
    return 0.5 / max(l1, l2, l3, l4)


def _check_positivity(values: np.ndarray, time: float) -> list:
    """Raise PositivityError for the first species, in S, I, R, B order,
    whose minimum lies below -POSITIVITY_RTOL times its sup-norm.

    Returns the four sup-norms, as floats, for a state that passes.
    """
    low, scale = _extremes(values)
    if low is not None:  # some cell is negative: is it beyond tolerance?
        for k in range(4):
            if low[k] < -POSITIVITY_RTOL * scale[k]:
                comp = values[k]
                cell = np.unravel_index(int(np.argmin(comp)), comp.shape)
                raise PositivityError(SPECIES[k], cell, low[k], time)
    return scale


@dataclass(frozen=True)
class SolverPlan:
    """The four implicit solves of one run, prepared once by ``_drive``
    before its first state and passed to every ``step`` of the run.

    ``species`` holds each diffusion coefficient as ``kernels`` prepared
    it: whether it is constant, the mean and face weights of a variable
    one, the preconditioner scaling of a ``profile`` one (the only kind
    that is smooth by construction), and the grid's spectrum. They share
    one ``kernels.Scratch``, whose work arrays every solve of the run
    reuses, since the species are solved one at a time. The species with a
    constant coefficient, ``stacked``, share one grid and one dt, so a
    step solves them as one stack, ``stack``; every other species is
    solved alone. ``gather`` indexes the stack in the state: a slice when
    the stacked species are one contiguous run (all four on every shipped
    scenario), so the stack's right-hand sides are a view, not a copy;
    else their list. ``rates`` are the model's rates as 0-d float64
    arrays (``model._rate_arrays``), which the reaction terms multiply
    without converting a Python float each time.
    """

    species: tuple
    stacked: tuple
    stack: kernels.Coefficients | None
    gather: slice | list
    shape: tuple
    spacing: tuple
    maxiter: int
    rates: object


def _solver_plan(cfg: SimConfig) -> SolverPlan:
    """Prepare the run's diffusion coefficients for the implicit solves."""
    hx, hy = kernels.spacing_2d(cfg.grid)
    scratch = kernels.Scratch()  # the species are solved one at a time
    species = tuple(kernels.prepare_coefficient(kernels.as_2d(c.materialize(cfg.grid)), hx, hy,
                                                smooth=c.kind == "profile", scratch=scratch)
                    for c in cfg.coefficients)
    stacked = tuple(k for k, c in enumerate(species) if c.constant)
    stack = kernels.stack_coefficients([species[k] for k in stacked]) if stacked else None
    gather = list(stacked)
    if stacked and stacked[-1] - stacked[0] == len(stacked) - 1:  # one contiguous run
        gather = slice(stacked[0], stacked[-1] + 1)
    return SolverPlan(species, stacked, stack, gather, species[0].lam.shape, (hx, hy),
                      10 * cfg.grid.ncells, _rate_arrays(cfg.params))


def _solve(b, k: int, dt: float, plan: SolverPlan, t: float) -> np.ndarray:
    """Species k alone; raises CGError if its solve misses CG_RTOL."""
    x, iters, relres = kernels.cg_solve(b, plan.species[k], dt, *plan.spacing,
                                        CG_RTOL, plan.maxiter)
    if relres > CG_RTOL:
        raise CGError(
            f"implicit solve for {SPECIES[k]} stalled at relative residual "
            f"{relres:.3e} after {iters} iterations (t = {t:.6g})"
        )
    return x


def step(state: StateField, dt: float, cfg: SimConfig,
         plan: SolverPlan | None = None) -> StateField:
    """One IMEX step. Raises PositivityError if the result undershoots.

    Precondition: ``state`` has already passed the positivity check,
    either as an initial state (``SimConfig.build_initial`` validates it)
    or as the result of the previous step, which this function checks
    before returning it. The entry state is not checked again. The
    reaction terms are evaluated on the raw arrays: any negatives present
    are a few ulp deep and the rate formulas remain well defined there.

    ``_drive`` is the one caller in a run: it passes the run's
    ``SolverPlan`` as ``plan`` and catches the PositivityError to halve
    dt or end the run. Without ``plan`` the plan is built from ``cfg``.
    The species are solved in order, the stack of constant ones at its
    first species, as one ``kernels.cg_solve`` call. If the stack misses
    CG_RTOL, it and every species after it are solved again alone, in
    order, so the CGError names the first species that stalls and the
    iterations its own solve made.

    On small grids a step costs its number of numpy calls, not its bytes
    (about 50 us on the 64 cells of ``turing_point`` on a 2 vCPU VM), so
    it makes no copy it can avoid: the reaction terms read the plan's 0-d
    rates, a contiguous stack is solved from a view of the right-hand
    sides, and when the stack is the whole state the solve's output is
    the new state. The float operations are those of a gathered copy and
    the ``ModelParams`` floats, in the same order, so the bits are too.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if plan is None:
        plan = _solver_plan(cfg)

    rhs = np.array(_rhs_terms(state.values[0], state.values[1],
                              state.values[2], state.values[3], plan.rates))
    rhs *= dt
    rhs += state.values
    rhs = rhs.reshape((4,) + plan.shape)
    new_vals = None if len(plan.stacked) == 4 else np.empty_like(rhs)
    for k in range(4):
        if k not in plan.stacked:
            new_vals[k] = _solve(rhs[k], k, dt, plan, state.t)
        elif k == plan.stacked[0]:
            x, _, relres = kernels.cg_solve(rhs[plan.gather], plan.stack, dt, *plan.spacing,
                                            CG_RTOL, plan.maxiter)
            if relres > CG_RTOL:
                if new_vals is None:
                    new_vals = np.empty_like(rhs)
                for j in range(k, 4):
                    new_vals[j] = _solve(rhs[j], j, dt, plan, state.t)
                break
            if new_vals is None:  # the stack is the whole state
                new_vals = x
            else:
                new_vals[plan.gather] = x

    t_new = state.t + dt
    new_vals = new_vals.reshape(state.values.shape)
    sup_norms = _check_positivity(new_vals, t_new)
    new_vals.flags.writeable = False
    new_state = StateField(state.grid, new_vals, t_new)
    new_state._sup_norms = sup_norms
    return new_state


def _reached(t: float, target: float) -> bool:
    """True once time t is at target, up to the rounding of the steps:
    the one rule for snapshot times and for t_end."""
    return t >= target * (1.0 - 1e-14)


def _drive(cfg: SimConfig):
    """The run's one time loop: yields (state, dt, hits) per state.

    The initial state comes first, with dt 0.0, then one item per
    accepted step, with the dt that produced it. ``hits`` counts the
    snapshot times the state lands on. Each step is clipped to the next
    pending snapshot time and to t_end, and the run ends once t_end is
    reached up to rounding. A step that fails positivity is retried at
    half the dt in an adaptive run, down to ``_MIN_DT_FRACTION * t_end``;
    a fixed-step run re-raises at once. A caller may stop iterating early.
    """
    state = cfg.build_initial()
    plan = _solver_plan(cfg)
    min_dt = _MIN_DT_FRACTION * cfg.t_end
    stops = sorted(cfg.snapshot_times)
    dt = 0.0
    while True:
        hits = 0
        while stops and _reached(state.t, stops[0]):
            stops.pop(0)
            hits += 1
        yield state, dt, hits
        if _reached(state.t, cfg.t_end):
            return
        dt = stability_dt(state, cfg.params) if cfg.adaptive else cfg.dt
        if cfg.dt is not None:
            dt = min(dt, cfg.dt)
        if stops:
            dt = min(dt, stops[0] - state.t)
        dt = min(dt, cfg.t_end - state.t)
        while True:
            try:
                state = step(state, dt, cfg, plan)
                break
            except PositivityError:
                if not cfg.adaptive or 0.5 * dt < min_dt:
                    raise
                dt *= 0.5


def simulate(cfg: SimConfig) -> Trajectory:
    """Run to t_end, sampling diagnostics every record_every steps.

    Samples: per-species sup and L1 norms, host mass (integral of
    S + I + R), and the projected amplitudes of the requested modes.
    The initial and the final state are always sampled. The first
    nonnegativity wobble (any negative cell, necessarily within
    tolerance, otherwise the run aborts) and the first increase of host
    mass while the damped regime d1 > b0, d4 > g0 holds are flagged with
    their timestamps in ``violations``. Snapshots are taken on the
    requested times, where the driver ends a step (a time of 0 takes the
    initial state).
    """
    traj = Trajectory(config=cfg)
    spectrum = None
    if cfg.record_modes:
        spectrum = neumann_modes(cfg.grid, max(cfg.record_modes) + 1)
    damped = check_regime(cfg.params, "damped").all_satisfied
    for j in cfg.record_modes:
        for s in SPECIES:
            traj.amplitudes[(s, j)] = []

    def record(state: StateField) -> None:
        traj.times.append(state.t)
        cellvol = cfg.grid.cell_volume
        sup = state._sup_list()
        for k, s in enumerate(SPECIES):
            traj.sup[s].append(sup[k])
            traj.l1[s].append(float(np.sum(np.abs(state.values[k])) * cellvol))
        mass = float(np.sum(state.values[0] + state.values[1] + state.values[2])
                     * cellvol)
        traj.mass.append(mass)
        for j in cfg.record_modes:
            for k, s in enumerate(SPECIES):
                amp = project_mode(state.component(k), j, spectrum)
                traj.amplitudes[(s, j)].append(amp)
        minval = float(np.min(state.values))
        if minval < 0.0 and not any(v["kind"] == "negativity" for v in traj.violations):
            traj.violations.append(
                {"kind": "negativity", "time": state.t, "value": minval})
        if damped and len(traj.mass) >= 2:
            prev = traj.mass[-2]
            if mass > prev * (1.0 + MASS_RTOL) and not any(
                    v["kind"] == "mass_increase" for v in traj.violations):
                traj.violations.append(
                    {"kind": "mass_increase", "time": state.t,
                     "value": mass, "previous": prev})

    for n, (state, _, hits) in enumerate(_drive(cfg)):
        if hits:
            traj.snapshots += [(state.t, state.copy()) for _ in range(hits)]
        if n % cfg.record_every == 0:
            record(state)
    if n % cfg.record_every != 0:
        record(state)
    traj.steps = n
    traj.final = state
    return traj

