"""Time integration: implicit diffusion, explicit reactions.

One step from t to t + dt treats diffusion implicitly (backward Euler,
unconditionally stable) and the reactions explicitly:

    (I - dt * D_i) u_i(t+dt) = u_i(t) + dt * f_i(U(t)),   i = 1..4.

Each implicit solve is a symmetric positive definite system handled by
conjugate gradients preconditioned with the exact DCT solve at the mean
coefficient (see kernels): one iteration for a constant coefficient, a
few dozen for a smoothly varying one. The explicit reaction
part limits dt: steps are kept below 0.5 over a Lipschitz estimate of
the reaction Jacobian built from the current field maxima, and the
adaptive driver halves dt and retries whenever a step still produces a
negative value beyond tolerance.

Positivity is a monitored invariant, not an enforced one: values are
never clipped. A component below -1e-12 times the species sup-norm
aborts the run with the offending species, cell, and time, which almost
always means the explicit part outran its stability bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .grid import Grid, CoefficientField, ScalarField, neumann_modes, mode_profile, project_mode
from .model import ModelParams, check_regime, _rhs_terms

__all__ = [
    "SPECIES",
    "StateField",
    "ConstantInit",
    "BumpInit",
    "ModeInit",
    "RandomInit",
    "SimConfig",
    "Trajectory",
    "RelaxResult",
    "PositivityError",
    "CGError",
    "stability_dt",
    "step",
    "simulate",
    "relax_to_steady",
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
    """All four species on one grid at one time."""

    grid: Grid
    values: np.ndarray
    t: float = 0.0

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
        return np.array([np.max(np.abs(self.values[k])) for k in range(4)])

    def copy(self) -> "StateField":
        return StateField(self.grid, self.values.copy(), self.t)


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

def _validate_initial(vals: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what}: initial data must be finite")
    if np.min(vals) < 0.0:
        raise ValueError(f"{what}: initial data must be nonnegative "
                         f"(min {np.min(vals)!r})")


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
        center = self.center or tuple(0.5 * L for L in grid.lengths)
        width = self.width or 0.2 * min(grid.lengths)
        coords = grid.meshgrid()
        r2 = np.zeros(grid.shape)
        for c, x0 in zip(coords, center):
            r2 = r2 + (c - float(x0)) ** 2
        bump = np.exp(-r2 / float(width) ** 2)
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
    name: str = "run"

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
        t, state = self.snapshots[index]
        grid = state.grid
        header = ["x", "y"][: grid.dim] + list(SPECIES)
        coords = [c.ravel() for c in grid.meshgrid()]
        comps = [state.values[k].ravel() for k in range(4)]
        lines = [",".join(header)]
        for c in range(grid.ncells):
            vals = [coords[a][c] for a in range(grid.dim)]
            vals += [comps[k][c] for k in range(4)]
            lines.append(",".join(repr(float(v)) for v in vals))
        return "\n".join(lines) + "\n"


@dataclass
class RelaxResult:
    state: StateField
    converged: bool
    rate: float


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def stability_dt(state: StateField, p: ModelParams) -> float:
    """Half the inverse Lipschitz estimate of the reaction Jacobian.

    Row sums of |df/du| are bounded using the current field maxima;
    h1 <= 1 and h1' <= 1/k2 bound the ingestion terms.
    """
    smax, imax, _, bmax = state.sup_norms()
    trans = p.beta1 * imax + p.beta2 + p.beta1 * smax + p.beta2 * smax / p.k2
    l1 = p.b0 * (1.0 + 2.0 * smax / p.k1) + p.d1 + p.sigma + trans
    l2 = (p.d2 + p.gamma) + trans
    l3 = p.gamma + p.d3 + p.sigma
    l4 = p.xi + p.g0 * (1.0 + 2.0 * bmax / p.k3) + p.d4
    return 0.5 / max(l1, l2, l3, l4)


def _check_positivity(values: np.ndarray, time: float) -> None:
    for k in range(4):
        comp = values[k]
        scale = float(np.max(np.abs(comp)))
        low = float(np.min(comp))
        if low < -POSITIVITY_RTOL * scale:
            cell = np.unravel_index(int(np.argmin(comp)), comp.shape)
            raise PositivityError(SPECIES[k], cell, low, time)


def step(state: StateField, dt: float, cfg: SimConfig,
         coeff_arrays=None) -> StateField:
    """One IMEX step. Raises PositivityError if the result undershoots.

    The reaction terms are evaluated on the raw arrays: entry states
    are tolerance-checked, so any negatives present are a few ulp deep
    and the rate formulas remain well defined there.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    grid = state.grid
    _check_positivity(state.values, state.t)
    if coeff_arrays is None:
        coeff_arrays = tuple(c.materialize(grid) for c in cfg.coefficients)

    f = _rhs_terms(state.values[0], state.values[1],
                   state.values[2], state.values[3], cfg.params)
    hx, hy = kernels.spacing_2d(grid)
    maxiter = 10 * grid.ncells
    new_vals = np.empty_like(state.values)
    for k in range(4):
        rhs = state.values[k] + dt * f[k]
        x, _, relres = kernels.cg_solve(
            kernels.as_2d(rhs), kernels.as_2d(coeff_arrays[k]),
            dt, hx, hy, CG_RTOL, maxiter)
        if relres > CG_RTOL:
            raise CGError(
                f"implicit solve for {SPECIES[k]} stalled at relative residual "
                f"{relres:.3e} after {maxiter} iterations (t = {state.t:.6g})"
            )
        new_vals[k] = x.reshape(grid.shape)

    t_new = state.t + dt
    _check_positivity(new_vals, t_new)
    return StateField(grid, new_vals, t_new)


def _drive(cfg: SimConfig, on_state, on_step=None):
    """Shared time loop; calls on_state(prev, state) after each step.

    on_state may return False to stop early.
    """
    state = cfg.build_initial()
    coeff_arrays = tuple(c.materialize(cfg.grid) for c in cfg.coefficients)
    min_dt = _MIN_DT_FRACTION * cfg.t_end
    if on_step is None:
        on_step = lambda *_: None

    on_state(None, state)
    nsteps = 0
    while state.t < cfg.t_end * (1.0 - 1e-14):
        dt = stability_dt(state, cfg.params) if cfg.adaptive else cfg.dt
        if cfg.dt is not None:
            dt = min(dt, cfg.dt)
        dt = min(dt, cfg.t_end - state.t)
        if cfg.adaptive:
            while True:
                try:
                    new_state = step(state, dt, cfg, coeff_arrays)
                    break
                except PositivityError:
                    dt *= 0.5
                    if dt < min_dt:
                        raise
        else:
            new_state = step(state, dt, cfg, coeff_arrays)
        nsteps += 1
        on_step(state, new_state, dt)
        keep_going = on_state(state, new_state)
        state = new_state
        if keep_going is False:
            break
    return state, nsteps


def simulate(cfg: SimConfig) -> Trajectory:
    """Run to t_end, sampling diagnostics every record_every steps.

    Samples: per-species sup and L1 norms, host mass (integral of
    S + I + R), and the projected amplitudes of the requested modes.
    The first nonnegativity wobble (any negative cell, necessarily
    within tolerance, otherwise the run aborts) and the first increase
    of host mass while the damped regime d1 > b0, d4 > g0 holds are
    flagged with their timestamps in ``violations``.
    """
    traj = Trajectory(config=cfg)
    spectrum = None
    if cfg.record_modes:
        spectrum = neumann_modes(cfg.grid, max(cfg.record_modes) + 1)
    damped = check_regime(cfg.params, "damped").all_satisfied
    for j in cfg.record_modes:
        for s in SPECIES:
            traj.amplitudes[(s, j)] = []
    pending_snapshots = sorted(cfg.snapshot_times)
    counter = {"n": 0}

    def record(state: StateField) -> None:
        traj.times.append(state.t)
        cellvol = cfg.grid.cell_volume
        for k, s in enumerate(SPECIES):
            comp = state.values[k]
            traj.sup[s].append(float(np.max(np.abs(comp))))
            traj.l1[s].append(float(np.sum(np.abs(comp)) * cellvol))
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

    def on_state(prev, state):
        if prev is None:
            record(state)
            return
        counter["n"] += 1
        while pending_snapshots and state.t >= pending_snapshots[0] * (1.0 - 1e-12):
            traj.snapshots.append((state.t, state.copy()))
            pending_snapshots.pop(0)
        if counter["n"] % cfg.record_every == 0 or state.t >= cfg.t_end * (1.0 - 1e-14):
            record(state)

    final, nsteps = _drive(cfg, on_state)
    traj.steps = nsteps
    traj.final = final
    if traj.times[-1] != final.t:
        record(final)
    return traj


def relax_to_steady(cfg: SimConfig, tol: float) -> RelaxResult:
    """Integrate until the state stops moving or t_end arrives.

    The convergence measure is the max over species of the sup-norm
    change per unit time across one step.
    """
    rate = {"value": math.inf}

    def on_step(prev, state, dt):
        diff = np.max(np.abs(state.values - prev.values))
        rate["value"] = float(diff) / dt

    def on_state(prev, state):
        if prev is None:
            return
        if rate["value"] <= tol:
            return False

    final, _ = _drive(cfg, on_state, on_step)
    return RelaxResult(final, rate["value"] <= tol, rate["value"])
