"""Time stepping: IMEX scheme, diagnostics, invariants, relaxation."""

import math
import pathlib

import numpy as np
import pytest

from sirblab import integrator
from sirblab.grid import CoefficientField, Grid, neumann_modes, project_mode
from sirblab.integrator import (
    POSITIVITY_RTOL,
    SPECIES,
    BumpInit,
    ConstantInit,
    ModeInit,
    PositivityError,
    RandomInit,
    SimConfig,
    StateField,
    simulate,
    stability_dt,
    step,
)
from sirblab.model import ModelParams, reaction_rhs
from sirblab.scenario import build_sim_config, load_json
from sirblab.steady import solve_endemic, trivial_states

from common import make_params, make_damped

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

GRID = Grid((2.0,), (32,))
COEFFS = tuple(CoefficientField.constant(a) for a in (0.05, 0.05, 0.05, 0.01))

# A regime where the disease-free state is the attractor: bacteria are
# washed out (g0 < d4) and transmission is too weak for endemicity.
STABLE_Z2 = dict(b0=2.0, k1=10.0, beta1=0.1, beta2=0.1, k2=1.0, g0=0.5, k3=6.0,
                 d1=1.0, d2=0.5, d3=0.5, d4=1.0, sigma=0.5, gamma=0.5, xi=0.2)


def _cfg(p, initial, t_end, **kw):
    return SimConfig(GRID, p, COEFFS, initial, t_end, **kw)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    p = make_params()
    init = ConstantInit((1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        _cfg(p, init, t_end=0.0)
    with pytest.raises(ValueError):
        _cfg(p, init, t_end=1.0, dt=2.0)          # dt beyond t_end
    with pytest.raises(ValueError):
        _cfg(p, init, t_end=1.0, adaptive=False)  # fixed step needs dt
    with pytest.raises(ValueError):
        _cfg(p, init, t_end=1.0, record_every=0)
    with pytest.raises(ValueError):
        _cfg(p, init, t_end=1.0, snapshot_times=(2.0,))


def test_config_rejects_a_repeated_record_mode():
    # the amplitudes are kept per (species, mode), so a repeat shared one list
    with pytest.raises(ValueError, match="distinct"):
        _cfg(make_params(), ConstantInit((1.0, 0.0, 0.0, 0.0)), t_end=1.0,
             record_modes=(0, 1, 1))


def test_initial_profiles_reject_negative_data():
    with pytest.raises(ValueError):
        ConstantInit((1.0, -0.1, 0.0, 0.0)).build(GRID)
    with pytest.raises(ValueError):
        BumpInit(base=(0.1, 0.0, 0.0, 0.0),
                 amplitude=(-0.5, 0.0, 0.0, 0.0)).build(GRID)
    with pytest.raises(ValueError):
        RandomInit(low=(0.5,) * 4, high=(0.1,) * 4).build(GRID)


def test_random_initial_is_seed_deterministic():
    a = RandomInit((0.0,) * 4, (1.0,) * 4, seed=9).build(GRID)
    b = RandomInit((0.0,) * 4, (1.0,) * 4, seed=9).build(GRID)
    c = RandomInit((0.0,) * 4, (1.0,) * 4, seed=10).build(GRID)
    np.testing.assert_array_equal(a.values, b.values)
    assert np.any(a.values != c.values)


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def test_step_dt_bound_scales_with_state():
    p = make_params()
    small = StateField.constant(GRID, [1.0, 0.1, 0.1, 0.1])
    large = StateField.constant(GRID, [50.0, 10.0, 10.0, 30.0])
    assert stability_dt(small, p) > stability_dt(large, p) > 0.0


def test_step_keeps_zero_state_exactly():
    p = make_params()
    state = StateField.constant(GRID, [0.0, 0.0, 0.0, 0.0])
    out = step(state, 0.01, _cfg(p, None, t_end=1.0))
    np.testing.assert_array_equal(out.values, state.values)
    assert out.t == 0.01


def test_step_constant_state_reduces_to_explicit_euler():
    # With no gradients the implicit solve is the identity and a step
    # is exactly one explicit update of the reaction system.
    p = make_params()
    u0 = np.array([1.2, 0.8, 0.4, 2.0])
    state = StateField.constant(GRID, u0)
    dt = 0.02
    out = step(state, dt, _cfg(p, None, t_end=1.0))
    f = reaction_rhs(u0, p)
    expect = u0 + dt * np.array([f.f1, f.f2, f.f3, f.f4])
    for k in range(4):
        np.testing.assert_allclose(out.values[k], expect[k], rtol=1e-14)


def test_step_holds_equilibrium():
    p = make_params()
    z2 = [z for z in trivial_states(p) if z.tag == "Z2"][0]
    state = StateField.constant(GRID, z2.value)
    out = step(state, 0.05, _cfg(p, None, t_end=1.0))
    assert np.max(np.abs(out.values - state.values)) < 1e-12


def test_step_rejects_bad_dt():
    p = make_params()
    state = StateField.constant(GRID, [1.0, 0.0, 0.0, 0.0])
    cfg = _cfg(p, None, t_end=1.0)
    for dt in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            step(state, dt, cfg)


def test_oversized_fixed_step_reports_positivity_failure():
    p = make_params()
    state = StateField.constant(GRID, [0.5, 2.0, 0.2, 1.0])
    dt = 100.0 * stability_dt(state, p)
    cfg = _cfg(p, None, t_end=1000.0)
    with pytest.raises(PositivityError) as err:
        step(state, dt, cfg)
    assert err.value.species in ("S", "I", "R", "B")
    assert err.value.value < 0.0
    assert err.value.time > 0.0


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

def test_equilibrium_run_has_flat_diagnostics():
    p = make_params()
    z3 = [z for z in trivial_states(p) if z.tag == "Z3"][0]
    cfg = _cfg(p, ConstantInit(tuple(z3.value)), t_end=2.0, record_every=3)
    traj = simulate(cfg)
    for series in (traj.sup["B"], traj.l1["B"], traj.mass):
        arr = np.array(series)
        assert np.max(np.abs(arr - arr[0])) < 1e-12 * (1.0 + abs(arr[0]))
    assert traj.violations == []


def test_zero_amplitude_perturbation_stays_put():
    p = make_params()
    z4 = solve_endemic(p)[0]
    cfg = _cfg(p, ModeInit(tuple(z4.value), epsilon=0.0, mode=1), t_end=1.0)
    traj = simulate(cfg)
    dev = np.max(np.abs(traj.final.values - z4.value[:, None]))
    assert dev < 1e-10


def test_trajectory_bookkeeping():
    p = make_params()
    cfg = _cfg(p, ConstantInit((1.0, 0.5, 0.2, 0.5)), t_end=0.5,
               record_every=4, record_modes=(0, 1),
               snapshot_times=(0.25, 0.5))
    traj = simulate(cfg)
    times = np.array(traj.times)
    assert np.all(np.diff(times) > 0.0)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.5, abs=1e-12)
    assert traj.steps >= len(times) - 1

    # every recorded series has one entry per sample
    for s in "SIRB":
        assert len(traj.sup[s]) == len(times)
        assert len(traj.amplitudes[(s, 1)]) == len(times)

    # snapshots land at (or just past) the requested times
    assert len(traj.snapshots) == 2
    for want, (got, state) in zip((0.25, 0.5), traj.snapshots):
        assert got >= want * (1.0 - 1e-12)
        assert got - want < 0.2
        assert state.values.shape == (4,) + GRID.shape

    header = traj.to_csv().splitlines()[0].split(",")
    assert header[0] == "time"
    assert "amp_S_m1" in header and "mass_sir" in header


def test_recorded_amplitudes_match_direct_projection():
    p = make_params()
    z4 = solve_endemic(p)[0]
    cfg = _cfg(p, ModeInit(tuple(z4.value), epsilon=1e-3, mode=2),
               t_end=0.3, record_modes=(0, 2))
    traj = simulate(cfg)
    spectrum = neumann_modes(GRID, 3)
    for k, s in enumerate("SIRB"):
        direct = project_mode(traj.final.component(k), 2, spectrum)
        assert traj.amplitudes[(s, 2)][-1] == direct


def test_damped_regime_decays_monotonically():
    cfg = _cfg(make_damped(), BumpInit(base=(1.0, 0.5, 0.2, 0.5),
                                       amplitude=(0.5, 0.3, 0.1, 0.4)),
               t_end=30.0, record_every=5)
    traj = simulate(cfg)
    assert traj.violations == []
    for s in "SIRB":
        sup = np.array(traj.sup[s])
        k0 = max(1, int(0.01 * len(sup)))
        assert np.all(np.diff(sup[k0:]) <= 1e-10 * sup[0])
    mass = np.array(traj.mass)
    assert np.all(np.diff(mass) <= 1e-10 * mass[0])


def test_adaptive_driver_recovers_from_large_cap():
    # A dt cap far above the stability bound must not abort the run;
    # the driver halves its way down instead.
    p = make_params()
    state0 = [0.5, 2.0, 0.2, 1.0]
    assert stability_dt(StateField.constant(GRID, state0), p) < 0.1
    cfg = _cfg(p, ConstantInit(tuple(state0)), t_end=0.5, dt=0.5, adaptive=True)
    traj = simulate(cfg)
    assert traj.final.t == pytest.approx(0.5, abs=1e-12)
    assert np.min(traj.final.values) >= 0.0


def test_fixed_oversized_step_aborts_run():
    p = make_params()
    cfg = _cfg(p, ConstantInit((0.5, 2.0, 0.2, 1.0)), t_end=10.0,
               dt=2.0, adaptive=False)
    with pytest.raises(PositivityError):
        simulate(cfg)


def _count_steps(monkeypatch):
    calls = []
    original = integrator.step

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(integrator, "step", counting)
    return calls


def test_fixed_step_positivity_failure_is_not_retried(monkeypatch):
    calls = _count_steps(monkeypatch)
    cfg = _cfg(make_params(), ConstantInit((0.5, 2.0, 0.2, 1.0)), t_end=10.0,
               dt=2.0, adaptive=False)
    with pytest.raises(PositivityError):
        simulate(cfg)
    assert calls == [2.0]


# ---------------------------------------------------------------------------
# Relaxation to steady states
# ---------------------------------------------------------------------------

def test_relax_converges_to_stable_disease_free_state():
    p = ModelParams(**STABLE_Z2)
    init = BumpInit(base=(5.0, 0.0, 0.0, 0.0), amplitude=(1e-3,) * 4)
    final = simulate(_cfg(p, init, t_end=60.0)).final
    dev = np.max(np.abs(final.values - np.array([5.0, 0.0, 0.0, 0.0])[:, None]))
    assert dev < 1e-6


def test_run_from_an_exact_equilibrium_stays_on_it_bit_for_bit():
    p = make_params()
    z2 = trivial_states(p)[1]
    assert z2.tag == "Z2" and z2.residual == 0.0
    traj = simulate(_cfg(p, ConstantInit(tuple(z2.value)), t_end=5.0))
    assert traj.steps > 1
    assert np.array_equal(traj.final.values, StateField.constant(GRID, z2.value).values)


# ---------------------------------------------------------------------------
# Reduction to the well-mixed system
# ---------------------------------------------------------------------------

def _rk4(u0, p, t_end, dt):
    def f(u):
        r = reaction_rhs(u, p)
        return np.array([r.f1, r.f2, r.f3, r.f4])

    u = np.asarray(u0, dtype=float).copy()
    steps = int(round(t_end / dt))
    for _ in range(steps):
        k1 = f(u)
        k2 = f(np.clip(u + 0.5 * dt * k1, 0.0, None))
        k3 = f(np.clip(u + 0.5 * dt * k2, 0.0, None))
        k4 = f(np.clip(u + dt * k3, 0.0, None))
        u = u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def test_uniform_run_matches_ode_oracle():
    p = make_params()
    u0 = (1.2, 0.8, 0.4, 2.0)
    small = Grid((1.0,), (8,))
    cfg = SimConfig(small, p, COEFFS, ConstantInit(u0), t_end=1.0,
                    dt=2e-5, adaptive=False, record_every=10 ** 6)
    traj = simulate(cfg)
    got = traj.final.values[:, 0]
    want = _rk4(u0, p, 1.0, 1e-3)
    np.testing.assert_allclose(got, want, rtol=1e-4)


# ---------------------------------------------------------------------------
# Snapshot times
# ---------------------------------------------------------------------------

def test_snapshots_land_on_the_requested_times():
    cfg = build_sim_config(load_json(str(SCENARIOS / "endemic_1d.json")))
    traj = simulate(cfg)
    assert [t for t, _ in traj.snapshots] == [1.0, 2.0]
    for t, state in traj.snapshots:
        assert state.t == t


def test_snapshot_at_time_zero_is_the_initial_state():
    p = make_params()
    init = BumpInit(base=(1.0, 0.5, 0.2, 0.5), amplitude=(0.3, 0.1, 0.0, 0.2))
    traj = simulate(_cfg(p, init, t_end=0.3, snapshot_times=(0.0, 0.1)))
    assert [t for t, _ in traj.snapshots] == [0.0, 0.1]
    assert np.array_equal(traj.snapshots[0][1].values, init.build(GRID).values)


def test_fixed_steps_are_clipped_to_snapshot_times():
    p = make_params()
    cfg = _cfg(p, ConstantInit((1.0, 0.5, 0.2, 0.5)), t_end=0.5,
               dt=0.1, adaptive=False, snapshot_times=(0.25,))
    traj = simulate(cfg)
    assert [t for t, _ in traj.snapshots] == [0.25]
    assert traj.steps == 6  # 0.1, 0.2, 0.25, 0.35, 0.45, 0.5


# ---------------------------------------------------------------------------
# Positivity check: one vectorised pass, once per state
# ---------------------------------------------------------------------------

def _per_species_check(values, time):
    """The per-species scan the vectorised check must agree with."""
    for k in range(4):
        comp = values[k]
        scale = float(np.max(np.abs(comp)))
        low = float(np.min(comp))
        if low < -POSITIVITY_RTOL * scale:
            cell = np.unravel_index(int(np.argmin(comp)), comp.shape)
            raise PositivityError(SPECIES[k], cell, low, time)


def _outcome(check, values):
    try:
        check(values, 0.75)
    except PositivityError as e:
        return (e.species, e.cell, e.value, e.time)
    return None


@pytest.mark.parametrize("shape", [(16,), (6, 5)])
def test_vectorised_positivity_check_matches_per_species_scan(shape):
    rng = np.random.default_rng(5)
    base = rng.uniform(0.1, 2.0, size=(4,) + shape)
    cases = []

    two_bad = base.copy()  # I and B fail; I is named
    two_bad[1].flat[3] = -1e-3
    two_bad[3].flat[0] = -5e-1
    cases.append(two_bad)

    at_bound = base.copy()  # exactly at the bound: passes
    scale = float(np.max(np.abs(at_bound[2])))
    at_bound[2].flat[-1] = -POSITIVITY_RTOL * scale
    cases.append(at_bound)

    past_bound = at_bound.copy()  # one ulp past it: fails
    past_bound[2].flat[-1] = np.nextafter(-POSITIVITY_RTOL * scale, -1.0)
    cases.append(past_bound)

    zero = base.copy()  # an all-zero species passes, signed zeros too
    zero[0] = 0.0
    zero[0].flat[1] = -0.0
    cases.append(zero)

    negative_sup = base.copy()  # the sup-norm sits at a negative cell
    negative_sup[3] = -rng.uniform(0.1, 1.0, size=shape)
    cases.append(negative_sup)

    for _ in range(20):
        noisy = base.copy()
        for k in rng.choice(4, size=rng.integers(0, 4), replace=False):
            noisy[k].flat[rng.integers(noisy[k].size)] = -10.0 ** rng.uniform(-14, -8)
        cases.append(noisy)

    outcomes = []
    for values in cases:
        want = _outcome(_per_species_check, values)
        assert _outcome(integrator._check_positivity, values) == want
        outcomes.append(want)
    assert outcomes[0] == ("I", np.unravel_index(3, shape), -1e-3, 0.75)
    assert outcomes[1] is None and outcomes[2][0] == "R" and outcomes[3] is None
    assert outcomes[4][0] == "B"


def test_sup_norms_equal_per_species_maxima():
    rng = np.random.default_rng(9)
    for shape in ((16,), (6, 5)):
        values = rng.normal(size=(4,) + shape)
        values[2] = -0.0
        state = StateField(Grid((1.0,) * len(shape), shape), values)
        want = [float(np.max(np.abs(values[k]))) for k in range(4)]
        got = state.sup_norms()
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def test_stepped_state_keeps_the_sup_norms_of_its_positivity_check(monkeypatch):
    cfg = _cfg(make_params(), RandomInit((0.5, 0.1, 0.1, 0.2), (1.5, 0.6, 0.4, 1.2), seed=5),
               t_end=1.0)
    out = step(cfg.build_initial(), 0.01, cfg)
    want = [float(np.max(np.abs(out.values[k]))) for k in range(4)]
    reductions = []
    original = integrator._extremes
    monkeypatch.setattr(integrator, "_extremes",
                        lambda values: reductions.append(1) or original(values))
    assert [v.hex() for v in out.sup_norms().tolist()] == [v.hex() for v in want]
    assert stability_dt(out, cfg.params) == stability_dt(out.copy(), cfg.params)
    assert len(reductions) == 1  # the copy reduces; the stepped state does not
    with pytest.raises(ValueError):
        out.values[0, 0] = 1.0
    assert out.copy().values.flags.writeable

def _count_checks(monkeypatch, fail_first=0):
    """Record the time of every positivity check; optionally fail the first ones."""
    calls = []
    original = integrator._check_positivity

    def counting(values, time):
        calls.append((time, values))
        if len(calls) <= fail_first:
            raise PositivityError("S", (0,), -1.0, time)
        original(values, time)

    monkeypatch.setattr(integrator, "_check_positivity", counting)
    return calls


def test_each_state_is_checked_once(monkeypatch):
    p = make_params()
    init = BumpInit(base=(1.0, 0.5, 0.2, 0.5), amplitude=(0.3, 0.1, 0.0, 0.2))
    calls = _count_checks(monkeypatch)
    traj = simulate(_cfg(p, init, t_end=0.5, record_every=2))
    assert traj.steps > 3
    assert len(calls) == traj.steps  # no retries here: one per attempted step
    assert all(t > 0.0 for t, _ in calls)  # never the starting state
    assert calls[-1][0] == traj.final.t
    assert calls[-1][1] is traj.final.values


def test_positivity_retry_halves_dt_and_checks_only_the_new_result(monkeypatch):
    p = make_params()
    init = ConstantInit((1.0, 0.5, 0.2, 0.5))
    state = init.build(GRID)
    dt0 = stability_dt(state, p)
    calls = _count_checks(monkeypatch, fail_first=1)
    traj = simulate(_cfg(p, init, t_end=1.0))
    assert calls[0][0] == dt0
    assert calls[1][0] == 0.5 * dt0
    assert traj.times[1] == 0.5 * dt0
    assert len(calls) == traj.steps + 1  # the rejected attempt is the extra one


# ---------------------------------------------------------------------------
# Implicit solve as seen by the step
# ---------------------------------------------------------------------------

def test_cg_error_reports_the_iterations_the_solve_made(monkeypatch):
    monkeypatch.setattr(integrator.kernels, "cg_solve",
                        lambda b, *args: (b, 3, 1.0))
    state = StateField.constant(GRID, [1.0, 0.5, 0.2, 0.5])
    cfg = _cfg(make_params(), None, t_end=1.0)
    with pytest.raises(integrator.CGError) as e:
        step(state, 0.01, cfg)
    message = str(e.value)
    assert "for S " in message
    assert "after 3 iterations" in message
    assert str(10 * GRID.ncells) not in message  # not the iteration cap


@pytest.mark.parametrize("grid", [Grid((2.0,), (32,)), Grid((2.0, 1.0), (8, 6))])
def test_uniform_start_with_constant_coefficients_stays_uniform(monkeypatch, grid):
    # Diffusion annihilates constants, so every state must stay spatially
    # uniform bit for bit: the implicit solve returns a constant right-hand
    # side unchanged instead of taking a spectral start.
    states = []
    original = integrator.step

    def recording(*args, **kwargs):
        states.append(original(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(integrator, "step", recording)
    cfg = SimConfig(grid, make_params(), COEFFS, ConstantInit((1.0, 0.5, 0.2, 0.5)),
                    t_end=0.5, snapshot_times=(0.25,))
    traj = simulate(cfg)
    assert traj.steps == len(states) > 3
    for state in states + [s for _, s in traj.snapshots]:
        flat = state.values.reshape(4, -1)
        assert np.array_equal(flat.min(axis=1), flat.max(axis=1)), state.t


# ---------------------------------------------------------------------------
# The per-run solver plan and the stacked step
# ---------------------------------------------------------------------------

def _profile_coefficients(grid, constant=(0, 2)):
    """Constant coefficients at `constant`, smooth profiles elsewhere."""
    coeffs = []
    for k, a in enumerate((0.05, 0.04, 0.03, 0.01)):
        if k in constant:
            coeffs.append(CoefficientField.constant(a))
        else:
            coeffs.append(CoefficientField.from_profile(
                "cosine", base=a, amplitude=0.5 * a, modes=[1] * grid.dim))
    return tuple(coeffs)


def test_solver_plan_stacks_the_constant_species():
    plan = integrator._solver_plan(_cfg(make_params(), None, t_end=1.0))
    assert plan.stacked == (0, 1, 2, 3)
    assert plan.stack.scale.ravel().tolist() == [0.05, 0.05, 0.05, 0.01]
    assert plan.shape == (32, 1) and plan.maxiter == 320

    grid = Grid((1.0, 1.0), (12, 10))
    cfg = SimConfig(grid, make_params(), _profile_coefficients(grid), None, t_end=1.0)
    plan = integrator._solver_plan(cfg)
    assert plan.stacked == (0, 2)
    assert plan.stack.scale.ravel().tolist() == [0.05, 0.03]
    assert [c.constant for c in plan.species] == [True, False, True, False]

    cfg = SimConfig(grid, make_params(), _profile_coefficients(grid, constant=()), None,
                    t_end=1.0)
    plan = integrator._solver_plan(cfg)
    assert plan.stacked == () and plan.stack is None


def test_solver_plan_scales_only_profile_coefficients():
    # profiles are smooth by construction; rough per-cell data keeps the
    # unscaled preconditioner
    grid = Grid((1.0, 1.0), (12, 10))
    rng = np.random.default_rng(19)
    coeffs = (CoefficientField.constant(0.05),
              CoefficientField.from_cells(grid, rng.uniform(0.0015, 0.015, grid.shape)),
              CoefficientField.from_profile("cosine", base=0.03, amplitude=0.01, modes=[1, 2]),
              CoefficientField.from_profile("gaussian", base=0.01, amplitude=0.02, width=0.3))
    plan = integrator._solver_plan(SimConfig(grid, make_params(), coeffs, None, t_end=1.0))
    assert [c.constant for c in plan.species] == [True, False, False, False]
    assert [c.scaling is not None for c in plan.species] == [False, False, True, True]
    for k in (2, 3):
        a = plan.species[k].field
        assert np.array_equal(plan.species[k].scaling, (a / plan.species[k].scale) ** -0.25)


def test_solver_plan_shares_one_scratch():
    # The species are solved one at a time, so a run's solves share one set
    # of work arrays; the white-noise and stacked-run tests below compare
    # their steps with solves that make fresh ones.
    grid = Grid((1.0, 1.0), (12, 10))
    plan = integrator._solver_plan(
        SimConfig(grid, make_params(), _profile_coefficients(grid), None, t_end=1.0))
    scratch = plan.stack.scratch
    assert isinstance(scratch, integrator.kernels.Scratch)
    assert all(c.scratch is scratch for c in plan.species)


@pytest.mark.parametrize("grid", [Grid((2.0,), (40,)), Grid((1.0, 1.0), (12, 10))])
def test_white_noise_cells_step_as_raw_field_solves_bit_for_bit(grid):
    rng = np.random.default_rng(23)
    coeffs = tuple(CoefficientField.from_cells(grid, rng.uniform(0.0015, 0.015, grid.shape))
                   for _ in range(4))
    cfg = SimConfig(grid, make_params(), coeffs,
                    RandomInit((0.5, 0.1, 0.1, 0.2), (1.5, 0.6, 0.4, 1.2), seed=7),
                    t_end=0.2, dt=0.02, adaptive=False)
    plan = integrator._solver_plan(cfg)
    assert plan.stacked == () and all(c.scaling is None for c in plan.species)
    planned = apart = cfg.build_initial()
    for _ in range(5):
        planned = step(planned, cfg.dt, cfg, plan)
        apart = _step_per_species(apart, cfg.dt, cfg)
        assert planned.t == apart.t
        assert np.array_equal(planned.values, apart.values)


def test_step_with_a_plan_prepares_nothing(monkeypatch):
    # The constant test, face weights and means are taken once per run.
    grid = Grid((1.0, 1.0), (12, 10))
    cfg = SimConfig(grid, make_params(), _profile_coefficients(grid),
                    RandomInit((0.5, 0.1, 0.1, 0.2), (1.5, 0.6, 0.4, 1.2), seed=3),
                    t_end=1.0)
    plan = integrator._solver_plan(cfg)

    def forbidden(*args, **kwargs):
        raise AssertionError("prepared a coefficient inside a step")

    monkeypatch.setattr(integrator.kernels, "prepare_coefficient", forbidden)
    out = step(cfg.build_initial(), 0.01, cfg, plan)
    assert out.t == 0.01


def _step_per_species(state, dt, cfg):
    """One IMEX step with every species solved alone by cg_solve on its raw field."""
    kern = integrator.kernels
    hx, hy = kern.spacing_2d(state.grid)
    f = integrator._rhs_terms(*state.values, cfg.params)
    new_vals = np.empty_like(state.values)
    for k in range(4):
        a = kern.as_2d(cfg.coefficients[k].materialize(state.grid))
        x, _, relres = kern.cg_solve(kern.as_2d(state.values[k] + dt * f[k]), a, dt, hx, hy,
                                     integrator.CG_RTOL, 10 * state.grid.ncells)
        assert relres <= integrator.CG_RTOL
        new_vals[k] = x.reshape(state.grid.shape)
    return StateField(state.grid, new_vals, state.t + dt)


@pytest.mark.parametrize("grid", [Grid((2.0,), (40,)), Grid((1.0, 1.0), (12, 10))])
def test_stacked_run_matches_per_species_solves(grid):
    # Constant species 0 and 2 as one stack, variable 1 and 3 alone, against
    # a run that solves every species alone with cg_solve.
    cfg = SimConfig(grid, make_params(), _profile_coefficients(grid),
                    RandomInit((0.5, 0.1, 0.1, 0.2), (1.5, 0.6, 0.4, 1.2), seed=5),
                    t_end=0.2, dt=0.02, adaptive=False)
    plan = integrator._solver_plan(cfg)
    assert plan.stacked == (0, 2)
    stacked = apart = cfg.build_initial()
    n = 0
    while stacked.t < cfg.t_end * (1.0 - 1e-12):
        stacked = step(stacked, cfg.dt, cfg, plan)
        apart = _step_per_species(apart, cfg.dt, cfg)
        n += 1
        for k in range(4):
            scale = np.max(np.abs(apart.values[k]))
            assert np.max(np.abs(stacked.values[k] - apart.values[k])) <= \
                n * integrator.CG_RTOL * scale
    assert n == 10


def test_cg_error_names_the_first_stalled_species_of_a_stack(monkeypatch):
    # The stack misses CG_RTOL; solved alone, S and I converge and R (the
    # third member) stalls after 7 iterations.
    original = integrator.kernels.cg_solve
    calls = []

    def failing(b, *args):
        calls.append(b.shape)
        if b.ndim == 3:
            return b, 2, 1.0
        if len(calls) == 4:
            return b, 7, 0.5
        return original(b, *args)

    monkeypatch.setattr(integrator.kernels, "cg_solve", failing)
    state = StateField.constant(GRID, [1.0, 0.5, 0.2, 0.5])
    state.values[:, 3] *= 1.5
    with pytest.raises(integrator.CGError) as e:
        step(state, 0.01, _cfg(make_params(), None, t_end=1.0))
    assert calls == [(4, 32, 1), (32, 1), (32, 1), (32, 1)]
    assert "for R " in str(e.value) and "after 7 iterations" in str(e.value)


def test_cg_error_after_a_failed_stack_keeps_the_species_order(monkeypatch):
    # Stack (S, R) misses CG_RTOL; solved again in species order, S
    # converges and I, before R, stalls: the error names I.
    grid = Grid((1.0, 1.0), (12, 10))
    cfg = SimConfig(grid, make_params(), _profile_coefficients(grid),
                    RandomInit((0.5, 0.1, 0.1, 0.2), (1.5, 0.6, 0.4, 1.2), seed=3),
                    t_end=1.0)
    original = integrator.kernels.cg_solve
    calls = []

    def failing(b, *args):
        calls.append(b.shape)
        if b.ndim == 3:
            return b, 2, 1.0
        if len(calls) == 2:
            return original(b, *args)
        return b, 5, 0.5

    monkeypatch.setattr(integrator.kernels, "cg_solve", failing)
    with pytest.raises(integrator.CGError, match="for I .* after 5 iterations"):
        step(cfg.build_initial(), 0.01, cfg)
    assert calls == [(2, 12, 10), (12, 10), (12, 10)]


def test_a_species_solved_alone_that_stalls_is_solved_once(monkeypatch):
    grid = Grid((1.0, 1.0), (12, 10))
    cfg = SimConfig(grid, make_params(), _profile_coefficients(grid, constant=(0, 2, 3)),
                    RandomInit((0.5, 0.1, 0.1, 0.2), (1.5, 0.6, 0.4, 1.2), seed=3),
                    t_end=1.0)
    original = integrator.kernels.cg_solve
    variable_calls = []

    def stalling(b, a, *args):
        if a.constant:
            return original(b, a, *args)
        variable_calls.append(b.shape)
        return b, 4, 0.5

    monkeypatch.setattr(integrator.kernels, "cg_solve", stalling)
    with pytest.raises(integrator.CGError, match="for I .* after 4 iterations"):
        step(cfg.build_initial(), 0.01, cfg)
    assert variable_calls == [(12, 10)]


def test_stack_failure_that_does_not_recur_alone_keeps_the_per_species_solves(monkeypatch):
    original = integrator.kernels.cg_solve
    cfg = _cfg(make_params(), None, t_end=1.0)
    state = StateField.constant(GRID, [1.0, 0.5, 0.2, 0.5])
    state.values[:, 3] *= 1.5
    want = [original(integrator.kernels.as_2d(r), np.full((32, 1), a), 0.01,
                     GRID.spacing[0], 1.0, integrator.CG_RTOL, 320)[0].ravel()
            for r, a in zip(state.values + 0.01 * np.array(integrator._rhs_terms(
                *state.values, cfg.params)), (0.05, 0.05, 0.05, 0.01))]
    monkeypatch.setattr(integrator.kernels, "cg_solve",
                        lambda b, *args: (b, 2, 1.0) if b.ndim == 3 else original(b, *args))
    out = step(state, 0.01, cfg)
    assert np.array_equal(out.values, np.array(want))


def _reference_constant_step(state, dt, cfg):
    """One step by the float operations the stacked step must keep: the
    ModelParams floats, rhs*dt + values, and one cg_solve on a gathered copy."""
    kern = integrator.kernels
    plan = integrator._solver_plan(cfg)
    rhs = np.array(integrator._rhs_terms(*state.values, cfg.params)) * dt + state.values
    gathered = rhs.reshape((4,) + plan.shape)[list(plan.stacked)]
    x, _, relres = kern.cg_solve(gathered, plan.stack, dt, *plan.spacing,
                                 integrator.CG_RTOL, plan.maxiter)
    assert relres <= integrator.CG_RTOL
    return x.reshape(state.values.shape)


def _constant_cfg(grid):
    coeffs = tuple(CoefficientField.constant(a) for a in (0.05, 0.03, 0.05, 0.01))
    return SimConfig(grid, make_params(), coeffs,
                     RandomInit((0.5, 0.1, 0.1, 0.2), (1.5, 0.6, 0.4, 1.2), seed=11),
                     t_end=1.0)


@pytest.mark.parametrize("cfg", [
    _constant_cfg(Grid((2.0,), (64,))),
    _constant_cfg(Grid((1.0, 1.0), (12, 10))),
    build_sim_config(load_json(str(SCENARIOS / "turing_point.json"))),
], ids=["1d", "2d", "turing_point"])
def test_constant_step_keeps_the_bits_of_a_gathered_solve(cfg):
    plan = integrator._solver_plan(cfg)
    assert plan.stacked == (0, 1, 2, 3) and plan.gather == slice(0, 4)
    state = cfg.build_initial()
    for _ in range(6):
        dt = stability_dt(state, cfg.params)
        want = _reference_constant_step(state, dt, cfg)
        new = step(state, dt, cfg, plan)
        assert new.values.tobytes() == want.tobytes()
        assert not np.shares_memory(new.values, state.values)
        state = new


def test_plan_gathers_a_contiguous_stack_as_a_slice():
    grid = Grid((1.0, 1.0), (12, 10))
    for constant, gather in (((1, 2), slice(1, 3)), ((2,), slice(2, 3)), ((0, 2), [0, 2])):
        cfg = SimConfig(grid, make_params(), _profile_coefficients(grid, constant), None,
                        t_end=1.0)
        assert integrator._solver_plan(cfg).gather == gather


def test_rhs_terms_on_the_plan_rates_keep_the_bits_of_the_float_rates():
    cfg = build_sim_config(load_json(str(SCENARIOS / "turing_point.json")))
    rates = integrator._solver_plan(cfg).rates
    for name in vars(cfg.params):
        value = getattr(rates, name)
        assert value.shape == () and value.dtype == np.float64
        assert not value.flags.writeable and float(value) == getattr(cfg.params, name)
    values = cfg.build_initial().values.copy()
    values[1, 5] = -3.0 * np.spacing(np.max(values[1]))  # a few ulp below zero
    values[2, 9] = -0.0
    values[3, 7] = -5e-324
    want = integrator._rhs_terms(*values, cfg.params)
    got = integrator._rhs_terms(*values, rates)
    for w, g in zip(want, got):
        assert g.dtype == np.float64 and g.tobytes() == w.tobytes()


def test_sup_norms_of_negative_zero_and_of_a_tolerated_negative_cell_are_exact():
    rng = np.random.default_rng(4)
    grid = Grid((1.0, 1.0), (6, 5))
    nonneg = rng.uniform(0.0, 2.0, size=(4, 6, 5))
    nonneg[2] = -0.0
    tolerated = nonneg.copy()
    tolerated[1, 2, 3] = -0.5 * POSITIVITY_RTOL * np.max(tolerated[1])
    assert integrator._extremes(nonneg)[0] is None  # the one-minimum path
    assert integrator._extremes(tolerated)[0] is not None  # the per-species path
    for values in (nonneg, tolerated):
        want = [float(np.max(np.abs(values[k]))).hex() for k in range(4)]
        assert [v.hex() for v in StateField(grid, values).sup_norms().tolist()] == want
        assert [v.hex() for v in integrator._check_positivity(values, 0.0)] == want
    assert want[2] == "0x0.0p+0"


# ---------------------------------------------------------------------------
# Snapshot CSV
# ---------------------------------------------------------------------------

def _snapshot_csv_per_cell(traj, index):
    """The per-cell formula the snapshot writer must reproduce byte for byte."""
    t, state = traj.snapshots[index]
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


@pytest.mark.parametrize("block", [4, 7, 1024])
@pytest.mark.parametrize("grid", [Grid((2.0,), (7,)), Grid((0.3, 1.0), (5, 3)),
                                  Grid((0.7, 2.0), (3, 10))])
def test_snapshot_csv_matches_the_per_cell_formula(monkeypatch, grid, block):
    monkeypatch.setattr(integrator, "_CSV_BLOCK", block)
    rng = np.random.default_rng(79)
    values = rng.uniform(0.0, 2.0, (4,) + grid.shape)
    flat = values.reshape(4, -1)
    flat[0, 0] = -0.0
    flat[1, 1] = 5e-324
    flat[2, 2] = 1e-300
    flat[3, 3] = -2.5e-17
    flat[0, -1] = 1e16
    flat[1, -1] = 0.1 + 0.2
    traj = integrator.Trajectory(config=_cfg(make_params(), None, t_end=1.0))
    traj.snapshots.append((0.5, StateField(grid, values, 0.5)))
    text = traj.snapshot_csv(0)
    assert text == _snapshot_csv_per_cell(traj, 0)
    assert ",-0.0," in text and "5e-324" in text and "0.30000000000000004" in text
