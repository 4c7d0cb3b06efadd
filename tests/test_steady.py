"""Constant equilibria: closed forms, the endemic branch solver, residuals."""

import hashlib
import math
import pathlib
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from sirblab import steady
from sirblab.model import ModelParams, reaction_rhs
from sirblab.scenario import load_json, parse_params
from sirblab.steady import (
    EndemicBracketError,
    SteadyState,
    all_steady_states,
    endemic_exists,
    residual,
    solve_endemic,
    trivial_states,
)

from common import REF, make_params, random_admissible_params

# Endemic state of the baseline regime, frozen from a converged run and
# verified below against the reaction residual.
REF_Z4 = np.array([1.7632952810400635, 1.5219376418832429,
                   0.76096882094162144, 4.3498803462906874])


# ---------------------------------------------------------------------------
# Trivial equilibria
# ---------------------------------------------------------------------------

def test_trivial_states_baseline():
    p = make_params()  # b0=2 > d1=1, g0=3 > d4=1
    states = {z.tag: z for z in trivial_states(p)}
    assert set(states) == {"Z1", "Z2", "Z3"}
    np.testing.assert_array_equal(states["Z1"].value, np.zeros(4))
    np.testing.assert_allclose(states["Z2"].value, [5.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(states["Z3"].value, [0.0, 0.0, 0.0, 4.0])
    for z in states.values():
        assert z.residual < 1e-12


def test_trivial_states_when_everything_dies():
    p = make_params(b0=1.0, d1=2.0, g0=0.5, d4=1.0, beta2=2.5)
    states = trivial_states(p)
    assert [z.tag for z in states] == ["Z1"]


def test_extinction_boundaries_are_strict():
    # At exact equality the nonzero equilibria collapse onto the origin.
    assert [z.tag for z in trivial_states(make_params(b0=1.0, d1=1.0))] == ["Z1", "Z3"]
    assert [z.tag for z in trivial_states(make_params(g0=1.0, d4=1.0))] == ["Z1", "Z2"]


def test_residual_reports():
    p = make_params()
    assert residual(np.zeros(4), p) == 0.0
    assert residual([5.0, 0.0, 0.0, 0.0], p) < 1e-12
    assert residual([1.0, 1.0, 1.0, 1.0], p) > 0.1


# ---------------------------------------------------------------------------
# Existence threshold for the endemic state
# ---------------------------------------------------------------------------

def test_existence_condition_example():
    p = make_params(beta2=1.0)  # k1=10, b0=2, d1=1, d2=0.5, gamma=0.5
    exists, diag = endemic_exists(p, diagnostics=True)
    assert exists
    assert diag.condition_lhs == pytest.approx(2.5)
    assert diag.condition_rhs == pytest.approx(1.0)


def test_existence_fails_for_weak_transmission():
    exists, diag = endemic_exists(make_params(beta2=0.1), diagnostics=True)
    assert not exists
    assert diag.condition_rhs == pytest.approx(10.0)


def test_existence_degenerate_boundary():
    # b0 == d1 collapses the admissible I-interval to a point.
    exists, diag = endemic_exists(make_params(b0=2.0, d1=2.0), diagnostics=True)
    assert not exists
    assert diag.condition_lhs == 0.0


def test_existence_diagnostics_interval():
    _, diag = endemic_exists(make_params(), diagnostics=True)
    # c2 = (d2+gamma) - sigma*gamma/(d3+sigma), I* = k1(b0-d1)^2/(4 b0 c2)
    assert diag.c2 == pytest.approx(0.75)
    assert diag.i_star == pytest.approx(10.0 / 6.0)
    assert diag.i_star > 0.0


@pytest.mark.parametrize("rates,named", [
    (dict(b0=1e300, d1=0.0), "b0=1e+300"),                        # (b0-d1)**2 overflows
    (dict(b0=1e-200, d1=0.0, d2=0.0, gamma=1e-200), "b0=1e-200"),  # 4*b0*c2 underflows
    (dict(k1=1e308, b0=11.0, d1=1.0), "k1=1e+308"),               # I* = inf
    (dict(d2=0.0, d3=0.0), "d2=0.0, d3=0.0"),                     # c2 = 0
], ids=["overflow", "underflow", "infinite", "degenerate"])
def test_diagnostics_name_rates_out_of_range(rates, named):
    p = make_params(**rates)
    assert isinstance(endemic_exists(p), bool)  # the verdict alone still forms
    with pytest.raises(ValueError) as e:
        endemic_exists(p, diagnostics=True)
    assert type(e.value) is ValueError and named in str(e.value)


def test_endemic_gate_raises_when_twice_b0_overflows():
    # true lhs k1/2 = 0.85 > rhs (d2+gamma)/beta2 = 0.2, but 2*b0 = inf
    # turns the quotient into 0 and the verdict into a silent False
    p = make_params(b0=1e308, d1=0.0, k1=1.7, beta2=5.0)
    for diagnostics in (False, True):
        with pytest.raises(ValueError, match="rates out of floating-point range") as e:
            endemic_exists(p, diagnostics=diagnostics)
        assert type(e.value) is ValueError and "b0=1e+308" in str(e.value)
    with pytest.raises(ValueError, match="rates out of floating-point range"):
        all_steady_states(p)


def test_endemic_gate_when_only_the_numerator_overflows():
    # k1*(b0-d1) = 2.4e308 overflows while 2*b0 = 1.6e308 stays finite; the
    # true lhs is k1/2 = 1.5 against rhs (d2+gamma)/beta2 = 2.0
    assert endemic_exists(make_params(b0=8e307, d1=0.0, k1=3.0)) is False
    assert endemic_exists(make_params(b0=8e307, d1=0.0, k1=5.0)) is True  # 2.5 > 2.0
    assert endemic_exists(make_params(b0=8e307, d1=1e307, k1=4.5)) is False  # 1.96875


def test_endemic_gate_keeps_the_float_operations_of_ordinary_rates():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = make_params(b0=float(rng.uniform(1.0, 20.0)), d1=float(rng.uniform(0.0, 1.0)),
                        k1=float(rng.uniform(0.1, 50.0)))
        _, diag = endemic_exists(p, diagnostics=True)
        assert diag.condition_lhs.hex() == (p.k1 * (p.b0 - p.d1) / (2.0 * p.b0)).hex()


# ---------------------------------------------------------------------------
# Endemic solver
# ---------------------------------------------------------------------------

def test_endemic_baseline_frozen_value():
    p = make_params()
    states = solve_endemic(p)
    assert len(states) == 1
    z = states[0]
    assert z.tag == "Z4-branch-S2"
    np.testing.assert_allclose(z.value, REF_Z4, rtol=1e-9)
    assert z.residual <= 1e-10 * (1.0 + np.max(z.value))
    assert np.all(z.value > 0.0)


def test_endemic_recovered_infected_ratio():
    p = make_params()
    z = solve_endemic(p)[0]
    assert z.r == pytest.approx(p.gamma * z.i / (p.d3 + p.sigma), rel=1e-12)


def test_endemic_empty_below_threshold():
    assert solve_endemic(make_params(beta2=0.1)) == []
    assert solve_endemic(make_params(b0=1.0, d1=1.5, beta2=2.5)) == []


def test_endemic_bracket_failure_is_distinct_from_absence():
    # Threshold satisfied, yet neither host branch crosses the
    # infection curve inside the admissible interval: the solver must
    # signal a numerical/structural failure rather than return [].
    p = make_params(beta2=2.0)
    exists, _ = endemic_exists(p, diagnostics=True)
    assert exists
    with pytest.raises(EndemicBracketError):
        solve_endemic(p)


def test_endemic_diagnostics_record_intersections():
    states, diag = solve_endemic(make_params(), diagnostics=True)
    assert diag.exists
    assert len(diag.intersections) == len(states) == 1
    branch, i_root = diag.intersections[0]
    assert branch == "S2"
    assert i_root == pytest.approx(states[0].i, rel=1e-12)


def test_endemic_branch_curves_are_monotone():
    # The existence argument rests on the infection curve rising and the
    # upper host branch falling over the admissible interval.
    p = make_params()
    _, diag = endemic_exists(p, diagnostics=True)
    c2 = steady._c2(p)
    i = np.linspace(1e-9, diag.i_star * (1.0 - 1e-9), 200).tolist()
    s_inf = np.array([steady._s_infection(x, p, steady._float_root) for x in i])
    s_hi = np.array([steady._s_branch(x, True, p, c2, steady._float_root) for x in i])
    assert np.all(np.diff(s_inf) > 0.0)
    assert np.all(np.diff(s_hi) < 0.0)


def test_endemic_random_box_properties():
    rng = np.random.default_rng(2024)
    found = 0
    for _ in range(100):
        p = random_admissible_params(rng)
        exists = endemic_exists(p)
        states = solve_endemic(p)
        assert (len(states) > 0) == exists
        for z in states:
            found += 1
            assert z.tag in ("Z4-branch-S1", "Z4-branch-S2")
            assert np.all(z.value > 0.0)
            assert z.residual <= 1e-10 * (1.0 + np.max(z.value))
            f = reaction_rhs(z.value, p)
            assert max(abs(f.f1), abs(f.f2), abs(f.f3), abs(f.f4)) \
                <= 1e-10 * (1.0 + np.max(z.value))
    assert found > 20  # the box is tuned to hit the endemic region often


# ---------------------------------------------------------------------------
# Aggregate inventory
# ---------------------------------------------------------------------------

def test_all_steady_states_baseline():
    states = all_steady_states(make_params())
    tags = [z.tag for z in states]
    assert tags == ["Z1", "Z2", "Z3", "Z4-branch-S2"]


def test_all_steady_states_tags_are_unique():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = random_admissible_params(rng)
        tags = [z.tag for z in all_steady_states(p)]
        assert len(tags) == len(set(tags))
        assert tags[0] == "Z1"


# ---------------------------------------------------------------------------
# Steady states on floats
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", range(4))
def test_make_rejects_non_finite_components(k, bad):
    z = [0.0] * 4
    z[k] = bad
    if bad < 0.0:
        match = "steady state Z4-branch-S1 has negative components"
    else:
        match = "steady state Z4-branch-S1 has non-finite components"
    with pytest.raises(ValueError, match=match):
        SteadyState.make("Z4-branch-S1", z, make_params())


def test_make_rejects_a_non_finite_residual():
    # finite components whose rates overflow: xi*I = +inf and the
    # logistic B term = -inf, so f4 is nan while f1..f3 are not
    p = make_params(xi=4.0)
    z = [0.0, 1e308, 0.0, 1e300]
    with np.errstate(all="ignore"):
        assert math.isnan(residual(z, p))
        assert math.isnan(reaction_rhs(np.array(z), p).max_abs())
        with pytest.raises(ValueError, match="candidate Z4-branch-S1 is not steady: residual nan"):
            SteadyState.make("Z4-branch-S1", z, p)


def test_residual_equals_the_array_reaction_terms():
    rng = np.random.default_rng(7)
    p = make_params()
    for _ in range(200):
        z = rng.uniform(0.0, 10.0, size=4) * (rng.uniform(size=4) < 0.8)
        assert residual(z, p) == reaction_rhs(z, p).max_abs()
    with pytest.raises(ValueError, match="I must be nonnegative"):
        residual([1.0, -1.0, 0.0, 0.0], p)


# ---------------------------------------------------------------------------
# The endemic formulas on floats, as bisection runs them, against the same
# formulas on arrays, as the scan runs them
# ---------------------------------------------------------------------------

def _float_phi(i, upper, p, c2):
    """S_branch - S_inf at one float, as the bisection computes it."""
    root = steady._float_root
    return steady._s_branch(i, upper, p, c2, root) - steady._s_infection(i, p, root)


def _array_phi(i, upper, p, c2):
    """S_branch - S_inf on a one-element array, as the scan computes it."""
    arr, root = np.array([i]), steady._array_root
    return float((steady._s_branch(arr, upper, p, c2, root)
                  - steady._s_infection(arr, p, root))[0])


_RATE = hst.one_of(hst.floats(1e-3, 1e3), hst.sampled_from([5e-324, 1e-300, 1e300]))
_LOSS = hst.one_of(hst.just(0.0), _RATE)


@settings(max_examples=300, deadline=None)
@given(rates=hst.fixed_dictionaries({
    "b0": _RATE, "k1": _RATE, "beta1": _RATE, "beta2": _RATE, "k2": _RATE,
    "g0": _RATE, "k3": _RATE, "d1": _LOSS, "d2": _LOSS, "d3": _LOSS, "d4": _LOSS,
    "sigma": _RATE, "gamma": _RATE, "xi": _RATE,
}), fraction=hst.one_of(hst.floats(0.0, 1.0, exclude_min=True),
                        hst.sampled_from([1.0, 1e-12, 0.5])))
def test_float_phi_equals_the_array_branches(rates, fraction):
    p = ModelParams(**rates)
    with np.errstate(all="ignore"):
        if not p.b0 > p.d1:
            return
        c2 = (p.d2 + p.gamma) - p.sigma * p.gamma / (p.d3 + p.sigma)
        if not (c2 > 0.0 and math.isfinite(c2)):
            return
        try:
            i_star = p.k1 * (p.b0 - p.d1) ** 2 / (4.0 * p.b0 * c2)
        except (OverflowError, ZeroDivisionError):
            return
        i = i_star * fraction
        if not (0.0 < i < math.inf):
            return
        arr, fr, ar = np.array([i]), steady._float_root, steady._array_root
        for got, expect in (
                (steady._bacteria_of_i(i, p, fr), steady._bacteria_of_i(arr, p, ar)[0]),
                (steady._s_infection(i, p, fr), steady._s_infection(arr, p, ar)[0]),
                (_float_phi(i, True, p, c2), _array_phi(i, True, p, c2)),
                (_float_phi(i, False, p, c2), _array_phi(i, False, p, c2))):
            assert type(got) is float
            assert got.hex() == float(expect).hex()


def test_branch_root_clips_a_discriminant_rounded_below_zero():
    # at I = I_star the discriminant is 0 in exact arithmetic, and some
    # rates round it to -2.2e-16: both forms take the root of 0
    rng = np.random.default_rng(0)
    clipped = 0
    for _ in range(40):
        p = random_admissible_params(rng)
        _, diag = endemic_exists(p, diagnostics=True)
        r, c2, i = p.b0 - p.d1, diag.c2, diag.i_star
        if not r * r - 4.0 * p.b0 * c2 * i / p.k1 < 0.0:
            continue
        for upper, expect in ((True, p.k1 * r / (2.0 * p.b0)), (False, 2.0 * c2 * i / r)):
            got = steady._s_branch(i, upper, p, c2, steady._float_root)
            arr = steady._s_branch(np.array([i]), upper, p, c2, steady._array_root)
            assert got.hex() == float(arr[0]).hex() == expect.hex()
        clipped += 1
    assert clipped > 0


def test_degenerate_rates_divide_by_zero_as_the_array_form():
    # beta1 = xi = 0 with g0 < d4 puts no bacteria and no infection
    # pressure anywhere: S_inf = (d2 + gamma) I / 0 = inf on the whole
    # scan, so no branch crosses it. ModelParams rejects zero rates, so a
    # plain namespace carries them.
    p = types.SimpleNamespace(**{**REF, "beta1": 0.0, "xi": 0.0, "g0": 1.0, "d4": 2.0})
    c2 = steady._c2(p)
    _, diag = endemic_exists(p, diagnostics=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in steady._scan_grid(diag.i_star)[::97].tolist():
            for upper in (True, False):
                assert _float_phi(i, upper, p, c2) == -math.inf
                assert _array_phi(i, upper, p, c2) == -math.inf
        # with d2 + gamma underflowing too, S_inf is 0 / 0 = nan
        q = types.SimpleNamespace(**{**vars(p), "d2": 0.0, "gamma": 5e-324})
        assert math.isnan(steady._s_infection(0.25, q, steady._float_root))
        assert math.isnan(steady._s_infection(np.array([0.25]), q, steady._array_root)[0])
        with pytest.raises(EndemicBracketError, match=(
                r"^endemic existence threshold holds \(lhs 2.5 > rhs 2\) but no "
                r"branch intersection was bracketed")):
            solve_endemic(p)


def test_float_bisection_roots_equal_the_array_bisection():
    # the bisection with the array objective, as it ran before, on the
    # random box: every root bit for bit
    rng = np.random.default_rng(11)
    compared = 0
    for _ in range(40):
        p = random_admissible_params(rng)
        if not endemic_exists(p):
            continue
        _, diag = solve_endemic(p, diagnostics=True)
        grid = steady._scan_grid(diag.i_star)
        for branch, root in diag.intersections:
            upper = branch == "S1"
            vals = np.array([_array_phi(i, upper, p, diag.c2) for i in grid.tolist()])
            flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)[0]
            roots = [steady._bisect(lambda i: _array_phi(i, upper, p, diag.c2),
                                    float(grid[k]), float(grid[k + 1]), float(vals[k]))
                     for k in flips]
            assert root in roots
            compared += 1
    assert compared > 10


SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

# Every bit of the endemic roots, pinned: the Z4 states of two shipped
# scenarios component by component, and a digest over the states of the
# random box of the bisection test above.
PINNED_Z4 = {
    "turing_point": ("Z4-branch-S2", ["0x1.3360c66b8074ep-8", "0x1.42fa5e8f69735p-6",
                                      "0x1.4902ccb58d34dp-6", "0x1.8ff7d54da699bp-6"]),
    "endemic_1d": ("Z4-branch-S2", ["0x1.c36751cd42198p+0", "0x1.859db48e709c8p+0",
                                    "0x1.859db48e709c8p-1", "0x1.166470893539ep+2"]),
}
PINNED_BOX = (14, "a412e0bfc4eb7885768265a8e9f21b698f00221ec34a74492b68873b6d541a81")


@pytest.mark.parametrize("name", sorted(PINNED_Z4))
def test_shipped_endemic_states_are_pinned_to_the_bit(name):
    p = parse_params(load_json(str(SCENARIOS / f"{name}.json")))
    [state] = solve_endemic(p)
    assert (state.tag, [v.hex() for v in state.value.tolist()]) == PINNED_Z4[name]


def test_random_box_endemic_states_are_pinned_to_the_bit():
    rng = np.random.default_rng(11)
    digest = hashlib.sha256()
    count = 0
    for _ in range(40):
        p = random_admissible_params(rng)
        if not endemic_exists(p):
            continue
        for state in solve_endemic(p):
            line = " ".join([state.tag, *(v.hex() for v in state.value.tolist())])
            digest.update(line.encode() + b"\n")
            count += 1
    assert (count, digest.hexdigest()) == PINNED_BOX


def test_scan_grid_keeps_the_distinct_positive_points():
    # np.unique followed by the positivity filter is the reference; an
    # infinite I_star makes NaN points, which neither keeps
    def reference(i_star):
        grid = np.unique(np.concatenate([
            np.geomspace(i_star * 1e-12, i_star, steady._SCAN_POINTS),
            np.linspace(i_star / steady._SCAN_POINTS, i_star, steady._SCAN_POINTS),
        ]))
        return grid[grid > 0.0]

    rng = np.random.default_rng(13)
    with np.errstate(all="ignore"):
        for i_star in [*(10.0 ** rng.uniform(-300, 300, 200)), 1.0, 0.37, 1e308, math.inf]:
            got, expect = steady._scan_grid(i_star), reference(i_star)
            assert got.tolist() == expect.tolist()
