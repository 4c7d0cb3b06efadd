"""Reaction terms, parameter validation, and regime reports."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sirblab.model import (
    ModelParams,
    bacterial_g2,
    check_regime,
    infection_g1,
    logistic_b,
    reaction_rhs,
    saturation_h1,
)

from common import REF, make_params


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

def test_params_roundtrip():
    p = make_params()
    assert ModelParams.from_dict(p.to_dict()) == p


def test_params_unknown_key_rejected():
    bad = dict(REF, beta3=1.0)
    with pytest.raises(ValueError, match="beta3"):
        ModelParams.from_dict(bad)


def test_params_missing_key_rejected():
    bad = dict(REF)
    del bad["xi"]
    with pytest.raises(ValueError, match="xi"):
        ModelParams.from_dict(bad)


@pytest.mark.parametrize("name", ["b0", "k1", "beta1", "beta2", "k2", "g0",
                                  "k3", "sigma", "gamma", "xi"])
def test_params_positive_fields_reject_zero(name):
    with pytest.raises(ValueError, match=name):
        make_params(**{name: 0.0})


@pytest.mark.parametrize("name", ["d1", "d2", "d3", "d4"])
def test_params_death_rates_allow_zero(name):
    p = make_params(**{name: 0.0})
    assert getattr(p, name) == 0.0
    with pytest.raises(ValueError, match=name):
        make_params(**{name: -0.1})


def test_params_reject_nonfinite_and_bool():
    with pytest.raises(ValueError, match="k1"):
        make_params(k1=float("nan"))
    with pytest.raises(ValueError, match="b0"):
        make_params(b0=True)


# ---------------------------------------------------------------------------
# Constitutive rates, fixed points of the algebra
# ---------------------------------------------------------------------------

def test_logistic_birth_values():
    p = make_params()  # b0=2, k1=10
    assert logistic_b(0.0, p) == 0.0
    assert logistic_b(p.k1, p) == pytest.approx(0.0, abs=1e-15)
    assert logistic_b(1.0, p) == pytest.approx(1.8)


def test_saturation_values():
    p = make_params()  # k2=1
    assert saturation_h1(0.0, p) == 0.0
    assert saturation_h1(p.k2, p) == pytest.approx(0.5)
    b = np.linspace(0.0, 50.0, 200)
    h = saturation_h1(b, p)
    assert np.all(np.diff(h) > 0.0)
    assert np.all(h < 1.0)


def test_saturation_slope_matches_finite_differences():
    p = make_params(k2=0.7)
    eps = 1e-6
    for b in (0.0, 0.3, 1.0, 4.0, 25.0):
        exact = p.k2 / (b + p.k2) ** 2
        approx = (saturation_h1(b + eps, p) - saturation_h1(max(b - eps, 0.0), p))
        approx /= (eps if b == 0.0 else 2 * eps)
        assert approx == pytest.approx(exact, rel=1e-5)


def test_infection_pressure_values():
    p = make_params(beta1=1.0, beta2=2.0, k2=1.0)
    assert infection_g1(1.0, 0.0, 0.0, p) == 0.0
    # beta1*S*I + beta2*S*h1(B) = 3 + 2*0.5
    assert infection_g1(1.0, 3.0, 1.0, p) == pytest.approx(4.0)


def test_bacterial_growth_values():
    p = make_params(g0=3.0, k3=6.0)
    assert bacterial_g2(0.0, p) == 0.0
    assert bacterial_g2(p.k3, p) == pytest.approx(0.0, abs=1e-15)
    assert bacterial_g2(2.0, p) == pytest.approx(4.0)


def test_rates_reject_negative_input():
    p = make_params()
    with pytest.raises(ValueError):
        logistic_b(-0.1, p)
    with pytest.raises(ValueError):
        bacterial_g2(-1e-6, p)
    with pytest.raises(ValueError):
        infection_g1(1.0, -1.0, 0.0, p)


# ---------------------------------------------------------------------------
# Full reaction vector
# ---------------------------------------------------------------------------

def test_reaction_origin_is_equilibrium():
    f = reaction_rhs((0.0, 0.0, 0.0, 0.0), make_params())
    assert (f.f1, f.f2, f.f3, f.f4) == (0.0, 0.0, 0.0, 0.0)


def test_reaction_known_point():
    # Hand-computed at U = (1, 3, 2, 1):
    #   g1 = 1*1*3 + 2*1*(1/2) = 4, b(1) = 2*0.9 = 1.8, g2(1) = 3*(5/6) = 2.5
    p = make_params(beta1=1.0, beta2=2.0)
    f = reaction_rhs((1.0, 3.0, 2.0, 1.0), p)
    assert f.f1 == pytest.approx(-2.2)   # 1.8 - 4 - 1 + 1
    assert f.f2 == pytest.approx(1.0)    # 4 - 1*3
    assert f.f3 == pytest.approx(-0.5)   # 0.5*3 - 1*2
    assert f.f4 == pytest.approx(3.0)    # 0.5*3 + 2.5 - 1


def test_reaction_vanishes_at_disease_free_state():
    p = make_params()
    s2 = p.k1 * (p.b0 - p.d1) / p.b0
    f = reaction_rhs((s2, 0.0, 0.0, 0.0), p)
    for value in (f.f1, f.f2, f.f3, f.f4):
        assert abs(value) < 1e-12


def test_reaction_rejects_negative_state():
    with pytest.raises(ValueError):
        reaction_rhs((-0.01, 0.0, 0.0, 0.0), make_params())


def test_reaction_broadcasts_like_scalar_calls():
    p = make_params()
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 3.0, size=(4, 11))
    f = reaction_rhs(u, p)
    for c in range(11):
        fc = reaction_rhs(u[:, c], p)
        got = np.array([f.f1[c], f.f2[c], f.f3[c], f.f4[c]])
        want = np.array([fc.f1, fc.f2, fc.f3, fc.f4])
        np.testing.assert_array_equal(got, want)


_coord = st.floats(min_value=0.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(u=st.tuples(_coord, _coord, _coord, _coord),
       zero_at=st.integers(min_value=0, max_value=3))
def test_reaction_quasi_positive(u, zero_at):
    # No species is pushed negative from its own zero level: with
    # u_i = 0 and everything else nonnegative, f_i >= 0.
    u = list(u)
    u[zero_at] = 0.0
    f = reaction_rhs(tuple(u), make_params())
    assert (f.f1, f.f2, f.f3, f.f4)[zero_at] >= 0.0


@settings(max_examples=200, deadline=None)
@given(u=st.tuples(_coord, _coord, _coord, _coord))
def test_host_budget_identity(u):
    # The infection term cancels from f1 + f2, leaving the pure
    # birth/death/immunity budget of the host population.
    p = make_params()
    f = reaction_rhs(u, p)
    s, i, r, _ = u
    budget = logistic_b(s, p) - p.d1 * s + p.sigma * r - (p.d2 + p.gamma) * i
    assert f.f1 + f.f2 == pytest.approx(budget, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Regime reports
# ---------------------------------------------------------------------------

def test_damped_regime_margins():
    rep = check_regime(make_params(b0=2.0, d1=1.0), "damped")
    by_name = {c.name: c for c in rep.checks}
    host = by_name["d1 - b0 > 0"]
    assert not host.satisfied and host.margin == pytest.approx(-1.0)

    rep = check_regime(make_params(b0=1.0, d1=2.0, beta2=2.5), "damped")
    host = {c.name: c for c in rep.checks}["d1 - b0 > 0"]
    assert host.satisfied and host.margin == pytest.approx(1.0)


def test_unknown_regime_rejected():
    with pytest.raises(ValueError, match="unknown regime"):
        check_regime(make_params(), "oscillatory")


@pytest.mark.parametrize("regime", ["structural", "strict-positive"])
def test_only_the_damping_regimes_are_known(regime):
    with pytest.raises(ValueError, match=r"unknown regime .*\['damped', 'decay-candidate'\]"):
        check_regime(make_params(), regime)
