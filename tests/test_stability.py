"""Jacobians, per-mode eigenvalues, cubic classification, Turing detection."""

import itertools
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from sirblab.grid import Grid, neumann_modes
from sirblab import stability
from sirblab.model import ModelParams, reaction_rhs
from sirblab.stability import (
    MARGINAL_RTOL,
    ConsistencyError,
    CubicClass,
    CubicCoeffs,
    DiffusionMatrix,
    classify_cubic,
    classify_state,
    damping_margins,
    eigenvalues4,
    gershgorin_tail,
    jacobian,
    mode_matrix,
)
from sirblab.steady import all_steady_states, solve_endemic, trivial_states

from common import make_params, random_admissible_params

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

DIFF = DiffusionMatrix(0.05, 0.05, 0.05, 0.01)


def _spectrum(count=32, length=2.0, cells=64):
    return neumann_modes(Grid((length,), (cells,)), count)


def _states_by_tag(p):
    return {z.tag: z for z in all_steady_states(p)}


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------

def test_jacobian_extinction_state_closed_form():
    p = make_params()  # b0=2, d1=1, sigma=0.5, gamma=0.5, xi=0.5, g0=3, d4=1
    jac = jacobian(np.zeros(4), p, tag="Z1")
    expect = np.array([
        [1.0, 0.0, 0.5, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [0.0, 0.5, -1.0, 0.0],
        [0.0, 0.5, 0.0, 2.0],
    ])
    np.testing.assert_allclose(jac.matrix, expect, atol=1e-14)
    assert jac.tag == "Z1"


def test_jacobian_bacteria_only_state_infection_entry():
    p = make_params()
    z3 = _states_by_tag(p)["Z3"]
    jac = jacobian(z3.value, p, tag="Z3")
    # dI/dS picks up the saturated ingestion pressure beta2 * B/(B+k2)
    b3 = z3.value[3]
    assert jac.matrix[1, 0] == pytest.approx(p.beta2 * b3 / (b3 + p.k2))
    assert jac.matrix[1, 0] == pytest.approx(0.4)


def _fd_jacobian(z, p, eps=1e-6):
    z = np.asarray(z, dtype=float)
    out = np.empty((4, 4))
    for c in range(4):
        up = z.copy()
        dn = z.copy()
        up[c] += eps
        dn[c] = max(dn[c] - eps, 0.0)
        fu = reaction_rhs(up, p)
        fd = reaction_rhs(dn, p)
        step = up[c] - dn[c]
        out[:, c] = [(fu.f1 - fd.f1) / step, (fu.f2 - fd.f2) / step,
                     (fu.f3 - fd.f3) / step, (fu.f4 - fd.f4) / step]
    return out


@pytest.mark.parametrize("point", [
    [5.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 4.0],
    [1.2, 0.8, 0.4, 2.0],
    [0.3, 2.5, 1.1, 5.5],
])
def test_jacobian_matches_finite_differences(point):
    p = make_params()
    jac = jacobian(point, p)
    fd = _fd_jacobian(point, p)
    scale = np.max(np.abs(jac.matrix))
    np.testing.assert_allclose(jac.matrix, fd, rtol=1e-6, atol=1e-6 * scale)


def test_jacobian_at_endemic_state_matches_finite_differences():
    p = make_params()
    z4 = solve_endemic(p)[0]
    jac = jacobian(z4.value, p, tag=z4.tag)
    fd = _fd_jacobian(z4.value, p)
    np.testing.assert_allclose(jac.matrix, fd, rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------------
# Mode matrix
# ---------------------------------------------------------------------------

def test_mode_matrix_zero_shift_is_identity_operation():
    p = make_params()
    jac = jacobian(np.zeros(4), p, tag="Z1")
    np.testing.assert_array_equal(mode_matrix(jac, DIFF, 0.0), jac.matrix)


def test_mode_matrix_shifts_diagonal_exactly():
    from sirblab.stability import Jacobian4

    jac = Jacobian4(np.diag([1.0, -2.0, 0.5, -0.1]), "numeric")
    lam = 3.7
    m = mode_matrix(jac, DIFF, lam)
    expect = np.diag([1.0 - lam * 0.05, -2.0 - lam * 0.05,
                      0.5 - lam * 0.05, -0.1 - lam * 0.01])
    np.testing.assert_allclose(m, expect, rtol=1e-15)


def test_mode_matrix_rejects_negative_lambda():
    p = make_params()
    jac = jacobian(np.zeros(4), p)
    with pytest.raises(ValueError):
        mode_matrix(jac, DIFF, -1.0)


def test_extinction_mode_eigenvalues_are_shifted_rates():
    # The extinction-state matrix is block triangular, so each mode's
    # spectrum is just the four diagonal rates minus lambda * a_i.
    p = make_params()
    jac = jacobian(np.zeros(4), p, tag="Z1")
    for lam in (0.0, 2.4674, 100.0):
        eigs = np.sort_complex(eigenvalues4(mode_matrix(jac, DIFF, lam)))
        expect = np.sort_complex(np.array([
            p.b0 - p.d1 - lam * DIFF.a1,
            -(p.d2 + p.gamma) - lam * DIFF.a2,
            -(p.d3 + p.sigma) - lam * DIFF.a3,
            p.g0 - p.d4 - lam * DIFF.a4,
        ], dtype=complex))
        np.testing.assert_allclose(eigs, expect, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# Dense 4x4 eigenvalues
# ---------------------------------------------------------------------------

def test_eigenvalues_upper_triangular():
    m = np.array([[2.0, 1.0, 0.5, 0.1],
                  [0.0, -1.0, 3.0, 0.2],
                  [0.0, 0.0, 0.5, 7.0],
                  [0.0, 0.0, 0.0, -4.0]])
    eigs = np.sort_complex(eigenvalues4(m))
    np.testing.assert_allclose(eigs, np.sort_complex(np.array([2.0, -1.0, 0.5, -4.0],
                                                              dtype=complex)),
                               rtol=1e-12, atol=1e-12)


def test_eigenvalues_companion_matrix():
    # (mu^2+1)(mu-2)(mu-3) = mu^4 - 5mu^3 + 7mu^2 - 5mu + 6
    coeffs = [-5.0, 7.0, -5.0, 6.0]
    m = np.zeros((4, 4))
    m[0, :] = [-c for c in coeffs]
    m[1, 0] = m[2, 1] = m[3, 2] = 1.0
    eigs = sorted(eigenvalues4(m), key=lambda z: (round(z.real, 9), z.imag))
    expect = sorted([1j, -1j, 2.0 + 0j, 3.0 + 0j],
                    key=lambda z: (round(z.real, 9), z.imag))
    np.testing.assert_allclose(eigs, expect, rtol=1e-9, atol=1e-9)


def test_eigenvalues_similarity_invariance():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = rng.normal(size=(4, 4))
        p = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)  # well conditioned
        sim = p @ m @ np.linalg.inv(p)
        a = np.sort_complex(eigenvalues4(m))
        b = np.sort_complex(eigenvalues4(sim))
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-8)


def test_eigenvalues_reject_nonfinite():
    m = np.zeros((4, 4))
    m[2, 2] = np.nan
    with pytest.raises(ValueError):
        eigenvalues4(m)


# ---------------------------------------------------------------------------
# Cubic classifier
# ---------------------------------------------------------------------------

def test_cubic_negative_constant_term_has_positive_root():
    assert classify_cubic(CubicCoeffs(1.0, 1.0, -1.0)) is CubicClass.HAS_POSITIVE_ROOT
    roots = np.roots([1.0, 1.0, 1.0, -1.0])
    assert np.any((np.abs(roots.imag) < 1e-12) & (roots.real > 0.0))


def test_cubic_triple_root_all_negative():
    # (mu+1)^3: p=3, q=3, h=1 and 0 < h < pq
    assert classify_cubic(CubicCoeffs(3.0, 3.0, 1.0)) is CubicClass.ALL_NEGATIVE


def test_cubic_boundary_case_roots():
    c = CubicCoeffs(2.0, -4.0, -8.0)  # pq == h, q < 0
    assert classify_cubic(c) is CubicClass.BOUNDARY
    # the boundary factorization (mu + p)(mu^2 + q) pins the roots
    for mu in (-c.p, 2.0, -2.0):
        assert abs(mu**3 + c.p * mu**2 + c.q * mu + c.h) <= 1e-12

    distinct = CubicCoeffs(3.0, -4.0, -12.0)  # roots -3, +/-2, all simple
    assert classify_cubic(distinct) is CubicClass.BOUNDARY
    roots = np.sort_complex(np.roots([1.0, distinct.p, distinct.q, distinct.h]))
    expect = np.sort_complex(np.array([-3.0, 2.0, -2.0], dtype=complex))
    np.testing.assert_allclose(roots, expect, rtol=1e-9)


def test_cubic_oscillatory_boundary():
    # pq == h with q > 0: pure imaginary pair, no real positive root.
    assert classify_cubic(CubicCoeffs(2.0, 4.0, 8.0)) is CubicClass.BOUNDARY


def test_cubic_unstable_focus():
    # h > pq with h > 0: complex pair in the right half-plane.
    c = CubicCoeffs(1.0, 1.0, 5.0)
    assert classify_cubic(c) is CubicClass.HAS_POSITIVE_REAL_PART
    roots = np.roots([1.0, c.p, c.q, c.h])
    assert np.max(roots.real) > 0.0


def test_cubic_negative_h_takes_precedence():
    # h < 0 and pq < h are not exclusive; the direct root report wins.
    assert classify_cubic(CubicCoeffs(0.5, -40.0, -1.0)) is CubicClass.HAS_POSITIVE_ROOT


def test_cubic_requires_positive_leading_damping():
    with pytest.raises(ValueError):
        classify_cubic(CubicCoeffs(0.0, 1.0, 1.0))


def test_cubic_against_root_oracle():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 100:
        p_, q, h = rng.uniform(0.1, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        if abs(h) < 1e-3 or abs(p_ * q - h) < 1e-3:
            continue  # stay clear of the knife edges
        verdict = classify_cubic(CubicCoeffs(p_, q, h))
        roots = np.roots([1.0, p_, q, h])
        real_pos = np.any((np.abs(roots.imag) < 1e-9) & (roots.real > 1e-12))
        any_pos = np.max(roots.real) > 1e-12
        if verdict is CubicClass.HAS_POSITIVE_ROOT:
            assert real_pos
        elif verdict is CubicClass.ALL_NEGATIVE:
            assert np.max(roots.real) < 0.0
        else:
            assert verdict is CubicClass.HAS_POSITIVE_REAL_PART
            assert any_pos
        checked += 1


# ---------------------------------------------------------------------------
# Diffusion matrix and damping margins
# ---------------------------------------------------------------------------

def test_diffusion_matrix_requires_positive_entries():
    with pytest.raises(ValueError):
        DiffusionMatrix(0.1, 0.0, 0.1, 0.1)
    d = DiffusionMatrix(1.0, 2.0, 3.0, 4.0)
    np.testing.assert_array_equal(d.as_array(), [1.0, 2.0, 3.0, 4.0])


def test_damping_margins_extinction_state():
    p = make_params()
    m = damping_margins(np.zeros(4), p)
    assert m.b_slope_max == pytest.approx(p.b0)
    assert m.g_slope_max == pytest.approx(p.g0)
    assert m.s_margin == pytest.approx(p.d1 - p.b0)
    assert m.b_margin == pytest.approx(p.d4 - p.g0)


def test_damping_margins_disease_free_state():
    p = make_params()  # S2 = 5 sits exactly at the logistic midpoint k1/2
    m = damping_margins([5.0, 0.0, 0.0, 0.0], p)
    assert m.b_slope_max == pytest.approx(0.0, abs=1e-15)
    assert m.s_margin == pytest.approx(p.d1)


# ---------------------------------------------------------------------------
# Full classification
# ---------------------------------------------------------------------------

def test_extinction_state_unstable_in_growth_regime():
    p = make_params()
    rep = classify_state(_states_by_tag(p)["Z1"], p, DIFF, _spectrum())
    assert rep.overall == "unstable"
    mode0 = rep.per_mode[0]
    assert mode0.classification == "unstable"
    # both invasion routes are open: hosts at rate b0-d1, bacteria at g0-d4
    reals = np.sort(mode0.eigenvalues.real)
    assert reals[-1] == pytest.approx(p.g0 - p.d4)
    assert reals[-2] == pytest.approx(p.b0 - p.d1)
    assert rep.tail_covered


def test_disease_free_state_unstable_when_bacteria_grow():
    p = make_params()
    rep = classify_state(_states_by_tag(p)["Z2"], p, DIFF, _spectrum())
    assert rep.overall == "unstable"
    assert rep.aux["m0"] == pytest.approx(2.5)
    assert rep.aux["M1"] == pytest.approx(2.5)
    assert rep.aux["M2"] == pytest.approx(-0.25)
    assert rep.gershgorin_lambda == pytest.approx(250.0)
    assert rep.tail_covered


def test_bacteria_only_state_unstable_via_cubic():
    p = make_params()
    rep = classify_state(_states_by_tag(p)["Z3"], p, DIFF, _spectrum())
    assert rep.overall == "unstable"
    mode0 = rep.per_mode[0]
    assert mode0.cubic is not None and mode0.cubic.h < 0.0
    assert mode0.cubic_class == CubicClass.HAS_POSITIVE_ROOT.value


def test_endemic_state_stable_at_baseline():
    p = make_params()
    z4 = solve_endemic(p)[0]
    rep = classify_state(z4, p, DIFF, _spectrum())
    assert rep.overall == "stable"
    assert not rep.turing
    assert rep.aux["L0"] == pytest.approx(0.568439371, rel=1e-6)
    assert rep.aux["p0"] == pytest.approx(2.03945079, rel=1e-6)
    assert rep.aux["q0"] == pytest.approx(1.76377351, rel=1e-6)
    assert rep.aux["h0"] == pytest.approx(0.508542411, rel=1e-6)
    assert 0.0 < rep.aux["h0"] < rep.aux["p0"] * rep.aux["q0"]


def test_endemic_self_limitation_is_structural():
    # The S-equation damps itself at every endemic state: the (S,S)
    # Jacobian entry equals -(b0 S/k1 + sigma gamma I / ((d3+sigma) S)),
    # which is negative regardless of parameters. L0 records its size.
    rng = np.random.default_rng(404)
    seen = 0
    while seen < 50:
        p = random_admissible_params(rng)
        try:
            states = solve_endemic(p)
        except Exception:
            continue
        for z in states:
            jac = jacobian(z.value, p, tag=z.tag)
            s, i = z.value[0], z.value[1]
            expect = -(p.b0 * s / p.k1
                       + p.sigma * p.gamma * i / ((p.d3 + p.sigma) * s))
            assert jac.matrix[0, 0] == pytest.approx(expect, rel=1e-8)
            assert jac.matrix[0, 0] < 0.0
            rep = classify_state(z, p, DIFF, _spectrum(4))
            assert rep.aux["L0"] > 0.0
            seen += 1


def test_gershgorin_tail_threshold():
    p = make_params()
    jac = jacobian(np.zeros(4), p, tag="Z1")
    lam_g = gershgorin_tail(jac, DIFF)
    assert lam_g == pytest.approx(250.0)  # bacteria row: (2 + 0.5)/0.01
    # beyond the threshold every disc sits in the left half-plane
    m = mode_matrix(jac, DIFF, lam_g * 1.01)
    centers = np.diag(m)
    radii = np.sum(np.abs(m), axis=1) - np.abs(centers)
    assert np.all(centers + radii < 0.0)


def test_tail_not_covered_with_too_few_modes():
    p = make_params()
    rep = classify_state(_states_by_tag(p)["Z1"], p, DIFF, _spectrum(4))
    assert not rep.tail_covered
    assert rep.overall == "unstable"  # instability needs no tail certificate


def test_turing_point_flags_and_matches_frozen_rates():
    doc = json.loads((SCENARIOS / "turing_point.json").read_text())
    p = ModelParams.from_dict(doc["params"])
    z4 = solve_endemic(p)[0]
    coeffs = doc["coefficients"]
    diff = DiffusionMatrix(coeffs["a1"]["value"], coeffs["a2"]["value"],
                           coeffs["a3"]["value"], coeffs["a4"]["value"])
    rep = classify_state(z4, p, diff, _spectrum())
    assert rep.turing
    assert rep.overall == "unstable"
    assert rep.per_mode[0].classification == "stable"
    assert rep.per_mode[0].max_real == pytest.approx(-0.0161364832, rel=1e-6)
    assert rep.per_mode[1].classification == "unstable"
    assert rep.per_mode[1].max_real == pytest.approx(0.0201723979, rel=1e-6)
    # the unstable pair is oscillatory: growth rides on a fast rotation
    top = rep.per_mode[1].eigenvalues[0]
    assert abs(top.imag) == pytest.approx(1.1407687, rel=1e-5)


def test_turing_flag_requires_stable_uniform_mode():
    doc = json.loads((SCENARIOS / "turing_point.json").read_text())
    p = ModelParams.from_dict(doc["params"])
    z4 = solve_endemic(p)[0]
    diff = DiffusionMatrix(3e-5, 3e-5, 2.7728, 3e-5)
    rep = classify_state(z4, p, diff, _spectrum())
    assert rep.turing
    assert rep.per_mode[0].classification == "stable"
    assert any(v.classification == "unstable" for v in rep.per_mode[1:])


def test_classification_accepts_bare_vectors():
    p = make_params()
    rep = classify_state(np.zeros(4), p, DIFF, _spectrum(8))
    assert rep.overall == "unstable"


def test_report_serializes_to_json():
    p = make_params()
    rep = classify_state(_states_by_tag(p)["Z2"], p, DIFF, _spectrum(8))
    payload = rep.to_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["overall"] == "unstable"
    assert len(back["per_mode"]) == 8
    assert back["per_mode"][0]["lambda"] == 0.0


# ---------------------------------------------------------------------------
# Batched mode analysis against one-mode-at-a-time recomputation
# ---------------------------------------------------------------------------

SWEEP_SPECTRUM = neumann_modes(Grid((2.0, 1.0), (64, 32)), 256)


def _turing_rates(**overrides):
    doc = json.loads((SCENARIOS / "turing_point.json").read_text())
    p = ModelParams.from_dict({**doc["params"], **overrides})
    c = doc["coefficients"]
    return p, DiffusionMatrix(*(c[k]["value"] for k in ("a1", "a2", "a3", "a4")))


@pytest.mark.parametrize("overrides, tags", [
    ({}, ["Z1", "Z2", "Z4-branch-S2"]),
    ({"beta2": 0.5, "d4": 1.0}, ["Z1", "Z2", "Z3", "Z4-branch-S2"]),
], ids=["turing-rates", "with-Z3"])
def test_batched_verdicts_equal_single_mode_recomputation(overrides, tags):
    p, diff = _turing_rates(**overrides)
    states = all_steady_states(p)
    assert [st.tag for st in states] == tags
    for st in states:
        rep = classify_state(st, p, diff, SWEEP_SPECTRUM)
        jac = jacobian(st.value, p, tag=st.tag)
        assert len(rep.per_mode) == len(SWEEP_SPECTRUM)
        for mode, v in zip(SWEEP_SPECTRUM.modes, rep.per_mode):
            m = mode_matrix(jac, diff, mode.lam)
            eigs = eigenvalues4(m)
            max_real = float(np.max(eigs.real))
            tol = MARGINAL_RTOL * (1.0 + float(np.linalg.norm(m)))
            if abs(max_real) < tol:
                verdict = "marginal"
            else:
                verdict = "unstable" if max_real > 0.0 else "stable"
            assert (v.j, v.lam) == (mode.j, mode.lam)
            assert np.array_equal(v.eigenvalues, eigs)
            assert v.max_real == max_real
            assert v.tol == tol
            assert v.classification == verdict
            if v.cubic is not None:  # Z3 and Z4
                assert v.cubic.h == -float(np.linalg.det(m[:3, :3]))
            if st.tag == "Z3":
                roots = np.append(np.linalg.eigvals(m[:3, :3]).astype(complex),
                                  complex(m[3, 3]))
                expect = roots[np.lexsort((-roots.imag, -roots.real))]
                assert np.array_equal(v.closed_form_eigs, expect)


@pytest.mark.parametrize("count", [256, 8192])
def test_z3_closed_form_stays_accurate_near_a_double_root(count):
    # endemic_1d has a1 = a2 = a3, so at large lambda the Z3 (S, I, R)
    # block has a nearly double eigenvalue (-2523.81 +/- 0.246i at mode
    # 143), where roots of the cubic's coefficients lose about half their
    # digits; the closed form must keep the digits the numeric route has.
    doc = json.loads((SCENARIOS / "endemic_1d.json").read_text())
    p = ModelParams.from_dict(doc["params"])
    c = doc["coefficients"]
    diff = DiffusionMatrix(*(c[k]["value"] for k in ("a1", "a2", "a3", "a4")))
    grid = Grid(tuple(doc["grid"]["lengths"]), tuple(doc["grid"]["cells"]))
    rep = classify_state(_states_by_tag(p)["Z3"], p, diff, neumann_modes(grid, count))
    m = mode_matrix(jacobian(rep.state.value, p, tag="Z3"), diff, rep.lam)
    deviation = stability._match_eigs(rep.eigenvalues, rep.closed_form_eigs)
    assert np.max(deviation / (1.0 + np.linalg.norm(m, axis=(1, 2)))) < 1e-13


@pytest.mark.parametrize("tag, corrupt", [("Z1", "eigenvalues"), ("Z2", "verdicts")])
def test_corrupted_closed_form_names_the_lowest_bad_mode(monkeypatch, tag, corrupt):
    p = make_params()
    spectrum = _spectrum()
    original = stability._closed_form

    def corrupted(*args):
        eigs, cubics, classes, verdicts, exact = original(*args)
        if corrupt == "eigenvalues":
            eigs = eigs.copy()
            for k in (9, 5):
                eigs[k, 0] += 1.0
        else:
            flip = {"stable": "unstable", "unstable": "stable"}
            verdicts = [flip[v] if k in (5, 9) else v for k, v in enumerate(verdicts)]
        return eigs, cubics, classes, verdicts, exact

    monkeypatch.setattr(stability, "_closed_form", corrupted)
    lam = spectrum[5].lam
    if corrupt == "eigenvalues":
        message = (f"{tag} mode 5 (lambda={lam:.6g}): closed-form eigenvalues "
                   f"deviate from numeric ones by 1.000e+00")
    else:
        message = f"{tag} mode 5 (lambda={lam:.6g}): closed-form route says "
    with pytest.raises(ConsistencyError, match="^" + re.escape(message)):
        classify_state(_states_by_tag(p)[tag], p, DIFF, spectrum)


# ---------------------------------------------------------------------------
# Array verdicts against the one-mode rules
# ---------------------------------------------------------------------------

def _scalar_cubic_class(p, q, h):
    """One cubic, p > 0: the sign tests in the order classify_cubic documents."""
    pq = p * q
    tol = MARGINAL_RTOL * (1.0 + abs(pq) + abs(h))
    if abs(h) <= tol or abs(pq - h) <= tol:
        return "boundary"
    if h < 0.0:
        return "has-positive-root"
    if h < pq:
        return "all-negative-real-parts"
    return "has-positive-real-part"


def _scalar_cubic_verdict(p, q, h, extra_real, tol):
    """One cubic with one extra real eigenvalue: (class, verdict)."""
    if p <= 0.0:
        unstable = extra_real > tol or p < -tol
        return "trace-nonnegative", "unstable" if unstable else "marginal"
    cls = _scalar_cubic_class(p, q, h)
    if cls in ("has-positive-root", "has-positive-real-part"):
        return cls, "unstable"
    if cls == "boundary" and q < -tol:
        return cls, "unstable"
    if extra_real > tol:
        return cls, "unstable"
    if cls == "boundary" or abs(extra_real) <= tol:
        return cls, "marginal"
    return cls, "stable"


_FINITE = hst.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@hst.composite
def _cubic_case(draw):
    tol = draw(hst.floats(1e-12, 1e-2))
    # +/-tol, one ulp either side of each, and zero of both signs
    edges = [x for t in (tol, -tol) for x in (t, np.nextafter(t, np.inf),
                                               np.nextafter(t, -np.inf))] + [0.0, -0.0]
    near = hst.sampled_from(edges)
    p = draw(hst.one_of(_FINITE, near))
    q = draw(hst.one_of(_FINITE, near))
    pq = p * q
    ctol = MARGINAL_RTOL * (1.0 + abs(pq))
    h = draw(hst.one_of(
        _FINITE, hst.just(0.0), hst.just(pq),
        hst.sampled_from([np.nextafter(pq, np.inf), np.nextafter(pq, -np.inf),
                         pq + ctol, pq - ctol, ctol, -ctol]),
    ))
    extra = draw(hst.one_of(_FINITE, near))
    return p, q, float(h), extra, tol


@settings(max_examples=300, deadline=None)
@given(hst.lists(_cubic_case(), min_size=1, max_size=16))
def test_array_cubic_verdicts_equal_the_scalar_rules(cases):
    p, q, h, extra, tol = (np.array(col) for col in zip(*cases))
    classes, verdicts = stability._cubic_verdicts(p, q, h, extra, tol)
    got = list(zip(stability._CUBIC_CLASSES[classes].tolist(),
                   stability._VERDICTS[verdicts].tolist()))
    assert got == [_scalar_cubic_verdict(*case) for case in cases]
    for pk, qk, hk, _, _ in cases:
        if pk > 0.0:
            assert classify_cubic(CubicCoeffs(pk, qk, hk)).value == _scalar_cubic_class(pk, qk, hk)
        else:
            with pytest.raises(ValueError, match="requires p > 0"):
                classify_cubic(CubicCoeffs(pk, qk, hk))


def test_cubic_verdict_edges():
    tol = 1e-6
    up, down = np.nextafter(tol, np.inf), np.nextafter(-tol, -np.inf)
    cases = [
        (2.0, 4.0, 8.0, -1.0, tol),     # p*q == h exactly: boundary
        (3.0, 3.0, 0.0, -1.0, tol),     # h == 0: boundary
        (3.0, -2.0, -6.0, -1.0, tol),   # boundary with q < -tol: unstable
        (0.0, 1.0, 1.0, -1.0, tol),     # p == 0: trace case, marginal
        (-tol, 1.0, 1.0, -1.0, tol),    # p == -tol: marginal
        (down, 1.0, 1.0, -1.0, tol),    # p one ulp below -tol: unstable
        (3.0, 3.0, 1.0, tol, tol),      # extra == tol: marginal
        (3.0, 3.0, 1.0, up, tol),       # one ulp above tol: unstable
        (3.0, 3.0, 1.0, -tol, tol),     # extra == -tol: marginal
        (3.0, 3.0, 1.0, down, tol),     # one ulp below -tol: stable
    ]
    p, q, h, extra, tols = (np.array(col) for col in zip(*cases))
    _, verdicts = stability._cubic_verdicts(p, q, h, extra, tols)
    assert stability._VERDICTS[verdicts].tolist() == [
        "marginal", "marginal", "unstable", "marginal", "marginal", "unstable",
        "marginal", "unstable", "marginal", "stable"]
    assert [_scalar_cubic_verdict(*c)[1] for c in cases] == stability._VERDICTS[verdicts].tolist()


# ---------------------------------------------------------------------------
# Eigenvalue matching against the 24 pairings one by one
# ---------------------------------------------------------------------------

def _brute_force_match(a, b):
    best = None
    for perm in itertools.permutations(range(4)):
        worst = np.abs(a - b[..., list(perm)]).max(axis=-1)
        best = worst if best is None else np.minimum(best, worst)
    return best


def test_match_eigs_equals_brute_force():
    rng = np.random.default_rng(17)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a = cplx(64, 4)
    b = cplx(64, 4)
    # the same values on both sides, each row in its own order, then
    # nudged by rounding-sized noise
    shuffled = np.array([row[rng.permutation(4)] for row in a])
    nudged = shuffled + 1e-12 * cplx(64, 4)
    # ties: repeated and conjugate values, so several pairings share
    # their max distance
    ties = np.array([[1 + 1j, 1 - 1j, 1 + 1j, 1 - 1j],
                     [0.5, 0.5, 0.5, 0.5],
                     [2j, -2j, 2j, 3.0],
                     [0, 0, 1, 1]], dtype=complex)
    cases = [(a, b), (a, shuffled), (a, nudged), (ties, ties[:, ::-1]),
             (ties, ties + 0.25), (ties[::-1], ties)]
    for x, y in cases:
        got = stability._match_eigs(x, y)
        assert np.array_equal(got, _brute_force_match(x, y))
    assert np.array_equal(stability._match_eigs(a, shuffled), np.zeros(64))
    # one pair of rows, no leading axis
    assert np.array_equal(stability._match_eigs(a[3], b[3]), _brute_force_match(a[3], b[3]))


# ---------------------------------------------------------------------------
# Consistency errors of the cubic families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tag, corrupt", [
    ("Z3", "eigenvalues"), ("Z4-branch-S2", "verdicts"), ("Z3", "both"),
])
def test_corrupted_cubic_closed_form_names_the_lowest_bad_mode(monkeypatch, tag, corrupt):
    # "both": the eigenvalues deviate at modes 9 and 5 as well, the
    # verdict is flipped at mode 5 alone, and the deviation is reported.
    p = make_params()
    spectrum = _spectrum()
    state = _states_by_tag(p)[tag]
    clean = classify_state(state, p, DIFF, spectrum)
    original = stability._closed_form

    def corrupted(*args):
        eigs, cubics, classes, verdicts, exact = original(*args)
        if corrupt in ("eigenvalues", "both"):
            eigs = eigs.copy()
            for k in (9, 5):
                eigs[k, 0] += 1.0
        if corrupt in ("verdicts", "both"):
            flip = {"stable": "unstable", "unstable": "stable"}
            bad = (5, 9) if corrupt == "verdicts" else (5,)
            verdicts = [flip[v] if k in bad else v for k, v in enumerate(verdicts)]
        return eigs, cubics, classes, verdicts, exact

    monkeypatch.setattr(stability, "_closed_form", corrupted)
    lam = spectrum[5].lam
    if corrupt == "verdicts":
        assert clean.per_mode[5].classification == "stable"
        message = (f"{tag} mode 5 (lambda={lam:.6g}): closed-form route says unstable, "
                   f"numeric eigenvalues say stable "
                   f"(max real part {clean.per_mode[5].max_real:.3e})")
        pattern = "^" + re.escape(message) + "$"
    else:
        message = (f"{tag} mode 5 (lambda={lam:.6g}): closed-form eigenvalues "
                   f"deviate from numeric ones by ")
        pattern = "^" + re.escape(message)
    with pytest.raises(ConsistencyError, match=pattern):
        classify_state(state, p, DIFF, spectrum)


def test_per_mode_is_built_once_from_the_arrays():
    p = make_params()
    for state in all_steady_states(p):
        rep = classify_state(state, p, DIFF, _spectrum(8))
        modes = rep.per_mode
        assert modes is rep.per_mode
        assert [v.max_real for v in modes] == rep.max_real.tolist()
        assert all(type(v.max_real) is float and type(v.j) is int
                   and type(v.classification) is str for v in modes)


# ---------------------------------------------------------------------------
# The per-state fixed cost: shared spectrum arrays, sort, screened match
# ---------------------------------------------------------------------------

def test_spectrum_arrays_are_built_once_and_read_only():
    spectrum = neumann_modes(Grid((2.0, 1.0), (16, 8)), 40)
    lam, j = spectrum.lambdas(), spectrum.indices()
    assert lam is spectrum.lambdas() and j is spectrum.indices()
    assert lam.tolist() == [m.lam for m in spectrum.modes]
    assert j.tolist() == [m.j for m in spectrum.modes]
    assert not lam.flags.writeable and not j.flags.writeable
    rep = classify_state(_states_by_tag(make_params())["Z1"], make_params(), DIFF, spectrum)
    assert rep.lam is lam and rep.j is j


def _lexsorted(eigs):
    order = np.lexsort((-eigs.imag, -eigs.real), axis=-1)
    return np.take_along_axis(eigs, order, axis=-1)


def test_sorted_eigs_equals_a_stable_lexsort_bit_for_bit():
    rng = np.random.default_rng(23)
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.5])
    # ties everywhere, zeros of both signs in both parts, real and complex rows
    eigs = rng.choice(values, size=(500, 4)) + 1j * rng.choice(values, size=(500, 4))
    real = rng.choice(values, size=(500, 4))
    for x in (eigs, real, eigs[7], rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4))):
        got, expect = stability._sorted_eigs(x), _lexsorted(x)
        assert got.dtype == expect.dtype
        assert np.array_equal(np.signbit(got.real), np.signbit(expect.real))
        assert np.array_equal(np.signbit(np.imag(got)), np.signbit(np.imag(expect)))
        assert np.array_equal(got, expect)


def test_jacobian_on_floats_equals_numpy_scalars():
    rng = np.random.default_rng(29)
    p = make_params()
    for _ in range(50):
        s, i, r, b = (np.float64(v) for v in rng.uniform(0.0, 8.0, size=4))
        expect = np.array([
            [p.b0 * (1.0 - 2.0 * s / p.k1) - p.beta1 * i - p.beta2 * (b / (b + p.k2)) - p.d1,
             -p.beta1 * s, p.sigma, -p.beta2 * s * (p.k2 / (b + p.k2) ** 2)],
            [p.beta1 * i + p.beta2 * (b / (b + p.k2)), p.beta1 * s - (p.d2 + p.gamma), 0.0,
             p.beta2 * s * (p.k2 / (b + p.k2) ** 2)],
            [0.0, p.gamma, -(p.d3 + p.sigma), 0.0],
            [0.0, p.xi, 0.0, p.g0 * (1.0 - 2.0 * b / p.k3) - p.d4],
        ])
        assert np.array_equal(jacobian([s, i, r, b], p).matrix, expect)
    for bad in ([-1.0, 0, 0, 0], [0, np.nan, 0, 0], [0, 0, np.inf, 0]):
        with pytest.raises(ValueError, match="state must be finite and nonnegative"):
            jacobian(bad, p)


def test_crosscheck_matches_only_rows_the_in_order_distance_flags(monkeypatch):
    # Closed-form rows handed back in another order are the same spectrum:
    # the in-order distance flags them, the full match clears them, and
    # only they reach _match_eigs. A flagged row that really deviates
    # reports its best pairing, not its in-order distance.
    p = make_params()
    spectrum = _spectrum()
    state = _states_by_tag(p)["Z2"]
    original, match = stability._closed_form, stability._match_eigs
    seen = []

    def spy(a, b):
        seen.append(len(a))
        return match(a, b)

    def reordered(*args, shift=0.0):
        eigs, cubics, classes, verdicts, exact = original(*args)
        eigs = eigs.copy()
        eigs[[3, 7]] = eigs[[3, 7], ::-1]
        eigs[7, 3] += shift
        return eigs, cubics, classes, verdicts, exact

    monkeypatch.setattr(stability, "_match_eigs", spy)
    monkeypatch.setattr(stability, "_closed_form", reordered)
    clean = classify_state(state, p, DIFF, spectrum)
    assert seen == [2]
    monkeypatch.setattr(stability, "_closed_form", original)
    assert np.array_equal(classify_state(state, p, DIFF, spectrum).eigenvalues,
                          clean.eigenvalues)
    assert seen == [2]  # the untouched closed form needs no full match

    monkeypatch.setattr(stability, "_closed_form",
                        lambda *args: reordered(*args, shift=0.5))
    eigs = clean.eigenvalues[7]
    cf = eigs[::-1].copy()
    cf[3] += 0.5
    best = float(match(eigs, cf))
    assert best < float(np.abs(eigs - cf).max())
    with pytest.raises(ConsistencyError, match=re.escape(f"deviate from numeric ones by {best:.3e}")):
        classify_state(state, p, DIFF, spectrum)


def test_crosscheck_flags_a_deviation_just_past_the_allowance(monkeypatch):
    p = make_params()
    spectrum = _spectrum()
    state = _states_by_tag(p)["Z1"]
    m = mode_matrix(jacobian(state.value, p), DIFF, spectrum.lambdas())
    allowance = stability.CROSSCHECK_RTOL * (1.0 + np.linalg.norm(m[5]))
    original = stability._closed_form

    def nudged(*args, factor):
        eigs, cubics, classes, verdicts, exact = original(*args)
        eigs = eigs.copy()
        eigs[5, 0] += factor * allowance
        return eigs, cubics, classes, verdicts, exact

    monkeypatch.setattr(stability, "_closed_form", lambda *a: nudged(*a, factor=0.5))
    classify_state(state, p, DIFF, spectrum)
    monkeypatch.setattr(stability, "_closed_form", lambda *a: nudged(*a, factor=1.5))
    with pytest.raises(ConsistencyError, match=r"^Z1 mode 5 .* deviate from numeric ones by "):
        classify_state(state, p, DIFF, spectrum)


# ---------------------------------------------------------------------------
# One mode analysis per distinct eigenvalue
# ---------------------------------------------------------------------------

def _damped_2d(modes=256):
    doc = json.loads((SCENARIOS / "damped_2d.json").read_text())
    c = doc["coefficients"]
    diff = DiffusionMatrix(*(c[k]["value"] for k in ("a1", "a2", "a3", "a4")))
    grid = Grid(tuple(doc["grid"]["lengths"]), tuple(doc["grid"]["cells"]))
    return ModelParams.from_dict(doc["params"]), diff, neumann_modes(grid, modes)


def test_distinct_lambdas_map_back_to_every_mode():
    _, _, spectrum = _damped_2d()
    lam = spectrum.lambdas()
    distinct, inverse = spectrum.distinct_lambdas()
    assert spectrum.distinct_lambdas() is spectrum.distinct_lambdas()  # built once
    assert len(distinct) < len(lam)  # the square repeats eigenvalues
    assert np.array_equal(distinct[inverse], lam)
    assert (np.diff(distinct) > 0.0).all() and (np.diff(inverse) >= 0).all()
    assert not distinct.flags.writeable and not inverse.flags.writeable
    # a 1D spectrum has no repeats: its own array, and nothing to gather
    line = _spectrum(64)
    assert line.distinct_lambdas() == (line.lambdas(), None)


@pytest.mark.parametrize("rates", ["damped", "reference"])
def test_distinct_lambda_report_equals_the_full_stack(monkeypatch, rates):
    # damped_2d's unit square at 256 modes: every report array is, bit for
    # bit, what the (256, 4, 4) stack of all listed modes gives, while the
    # eigen-solve sees each distinct eigenvalue once
    p, diff, spectrum = _damped_2d()
    if rates == "reference":  # all four families, with the cubic closed forms
        p = make_params()
    distinct, _ = spectrum.distinct_lambdas()
    rows = []
    original = stability.eigenvalues4

    def spy(m):
        rows.append(len(m))
        return original(m)

    monkeypatch.setattr(stability, "eigenvalues4", spy)
    states = all_steady_states(p)
    assert [st.tag for st in states] == (["Z1"] if rates == "damped"
                                         else ["Z1", "Z2", "Z3", "Z4-branch-S2"])
    for st in states:
        rep = classify_state(st, p, diff, spectrum)
        base_tag = "Z4" if st.tag.startswith("Z4") else st.tag
        jac = jacobian(st.value, p, tag=st.tag)
        m = mode_matrix(jac, diff, spectrum.lambdas())
        eigs = original(m)
        max_real = np.max(eigs.real, axis=-1)
        tol = MARGINAL_RTOL * (1.0 + np.array([np.linalg.norm(mk) for mk in m]))
        cf_eigs, cubics, classes, cf_verdicts, _ = stability._closed_form(
            base_tag, jac, m, tol)
        assert np.array_equal(rep.eigenvalues, eigs)
        assert np.array_equal(rep.max_real, max_real)
        assert np.array_equal(rep.tol, tol)
        assert np.array_equal(rep.verdict, stability._verdicts(max_real, tol))
        for got, expect in ((rep.closed_form_eigs, cf_eigs), (rep.cubic, cubics),
                            (rep.cubic_class, classes), (rep.closed_form_class, cf_verdicts)):
            assert (got is None) == (expect is None)
            assert expect is None or np.array_equal(got, expect)
    assert rows == [len(distinct)] * len(states)


@pytest.mark.parametrize("corrupt", ["eigenvalues", "verdicts"])
def test_corrupted_closed_form_on_repeated_lambdas_names_the_lowest_mode(monkeypatch,
                                                                        corrupt):
    # Modes 4 and 5 of the unit square share lambda = 4 pi^2. The closed
    # form is corrupted at the eigenvalues of modes 5 and 9; mode 4 is the
    # lowest mode whose closed form is then wrong.
    p = make_params()
    spectrum = neumann_modes(Grid((1.0, 1.0), (16, 16)), 32)
    lam = spectrum.lambdas()
    assert lam[4] == lam[5] and lam[3] < lam[4]
    original = stability._closed_form

    def corrupted(tag, jac, m, tol):
        eigs, cubics, classes, verdicts, exact = original(tag, jac, m, tol)
        rows = np.flatnonzero((m[:, 0, 0] == jac.matrix[0, 0] - lam[5] * DIFF.a1)
                              | (m[:, 0, 0] == jac.matrix[0, 0] - lam[9] * DIFF.a1))
        if corrupt == "eigenvalues":
            eigs = eigs.copy()
            eigs[rows, 0] += 1.0
        else:
            flip = {"stable": "unstable", "unstable": "stable"}
            verdicts = [flip[v] if k in rows else v for k, v in enumerate(verdicts)]
        return eigs, cubics, classes, verdicts, exact

    monkeypatch.setattr(stability, "_closed_form", corrupted)
    tag = "Z1" if corrupt == "eigenvalues" else "Z2"
    if corrupt == "eigenvalues":
        message = (f"Z1 mode 4 (lambda={lam[4]:.6g}): closed-form eigenvalues "
                   f"deviate from numeric ones by 1.000e+00")
    else:
        message = f"Z2 mode 4 (lambda={lam[4]:.6g}): closed-form route says "
    with pytest.raises(ConsistencyError, match="^" + re.escape(message)):
        classify_state(_states_by_tag(p)[tag], p, DIFF, spectrum)
