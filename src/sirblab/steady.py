"""Constant steady states of the SIRB reactions.

With zero-flux boundaries every spatially constant zero of the reaction
vector is a steady state of the full reaction-diffusion system. There
are up to four families:

    Z1 = (0, 0, 0, 0)                          always
    Z2 = (k1*(b0 - d1)/b0, 0, 0, 0)            iff b0 > d1
    Z3 = (0, 0, 0, k3*(g0 - d4)/g0)            iff g0 > d4
    Z4 = (S, I, R, B) all positive             endemic

The endemic family is reduced to a scalar root problem in I. Setting
f3 = 0 gives R = gamma*I/(d3 + sigma); f4 = 0 gives B as the positive
root of a quadratic in B; f2 = 0 expresses S as a rational function of
I through the infection terms,

    S_inf(I) = (d2 + gamma)*I / (beta1*I + beta2*h1(B(I))),

while f1 = 0 (after substituting R) makes S a root of a downward
quadratic whose two branches are

    S_pm(I) = k1 * ((b0 - d1) +/- sqrt((b0-d1)^2 - 4*b0*c2*I/k1)) / (2*b0),
    c2 = (d2 + gamma) - sigma*gamma/(d3 + sigma) > 0,

real exactly for I <= I_star = k1*(b0-d1)^2/(4*b0*c2). An endemic state
is an intersection S_pm(I) = S_inf(I) with I > 0. The existence
threshold used by ``endemic_exists`` is

    k1*(b0 - d1)/(2*b0)  >  (d2 + gamma)/beta2,

the midpoint value of the upper branch against the saturated infection
scale. ``solve_endemic`` scans both branches for sign changes of
S_branch - S_inf over (0, I_star] and bisects each bracket to machine
precision; it trusts the threshold as the existence gate and reports a
bracket failure, rather than silently returning nothing, if the gate
says yes but no sign change is found.

The scan evaluates the formulas on the whole 1,400-point grid as numpy
arrays; bisection evaluates them one I at a time on Python floats, where
a numpy call would cost a microsecond of dispatch. One body serves both:
each formula is written with plain operators and takes its square root
as an argument. Both square roots are correctly rounded, so the roots
come out bit for bit the same on either type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, _rhs_terms

__all__ = [
    "SteadyState",
    "EndemicDiagnostics",
    "EndemicBracketError",
    "residual",
    "trivial_states",
    "endemic_exists",
    "solve_endemic",
    "all_steady_states",
]

# Relative residual bound every constructed steady state must satisfy.
RESIDUAL_RTOL = 1e-10

# Two endemic intersections closer than this (relative) collapse to one
# state tagged with both branches.
DUPLICATE_RTOL = 1e-8

_SCAN_POINTS = 700
_BISECT_MAX = 220


class EndemicBracketError(RuntimeError):
    """Existence threshold holds but no sign change was found.

    Signals either a numerical scan failure or a parameter corner where
    the threshold criterion is not sharp; distinct from the analytic
    absence reported by an empty result when the threshold fails.
    """


@dataclass(frozen=True)
class SteadyState:
    """A constant steady state with its reaction residual.

    tag identifies the family: Z1, Z2, Z3, Z4-branch-S1, Z4-branch-S2,
    or Z4-branch-S1+S2 when the two endemic branches intersect at the
    same point.
    """

    tag: str
    value: np.ndarray
    residual: float

    @classmethod
    def make(cls, tag: str, value, p: ModelParams) -> "SteadyState":
        """Check a candidate state and record its residual.

        Rejects (ValueError naming the tag) negative or non-finite
        components, a non-finite residual and a residual above
        RESIDUAL_RTOL * (1 + max |z|).
        """
        arr = np.asarray(value, dtype=float).reshape(4)
        z = arr.tolist()
        if any(v < 0.0 for v in z):
            raise ValueError(f"steady state {tag} has negative components: {arr}")
        if not all(map(math.isfinite, z)):
            raise ValueError(f"steady state {tag} has non-finite components: {arr}")
        res = _max_abs_rate(*z, p)
        bound = RESIDUAL_RTOL * (1.0 + max(map(abs, z)))
        if not res <= bound:  # a NaN residual fails too
            raise ValueError(
                f"candidate {tag} is not steady: residual {res:.3e} exceeds {bound:.3e}"
            )
        return cls(tag, arr, res)

    @property
    def s(self) -> float:
        return float(self.value[0])

    @property
    def i(self) -> float:
        return float(self.value[1])

    @property
    def r(self) -> float:
        return float(self.value[2])

    @property
    def b(self) -> float:
        return float(self.value[3])

    def to_dict(self) -> dict:
        return {"tag": self.tag, "value": [float(v) for v in self.value],
                "residual": self.residual}


@dataclass
class EndemicDiagnostics:
    """Existence condition values and what the branch scans saw."""

    condition_lhs: float
    condition_rhs: float
    exists: bool
    i_star: float | None
    c2: float | None
    intersections: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "condition_lhs": self.condition_lhs,
            "condition_rhs": self.condition_rhs,
            "exists": self.exists,
            "i_star": self.i_star,
            "c2": self.c2,
            "intersections": [
                {"branch": br, "i": i} for br, i in self.intersections
            ],
        }


def residual(z, p: ModelParams) -> float:
    """Max-abs reaction rate at a nonnegative 4-vector."""
    z = np.asarray(z, dtype=float).reshape(4).tolist()
    for name, v in zip("SIRB", z):
        if v < 0.0:
            raise ValueError(f"{name} must be nonnegative")
    return _max_abs_rate(*z, p)


def _max_abs_rate(s: float, i: float, r: float, b: float, p: ModelParams) -> float:
    """max |f_k| of the reaction terms at one state, on Python floats.

    Equal to ``reaction_rhs(z, p).max_abs()``, NaN included: builtin max
    skips a NaN that is not its first argument, so a NaN rate is
    returned explicitly, as np.max would.
    """
    rates = _rhs_terms(s, i, r, b, p)
    if any(f != f for f in rates):
        return math.nan
    return max(map(abs, rates))


def trivial_states(p: ModelParams) -> list:
    """Extinction state plus the single-species states that exist."""
    states = [SteadyState.make("Z1", np.zeros(4), p)]
    if p.b0 > p.d1:
        s2 = p.k1 * (p.b0 - p.d1) / p.b0
        states.append(SteadyState.make("Z2", [s2, 0.0, 0.0, 0.0], p))
    if p.g0 > p.d4:
        b3 = p.k3 * (p.g0 - p.d4) / p.g0
        states.append(SteadyState.make("Z3", [0.0, 0.0, 0.0, b3], p))
    return states


def _c2(p: ModelParams) -> float:
    """Effective net removal (d2+gamma) - sigma*gamma/(d3+sigma).

    Positive whenever d2 > 0 or d3 > 0; degenerate d2 = d3 = 0 makes it
    zero and the endemic reduction meaningless, so fail loudly.
    """
    c2 = (p.d2 + p.gamma) - p.sigma * p.gamma / (p.d3 + p.sigma)
    if c2 <= 0.0:
        raise ValueError(
            f"degenerate removal rates d2={p.d2!r}, d3={p.d3!r}, sigma={p.sigma!r}, "
            f"gamma={p.gamma!r}: (d2+gamma) - sigma*gamma/(d3+sigma) = {c2!r} <= 0"
        )
    return c2


def endemic_exists(p: ModelParams, diagnostics: bool = False):
    """Existence threshold for a positive steady state.

    Returns the boolean verdict, or (verdict, EndemicDiagnostics) when
    diagnostics=True. Both raise ValueError, naming the rates, when
    b0 > d1 and 2*b0 overflows: the quotient would read 0 (or nan) and the
    verdict a silent False. Where only k1*(b0-d1) overflows, the quotient
    is formed as k1*((b0-d1)/(2*b0)) instead, so the verdict compares the
    true left side. The diagnostics also raise when c2 is not
    positive (``_c2``) or I_star is not a finite float: extreme rates
    overflow the square (OverflowError on floats), make the quotient inf
    or nan, or underflow its denominator to 0 (ZeroDivisionError).
    """
    twice_b0 = 2.0 * p.b0
    if p.b0 > p.d1 and not math.isfinite(twice_b0):
        raise ValueError(
            f"rates out of floating-point range: 2*b0 in k1*(b0-d1)/(2*b0) "
            f"is not finite for k1={p.k1!r}, b0={p.b0!r}, d1={p.d1!r}"
        )
    lhs = p.k1 * (p.b0 - p.d1) / twice_b0
    if lhs == math.inf:  # k1*(b0-d1) overflowed; the true quotient is at most k1/2
        lhs = p.k1 * ((p.b0 - p.d1) / twice_b0)
    rhs = (p.d2 + p.gamma) / p.beta2
    exists = lhs > rhs
    if not diagnostics:
        return exists
    i_star = None
    c2 = None
    if p.b0 > p.d1:
        c2 = _c2(p)
        try:
            i_star = p.k1 * (p.b0 - p.d1) ** 2 / (4.0 * p.b0 * c2)
        except (OverflowError, ZeroDivisionError):
            i_star = math.nan
        if not math.isfinite(i_star):
            raise ValueError(
                f"rates out of floating-point range: I* = k1*(b0-d1)^2/(4*b0*c2) "
                f"is not finite for k1={p.k1!r}, b0={p.b0!r}, d1={p.d1!r}, c2={c2!r}"
            )
    diag = EndemicDiagnostics(lhs, rhs, exists, i_star, c2)
    return exists, diag


def _array_root(x):
    """sqrt(max(x, 0)) on arrays, NaN kept."""
    return np.sqrt(np.where(x < 0.0, 0.0, x))


def _float_root(x: float) -> float:
    """sqrt(max(x, 0)) on floats, NaN kept."""
    return math.sqrt(0.0 if x < 0.0 else x)


def _bacteria_of_i(i, p: ModelParams, root):
    """Positive root of xi*I + g0*B*(1 - B/k3) - d4*B = 0.

    Written to avoid cancellation when g0 < d4 (m below is negative and
    nearly cancels the square root for small I).
    """
    m = p.g0 - p.d4
    sq = root(m * m + 4.0 * p.g0 * p.xi * i / p.k3)
    if m >= 0.0:
        return p.k3 * (m + sq) / (2.0 * p.g0)
    return 2.0 * p.xi * i / (sq - m)


def _s_infection(i, p: ModelParams, root):
    """S forced by the infection balance f2 = 0 at given I > 0.

    Rates that underflow can make the infection pressure exactly 0; a
    float quotient is then taken by numpy, which returns inf or nan (with
    its warning) as it does on arrays, where Python would raise.
    """
    b = _bacteria_of_i(i, p, root)
    num = (p.d2 + p.gamma) * i
    den = p.beta1 * i + p.beta2 * (b / (b + p.k2))
    try:
        return num / den
    except ZeroDivisionError:
        return float(np.float64(num) / den)


def _s_branch(i, upper: bool, p: ModelParams, c2: float, root):
    """One root of the host balance quadratic, stable forms; ``upper``
    picks S1. The root's clip guards roundoff at I = I_star."""
    r = p.b0 - p.d1
    sq = root(r * r - 4.0 * p.b0 * c2 * i / p.k1)
    if upper:
        return p.k1 * (r + sq) / (2.0 * p.b0)
    return 2.0 * c2 * i / (r + sq)


def _assemble_state(i_root: float, branch: str, p: ModelParams, c2: float):
    """Build the full 4-vector at a located intersection.

    S is taken from the infection balance so f2 vanishes to roundoff;
    R and B come from their exact closed forms; f1 then vanishes to the
    accuracy of the root itself.
    """
    s = _s_infection(i_root, p, _float_root)
    r = p.gamma * i_root / (p.d3 + p.sigma)
    b = _bacteria_of_i(i_root, p, _float_root)
    return np.array([s, i_root, r, b])


def _scan_grid(i_star: float) -> np.ndarray:
    """The sorted distinct positive points of both scans.

    np.unique would import numpy.ma on its first call, about 9 ms of
    every fresh process; a sort and a neighbour comparison keep the same
    points.
    """
    lo = i_star * 1e-12
    grid = np.sort(np.concatenate([
        np.geomspace(lo, i_star, _SCAN_POINTS),
        np.linspace(i_star / _SCAN_POINTS, i_star, _SCAN_POINTS),
    ]))
    keep = grid > 0.0
    keep[1:] &= grid[1:] != grid[:-1]
    return grid[keep]


def _bisect(phi, lo: float, hi: float, flo: float) -> float:
    """Standard bisection; phi changes sign on [lo, hi]."""
    for _ in range(_BISECT_MAX):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = phi(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _near_duplicate(za: np.ndarray, zb: np.ndarray) -> bool:
    scale = 1.0 + np.maximum(np.abs(za), np.abs(zb))
    return bool(np.all(np.abs(za - zb) <= DUPLICATE_RTOL * scale))


def solve_endemic(p: ModelParams, diagnostics: bool = False):
    """Locate all endemic steady states.

    Returns a list of SteadyState (possibly empty), or (list, diag)
    when diagnostics=True. Empty exactly when the existence threshold
    fails; if the threshold holds but neither branch shows a sign
    change, EndemicBracketError is raised.
    """
    exists, diag = endemic_exists(p, diagnostics=True)
    if not exists:
        return ([], diag) if diagnostics else []

    c2 = diag.c2
    i_star = diag.i_star
    grid = _scan_grid(i_star)
    s_inf = _s_infection(grid, p, _array_root)

    found = []  # (branch, i_root)
    for branch in ("S1", "S2"):
        upper = branch == "S1"
        phi_vals = _s_branch(grid, upper, p, c2, _array_root) - s_inf

        def phi(i, _upper=upper):
            return (_s_branch(i, _upper, p, c2, _float_root)
                    - _s_infection(i, p, _float_root))

        exact = np.nonzero(phi_vals == 0.0)[0]
        for k in exact:
            found.append((branch, float(grid[k])))
        signs = np.sign(phi_vals)
        flips = np.nonzero((signs[:-1] * signs[1:]) < 0.0)[0]
        for k in flips:
            root = _bisect(phi, float(grid[k]), float(grid[k + 1]), float(phi_vals[k]))
            found.append((branch, root))

    states = []
    for branch, i_root in found:
        z = _assemble_state(i_root, branch, p, c2)
        tag = f"Z4-branch-{branch}"
        merged = False
        for idx, st in enumerate(states):
            if _near_duplicate(st.value, z):
                if branch not in st.tag:
                    states[idx] = SteadyState.make("Z4-branch-S1+S2", st.value, p)
                merged = True
                break
        if not merged:
            states.append(SteadyState.make(tag, z, p))

    states.sort(key=lambda st: st.i)
    diag.intersections = [(br, i) for br, i in found]

    if not states:
        raise EndemicBracketError(
            "endemic existence threshold holds "
            f"(lhs {diag.condition_lhs:.6g} > rhs {diag.condition_rhs:.6g}) "
            "but no branch intersection was bracketed; the parameters sit "
            "outside the regime where the threshold is sharp, or the scan "
            "resolution was insufficient"
        )
    return (states, diag) if diagnostics else states


def all_steady_states(p: ModelParams) -> list:
    """Trivial states plus any endemic states."""
    states = trivial_states(p)
    if endemic_exists(p):
        states.extend(solve_endemic(p))
    return states
