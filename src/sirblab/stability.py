"""Linear stability of constant steady states, mode by mode.

Linearizing the reaction-diffusion system around a constant steady
state Z and expanding perturbations in the zero-flux cosine modes with
Laplacian eigenvalues lambda_j decouples the dynamics into 4x4 mode
matrices

    M_j = J(Z) - lambda_j * diag(a1, a2, a3, a4),

where J is the reaction Jacobian. The state is linearly stable iff
every M_j has all eigenvalues in the open left half-plane, including
the infinite tail of modes beyond any finite list; the tail is
certified by a Gershgorin bound, since the off-diagonal row sums of M_j
do not depend on lambda.

Two routes are computed per mode and cross-checked:

  numeric      eigenvalues of the assembled M_j (authoritative verdict)
  closed form  exploits the zero pattern of J at each steady-state
               family: at Z1 the Jacobian digraph is acyclic so the
               eigenvalues are the diagonal entries; at Z2 the S row
               and R column split off, leaving a quadratic in the (I,B)
               block; at Z3 the B column splits off, leaving a cubic in
               the (S,I,R) block and the B diagonal; at Z4 the (S,I,R)
               block yields a cubic and the B diagonal is tracked
               separately, which drops the (weak) B couplings and is
               therefore compared at classification level with an
               allowance of that coupling's norm.

Cubics are classified by sign tests on their coefficients
(``classify_cubic``), the quadratic and linear factors in closed form.
The Z3 cubic's roots are taken as the eigenvalues of its 3x3 block, not
from its coefficients: with equal diffusion of S, I and R the block has
a nearly double eigenvalue at large lambda, where roots computed from
the coefficients lose about half their digits and the block's
eigenvalues keep them.

Both routes run on the whole spectrum at once, one row per distinct
eigenvalue: a 2D domain repeats eigenvalues (on the 2 x 1 domain
(2m pi/2)^2 = (m pi)^2 exactly, so 256 modes hold 179 distinct values),
and modes sharing a lambda share their mode matrix. ``classify_state``
assembles the M_j of the distinct lambdas (``ModeSpectrum.distinct_lambdas``)
as one (k, 4, 4) stack, and the eigenvalues, the Frobenius norms and the
closed forms (stacked determinants for the cubic coefficients, stacked
eigenvalues of the Z3 blocks) each take one numpy call per steady state.
The verdicts and the two consistency checks are array masks over those
rows, with the comparisons and precedence of the one-mode rules. Every
step works row by row (LAPACK solves each matrix of a stack alone, and
the norms, determinants and masks are per row), so a row's values are
bit for bit those of each of its modes computed alone; the report
gathers them back into spectrum order, and a consistency error names
the first mode of the lowest failing row, the lowest failing mode. A 1D
spectrum has no repeats and skips the gather. The resulting
``StabilityReport`` holds per-mode arrays; it builds the per-mode
``ModeVerdict`` objects only when ``per_mode`` (and so ``to_dict``) is
asked for, and a sweep never asks.

A sweep classifies a few hundred states per second, so the fixed cost
of a state matters as much as its per-mode cost. The mode indices and
eigenvalues are the spectrum's own read-only arrays, built once per
spectrum. Both eigenvalue lists are sorted by one stable sort. The
closed-form eigenvalues are compared with the numeric ones in order
first: that pairing is one of the 24, so its distance bounds the best
pairing from above, and only the modes it cannot clear go through the
24-pairing match (``_match_eigs``), which then decides them and gives
the deviation an error reports. A closed-form verdict contradicts the
numeric one when it is the opposite call, one comparison per mode. The
reaction Jacobian is evaluated on Python floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import ModeSpectrum
from .model import ModelParams
from .steady import SteadyState, residual

__all__ = [
    "DiffusionMatrix",
    "Jacobian4",
    "CubicCoeffs",
    "CubicClass",
    "ModeVerdict",
    "StabilityReport",
    "DampingMargins",
    "ConsistencyError",
    "jacobian",
    "mode_matrix",
    "eigenvalues4",
    "classify_cubic",
    "classify_state",
    "damping_margins",
]

# |max real part| below 1e-9*(1 + ||M||_F) is reported as marginal
# rather than forced into a stable/unstable call.
MARGINAL_RTOL = 1e-9

# Closed-form eigenvalues must match numeric ones to this relative
# accuracy where the closed form is exact (Z1, Z2, Z3).
CROSSCHECK_RTOL = 1e-8


class ConsistencyError(RuntimeError):
    """Closed-form and numeric routes disagree beyond tolerance."""


@dataclass(frozen=True)
class DiffusionMatrix:
    """Constant diffusion coefficients of (S, I, R, B), all positive."""

    a1: float
    a2: float
    a3: float
    a4: float

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"diffusion coefficient {name} must be positive, got {v}")

    @classmethod
    def from_coefficients(cls, coeffs) -> "DiffusionMatrix":
        """From four CoefficientField objects, which must be constant."""
        values = []
        for k, c in enumerate(coeffs):
            if not c.is_constant:
                raise ValueError(
                    f"mode analysis needs constant diffusion; coefficient {k + 1} "
                    f"has kind {c.kind!r}"
                )
            values.append(c.constant_value())
        return cls(*values)

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3, self.a4])

    def to_dict(self) -> dict:
        return {"a1": self.a1, "a2": self.a2, "a3": self.a3, "a4": self.a4}


@dataclass(frozen=True)
class Jacobian4:
    """Reaction Jacobian at a state, with the family tag it came from."""

    matrix: np.ndarray
    tag: str


def jacobian(z, p: ModelParams, tag: str = "numeric") -> Jacobian4:
    """Analytic reaction Jacobian at a nonnegative 4-vector.

    Entries follow from differentiating the reaction terms:
    db/dS = b0*(1 - 2S/k1), dh1/dB = k2/(B + k2)^2,
    dg2/dB = g0*(1 - 2B/k3).
    """
    z = np.asarray(z, dtype=float).reshape(4)
    s, i, r, b = values = z.tolist()  # Python floats: same IEEE results, less dispatch
    if not all(0.0 <= v < math.inf for v in values):
        raise ValueError(f"state must be finite and nonnegative, got {z}")
    bs = p.b0 * (1.0 - 2.0 * s / p.k1)
    h1 = b / (b + p.k2)
    dh1 = p.k2 / (b + p.k2) ** 2
    g2s = p.g0 * (1.0 - 2.0 * b / p.k3)
    m = np.array([
        [bs - p.beta1 * i - p.beta2 * h1 - p.d1, -p.beta1 * s, p.sigma, -p.beta2 * s * dh1],
        [p.beta1 * i + p.beta2 * h1, p.beta1 * s - (p.d2 + p.gamma), 0.0, p.beta2 * s * dh1],
        [0.0, p.gamma, -(p.d3 + p.sigma), 0.0],
        [0.0, p.xi, 0.0, g2s - p.d4],
    ])
    return Jacobian4(m, tag)


def mode_matrix(jac: Jacobian4, diff: DiffusionMatrix, lam) -> np.ndarray:
    """J - lambda * diag(a) for a Laplacian eigenvalue lambda >= 0.

    A 1D array of n eigenvalues gives the (n, 4, 4) stack of mode
    matrices; a scalar gives one 4x4 matrix.
    """
    lam = np.asarray(lam, dtype=float)
    bad = ~(np.isfinite(lam) & (lam >= 0.0))
    if np.any(bad):
        raise ValueError(f"Laplacian eigenvalue must be >= 0, got {float(lam[bad][0])}")
    return jac.matrix - lam[..., None, None] * np.diag(diff.as_array())


def eigenvalues4(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real 4x4 matrix, sorted by real part descending.

    An (n, 4, 4) stack gives an (n, 4) array, one sorted row per matrix,
    from a single LAPACK call; each row equals the result for that
    matrix alone. Delegates to LAPACK's balanced reduction and QR
    iteration through numpy; ties in the real part are broken by
    imaginary part descending so the ordering is deterministic.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return _sorted_eigs(np.linalg.eigvals(m))


def _sorted_eigs(eigs: np.ndarray) -> np.ndarray:
    """Each row by real part descending, then imaginary part descending.

    numpy orders complex numbers by real part, then imaginary part, so a
    stable ascending sort of the negated rows is that order, ties (equal
    values, or zeros of either sign) kept in their input order; negating
    back restores every bit.
    """
    return -np.sort(-eigs, axis=-1, kind="stable")


# ---------------------------------------------------------------------------
# Cubic sign classification
# ---------------------------------------------------------------------------

class CubicClass(str, Enum):
    HAS_POSITIVE_ROOT = "has-positive-root"
    ALL_NEGATIVE = "all-negative-real-parts"
    HAS_POSITIVE_REAL_PART = "has-positive-real-part"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class CubicCoeffs:
    """Monic cubic mu^3 + p*mu^2 + q*mu + h."""

    p: float
    q: float
    h: float

    def to_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "h": self.h}


# Class codes of the array classifier, indexes into _CUBIC_CLASSES: the
# trace case p <= 0, where the sign tests do not apply, then CubicClass.
_CUBIC_CLASSES = np.array(["trace-nonnegative"] + [c.value for c in CubicClass])
(_TRACE, _POSITIVE_ROOT, _ALL_NEGATIVE,
 _POSITIVE_REAL_PART, _BOUNDARY) = range(len(_CUBIC_CLASSES))


def classify_cubic(c: CubicCoeffs) -> CubicClass:
    """Root location of mu^3 + p mu^2 + q mu + h for p > 0 by sign tests.

    The exact boundary p*q = h factors the cubic as (mu + p)(mu^2 + q),
    so the roots are -p and +/- sqrt(-q); it is recognized first, within
    a relative tolerance, because its root formulas stay valid whatever
    the sign of h (h = 0 puts a root at the origin and is boundary too).
    Away from the boundary, h < 0 forces a positive real root (the cubic
    is negative at 0 and grows to +inf) and takes precedence over the
    Routh-Hurwitz product test; otherwise 0 < h < p*q means every root
    has negative real part and p*q < h means a conjugate pair has
    crossed into the right half-plane. One cubic through
    ``_cubic_classes``, which classifies arrays of them.
    """
    if not (c.p > 0.0):
        raise ValueError(f"classifier requires p > 0, got p = {c.p!r}")
    code = _cubic_classes(*np.array([[c.p], [c.q], [c.h]], dtype=float))[0]
    return CubicClass(_CUBIC_CLASSES[code])


def _cubic_classes(p: np.ndarray, q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Class codes of mu^3 + p mu^2 + q mu + h, elementwise.

    p <= 0 gives _TRACE; otherwise the tests of ``classify_cubic`` in its
    order: the boundary within tolerance, then h < 0, then h < p*q.
    """
    pq = p * q
    tol = MARGINAL_RTOL * (1.0 + np.abs(pq) + np.abs(h))
    boundary = (np.abs(h) <= tol) | (np.abs(pq - h) <= tol)
    return np.select([p <= 0.0, boundary, h < 0.0, h < pq],
                     [_TRACE, _BOUNDARY, _POSITIVE_ROOT, _ALL_NEGATIVE],
                     _POSITIVE_REAL_PART)


# ---------------------------------------------------------------------------
# Damping margins of the linearization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DampingMargins:
    """Decay-condition quantities at a steady state.

    b_slope_max = |b0*(1 - 2 S*/k1)| and g_slope_max = |g0*(1 - 2 B*/k3)|
    bound the self-growth slopes of S and B at the state; the margins
    d1 - b_slope_max and d4 - g_slope_max are positive exactly when
    death outweighs self-growth there. infection_margin is
    (d2 + gamma) - beta1*S* (net removal of infected hosts against
    contact transmission at the state), recovery_rate is d3 + sigma,
    and small_rates collects the coupling rates whose smallness the
    decay argument leans on.
    """

    b_slope_max: float
    g_slope_max: float
    s_margin: float
    b_margin: float
    infection_margin: float
    recovery_rate: float
    small_rates: dict

    @property
    def damped(self) -> bool:
        return self.s_margin > 0.0 and self.b_margin > 0.0

    def to_dict(self) -> dict:
        return {
            "b_slope_max": self.b_slope_max,
            "g_slope_max": self.g_slope_max,
            "s_margin": self.s_margin,
            "b_margin": self.b_margin,
            "infection_margin": self.infection_margin,
            "recovery_rate": self.recovery_rate,
            "small_rates": dict(self.small_rates),
            "damped": self.damped,
        }


def damping_margins(z, p: ModelParams) -> DampingMargins:
    """Evaluate the linear damping quantities at a state."""
    z = np.asarray(z, dtype=float).reshape(4)
    s, b = float(z[0]), float(z[3])
    b0slope = abs(p.b0 * (1.0 - 2.0 * s / p.k1))
    g0slope = abs(p.g0 * (1.0 - 2.0 * b / p.k3))
    return DampingMargins(
        b_slope_max=b0slope,
        g_slope_max=g0slope,
        s_margin=p.d1 - b0slope,
        b_margin=p.d4 - g0slope,
        infection_margin=(p.d2 + p.gamma) - p.beta1 * s,
        recovery_rate=p.d3 + p.sigma,
        small_rates={"sigma": p.sigma, "gamma": p.gamma,
                     "beta1": p.beta1, "beta2": p.beta2},
    )


# ---------------------------------------------------------------------------
# Per-mode verdicts
# ---------------------------------------------------------------------------

# Verdict codes of the report's per-mode arrays, indexes into _VERDICTS.
_VERDICTS = np.array(["stable", "marginal", "unstable"])
_STABLE, _MARGINAL, _UNSTABLE = range(len(_VERDICTS))
# Per numeric verdict code, the one closed-form verdict that contradicts
# it: stable against unstable and back; nothing contradicts marginal.
_CONTRADICTS = np.array(["unstable", "", "stable"])


@dataclass
class ModeVerdict:
    """Stability call for one Laplacian eigenvalue."""

    j: int
    lam: float
    eigenvalues: np.ndarray
    max_real: float
    tol: float
    classification: str
    cubic: CubicCoeffs | None = None
    cubic_class: str | None = None
    closed_form_eigs: np.ndarray | None = None
    closed_form_class: str | None = None

    def to_dict(self) -> dict:
        d = {
            "j": self.j,
            "lambda": self.lam,
            "eigenvalues": [[float(e.real), float(e.imag)] for e in self.eigenvalues],
            "max_real": self.max_real,
            "tol": self.tol,
            "classification": self.classification,
        }
        if self.cubic is not None:
            d["cubic"] = self.cubic.to_dict()
            d["cubic_class"] = self.cubic_class
        if self.closed_form_eigs is not None:
            d["closed_form_eigenvalues"] = [
                [float(e.real), float(e.imag)] for e in self.closed_form_eigs
            ]
        if self.closed_form_class is not None:
            d["closed_form_class"] = self.closed_form_class
        return d


@dataclass
class StabilityReport:
    """Full mode-by-mode analysis of one steady state, as per-mode arrays.

    Row k of every array is mode k of the spectrum: its index ``j`` and
    eigenvalue ``lam``, the sorted ``eigenvalues`` of its mode matrix,
    their ``max_real`` part, the marginal ``tol`` and the ``verdict``
    code (an index into ``_VERDICTS``). The closed-form columns are None
    for families without them: ``cubic`` holds the (p, q, h) rows and
    ``cubic_class`` the class strings of Z3 and Z4, ``closed_form_eigs``
    the eigenvalues of Z1, Z2 and Z3, and ``closed_form_class`` the
    closed-form verdict strings of every family but 'numeric'.
    """

    state: SteadyState
    diffusion: DiffusionMatrix
    j: np.ndarray
    lam: np.ndarray
    eigenvalues: np.ndarray
    max_real: np.ndarray
    tol: np.ndarray
    verdict: np.ndarray
    cubic: np.ndarray | None
    cubic_class: np.ndarray | None
    closed_form_eigs: np.ndarray | None
    closed_form_class: np.ndarray | None
    overall: str
    turing: bool
    aux: dict
    gershgorin_lambda: float
    tail_covered: bool
    margins: DampingMargins

    @functools.cached_property
    def per_mode(self) -> list:
        """One ``ModeVerdict`` per mode, built from the arrays on first use."""
        none = [None] * len(self.lam)
        cubics = (none if self.cubic is None
                  else [CubicCoeffs(*row) for row in self.cubic.tolist()])
        classes = none if self.cubic_class is None else self.cubic_class.tolist()
        cf_eigs = none if self.closed_form_eigs is None else self.closed_form_eigs
        cf_class = none if self.closed_form_class is None else self.closed_form_class.tolist()
        return [
            ModeVerdict(j=j, lam=lam, eigenvalues=eigs, max_real=max_real, tol=tol,
                        classification=verdict, cubic=cubic, cubic_class=cls,
                        closed_form_eigs=cf, closed_form_class=cf_verdict)
            for j, lam, eigs, max_real, tol, verdict, cubic, cls, cf, cf_verdict in zip(
                self.j.tolist(), self.lam.tolist(), self.eigenvalues,
                self.max_real.tolist(), self.tol.tolist(),
                _VERDICTS[self.verdict].tolist(), cubics, classes, cf_eigs, cf_class)
        ]

    def to_dict(self) -> dict:
        return {
            "state": self.state.to_dict(),
            "diffusion": self.diffusion.to_dict(),
            "overall": self.overall,
            "turing": self.turing,
            "gershgorin_lambda": self.gershgorin_lambda,
            "tail_covered": self.tail_covered,
            "aux": dict(self.aux),
            "margins": self.margins.to_dict(),
            "per_mode": [v.to_dict() for v in self.per_mode],
        }


def _verdicts(max_real: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Verdict codes: marginal where |max_real| < tol, else by its sign."""
    return np.where(np.abs(max_real) < tol, _MARGINAL,
                    np.where(max_real > 0.0, _UNSTABLE, _STABLE))


def _cubic_verdicts(p, q, h, extra_real, tol):
    """Class and verdict codes of a cubic with one extra real eigenvalue.

    All arguments are arrays of one shape. When p <= 0 the sign
    classifier does not apply, but the trace alone decides: the root sum
    is -p >= 0, so some root has nonnegative real part, and the verdict
    is unstable if p < -tol or the extra eigenvalue exceeds tol, marginal
    otherwise. For p > 0 a positive root or real part is unstable, and so
    is the boundary with q < -tol, whose roots -p, +/- sqrt(-q) include a
    real instability rather than a knife edge; then an extra eigenvalue
    above tol is unstable; then the boundary or an extra eigenvalue
    within tol is marginal, and the rest stable.
    """
    cls = _cubic_classes(p, q, h)
    trace, boundary = cls == _TRACE, cls == _BOUNDARY
    cubic_unstable = np.where(
        trace, p < -tol,
        (cls == _POSITIVE_ROOT) | (cls == _POSITIVE_REAL_PART) | (boundary & (q < -tol)))
    unstable = cubic_unstable | (extra_real > tol)
    marginal = trace | boundary | (np.abs(extra_real) <= tol)
    return cls, np.where(unstable, _UNSTABLE, np.where(marginal, _MARGINAL, _STABLE))


# Every pairing of two lists of 4 eigenvalues, as index permutations.
_PAIRINGS = np.array(list(itertools.permutations(range(4))))


def _match_eigs(a: np.ndarray, b: np.ndarray):
    """Smallest max pairwise distance over all pairings of two eig lists.

    a and b are (..., 4) arrays; the result has the leading shape, one
    distance per pair of rows. The (..., 4, 4) distances |a_i - b_j| are
    taken once and gathered along each of the 24 pairings. Rows are
    independent, so ``classify_state`` passes only the modes whose
    in-order distance exceeds the allowance.
    """
    a, b = np.asarray(a), np.asarray(b)
    dist = np.abs(a[..., :, None] - b[..., None, :])
    return dist[..., np.arange(4), _PAIRINGS].max(axis=-1).min(axis=-1)


def _quadratic_roots(m1: np.ndarray, m2: np.ndarray):
    """Roots of mu^2 - m1*mu + m2 per entry, complex-aware."""
    disc = m1 * m1 - 4.0 * m2
    rt = np.sqrt(np.abs(disc))
    real = disc >= 0.0
    mu3 = np.empty(np.shape(disc), dtype=complex)
    mu4 = np.empty_like(mu3)
    mu3.real = np.where(real, 0.5 * (m1 + rt), 0.5 * m1)
    mu4.real = np.where(real, 0.5 * (m1 - rt), 0.5 * m1)
    mu3.imag = np.where(real, 0.0, 0.5 * rt)
    mu4.imag = np.where(real, 0.0, -0.5 * rt)
    return mu3, mu4


def _cubic_of_block(block: np.ndarray):
    """Characteristic coefficients (p, q, h) of det(mu I - block).

    block is a 3x3 matrix or an (n, 3, 3) stack; p, q, h have the
    leading shape.
    """
    b = np.moveaxis(block, (-2, -1), (0, 1))
    tr = b[0, 0] + b[1, 1] + b[2, 2]
    minors = (
        b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        + b[0, 0] * b[2, 2] - b[0, 2] * b[2, 0]
        + b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1]
    )
    return -tr, minors, -np.linalg.det(block)


def _closed_form(tag: str, jac: Jacobian4, m: np.ndarray, tol: np.ndarray):
    """Closed-form eigenvalues/classification for the known families.

    m is the (n, 4, 4) stack of mode matrices and tol their (n,)
    marginal tolerances. Returns (eigs, cubics, cubic_classes, verdicts,
    exact), each None where the family has no such closed form: eigs is
    an (n, 4) array when ``exact``, cubics the (n, 3) rows (p, q, h) of
    Z3 and Z4, cubic_classes their (n,) class strings and verdicts the
    (n,) verdict strings. ``exact`` marks families where the closed form
    reproduces the full spectrum and is checked against the numeric
    eigenvalues at CROSSCHECK_RTOL.
    """
    d = np.diagonal(m, axis1=-2, axis2=-1)  # J_kk - lambda * a_k
    n = len(m)
    if tag in ("Z1", "Z2"):
        eigs = np.empty((n, 4), dtype=complex)
        if tag == "Z1":
            eigs[:] = d
        else:
            j = jac.matrix
            eigs[:, 0], eigs[:, 1] = d[:, 0], d[:, 2]
            m1 = d[:, 1] + d[:, 3]
            m2 = d[:, 1] * d[:, 3] - j[3, 1] * j[1, 3]
            eigs[:, 2], eigs[:, 3] = _quadratic_roots(m1, m2)
        eigs = _sorted_eigs(eigs)
        verdicts = _VERDICTS[_verdicts(np.max(eigs.real, axis=-1), tol)]
        return eigs, None, None, verdicts, True
    if tag != "Z3" and not tag.startswith("Z4"):
        return None, None, None, None, False
    # Z3: the B column decouples and the (S, I, R) block leaves a cubic.
    # Z4: reduced (S, I, R) cubic plus the B diagonal; drops the B
    # couplings, so only compared at classification level.
    p, q, h = _cubic_of_block(m[:, :3, :3])
    mu_b = d[:, 3]
    classes, verdicts = _cubic_verdicts(p, q, h, mu_b, tol)
    cubics = np.stack((p, q, h), axis=-1)
    classes, verdicts = _CUBIC_CLASSES[classes], _VERDICTS[verdicts]
    if tag != "Z3":
        return None, cubics, classes, verdicts, False
    # the cubic's roots, from its block: accurate near a double root
    roots = np.empty((n, 4), dtype=complex)
    roots[:, :3] = np.linalg.eigvals(m[:, :3, :3])
    roots[:, 3] = mu_b
    return _sorted_eigs(roots), cubics, classes, verdicts, True


def gershgorin_tail(jac: Jacobian4, diff: DiffusionMatrix) -> float:
    """Smallest lambda beyond which all Gershgorin discs are negative.

    Row i of the mode matrix has center J_ii - lambda*a_i and radius
    R_i independent of lambda, so every row bound is negative once
    lambda exceeds (J_ii + R_i)/a_i; the bound is monotone in lambda.
    """
    j = jac.matrix
    diag = j.diagonal()
    radii = np.abs(j).sum(axis=1) - np.abs(diag)
    thresholds = (diag + radii) / diff.as_array()
    return float(max(0.0, thresholds.max()))


def classify_state(state, p: ModelParams, diff: DiffusionMatrix,
                   spectrum: ModeSpectrum) -> StabilityReport:
    """Mode-by-mode linear stability of a steady state.

    state may be a SteadyState or a bare nonnegative 4-vector (treated
    as family 'numeric', without closed forms). spectrum must start at
    the constant mode lambda = 0.

    The overall verdict is 'unstable' if any listed mode is unstable,
    'stable' only when every listed mode is stable and the listed
    lambdas reach the Gershgorin tail threshold, and 'marginal'
    otherwise. The Turing flag marks instability that is invisible to
    well-mixed dynamics: mode 0 stable, some lambda > 0 unstable.

    A ConsistencyError names the first mode, in spectrum order, whose
    closed-form eigenvalues deviate from the numeric ones or whose
    closed-form verdict contradicts the numeric one (neither marginal,
    and the max real part beyond tol, plus the dropped B coupling's norm
    for Z4); a mode failing both reports the deviation, the best of the
    24 pairings. The report's ``j`` and ``lam`` are the spectrum's shared
    read-only arrays.
    """
    if isinstance(state, SteadyState):
        st = state
    else:
        arr = np.asarray(state, dtype=float).reshape(4)
        st = SteadyState("numeric", arr, residual(arr, p))
    lam = spectrum.lambdas()
    if len(lam) < 1 or lam[0] != 0.0:
        raise ValueError("mode spectrum must start with the constant mode lambda=0")

    jac = jacobian(st.value, p, tag=st.tag)
    base_tag = "Z4" if st.tag.startswith("Z4") else st.tag
    coupling = 0.0
    if base_tag == "Z4":
        jm = jac.matrix
        coupling = math.sqrt(jm[0, 3] ** 2 + jm[1, 3] ** 2 + jm[3, 1] ** 2)

    # Every step runs once on the (k, 4, 4) stack of the mode matrices of
    # the k distinct eigenvalues or on the (k,) arrays of their results;
    # nothing below loops over modes. Each step works row by row, so a
    # row's values are those of each mode sharing its eigenvalue.
    lam_d, inverse = spectrum.distinct_lambdas()
    m = mode_matrix(jac, diff, lam_d)
    eigs = eigenvalues4(m)
    max_real = np.max(eigs.real, axis=-1)
    # Frobenius norms summed as np.linalg.norm sums one matrix (a dot
    # product of the 16 entries), so tol is the same float either way.
    flat = m.reshape(len(m), 1, 16)
    norms = np.sqrt(flat @ flat.transpose(0, 2, 1)).reshape(-1)
    tol = MARGINAL_RTOL * (1.0 + norms)
    verdict = _verdicts(max_real, tol)

    cf_eigs, cubics, cubic_classes, cf_verdicts, exact = _closed_form(
        base_tag, jac, m, tol)
    mismatch = disagree = np.zeros(len(m), dtype=bool)
    if exact:
        # Both lists are sorted by one rule, so pairing them in order is
        # one of the 24 pairings and bounds the best one from above: only
        # rows whose in-order distance exceeds the allowance need the
        # full match, which then decides them.
        allowance = CROSSCHECK_RTOL * (1.0 + norms)
        suspect = np.abs(eigs - cf_eigs).max(axis=-1) > allowance
        if suspect.any():
            deviation = np.zeros(len(m))
            deviation[suspect] = _match_eigs(eigs[suspect], cf_eigs[suspect])
            mismatch = deviation > allowance
    if cf_verdicts is not None:
        cf_verdicts = np.asarray(cf_verdicts)
        disagree = ((cf_verdicts == _CONTRADICTS[verdict])
                    & (np.abs(max_real) > tol + (0.0 if exact else coupling)))
    if mismatch.any() or disagree.any():
        k = int(np.argmax(mismatch | disagree))
        # inverse never decreases, so the first mode of the lowest failing
        # row is the lowest failing mode
        mode = spectrum[k if inverse is None else int(np.argmax(inverse == k))]
        if mismatch[k]:
            raise ConsistencyError(
                f"{st.tag} mode {mode.j} (lambda={mode.lam:.6g}): closed-form "
                f"eigenvalues deviate from numeric ones by {float(deviation[k]):.3e}"
            )
        raise ConsistencyError(
            f"{st.tag} mode {mode.j} (lambda={mode.lam:.6g}): closed-form "
            f"route says {cf_verdicts[k]}, numeric eigenvalues say "
            f"{_VERDICTS[verdict[k]]} (max real part {float(max_real[k]):.3e})"
        )

    lam_g = gershgorin_tail(jac, diff)
    tail_covered = bool(lam.max() >= lam_g)
    unstable = verdict == _UNSTABLE
    if unstable.any():
        overall = "unstable"
    elif tail_covered and (verdict == _STABLE).all():
        overall = "stable"
    else:
        overall = "marginal"
    turing = bool(verdict[0] == _STABLE and (unstable & (lam_d > 0.0)).any())

    if inverse is not None:  # every mode's row, in spectrum order
        eigs, max_real, tol, verdict = (a[inverse] for a in (eigs, max_real, tol, verdict))
        cf_eigs, cubics, cubic_classes, cf_verdicts = (
            None if a is None else a[inverse]
            for a in (cf_eigs, cubics, cubic_classes, cf_verdicts))

    margins = damping_margins(st.value, p)
    aux = _aux_quantities(base_tag, st, p, jac, margins)

    return StabilityReport(
        state=st, diffusion=diff, j=spectrum.indices(), lam=lam,
        eigenvalues=eigs, max_real=max_real, tol=tol, verdict=verdict,
        cubic=cubics, cubic_class=cubic_classes, closed_form_eigs=cf_eigs,
        closed_form_class=cf_verdicts, overall=overall, turing=turing, aux=aux,
        gershgorin_lambda=lam_g, tail_covered=tail_covered, margins=margins,
    )


def _aux_quantities(base_tag: str, st: SteadyState, p: ModelParams,
                    jac: Jacobian4, margins: DampingMargins) -> dict:
    """Scalar diagnostics traditionally quoted for each family."""
    aux = {
        "b_slope_max": margins.b_slope_max,
        "g_slope_max": margins.g_slope_max,
        "m0": None, "M1": None, "M2": None,
        "L0": None, "p0": None, "q0": None, "h0": None,
    }
    j = jac.matrix
    if base_tag == "Z2":
        aux["m0"] = p.beta2 * st.s
        aux["M1"] = float(j[1, 1] + j[3, 3])
        aux["M2"] = float(j[1, 1] * j[3, 3] - j[3, 1] * j[1, 3])
    if base_tag == "Z4":
        p0, q0, h0 = _cubic_of_block(j[:3, :3])
        aux["L0"] = float(-j[0, 0])
        aux["p0"] = float(p0)
        aux["q0"] = float(q0)
        aux["h0"] = float(h0)
    return aux
