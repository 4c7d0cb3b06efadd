"""SIRB reaction model: parameters, reaction terms, and regime checks.

Four interacting densities: susceptible hosts S, infected hosts I,
recovered hosts R, and free-living bacteria B. Susceptibles reproduce
logistically, acquire infection by contact with infected hosts (mass
action) and by ingesting bacteria (saturating dose response), recovered
hosts lose immunity, and infected hosts shed bacteria which also grow
logistically on their own.

Constitutive rates:

    b(S)       = b0 * S * (1 - S/k1)       logistic recruitment
    h1(B)      = B / (B + k2)              saturating ingestion response
    g1(S,I,B)  = beta1*S*I + beta2*S*h1(B) total infection pressure
    g2(B)      = g0 * B * (1 - B/k3)       bacterial self-growth

Reaction right-hand side:

    f1 = b(S) - g1(S,I,B) - d1*S + sigma*R
    f2 = g1(S,I,B) - (d2 + gamma)*I
    f3 = gamma*I - (d3 + sigma)*R
    f4 = xi*I + g2(B) - d4*B

The rates are spelled once, in ``_rhs_terms``: the integrator's step and
the steady-state residual evaluate it without checks. ``reaction_rhs`` is
the checked entry to the same formulas. It accepts scalars or numpy
arrays of a common shape, broadcast elementwise, and rejects negative
densities; positivity failures inside a time integration surface in the
integrator, where they carry a cell index and a time stamp.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, asdict
from types import SimpleNamespace

import numpy as np

__all__ = [
    "ModelParams",
    "ReactionVector",
    "ConditionCheck",
    "RegimeReport",
    "REGIMES",
    "reaction_rhs",
    "check_regime",
]

# Parameters that may sit at zero (pure loss rates). Everything else must
# be strictly positive for the rate functions to make sense.
_NONNEG_FIELDS = ("d1", "d2", "d3", "d4")


@dataclass(frozen=True)
class ModelParams:
    """Rate constants and capacities for the SIRB reactions.

    b0     logistic birth rate of susceptibles
    k1     host carrying capacity
    beta1  host-to-host transmission coefficient
    beta2  environment-to-host transmission coefficient
    k2     half-saturation bacterial dose
    g0     bacterial growth rate
    k3     bacterial carrying capacity
    d1-d4  death/removal rates of S, I, R, B (zero allowed)
    sigma  immunity loss rate of recovered hosts
    gamma  recovery rate of infected hosts
    xi     bacterial shedding rate per infected host
    """

    b0: float
    k1: float
    beta1: float
    beta2: float
    k2: float
    g0: float
    k3: float
    d1: float
    d2: float
    d3: float
    d4: float
    sigma: float
    gamma: float
    xi: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"parameter {f.name!r} must be a number, got {value!r}")
            value = float(value)
            object.__setattr__(self, f.name, value)
            if not np.isfinite(value):
                raise ValueError(f"parameter {f.name!r} must be finite, got {value!r}")
            if f.name in _NONNEG_FIELDS:
                if value < 0.0:
                    raise ValueError(f"parameter {f.name!r} must be >= 0, got {value!r}")
            elif value <= 0.0:
                raise ValueError(f"parameter {f.name!r} must be > 0, got {value!r}")

    @property
    def i_removal(self) -> float:
        """Rate at which infected hosts leave I: d2 + gamma."""
        return self.d2 + self.gamma

    @property
    def r_removal(self) -> float:
        """Rate at which recovered hosts leave R: d3 + sigma."""
        return self.d3 + self.sigma

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        """Build from a plain dict; unknown or missing keys are errors."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown parameter keys: {', '.join(unknown)}")
        missing = sorted(known - set(data))
        if missing:
            raise ValueError(f"missing parameter keys: {', '.join(missing)}")
        return cls(**data)


@dataclass
class ReactionVector:
    """Reaction rates of the four species at one state (or field of states)."""

    f1: np.ndarray | float
    f2: np.ndarray | float
    f3: np.ndarray | float
    f4: np.ndarray | float

    def as_array(self) -> np.ndarray:
        return np.stack([np.asarray(self.f1), np.asarray(self.f2),
                         np.asarray(self.f3), np.asarray(self.f4)])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.as_array())))


def _check_nonneg(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _rate_arrays(p: ModelParams) -> SimpleNamespace:
    """The rates ``_rhs_terms`` reads, as read-only 0-d float64 arrays.

    numpy converts a Python float operand on every product with an array
    (about 0.2 us each on a 64-cell field); a 0-d float64 array skips that
    and gives the same bits. ``i_removal`` and ``r_removal`` are summed
    once here, in float64 as ``ModelParams`` sums them.
    """
    rates = dict(p.to_dict(), i_removal=p.i_removal, r_removal=p.r_removal)
    arrays = {name: np.array(value) for name, value in rates.items()}
    for value in arrays.values():
        value.setflags(write=False)
    return SimpleNamespace(**arrays)


def _rhs_terms(s, i, r, b, p):
    """Raw reaction formulas without domain validation.

    Used by the time integrator, which performs its own tolerance-aware
    positivity monitoring and may legitimately hold values a few ulp
    below zero. ``p`` is a ``ModelParams`` or, on fields, its
    ``_rate_arrays``; both give the same bits.
    """
    g1 = p.beta1 * s * i + p.beta2 * s * (b / (b + p.k2))
    f1 = p.b0 * s * (1.0 - s / p.k1) - g1 - p.d1 * s + p.sigma * r
    f2 = g1 - p.i_removal * i
    f3 = p.gamma * i - p.r_removal * r
    f4 = p.xi * i + p.g0 * b * (1.0 - b / p.k3) - p.d4 * b
    return f1, f2, f3, f4


def reaction_rhs(u, p: ModelParams) -> ReactionVector:
    """Evaluate (f1, f2, f3, f4) at a state.

    u is a length-4 sequence (S, I, R, B) of scalars or arrays of a
    common shape. All components must be nonnegative.
    """
    if len(u) != 4:
        raise ValueError(f"state must have 4 components, got {len(u)}")
    s = _check_nonneg("S", u[0])
    i = _check_nonneg("I", u[1])
    r = _check_nonneg("R", u[2])
    b = _check_nonneg("B", u[3])
    f1, f2, f3, f4 = _rhs_terms(s, i, r, b, p)
    if np.ndim(f1) == 0:
        return ReactionVector(float(f1), float(f2), float(f3), float(f4))
    return ReactionVector(f1, f2, f3, f4)


# ---------------------------------------------------------------------------
# Parameter regime checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    """One inequality of a regime: its name, margin, and verdict.

    The margin is oriented so that positive means satisfied with room to
    spare.
    """

    name: str
    margin: float
    satisfied: bool


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    checks: tuple

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.checks)


def _strict(name: str, margin: float) -> ConditionCheck:
    return ConditionCheck(name, float(margin), margin > 0.0)


def _regime_damped(p: ModelParams):
    """Global damping: death rates dominate the maximal self-growth
    slopes of S and B, so every species decays toward extinction."""
    return (
        _strict("d1 - b0 > 0", p.d1 - p.b0),
        _strict("d4 - g0 > 0", p.d4 - p.g0),
    )


def _regime_decay_candidate(p: ModelParams):
    """Sufficient conditions for exponential decay of perturbations
    around a low-infection state, using the worst case S* <= k1."""
    return (
        _strict("d1 - b0 > 0", p.d1 - p.b0),
        _strict("d4 - g0 > 0", p.d4 - p.g0),
        _strict("d2 + gamma - beta1*k1 > 0", p.d2 + p.gamma - p.beta1 * p.k1),
        _strict("d3 + sigma > 0", p.d3 + p.sigma),
    )


REGIMES = {
    "damped": _regime_damped,
    "decay-candidate": _regime_decay_candidate,
}


def check_regime(p: ModelParams, regime: str) -> RegimeReport:
    """Evaluate a named set of parameter inequalities.

    Regimes:
      damped           d1 > b0 and d4 > g0 (all species die out)
      decay-candidate  damping plus transmission small against k1

    ``simulate`` flags host-mass growth while ``damped`` holds, and
    acceptance 2 starts its decay runs where both hold.
    """
    try:
        builder = REGIMES[regime]
    except KeyError:
        raise ValueError(
            f"unknown regime {regime!r}; expected one of {sorted(REGIMES)}"
        ) from None
    return RegimeReport(regime, tuple(builder(p)))
