"""Extremal maps and theorem-level predicates.

The one-parameter family hbar_v = (1+v)/2 * z + (1-v)/2 * conj(z)^{-1}, the
existence construction, the sharp bound predicate, the energy minimizer, and
the logarithmic near-counterexample with its (I)/(II)/(III) initial-condition
checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annulus_core import (
    AnnulusMap, CoefficientRangeError, _check_radius, _inner_trace)
from .circle_means import _mode_sums
from .quadratic_forms import circle_functionals

__all__ = [
    "NitscheParams",
    "NoHarmonicHomeomorphism",
    "InitialConditions",
    "nitsche_map",
    "nitsche_floor",
    "nitsche_bound_holds",
    "bound_margin",
    "mean_radii_ratio",
    "construct_harmonic_homeo",
    "energy_minimizer",
    "example_51_map",
    "check_initial_conditions",
]


class NoHarmonicHomeomorphism(ValueError):
    """Raised when (R, R*) violates the sharp existence bound.

    ``deficit`` is (R + 1/R)/2 - R*, the amount by which the bound fails.
    """

    def __init__(self, R: float, R_star: float) -> None:
        self.deficit = nitsche_floor(R) - R_star
        super().__init__(
            f"no harmonic homeomorphism A(1,{R}) -> A(1,{R_star}): "
            f"deficit {self.deficit:.6g}"
        )


@dataclass(frozen=True)
class NitscheParams:
    """Initial speed v >= 0 and domain outer radius R > 1, both finite: a
    non-finite v or R raises CoefficientRangeError, as AnnulusMap does."""

    v: float
    R: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v) and math.isfinite(self.R)):
            raise CoefficientRangeError(
                f"initial speed and outer radius must be finite, got v={self.v}, R={self.R}")
        if not self.v >= 0:
            raise ValueError(f"initial speed must be nonnegative, got {self.v}")
        if not self.R > 1:
            raise ValueError(f"outer radius must exceed 1, got {self.R}")


def nitsche_map(params: NitscheParams) -> AnnulusMap:
    """hbar_v as a coefficient table: a1 = (1+v)/2, b1 = (1-v)/2."""
    return AnnulusMap(
        R=params.R, terms={1: ((1.0 + params.v) / 2.0, (1.0 - params.v) / 2.0)}
    )


def nitsche_floor(R):
    """(R + 1/R)/2, the least outer radius R* of a harmonic image of A(1, R);
    R is a scalar or an array."""
    return 0.5 * (R + 1.0 / R)


def nitsche_bound_holds(R: float, R_star: float) -> bool:
    """Sharp existence condition R* >= (R + 1/R)/2 on normalized annuli."""
    if not (math.isfinite(R) and math.isfinite(R_star)):
        raise CoefficientRangeError(f"radii must be finite, got R={R}, R*={R_star}")
    if R <= 1 or R_star <= 1:
        raise ValueError("both radii must exceed 1")
    return R_star >= nitsche_floor(R)


def bound_margin(m: AnnulusMap, rho):
    """sqrt(U(rho)) - nitsche_floor(rho) for one rho (a float) or a grid in [1, R]:
    the mean radius of the image of |z| = rho less the sharp bound's floor."""
    rho = np.asarray(rho, dtype=float)
    _check_radius(m, rho, "[1, R]")
    U, _, _ = _mode_sums(m, rho)
    margin = np.sqrt(U) - nitsche_floor(rho)
    return float(margin) if margin.ndim == 0 else margin


def mean_radii_ratio(m: AnnulusMap) -> float:
    """sqrt(U(R)/U(1)) or its inverse, whichever is >= 1: the image annulus
    has one radii ratio whichever circle maps outward."""
    U_R, _, _ = _mode_sums(m, m.R)
    U_1, _, _ = _mode_sums(m, 1.0)
    return math.sqrt(float(max(U_R, U_1)) / float(min(U_R, U_1)))


def construct_harmonic_homeo(R: float, R_star: float) -> AnnulusMap:
    """Harmonic homeomorphism A(1,R) -> A(1,R*) when the bound holds.

    Solves the outer-radius equation of the family for v; raises
    NoHarmonicHomeomorphism (carrying the deficit) below the bound.
    """
    if not nitsche_bound_holds(R, R_star):
        raise NoHarmonicHomeomorphism(R, R_star)
    v = (2.0 * R_star - (R + 1.0 / R)) / (R - 1.0 / R)
    return nitsche_map(NitscheParams(v=v, R=R))


def energy_minimizer(R: float, R_star: float) -> AnnulusMap:
    """Dirichlet-energy minimizer a z + b conj(z)^{-1} over homeomorphisms.

    a = (R R* - 1)/(R^2 - 1), b = (R - R*) R / (R^2 - 1); boundary moduli
    a + b = 1 and a R + b/R = R*.  Only a homeomorphism when the bound holds.
    """
    if not nitsche_bound_holds(R, R_star):
        raise NoHarmonicHomeomorphism(R, R_star)
    a = (R * R_star - 1.0) / (R * R - 1.0)
    b = (R - R_star) * R / (R * R - 1.0)
    return AnnulusMap(R=R, terms={1: (a, b)})


def example_51_map(a: float, lam: float | None = None, R: float = 1000.0) -> AnnulusMap:
    """Logarithmic map (1 + a conj(z))/(conj(z) + a) + lam*log|z| as a table.

    Geometric-series expansion: b0 = a, a0 = lam, and b_n = (1-a^2)(-a)^{n-1}
    for n >= 1, truncated once a^N < 1e-16.  The default lam = 1/a is the
    smallest value for which the mean of |h|^2 is nondecreasing at the inner
    circle.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"need 0 < a < 1, got {a}")
    if lam is None:
        lam = 1.0 / a
    N = max(2, math.ceil(-16.0 * math.log(10.0) / math.log(a)))
    terms = {n: (0.0, (1.0 - a * a) * (-a) ** (n - 1)) for n in range(1, N + 1)}
    return AnnulusMap(R=R, log_a0=lam, log_b0=a, terms=terms)


@dataclass(frozen=True)
class InitialConditions:
    """Booleans (I),(II),(III) with the measured quantities behind them."""

    I: bool
    II: bool
    III: bool
    winding: int
    min_modulus: float
    u_dot_at_1: float
    mean_jacobian_at_1: float


def check_initial_conditions(m: AnnulusMap) -> InitialConditions:
    """Check the three inner-circle conditions behind the sharp bound.

    (I) inner trace proven nonvanishing and of degree 1 by _inner_trace, whose
    samples give min_modulus (undecided reads degree 0); (II) U'(1) >= 0 and
    (III) closed-form mean Jacobian over the unit circle >= 0, slack 1e-12 each.
    """
    winding, min_mod, _ = _inner_trace(m)
    f = circle_functionals(m, 1.0)
    u_dot_1 = 2.0 * f.half_dU_at_1
    return InitialConditions(
        I=winding == 1,
        II=u_dot_1 >= -1e-12,
        III=f.mean_jacobian >= -1e-12,
        winding=winding,
        min_modulus=min_mod,
        u_dot_at_1=u_dot_1,
        mean_jacobian_at_1=f.mean_jacobian,
    )
