"""Extremal maps and theorem-level predicates.

The one-parameter family hbar_v = (1+v)/2 * z + (1-v)/2 * conj(z)^{-1}, the
existence construction, the sharp bound predicate, the energy minimizer, the
hammering limit map, the double-cover fold map, and the logarithmic
near-counterexample with its (I)/(II)/(III) initial-condition checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annulus_core import (
    AnnulusMap, CoefficientRangeError, _check_radius, _inner_trace, evaluate)
from .circle_means import _mode_sums
from .quadratic_forms import circle_functionals

__all__ = [
    "NitscheParams",
    "PiecewiseMap",
    "NoHarmonicHomeomorphism",
    "InitialConditions",
    "nitsche_map",
    "nitsche_floor",
    "nitsche_bound_holds",
    "bound_margin",
    "mean_radii_ratio",
    "construct_harmonic_homeo",
    "energy_minimizer",
    "hammering_map",
    "double_cover_map",
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
    """Initial speed v >= 0 and domain outer radius R > 1."""

    v: float
    R: float

    def __post_init__(self) -> None:
        if self.v < 0:
            raise ValueError(f"initial speed must be nonnegative, got {self.v}")
        if self.R <= 1:
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


@dataclass(frozen=True)
class PiecewiseMap:
    """The hammering limit: angular projection inside T, critical map outside.

    ``pieces`` lists (rho_lo, rho_hi, piece) where piece is either the tag
    "angular_projection" or an AnnulusMap evaluated on [1, rho_hi].
    """

    R: float
    pieces: tuple[tuple[float, float, object], ...]

    def eval(self, z: complex) -> complex:
        rho = abs(z)
        if not (1.0 / self.R - 1e-12 <= rho <= self.R + 1e-12):
            raise ValueError(f"|z|={rho} outside A(1/{self.R}, {self.R})")
        for lo, hi, piece in self.pieces:
            if lo - 1e-12 <= rho <= hi + 1e-12:
                if piece == "angular_projection":
                    return z / abs(z)
                return complex(evaluate(piece, z).value)
        raise ValueError(f"|z|={rho} not covered by any piece")


def hammering_map(R: float) -> PiecewiseMap:
    """Weak limit of minimizing homeomorphisms of A(1/R, R): inner collapse + hbar."""
    if R <= 1:
        raise ValueError(f"outer radius must exceed 1, got {R}")
    critical = AnnulusMap(R=R, terms={1: (0.5, 0.5)})
    return PiecewiseMap(
        R=R,
        pieces=((1.0 / R, 1.0, "angular_projection"), (1.0, R, critical)),
    )


def double_cover_map(r: float, R: float) -> AnnulusMap:
    """Fold map (z/sqrt(rR) + sqrt(rR)/conj(z))/2, rescaled to A(1, R/r).

    Degree 1 on circles but 2-to-1 radially: the Jacobian changes sign on
    |z| = sqrt(R/r) of the normalized annulus.
    """
    if not (0 < r < R):
        raise ValueError(f"need 0 < r < R, got ({r}, {R})")
    q = R / r
    return AnnulusMap(
        R=q, terms={1: (0.5 / math.sqrt(q), 0.5 * math.sqrt(q))}
    )


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
    _, u_dot_1, _ = _mode_sums(m, 1.0)
    mean_jac = circle_functionals(m, 1.0).mean_jacobian
    return InitialConditions(
        I=winding == 1,
        II=bool(u_dot_1 >= -1e-12),
        III=mean_jac >= -1e-12,
        winding=winding,
        min_modulus=min_mod,
        u_dot_at_1=float(u_dot_1),
        mean_jacobian_at_1=mean_jac,
    )
