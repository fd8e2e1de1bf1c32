"""Two-sided verification of the weighted annulus integral identity.

For any harmonic coefficient table h on A(1, R) and any 1 < sigma <= R,

    2 sigma^2/(sigma^2+1) U(sigma) - (sigma^2+1)/2 U(1)
      - (sigma^2-1) U'(1)/2 - (sigma^2-1) log(sigma) (W - U(1))
    = (1/pi) II w1(rho) |G1|^2 + (1/pi) II w2(rho) |G2|^2

where W is the winding form, the double integrals run over A(1, sigma),

    w1 = (sigma^2-1) log(sigma/rho) + (sigma^2-rho^2)/rho^2
    w2 = (sigma^2-rho^2) - (sigma^2-1) log(sigma/rho)
    G1 = (rho h_rho - i h_theta)/(1+rho^2) - 2 rho^2 h/(1+rho^2)^2
    G2 = (rho h_rho + i h_theta)/(1+rho^2) + 2 h/(1+rho^2)^2.

The left side uses closed-form circle sums.  The right side is a radial
Gauss-Legendre quadrature of the angular means of |G1|^2 and |G2|^2, each a
per-mode (Parseval) sum: two independent routes to one number.  w1 > 0
always, while w2 >= 0 exactly when sigma <= e, which is where the
thin-annulus lower bound comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _quad
from .annulus_core import (
    AnnulusMap, _check_radius, _inner_trace, _ring_modes)
from .circle_means import _mode_sums
from .nitsche_family import bound_margin
from .quadratic_forms import circle_functionals

__all__ = [
    "IdentityReport",
    "ThinAnnulusResult",
    "weight_first",
    "weight_second",
    "identity_lhs",
    "identity_rhs",
    "verify_identity",
    "thin_annulus_bound",
]


def _g_modes(m: AnnulusMap, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients of theta -> G1, G2 on the circles rho, shape
    rho.shape + (modes,), the log/constant mode first.  With s = 1 + rho^2
    and the _ring_modes of h, rho h_rho -+ i h_theta are 2 z h_z and
    2 conj(z) h_zbar (modes a0/2, ZH and a0/2, ZBH), so their terms are
    z h_z / (s/2) and conj(z) h_zbar / (s/2)."""
    h0, H, ZH, ZBH = _ring_modes(m, rho)
    r = np.asarray(rho, dtype=float)[..., None]
    s = 1.0 + r * r
    half_a0 = np.broadcast_to(m.log_a0 / 2.0, r.shape)
    h = np.concatenate((h0[..., None], H), axis=-1)
    G1 = np.concatenate((half_a0, ZH), axis=-1) / (s / 2.0) - 2.0 * r * r * h / s**2
    G2 = np.concatenate((half_a0, ZBH), axis=-1) / (s / 2.0) + 2.0 * h / s**2
    return G1, G2


def weight_first(sigma: float, rho) -> np.ndarray:
    """(sigma^2-1) log(sigma/rho) + (sigma^2-rho^2)/rho^2, positive on (1, sigma)."""
    rho = np.asarray(rho, dtype=float)
    return (sigma * sigma - 1.0) * np.log(sigma / rho) + (
        sigma * sigma - rho * rho
    ) / rho**2


def weight_second(sigma: float, rho) -> np.ndarray:
    """(sigma^2-rho^2) - (sigma^2-1) log(sigma/rho), nonnegative iff sigma <= e."""
    rho = np.asarray(rho, dtype=float)
    return (sigma * sigma - rho * rho) - (sigma * sigma - 1.0) * np.log(sigma / rho)


def identity_lhs(m: AnnulusMap, R_eval: float) -> tuple[float, tuple[float, float, float, float]]:
    """Left side at sigma = R_eval from closed-form circle sums.

    Term breakdown: (outer mean term, inner mean term, half-derivative term,
    log-weighted winding term).  The third term is (sigma^2-1) U'(1)/2, the
    derivative of the squared means; when |h| = 1 on the unit circle it is
    the literal mean of |h| d|h|/drho.
    """
    _check_radius(m, R_eval, "(1, R]", "R_eval")
    s2 = R_eval * R_eval
    U_R, _, _ = _mode_sums(m, R_eval)
    f = circle_functionals(m, 1.0)
    t1 = 2.0 * s2 / (s2 + 1.0) * float(U_R)
    t2 = -(s2 + 1.0) / 2.0 * f.U
    t3 = -(s2 - 1.0) * f.half_dU_at_1
    t4 = -(s2 - 1.0) * math.log(R_eval) * (f.winding_form - f.U)
    return t1 + t2 + t3 + t4, (t1, t2, t3, t4)


def identity_rhs(m: AnnulusMap, R_eval: float) -> tuple[float, tuple[float, float]]:
    """Right side at sigma = R_eval: two weighted double integrals over A(1, sigma).

    Angular means by Parseval, the sum of |G_n|^2 over the modes of _g_modes
    (what a trapezoid rule on more than 2N points gives), radial direction by
    adaptive composite Gauss-Legendre.
    """
    _check_radius(m, R_eval, "(1, R]", "R_eval")

    def weighted_ring_means(r: np.ndarray) -> np.ndarray:
        G1, G2 = _g_modes(m, r)
        return np.column_stack((
            2.0 * r * weight_first(R_eval, r) * np.sum(np.abs(G1) ** 2, axis=1),
            2.0 * r * weight_second(R_eval, r) * np.sum(np.abs(G2) ** 2, axis=1),
        ))

    int1, int2 = map(float, _quad.radial_integral(
        weighted_ring_means, 1.0, R_eval, rtol=1e-11))
    return int1 + int2, (int1, int2)


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the identity at one radius, with full breakdown."""

    R_eval: float
    lhs: float
    rhs: float
    residual: float
    lhs_terms: tuple[float, float, float, float]
    rhs_integrals: tuple[float, float]


def verify_identity(m: AnnulusMap, R_eval: float) -> IdentityReport:
    lhs, terms = identity_lhs(m, R_eval)
    rhs, ints = identity_rhs(m, R_eval)
    return IdentityReport(R_eval, lhs, rhs, lhs - rhs, terms, ints)


@dataclass(frozen=True)
class ThinAnnulusResult:
    """Margin sqrt(U(sigma)) - (sigma + 1/sigma)/2 with precondition flags.

    The margin is guaranteed nonnegative only when every flag is clear:
    sigma <= e (second weight nonnegative), a unimodular degree-1 inner
    trace (by annulus_core._inner_trace), and U'(1) >= 0.  Out-of-regime
    values are still reported so the failure modes can be charted.
    """

    sigma: float
    margin: float
    sigma_above_e: bool
    trace_not_unimodular: bool
    winding_not_one: bool
    negative_initial_slope: bool

    @property
    def preconditions_ok(self) -> bool:
        return not (
            self.sigma_above_e
            or self.trace_not_unimodular
            or self.winding_not_one
            or self.negative_initial_slope
        )


def thin_annulus_bound(m: AnnulusMap, sigma: float) -> ThinAnnulusResult:
    _check_radius(m, sigma, "(1, R]", "sigma")
    _, Ud_1, _ = _mode_sums(m, 1.0)
    winding, _, unimodular = _inner_trace(m)
    return ThinAnnulusResult(
        sigma=sigma,
        margin=bound_margin(m, sigma),
        sigma_above_e=sigma > math.e + 1e-15,
        trace_not_unimodular=not unimodular,
        winding_not_one=winding != 1,
        negative_initial_slope=float(Ud_1) < -1e-12,
    )
