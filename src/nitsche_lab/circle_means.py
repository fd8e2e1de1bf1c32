"""Circle averages of |h|^2 and the radial machinery built on them.

Everything radial about a coefficient table is a finite sum: U(rho), its
derivatives, the Dirichlet energy through Green's identity, and the
second-order operator L in its three equivalent forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _quad
from .annulus_core import AnnulusMap, _check_radius, evaluate, is_conformal

__all__ = [
    "RadialProfile",
    "QuadratureMean",
    "means_closed_form",
    "means_quadrature",
    "initial_speed",
    "energy_green",
    "energy_quadrature",
    "operator_L",
    "operator_L_conformal",
    "radial_profile",
]


@np.errstate(over="raise")
def _mode_sums(m: AnnulusMap, rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, U_dot, U_ddot) at rho (scalar or array), termwise closed forms.

    Per mode n: |a rho^n + b rho^-n|^2 = |a|^2 rho^2n + |b|^2 rho^-2n
    + 2 Re(a conj(b)); the cross term is rho-free.  The log/constant pair
    contributes |a0 log rho + b0|^2.  A sum beyond the float64 range raises
    FloatingPointError instead of returning inf.
    """
    rho = np.asarray(rho, dtype=float)
    ns, a, b = m.mode_arrays()
    sh = (-1,) + (1,) * rho.ndim
    lg = np.log(rho)
    aa, bb = abs(m.log_a0) ** 2, abs(m.log_b0) ** 2
    ab = (m.log_a0 * m.log_b0.conjugate()).real
    U = aa * lg**2 + 2.0 * ab * lg + bb
    U_dot = (2.0 * aa * lg + 2.0 * ab) / rho
    U_ddot = (2.0 * aa - 2.0 * aa * lg - 2.0 * ab) / rho**2
    if ns.size:
        n2 = (2 * ns).reshape(sh)
        nsb = ns.reshape(sh)
        cross = 2.0 * (a * b.conjugate()).real.reshape(sh)
        # half-power form (|a| rho^n)^2 keeps 0 * rho^n = 0 even when
        # rho^{2n} alone would overflow
        sa = (np.abs(a).reshape(sh)) * rho[None, ...] ** nsb
        sb = (np.abs(b).reshape(sh)) * rho[None, ...] ** (-nsb)
        pa, pb = sa * sa, sb * sb
        U = U + np.sum(pa + pb + cross, axis=0)
        U_dot = U_dot + np.sum(n2 * (pa - pb), axis=0) / rho
        U_ddot = (
            U_ddot + np.sum(n2 * (n2 - 1) * pa + n2 * (n2 + 1) * pb, axis=0) / rho**2
        )
    return U, U_dot, U_ddot


def _operator_L1(rho, U, U_dot, U_ddot):
    """L1 = U'' + (3 - rho^2)/(rho s) U' - 8 U/s^2 with s = rho^2 + 1."""
    s = rho * rho + 1.0
    return U_ddot + (3.0 - rho * rho) / (rho * s) * U_dot - 8.0 * U / s**2


def means_closed_form(m: AnnulusMap, rho: float) -> tuple[float, float, float]:
    """(U, U_dot, U_ddot) at rho in [1, R), exact finite sums."""
    _check_radius(m, rho)
    U, Ud, Udd = _mode_sums(m, rho)
    return float(U), float(Ud), float(Udd)


@dataclass(frozen=True)
class QuadratureMean:
    """Trapezoid estimate of U(rho) with an exactness flag."""

    value: float
    exact: bool  # M reached the trig-polynomial exactness threshold


def means_quadrature(m: AnnulusMap, rho: float, M: int) -> QuadratureMean:
    """Uniform M-point trapezoid average of |h|^2 on the circle of radius rho.

    Exact (to rounding) once M exceeds the degree of |h|^2, i.e. M >= 4N + 8.
    """
    _check_radius(m, rho)
    jet = evaluate(m, _quad.ring_grid(rho, M))
    value = float(np.mean(np.abs(jet.value) ** 2))
    return QuadratureMean(value=value, exact=M >= _quad.exact_ring_size(m.order))


def initial_speed(m: AnnulusMap) -> float:
    """d/drho sqrt(U) at rho = 1, the initial speed of the evolution of circles."""
    U, Ud, _ = _mode_sums(m, 1.0)
    if not U > 0.0:
        raise ValueError("initial speed undefined: U(1) = 0")
    return float(Ud / (2.0 * math.sqrt(U)))


def energy_green(m: AnnulusMap, rho: float) -> float:
    """Dirichlet energy over A(1, rho) via the Green identity pi*(rho U'(rho) - U'(1))."""
    _check_radius(m, rho, "(1, R]")
    _, Ud_rho, _ = _mode_sums(m, rho)
    _, Ud_1, _ = _mode_sums(m, 1.0)
    return float(math.pi * (rho * Ud_rho - Ud_1))


def energy_quadrature(m: AnnulusMap, rho: float) -> float:
    """Independent 2-D quadrature of the energy: radial Gauss-Legendre x angular
    trapezoid on max(4N + 8, 16) points."""
    _check_radius(m, rho, "(1, R]")
    M = max(_quad.exact_ring_size(m.order), 16)

    def ring(r: np.ndarray) -> np.ndarray:
        jet = evaluate(m, _quad.ring_grid(r, M))
        return 2.0 * np.pi * np.mean(jet.grad_norm_sq, axis=1) * r

    return _quad.radial_integral(ring, 1.0, rho)


def operator_L(m: AnnulusMap, rho: float, M: int | None = None) -> tuple[float, float, float]:
    """The critical-map operator L[U] computed three ways.

    L1: second-order closed form in (U, U', U'').
    L2: divergence form (rho^2+1)/rho^3 d/drho [rho^3 d/drho (U/(rho^2+1))],
        expanded analytically.
    L3: angular trapezoid of the first-derivative-only integrand, on
        max(M, 4N + 8, 16) points (a given M is a floor).

    rho may be any radius in [1, R), the inner circle included.
    """
    _check_radius(m, rho)
    U, Ud, Udd = _mode_sums(m, rho)
    s = rho * rho + 1.0
    L1 = float(_operator_L1(rho, U, Ud, Udd))

    # d/drho (U/s) and its derivative, kept in product-rule pieces
    V1 = Ud / s - 2.0 * rho * U / s**2
    V2 = Udd / s - 4.0 * rho * Ud / s**2 + (8.0 * rho * rho / s**3 - 2.0 / s**2) * U
    L2 = float((s / rho**3) * (3.0 * rho**2 * V1 + rho**3 * V2))

    M = max(M or 0, _quad.exact_ring_size(m.order), 16)
    jet = evaluate(m, _quad.ring_grid(rho, M))
    sq_rho = np.abs(jet.d_rho) ** 2
    sq_theta = np.abs(jet.d_theta) ** 2
    habs2_rho = 2.0 * (np.conj(jet.value) * jet.d_rho).real
    integrand = (
        2.0 * sq_rho
        + 2.0 * sq_theta / rho**2
        - 2.0 * (rho * rho - 1.0) / (rho * s) * habs2_rho
        - 8.0 * np.abs(jet.value) ** 2 / s**2
    )
    L3 = float(np.mean(integrand))
    return L1, L2, L3


def operator_L_conformal(m: AnnulusMap, rho: float) -> float:
    """Conformal-case operator (1/rho) d/drho [rho^3 d/drho (U/rho^2)].

    Returns the modewise sum 4 sum n(n-1)|a_n|^2 rho^{2n-2}, which is
    nonnegative and vanishes exactly for h = lambda z.
    """
    if not is_conformal(m):
        raise ValueError("operator_L_conformal requires a conformal (holomorphic) table")
    _check_radius(m, rho, "(1, R)")
    ns, a, _ = m.mode_arrays()
    if not ns.size:
        return 0.0
    return float(np.sum(4.0 * ns * (ns - 1) * np.abs(a) ** 2 * rho ** (2 * ns - 2)))


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial diagnostics of one map on an increasing rho grid."""

    rho_grid: np.ndarray
    U: np.ndarray
    U_dot: np.ndarray
    U_ddot: np.ndarray
    mean_radius: np.ndarray
    L_of_U: np.ndarray


def radial_profile(m: AnnulusMap, rho_grid: np.ndarray) -> RadialProfile:
    rho_grid = np.asarray(rho_grid, dtype=float)
    if np.any(np.diff(rho_grid) <= 0):
        raise ValueError("rho grid must be strictly increasing")
    _check_radius(m, rho_grid)
    U, Ud, Udd = _mode_sums(m, rho_grid)
    return RadialProfile(
        rho_grid=rho_grid,
        U=U,
        U_dot=Ud,
        U_ddot=Udd,
        mean_radius=np.sqrt(U),
        L_of_U=_operator_L1(rho_grid, U, Ud, Udd),
    )
