"""Per-mode quadratic forms and the large-modulus certificate.

The certificate combines six closed-form circle functionals of a map into a
single number that, for rho >= sqrt(7), is a sum of per-mode quadratic forms
Q_n(a_n, b_n) with explicitly known coefficients A_n, B_n, C_n.  Two
independent computations of that number (functional combination vs. modewise
sum) are exposed side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annulus_core import (
    AnnulusDomainError, AnnulusMap, _check_radius, _ring_modes, _trace_is_unimodular)
from .circle_means import _mode_sums

__all__ = [
    "SQRT7",
    "QFormEval",
    "CircleFunctionals",
    "CertificateResult",
    "ScanReport",
    "circle_functionals",
    "qform_coefficients",
    "qform_value",
    "positivity_scan",
    "prop52_certificate",
    "qform_decomposition",
]

SQRT7 = math.sqrt(7.0)


@dataclass(frozen=True)
class CircleFunctionals:
    """The six closed-form sums entering the certificate.

    ``half_dU_at_1`` is (1/2) d/drho of the mean of |h|^2 at rho = 1, equal
    to the circle mean of |h| d|h|/drho when |h| = 1 on the unit circle.
    ``boundary_det_Df`` and ``disk_energy`` refer to the harmonic disk
    extension f with c_n = a_n + b_n.
    """

    U: float
    half_dU_at_1: float
    winding_form: float
    mean_jacobian: float
    boundary_det_Df: float
    disk_energy: float


def circle_functionals(m: AnnulusMap, rho: float) -> CircleFunctionals:
    """Evaluate all six functionals at radius rho, exact finite sums."""
    _check_radius(m, rho)
    ns, a, b = m.mode_arrays()
    U, U_dot, _ = _mode_sums(m, np.array([rho, 1.0]))
    psum = np.abs(_ring_modes(m, 1.0)[1]) ** 2  # |c_n|^2, c_n = a_n + b_n
    pdiff = np.abs(a) ** 2 - np.abs(b) ** 2
    return CircleFunctionals(
        U=float(U[0]),
        half_dU_at_1=float(U_dot[1] / 2.0),
        winding_form=float(np.sum(ns * psum)),
        mean_jacobian=float(np.sum(ns.astype(float) ** 2 * pdiff)),
        boundary_det_Df=float(np.sum(ns * np.abs(ns) * psum)),
        disk_energy=float(2.0 * math.pi * np.sum(np.abs(ns) * psum)),
    )


@dataclass(frozen=True)
class QFormEval:
    """Coefficients of Q_n(xi, zeta) = A|xi|^2 + B|zeta|^2 + 2C Re(xi conj(zeta))."""

    n: int
    rho: float
    A: float
    B: float
    C: float

    @property
    def discriminant(self) -> float:
        return self.A * self.B - self.C * self.C


def _radial_weights(rho):
    """p = (rho + 1/rho)^2 / 4 and w = rho^2 - 4 - rho^-2, scalar or array."""
    return 0.25 * (rho + 1.0 / rho) ** 2, rho * rho - 4.0 - rho ** (-2)


def _general_abc(n, rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A_n, B_n, C_n by the formulas for n outside {0, 1}.

    n and rho are numbers or arrays that broadcast together.  The term
    (n^2 - n/2) w goes to A for n > 0 and to B for n < 0, and n w/2 to the
    other one; C carries sign(n) (n^2 - n) w/2.  Raises an ArithmeticError
    (OverflowError or FloatingPointError) when rho^{2|n|} overflows.
    """
    with np.errstate(over="raise"):
        p, w = _radial_weights(rho)
        pos = n > 0
        big = 0.5 * (2.0 * n * n - n) * w
        small = 0.5 * n * w
        A = rho ** (2 * n) - n * p - 2.0 * n - np.where(pos, big, small)
        B = rho ** (-2 * n) - n * p + 2.0 * n + np.where(pos, small, big)
        C = 1.0 - n * p - np.sign(n) * 0.5 * (n * n - n) * w
    return A, B, C


def qform_coefficients(n: int, rho: float) -> QFormEval:
    """A_n, B_n, C_n at radius rho, every index case.

    Positivity of the forms is only guaranteed for rho >= sqrt(7); the
    coefficients themselves are defined for any finite rho > 1.  Raises an
    ArithmeticError where they overflow float64.
    """
    if not 1.0 < rho < math.inf:
        raise AnnulusDomainError(f"rho must lie in (1, inf), got {rho}")
    if n == 0:
        lg = math.log(rho)
        A, B, C = lg * lg, 1.0, lg - 1.0
    elif n == 1:
        k = (rho * rho - 1.0) ** 2 / (4.0 * rho * rho)
        A, B, C = k, k, -k
    else:
        A, B, C = (float(x) for x in _general_abc(n, rho))
    return QFormEval(n=n, rho=rho, A=A, B=B, C=C)


def qform_value(q: QFormEval, xi: complex, zeta: complex) -> float:
    return (
        q.A * abs(xi) ** 2
        + q.B * abs(zeta) ** 2
        + 2.0 * q.C * (xi * complex(zeta).conjugate()).real
    )


@dataclass(frozen=True)
class ScanReport:
    """Minima of the coefficient scan over n not in {0, 1}."""

    n_lo: int
    n_hi: int
    rho_lo: float
    rho_hi: float
    min_A: float
    min_B: float
    min_discriminant: float
    argmin_discriminant: tuple[int, float]
    positive_bound_ok: bool  # B_n >= n rho^2 / 7 for n >= 2
    negative_bound_ok: bool  # B_{-m} > (49/48) m^3 rho^2 for m >= 2
    all_positive: bool


def positivity_scan(
    n_lo: int = -40, n_hi: int = 40, rho_grid: np.ndarray | None = None
) -> ScanReport:
    """Scan A_n, B_n, A_n B_n - C_n^2 over an (n, rho) grid of finite
    rho >= sqrt(7); ValueError for any other grid point (NaN included)."""
    if rho_grid is None:
        rho_grid = np.arange(SQRT7, 25.0 + 1e-9, 1e-2)
    rho_grid = np.asarray(rho_grid, dtype=float)
    if not np.all((rho_grid >= SQRT7 - 1e-12) & (rho_grid < np.inf)):  # NaN fails
        raise ValueError("scan grid must be finite and satisfy rho >= sqrt(7)")
    ns = np.array([n for n in range(n_lo, n_hi + 1) if n not in (0, 1)])
    r = rho_grid[None, :]
    n = ns[:, None].astype(float)
    A, B, C = _general_abc(n, r)
    disc = A * B - C * C
    flat = int(np.argmin(disc))
    i, j = np.unravel_index(flat, disc.shape)
    pos_rows = ns >= 2
    neg_rows = ns <= -2
    pos_ok = bool(np.all(B[pos_rows] >= n[pos_rows] * r**2 / 7.0 - 1e-9))
    m = -n[neg_rows]
    neg_ok = bool(np.all(B[neg_rows] > (49.0 / 48.0) * m**3 * r**2))
    min_A = float(A.min())
    min_B = float(B.min())
    min_disc = float(disc.min())
    return ScanReport(
        n_lo=n_lo,
        n_hi=n_hi,
        rho_lo=float(rho_grid[0]),
        rho_hi=float(rho_grid[-1]),
        min_A=min_A,
        min_B=min_B,
        min_discriminant=min_disc,
        argmin_discriminant=(int(ns[i]), float(rho_grid[j])),
        positive_bound_ok=pos_ok,
        negative_bound_ok=neg_ok,
        all_positive=min_A > 0 and min_B > 0 and min_disc > 0,
    )


@dataclass(frozen=True)
class CertificateResult:
    """The certificate value with regime flags.

    ``value`` is the functional combination; below rho = sqrt(7) the sign
    guarantee does not apply and ``below_sqrt7`` is set.  When the inner
    trace is not unimodular the half-derivative term implements
    (1/2) d/drho of the mean of |h|^2 rather than the literal product mean,
    flagged by ``trace_not_unimodular`` (annulus_core._trace_is_unimodular).
    """

    value: float
    rho: float
    below_sqrt7: bool
    trace_not_unimodular: bool


def prop52_certificate(m: AnnulusMap, rho: float) -> CertificateResult:
    """Left-hand side of the large-modulus inequality at radius rho.

    U(rho) minus the weighted unit-circle functionals and the disk
    Jacobian/energy gap; equals the modewise sum qform_decomposition(m, rho)
    identically, and is nonnegative for rho >= sqrt(7).
    """
    f = circle_functionals(m, rho)
    p, w = _radial_weights(rho)
    # [integral of det Df over T] - [disk energy] = 2 pi (sum n|n||c|^2) - disk_energy
    gap = 2.0 * math.pi * f.boundary_det_Df - f.disk_energy
    value = (
        f.U
        - p * f.winding_form
        - 2.0 * f.half_dU_at_1
        - 0.5 * w * f.mean_jacobian
        - w / (4.0 * math.pi) * gap
    )
    return CertificateResult(
        value=float(value),
        rho=rho,
        below_sqrt7=rho < SQRT7,
        trace_not_unimodular=not _trace_is_unimodular(m),
    )


def qform_decomposition(m: AnnulusMap, rho: float) -> float:
    """Independent route: sum of Q_n(a_n, b_n) over all stored modes."""
    total = qform_value(qform_coefficients(0, rho), m.log_a0, m.log_b0)
    for n, (a, b) in m.terms.items():
        total += qform_value(qform_coefficients(n, rho), a, b)
    return float(total)
