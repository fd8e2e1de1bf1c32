"""Harmonic extensions to the unit disk and the boundary Jacobian-energy chain.

A boundary homeomorphism is stored as xi(theta) = theta + zeta(theta) with
zeta a real trigonometric polynomial; its Poisson extension is a one-sided
coefficient table f = sum_{n>=0} c_n z^n + sum_{n<0} c_n conj(z)^{|n|}.

The chain verified here:  integral over the boundary circle of |det Df|
>= Dirichlet energy of f over the disk >= twice the (signed) image area
= 2 pi.  The middle inequality comes from a double-integral functional of
xi that is nonnegative for increasing xi; its nonnegativity reduces, after
a plus/minus region split, to a two-variable inequality Psi(alpha, beta)
>= 0 on an explicit triangle-like region, also checked here by scanning.

Samples on the uniform grid theta_grid(M) are inverse FFTs
(_quad.circle_samples).  On that grid the plain functional's kernel depends
on (theta_i, alpha_j) through zeta_i - zeta_{i-j}, so its double trapezoid is
one circular correlation of zeta' e^{i zeta} with e^{i zeta}, O(M log M); the
rounding of that correlation is divided by 1 - cos alpha_j, most at the
first column.  A disk table is sampled at arbitrary (r, theta) by _disk_rings,
on the ring product annulus_core._rings_jet that also samples every annulus
table.  The dense series _circle_series serves zeta alone at arbitrary
angles: the split's Gauss-Legendre alpha nodes and scalar theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, TextIO

import numpy as np

from . import _quad
from .annulus_core import AnnulusMap, PolarJet, _rings_jet, _tokens, trace

__all__ = [
    "BoundaryHomeo",
    "DiskMap",
    "ChainResult",
    "SplitResult",
    "PsiReport",
    "BhmFormatError",
    "NonMonotoneError",
    "poisson_extend",
    "jacobian_energy_chain",
    "disk_area_quadrature",
    "boundary_normal_derivative",
    "normal_derivative_spectral",
    "lemma_functional",
    "lemma_functional_split",
    "psi_region_check",
    "random_boundary_homeo",
    "read_bhm",
    "write_bhm",
]


class BhmFormatError(ValueError):
    """Malformed BHM coefficient file."""


class NonMonotoneError(ValueError):
    """Boundary map fails the strict monotonicity check."""


def _one_minus_cos(x: np.ndarray) -> np.ndarray:
    # 2 sin^2(x/2) keeps full relative accuracy near x = 0
    return 2.0 * np.sin(0.5 * x) ** 2


def _circle_series(theta, ns: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] e^{i ns[k] theta} at each angle of theta."""
    theta = np.asarray(theta, dtype=float)
    return np.exp(1j * np.multiply.outer(theta, ns)) @ coeffs


def _require_ring_size(bdry: BoundaryHomeo, M: int) -> None:
    """Refuse trapezoid rings too coarse for the functionals of bdry: below
    4N + 8 points the means of a degree-N map are no longer exact."""
    floor = _quad.exact_ring_size(bdry.order)
    if M < floor:
        raise ValueError(f"ring of {M} points below {floor} for a degree-{bdry.order} map")


def _zeta_difference(bdry: BoundaryHomeo, theta, alpha: np.ndarray) -> np.ndarray:
    """zeta(theta) - zeta(theta - alpha) on the outer (theta, alpha) grid, in the
    separable form 2 Re sum_n z_n e^{in theta} (1 - e^{-in alpha})."""
    ns, zn = bdry._ns, bdry._zn  # type: ignore[attr-defined]
    shift = 1.0 - np.exp(-1j * np.multiply.outer(ns, alpha))
    return 2.0 * _circle_series(theta, ns, zn[:, None] * shift).real


@dataclass(frozen=True)
class BoundaryHomeo:
    """Increasing degree-1 circle map xi(theta) = theta + zeta(theta).

    ``zeta_coeffs`` maps n >= 0 to the coefficient of e^{in theta}; negative
    indices are implied by conjugate symmetry (zeta is real valued), so
    zeta(theta) = z_0 + sum_{n>=1} 2 Re(z_n e^{in theta}) with z_0 real.
    """

    zeta_coeffs: Mapping[int, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[int, complex] = {}
        for n, c in sorted(self.zeta_coeffs.items()):
            n = int(n)
            if n < 0:
                raise ValueError("store only n >= 0; negatives are conjugates")
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coefficient at n={n}")
            if n == 0 and abs(c.imag) > 1e-15 * max(1.0, abs(c.real)):
                raise ValueError("constant coefficient must be real")
            clean[n] = c.real + 0j if n == 0 else c
        object.__setattr__(self, "zeta_coeffs", MappingProxyType(clean))
        ns = np.array([n for n in sorted(clean) if n > 0], dtype=np.int64)
        object.__setattr__(self, "_ns", ns)
        object.__setattr__(
            self, "_zn", np.array([clean[n] for n in ns], dtype=complex)
        )

    @property
    def order(self) -> int:
        ns = self._ns  # type: ignore[attr-defined]
        return int(ns[-1]) if ns.size else 0

    def zeta(self, theta) -> np.ndarray:
        ns, zn = self._ns, self._zn  # type: ignore[attr-defined]
        z0 = self.zeta_coeffs.get(0, 0.0).real
        return z0 + 2.0 * _circle_series(theta, ns, zn).real

    def zeta_prime(self, theta) -> np.ndarray:
        ns, zn = self._ns, self._zn  # type: ignore[attr-defined]
        return 2.0 * _circle_series(theta, ns, 1j * ns * zn).real

    def _on_grid(self, M: int, derivative: int) -> np.ndarray:
        """zeta (derivative 0) or zeta' (derivative 1) on theta_grid(M), by one
        inverse FFT."""
        ns, zn = self._ns, self._zn  # type: ignore[attr-defined]
        z0 = self.zeta_coeffs.get(0, 0.0).real if derivative == 0 else 0.0
        return z0 + 2.0 * _quad.circle_samples(ns, (1j * ns) ** derivative * zn, M).real

    def xi(self, theta) -> np.ndarray:
        return np.asarray(theta, dtype=float) + self.zeta(theta)

    def xi_prime(self, theta) -> np.ndarray:
        return 1.0 + self.zeta_prime(theta)

    def is_monotone(self) -> bool:
        """xi' > 0 everywhere.  xi' has mean 1, so it is positive exactly when it
        has no zero; _quad.nonvanishing_samples decides that with the bound
        |xi''| <= sum 2 n^2 |z_n|, and an undecided xi' reads False."""
        lip = sum(2.0 * n * n * abs(c) for n, c in self.zeta_coeffs.items())
        return _quad.nonvanishing_samples(
            lambda M: 1.0 + self._on_grid(M, 1), lip, self.order)[1]

    def require_monotone(self) -> None:
        if not self.is_monotone():
            raise NonMonotoneError("xi' not proven positive on the circle")


@dataclass(frozen=True)
class DiskMap:
    """Harmonic map of the unit disk as a one-sided coefficient table.

    f(z) = sum_{n>=0} c_n z^n + sum_{n<0} c_n conj(z)^{|n|}; the boundary
    trace is sum c_n e^{in theta}.
    """

    coeffs: Mapping[int, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {int(n): complex(c) for n, c in sorted(self.coeffs.items())}
        for n, c in clean.items():
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coefficient at n={n}")
        object.__setattr__(self, "coeffs", MappingProxyType(clean))
        ns = np.array(sorted(clean), dtype=np.int64)
        object.__setattr__(self, "_ns", ns)
        object.__setattr__(
            self, "_c", np.array([clean[n] for n in ns], dtype=complex)
        )

    @property
    def order(self) -> int:
        ns = self._ns  # type: ignore[attr-defined]
        return int(np.max(np.abs(ns))) if ns.size else 0

    def mode_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._ns, self._c  # type: ignore[attr-defined]


def _disk_rings(f: DiskMap, r, theta) -> PolarJet:
    """The jet of f on the polar grid r_i e^{i theta_j}, r > 0, by the ring
    product of the annulus tables.  On |z| = r mode n of f is c_n r^|n|, of
    z f_z it is n c_n r^n (n > 0) and of conj(z) f_zbar |n| c_n r^|n| (n < 0);
    f has no log mode.  Each mode is a multiple of c_n r^|n|, so no product
    0 r^-n, which overflows near r = 0, is formed."""
    ns, c = f.mode_arrays()
    r = np.asarray(r, dtype=float)
    C = c * r[..., None] ** np.abs(ns)
    modes = (np.zeros(r.shape), C, np.maximum(ns, 0) * C, np.maximum(-ns, 0) * C)
    return _rings_jet(modes, ns, 0.0, r, np.asarray(theta, dtype=float))


def poisson_extend(bdry: BoundaryHomeo | AnnulusMap, N: int = 128) -> DiskMap:
    """Harmonic disk extension, computed spectrally.

    For an AnnulusMap the coefficients are the exact sums c_n = a_n + b_n of
    its inner trace, trace(m, 1.0); for a BoundaryHomeo the Fourier
    coefficients of e^{i xi} are taken by FFT and truncated at |n| <= N.
    """
    if isinstance(bdry, AnnulusMap):
        return DiskMap(coeffs={n: c for n, c in trace(bdry, 1.0).items() if c != 0 or n == 0})
    if N < 1:
        raise ValueError("truncation order must be >= 1")
    M = 1 << max(9, (8 * max(N, bdry.order) - 1).bit_length())
    vals = np.exp(1j * (_quad.theta_grid(M) + bdry._on_grid(M, 0)))
    spec = np.fft.fft(vals) / M
    return DiskMap(coeffs={n: complex(spec[n]) for n in range(-N, N + 1)})


@dataclass(frozen=True)
class ChainResult:
    """The three chained quantities plus the signed area diagnostic."""

    boundary_abs_det: float
    disk_energy: float
    twice_area: float
    signed_area: float
    sense_preserving: bool

    @property
    def chain_holds(self) -> bool:
        slack = 1e-8 * max(1.0, abs(self.boundary_abs_det))
        return (
            self.boundary_abs_det >= self.disk_energy - slack
            and self.disk_energy >= self.twice_area - slack
        )


def jacobian_energy_chain(f: DiskMap) -> ChainResult:
    """Boundary |det Df| integral, Dirichlet energy, and twice the signed area.

    Energy and area are closed modewise sums (2 pi sum |n||c_n|^2 and
    pi sum n |c_n|^2); the boundary term is an angular trapezoid of
    |Im(conj(f_rho) f_theta)| on the unit circle, which on the boundary
    equals |f_theta| d|f|/drho for unimodular traces, on max(16N + 32, 2048)
    points.  The traces f_rho and f_theta on that grid each come from one
    inverse FFT of their coefficients |n| c_n and i n c_n.
    """
    ns, c = f.mode_arrays()
    disk_energy = float(2.0 * math.pi * np.sum(np.abs(ns) * np.abs(c) ** 2))
    signed_area = float(math.pi * np.sum(ns * np.abs(c) ** 2))
    M = max(16 * f.order + 32, 2048)
    f_rho = _quad.circle_samples(ns, np.abs(ns) * c, M)
    f_theta = _quad.circle_samples(ns, 1j * ns * c, M)
    det_boundary = (np.conj(f_rho) * f_theta).imag
    boundary_abs_det = float(2.0 * math.pi * np.mean(np.abs(det_boundary)))
    return ChainResult(
        boundary_abs_det=boundary_abs_det,
        disk_energy=disk_energy,
        twice_area=2.0 * signed_area,
        signed_area=signed_area,
        sense_preserving=signed_area > 0.0,
    )


def disk_area_quadrature(f: DiskMap) -> float:
    """Independent 2-D quadrature of the signed area integral of det Df:
    the Jacobian of _disk_rings, angular trapezoid on max(4N + 8, 32) points
    of each ring."""
    theta = _quad.theta_grid(max(_quad.exact_ring_size(f.order), 32))
    return _quad.radial_integral(
        lambda r: 2.0 * np.pi * np.mean(_disk_rings(f, r, theta).jacobian, axis=1) * r,
        0.0, 1.0)


def boundary_normal_derivative(
    bdry: BoundaryHomeo, theta: float, M: int = 4096
) -> float:
    """d|f|/drho at e^{i theta} by the periodic singular integral.

    (1/2pi) integral over alpha of (1 - cos[xi(theta) - xi(theta-alpha)])
    / (1 - cos alpha); the alpha = 0 node takes the diagonal limit
    xi'(theta)^2.  Trapezoid in alpha is spectrally accurate because the
    extended integrand is smooth and periodic.  With c_n = z_n e^{in theta},
    zeta(theta) - zeta(theta - alpha) = 2 Re sum_n c_n (1 - e^{-in alpha}),
    so the alpha samples are one inverse FFT of the modes -n.
    """
    _require_ring_size(bdry, M)
    bdry.require_monotone()
    ns, zn = bdry._ns, bdry._zn  # type: ignore[attr-defined]
    c = zn * np.exp(1j * ns * theta)
    alpha = _quad.theta_grid(M)[1:]
    beta = alpha + 2.0 * (np.sum(c) - _quad.circle_samples(-ns, c, M)[1:]).real
    vals = np.empty(M)
    vals[0] = float(bdry.xi_prime(theta)) ** 2
    vals[1:] = _one_minus_cos(beta) / _one_minus_cos(alpha)
    return float(np.mean(vals))


def normal_derivative_spectral(f: DiskMap, theta: float) -> float:
    """Oracle for the singular integral: Re(conj(f) f_rho) on the boundary."""
    jet = _disk_rings(f, 1.0, theta)
    return float((np.conj(jet.value) * jet.d_rho).real)


def lemma_functional(bdry: BoundaryHomeo, M: int = 512) -> float:
    """The nonnegative double-integral functional of an increasing circle map.

    Integral over [0,2pi]^2 of (1 - cos[xi(theta) - xi(phi)]) /
    (1 - cos(theta - phi)) * (xi'(theta) - 1), written in the difference
    variable alpha = theta - phi and evaluated by an M x M double trapezoid;
    the alpha = 0 column takes the diagonal limit xi'(theta)^2.  Zero exactly
    for xi = theta + const.

    On theta_grid(M) the kernel depends on column j only through the shift
    i - j, so the double sum is one circular correlation: with E = e^{i zeta},
    sum_i zeta'_i cos(alpha_j + zeta_i - zeta_{i-j}) = Re(e^{i alpha_j} C_j),
    C = ifft(fft(zeta' E) conj(fft(E))), in O(M log M).  The rounding of C is
    divided by 1 - cos alpha_j, most at the first column (about (2 pi/M)^2 / 2),
    which the weight (2 pi/M)^2 cancels, so the result stays within about
    M eps max(1, |L|) of the dense double sum.
    """
    _require_ring_size(bdry, M)
    bdry.require_monotone()
    alpha = _quad.theta_grid(M)[1:]
    zp = bdry._on_grid(M, 1)
    E = np.exp(1j * bdry._on_grid(M, 0))
    C = np.fft.ifft(np.fft.fft(zp * E) * np.conj(np.fft.fft(E)))[1:]
    columns = (np.sum(zp) - (np.exp(1j * alpha) * C).real) / _one_minus_cos(alpha)
    return float((2.0 * np.pi / M) ** 2 * (np.sum(zp * (1.0 + zp) ** 2) + np.sum(columns)))


@dataclass(frozen=True)
class SplitResult:
    """Plus/minus region bookkeeping for the double-integral functional.

    A_plus and B_plus are taken over the band |alpha| <= pi/2 (where
    cos alpha >= 0); ``minus_combined`` is the Psi-kernel integral over
    pi/2 <= alpha <= 3pi/2.  ``total`` is their sum, equal to the plain
    functional; ``plus_lower_bound`` is the analytic floor of A_plus + B_plus
    (the band integral of 1 - cos beta), also nonnegative.
    """

    A_plus: float
    B_plus: float
    minus_combined: float
    plus_lower_bound: float

    @property
    def total(self) -> float:
        return self.A_plus + self.B_plus + self.minus_combined


def psi(alpha, beta) -> np.ndarray:
    """Psi(alpha, beta) = (1-cos a)(1-cos b) + (b - sin b) sin a."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return _one_minus_cos(alpha) * _one_minus_cos(beta) + (
        beta - np.sin(beta)
    ) * np.sin(alpha)


def lemma_functional_split(
    bdry: BoundaryHomeo, M: int = 512, panels: int = 32
) -> SplitResult:
    """Recompute the functional piecewise over the cos(alpha) sign regions.

    A_plus:  integral of cos(alpha) (1-cos beta)/(1-cos alpha) zeta'(theta)
    B_plus:  integral of (1-cos beta)/(1-cos alpha)    (post parts form)
    minus:   integral of Psi(alpha, beta)/(1-cos alpha)^2 over the band
             pi/2 <= alpha <= 3pi/2
    with beta = zeta(theta) - zeta(theta - alpha).  The theta direction is a
    periodic trapezoid; each alpha band uses composite Gauss-Legendre (nodes
    never hit the removable point alpha = 0).
    """
    _require_ring_size(bdry, M)
    if panels < 1:
        raise ValueError("need at least one Gauss-Legendre panel per band")
    bdry.require_monotone()
    theta = _quad.theta_grid(M)
    zp = bdry._on_grid(M, 1)

    a_nodes, a_wts = _quad.gauss_legendre_panels(-np.pi / 2, np.pi / 2, panels)
    one_minus_cos_beta = _one_minus_cos(_zeta_difference(bdry, theta, a_nodes))
    ratio = one_minus_cos_beta / _one_minus_cos(a_nodes)[None, :]
    theta_mean_Ap = np.mean(ratio * zp[:, None], axis=0)
    theta_mean_Bp = np.mean(ratio, axis=0)
    theta_mean_lb = np.mean(one_minus_cos_beta, axis=0)
    A_plus = float(2.0 * np.pi * np.dot(a_wts, np.cos(a_nodes) * theta_mean_Ap))
    B_plus = float(2.0 * np.pi * np.dot(a_wts, theta_mean_Bp))
    plus_lb = float(2.0 * np.pi * np.dot(a_wts, theta_mean_lb))

    m_nodes, m_wts = _quad.gauss_legendre_panels(np.pi / 2, 3 * np.pi / 2, panels)
    beta_m = _zeta_difference(bdry, theta, m_nodes)
    integrand = psi(m_nodes[None, :], beta_m) / _one_minus_cos(m_nodes)[None, :] ** 2
    minus = float(2.0 * np.pi * np.dot(m_wts, np.mean(integrand, axis=0)))
    return SplitResult(
        A_plus=A_plus,
        B_plus=B_plus,
        minus_combined=minus,
        plus_lower_bound=plus_lb,
    )


@dataclass(frozen=True)
class PsiReport:
    """Scan of Psi over pi/2 <= alpha <= 3pi/2, -alpha <= beta <= 2pi - alpha."""

    resolution: int
    min_value: float
    argmin: tuple[float, float]
    case1_decreasing: bool  # 1 - cos b + b - sin b decreasing on [-pi/2, 0]
    case2_decreasing: bool  # 2 - 2 cos b - b sin b decreasing on [-pi, -pi/2]
    case2_at_corner: float  # value at beta = -pi/2, equals 2 - pi/2


def psi_region_check(resolution: int = 1000) -> PsiReport:
    if resolution < 100:
        raise ValueError("resolution must be >= 100 per axis")
    alpha = np.linspace(np.pi / 2, 3 * np.pi / 2, resolution)
    t = np.linspace(0.0, 1.0, resolution)
    beta = -alpha[:, None] + 2.0 * np.pi * t[None, :]
    vals = psi(alpha[:, None], beta)
    flat = int(np.argmin(vals))
    i, j = np.unravel_index(flat, vals.shape)
    b1 = np.linspace(-np.pi / 2, 0.0, resolution)
    g1 = _one_minus_cos(b1) + b1 - np.sin(b1)
    b2 = np.linspace(-np.pi, -np.pi / 2, resolution)
    g2 = 2.0 * _one_minus_cos(b2) - b2 * np.sin(b2)
    return PsiReport(
        resolution=resolution,
        min_value=float(vals.min()),
        argmin=(float(alpha[i]), float(beta[i, j])),
        case1_decreasing=bool(np.all(np.diff(g1) <= 1e-14)),
        case2_decreasing=bool(np.all(np.diff(g2) <= 1e-14)),
        case2_at_corner=float(2.0 * _one_minus_cos(-np.pi / 2) - (np.pi / 2)),
    )


def random_boundary_homeo(rng: np.random.Generator, n_max: int = 4) -> BoundaryHomeo:
    """Seeded monotone circle map: |zeta'| < 0.9 enforced by the norm
    sum 2 n |z_n| <= 0.9."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    raw = {
        n: complex(rng.standard_normal(), rng.standard_normal()) / n**2
        for n in range(1, n_max + 1)
    }
    norm = sum(2.0 * n * abs(c) for n, c in raw.items())
    scale = 0.9 * rng.uniform(0.2, 1.0) / norm
    return BoundaryHomeo(zeta_coeffs={n: scale * c for n, c in raw.items()})


# -- BHM text format ---------------------------------------------------------
#
#   BHM 1
#   Z <n> <re> <im>        (n >= 0; negative indices implied by conjugation)


def write_bhm(bdry: BoundaryHomeo, fh: TextIO) -> None:
    fh.write("BHM 1\n")
    for n in sorted(bdry.zeta_coeffs):
        c = bdry.zeta_coeffs[n]
        fh.write(f"Z {n} {c.real:.17g} {c.imag:.17g}\n")


def read_bhm(fh: TextIO) -> BoundaryHomeo:
    lines = _tokens(fh)
    if not lines or lines[0] != ["BHM", "1"]:
        raise BhmFormatError("missing 'BHM 1' header")
    coeffs: dict[int, complex] = {}
    try:
        for fields in lines[1:]:
            if fields[0] != "Z" or len(fields) != 4:
                raise BhmFormatError(f"bad coefficient line: {' '.join(fields)}")
            n = int(fields[1])
            if n < 0 or n in coeffs:
                raise BhmFormatError(f"index {n} repeated or negative")
            coeffs[n] = complex(float(fields[2]), float(fields[3]))
        return BoundaryHomeo(zeta_coeffs=coeffs)
    except (IndexError, ValueError) as exc:
        if isinstance(exc, BhmFormatError):
            raise
        raise BhmFormatError(str(exc)) from exc
