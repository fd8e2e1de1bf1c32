"""Harmonic maps of the normalized annulus A(1, R) as finite coefficient tables.

A map is stored as the finite sum

    h(z) = a0 * log|z| + b0 + sum_{n != 0} (a_n z^n + b_n conj(z)^{-n})

so every circle average of |h|^2 reduces to an exact finite sum.  All types
are immutable; every function here is pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, TextIO

import numpy as np

from . import _quad

__all__ = [
    "AnnulusMap",
    "PolarJet",
    "AnnulusDomainError",
    "CoefficientRangeError",
    "AhmFormatError",
    "evaluate",
    "evaluate_rings",
    "solve_dirichlet",
    "trace",
    "conformal_modulus",
    "is_conformal",
    "rotate",
    "random_annulus_map",
    "read_ahm",
    "write_ahm",
]

# R^n overflows float64 near n*log R ~ 709; stay well below.
MAX_N_LOG_R = 650.0


class AnnulusDomainError(ValueError):
    """Point outside the closed annulus 1 <= |z| <= R."""


class CoefficientRangeError(ValueError):
    """Coefficient table outside the supported numeric range."""


class AhmFormatError(ValueError):
    """Malformed AHM coefficient file."""


@dataclass(frozen=True)
class AnnulusMap:
    """Finite Fourier-Laurent coefficient table on A(1, R).

    ``terms`` maps a nonzero integer n to the pair (a_n, b_n); ``log_a0``
    and ``log_b0`` are the coefficients of log|z| and of the constant term.
    """

    R: float
    log_a0: complex = 0.0
    log_b0: complex = 0.0
    terms: Mapping[int, tuple[complex, complex]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.R):
            raise CoefficientRangeError(f"outer radius must be finite, got {self.R}")
        if not (self.R > 1.0):
            raise ValueError(f"outer radius must exceed 1, got {self.R}")
        clean: dict[int, tuple[complex, complex]] = {}
        for n, (a, b) in sorted(self.terms.items()):
            n = int(n)
            if n == 0:
                raise ValueError("index 0 belongs to the log/constant pair")
            a, b = complex(a), complex(b)
            if not (cmath.isfinite(a) and cmath.isfinite(b)):
                raise CoefficientRangeError(f"non-finite coefficient at n={n}")
            clean[n] = (a, b)
        for c in (self.log_a0, self.log_b0):
            if not cmath.isfinite(complex(c)):
                raise CoefficientRangeError("non-finite log/constant coefficient")
        if clean:
            n_max = max(abs(n) for n in clean)
            if n_max * math.log(self.R) > MAX_N_LOG_R:
                raise CoefficientRangeError(
                    f"N*log(R) = {n_max * math.log(self.R):.1f} exceeds "
                    f"the overflow cap {MAX_N_LOG_R}"
                )
        object.__setattr__(self, "log_a0", complex(self.log_a0))
        object.__setattr__(self, "log_b0", complex(self.log_b0))
        object.__setattr__(self, "terms", MappingProxyType(clean))
        ns = np.array(sorted(clean), dtype=np.int64)
        object.__setattr__(self, "_ns", ns)
        object.__setattr__(
            self, "_a", np.array([clean[n][0] for n in ns], dtype=complex)
        )
        object.__setattr__(
            self, "_b", np.array([clean[n][1] for n in ns], dtype=complex)
        )

    # -- convenience views -------------------------------------------------

    @property
    def order(self) -> int:
        """Truncation order N = max |n| over stored terms (0 if none)."""
        ns = self._ns  # type: ignore[attr-defined]
        return int(np.max(np.abs(ns))) if ns.size else 0

    def mode_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, a_n, b_n) as parallel arrays, n sorted ascending."""
        return self._ns, self._a, self._b  # type: ignore[attr-defined]


@dataclass(frozen=True)
class PolarJet:
    """Value and first derivatives of a harmonic map at one point (or grid)."""

    value: complex
    d_rho: complex
    d_theta: complex
    d_z: complex
    d_zbar: complex
    jacobian: float
    grad_norm_sq: float


def _check_radius(
    m: AnnulusMap, rho, interval: str = "[1, R)", name: str = "rho"
) -> None:
    """Raise AnnulusDomainError unless rho lies in interval, e.g. "(1, R]"; an
    array of radii is checked at its least and greatest points (NaN fails)."""
    r_lo, r_hi = (rho.min(), rho.max()) if getattr(rho, "ndim", 0) else (rho, rho)
    lo, hi = interval[0], interval[-1]
    lo_ok = r_lo >= 1.0 if lo == "[" else r_lo > 1.0
    hi_ok = r_hi <= m.R if hi == "]" else r_hi < m.R
    if not (lo_ok and hi_ok):
        bad = r_hi if lo_ok else r_lo
        raise AnnulusDomainError(f"{name}={bad} outside {lo}1, {m.R}{hi}")


def _polar_jet(value, z_hz, zb_hzb, rho, eit, scalar: bool) -> PolarJet:
    """The jet at points rho e^{i theta} from h, z h_z and conj(z) h_zbar
    there, eit = e^{i theta}: polar derivatives, Jacobian and |grad h|^2.

    The Wirtinger derivatives come in as their own termwise sums: forming
    h_zbar as (h_rho + i h_theta / rho) e^{i theta} / 2 cancels the a_n terms
    and loses about rho^2 of relative accuracy on a nearly holomorphic map.
    """
    d_z = z_hz / (rho * eit)
    d_zbar = zb_hzb * eit / rho
    d_rho = (z_hz + zb_hzb) / rho
    d_theta = 1j * (z_hz - zb_hzb)
    jac = np.abs(d_z) ** 2 - np.abs(d_zbar) ** 2
    grad = 2.0 * (np.abs(d_z) ** 2 + np.abs(d_zbar) ** 2)
    if scalar:
        return PolarJet(
            complex(value),
            complex(d_rho),
            complex(d_theta),
            complex(d_z),
            complex(d_zbar),
            float(jac),
            float(grad),
        )
    return PolarJet(value, d_rho, d_theta, d_z, d_zbar, jac, grad)


def _ring_modes(m: AnnulusMap, rho):
    """Modes of a table on the circles |z| = rho (any shape), each on a new
    last axis in mode_arrays() order: (h0, H, ZH, ZBH) with h0 = a0 log rho
    + b0, H = a_n rho^n + b_n rho^-n the modes of h, ZH = n a_n rho^n those of
    z h_z and ZBH = -n b_n rho^-n those of conj(z) h_zbar; mode 0 of both
    derivatives is a0/2.  The one place these modes are formed; only
    circle_means._mode_sums, the independent route to U, has its own."""
    ns, a, b = m.mode_arrays()
    r = np.asarray(rho, dtype=float)
    A = a * r[..., None] ** ns
    B = b * r[..., None] ** (-ns)
    return m.log_a0 * np.log(r) + m.log_b0, A + B, ns * A, -ns * B


def evaluate(m: AnnulusMap, z) -> PolarJet:
    """Evaluate h and its polar/Wirtinger derivatives at z (scalar or array).

    Closed-form termwise differentiation; exact up to rounding.
    """
    z_arr = np.asarray(z, dtype=complex)
    rho = np.abs(z_arr)
    slack = 1e-12 * max(1.0, m.R)
    if not np.all((rho >= 1.0 - slack) & (rho <= m.R + slack)):  # NaN fails
        raise AnnulusDomainError(
            f"|z| outside [1, {m.R}]: range [{rho.min()}, {rho.max()}]"
        )
    theta = np.angle(z_arr)
    h0, H, ZH, ZBH = _ring_modes(m, rho)
    ph = np.exp(1j * np.multiply.outer(theta, m.mode_arrays()[0]))
    value = h0 + np.einsum("...k,...k->...", H, ph)
    z_hz = m.log_a0 / 2.0 + np.einsum("...k,...k->...", ZH, ph)
    zb_hzb = m.log_a0 / 2.0 + np.einsum("...k,...k->...", ZBH, ph)
    return _polar_jet(value, z_hz, zb_hzb, rho, np.exp(1j * theta), z_arr.ndim == 0)


def evaluate_rings(m: AnnulusMap, rho, theta) -> PolarJet:
    """evaluate on the polar grid rho_i e^{i theta_j}, shaped
    rho.shape + theta.shape; rho (scalar or array) must lie in [1, R] and
    theta be finite."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    _check_radius(m, rho, "[1, R]")
    if not np.all(np.isfinite(theta)):
        raise AnnulusDomainError("non-finite angle theta")
    return _rings_jet(_ring_modes(m, rho), m.mode_arrays()[0], m.log_a0 / 2.0, rho, theta)


def _rings_jet(modes, ns: np.ndarray, half_a0: complex, rho: np.ndarray,
               theta: np.ndarray) -> PolarJet:
    """The jet on the polar grid rho_i e^{i theta_j} from the per-circle modes
    (h0, H, ZH, ZBH) of exponents ns, as _ring_modes returns them, with
    half_a0 the mode 0 of both derivatives.  The one ring synthesis of either
    table kind: each mode is a column per radius times e^{i n theta} per
    angle, so h, z h_z and conj(z) h_zbar are each one (radii x modes) @
    (modes x angles) product instead of a sum over a (modes x radii x angles)
    table."""
    h0, H, ZH, ZBH = modes
    ph = np.exp(1j * np.multiply.outer(ns, theta))
    r = rho.reshape(rho.shape + (1,) * theta.ndim)  # broadcasts over the angles
    value = np.tensordot(H, ph, 1) + np.reshape(h0, r.shape)
    z_hz = np.tensordot(ZH, ph, 1) + half_a0
    zb_hzb = half_a0 + np.tensordot(ZBH, ph, 1)
    return _polar_jet(value, z_hz, zb_hzb, r, np.exp(1j * theta),
                      rho.ndim == 0 and theta.ndim == 0)


def trace(m: AnnulusMap, rho: float) -> dict[int, complex]:
    """Fourier coefficients of theta -> h(rho e^{i theta})."""
    _check_radius(m, rho, "[1, R]")
    h0, H, _, _ = _ring_modes(m, rho)
    return {0: complex(h0), **dict(zip(m.mode_arrays()[0].tolist(), H.tolist()))}


def _inner_trace(m: AnnulusMap) -> tuple[int, float, bool]:
    """(degree, min |h|, unimodular) of theta -> h(e^{i theta}) on the samples
    of _quad.nonvanishing_samples, |h'| <= sum |n c_n|.  The degree sums the
    argument increments if h is proven nonvanishing and is 0 if undecided;
    unimodular is _is_unimodular over the (at least 4N + 8) samples."""
    _, _, ZH, ZBH = _ring_modes(m, 1.0)
    lip = float(np.sum(np.abs(ZH - ZBH)))  # n c_n = ZH - ZBH on |z| = 1
    values, proven = _quad.nonvanishing_samples(
        lambda M: evaluate(m, np.exp(1j * _quad.theta_grid(M))).value, lip, m.order)
    args = np.angle(np.append(values, values[0]))
    turns = float(np.sum(np.mod(np.diff(args) + np.pi, 2.0 * np.pi) - np.pi)) / (2 * math.pi)
    degree = int(round(turns)) if proven else 0
    return degree, float(np.abs(values).min()), _is_unimodular(values)


def _is_unimodular(values: np.ndarray) -> bool:
    """max ||h| - 1| <= 1e-9 over samples of a trace."""
    return bool(np.max(np.abs(np.abs(values) - 1.0)) <= 1e-9)


def _trace_is_unimodular(m: AnnulusMap) -> bool:
    """_is_unimodular on the first ring of _inner_trace's sampler, from one
    evaluate: the flag without the doubling search for a proof."""
    M = _quad.first_ring_size(m.order)
    return _is_unimodular(evaluate(m, np.exp(1j * _quad.theta_grid(M))).value)


def solve_dirichlet(
    inner: Mapping[int, complex], outer: Mapping[int, complex], R: float
) -> AnnulusMap:
    """Two-circle Dirichlet solve: boundary Fourier data -> coefficient table.

    Per mode n != 0 inverts  a_n + b_n = c_in,  a_n R^n + b_n R^{-n} = c_out;
    the n = 0 pair gives b0 = c0_in and a0 = (c0_out - c0_in)/log R.  Modes
    are solved in scaled unknowns to avoid cancellation for large n*log R.
    """
    if R <= 1.0:
        raise ValueError(f"outer radius must exceed 1, got {R}")
    if set(inner) != set(outer):
        raise ValueError("inner and outer data must share one index range")
    log_a0 = 0.0 + 0.0j
    log_b0 = 0.0 + 0.0j
    terms: dict[int, tuple[complex, complex]] = {}
    for n in inner:
        cin, cout = complex(inner[n]), complex(outer[n])
        if n == 0:
            log_b0 = cin
            log_a0 = (cout - cin) / math.log(R)
            continue
        t = R ** (-abs(n))  # always <= 1: no overflow, no cancellation
        # the coefficient of R^{|n|} (a_n for n > 0, b_n for n < 0), then the other
        grow = (cout * t - cin * t * t) / (1.0 - t * t)
        decay = (cin - cout * t) / (1.0 - t * t)
        terms[n] = (grow, decay) if n > 0 else (decay, grow)
    return AnnulusMap(R=R, log_a0=log_a0, log_b0=log_b0, terms=terms)


def conformal_modulus(m: AnnulusMap) -> float:
    """Conformal modulus of the domain annulus, log R."""
    return math.log(m.R)


def is_conformal(m: AnnulusMap) -> bool:
    """True iff the table is holomorphic: a0 = 0 and every b_n = 0.

    The comparison is relative, to 1e-12 of max |a_n|; the all-zero map is
    reported as conformal (degenerate constant map).
    """
    _, a, b = m.mode_arrays()
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    anti = max(
        abs(m.log_a0), float(np.max(np.abs(b))) if b.size else 0.0
    )
    return anti <= 1e-12 * scale


def rotate(m: AnnulusMap, alpha: float) -> AnnulusMap:
    """Post-compose with the rotation e^{i alpha}."""
    w = cmath.exp(1j * alpha)
    return AnnulusMap(
        R=m.R,
        log_a0=w * m.log_a0,
        log_b0=w * m.log_b0,
        terms={n: (w * a, w * b) for n, (a, b) in m.terms.items()},
    )


def random_annulus_map(
    rng: np.random.Generator,
    n_max: int = 8,
    R: float = 2.0,
    decay: float = 2.0,
    log_scale: float = 0.0,
) -> AnnulusMap:
    """Seeded smooth test map: a_n, b_n complex Gaussian scaled by |n|^-decay."""
    terms: dict[int, tuple[complex, complex]] = {}
    for n in range(-n_max, n_max + 1):
        if n == 0:
            continue
        s = abs(n) ** (-decay)
        a = s * complex(rng.standard_normal(), rng.standard_normal())
        b = s * complex(rng.standard_normal(), rng.standard_normal())
        terms[n] = (a, b)
    a0 = log_scale * complex(rng.standard_normal(), rng.standard_normal())
    b0 = log_scale * complex(rng.standard_normal(), rng.standard_normal())
    return AnnulusMap(R=R, log_a0=a0, log_b0=b0, terms=terms)


# -- AHM text format -------------------------------------------------------
#
#   AHM 1
#   R <decimal>
#   LOG <a0_re> <a0_im> <b0_re> <b0_im>
#   C <n> <an_re> <an_im> <bn_re> <bn_im>     (zero or more, distinct n != 0)
#
# '#' starts a comment; numbers round-trip 17 significant digits.


def write_ahm(m: AnnulusMap, fh: TextIO) -> None:
    fh.write("AHM 1\n")
    fh.write(f"R {m.R:.17g}\n")
    fh.write(
        f"LOG {m.log_a0.real:.17g} {m.log_a0.imag:.17g} "
        f"{m.log_b0.real:.17g} {m.log_b0.imag:.17g}\n"
    )
    for n in sorted(m.terms):
        a, b = m.terms[n]
        fh.write(
            f"C {n} {a.real:.17g} {a.imag:.17g} {b.real:.17g} {b.imag:.17g}\n"
        )


def _tokens(fh: TextIO) -> list[list[str]]:
    """Fields of each nonblank line of a coefficient file, '#' comments removed."""
    return [body.split() for raw in fh if (body := raw.split("#", 1)[0].strip())]


def read_ahm(fh: TextIO) -> AnnulusMap:
    lines = _tokens(fh)
    if not lines or lines[0] != ["AHM", "1"]:
        raise AhmFormatError("missing 'AHM 1' header")
    if len(lines) < 3 or lines[1][0] != "R" or lines[2][0] != "LOG":
        raise AhmFormatError("expected 'R' then 'LOG' lines after header")
    try:
        R = float(lines[1][1])
        a0 = complex(float(lines[2][1]), float(lines[2][2]))
        b0 = complex(float(lines[2][3]), float(lines[2][4]))
        terms: dict[int, tuple[complex, complex]] = {}
        for fields in lines[3:]:
            if fields[0] != "C" or len(fields) != 6:
                raise AhmFormatError(f"bad coefficient line: {' '.join(fields)}")
            n = int(fields[1])
            if n == 0 or n in terms:
                raise AhmFormatError(f"index {n} repeated or zero")
            terms[n] = (
                complex(float(fields[2]), float(fields[3])),
                complex(float(fields[4]), float(fields[5])),
            )
    except (IndexError, ValueError) as exc:
        if isinstance(exc, AhmFormatError):
            raise
        raise AhmFormatError(str(exc)) from exc
    return AnnulusMap(R=R, log_a0=a0, log_b0=b0, terms=terms)
