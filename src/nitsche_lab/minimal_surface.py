"""Isothermal lifts of harmonic annulus maps to minimal graphs.

A harmonic h = u + iv lifts to a minimal graph (u, v, w) exactly when the
third coordinate w solves the conformality equation u_z^2 + v_z^2 + w_z^2
= 0, i.e. w_z^2 = -phi with phi = h_z * conj(h_zbar).  phi is holomorphic
on the annulus (product of two holomorphic factors), so a continuous branch
of sqrt(phi) exists iff every zero of phi has even order and the branch
closes around the annulus.  We fix w_z = -i sqrt(phi) with the branch
continued from the principal square root at z = 1 and the gauge w(1) = 0;
this makes the critical-family lift come out as w = sqrt(1-v^2) log|z|,
the catenoid slab for v = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _quad
from .annulus_core import AnnulusMap, evaluate

__all__ = [
    "MinimalLift",
    "NoLiftError",
    "BranchError",
    "lift",
    "phi_zeros",
    "catenoid_modulus",
    "modulus_bound_check",
    "second_dilatation",
]


class NoLiftError(ValueError):
    """phi has an odd-order zero in the annulus: no continuous sqrt branch."""


class BranchError(ValueError):
    """Branch tracking failed to close, or w is multivalued around the hole."""


def _laurent_factors(m: AnnulusMap) -> tuple[np.ndarray, np.ndarray, int]:
    """Laurent coefficient arrays of h_z and conj(h_zbar) as functions of z.

    Both factors have exponents in [-(N+1), N-1]; returned arrays are indexed
    by exponent + (N+1), together with the offset N+1.
    """
    N = max(m.order, 1)
    size = 2 * N + 1
    P = np.zeros(size, dtype=complex)  # h_z
    Q = np.zeros(size, dtype=complex)  # conj(h_zbar)
    off = N + 1
    P[off - 1] += m.log_a0 / 2.0  # exponent -1
    Q[off - 1] += m.log_a0.conjugate() / 2.0
    for n, (a, b) in m.terms.items():
        P[off + n - 1] += n * a  # n a_n z^{n-1}
        Q[off - n - 1] += -n * b.conjugate()  # -n conj(b_n) z^{-n-1}
    return P, Q, off


def phi_zeros(m: AnnulusMap) -> list[tuple[complex, int]]:
    """Zeros of phi inside the closed annulus with multiplicities.

    Returns [] for phi identically zero (conformal or antiholomorphic h,
    flat lift).  Roots come from the two polynomial factors z^{N+1} h_z and
    z^{N+1} conj(h_zbar); a root within 1e-9 of the annulus counts as inside,
    and clusters within 1e-6 are merged into one zero with summed
    multiplicity.
    """
    P, Q, _ = _laurent_factors(m)
    roots: list[complex] = []
    for coef in (P, Q):
        if not np.any(np.abs(coef) > 0):
            return []
        # numpy poly order is highest degree first
        c = coef[::-1].copy()
        lead = int(np.argmax(np.abs(c) > 0))
        c = c[lead:]
        if c.size > 1:
            roots.extend(np.roots(c))
    inside = [r for r in roots if 1.0 - 1e-9 <= abs(r) <= m.R + 1e-9]
    clusters: list[list[complex]] = []
    for r in inside:
        for cl in clusters:
            if abs(r - cl[0]) < 1e-6 * max(1.0, abs(r)):
                cl.append(r)
                break
        else:
            clusters.append([r])
    return [(complex(np.mean(cl)), len(cl)) for cl in clusters]


def _march_branch(phi_vals: np.ndarray, start) -> np.ndarray:
    """Continue sqrt(phi) along axis 0 from a branch value start (a scalar,
    or one value per column, with 0 read as 1), in one whole-array pass.

    Each live (nonzero) row p_k of the principal sqrt is compared with its
    reference, the last live row before it or start: it flips relative to
    the reference's sign when Re(p_k conj(ref)) < 0, keeps it when > 0, and
    restarts unflipped when the product is 0 or nan.  Negation is exact, so
    comparing unflipped values decides the same, and the sign of each row
    is the cumulative XOR of the flips since the last restart.  Dead rows
    (0 or nan) are left as the principal sqrt and carry no sign.
    """
    p = np.sqrt(phi_vals)
    flat = p.reshape(p.shape[0], -1)
    first = np.broadcast_to(np.asarray(start, dtype=complex), flat.shape[1:]).copy()
    first[first == 0] = 1.0
    live = np.abs(flat) > 0
    rows = np.arange(flat.shape[0])[:, None]
    if live.all():
        ref = np.concatenate([first[None], flat[:-1]])
    else:
        prev = np.concatenate([first[None], flat])  # prev[k] precedes row k
        held = np.concatenate([np.ones_like(live[:1]), live[:-1]])  # prev[k] live
        last = np.maximum.accumulate(np.where(held, rows, 0), axis=0)
        ref = np.take_along_axis(prev, last, axis=0)
    # Re(flat conj(ref)), formed in ref's buffer: one path-sized temporary
    dot = np.multiply(flat, np.conjugate(ref, out=ref), out=ref).real
    odd = np.logical_xor.accumulate(dot < 0.0, axis=0)
    restart = live & ~(dot < 0.0) & ~(dot > 0.0)
    if restart.any():
        last = np.maximum.accumulate(np.where(restart, rows, -1), axis=0)
        odd ^= np.take_along_axis(odd, np.maximum(last, 0), axis=0) & (last >= 0)
    np.negative(flat, out=flat, where=odd & live)
    return flat.reshape(p.shape)


def _zero_free_branch(m: AnnulusMap, zeros, z: np.ndarray, start=None):
    """(jet, phi, g, q g) along a path z (axis 0), from one evaluate.

    g continues sqrt(phi / q^2) with q = prod (z - z0)^(k/2) over the known
    zeros of phi, so the march follows the zero-free quotient through them,
    and q g continues sqrt(phi) (0 where q = 0).  start is g at z[0], or None
    for the g that makes q g the principal sqrt(phi) at z[0].
    """
    jet = evaluate(m, z)
    phi = jet.d_z * np.conj(jet.d_zbar)
    q = np.ones_like(z)
    for z0, k in zeros:
        q = q * (z - z0) ** (k // 2)
    q2 = q * q
    zero = q2 == 0
    quotient = np.where(zero, 0.0, phi / np.where(zero, 1.0, q2))
    if start is None:
        start = _principal_start(complex(phi[0])) / q[0] if q[0] else 0.0
    g = _march_branch(quotient, start)
    return jet, phi, g, q * g


def _node_path(coarse: np.ndarray, end: float, panels: int):
    """(path, weights): each coarse point followed by the Gauss-Legendre nodes
    of its interval (equal panels each), then end; path[::K + 1] is the
    coarse grid and end, weights has shape (intervals, K)."""
    n = coarse.size
    nodes, weights = _quad.gauss_legendre_panels(coarse[0], end, n * panels)
    path = np.column_stack([coarse, nodes.reshape(n, -1)]).ravel()
    return np.append(path, end), weights.reshape(n, -1)


def _running_integral(first, f: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """first + integral of f (sampled on a _node_path) up to each coarse point."""
    n, K = weights.shape
    inner = f[:-1].reshape((n, K + 1) + f.shape[1:])[:, 1:]
    steps = np.einsum("ik,ik...->i...", weights, inner)
    return np.cumsum(np.concatenate([np.asarray(first)[None], steps]), axis=0)


def _dilatation(d_z: np.ndarray, d_zbar: np.ndarray) -> np.ndarray:
    """conj(h_zbar)/h_z on a grid, nan where h_z = 0."""
    hz_ok = np.abs(d_z) > 0
    return np.where(hz_ok, np.conj(d_zbar) / np.where(hz_ok, d_z, 1.0), np.nan + 0j)


def _principal_start(phi0: complex) -> complex:
    """Principal sqrt with rounding noise in the imaginary part snapped away.

    A calibration point sitting on the negative real axis (the sqrt branch
    cut) would otherwise pick an arbitrary noise-dependent sign.
    """
    if abs(phi0.imag) <= 1e-12 * abs(phi0):
        phi0 = complex(phi0.real, 0.0)
    return complex(np.sqrt(phi0))


@dataclass(frozen=True)
class MinimalLift:
    """Third isothermal coordinate of a lifted harmonic map on a polar grid."""

    base: AnnulusMap
    rho_grid: np.ndarray
    theta_grid: np.ndarray
    w: np.ndarray  # shape (n_rho, n_theta)
    sqrt_phi: np.ndarray  # continued branch on the same grid
    mu: np.ndarray  # second dilatation, nan where h_z = 0
    conformality_residual: float
    loop_residual: float  # closure defect of w around the unit circle
    flat: bool

    @property
    def width(self) -> float:
        """Height extent max w - min w (the slab width)."""
        return float(np.max(self.w) - np.min(self.w))


def lift(m: AnnulusMap, n_rho: int = 33, n_theta: int = 64) -> MinimalLift:
    """Path-integrate w over a polar grid with branch tracking.

    The branch of sqrt(phi) is continued along the nodes w is integrated on:
    around the unit circle from the principal value at z = 1, each coarse
    angle followed by the Gauss-Legendre nodes of its interval, then up each
    radial ray from its angle on the circle.  The known even-order zeros of
    phi are divided out first, so the branch passes through them.  w comes
    from dw = 2 Re(w_z dz).  Raises NoLiftError on an odd-order zero of phi
    and BranchError if the branch or the lift fails to close around the
    annulus (loop defect above 1e-8 relative), and ValueError for n_rho < 2
    or n_theta < 1.
    """
    if n_rho < 2:
        raise ValueError(f"lift needs n_rho >= 2 radii, got {n_rho}")
    if n_theta < 1:
        raise ValueError(f"lift needs n_theta >= 1 angles, got {n_theta}")
    rho_grid = np.linspace(1.0, m.R, n_rho)
    theta_grid = _quad.theta_grid(n_theta)

    zeros = phi_zeros(m)
    if any(mult % 2 == 1 for _, mult in zeros):
        bad = [(z0, k) for z0, k in zeros if k % 2 == 1]
        raise NoLiftError(f"odd-order zeros of phi in the annulus: {bad}")

    P, Q, _ = _laurent_factors(m)
    if not (np.any(np.abs(P) > 0) and np.any(np.abs(Q) > 0)):
        shape = (n_rho, n_theta)
        jet = evaluate(m, _quad.ring_grid(rho_grid, n_theta))
        return MinimalLift(
            base=m,
            rho_grid=rho_grid,
            theta_grid=theta_grid,
            w=np.zeros(shape),
            sqrt_phi=np.zeros(shape, dtype=complex),
            mu=_dilatation(jet.d_z, jet.d_zbar),
            conformality_residual=0.0,
            loop_residual=0.0,
            flat=True,
        )

    # around the unit circle, calibrated at z = 1
    th, wts_T = _node_path(theta_grid, 2.0 * np.pi, max(2, 256 // n_theta))
    _, _, g_T, s_T = _zero_free_branch(m, zeros, np.exp(1j * th))
    if abs(g_T[-1] - g_T[0]) > 0.5 * abs(g_T[0]) + 1e-30:
        raise BranchError("sqrt(phi) branch does not close around the unit circle")
    w_T = _running_integral(0.0, 2.0 * (s_T * np.exp(1j * th)).real, wts_T)
    loop_residual = abs(w_T[-1])
    if loop_residual > 1e-8 * max(1.0, np.max(np.abs(w_T[:-1]))):
        raise BranchError(
            f"lift is multivalued around the annulus: loop defect {w_T[-1]:.3e}"
        )

    # up each ray, from the branch on the circle at its coarse angle
    panels = max(2, math.ceil(16.0 * (m.R - 1.0) / (n_rho - 1)))
    r, wts_r = _node_path(rho_grid[:-1], m.R, panels)
    jet, phi, _, s = _zero_free_branch(
        m, zeros, _quad.ring_grid(r, n_theta), g_T[:-1:wts_T.shape[1] + 1])
    dw = 2.0 * (-1j * s * np.exp(1j * theta_grid)).real
    w = _running_integral(w_T[:-1], dw, wts_r)

    # diagnostics on the coarse rows of the ray path
    coarse = slice(None, None, wts_r.shape[1] + 1)
    d_z, d_zbar, s_grid = jet.d_z[coarse], jet.d_zbar[coarse], s[coarse]
    scale = float(np.max(np.abs(d_z) ** 2 + np.abs(d_zbar) ** 2))
    residual = float(np.max(np.abs((-1j * s_grid) ** 2 + phi[coarse])))
    return MinimalLift(
        base=m,
        rho_grid=rho_grid,
        theta_grid=theta_grid,
        w=w,
        sqrt_phi=s_grid,
        mu=_dilatation(d_z, d_zbar),
        conformality_residual=residual / max(scale, 1e-300),
        loop_residual=loop_residual,
        flat=False,
    )


def catenoid_modulus(R_star: float) -> float:
    """Conformal modulus of the catenoid slab with radii ratio R_star.

    log(R_star + sqrt(R_star^2 - 1)); the inverse of R -> (R + 1/R)/2.
    """
    if R_star < 1.0:
        raise ValueError(f"radii ratio must be >= 1, got {R_star}")
    return math.log(R_star + math.sqrt(R_star * R_star - 1.0))


def modulus_bound_check(
    surface_modulus: float, ratio: float
) -> tuple[bool, float]:
    """Sharp modulus bound for minimal graphs over an annulus.

    slack = catenoid_modulus(ratio) - surface_modulus; the bound holds iff
    slack >= 0, with equality exactly for the catenoid slab.
    """
    if ratio < 1.0:
        raise ValueError(f"radii ratio must be >= 1, got {ratio}")
    slack = catenoid_modulus(ratio) - surface_modulus
    return slack >= 0.0, slack


def second_dilatation(m: AnnulusMap, z: complex) -> complex:
    """mu = conj(h_zbar)/h_z; |mu| < 1 for orientation-preserving local homeos."""
    jet = evaluate(m, z)
    if abs(jet.d_z) == 0.0:
        raise ZeroDivisionError(f"h_z vanishes at z={z}")
    return complex(np.conj(jet.d_zbar) / jet.d_z)
