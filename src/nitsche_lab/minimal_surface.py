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
from .annulus_core import AnnulusMap, _ring_modes, _rings_wirtinger

__all__ = [
    "MinimalLift",
    "NoLiftError",
    "BranchError",
    "lift",
    "phi_zeros",
    "catenoid_modulus",
    "modulus_bound_check",
]


# Gauss-Legendre panels of 16 nodes per unit of N log(rho) on a ray, at least
# RAY_PANEL_DENSITY per coarse interval.  In t = log(rho) the terms rho^n,
# |n| <= N, are e^{nt}, so the rule's error on a panel is set by N times its
# log-width, whatever R is.
RAY_PANEL_DENSITY = 1.0
# sqrt(phi) also has branch points at the zeros of phi off the annulus.  A
# panel is halved until its distance to each, in the path variable (t on a
# ray, theta on the circle), is at least ZERO_CLEARANCE times its width; its
# Bernstein ellipse then reaches beyond 2.6, for an error below about 1e-13.
ZERO_CLEARANCE = 0.5
# Largest turn of the continued sqrt(phi) between two path nodes that the
# march may decide; a wider turn means the path is too coarse.
MAX_TURN = math.pi / 4


class NoLiftError(ValueError):
    """phi has an odd-order zero in the annulus: no continuous sqrt branch."""


class BranchError(ValueError):
    """Branch tracking failed to close, or w is multivalued around the hole."""


def _laurent_factors(m: AnnulusMap) -> tuple[np.ndarray, np.ndarray]:
    """Laurent coefficient arrays of h_z and conj(h_zbar) as functions of z.

    Both factors have exponents in [-(N+1), N-1]; returned arrays are indexed
    by exponent + (N+1).  z h_z and conj(conj(z) h_zbar) have the _ring_modes
    ZH and conj(ZBH) at rho = 1 as their coefficients of z^n and z^-n;
    dividing by z shifts them down one exponent.
    """
    ns, _, _ = m.mode_arrays()
    _, _, ZH, ZBH = _ring_modes(m, 1.0)
    N = max(m.order, 1)
    P = np.zeros(2 * N + 1, dtype=complex)  # h_z
    Q = np.zeros(2 * N + 1, dtype=complex)  # conj(h_zbar)
    P[N], Q[N] = m.log_a0 / 2.0, m.log_a0.conjugate() / 2.0  # exponent -1
    P[N + ns] = ZH
    Q[N - ns] = np.conj(ZBH)
    return P, Q


def _factor_roots(m: AnnulusMap) -> np.ndarray | None:
    """Roots of the two polynomial factors z^{N+1} h_z and z^{N+1}
    conj(h_zbar) of phi, or None when either factor vanishes identically."""
    roots = []
    for coef in _laurent_factors(m):
        if not np.any(np.abs(coef) > 0):
            return None
        # numpy poly order is highest degree first
        c = coef[::-1].copy()
        lead = int(np.argmax(np.abs(c) > 0))
        roots.append(np.roots(c[lead:]))
    return np.concatenate(roots)


def _on_annulus(roots: np.ndarray, R: float) -> np.ndarray:
    """Mask of the roots within 1e-9 of the closed annulus A(1, R)."""
    return (np.abs(roots) >= 1.0 - 1e-9) & (np.abs(roots) <= R + 1e-9)


def phi_zeros(m: AnnulusMap) -> list[tuple[complex, int]]:
    """Zeros of phi inside the closed annulus with multiplicities.

    Returns [] for phi identically zero (conformal or antiholomorphic h,
    flat lift).  Roots come from the two polynomial factors z^{N+1} h_z and
    z^{N+1} conj(h_zbar); a root within 1e-9 of the annulus counts as inside,
    and clusters within 1e-6 are merged into one zero with summed
    multiplicity.
    """
    roots = _factor_roots(m)
    return [] if roots is None else _annulus_zeros(roots, m.R)


def _annulus_zeros(roots: np.ndarray, R: float) -> list[tuple[complex, int]]:
    """phi_zeros from the factor roots: those on the closed annulus, with
    clusters within 1e-6 merged into one zero of summed multiplicity."""
    inside = roots[_on_annulus(roots, R)]
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


def _max_turn(g: np.ndarray) -> float:
    """Largest angle (radians) between consecutive nonzero values of g along
    axis 0, per column; 0 if no column has two."""
    held = g.reshape(g.shape[0], -1)
    live = held != 0
    if not live.all():  # carry the last nonzero value over each zero
        rows = np.arange(held.shape[0])[:, None]
        last = np.maximum.accumulate(np.where(live, rows, 0), axis=0)
        held = np.take_along_axis(held, last, axis=0)
    prod = held[1:] * np.conj(held[:-1])
    mag = np.abs(prod)
    cos = np.where(mag > 0, prod.real / np.where(mag > 0, mag, 1.0), 1.0)
    return float(np.arccos(np.clip(cos.min(initial=1.0), -1.0, 1.0)))


def _zero_free_branch(m: AnnulusMap, zeros, rho, theta, start=None):
    """(h_z, h_zbar, phi, g, q g) on the polar grid rho e^{i theta}, marched
    along axis 0 from one _rings_wirtinger.

    g continues sqrt(phi / q^2) with q = prod (z - z0)^(k/2) over the known
    zeros of phi, so the march follows the zero-free quotient through them,
    and q g continues sqrt(phi) (0 where q = 0).  With no known zeros q = 1
    and g marches phi itself: dividing by 1 + 0j changes only the signs of
    zero parts, which sway the march only at an exactly orthogonal step, and
    MAX_TURN refuses those.  start is g at the first
    row, or None for the g that makes q g the principal sqrt(phi) there.
    BranchError if g turns by more than MAX_TURN between two nodes, where
    the path is too coarse for the march to decide a step.
    """
    d_z, d_zbar = _rings_wirtinger(m, rho, theta)
    phi = d_z * np.conj(d_zbar)
    q, quotient = None, phi
    if zeros:
        z = np.multiply.outer(rho, np.exp(1j * np.asarray(theta)))
        q = np.ones_like(phi)
        for z0, k in zeros:
            q = q * (z - z0) ** (k // 2)
        q2 = q * q
        zero = q2 == 0
        quotient = np.where(zero, 0.0, phi / np.where(zero, 1.0, q2))
    if start is None:
        start = _principal_start(complex(phi[0]))
        if q is not None:
            start = start / q[0] if q[0] else 0.0
    g = _march_branch(quotient, start)
    turn = _max_turn(g)
    if turn > MAX_TURN:
        raise BranchError(
            f"sqrt(phi) turns by {math.degrees(turn):.1f} degrees between path "
            f"nodes (limit {math.degrees(MAX_TURN):g}): path too coarse")
    return d_z, d_zbar, phi, g, g if q is None else q * g


def _node_path(edges: np.ndarray, panels, singular: np.ndarray):
    """(path, weights, coarse): each edges[i] followed by the Gauss-Legendre
    nodes of [edges[i], edges[i+1]] in panels[i] equal panels (an int array,
    or one int for all), ending at edges[-1]; weights are 0 at the edges, and
    path[coarse] is edges.  A panel closer to a point of singular (complex
    points of the path variable) than ZERO_CLEARANCE times its width is
    halved, for at most 40 rounds, so panels shrink geometrically towards a
    nearby branch point."""
    n = edges.size - 1
    per = np.broadcast_to(np.asarray(panels, dtype=np.int64), (n,))
    interval = np.repeat(np.arange(n), per)
    k = np.arange(interval.size) - np.repeat(np.cumsum(per) - per, per)
    lo = edges[interval] + np.diff(edges)[interval] * (k / per[interval])
    fine, first = np.append(lo, edges[-1]), np.append(k == 0, True)
    for _ in range(40 if singular.size else 0):
        a, b = fine[:-1, None], fine[1:, None]
        gap = np.maximum(np.maximum(a - singular.real, singular.real - b), 0.0)
        dist = np.hypot(gap, singular.imag).min(axis=1)
        split = np.flatnonzero(dist < ZERO_CLEARANCE * np.diff(fine))
        if not split.size:
            break
        fine = np.insert(fine, split + 1, (fine[split] + fine[split + 1]) / 2.0)
        first = np.insert(first, split + 1, False)
    nodes, weights = _quad.panel_rule(fine)
    starts = np.flatnonzero(first[:-1]) * (nodes.size // (fine.size - 1))
    path = np.append(np.insert(nodes, starts, edges[:-1]), edges[-1])
    weights = np.append(np.insert(weights, starts, 0.0), 0.0)
    return path, weights, np.append(starts + np.arange(n), path.size - 1)


def _running_integral(first, f: np.ndarray, weights: np.ndarray, coarse) -> np.ndarray:
    """first + integral of f (sampled on a _node_path) up to each coarse point."""
    wf = weights.reshape((-1,) + (1,) * (f.ndim - 1)) * f
    steps = np.add.reduceat(wf, coarse[:-1], axis=0)
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


@np.errstate(over="raise")
def lift(m: AnnulusMap, n_rho: int = 33, n_theta: int = 64) -> MinimalLift:
    """Path-integrate w over a polar grid with branch tracking.

    The branch of sqrt(phi) is continued along the nodes w is integrated on:
    around the unit circle from the principal value at z = 1, each coarse
    angle followed by the Gauss-Legendre nodes of its interval, then up each
    radial ray from its angle on the circle, each coarse radius followed by
    Gauss-Legendre nodes in log(rho) (RAY_PANEL_DENSITY panels per unit of
    N log(rho)).  On both paths the panels are halved towards the zeros of
    phi off the annulus (ZERO_CLEARANCE), so the ray costs no more at large R
    unless such a zero lies near it.  On both paths only h_z and h_zbar are
    formed, by annulus_core._rings_wirtinger: the d_z and d_zbar of
    evaluate_rings, bit for bit.  The roots of phi's two factors are found
    once, and the known even-order zeros of phi are divided out first, so
    the branch passes through them.  w comes from
    dw = 2 Re(w_z dz).  A flat map (phi identically 0: h holomorphic or
    antiholomorphic) takes the same path, with w and sqrt(phi) 0 and flat
    set.  Raises NoLiftError on an odd-order zero of phi and
    BranchError if the branch turns by more than MAX_TURN between two path
    nodes, or if the branch or the lift fails to close around the annulus
    (loop defect above 1e-8 relative), ValueError for n_rho < 2 or
    n_theta < 1, and FloatingPointError where a value, square or sum leaves
    the float64 range.
    """
    if n_rho < 2:
        raise ValueError(f"lift needs n_rho >= 2 radii, got {n_rho}")
    if n_theta < 1:
        raise ValueError(f"lift needs n_theta >= 1 angles, got {n_theta}")
    rho_grid = np.linspace(1.0, m.R, n_rho)
    theta_grid = _quad.theta_grid(n_theta)

    roots = _factor_roots(m)
    flat = roots is None
    zeros = [] if flat else _annulus_zeros(roots, m.R)
    if any(mult % 2 == 1 for _, mult in zeros):
        bad = [(z0, k) for z0, k in zeros if k % 2 == 1]
        raise NoLiftError(f"odd-order zeros of phi in the annulus: {bad}")

    # zeros z0 of phi off the annulus, where sqrt(phi) may branch: on the
    # circle at theta = arg z0 - i log|z0| (and 2 pi either side), on a ray
    # at t = log|z0| + i (the ray's angle to z0)
    off = np.empty(0) if flat else roots[(roots != 0) & ~_on_annulus(roots, m.R)]
    arg, log_r = np.mod(np.angle(off), 2.0 * np.pi), np.log(np.abs(off))
    on_circle = np.concatenate([arg - 2.0 * np.pi, arg, arg + 2.0 * np.pi]) - 1j * np.tile(log_r, 3)
    to_ray = np.abs(np.angle(np.exp(1j * np.subtract.outer(arg, theta_grid))))

    # around the unit circle, calibrated at z = 1
    th, wts_T, coarse_T = _node_path(
        np.append(theta_grid, 2.0 * np.pi), max(2, 256 // n_theta), on_circle)
    _, _, _, g_T, s_T = _zero_free_branch(m, zeros, 1.0, th)
    if abs(g_T[-1] - g_T[0]) > 0.5 * abs(g_T[0]) + 1e-30:
        raise BranchError("sqrt(phi) branch does not close around the unit circle")
    w_T = _running_integral(0.0, 2.0 * (s_T * np.exp(1j * th)).real, wts_T, coarse_T)
    loop_residual = abs(w_T[-1])
    if loop_residual > 1e-8 * max(1.0, np.max(np.abs(w_T[:-1]))):
        raise BranchError(
            f"lift is multivalued around the annulus: loop defect {w_T[-1]:.3e}"
        )

    # up each ray in t = log rho, from the branch on the circle at its angle
    t_grid = np.log(rho_grid)
    n_log = max(m.order, 1) * np.diff(t_grid)
    panels = np.ceil(RAY_PANEL_DENSITY * np.maximum(n_log, 1.0)).astype(np.int64)
    t, wts_t, coarse_r = _node_path(
        t_grid, panels, log_r + 1j * to_ray.min(axis=1, initial=np.pi))
    r = np.exp(t)
    r[coarse_r] = rho_grid
    d_z, d_zbar, phi, _, s = _zero_free_branch(
        m, zeros, r, theta_grid, g_T[coarse_T[:-1]])
    dw = 2.0 * (-1j * s * np.exp(1j * theta_grid)).real
    w = _running_integral(w_T[:-1], dw, wts_t * r, coarse_r)

    # diagnostics on the coarse rows of the ray path
    d_z, d_zbar, s_grid = d_z[coarse_r], d_zbar[coarse_r], s[coarse_r]
    scale = float(np.max(np.abs(d_z) ** 2 + np.abs(d_zbar) ** 2))
    residual = float(np.max(np.abs((-1j * s_grid) ** 2 + phi[coarse_r])))
    return MinimalLift(
        base=m,
        rho_grid=rho_grid,
        theta_grid=theta_grid,
        w=w,
        sqrt_phi=s_grid,
        mu=_dilatation(d_z, d_zbar),
        conformality_residual=residual / max(scale, 1e-300),
        loop_residual=loop_residual,
        flat=flat,
    )


def catenoid_modulus(R_star: float) -> float:
    """Conformal modulus of the catenoid slab with radii ratio R_star.

    log(R_star + sqrt(R_star^2 - 1)); the inverse of R -> (R + 1/R)/2.
    ValueError unless 1 <= R_star < inf (NaN fails).
    """
    if not 1.0 <= R_star < math.inf:
        raise ValueError(f"radii ratio must be finite and >= 1, got {R_star}")
    return math.log(R_star + math.sqrt(R_star * R_star - 1.0))


def modulus_bound_check(
    surface_modulus: float, ratio: float
) -> tuple[bool, float]:
    """Sharp modulus bound for minimal graphs over an annulus.

    slack = catenoid_modulus(ratio) - surface_modulus; the bound holds iff
    slack >= 0, with equality exactly for the catenoid slab.  ValueError
    unless surface_modulus is finite and catenoid_modulus accepts ratio.
    """
    if not math.isfinite(surface_modulus):
        raise ValueError(f"surface modulus must be finite, got {surface_modulus}")
    slack = catenoid_modulus(ratio) - surface_modulus
    return slack >= 0.0, slack

