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


def _phi(m: AnnulusMap, z) -> np.ndarray:
    jet = evaluate(m, z)
    return jet.d_z * np.conj(jet.d_zbar)


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


def _march_branch(phi_vals: np.ndarray, start: complex) -> np.ndarray:
    """Continue sqrt(phi) along axis 0, starting from a given branch value."""
    p = np.sqrt(phi_vals)
    out = np.empty_like(p)
    prev = start
    if abs(prev) == 0:
        prev = 1.0 + 0j
    first = p.reshape(p.shape[0], -1)
    res = out.reshape(out.shape[0], -1)
    prev_row = np.broadcast_to(np.asarray(prev), first.shape[1:]).astype(complex).copy()
    for k in range(first.shape[0]):
        row = first[k]
        flip = (row * np.conj(prev_row)).real < 0.0
        row = np.where(flip, -row, row)
        res[k] = row
        live = np.abs(row) > 0
        prev_row[live] = row[live]
    return out


def _nearest_node(x: np.ndarray, lo: float, hi: float, M: int) -> np.ndarray:
    """Index of the node of linspace(lo, hi, M + 1) nearest to each x."""
    return np.clip(np.rint((x - lo) / (hi - lo) * M).astype(int), 0, M)


def _dilatation(jet) -> np.ndarray:
    """conj(h_zbar)/h_z on a grid, nan where h_z = 0."""
    hz_ok = np.abs(jet.d_z) > 0
    return np.where(
        hz_ok, np.conj(jet.d_zbar) / np.where(hz_ok, jet.d_z, 1.0), np.nan + 0j
    )


def _align(p: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Choose the sign of each principal sqrt to match a reference branch."""
    return np.where((p * np.conj(ref)).real < 0.0, -p, p)


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

    Calibrates the branch of sqrt(phi) along the unit circle first, then
    continues it along each radial ray; w comes from dw = 2 Re(w_z dz) with
    per-interval Gauss-Legendre panels.  Raises NoLiftError on an odd-order
    zero of phi and BranchError if the branch or the lift fails to close
    around the annulus (loop defect above 1e-8 relative).
    """
    rho_grid = np.linspace(1.0, m.R, n_rho)
    theta_grid = _quad.theta_grid(n_theta)

    zeros = phi_zeros(m)
    if any(mult % 2 == 1 for _, mult in zeros):
        bad = [(z0, k) for z0, k in zeros if k % 2 == 1]
        raise NoLiftError(f"odd-order zeros of phi in the annulus: {bad}")

    P, Q, _ = _laurent_factors(m)
    flat = not (np.any(np.abs(P) > 0) and np.any(np.abs(Q) > 0))
    shape = (n_rho, n_theta)
    if flat:
        jet = evaluate(m, _quad.ring_grid(rho_grid, n_theta))
        return MinimalLift(
            base=m,
            rho_grid=rho_grid,
            theta_grid=theta_grid,
            w=np.zeros(shape),
            sqrt_phi=np.zeros(shape, dtype=complex),
            mu=_dilatation(jet),
            conformality_residual=0.0,
            loop_residual=0.0,
            flat=True,
        )

    # dense branch march around the unit circle, calibrated at z = 1
    M_b = max(16 * n_theta, 2048)
    th_dense = np.linspace(0.0, 2.0 * np.pi, M_b + 1)
    phi_T = _phi(m, np.exp(1j * th_dense))
    start = _principal_start(complex(phi_T[0]))
    s_T = _march_branch(phi_T, start)
    if abs(s_T[-1] - s_T[0]) > 0.5 * abs(s_T[0]) + 1e-30:
        raise BranchError("sqrt(phi) branch does not close around the unit circle")

    # w along T at the coarse nodes: GL panels inside each coarse interval,
    # branch aligned against the dense march
    sub = max(2, M_b // n_theta // 8)
    w_T = np.zeros(n_theta)
    acc = 0.0
    edges = np.append(theta_grid, 2.0 * np.pi)
    for j in range(n_theta):
        nodes, wts = _quad.gauss_legendre_panels(edges[j], edges[j + 1], sub)
        p = np.sqrt(_phi(m, np.exp(1j * nodes)))
        s = _align(p, s_T[_nearest_node(nodes, 0.0, 2.0 * np.pi, M_b)])
        w_T[j] = acc
        acc += float(np.dot(wts, 2.0 * (s * np.exp(1j * nodes)).real))
    loop_residual = abs(acc - 0.0)
    if loop_residual > 1e-8 * max(1.0, np.max(np.abs(w_T))):
        raise BranchError(
            f"lift is multivalued around the annulus: loop defect {acc:.3e}"
        )

    # dense radial branch march, vectorized over the coarse rays
    M_r = max(32 * n_rho, 1024)
    r_dense = np.linspace(1.0, m.R, M_r + 1)
    phi_rays = _phi(m, _quad.ring_grid(r_dense, n_theta))
    idx_T = _nearest_node(theta_grid, 0.0, 2.0 * np.pi, M_b)
    s_rays = _march_branch(phi_rays, 1.0)
    # _march_branch starts from principal values; re-anchor row 0 to the T branch
    flip0 = (s_rays[0] * np.conj(s_T[idx_T])).real < 0.0
    s_rays = np.where(flip0[None, :], -s_rays, s_rays)

    # integrate each radial interval with GL panels, aligned to the dense march
    w = np.zeros(shape)
    w[0, :] = w_T
    eith = np.exp(1j * theta_grid)
    for i in range(n_rho - 1):
        lo, hi = rho_grid[i], rho_grid[i + 1]
        sub_r = max(2, int(math.ceil((hi - lo) * 16)))
        nodes, wts = _quad.gauss_legendre_panels(lo, hi, sub_r)
        p = np.sqrt(_phi(m, _quad.ring_grid(nodes, n_theta)))
        s = _align(p, s_rays[_nearest_node(nodes, 1.0, m.R, M_r), :])
        integrand = 2.0 * (-1j * s * eith[None, :]).real
        w[i + 1, :] = w[i, :] + wts @ integrand

    # diagnostics on the coarse grid
    jet = evaluate(m, _quad.ring_grid(rho_grid, n_theta))
    phi_grid = jet.d_z * np.conj(jet.d_zbar)
    ref = s_rays[_nearest_node(rho_grid, 1.0, m.R, M_r), :]
    s_grid = _align(np.sqrt(phi_grid), ref)
    scale = float(np.max(np.abs(jet.d_z) ** 2 + np.abs(jet.d_zbar) ** 2))
    residual = float(np.max(np.abs((-1j * s_grid) ** 2 + phi_grid)))
    return MinimalLift(
        base=m,
        rho_grid=rho_grid,
        theta_grid=theta_grid,
        w=w,
        sqrt_phi=s_grid,
        mu=_dilatation(jet),
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
