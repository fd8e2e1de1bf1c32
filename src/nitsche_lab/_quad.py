"""Shared quadrature helpers: periodic trapezoid and composite Gauss-Legendre."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "theta_grid", "exact_ring_size", "gauss_legendre_panels", "radial_integral",
    "QuadratureNotConverged",
]


class QuadratureNotConverged(ArithmeticError):
    """Panel doubling reached max_panels without meeting rtol."""


def theta_grid(M: int) -> np.ndarray:
    """M uniform angles on [0, 2pi), the nodes of the periodic trapezoid rule."""
    return np.arange(M) * (2.0 * np.pi / M)


def circle_samples(ns: np.ndarray, coeffs: np.ndarray, M: int) -> np.ndarray:
    """sum_k coeffs[k] e^{i ns[k] theta} on theta_grid(M), by one inverse FFT.

    On the uniform grid the sum is an inverse DFT with mode n at index n mod M;
    M must exceed max(ns) - min(ns), or two modes would share an index."""
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size and M <= int(ns.max() - ns.min()):
        raise ValueError(f"{M} points alias modes {ns.min()}..{ns.max()}")
    spec = np.zeros(M, dtype=complex)
    spec[ns % M] = coeffs
    return np.fft.ifft(spec, norm="forward")


def exact_ring_size(order: int) -> int:
    """Ring size 4N + 8 from which trapezoid means of quadratic quantities
    (degree 2N on a circle) of a degree-N table are exact, with margin."""
    return 4 * order + 8


def first_ring_size(order: int) -> int:
    """The power of two >= 4N + 8, or 4N + 8 itself when that exceeds 4096."""
    return min(1 << (exact_ring_size(order) - 1).bit_length(),
               max(4096, exact_ring_size(order)))


def nonvanishing_samples(
    sample: Callable[[int], np.ndarray], lip: float, order: int
) -> tuple[np.ndarray, bool]:
    """(values, proven): values = sample(M) is f of degree N = order on
    theta_grid(M), |f'| <= lip.  f moves by at most 2 pi lip / M from a node
    to the next, so min |f| > 2 pi lip / M proves f has no zero and every
    principal argument increment between samples exact.  M doubles from
    first_ring_size(order) until then, or stops unproven at max(4096, 4N + 8)."""
    cap = max(4096, exact_ring_size(order))
    M = first_ring_size(order)
    while True:
        values = sample(M)
        proven = bool(np.min(np.abs(values)) > 2.0 * np.pi * lip / M)
        if proven or M == cap:
            return values, proven
        M = min(2 * M, cap)


@lru_cache(maxsize=None)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_rule(edges: np.ndarray, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on each panel [edges[k], edges[k+1]],
    panel after panel."""
    x, w = _legendre(order)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def gauss_legendre_panels(
    lo: float, hi: float, panels: int, order: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [lo, hi] split into equal panels."""
    return panel_rule(np.linspace(lo, hi, panels + 1), order)


def radial_integral(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rtol: float = 1e-10,
    max_panels: int = 256,
    order: int = 16,
) -> float | np.ndarray:
    """Integral of a smooth f on [lo, hi]; panel doubling until relative change < rtol.

    Values of f of shape (n, k) give a (k,) array, every component converged.
    Raises QuadratureNotConverged if max_panels panels do not meet rtol."""
    panels = 2
    nodes, weights = gauss_legendre_panels(lo, hi, panels, order)
    cur = np.dot(weights, f(nodes))
    while panels < max_panels:
        panels *= 2
        nodes, weights = gauss_legendre_panels(lo, hi, panels, order)
        prev, cur = cur, np.dot(weights, f(nodes))
        if np.all(np.abs(cur - prev) <= rtol * np.maximum(1.0, np.abs(cur))):
            break
    else:
        raise QuadratureNotConverged(
            f"integral on [{lo}, {hi}] not converged to rtol {rtol} with "
            f"{panels} panels of order {order}")
    return float(cur) if np.ndim(cur) == 0 else cur
