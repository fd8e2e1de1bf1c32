"""The acceptance criteria, each written once.

Every check has the form ``check(rng, full) -> list[CheckResult]``.
``full=True`` runs the acceptance gate's draws, grids and radii
(``tests/test_acceptance.py``); ``full=False`` the smaller ones of
``nitsche-lab verify``, which runs ``REGISTRY`` in order through one
generator.  Checks that draw nothing ignore ``rng``.  Library functions are
called through their modules, so that instrumentation which patches module
attributes (perfbench's tracer) sees each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import (annulus_core, circle_means, disk_maps, identity_engine,
               minimal_surface, nitsche_family, quadratic_forms)
from .annulus_core import AnnulusMap
from .nitsche_family import NitscheParams
from .quadratic_forms import SQRT7

__all__ = ["CheckResult", "REGISTRY"]


@dataclass(frozen=True)
class CheckResult:
    """One measured figure of merit; it passes iff value <= threshold."""

    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


def _critical_map(R: float) -> AnnulusMap:
    return nitsche_family.nitsche_map(NitscheParams(v=0.0, R=R))


def check_critical_equality(rng: np.random.Generator, full: bool) -> list[CheckResult]:
    """The critical map meets the bound with equality: sqrt(U) = (rho + 1/rho)/2."""
    radii, top = ((2.0, math.e, 10.0), 0.999) if full else ((2.0,), 0.995)
    worst = 0.0
    for R in radii:
        m = _critical_map(R)
        for rho in np.linspace(1.0, top * R, 50).tolist():
            U, _, _ = circle_means.means_closed_form(m, rho)
            worst = max(worst, abs(math.sqrt(U) - 0.5 * (rho + 1.0 / rho)))
    return [CheckResult("critical_equality", worst, 1e-12)]


def check_identity_residual(rng: np.random.Generator, full: bool) -> list[CheckResult]:
    """Relative residual of the weighted integral identity."""
    draws, n_max, R, lo = (200, 8, 3.0, 1.01) if full else (20, 6, 2.5, 1.1)

    def rel(m: AnnulusMap, sigma: float) -> float:
        rep = identity_engine.verify_identity(m, sigma)
        return abs(rep.residual) / max(1.0, abs(rep.lhs))

    worst = 0.0
    for _ in range(draws):
        m = annulus_core.random_annulus_map(rng, n_max=n_max, R=R)
        worst = max(worst, rel(m, float(rng.uniform(lo, R))))
    return [
        CheckResult("identity_constant", rel(AnnulusMap(R=2.0, log_b0=1.0), 2.0), 1e-8),
        CheckResult("identity_linear",
                    rel(AnnulusMap(R=2.0, terms={1: (1.0, 0.0)}), 2.0), 1e-8),
        CheckResult("identity_random", worst, 1e-8),
    ]


def check_qform_positivity(rng: np.random.Generator, full: bool) -> list[CheckResult]:
    """-min(A_n, B_n, A_n B_n - C_n^2) over the scan; inf if a tail bound fails."""
    grid = np.arange(SQRT7, 25.0 + 1e-12, 1e-2) if full else np.arange(SQRT7, 25.0, 0.1)
    scan = quadratic_forms.positivity_scan(n_lo=-40, n_hi=40, rho_grid=grid)
    value = -min(scan.min_A, scan.min_B, scan.min_discriminant)
    if not (scan.positive_bound_ok and scan.negative_bound_ok):
        value = math.inf
    return [CheckResult("qform_positivity", value, 0.0)]


def check_certificate(rng: np.random.Generator, full: bool) -> list[CheckResult]:
    """The certificate equals its quadratic-form decomposition and is nonnegative."""
    worst = 0.0
    floor = 0.0
    for _ in range(500 if full else 50):
        m = annulus_core.random_annulus_map(rng, n_max=6, R=30.0, decay=3.0,
                                            log_scale=0.3)
        rho = float(rng.uniform(SQRT7, 0.99 * m.R))
        cert = quadratic_forms.prop52_certificate(m, rho)
        dec = quadratic_forms.qform_decomposition(m, rho)
        worst = max(worst, abs(cert.value - dec) / max(1.0, abs(cert.value)))
        floor = min(floor, cert.value)
    return [CheckResult("certificate_decomposition", worst, 1e-12),
            CheckResult("certificate_nonnegative", -floor, 1e-10)]


def check_chain(rng: np.random.Generator, full: bool) -> list[CheckResult]:
    """|det| <= energy <= 2 area on random disk maps, and their signed area is pi."""
    worst_chain = 0.0
    worst_area = 0.0
    for _ in range(50 if full else 10):
        f = disk_maps.poisson_extend(disk_maps.random_boundary_homeo(rng), N=96)
        res = disk_maps.jacobian_energy_chain(f)
        worst_chain = max(worst_chain, res.disk_energy - res.boundary_abs_det,
                          res.twice_area - res.disk_energy)
        worst_area = max(worst_area, abs(res.signed_area - math.pi))
    return [CheckResult("chain_order", worst_chain, 1e-8),
            CheckResult("chain_area", worst_area, 1e-8)]


def check_boundary_functional(rng: np.random.Generator, full: bool) -> list[CheckResult]:
    """The boundary double-integral functional and the kernel Psi are nonnegative.

    psi_region is -min Psi over the region, inf if a case function is not
    decreasing.
    """
    M = 512 if full else 256
    worst = 0.0
    for _ in range(50 if full else 10):
        bdry = disk_maps.random_boundary_homeo(rng)
        worst = min(worst, disk_maps.lemma_functional(bdry, M=M))
    rep = disk_maps.psi_region_check(resolution=1000 if full else 300)
    psi_value = -rep.min_value
    if not (rep.case1_decreasing and rep.case2_decreasing):
        psi_value = math.inf
    return [CheckResult("lemma_functional_nonnegative", -worst, 1e-9),
            CheckResult("psi_region", psi_value, 1e-12)]


def check_example51(rng: np.random.Generator, full: bool) -> list[CheckResult]:
    """The log example satisfies (I) and (II) but not (III)."""
    m = nitsche_family.example_51_map(0.5, 2.0)
    cond = nitsche_family.check_initial_conditions(m)
    # mean Jacobian of the log example: -(1 + a^2)/(1 - a^2), lambda-free
    return [CheckResult("example51_conditions",
                        0.0 if (cond.I and cond.II and not cond.III) else 1.0, 0.0),
            CheckResult("example51_jacobian",
                        abs(cond.mean_jacobian_at_1 + 5.0 / 3.0), 1e-9)]


def check_catenoid_lift(rng: np.random.Generator, full: bool) -> list[CheckResult]:
    """The critical map lifts to the catenoid w = log rho; inf if not conformal."""
    res = minimal_surface.lift(_critical_map(2.0))
    value = float(np.max(np.abs(res.w - np.log(res.rho_grid)[:, None])))
    if not (res.conformality_residual <= 1e-9):
        value = math.inf
    return [CheckResult("catenoid_lift", value, 1e-10)]


def check_existence_minimizer(rng: np.random.Generator, full: bool) -> list[CheckResult]:
    """Green and quadrature energies agree; the minimizer is the construction."""
    crit = _critical_map(2.0)
    e_green = circle_means.energy_green(crit, 2.0)
    e_quad = circle_means.energy_quadrature(crit, 2.0)
    a_m, b_m = nitsche_family.energy_minimizer(2.0, 1.5).terms[1]
    a_c, b_c = nitsche_family.construct_harmonic_homeo(2.0, 1.5).terms[1]
    return [CheckResult("energy_green_vs_quadrature", abs(e_green - e_quad), 1e-9),
            CheckResult("minimizer_matches_construction",
                        max(abs(a_m - a_c), abs(b_m - b_c)), 1e-14)]


def check_holomorphic_operator(rng: np.random.Generator, full: bool) -> list[CheckResult]:
    """The conformal-case operator is nonnegative and equals its finite difference."""
    rho = 1.5
    eps = 1e-4
    floor = math.inf
    worst = 0.0
    for _ in range(100 if full else 10):
        raw = annulus_core.random_annulus_map(rng, n_max=6, R=2.0)
        m = AnnulusMap(
            R=2.0, terms={n: (a, 0.0) for n, (a, _) in raw.terms.items() if n >= 1}
        )
        val = circle_means.operator_L_conformal(m, rho)
        floor = min(floor, val)

        def g(r: float) -> float:
            U, Ud, _ = circle_means.means_closed_form(m, r)
            return r**3 * (Ud * r * r - 2.0 * r * U) / r**4

        fd = (g(rho + eps) - g(rho - eps)) / (2.0 * eps) / rho
        worst = max(worst, abs(val - fd) / max(1.0, abs(val)))
    return [CheckResult("holomorphic_operator_nonnegative", -floor, 0.0),
            CheckResult("holomorphic_operator_fd", worst, 1e-6)]


REGISTRY = (
    check_critical_equality, check_identity_residual, check_qform_positivity,
    check_certificate, check_chain, check_boundary_functional, check_example51,
    check_catenoid_lift, check_existence_minimizer, check_holomorphic_operator,
)
