"""Acceptance gate: ten end-to-end criteria, one pass/fail line per figure.

Each test runs its criteria from ``nitsche_lab.checks``, the registry that
``nitsche-lab verify`` runs at smaller sizes, here with ``full=True`` on the
test's own seed, and keeps its further closed-form assertions inline.  Run
with ``pytest -v -s tests/test_acceptance.py`` to see each measured figure of
merit next to its threshold.
"""

import math

import numpy as np

from nitsche_lab import (
    AnnulusMap,
    NoHarmonicHomeomorphism,
    construct_harmonic_homeo,
    energy_green,
    jacobian_energy_chain,
    lemma_functional,
    means_closed_form,
    modulus_bound_check,
    poisson_extend,
    qform_coefficients,
    verify_identity,
)
from nitsche_lab import checks
from nitsche_lab.disk_maps import BoundaryHomeo, psi
from nitsche_lab.nitsche_family import NitscheParams, example_51_map, nitsche_map


def _gate(check, seed: int | None) -> list[checks.CheckResult]:
    """Run one registry check at the gate's sizes; every result must pass.

    ``seed`` is None for the checks that draw nothing.
    """
    results = check(np.random.default_rng(seed), True)
    for r in results:
        print(f"[acceptance] {r.name}: value {r.value:.6e} "
              f"threshold {r.threshold:.1e} {'PASS' if r.passed else 'FAIL'}")
    assert all(r.passed for r in results), results
    return results


def test_01_critical_map_radius_equality():
    _gate(checks.check_critical_equality, None)


def test_02_identity_residual():
    rep = verify_identity(AnnulusMap(R=2.0, log_b0=1.0), 2.0)
    assert abs(rep.lhs - (-0.9 + 3.0 * math.log(2.0))) <= 1e-12
    rep = verify_identity(AnnulusMap(R=2.0, terms={1: (1.0, 0.0)}), 2.0)
    assert abs(rep.lhs - 0.9) <= 1e-12
    _gate(checks.check_identity_residual, 20260823)


def test_03_quadratic_form_positivity():
    (res,) = _gate(checks.check_qform_positivity, None)
    assert res.value < 0.0  # min A_n, min B_n and min discriminant all > 0
    spot = qform_coefficients(2, 3.0)
    assert abs(spot.A - 511.0 / 9.0) <= 1e-9


def test_04_certificate_decomposition_equivalence():
    _gate(checks.check_certificate, 42)


def test_05_jacobian_energy_chain():
    res = jacobian_energy_chain(poisson_extend(BoundaryHomeo(zeta_coeffs={})))
    for got in (res.boundary_abs_det, res.disk_energy, res.twice_area):
        assert abs(got - 2.0 * math.pi) <= 1e-10
    _gate(checks.check_chain, 7)


def test_06_boundary_functional_and_kernel_region():
    rotation = BoundaryHomeo(zeta_coeffs={0: 0.7})
    assert abs(lemma_functional(rotation)) <= 1e-9
    _gate(checks.check_boundary_functional, 11)
    corner = float(psi(math.pi / 2, -math.pi / 2))
    assert abs(corner - (2.0 - math.pi / 2)) <= 1e-15
    assert corner > 0.0


def test_07_insufficient_initial_conditions_example():
    _gate(checks.check_example51, None)
    U12, _, _ = means_closed_form(example_51_map(0.5, 2.0), 12.0)
    margin = math.sqrt(U12) - 0.5 * (12.0 + 1.0 / 12.0)
    assert margin < 0.0


def test_08_existence_and_minimizer_consistency():
    a_b, b_b = construct_harmonic_homeo(2.0, 1.5).terms[1]
    assert abs(a_b - 2.0 / 3.0) <= 1e-14 and abs(b_b - 1.0 / 3.0) <= 1e-14
    e = energy_green(nitsche_map(NitscheParams(v=0.0, R=2.0)), 2.0)
    assert abs(e - 15.0 * math.pi / 8.0) <= 1e-12
    _gate(checks.check_existence_minimizer, None)

    try:
        construct_harmonic_homeo(2.0, 1.2)
    except NoHarmonicHomeomorphism as exc:
        assert abs(exc.deficit - 0.05) <= 1e-14
    else:
        raise AssertionError("sub-threshold target radius must be rejected")


def test_09_holomorphic_case():
    lam = complex(math.cos(0.3), math.sin(0.3))
    m = AnnulusMap(R=2.0, terms={1: (lam, 0.0)})
    for rho in (1.0, 1.3, 1.9):
        U, Ud, Udd = means_closed_form(m, rho)
        assert abs(U - rho * rho) <= 1e-14
        assert abs(Ud - 2.0 * rho) <= 1e-14
        assert abs(Udd - 2.0) <= 1e-14
    _gate(checks.check_holomorphic_operator, 99)


def test_10_minimal_graph_lift_and_modulus_bound():
    _gate(checks.check_catenoid_lift, None)
    worst = 0.0
    for R in np.linspace(1.1, 10.0, 25):
        _, slack = modulus_bound_check(math.log(R), 0.5 * (R + 1.0 / R))
        worst = max(worst, abs(slack))
    assert worst <= 1e-12
