"""Modewise quadratic forms, the positivity scan, and the certificate identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nitsche_lab import (
    AnnulusMap,
    circle_functionals,
    positivity_scan,
    prop52_certificate,
    qform_coefficients,
    qform_decomposition,
    qform_value,
    random_annulus_map,
)
from nitsche_lab._quad import theta_grid
from nitsche_lab.annulus_core import AnnulusDomainError, evaluate
from nitsche_lab.nitsche_family import NitscheParams, nitsche_map
from nitsche_lab.quadratic_forms import SQRT7


def test_spot_coefficients_at_rho_3():
    q = qform_coefficients(2, 3.0)
    assert abs(q.A - 511.0 / 9.0) <= 1e-12
    assert abs(q.B - 271.0 / 81.0) <= 1e-12
    assert abs(q.C + 85.0 / 9.0) <= 1e-12
    assert q.discriminant > 0.0


def test_mode_one_form_has_diagonal_kernel():
    q = qform_coefficients(1, 3.0)
    k = (9.0 - 1.0) ** 2 / 36.0
    assert abs(q.A - k) <= 1e-12 and abs(q.B - k) <= 1e-12 and abs(q.C + k) <= 1e-12
    for x in (1.0, 0.3 - 0.7j, 2.0j):
        assert abs(qform_value(q, x, x)) <= 1e-12 * abs(x) ** 2
    assert qform_value(q, 1.0, -1.0) > 0.0


def test_mode_zero_discriminant_changes_sign_at_sqrt_e():
    root_e = math.exp(0.5)
    assert abs(qform_coefficients(0, root_e).discriminant) <= 1e-14
    assert qform_coefficients(0, 1.5).discriminant < 0.0
    assert qform_coefficients(0, 2.0).discriminant > 0.0


def test_coefficients_reject_bad_radius():
    with pytest.raises(ValueError):
        qform_coefficients(2, 1.0)
    for rho in (math.inf, math.nan):
        with pytest.raises(AnnulusDomainError):
            qform_coefficients(2, rho)


def test_positivity_scan_report():
    grid = np.arange(SQRT7, 12.0, 0.05)
    scan = positivity_scan(n_lo=-20, n_hi=20, rho_grid=grid)
    assert scan.all_positive
    assert scan.min_A > 0 and scan.min_B > 0 and scan.min_discriminant > 0
    assert scan.positive_bound_ok and scan.negative_bound_ok
    n_star, rho_star = scan.argmin_discriminant
    q = qform_coefficients(n_star, rho_star)
    assert abs(q.discriminant - scan.min_discriminant) <= 1e-9 * max(
        1.0, abs(scan.min_discriminant)
    )


def test_scan_grid_refusals():
    # NaN fails the guard: it used to scan to min_A = nan
    for bad in (2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sqrt"):
            positivity_scan(n_lo=2, n_hi=3, rho_grid=np.array([bad, 3.0]))


def test_scan_uses_the_coefficient_formulas():
    # negative indices too: the scan's discriminant is that of qform_coefficients
    grid = np.array([SQRT7, 3.0, 7.5])
    for n in (-7, -2, -1, 2, 5):
        scan = positivity_scan(n_lo=n, n_hi=n, rho_grid=grid)
        disc = min(qform_coefficients(n, float(r)).discriminant for r in grid)
        assert abs(scan.min_discriminant - disc) <= 1e-12 * abs(disc)


@pytest.mark.parametrize("n", [-10, 10])
def test_coefficient_overflow_raises(n):
    with pytest.raises(ArithmeticError):
        qform_coefficients(n, 1e40)
    with pytest.raises(ArithmeticError):
        positivity_scan(n_lo=n, n_hi=n, rho_grid=np.array([3.0, 1e40]))


def test_certificate_overflow_raises():
    # |z^300|^2 at rho = 7 is 7^600 > 1.8e308 on both routes
    m = AnnulusMap(R=math.e**2, terms={300: (1.0, 0.0)})
    with pytest.raises(FloatingPointError):
        prop52_certificate(m, 7.0)
    with pytest.raises(OverflowError):
        qform_decomposition(m, 7.0)


def test_intermediate_bounds_pointwise():
    for rho in (SQRT7, 3.0, 10.0):
        for n in range(2, 15):
            assert qform_coefficients(n, rho).B >= n * rho * rho / 7.0
            assert qform_coefficients(-n, rho).B > 49.0 / 48.0 * n**3 * rho * rho


def test_circle_functionals_against_quadrature(rng):
    m = random_annulus_map(rng, n_max=5, R=30.0, decay=3.0, log_scale=0.3)
    f = circle_functionals(m, 3.0)
    theta = theta_grid(4 * m.order + 8)
    jet = evaluate(m, np.exp(1j * theta))
    from nitsche_lab import means_closed_form

    U3, _, _ = means_closed_form(m, 3.0)
    assert abs(f.U - U3) <= 1e-12 * max(1.0, U3)
    mean_jac = float(np.mean(jet.jacobian))
    assert abs(f.mean_jacobian - mean_jac) <= 1e-10 * max(1.0, abs(mean_jac))
    winding = float(np.mean((np.conj(jet.value) * jet.d_theta).imag))
    assert abs(f.winding_form - winding) <= 1e-10 * max(1.0, abs(winding))


def test_identity_map_certificate_value():
    # single mode n = 1 with (a, b) = (1, 0): the certificate is k = (rho^2-1)^2/(4 rho^2)
    m = AnnulusMap(R=4.0, terms={1: (1.0, 0.0)})
    rho = 3.0
    cert = prop52_certificate(m, rho)
    assert abs(cert.value - 16.0 / 9.0) <= 1e-12
    assert not cert.below_sqrt7 and not cert.trace_not_unimodular


def test_critical_map_certificate_nonnegative():
    m = nitsche_map(NitscheParams(v=0.0, R=10.0))
    for rho in (SQRT7, 4.0, 9.0):
        cert = prop52_certificate(m, rho)
        assert cert.value >= -1e-12
        assert abs(cert.value - qform_decomposition(m, rho)) <= 1e-12 * max(
            1.0, abs(cert.value)
        )


def test_certificate_flags():
    m = nitsche_map(NitscheParams(v=0.0, R=10.0))
    assert prop52_certificate(m, 2.0).below_sqrt7
    bad = AnnulusMap(R=10.0, terms={1: (2.0, 0.0)})
    assert prop52_certificate(bad, 3.0).trace_not_unimodular


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(float(SQRT7), 20.0))
def test_certificate_equals_decomposition(seed, rho):
    m = random_annulus_map(
        np.random.default_rng(seed), n_max=6, R=25.0, decay=3.0, log_scale=0.3
    )
    cert = prop52_certificate(m, rho)
    dec = qform_decomposition(m, rho)
    assert abs(cert.value - dec) <= 1e-12 * max(1.0, abs(cert.value))
    assert cert.value >= -1e-10
