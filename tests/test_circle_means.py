"""Circle averages, energies, and the radial operator, closed form vs quadrature."""

import math

import numpy as np
import pytest

from nitsche_lab import (
    AnnulusMap,
    energy_green,
    energy_quadrature,
    initial_speed,
    means_closed_form,
    means_quadrature,
    operator_L,
    operator_L_conformal,
    radial_profile,
    random_annulus_map,
)
from nitsche_lab.annulus_core import AnnulusDomainError
from nitsche_lab.nitsche_family import NitscheParams, nitsche_map


def test_critical_map_means(critical):
    for rho in (1.0, 1.4, 1.9):
        U, Ud, Udd = means_closed_form(critical, rho)
        r = 0.5 * (rho + 1.0 / rho)
        assert abs(U - r * r) <= 1e-14
        assert abs(Ud - 2.0 * r * 0.5 * (1.0 - rho**-2)) <= 1e-14
        assert abs(Udd - (0.5 * (1.0 - rho**-2)) ** 2 * 2.0 - r * 2.0 * rho**-3) <= 1e-13


def test_identity_map_means(identity_map):
    U, Ud, Udd = means_closed_form(identity_map, 1.5)
    assert abs(U - 2.25) <= 1e-15
    assert abs(Ud - 3.0) <= 1e-15
    assert abs(Udd - 2.0) <= 1e-15


def test_closed_form_matches_quadrature(rng):
    m = random_annulus_map(rng, n_max=6, R=2.0, log_scale=0.4)
    for rho in (1.0, 1.3, 1.9):
        U, _, _ = means_closed_form(m, rho)
        q = means_quadrature(m, rho, M=4 * m.order + 8)
        assert q.exact
        assert abs(q.value - U) <= 1e-12 * max(1.0, U)


def test_quadrature_exactness_flag(critical):
    assert not means_quadrature(critical, 1.5, M=8).exact
    assert means_quadrature(critical, 1.5, M=16).exact


def test_initial_speed_is_v():
    for v in (0.0, 0.25, 0.8):
        m = nitsche_map(NitscheParams(v=v, R=2.0))
        assert abs(initial_speed(m) - v) <= 1e-14


def test_energy_green_reference_values(critical, identity_map):
    assert abs(energy_green(critical, 2.0) - 15.0 * math.pi / 8.0) <= 1e-12
    assert abs(energy_green(identity_map, 2.0) - 6.0 * math.pi) <= 1e-12


def test_energy_green_matches_quadrature(rng):
    for _ in range(5):
        m = random_annulus_map(rng, n_max=5, R=2.0, log_scale=0.3)
        e = energy_green(m, 1.8)
        assert abs(e - energy_quadrature(m, 1.8)) <= 1e-9 * max(1.0, e)


def test_operator_L_three_routes_agree(rng):
    for _ in range(5):
        m = random_annulus_map(rng, n_max=5, R=2.0, log_scale=0.3)
        L1, L2, L3 = operator_L(m, 1.5)
        scale = max(1.0, abs(L1))
        assert abs(L1 - L2) <= 1e-10 * scale
        assert abs(L1 - L3) <= 1e-10 * scale


def test_operator_L_vanishes_on_critical_map(critical):
    L1, L2, L3 = operator_L(critical, 1.5)
    assert max(abs(L1), abs(L2), abs(L3)) <= 1e-12


def test_operator_L_conformal_closed_form():
    m = AnnulusMap(R=2.0, terms={2: (1.0, 0.0)})
    rho = 1.5
    assert abs(operator_L_conformal(m, rho) - 8.0 * rho * rho) <= 1e-12
    with pytest.raises(ValueError):
        nonconf = AnnulusMap(R=2.0, terms={1: (0.5, 0.5)})
        operator_L_conformal(nonconf, rho)


def test_radial_profile_contents(critical):
    grid = np.linspace(1.0, 1.9, 10)
    prof = radial_profile(critical, grid)
    assert np.allclose(prof.mean_radius, 0.5 * (grid + 1.0 / grid), atol=1e-13)
    assert np.max(np.abs(prof.L_of_U)) <= 1e-12
    # rho U'(rho) is nondecreasing for admissible maps
    assert np.all(np.diff(grid * prof.U_dot) >= -1e-13)


def test_radial_profile_rejects_bad_grids(critical):
    with pytest.raises(ValueError):
        radial_profile(critical, np.array([1.5, 1.2]))
    with pytest.raises(AnnulusDomainError):
        radial_profile(critical, np.array([1.0, 2.5]))
    with pytest.raises(AnnulusDomainError):  # NaN is no radius, even at the end
        radial_profile(critical, np.array([1.0, 1.5, math.nan]))


def test_domain_guards(critical):
    with pytest.raises(AnnulusDomainError):
        means_closed_form(critical, 2.5)
    with pytest.raises(AnnulusDomainError):
        energy_green(critical, 1.0)
    with pytest.raises(AnnulusDomainError):
        operator_L(critical, 2.0)  # [1, R): the outer circle is excluded


def test_overflowing_mode_sums_raise():
    # U(2) = 2^1200 is beyond float64: an error, not inf and a warning
    m = AnnulusMap(R=math.e, terms={600: (1.0, 0.0)})
    with pytest.raises(FloatingPointError):
        means_closed_form(m, 2.0)
    assert np.isfinite(means_closed_form(m, 1.5)[0])


def test_operator_L_on_the_inner_circle(rng):
    m = random_annulus_map(rng, n_max=5, R=2.0, log_scale=0.3)
    L1, L2, L3 = operator_L(m, 1.0)
    scale = max(1.0, abs(L1))
    assert abs(L1 - L2) <= 1e-10 * scale and abs(L1 - L3) <= 1e-10 * scale
    with pytest.raises(AnnulusDomainError):
        operator_L(m, m.R)
