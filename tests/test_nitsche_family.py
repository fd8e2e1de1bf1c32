"""The extremal family, existence bound, and the logarithmic counterexample."""

import math

import numpy as np
import pytest

from nitsche_lab import (
    AnnulusMap,
    CoefficientRangeError,
    NitscheParams,
    NoHarmonicHomeomorphism,
    check_initial_conditions,
    construct_harmonic_homeo,
    energy_minimizer,
    example_51_map,
    nitsche_bound_holds,
    nitsche_map,
    thin_annulus_bound,
)
from nitsche_lab.annulus_core import AnnulusDomainError, evaluate, random_annulus_map
from nitsche_lab.circle_means import _mode_sums, means_closed_form
from nitsche_lab.nitsche_family import bound_margin, mean_radii_ratio, nitsche_floor

# The fold map (z/sqrt(rR) + sqrt(rR)/conj(z))/2 of A(r, R), r = 1 and R = 4,
# rescaled to A(1, R/r): degree 1 on circles but 2-to-1 radially, its
# Jacobian changes sign on |z| = sqrt(R/r) = 2.  A harmonic map that is no
# homeomorphism, kept as a table for the checks that must refuse it.
DOUBLE_COVER = AnnulusMap(R=4.0, terms={1: (0.25, 1.0)})


def test_bound_truth_table():
    assert nitsche_bound_holds(2.0, 1.25)  # equality case
    assert nitsche_bound_holds(2.0, 1.5)
    assert not nitsche_bound_holds(2.0, 1.2)
    with pytest.raises(ValueError):
        nitsche_bound_holds(0.5, 1.5)
    for R, R_star in ((2.0, math.nan), (math.inf, 5.0), (math.nan, 1.5), (2.0, math.inf)):
        for fn in (nitsche_bound_holds, construct_harmonic_homeo, energy_minimizer):
            with pytest.raises(CoefficientRangeError, match="finite"):
                fn(R, R_star)


def test_family_coefficients():
    m = nitsche_map(NitscheParams(v=0.5, R=2.0))
    assert m.terms[1] == (0.75, 0.25)
    with pytest.raises(ValueError):
        NitscheParams(v=-0.1, R=2.0)
    with pytest.raises(ValueError):
        NitscheParams(v=0.5, R=1.0)


@pytest.mark.parametrize("v, R", [(math.nan, 2.0), (0.3, math.nan), (math.inf, 2.0),
                                  (0.3, math.inf), (-math.inf, 2.0), (0.3, -math.inf)])
def test_family_refuses_non_finite_parameters(v, R):
    # NaN fails every comparison, so it must not slip past the range guards
    with pytest.raises(CoefficientRangeError, match="finite"):
        NitscheParams(v=v, R=R)


def test_construct_maps_boundaries():
    m = construct_harmonic_homeo(2.0, 1.5)
    a, b = m.terms[1]
    assert abs((a + b) - 1.0) <= 1e-14  # inner circle to unit circle
    assert abs((a * 2.0 + b / 2.0) - 1.5) <= 1e-14  # outer circle to radius R*


def test_construct_equality_case_is_critical():
    m = construct_harmonic_homeo(2.0, 1.25)
    a, b = m.terms[1]
    assert abs(a - 0.5) <= 1e-15 and abs(b - 0.5) <= 1e-15


def test_construct_below_bound_reports_deficit():
    with pytest.raises(NoHarmonicHomeomorphism) as exc:
        construct_harmonic_homeo(2.0, 1.2)
    assert abs(exc.value.deficit - 0.05) <= 1e-14


def test_minimizer_equals_construction():
    built = construct_harmonic_homeo(3.0, 2.0)
    mini = energy_minimizer(3.0, 2.0)
    for (x, y) in zip(built.terms[1], mini.terms[1]):
        assert abs(x - y) <= 1e-14
    with pytest.raises(NoHarmonicHomeomorphism):
        energy_minimizer(2.0, 1.2)


def test_double_cover_jacobian_sign_change():
    m = DOUBLE_COVER  # normalized to A(1, 4), fold at rho = 2
    j_in = evaluate(m, 1.5).jacobian
    j_fold = evaluate(m, 2.0).jacobian
    j_out = evaluate(m, 3.0).jacobian
    assert abs(j_fold) <= 1e-14
    assert j_in * j_out < 0.0
    assert check_initial_conditions(m).winding == 1


def test_log_example_conditions_and_mean_jacobian():
    m = example_51_map(0.5, 2.0)
    cond = check_initial_conditions(m)
    assert (cond.I, cond.II, cond.III) == (True, True, False)
    a = 0.5
    assert abs(cond.mean_jacobian_at_1 + (1.0 + a * a) / (1.0 - a * a)) <= 1e-9
    assert cond.winding == 1 and cond.min_modulus > 0.0
    assert cond.u_dot_at_1 >= -1e-12


def test_log_example_closed_form_means():
    a, lam = 0.5, 2.0
    m = example_51_map(a, lam)
    for sigma in (1.0, 2.0, 12.0):
        U, _, _ = means_closed_form(m, sigma)
        expected = (a + lam * math.log(sigma)) ** 2 + (1.0 - a * a) ** 2 / (
            sigma * sigma - a * a
        )
        assert abs(U - expected) <= 1e-12 * max(1.0, expected)


def test_log_example_default_lambda_is_threshold():
    m = example_51_map(0.5)
    cond = check_initial_conditions(m)
    assert abs(cond.u_dot_at_1) <= 1e-12  # equality at the default lambda = 1/a
    with pytest.raises(ValueError):
        example_51_map(1.5)


def test_winding_degrees(critical):
    m2 = nitsche_map(NitscheParams(v=0.0, R=2.0))
    assert check_initial_conditions(m2).winding == 1
    sq = AnnulusMap(R=2.0, terms={2: (1.0, 0.0)})
    cond = check_initial_conditions(sq)
    assert cond.I is False and cond.winding == 2


def test_unit_circle_ring_covers_high_order_tables():
    # mode 4097 aliases onto mode 1 on a 4096-point circle
    m = AnnulusMap(R=1.1, terms={1: (1.0, 0.0), 4097: (1e-3, 0.0)})
    exact = sum(n * n * (abs(a) ** 2 - abs(b) ** 2) for n, (a, b) in m.terms.items())
    cond = check_initial_conditions(m)
    assert abs(cond.mean_jacobian_at_1 - exact) <= 1e-9
    assert cond.winding == 1


@pytest.mark.parametrize("b0", [0.999999, 1.0])
def test_trace_too_close_to_zero_is_undecided(b0):
    # h = b0 + z: min |h| = 1 - b0 cannot be told from a zero at 4096 points,
    # so the trace reads degree 0 and (I) fails
    m = AnnulusMap(R=2.0, log_b0=b0, terms={1: (1.0, 0.0)})
    cond = check_initial_conditions(m)
    assert cond.winding == 0 and cond.I is False
    assert thin_annulus_bound(m, 1.5).winding_not_one


def scalar_margin(m, rho: float) -> float:
    """The per-radius route: sqrt(U(rho)) - (rho + 1/rho)/2, one radius at a time."""
    U, _, _ = _mode_sums(m, rho)
    return math.sqrt(float(U)) - 0.5 * (rho + 1.0 / rho)


def test_bound_margin_matches_the_scalar_route(rng):
    for _ in range(20):
        m = random_annulus_map(rng, n_max=int(rng.integers(1, 9)),
                               R=float(rng.uniform(1.5, 20.0)), log_scale=0.5)
        grid = np.concatenate(([1.0], np.sort(rng.uniform(1.0, m.R, 30)), [m.R]))
        margins = bound_margin(m, grid)
        assert margins.shape == grid.shape
        for rho, got in zip(grid.tolist(), margins.tolist()):
            want = scalar_margin(m, rho)
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))
            single = bound_margin(m, rho)
            assert type(single) is float and single == want  # the scalar path is unchanged


def test_bound_margin_on_the_critical_map_and_the_log_example(critical):
    grid = np.linspace(1.0, critical.R, 200)
    assert np.max(np.abs(bound_margin(critical, grid))) <= 1e-12
    assert nitsche_floor(2.0) == 1.25
    assert np.array_equal(nitsche_floor(grid), 0.5 * (grid + 1.0 / grid))
    # the log example's margin is -1.1e-16 at rho = 1 (rounding) and turns
    # negative for good near rho = 10.19
    m = example_51_map(0.5, 2.0)
    grid = np.linspace(1.0, 20.0, 19001)
    below = np.flatnonzero(bound_margin(m, grid) < -1e-12)
    assert 10.18 < grid[below[0]] < 10.20
    assert abs(bound_margin(m, 1.0)) <= 1e-15
    for rho in (0.999, 1000.5, math.nan, np.array([1.0, math.nan])):
        with pytest.raises(AnnulusDomainError):
            bound_margin(m, rho)


def test_mean_radii_ratio_is_oriented():
    # h_v maps the unit circle onto itself and |z| = 2 onto radius 1.625;
    # h = 1/conj(z) maps |z| = 2 inward, onto radius 1/2: the ratio is still >= 1
    assert mean_radii_ratio(nitsche_map(NitscheParams(v=0.5, R=2.0))) == pytest.approx(
        1.625, rel=1e-15)
    assert mean_radii_ratio(AnnulusMap(R=2.0, terms={1: (0.0, 1.0)})) == pytest.approx(
        2.0, rel=1e-15)


# h = c (z^n - conj(z)^-n) vanishes on the unit circle; for this c the
# expansion |a|^2 + |b|^2 + 2 Re(a conj(b)) of |a + b|^2 cancels to -9.3e-10
VANISHING_C = -196.52157865247068 - 1613.1842427449333j


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vanishing_trace_has_zero_mean(n):
    m = AnnulusMap(R=2.0, terms={n: (VANISHING_C, -VANISHING_C)})
    assert _mode_sums(m, 1.0)[0] == 0.0
    assert bound_margin(m, 1.0) == -1.0
    assert np.all(np.isfinite(bound_margin(m, np.linspace(1.0, 2.0, 9))))
    with pytest.raises(ArithmeticError):  # U(R)/U(1) with U(1) = 0
        mean_radii_ratio(m)
