"""Weighted integral identity: closed-form left side vs quadrature right side."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nitsche_lab import _quad
from nitsche_lab import (
    AnnulusMap,
    g_substitute,
    identity_lhs,
    identity_rhs,
    random_annulus_map,
    thin_annulus_bound,
    verify_identity,
)
from nitsche_lab.annulus_core import AnnulusDomainError, evaluate
from nitsche_lab.identity_engine import (
    _g_derivative_moduli,
    weight_first,
    weight_second,
)
from nitsche_lab.nitsche_family import NitscheParams, nitsche_map


def test_constant_map_spot_value():
    m = AnnulusMap(R=2.0, log_b0=1.0)
    rep = verify_identity(m, 2.0)
    assert abs(rep.lhs - (-0.9 + 3.0 * math.log(2.0))) <= 1e-14
    assert abs(rep.residual) <= 1e-10
    # sigma = 2 < e: both weighted integrals are nonnegative
    assert rep.rhs_integrals[0] >= 0.0 and rep.rhs_integrals[1] >= 0.0
    assert abs(sum(rep.rhs_integrals) - rep.rhs) <= 1e-14


def test_identity_map_spot_value(identity_map):
    rep = verify_identity(identity_map, 2.0)
    assert abs(rep.lhs - 0.9) <= 1e-14
    assert abs(rep.residual) <= 1e-10


def test_critical_map_annihilates_both_sides(critical):
    rep = verify_identity(critical, 2.0)
    assert abs(rep.lhs) <= 1e-13
    assert abs(rep.rhs_integrals[0]) <= 1e-13
    assert abs(rep.rhs_integrals[1]) <= 1e-13


def test_lhs_term_breakdown(identity_map):
    lhs, terms = identity_lhs(identity_map, 2.0)
    assert abs(sum(terms) - lhs) <= 1e-14
    # U(2) = 4, U(1) = 1, U'(1) = 2, W = 1
    assert abs(terms[0] - 2.0 * 4.0 / 5.0 * 4.0) <= 1e-14
    assert abs(terms[1] + 2.5) <= 1e-14
    assert abs(terms[2] + 3.0) <= 1e-14
    assert abs(terms[3]) <= 1e-14


def test_weight_signs():
    rho = np.linspace(1.0 + 1e-9, 2.0, 200)
    assert np.all(weight_first(2.0, rho) >= 0.0)
    assert np.all(weight_second(2.0, rho) >= 0.0)  # sigma = 2 < e
    sigma = 3.5  # above e: the second weight goes negative near the inner circle
    rho2 = np.linspace(1.0 + 1e-9, sigma, 400)
    assert np.min(weight_second(sigma, rho2)) < 0.0
    assert np.all(weight_first(sigma, rho2) >= 0.0)
    # both weights vanish at the outer circle
    assert abs(weight_first(2.0, 2.0)) <= 1e-12
    assert abs(weight_second(2.0, 2.0)) <= 1e-12


def test_substitution_routes_agree(rng):
    m = random_annulus_map(rng, n_max=5, R=2.0, log_scale=0.4)
    theta = np.linspace(0.0, 2.0 * np.pi, 17)
    z = 1.4 * np.exp(1j * theta)
    _, g_z, g_zbar = g_substitute(m, z)
    jet = evaluate(m, z)
    gz2, gzb2 = _g_derivative_moduli(jet, np.abs(z))
    assert np.max(np.abs(np.abs(g_z) ** 2 - gz2)) <= 1e-12
    assert np.max(np.abs(np.abs(g_zbar) ** 2 - gzb2)) <= 1e-12


def test_substitution_factorization(rng):
    m = random_annulus_map(rng, n_max=4, R=2.0)
    z = 1.3 * np.exp(0.7j)
    g, _, _ = g_substitute(m, z)
    h = evaluate(m, z).value
    assert abs(0.5 * (z + 1.0 / np.conj(z)) * g - h) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(1.05, 2.5))
def test_identity_random_maps(seed, sigma):
    m = random_annulus_map(np.random.default_rng(seed), n_max=6, R=2.5)
    rep = verify_identity(m, sigma)
    assert abs(rep.residual) <= 1e-8 * max(1.0, abs(rep.lhs))


def test_rhs_integral_breakdown(identity_map):
    total, (i1, i2) = identity_rhs(identity_map, 2.0)
    assert abs((i1 + i2) - total) <= 1e-14
    assert i1 >= 0.0 and i2 >= 0.0  # sigma = 2 < e: both weights nonnegative


def test_thin_annulus_margin(critical):
    res = thin_annulus_bound(critical, 2.0)
    assert res.preconditions_ok
    assert abs(res.margin) <= 1e-12  # extremal family sits on the floor
    m = nitsche_map(NitscheParams(v=0.5, R=2.0))
    res2 = thin_annulus_bound(m, 2.0)
    assert res2.preconditions_ok and res2.margin > 0.0


def test_thin_annulus_flags():
    m = nitsche_map(NitscheParams(v=0.0, R=4.0))
    assert thin_annulus_bound(m, 3.5).sigma_above_e
    big = AnnulusMap(R=2.0, terms={1: (2.0, 0.0)})
    assert thin_annulus_bound(big, 2.0).trace_not_unimodular
    sq = AnnulusMap(R=2.0, terms={2: (1.0, 0.0)})
    assert thin_annulus_bound(sq, 2.0).winding_not_one
    shrink = AnnulusMap(R=2.0, terms={1: (0.1, 0.2)})
    assert thin_annulus_bound(shrink, 2.0).negative_initial_slope


def test_domain_guards(critical):
    with pytest.raises(AnnulusDomainError):
        identity_lhs(critical, 1.0)
    with pytest.raises(AnnulusDomainError):
        identity_rhs(critical, 2.5)
    with pytest.raises(AnnulusDomainError):
        thin_annulus_bound(critical, 2.5)


@pytest.mark.parametrize("sigma", [1.6, 3.5])  # second weight >= 0, then sign-changing
def test_rhs_matches_two_scalar_integrals(sigma):
    """Oracle for the one-pass right side: one scalar integral per weight."""
    m = random_annulus_map(np.random.default_rng(11), n_max=6, R=4.0, log_scale=0.4)
    M = 4 * m.order + 16

    def ring_mean(r, k):  # k = 0: mean |G1|^2, k = 1: mean |G2|^2
        z = _quad.ring_grid(r, M)
        return np.mean(_g_derivative_moduli(evaluate(m, z), np.abs(z))[k], axis=1)

    i1 = _quad.radial_integral(
        lambda r: 2.0 * r * weight_first(sigma, r) * ring_mean(r, 0), 1.0, sigma,
        rtol=1e-11)
    i2 = _quad.radial_integral(
        lambda r: 2.0 * r * weight_second(sigma, r) * ring_mean(r, 1), 1.0, sigma,
        rtol=1e-11)
    _, (j1, j2) = identity_rhs(m, sigma)
    assert abs(j1 - i1) <= 1e-13 * max(1.0, abs(i1))
    assert abs(j2 - i2) <= 1e-13 * max(1.0, abs(i2))
    assert verify_identity(m, sigma).rhs_integrals == (j1, j2)
