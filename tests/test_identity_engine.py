"""Weighted integral identity: closed-form left side vs quadrature right side."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nitsche_lab import _quad
from nitsche_lab import (
    AnnulusMap,
    identity_lhs,
    identity_rhs,
    random_annulus_map,
    thin_annulus_bound,
    verify_identity,
)
from nitsche_lab.annulus_core import AnnulusDomainError, evaluate
from nitsche_lab.identity_engine import _g_modes, weight_first, weight_second
from nitsche_lab.nitsche_family import NitscheParams, nitsche_map


def _g_derivative_moduli(jet, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid oracle: (|g_z|^2, |g_zbar|^2) from the polar first derivatives of h only."""
    s = rho * rho + 1.0
    G1 = (rho * jet.d_rho - 1j * jet.d_theta) / s - 2.0 * rho * rho * jet.value / s**2
    G2 = (rho * jet.d_rho + 1j * jet.d_theta) / s + 2.0 * jet.value / s**2
    return np.abs(G1) ** 2, np.abs(G2) ** 2


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


def _g_substitute(m, z):
    # (g, g_z, g_zbar) for the factorization h = (z + 1/zbar)/2 * g, by the
    # product rule on g = 2 zbar h / (|z|^2 + 1): a pointwise route apart
    # from the per-mode closed forms of identity_engine._g_modes
    z_arr = np.asarray(z, dtype=complex)
    jet = evaluate(m, z_arr)
    s = np.abs(z_arr) ** 2 + 1.0
    zb = np.conj(z_arr)
    g = 2.0 * zb * jet.value / s
    g_z = 2.0 * zb * jet.d_z / s - 2.0 * zb * zb * jet.value / s**2
    g_zbar = (
        2.0 * jet.value / s
        + 2.0 * zb * jet.d_zbar / s
        - 2.0 * np.abs(z_arr) ** 2 * jet.value / s**2
    )
    return g, g_z, g_zbar


def test_substitution_routes_agree(rng):
    m = random_annulus_map(rng, n_max=5, R=2.0, log_scale=0.4)
    theta = np.linspace(0.0, 2.0 * np.pi, 17)
    z = 1.4 * np.exp(1j * theta)
    _, g_z, g_zbar = _g_substitute(m, z)
    jet = evaluate(m, z)
    gz2, gzb2 = _g_derivative_moduli(jet, np.abs(z))
    assert np.max(np.abs(np.abs(g_z) ** 2 - gz2)) <= 1e-12
    assert np.max(np.abs(np.abs(g_zbar) ** 2 - gzb2)) <= 1e-12


def test_substitution_factorization(rng):
    m = random_annulus_map(rng, n_max=4, R=2.0)
    z = 1.3 * np.exp(0.7j)
    g, _, _ = _g_substitute(m, z)
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
    """Oracle for the per-mode right side: one scalar integral per weight of
    the trapezoid mean over the jet of h on a 4N + 16-point ring."""
    for N in (1, 4, 17, 40):
        m = random_annulus_map(np.random.default_rng(11), n_max=N, R=4.0, log_scale=0.4)
        assert m.log_a0 != 0 and m.log_b0 != 0 and min(m.terms) == -N
        M = 4 * m.order + 16

        def ring_mean(r, k):  # k = 0: mean |G1|^2, k = 1: mean |G2|^2
            z = np.multiply.outer(r, np.exp(1j * _quad.theta_grid(M)))
            return np.mean(_g_derivative_moduli(evaluate(m, z), np.abs(z))[k], axis=1)

        i1 = _quad.radial_integral(
            lambda r: 2.0 * r * weight_first(sigma, r) * ring_mean(r, 0), 1.0, sigma,
            rtol=1e-11)
        i2 = _quad.radial_integral(
            lambda r: 2.0 * r * weight_second(sigma, r) * ring_mean(r, 1), 1.0, sigma,
            rtol=1e-11)
        _, (j1, j2) = identity_rhs(m, sigma)
        assert abs(j1 - i1) <= 1e-13 * abs(i1)
        assert abs(j2 - i2) <= 1e-13 * abs(i2)
        assert verify_identity(m, sigma).rhs_integrals == (j1, j2)


@pytest.mark.parametrize("N", [64, 128, 256])
def test_identity_reaches_high_order(N):
    rng = np.random.default_rng(N)
    m = random_annulus_map(rng, n_max=N, R=3.0)
    rep = verify_identity(m, 3.0 - 1.95 * float(rng.random()))
    assert abs(rep.residual) <= 1e-8 * max(1.0, abs(rep.lhs))


def test_g_modes_match_symbolic_derivation():
    """Third route: G1, G2 of one mode h_n(rho) e^{in theta} (and of the
    log/constant mode) by symbolic differentiation of the definitions."""
    sp = pytest.importorskip("sympy")
    rho = sp.Symbol("rho", positive=True)
    theta = sp.Symbol("theta", real=True)
    a, b = sp.symbols("a b")
    s = 1 + rho**2
    r0, av, bv = 1.7, 0.3 - 1.1j, -0.8 + 0.45j
    for n in range(-3, 4):
        if n == 0:
            h_n = a * sp.log(rho) + b
            m, col = AnnulusMap(R=2.0, log_a0=av, log_b0=bv), 0
            coded = (a / s - 2 * rho**2 * h_n / s**2, a / s + 2 * h_n / s**2)
        else:
            h_n = a * rho**n + b * rho**-n
            m, col = AnnulusMap(R=2.0, terms={n: (av, bv)}), 1
            coded = (2 * n * a * rho**n / s - 2 * rho**2 * h_n / s**2,
                     -2 * n * b * rho**-n / s + 2 * h_n / s**2)
        h = h_n * sp.exp(sp.I * n * theta)
        rho_h_rho, h_theta = rho * sp.diff(h, rho), sp.diff(h, theta)
        derived = ((rho_h_rho - sp.I * h_theta) / s - 2 * rho**2 * h / s**2,
                   (rho_h_rho + sp.I * h_theta) / s + 2 * h / s**2)
        G = _g_modes(m, np.array([r0]))
        for g, form, num in zip(derived, coded, G):
            mode = sp.simplify(g * sp.exp(-sp.I * n * theta))
            assert sp.simplify(mode - form) == 0
            value = complex(mode.subs({rho: r0, a: av, b: bv}))
            assert abs(value - num[0, col]) <= 1e-14 * abs(value)
