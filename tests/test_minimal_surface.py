"""Isothermal lifts of harmonic maps to minimal graphs and the modulus bound."""

import itertools
import math
import warnings

import numpy as np
import pytest

from nitsche_lab import (
    AnnulusMap,
    annulus_core,
    BranchError,
    NoLiftError,
    catenoid_modulus,
    evaluate_rings,
    lift,
    modulus_bound_check,
    minimal_surface,
    phi_zeros,
    random_annulus_map,
)
from nitsche_lab.minimal_surface import _dilatation
from nitsche_lab.nitsche_family import NitscheParams, nitsche_map


def _march_branch_loop(phi_vals, start):
    # row-by-row oracle of minimal_surface._march_branch: flip each row
    # against the last nonzero (already flipped) row, or against start
    p = np.sqrt(phi_vals)
    out = np.empty_like(p)
    first = p.reshape(p.shape[0], -1)
    res = out.reshape(out.shape[0], -1)
    prev_row = np.broadcast_to(np.asarray(start, dtype=complex), first.shape[1:]).copy()
    prev_row[prev_row == 0] = 1.0
    for k in range(first.shape[0]):
        row = first[k]
        flip = (row * np.conj(prev_row)).real < 0.0
        row = np.where(flip, -row, row)
        res[k] = row
        live = np.abs(row) > 0
        prev_row[live] = row[live]
    return out


def _laurent_factors_loop(m):
    # per-term oracle of minimal_surface._laurent_factors: n a_n z^{n-1} into
    # h_z and -n conj(b_n) z^{-n-1} into conj(h_zbar), indexed by exponent + N + 1
    N = max(m.order, 1)
    P = np.zeros(2 * N + 1, dtype=complex)
    Q = np.zeros(2 * N + 1, dtype=complex)
    off = N + 1
    P[off - 1] += m.log_a0 / 2.0
    Q[off - 1] += m.log_a0.conjugate() / 2.0
    for n, (a, b) in m.terms.items():
        P[off + n - 1] += n * a
        Q[off - n - 1] += -n * b.conjugate()
    return P, Q


@pytest.mark.parametrize("log_scale", [0.0, 0.5])
@pytest.mark.parametrize("n_max", [1, 8, 40])
def test_laurent_factors_match_the_term_loop(n_max, log_scale):
    rng = np.random.default_rng(n_max)
    maps = [random_annulus_map(rng, n_max=n_max, R=2.0, log_scale=log_scale),
            AnnulusMap(R=3.0, log_a0=log_scale, terms={n_max: (1.5j, -2.0), -1: (0.0, 0.7)}),
            AnnulusMap(R=3.0, log_a0=log_scale + 1j)]  # no terms: N = 1
    for m in maps:
        for fast, ref in zip(minimal_surface._laurent_factors(m), _laurent_factors_loop(m)):
            assert fast.shape == ref.shape
            assert np.max(np.abs(fast - ref)) <= 1e-15 * np.max(np.abs(ref))


MARCH_CASES = ["2d", "1d", "single_row", "zero_entries", "zero_rows",
               "zero_start", "scalar_start", "column_start", "restart"]


@pytest.mark.parametrize("case", MARCH_CASES)
def test_march_branch_matches_loop(case):
    rng = np.random.default_rng(MARCH_CASES.index(case))
    for _ in range(20):
        n = 1 if case == "single_row" else int(rng.integers(2, 400))
        cols = 1 if case == "1d" else int(rng.integers(1, 8))
        # smooth paths that wind around 0 several times, so the principal
        # sqrt jumps sign on the cut and the march has to flip it back
        t = np.linspace(0.0, 1.0, n)[:, None]
        amp = rng.normal(size=cols) + 1j * rng.normal(size=cols)
        phi = amp * (0.5 + t) * np.exp(1j * rng.normal(0.0, 30.0, cols) * t)
        start = rng.normal(size=cols) + 1j * rng.normal(size=cols)
        if case == "1d":
            phi, start = phi[:, 0], complex(start[0])
        if case in ("zero_entries", "restart"):
            phi[rng.random(phi.shape) < 0.1] = 0.0
        if case == "zero_rows":
            phi[rng.random(n) < 0.1] = 0.0
        if case == "zero_start":
            start = 0.0
        if case == "scalar_start":
            start = complex(start[0])
        if case == "column_start":
            start[rng.random(cols) < 0.3] = 0.0
        if case == "restart":
            # rows of 1 and -1 have sqrt 1 and i: Re(i conj(+-1)) = +-0,
            # so the loop restarts unflipped there
            phi[rng.random(phi.shape) < 0.1] = 1.0
            phi[rng.random(phi.shape) < 0.1] = -1.0
            start = -1.0
        fast, ref = minimal_surface._march_branch(phi, start), _march_branch_loop(phi, start)
        assert fast.shape == ref.shape
        assert np.array_equal(fast, ref, equal_nan=True)
        for part in ("real", "imag"):  # signed zeros too
            assert np.array_equal(np.signbit(getattr(fast, part)),
                                  np.signbit(getattr(ref, part)))


def test_critical_family_lift_heights():
    # the default grid, a coarse one, the export script's n_theta = 96, one ray
    for (n_rho, n_theta), v in itertools.product(
            [(33, 64), (9, 16), (33, 96), (9, 1)], (0.0, 1.0 / 3.0, 0.9)):
        m = nitsche_map(NitscheParams(v=v, R=2.0))
        res = lift(m, n_rho, n_theta)
        assert res.w.shape == res.sqrt_phi.shape == res.mu.shape == (n_rho, n_theta)
        expected = math.sqrt(1.0 - v * v) * np.log(res.rho_grid)
        assert np.max(np.abs(res.w - expected[:, None])) <= 1e-10
        assert res.conformality_residual <= 1e-12
        assert res.loop_residual <= 1e-10
        assert not res.flat


@pytest.mark.parametrize("R", [30.0, 100.0, 300.0, 1e4])
def test_critical_family_closed_form_at_large_R(R):
    # h_zbar is a termwise sum, so its tiny b_1 / conj(z)^2 does not come
    # from cancelling h_rho against h_theta: no error growing like R^2
    for v in (0.0, 0.5, 0.9):
        res = lift(nitsche_map(NitscheParams(v=v, R=R)))
        expected = math.sqrt(1.0 - v * v) * np.log(res.rho_grid)[:, None]
        assert np.max(np.abs(res.w - expected)) <= 1e-14 * np.max(np.abs(expected))


def _eight_mode_table(R):
    # z + 0.2 conj(z)^-1 + sum_{n=2..8} (1e-3/n) conj(z)^-n: phi has no zeros
    # in the annulus
    return AnnulusMap(R=R, terms={1: (1.0, 0.2), **{n: (0.0, 1e-3 / n) for n in range(2, 9)}})


def _high_order_table(R, N=20):
    # h_z = 1 + 0.9 (z/R)^(N-1) and a conj(z)^-N term: near z = 1 the ray
    # integrand varies like rho^-N
    return AnnulusMap(R=R, terms={1: (1.0, 0.3), N: (0.9 / (N * R ** (N - 1)), 0.009)})


@pytest.mark.parametrize("m", [_eight_mode_table(R) for R in (5.0, 30.0, 100.0, 300.0)]
                         + [_high_order_table(300.0)], ids=lambda m: f"N{m.order}_R{m.R:g}")
def test_ray_rule_matches_four_times_the_panels(m, monkeypatch):
    res = lift(m)
    monkeypatch.setattr(minimal_surface, "RAY_PANEL_DENSITY",
                        4 * minimal_surface.RAY_PANEL_DENSITY)
    fine = lift(m)
    for name in ("w", "sqrt_phi"):
        got, want = getattr(res, name), getattr(fine, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def test_ray_panels_grow_with_the_order(monkeypatch):
    # with the panels not halved towards zeros of phi, the order rule alone
    # resolves the order-20 table at R = 300, and one 16-node panel per
    # coarse interval, whatever N log(rho) it spans, is off by about 1e-6
    m = _high_order_table(300.0)
    res = lift(m)
    monkeypatch.setattr(minimal_surface, "ZERO_CLEARANCE", 0.0)
    ungraded = lift(m)
    assert np.max(np.abs(ungraded.w - res.w)) <= 1e-12 * np.max(np.abs(res.w))
    monkeypatch.setattr(minimal_surface, "RAY_PANEL_DENSITY", 1e-3)
    coarse = lift(m)
    assert np.max(np.abs(coarse.w - res.w)) > 1e-9 * np.max(np.abs(res.w))


def _zeros_at_pm(c, R):
    # h_z = 1 - z^2/c^2 and conj(h_zbar) = -0.3 z^-2: phi has simple zeros at
    # +-c, and winds an even number of times
    return AnnulusMap(R=R, terms={1: (1.0, 0.3), 3: (-1.0 / (3.0 * c * c), 0.0)})


@pytest.mark.parametrize("c", [0.999, 0.999 * np.exp(-1e-4j), 30.03],
                         ids=["inside_T", "inside_T_below_2pi", "beyond_R"])
def test_panels_halved_towards_zeros_off_the_annulus(c, monkeypatch):
    # sqrt(phi) has branch points 1e-3 in log(rho) off the path, on or near
    # the rays theta = 0 and pi, where the order rule gives one panel of
    # log-width 0.65 (inner) or 0.03 (outer)
    m = _zeros_at_pm(c, 30.0)
    assert phi_zeros(m) == []
    res = lift(m)
    with monkeypatch.context() as patch:
        patch.setattr(minimal_surface, "RAY_PANEL_DENSITY",
                      4 * minimal_surface.RAY_PANEL_DENSITY)
        patch.setattr(minimal_surface, "ZERO_CLEARANCE", 4 * minimal_surface.ZERO_CLEARANCE)
        fine = lift(m)
    for name in ("w", "sqrt_phi"):
        got, want = getattr(res, name), getattr(fine, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
    # w has no period around the hole, and the circle path is halved towards
    # a zero near theta = 0 at both of its ends
    assert res.loop_residual <= 1e-14 * np.max(np.abs(res.w))
    # without the halving, both are off by about 1e-11
    monkeypatch.setattr(minimal_surface, "ZERO_CLEARANCE", 0.0)
    ungraded = lift(m)
    assert np.max(np.abs(ungraded.w - fine.w)) > 1e-12 * np.max(np.abs(fine.w))


def test_max_turn_between_nonzero_nodes():
    g = np.exp(1j * np.array([0.0, 0.1, 0.3, 0.6]))
    assert minimal_surface._max_turn(g) == pytest.approx(0.3)
    # zero entries are skipped, per column; one nonzero value has no turn
    g = np.array([[0, 1], [1, 0], [0, 0], [1j, -1]], dtype=complex)
    assert minimal_surface._max_turn(g) == pytest.approx(np.pi)
    assert minimal_surface._max_turn(np.array([0, 2, 0], dtype=complex)) == 0.0


def _double_zero_table(z0):
    # (m, exact): h_z = (1 - z/z0)^2 and conj(h_zbar) = c z^-4 with
    # c = -0.09 (z0/|z0|)^2, so phi has a double zero at z0 and
    # sqrt(phi) = +-sqrt(c) (1 - z/z0) z^-2; i sqrt(c)/z0 is real, and up to
    # sign the lift is exact(z) = 2 Re[i sqrt(c)/z - i sqrt(c)] + 2 (i sqrt(c)/z0) log|z|
    c = -0.09 * (z0 / abs(z0)) ** 2
    m = AnnulusMap(R=2.0, terms={1: (1, 0), 2: (-1 / z0, 0),
                                 3: (1 / (3 * z0**2), -np.conj(c) / 3)})
    i_sqrt_c = 1j * np.sqrt(c)

    def exact(z):
        return 2.0 * ((i_sqrt_c / z).real - i_sqrt_c.real
                      + (i_sqrt_c / z0).real * np.log(np.abs(z)))
    return m, exact


def _grid(res):
    return np.multiply.outer(res.rho_grid, np.exp(1j * res.theta_grid))


@pytest.mark.parametrize("depth", [1e-4, 1e-7])
def test_lift_refuses_an_under_resolved_turn(depth, monkeypatch):
    # phi has a double zero just inside the unit circle, so outside the
    # annulus; there sqrt(phi) ~ (z - z0) turns fast along the circle path
    z0 = (1.0 - depth) * np.exp(2j * np.pi * 5.5 / 64)
    m, exact = _double_zero_table(z0)
    assert phi_zeros(m) == []
    # the panels halved towards z0 resolve the turn
    res = lift(m)
    w = exact(_grid(res))
    assert min(np.max(np.abs(res.w - s * w)) for s in (1, -1)) <= 1e-13 * np.max(np.abs(w))
    monkeypatch.setattr(minimal_surface, "ZERO_CLEARANCE", 0.0)
    if depth == 1e-4:
        with pytest.raises(BranchError, match=r"turns by \d+\.\d degrees"):
            lift(m)
    else:  # a step of more than 135 degrees reads as a sign flip
        with pytest.raises(BranchError, match="does not close"):
            lift(m)


def test_lift_width_and_gauge(critical):
    res = lift(critical)
    assert np.max(np.abs(res.w[0, :])) <= 1e-12  # w = 0 on the unit circle
    assert abs(res.width - math.log(2.0)) <= 1e-10


def test_holomorphic_map_lifts_flat(identity_map):
    # phi = 0 for h = z, conj(z)^-1, a constant, and a conformal table with
    # negative modes; mu is the dilatation of the jet on the lift's grid
    flat_maps = [
        identity_map,
        AnnulusMap(R=3.0, terms={-1: (0.0, 1.0)}),
        AnnulusMap(R=2.0, log_b0=0.7 - 0.2j),
        AnnulusMap(R=2.5, terms={-2: (0.1j, 0.0), -1: (0.3, 0.0), 1: (1.0, 0.0), 2: (0.2, 0.0)}),
    ]
    for m in flat_maps:
        res = lift(m)
        assert res.flat
        assert np.max(np.abs(res.w)) == 0.0 and np.max(np.abs(res.sqrt_phi)) == 0.0
        assert res.conformality_residual == 0.0 and res.loop_residual == 0.0
        jet = evaluate_rings(m, res.rho_grid, res.theta_grid)
        assert np.array_equal(res.mu, _dilatation(jet.d_z, jet.d_zbar), equal_nan=True)


def test_second_dilatation_of_critical_map(critical):
    res = lift(critical)
    # mu = conj(h_zbar)/h_z = -1/z^2, so -1/4 at z = 2: the rho = 2 row at theta = 0
    assert res.rho_grid[-1] == 2.0 and res.theta_grid[0] == 0.0
    assert abs(res.mu[-1, 0] - (-0.25)) <= 1e-15
    # |mu| < 1 on the open annulus, -> 1 at the inner boundary
    assert np.nanmax(np.abs(res.mu[1:, :])) < 1.0
    assert np.allclose(np.abs(res.mu[0, :]), 1.0, atol=1e-12)


def test_phi_zero_parity_detection():
    # h_z has a simple zero at z = 1.5 inside A(1, 2): no single-valued sqrt
    m = AnnulusMap(R=2.0, terms={2: (0.5, 0.0), 1: (-1.5, 1.0)})
    zeros = phi_zeros(m)
    assert any(abs(z - 1.5) <= 1e-9 and k % 2 == 1 for z, k in zeros)
    with pytest.raises(NoLiftError):
        lift(m)


def test_phi_zeros_empty_for_degenerate_factor(identity_map, critical):
    assert phi_zeros(identity_map) == []
    assert phi_zeros(critical) == []


def test_critical_map_phi_is_negative_real(critical):
    # phi = h_z conj(h_zbar) = -1/(4 zbar^2); on the positive axis it sits
    # exactly on the sqrt branch cut, which the calibration must survive
    res = lift(critical)
    assert abs(complex(res.sqrt_phi[0, 0]) - 0.5j) <= 1e-12
    w_again = lift(critical).w
    assert np.array_equal(res.w, w_again)  # deterministic


@pytest.mark.parametrize("r0, dtheta", [(1.7, 0.0), (1.5, 0.0), (1.7, 1e-4)])
def test_lift_follows_branch_through_double_zero_on_ray(r0, dtheta):
    # phi has a double zero at z0, on (or 1e-4 rad off) the grid ray
    # theta = 2 pi 5/64
    z0 = r0 * np.exp(1j * (2.0 * np.pi * 5 / 64 + dtheta))
    m, exact_at = _double_zero_table(z0)
    assert [mult for _, mult in phi_zeros(m)] == [2]
    res = lift(m)
    exact = exact_at(_grid(res))
    ray = res.w[:, 5]
    assert min(np.max(np.abs(ray - s * exact[:, 5])) for s in (1, -1)) <= 1e-12
    assert min(np.max(np.abs(res.w - s * exact)) for s in (1, -1)) <= 1e-12


def test_lift_matches_loop_march(critical, monkeypatch):
    double_zero, _ = _double_zero_table(1.7 * np.exp(2j * np.pi * 5 / 64))
    fast = [lift(m) for m in (critical, double_zero)]
    monkeypatch.setattr(minimal_surface, "_march_branch", _march_branch_loop)
    for m, res in zip((critical, double_zero), fast):
        ref = lift(m)
        for name in ("w", "sqrt_phi", "mu", "conformality_residual", "loop_residual"):
            assert np.array_equal(getattr(res, name), getattr(ref, name), equal_nan=True)


def _lift_path_grids(m, monkeypatch):
    # the (rho, theta) grids lift(m) forms h_z and h_zbar on, in call order
    grids = []

    def recording(m_, rho, theta):
        grids.append((rho, theta))
        return annulus_core._rings_wirtinger(m_, rho, theta)
    with monkeypatch.context() as patch:
        patch.setattr(minimal_surface, "_rings_wirtinger", recording)
        lift(m)
    return grids


def test_lift_paths_form_the_full_jets_derivatives(critical, monkeypatch):
    # the circle path and the ray path of two lifts, on A(1, 2) like the tables
    double_zero, _ = _double_zero_table(1.7 * np.exp(2j * np.pi * 5 / 64))
    grids = [g for m in (critical, double_zero) for g in _lift_path_grids(m, monkeypatch)]
    assert len(grids) == 4 and [np.ndim(rho) for rho, _ in grids] == [0, 1, 0, 1]
    order8 = random_annulus_map(np.random.default_rng(8), n_max=8, R=2.0, log_scale=1.0)
    for m in (critical, double_zero, order8):
        for rho, theta in grids:
            jet = evaluate_rings(m, rho, theta)
            for lean, full in zip(annulus_core._rings_wirtinger(m, rho, theta),
                                  (jet.d_z, jet.d_zbar)):
                assert lean.shape == full.shape
                assert np.array_equal(lean.view(np.uint64), full.view(np.uint64))


def test_lift_finds_the_roots_once(critical, monkeypatch):
    calls = []
    factor_roots = minimal_surface._factor_roots
    monkeypatch.setattr(minimal_surface, "_factor_roots",
                        lambda m: calls.append(m) or factor_roots(m))
    double_zero, _ = _double_zero_table(1.7 * np.exp(2j * np.pi * 5 / 64))
    for m in (critical, double_zero):
        calls.clear()
        lift(m)
        assert calls == [m]
    assert [k for _, k in phi_zeros(double_zero)] == [2]


def test_lift_overflow_raises_without_warning():
    # |h_z|^2 of z^600 overflows at rho = 2 on A(1, e); h_zbar = 0, so phi
    # stays finite and the refusal comes from the squares of the residual's
    # scale, outside the jet
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FloatingPointError):
            lift(AnnulusMap(R=math.e, terms={600: (1.0, 0.0)}))
    assert not caught


def test_lift_refusals():
    # phi winds once around the unit circle: sqrt(phi) changes sign
    with pytest.raises(BranchError, match="does not close around the unit circle"):
        lift(AnnulusMap(R=2.0, terms={1: (-0.5, 0.3), 2: (0.5, 0.0)}))
    # sqrt(phi) closes, but w gains 5.72 around the hole
    with pytest.raises(BranchError, match="multivalued"):
        lift(AnnulusMap(R=2.0, terms={1: (1, 1 + 1j), 2: (-1 / 1.5, 0),
                                      3: (1 / 6.75, 0)}))
    with pytest.raises(ValueError, match="n_rho"):
        lift(nitsche_map(NitscheParams(v=0.3, R=2.0)), n_rho=1)
    with pytest.raises(ValueError, match="n_theta"):
        lift(nitsche_map(NitscheParams(v=0.3, R=2.0)), n_theta=0)


def test_catenoid_modulus_inverts_mean_radius():
    for t in (0.1, 1.0, 2.5):
        assert abs(catenoid_modulus(math.cosh(t)) - t) <= 1e-12
    assert catenoid_modulus(1.0) == 0.0
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            catenoid_modulus(bad)


def test_modulus_bound_sharpness():
    for R in (1.1, 2.0, 5.0, 10.0):
        holds, slack = modulus_bound_check(math.log(R), 0.5 * (R + 1.0 / R))
        assert holds and abs(slack) <= 1e-12
    holds, slack = modulus_bound_check(1.5, math.cosh(1.0))
    assert not holds and slack < 0.0
    for surface, ratio in ((1.0, 0.9), (math.nan, 1.5), (0.1, math.nan),
                           (math.inf, 1.5), (0.1, math.inf)):
        with pytest.raises(ValueError):
            modulus_bound_check(surface, ratio)
