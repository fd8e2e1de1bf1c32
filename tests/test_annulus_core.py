"""Coefficient tables, pointwise jets, Dirichlet solves, and the AHM format."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nitsche_lab import _quad
from nitsche_lab import (
    AnnulusMap,
    evaluate,
    evaluate_rings,
    is_conformal,
    random_annulus_map,
    read_ahm,
    solve_dirichlet,
    trace,
    write_ahm,
)
from nitsche_lab.annulus_core import (
    AhmFormatError,
    AnnulusDomainError,
    CoefficientRangeError,
    _check_radius,
    _inner_trace,
    _trace_is_unimodular,
)
from nitsche_lab.nitsche_family import example_51_map

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def small_maps():
    pair = st.tuples(finite, finite).map(lambda t: complex(*t))
    return st.builds(
        AnnulusMap,
        R=st.floats(1.1, 5.0),
        log_a0=pair,
        log_b0=pair,
        terms=st.dictionaries(
            st.integers(-5, 5).filter(lambda n: n != 0),
            st.tuples(pair, pair),
            max_size=6,
        ),
    )


def test_identity_map_jet(identity_map):
    z = 1.3 * np.exp(0.4j)
    jet = evaluate(identity_map, z)
    assert abs(jet.value - z) <= 1e-15
    assert abs(jet.d_z - 1.0) <= 1e-15
    assert abs(jet.d_zbar) <= 1e-15
    assert abs(jet.jacobian - 1.0) <= 1e-15
    assert abs(jet.grad_norm_sq - 2.0) <= 1e-15


def test_log_term_jet():
    m = AnnulusMap(R=4.0, log_a0=2.0, log_b0=1.0j)
    z = 3.0 * np.exp(0.9j)
    jet = evaluate(m, z)
    assert abs(jet.value - (2.0 * math.log(3.0) + 1.0j)) <= 1e-14
    # d/dz of a0 log|z| is a0/(2z)
    assert abs(jet.d_z - 1.0 / z) <= 1e-14
    assert abs(jet.d_zbar - 1.0 / np.conj(z)) <= 1e-14


@pytest.mark.parametrize("rho", [3.0, 1e4, 1e8])
def test_wirtinger_derivatives_far_out(rho):
    # h = z + 0.3 / conj(z): h_zbar = -0.3 conj(z)^-2 is rho^-2 below h_z,
    # and h_rho + i h_theta / rho would cancel the z term to get it
    m = AnnulusMap(R=rho, terms={1: (1.0, 0.3)})
    z = rho * np.exp(0.7j)
    for jet in (evaluate(m, z), evaluate_rings(m, rho, 0.7)):
        assert abs(jet.d_z - 1.0) <= 1e-15
        assert abs(jet.d_zbar + 0.3 / np.conj(z) ** 2) <= 1e-15 * 0.3 / rho**2
        assert abs(jet.jacobian - (1.0 - 0.09 / rho**4)) <= 1e-15


JET_FIELDS = ("value", "d_rho", "d_theta", "d_z", "d_zbar", "jacobian", "grad_norm_sq")


@pytest.mark.parametrize("n_max", [1, 8, 40])
def test_evaluate_rings_matches_evaluate_on_ring_grids(n_max):
    rng = np.random.default_rng(n_max)
    R = 3.0
    m = random_annulus_map(rng, n_max=n_max, R=R, log_scale=0.5)
    theta = np.append(_quad.theta_grid(24), rng.uniform(0.0, 2.0 * np.pi, 5))
    radii = (1.0, R, 2.2, np.array([1.0, 1.7, R]), np.linspace(1.0, R, 6).reshape(2, 3))
    for rho in radii:
        fast = evaluate_rings(m, rho, theta)
        ref = evaluate(m, np.multiply.outer(rho, np.exp(1j * theta)))
        for name in JET_FIELDS:
            got, want = getattr(fast, name), getattr(ref, name)
            assert got.shape == np.shape(rho) + theta.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name
    point, ref = evaluate_rings(m, 1.5, 0.3), evaluate(m, 1.5 * np.exp(0.3j))
    for name in JET_FIELDS:
        got, want = getattr(point, name), getattr(ref, name)
        assert type(got) is type(want)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), name
    for rho in (0.99, np.array([1.0, R * (1.0 + 1e-9)]), math.nan):
        with pytest.raises(AnnulusDomainError):
            evaluate_rings(m, rho, theta)


@settings(max_examples=25, deadline=None)
@given(small_maps(), st.floats(0.0, 2 * math.pi))
def test_polar_wirtinger_consistency(m, theta):
    rho = 1.0 + 0.9 * (m.R - 1.0)
    z = rho * complex(math.cos(theta), math.sin(theta))
    jet = evaluate(m, z)
    e = complex(math.cos(theta), math.sin(theta))
    dz = 0.5 * (jet.d_rho - 1j * jet.d_theta / rho) / e
    dzb = 0.5 * (jet.d_rho + 1j * jet.d_theta / rho) * e
    scale = max(1.0, abs(jet.d_z), abs(jet.d_zbar))
    assert abs(dz - jet.d_z) <= 1e-12 * scale
    assert abs(dzb - jet.d_zbar) <= 1e-12 * scale
    assert abs(jet.jacobian - (abs(jet.d_z) ** 2 - abs(jet.d_zbar) ** 2)) <= 1e-12 * scale**2
    assert abs(jet.grad_norm_sq - 2.0 * (abs(jet.d_z) ** 2 + abs(jet.d_zbar) ** 2)) <= 1e-12 * scale**2


@pytest.mark.parametrize("n_max", [1, 8, 12, 40])
def test_wirtinger_derivatives_match_central_differences(n_max):
    # an oracle outside the mode formulas: h_z = (h_x - i h_y)/2 and
    # h_zbar = (h_x + i h_y)/2 from central differences of the value alone
    rng = np.random.default_rng(300 + n_max)
    m = random_annulus_map(rng, n_max=n_max, R=2.0, log_scale=0.5)
    theta = rng.uniform(0.0, 2.0 * np.pi, 7)
    step = 1e-6

    def h(w):
        return evaluate(m, w).value

    for rho in (1.001, 1.5, 1.999):
        z = rho * np.exp(1j * theta)
        h_x = (h(z + step) - h(z - step)) / (2.0 * step)
        h_y = (h(z + 1j * step) - h(z - 1j * step)) / (2.0 * step)
        for jet in (evaluate(m, z), evaluate_rings(m, rho, theta)):
            scale = np.max(np.abs(jet.d_z) + np.abs(jet.d_zbar))
            assert np.max(np.abs(jet.d_z - 0.5 * (h_x - 1j * h_y))) <= 1e-8 * scale
            assert np.max(np.abs(jet.d_zbar - 0.5 * (h_x + 1j * h_y))) <= 1e-8 * scale


def test_five_point_laplacian_vanishes(rng):
    m = random_annulus_map(rng, n_max=5, R=2.0, log_scale=0.5)
    z = 1.4 * np.exp(1.1j)
    h = 1e-4
    stencil = (
        evaluate(m, z + h).value
        + evaluate(m, z - h).value
        + evaluate(m, z + 1j * h).value
        + evaluate(m, z - 1j * h).value
        - 4.0 * evaluate(m, z).value
    )
    assert abs(stencil) / h**2 <= 1e-5


def _trace_loop(m, rho):
    # term-by-term oracle of trace: one coefficient per stored mode
    out = {0: m.log_a0 * math.log(rho) + m.log_b0}
    for n, (a, b) in m.terms.items():
        out[n] = a * rho**n + b * rho ** (-n)
    return out


@pytest.mark.parametrize("log_scale", [0.0, 0.5])
@pytest.mark.parametrize("n_max", [1, 8, 40])
def test_trace_matches_the_term_loop(n_max, log_scale):
    m = random_annulus_map(np.random.default_rng(n_max), n_max=n_max, R=2.5,
                           log_scale=log_scale)
    for rho in (1.0, 1.7, m.R):
        got, want = trace(m, rho), _trace_loop(m, rho)
        # mode 0 first, kept when h0 = 0, then ascending n
        assert list(got) == [0] + sorted(m.terms)
        assert all(type(c) is complex for c in got.values())
        sizes = {n: abs(a) * rho**n + abs(b) * rho ** (-n) for n, (a, b) in m.terms.items()}
        sizes[0] = abs(m.log_a0) * math.log(rho) + abs(m.log_b0)
        for n, size in sizes.items():
            assert abs(got[n] - want[n]) <= 1e-15 * size


def test_trace_coefficients(critical):
    t = trace(critical, 1.0)
    assert t[0] == 0.0
    assert abs(t[1] - 1.0) <= 1e-15
    t2 = trace(critical, 2.0)
    assert abs(t2[1] - (1.0 + 0.25)) <= 1e-15


def test_dirichlet_round_trip(rng):
    m = random_annulus_map(rng, n_max=6, R=2.5, log_scale=0.7)
    rebuilt = solve_dirichlet(trace(m, 1.0), trace(m, m.R), m.R)
    assert abs(rebuilt.log_a0 - m.log_a0) <= 1e-12
    assert abs(rebuilt.log_b0 - m.log_b0) <= 1e-12
    for n, (a, b) in m.terms.items():
        ra, rb = rebuilt.terms[n]
        assert abs(ra - a) <= 1e-12 and abs(rb - b) <= 1e-12


def test_dirichlet_high_mode_stability():
    # n log R ~ 139: the naive 2x2 solve would lose everything to cancellation
    m = AnnulusMap(R=2.0, terms={200: (0.5, 0.25), -200: (0.125, 1.0)})
    rebuilt = solve_dirichlet(trace(m, 1.0), trace(m, 2.0), 2.0)
    for n, (a, b) in m.terms.items():
        ra, rb = rebuilt.terms[n]
        assert abs(ra - a) <= 1e-12 and abs(rb - b) <= 1e-12


def test_dirichlet_mismatched_indices():
    with pytest.raises(ValueError):
        solve_dirichlet({1: 1.0}, {2: 1.0}, 2.0)


def test_modulus_and_conformality(identity_map, critical):
    assert is_conformal(identity_map)
    assert not is_conformal(critical)


def test_domain_and_validation_errors():
    m = AnnulusMap(R=2.0, terms={1: (1.0, 0.0)})
    with pytest.raises(AnnulusDomainError):
        evaluate(m, 3.0)
    with pytest.raises(AnnulusDomainError):
        evaluate(m, 0.5)
    with pytest.raises(ValueError):
        AnnulusMap(R=0.9)
    with pytest.raises(ValueError):
        AnnulusMap(R=2.0, terms={0: (1.0, 0.0)})
    with pytest.raises(CoefficientRangeError):
        AnnulusMap(R=2.0, terms={1: (float("nan"), 0.0)})
    with pytest.raises(CoefficientRangeError):
        AnnulusMap(R=1000.0, terms={200: (1.0, 0.0)})  # n log R over the cap
    for R in (math.inf, math.nan):  # no terms, so the N log R cap cannot catch it
        with pytest.raises(CoefficientRangeError):
            AnnulusMap(R=R)


def test_nan_points_and_angles_are_refused():
    m = AnnulusMap(R=2.0, terms={1: (1.0, 0.2)})
    nan = math.nan
    for call in (lambda: evaluate(m, complex(nan)), lambda: evaluate(m, 1.5 + nan * 1j),
                 lambda: evaluate_rings(m, 1.5, nan),
                 lambda: evaluate_rings(m, 1.5, math.inf)):
        with pytest.raises(AnnulusDomainError):
            call()


def test_jet_overflow_raises():
    # |z^350|^2 = rho^700 overflows float64 at rho = 3 and stays finite at 2.6
    m = AnnulusMap(R=3.0, terms={350: (1.0, 0.0)})
    theta = _quad.theta_grid(8)
    for call in (lambda: evaluate(m, 3.0), lambda: evaluate(m, 3.0 * np.exp(1j * theta)),
                 lambda: evaluate_rings(m, 3.0, theta)):
        with pytest.raises(FloatingPointError):
            call()
    for jet in (evaluate(m, 2.6 * np.exp(1j * theta)), evaluate_rings(m, 2.6, theta)):
        assert np.all(np.isfinite(jet.jacobian)) and np.all(np.isfinite(jet.grad_norm_sq))


@settings(max_examples=25, deadline=None)
@given(small_maps())
def test_ahm_round_trip(m):
    buf = io.StringIO()
    write_ahm(m, buf)
    back = read_ahm(io.StringIO(buf.getvalue()))
    assert back.R == m.R
    assert back.log_a0 == m.log_a0 and back.log_b0 == m.log_b0
    assert dict(back.terms) == dict(m.terms)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "AHM 2\nR 2\nLOG 0 0 0 0\n",
        "AHM 1\nLOG 0 0 0 0\nR 2\n",
        "AHM 1\nR 2\nLOG 0 0 0 0\nC 0 1 0 0 0\n",
        "AHM 1\nR 2\nLOG 0 0 0 0\nC 1 1 0 0 0\nC 1 2 0 0 0\n",
        "AHM 1\nR 2\nLOG 0 0 0 0\nC 1 x 0 0 0\n",
    ],
)
def test_ahm_rejects_malformed(text):
    with pytest.raises(AhmFormatError):
        read_ahm(io.StringIO(text))


def test_ahm_comments_ignored():
    text = "# header comment\nAHM 1\nR 2 # outer radius\nLOG 0 0 1 0\n"
    m = read_ahm(io.StringIO(text))
    assert m.log_b0 == 1.0 and not m.terms


def test_random_map_is_seeded():
    a = random_annulus_map(np.random.default_rng(5))
    b = random_annulus_map(np.random.default_rng(5))
    assert dict(a.terms) == dict(b.terms) and a.log_a0 == b.log_a0


def test_gauss_legendre_panels_reuse_cached_nodes():
    nodes, weights = _quad.gauss_legendre_panels(0.5, 2.0, 3, 7)
    assert nodes.shape == weights.shape == (21,)
    assert abs(weights.sum() - 1.5) <= 1e-14
    assert abs(np.dot(weights, nodes**13) - (2.0**14 - 0.5**14) / 14.0) <= 1e-10
    assert _quad._legendre(7) is _quad._legendre(7)


def test_radial_integral_array_valued_converges_per_component():
    # x^2 settles on the first comparison; sin(200x) needs several more
    # doublings (its 4-panel estimate is off by 2.5e-3), so the pair must run
    # until the slower component converges
    def both(x):
        return np.column_stack((x**2, np.sin(200.0 * x)))

    val = _quad.radial_integral(both, 0.0, 1.0)
    assert isinstance(val, np.ndarray) and val.shape == (2,)
    assert abs(val[0] - 1.0 / 3.0) <= 1e-14
    assert abs(val[1] - (1.0 - math.cos(200.0)) / 200.0) <= 1e-12
    scalar = _quad.radial_integral(lambda x: np.sin(200.0 * x), 0.0, 1.0)
    assert type(scalar) is float
    assert abs(scalar - val[1]) <= 1e-15


def test_radial_integral_refuses_unconverged_value():
    # x^(-1/2) is singular at 0: 256 panels still change the value by 1e-3
    with pytest.raises(_quad.QuadratureNotConverged):
        _quad.radial_integral(lambda x: x**-0.5, 0.0, 1.0)
    assert issubclass(_quad.QuadratureNotConverged, ArithmeticError)


def test_nonvanishing_samples_ring_ladder():
    def ring_sizes(f, lip, order):
        sizes = []

        def sample(M):
            sizes.append(M)
            return f(_quad.theta_grid(M))

        values, proven = _quad.nonvanishing_samples(sample, lip, order)
        assert values.shape == (sizes[-1],)
        return sizes, proven

    # e^{i theta}: min |f| = 1 > 2 pi / 16 on the first ring, 16 >= 4N + 8
    assert ring_sizes(lambda t: np.exp(1j * t), 1.0, 1) == ([16], True)
    # f = 0 is never proven: powers of two from 64 >= 4*12 + 8 up to the cap
    zero = lambda t: np.zeros(t.shape)  # noqa: E731
    assert ring_sizes(zero, 0.0, 12) == ([64 * 2**k for k in range(7)], False)
    # above N = 1022 the cap is the one ring of 4N + 8 points
    assert ring_sizes(zero, 0.0, 2000) == ([8008], False)


def _grid_degree(values):
    """Oracle: argument increments between neighbouring samples, over 2 pi."""
    args = np.angle(np.append(values, values[0]))
    total = np.sum(np.mod(np.diff(args) + np.pi, 2.0 * np.pi) - np.pi)
    return int(round(total / (2.0 * math.pi)))


def test_inner_trace_degree_matches_fine_grid():
    rng = np.random.default_rng(11)
    seen = set()
    for k in range(60):
        m = random_annulus_map(rng, n_max=2 + k % 11, R=30.0, decay=3.0, log_scale=0.3)
        spec = np.zeros(2**16, dtype=complex)  # the trace on 2^16 angles, by FFT
        for n, c in trace(m, 1.0).items():
            spec[n] = c
        fine = 2**16 * np.fft.ifft(spec)
        if np.min(np.abs(fine)) <= 1e-2:
            continue
        degree, min_mod, _ = _inner_trace(m)
        assert degree == _grid_degree(fine)
        assert min_mod >= np.min(np.abs(fine)) * (1.0 - 1e-12)  # a subset of the nodes
        seen.add(degree)
    assert {-1, 1} <= seen


def test_unimodular_flag_matches_the_inner_trace_search():
    rng = np.random.default_rng(5)
    maps = [random_annulus_map(rng, n_max=1 + k % 12, R=30.0, decay=3.0, log_scale=0.3)
            for k in range(60)]
    # unimodular traces: the circle itself, a rotated Moebius trace, h_0
    mobius, w = example_51_map(0.5, R=20.0), np.exp(0.7j)
    maps += [AnnulusMap(R=2.0, terms={1: (0.5, 0.5)}),
             AnnulusMap(R=mobius.R, log_a0=w * mobius.log_a0, log_b0=w * mobius.log_b0,
                        terms={n: (w * a, w * b) for n, (a, b) in mobius.terms.items()}),
             AnnulusMap(R=5.0, log_a0=0.3, log_b0=1j, terms={})]
    flags = [_trace_is_unimodular(m) for m in maps]
    assert flags == [_inner_trace(m)[2] for m in maps]
    assert flags[-3:] == [True, True, True] and not any(flags[:-3])


@pytest.mark.parametrize("interval", ["[1, R)", "[1, R]", "(1, R]", "(1, R)"])
def test_check_radius_scalars_and_grids(interval):
    m = AnnulusMap(R=2.0)
    lo_in, hi_in = interval[0] == "[", interval[-1] == "]"
    for rho, inside in ((1.0, lo_in), (2.0, hi_in), (1.5, True), (0.5, False),
                        (2.5, False), (math.nan, False)):
        for pts in (rho, np.array([1.2, rho, 1.7])):
            if inside:
                _check_radius(m, pts, interval)
            else:
                with pytest.raises(AnnulusDomainError, match=f"rho={rho} outside"):
                    _check_radius(m, pts, interval)
    _check_radius(m, np.linspace(1.1, 1.9, 9).reshape(3, 3), interval)  # interior grid
