"""Disk extensions, the Jacobian-energy chain, and the boundary kernel functional."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nitsche_lab import (
    BoundaryHomeo,
    DiskMap,
    boundary_normal_derivative,
    jacobian_energy_chain,
    lemma_functional,
    lemma_functional_split,
    normal_derivative_spectral,
    poisson_extend,
    psi_region_check,
    random_annulus_map,
    random_boundary_homeo,
    read_bhm,
    write_bhm,
)
from nitsche_lab import _quad
from nitsche_lab.disk_maps import (
    BhmFormatError,
    NonMonotoneError,
    _circle_series,
    _disk_rings,
    _one_minus_cos,
    _zeta_difference,
    disk_area_quadrature,
    psi,
)


def sine_homeo(eps: float = 0.2) -> BoundaryHomeo:
    # zeta(theta) = 2 eps sin(theta): coefficient -i eps at n = 1
    return BoundaryHomeo(zeta_coeffs={1: -1j * eps})


def sine_family(a: float, n: int) -> BoundaryHomeo:
    # zeta(theta) = a sin(n theta) / n, so xi' = 1 + a cos(n theta) dips to 1 - a
    return BoundaryHomeo(zeta_coeffs={n: -0.5j * a / n})


def _direct_lemma(bdry: BoundaryHomeo, M: int) -> float:
    """Oracle for lemma_functional: the dense M x M double trapezoid, rows
    theta and columns alpha on the same grid."""
    theta = _quad.theta_grid(M)
    zp = bdry.zeta_prime(theta)
    beta = theta[None, 1:] + _zeta_difference(bdry, theta, theta[1:])
    kernel = np.empty((M, M))
    kernel[:, 0] = (1.0 + zp) ** 2
    kernel[:, 1:] = _one_minus_cos(beta) / _one_minus_cos(theta[1:])[None, :]
    return float((2.0 * np.pi / M) ** 2 * np.sum(kernel * zp[:, None]))


def _eval_by_terms(f: DiskMap, z: np.ndarray) -> np.ndarray:
    """Oracle for the value of _disk_rings: f(z) term by term, c_n z^n for
    n >= 0 and c_n conj(z)^|n| for n < 0."""
    ns, c = f.mode_arrays()
    out = np.zeros_like(z)
    for n, cn in zip(ns, c):
        out = out + (cn * z**n if n >= 0 else cn * np.conj(z) ** (-n))
    return out


def _wirtinger_by_terms(f: DiskMap, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for d_z and d_zbar of _disk_rings: f_z = sum n c_n z^(n-1) over
    n > 0 and f_zbar = sum |n| c_n conj(z)^(|n|-1) over n < 0, term by term."""
    ns, c = f.mode_arrays()
    f_z = np.zeros_like(z)
    f_zb = np.zeros_like(z)
    for n, cn in zip(ns[ns > 0], c[ns > 0]):
        f_z += n * cn * z ** (n - 1)
    for n, cn in zip(ns[ns < 0], c[ns < 0]):
        f_zb += (-n) * cn * np.conj(z) ** (-n - 1)
    return f_z, f_zb


def _area_by_terms(f: DiskMap) -> float:
    """Oracle for disk_area_quadrature: the same radial and angular rules on
    the Jacobian |f_z|^2 - |f_zbar|^2 of _wirtinger_by_terms."""
    theta = _quad.theta_grid(max(_quad.exact_ring_size(f.order), 32))

    def ring(r: np.ndarray) -> np.ndarray:
        f_z, f_zb = _wirtinger_by_terms(f, np.multiply.outer(r, np.exp(1j * theta)))
        return 2.0 * np.pi * np.mean(np.abs(f_z) ** 2 - np.abs(f_zb) ** 2, axis=1) * r

    return _quad.radial_integral(ring, 0.0, 1.0)


def _oracle_disk_maps(rng) -> list[DiskMap]:
    """Extensions of circle maps at N = 1, 8 and 96, a two-sided extension
    of an annulus map, and a constant."""
    maps = [poisson_extend(random_boundary_homeo(rng), N=N) for N in (1, 8, 96)]
    maps.append(poisson_extend(random_annulus_map(rng, n_max=5)))  # two-sided modes
    assert min(maps[-1].mode_arrays()[0]) < 0 < max(maps[-1].mode_arrays()[0])
    return maps + [DiskMap(coeffs={0: 0.3 - 0.7j})]


def test_disk_rings_match_termwise_sums(rng):
    """The ring product against the per-term sums, on radii down to 0.05 and
    angles off [0, 2pi)."""
    r = np.array([0.05, 0.5, 1.0])
    theta = np.array([-1.3, 0.0, 0.9, 2.0, 4.4, 40.0])
    z = np.multiply.outer(r, np.exp(1j * theta))

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    for f in _oracle_disk_maps(rng):
        jet = _disk_rings(f, r, theta)
        f_z, f_zb = _wirtinger_by_terms(f, z)
        close(jet.value, _eval_by_terms(f, z))
        close(jet.d_z, f_z)
        close(jet.d_zbar, f_zb)
        close(jet.jacobian, np.abs(f_z) ** 2 - np.abs(f_zb) ** 2)


def test_disk_area_quadrature_matches_termwise_sums(rng):
    for f in _oracle_disk_maps(rng):
        want = _area_by_terms(f)
        assert abs(disk_area_quadrature(f) - want) <= 1e-12 * max(1.0, abs(want))


def test_boundary_homeo_identity():
    b = BoundaryHomeo(zeta_coeffs={})
    theta = np.linspace(0.0, 2.0 * np.pi, 9)
    assert np.allclose(b.xi(theta), theta)
    assert np.allclose(b.xi_prime(theta), 1.0)
    assert b.is_monotone()


def test_boundary_homeo_refuses_non_finite():
    for coeffs in ({1: math.nan}, {2: complex(0.0, math.inf)}, {0: -math.inf}):
        with pytest.raises(ValueError, match="non-finite"):
            BoundaryHomeo(zeta_coeffs=coeffs)


def test_boundary_homeo_monotonicity_guard():
    steep = BoundaryHomeo(zeta_coeffs={1: 0.6})  # zeta' reaches 1.2 > 1
    # e^{4096 i theta} is 1 at 4096 equally spaced angles, yet xi' reaches -7.19
    aliased = BoundaryHomeo(zeta_coeffs={4096: 1e-3})
    for bdry in (steep, aliased):
        assert not bdry.is_monotone()
        with pytest.raises(NonMonotoneError):
            bdry.require_monotone()


def test_poisson_extension_of_annulus_map(critical):
    f = poisson_extend(critical)
    assert abs(f.coeffs[1] - 1.0) <= 1e-15  # c_1 = a_1 + b_1
    z = 0.5 * np.exp(0.3j)
    assert abs(_disk_rings(f, 0.5, 0.3).value - z) <= 1e-15
    # a log term does not reach the unit circle: c_0 = b_0
    m = random_annulus_map(np.random.default_rng(2), n_max=3, log_scale=0.5)
    expected = {0: m.log_b0, **{n: a + b for n, (a, b) in m.terms.items()}}
    assert dict(poisson_extend(m).coeffs) == expected


def test_poisson_extension_of_boundary_homeo():
    f = poisson_extend(BoundaryHomeo(zeta_coeffs={}), N=16)
    assert abs(f.coeffs[1] - 1.0) <= 1e-12
    others = [abs(c) for n, c in f.coeffs.items() if n != 1]
    assert max(others) <= 1e-12


def test_poisson_extension_grid_follows_map_order():
    """A map of order 600 truncated at N = 8 is sampled on a grid sized by its
    order, not by N: its coefficients match those of a grid twice as fine."""
    bdry = BoundaryHomeo(zeta_coeffs={1: 0.1, 600: 1e-4j})
    assert bdry.order == 600 and bdry.is_monotone()
    f = poisson_extend(bdry, N=8)
    M = 2 * (1 << (8 * 600 - 1).bit_length())
    spec = np.fft.fft(np.exp(1j * bdry.xi(_quad.theta_grid(M)))) / M
    assert sorted(f.coeffs) == list(range(-8, 9))
    assert max(abs(c - spec[n]) for n, c in f.coeffs.items()) <= 1e-12


def test_chain_for_identity_disk_map():
    res = jacobian_energy_chain(DiskMap(coeffs={1: 1.0}))
    tau = 2.0 * math.pi
    assert abs(res.boundary_abs_det - tau) <= 1e-12
    assert abs(res.disk_energy - tau) <= 1e-12
    assert abs(res.twice_area - tau) <= 1e-12
    assert res.sense_preserving and res.chain_holds


def test_chain_is_strict_for_perturbations(rng):
    for _ in range(5):
        f = poisson_extend(random_boundary_homeo(rng), N=64)
        res = jacobian_energy_chain(f)
        assert res.chain_holds
        assert res.boundary_abs_det >= res.disk_energy - 1e-10
        assert res.disk_energy >= res.twice_area - 1e-10
        assert abs(res.signed_area - math.pi) <= 1e-10
        assert abs(disk_area_quadrature(f) - res.signed_area) <= 1e-8


def test_circle_samples_match_series(rng):
    """Oracle for the inverse-FFT route: the dense exponential sum."""
    for ns in (np.arange(-5, 8), np.array([-9, -2, 0, 3, 11]), np.array([0, 4, 6])):
        c = rng.standard_normal(ns.size) + 1j * rng.standard_normal(ns.size)
        span = int(ns.max() - ns.min())
        for M in (span + 1, 4096):
            fast = _quad.circle_samples(ns, c, M)
            slow = _circle_series(_quad.theta_grid(M), ns, c)
            assert np.max(np.abs(fast - slow)) <= 1e-13 * np.sum(np.abs(c))
        with pytest.raises(ValueError):
            _quad.circle_samples(ns, c, span)


def test_chain_boundary_term_matches_direct_trapezoid(rng):
    """Oracle for the chain's boundary term: the ring jet of _disk_rings on
    the same grid."""
    for f in _oracle_disk_maps(rng):
        jet = _disk_rings(f, 1.0, _quad.theta_grid(max(16 * f.order + 32, 2048)))
        det = (np.conj(jet.d_rho) * jet.d_theta).imag
        want = 2.0 * np.pi * np.mean(np.abs(det))
        got = jacobian_energy_chain(f).boundary_abs_det
        assert abs(got - want) <= 1e-13 * abs(want)


def test_normal_derivative_matches_spectral(rng):
    bdry = random_boundary_homeo(rng)
    f = poisson_extend(bdry, N=96)
    for theta in (0.0, 1.1, 4.0):
        singular = boundary_normal_derivative(bdry, theta)
        spectral = normal_derivative_spectral(f, theta)
        assert abs(singular - spectral) <= 1e-8 * max(1.0, abs(spectral))


def test_normal_derivative_matches_pointwise_xi(rng):
    """The inverse-FFT singular integral at the default M = 4096 against the
    same trapezoid with xi(theta) - xi(theta - alpha) formed pointwise,
    including angles off [0, 2pi)."""
    M = 4096
    alpha = _quad.theta_grid(M)[1:]
    for bdry in (random_boundary_homeo(rng, n_max=3), random_boundary_homeo(rng, n_max=12)):
        for t in (0.0, -1.3, 2.0 * np.pi - 1e-9, 40.0):
            beta = bdry.xi(t) - bdry.xi(t - alpha)
            want = (float(bdry.xi_prime(t)) ** 2
                    + np.sum(_one_minus_cos(beta) / _one_minus_cos(alpha))) / M
            got = boundary_normal_derivative(bdry, t)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
    rotation = BoundaryHomeo(zeta_coeffs={0: 0.4})  # no positive modes
    for t in (0.0, 2.5, 40.0):
        assert abs(boundary_normal_derivative(rotation, t) - 1.0) <= 1e-15


def test_functional_vanishes_on_rotations():
    for c in (0.0, 0.7, -2.0):
        rotation = BoundaryHomeo(zeta_coeffs={0: c})
        assert lemma_functional(rotation) == 0.0
        assert lemma_functional(rotation, M=64) == _direct_lemma(rotation, 64) == 0.0


def test_functional_matches_dense_kernel():
    """Oracle for the circular-correlation route: the dense M x M kernel, on
    seeded random maps of order 1 to 12 and near-degenerate sine maps.  The
    seeds step order and ring size together; 12 and 5 are coprime, so every
    (order, M) pair occurs."""
    cases = []
    for seed in range(100):
        n_max = 1 + seed % 12
        bdry = random_boundary_homeo(np.random.default_rng(seed), n_max=n_max)
        sizes = (_quad.exact_ring_size(n_max), 64, 256, 512, 1024)
        cases.append((bdry, sizes[seed % 5]))
    for a in (0.9, 0.99):
        for n, M in ((1, 1024), (3, 64), (5, 512)):
            cases.append((sine_family(a, n), M))
    for bdry, M in cases:
        want = _direct_lemma(bdry, M)
        assert abs(lemma_functional(bdry, M=M) - want) <= 1e-12 * max(1.0, abs(want))


def test_functional_positive_for_perturbation():
    val = lemma_functional(sine_homeo())
    assert val > 1e-3


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_functional_nonnegative_random(seed):
    bdry = random_boundary_homeo(np.random.default_rng(seed))
    assert lemma_functional(bdry, M=256) >= -1e-9


def test_split_bookkeeping_matches_functional():
    bdry = sine_homeo()
    split = lemma_functional_split(bdry)
    total = lemma_functional(bdry)
    assert abs(split.total - total) <= 1e-9 * max(1.0, abs(total))
    assert split.A_plus + split.B_plus >= split.plus_lower_bound - 1e-10
    assert split.plus_lower_bound >= 0.0
    assert split.minus_combined >= -1e-10


def test_difference_kernel_matches_pointwise_xi(rng):
    """Oracle for the separable kernel: beta formed pointwise from xi."""
    bdry = random_boundary_homeo(rng, n_max=6)
    M, panels = 64, 4
    theta = _quad.theta_grid(M)
    zp = bdry.zeta_prime(theta)

    def xi_difference(t, alpha):  # xi(t) - xi(t - alpha), rows t, columns alpha
        t = np.atleast_1d(t)
        return bdry.xi(t)[:, None] - bdry.xi(t[:, None] - alpha[None, :])

    def close(got, want):
        return abs(got - want) <= 1e-13 * max(1.0, abs(want))

    ratio = _one_minus_cos(xi_difference(theta, theta[1:])) / _one_minus_cos(theta[1:])
    plain = (2.0 * np.pi / M) ** 2 * (
        np.sum(bdry.xi_prime(theta) ** 2 * zp) + np.sum(ratio * zp[:, None]))
    assert close(lemma_functional(bdry, M=M), plain)

    a_nodes, a_wts = _quad.gauss_legendre_panels(-np.pi / 2, np.pi / 2, panels)
    beta = xi_difference(theta, a_nodes) - a_nodes[None, :]
    ratio = _one_minus_cos(beta) / _one_minus_cos(a_nodes)[None, :]
    m_nodes, m_wts = _quad.gauss_legendre_panels(np.pi / 2, 3 * np.pi / 2, panels)
    beta_m = xi_difference(theta, m_nodes) - m_nodes[None, :]
    minus = psi(m_nodes[None, :], beta_m) / _one_minus_cos(m_nodes)[None, :] ** 2
    split = lemma_functional_split(bdry, M=M, panels=panels)
    tau = 2.0 * np.pi
    assert close(split.A_plus,
                 tau * np.dot(a_wts, np.cos(a_nodes) * np.mean(ratio * zp[:, None], 0)))
    assert close(split.B_plus, tau * np.dot(a_wts, np.mean(ratio, 0)))
    assert close(split.minus_combined, tau * np.dot(m_wts, np.mean(minus, 0)))
    assert close(split.plus_lower_bound,
                 tau * np.dot(a_wts, np.mean(_one_minus_cos(beta), 0)))

    for t in (0.0, 1.1, 4.0):
        vals = _one_minus_cos(xi_difference(t, theta[1:])[0]) / _one_minus_cos(theta[1:])
        want = (float(bdry.xi_prime(t)) ** 2 + np.sum(vals)) / M
        assert close(boundary_normal_derivative(bdry, t, M=M), want)


def test_coarse_grids_are_refused():
    bdry = random_boundary_homeo(np.random.default_rng(0), n_max=4)
    floor = _quad.exact_ring_size(bdry.order)
    for M in (0, 1, floor - 1):
        with pytest.raises(ValueError):
            lemma_functional(bdry, M=M)
        with pytest.raises(ValueError):
            lemma_functional_split(bdry, M=M)
        with pytest.raises(ValueError):
            boundary_normal_derivative(bdry, 0.3, M=M)
    assert lemma_functional(bdry, M=floor) >= -1e-9
    with pytest.raises(ValueError):
        lemma_functional_split(bdry, panels=0)
    with pytest.raises(ValueError):
        random_boundary_homeo(np.random.default_rng(0), n_max=0)


def test_psi_region_scan():
    rep = psi_region_check(resolution=300)
    assert rep.min_value >= -1e-12
    assert rep.case1_decreasing and rep.case2_decreasing
    assert abs(rep.case2_at_corner - (2.0 - math.pi / 2.0)) <= 1e-15
    with pytest.raises(ValueError):
        psi_region_check(resolution=10)


def test_psi_closed_form_spot_values():
    assert abs(psi(math.pi, 0.0)) <= 1e-15
    # beta = -pi/2 on the diagonal alpha = -beta
    val = psi(math.pi / 2.0, -math.pi / 2.0)
    assert abs(val - (2.0 - math.pi / 2.0)) <= 1e-15


def test_random_boundary_homeo_is_monotone():
    for seed in range(20):
        assert random_boundary_homeo(np.random.default_rng(seed)).is_monotone()


def test_is_monotone_matches_fine_grid():
    # scaled copies of random maps, some no longer monotone; maps whose xi'
    # comes within 1e-2 of zero on the fine grid are left out
    fine = _quad.theta_grid(2**16)
    answers = set()
    for seed in range(20):
        base = random_boundary_homeo(np.random.default_rng(seed), n_max=2 + seed % 7)
        for scale in (1.0, 1.5, 3.0):
            bdry = BoundaryHomeo(
                zeta_coeffs={n: scale * c for n, c in base.zeta_coeffs.items()})
            low = float(np.min(bdry.xi_prime(fine)))
            if abs(low) <= 1e-2:
                continue
            assert bdry.is_monotone() == (low > 0.0)
            answers.add(low > 0.0)
    assert answers == {True, False}


def test_bhm_round_trip():
    bdry = BoundaryHomeo(zeta_coeffs={0: 0.25, 1: 0.1 - 0.05j, 3: 0.02j})
    buf = io.StringIO()
    write_bhm(bdry, buf)
    back = read_bhm(io.StringIO(buf.getvalue()))
    assert dict(back.zeta_coeffs) == dict(bdry.zeta_coeffs)


@pytest.mark.parametrize(
    "text",
    ["", "BHM 2\n", "BHM 1\nZ -1 0 0\n", "BHM 1\nZ 1 0 0\nZ 1 1 0\n", "BHM 1\nZ 1 x 0\n",
     "BHM 1\nZ 1 nan 0\n", "BHM 1\nZ 2 0 inf\n", "BHM 1\nZ 0 0.5 0.5\n"],
)
def test_bhm_rejects_malformed(text):
    with pytest.raises(BhmFormatError):
        read_bhm(io.StringIO(text))
