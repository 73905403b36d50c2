import math

import numpy as np
import pytest

from semireg import covering
from semireg.covering import (
    COMPARABILITY_C0,
    block_sum_bound,
    build_covering,
    comparability_constant,
    domination_covering_difference,
    localized_operator_T,
    region_sandwich_check,
    rescaling_identity_check,
    rescaling_threshold,
    uncovered_points,
)
from semireg.errors import DomainError
from semireg.kernels import KernelSetting, critical_radius, poisson_classical
from semireg.operators import apply_K, smooth_test_field
from semireg.quad import Grid1D, SpaceTimeGrid, gauss_legendre_panels, gauss_legendre_rule

# the 24 x 96 line grid of the operator tests: 24 times on (0, 4), 96 nodes on (-8, 8)
LINE = SpaceTimeGrid.uniform(4.0, 24, Grid1D.symmetric(8.0, 48))


@pytest.fixture(scope="module")
def cov8():
    return build_covering(8.0)


@pytest.mark.parametrize("window", [8.0, 16.0, 40.0])
def test_covering_covers_with_window_independent_overlap(window):
    cov = build_covering(window)
    assert uncovered_points(cov) == 0
    assert cov.overlap_bound == 18
    assert cov.centers[0] == -cov.centers[-1] and cov.centers[-1] > window


def _pairwise_overlap(centers, radii):
    """Brute-force max count of dilated balls meeting one of them."""
    reach = covering._DILATION * radii
    hits = np.abs(centers[:, None] - centers[None, :]) < reach[:, None] + reach[None, :]
    return int(hits.sum(axis=1).max())


@pytest.mark.parametrize("window", [8.0, 16.0, 40.0])
def test_max_overlap_equals_pairwise_count(window):
    cov = build_covering(window)
    expect = _pairwise_overlap(cov.centers, cov.radii)
    assert covering._max_overlap(cov.centers, cov.radii) == expect


def test_max_overlap_equals_pairwise_count_on_a_synthetic_chain():
    # sorted centers with uneven gaps and radii varying 20-fold
    rng = np.random.default_rng(7)
    centers = np.cumsum(rng.uniform(0.01, 1.0, 300))
    radii = rng.uniform(0.05, 1.0, 300)
    expect = _pairwise_overlap(centers, radii)
    assert expect > 5
    assert covering._max_overlap(centers, radii) == expect


def test_region_sandwich(cov8):
    assert region_sandwich_check(cov8, LINE.space.nodes) == (0, 0)


def test_comparability_constant_below_analytic_sup():
    c = comparability_constant()
    assert 1.2495 <= c <= 1.25 < COMPARABILITY_C0


def test_build_covering_rejects_bad_input():
    with pytest.raises(DomainError):
        build_covering(window=0.0)


@pytest.mark.parametrize("factor", [1.0, 1.4])
def test_rescaling_identity_above_threshold(factor):
    assert rescaling_identity_check(factor * rescaling_threshold()) <= 1e-12


# the separable input of rescaling_identity_check at horizon 1, support 1
def _w(s):
    return np.sin(math.pi * s) ** 2


def _wprime(s):
    return math.pi * np.sin(2.0 * math.pi * s)


def _phi(y):
    y = np.asarray(y, dtype=float)
    return np.where(np.abs(y) <= 1.0, np.cos(0.5 * math.pi * y) ** 2, 0.0)


def _k_separable_per_panel(diffusion, t, x, w, wprime, phi, support, cut):
    """K on w(s) phi(y) with one Gauss-Legendre rule per time panel and, inside
    it, one per space panel, the spatial panels refined toward the
    integration interval's nearest point to x."""
    lo, hi = -support, support
    if cut is not None:
        lo, hi = max(lo, x - cut), min(hi, x + cut)
    near = min(max(x, lo), hi)
    edges = {lo, hi}
    for j in range(28):
        for side in (-1.0, 1.0):
            e = near + side * 1e-7 * 2.0 ** j
            if lo < e < hi:
                edges.add(e)
    cuts = sorted(edges)
    acc = 0.0
    for j in range(24):
        u, wu = gauss_legendre_rule(t * j / 24.0, t * (j + 1) / 24.0, 8)
        avg = np.zeros_like(u)
        for a, b in zip(cuts, cuts[1:]):
            y, wy = gauss_legendre_rule(a, b, 10)
            avg += poisson_classical(u[:, None], x - y[None, :], diffusion) @ (wy * phi(y))
        acc += float(np.dot(wu, avg * wprime(t - u)))
    return acc - float(phi(x) * w(t))


def test_k_separable_matches_per_panel_loop():
    # the 8 probes of rescaling_identity_check (horizon 1, support 1,
    # window 2), unscaled and rescaled
    R = 1.2 * rescaling_threshold()
    for t in (0.45, 0.85):
        for x in (0.0, 0.6, 1.5, 2.0):
            cases = [(t, x, _w, _wprime, _phi, 1.0, None),
                     (t / R, x / R, lambda s: _w(R * s), lambda s: R * _wprime(R * s),
                      lambda y: _phi(R * y), 1.0 / R, critical_radius(x / R))]
            for args in cases:
                batched = covering._k_separable(*args)
                assert abs(batched - _k_separable_per_panel(0.5, *args)) <= 1e-15


@pytest.mark.parametrize("t", [0.45, 0.85])
def test_k_separable_resolves_probes_outside_the_support(t):
    # probe x = 1.5 right of the support |y| <= 1, where P_u(x - y) still
    # varies on the scale x - 1 across it; reference: the same time rule with
    # 1,280 equal 10-node space panels (12,800 nodes)
    x = 1.5
    u, wu = gauss_legendre_panels(t * np.arange(25) / 24.0, 8)
    y, wy = gauss_legendre_panels(np.linspace(-1.0, 1.0, 1281), 10)
    avg = poisson_classical(u[:, None], x - y[None, :], 0.5) @ (wy * _phi(y))
    expect = float(np.dot(wu, avg * _wprime(t - u)))
    got = covering._k_separable(t, x, _w, _wprime, _phi, 1.0, None)
    assert got == pytest.approx(expect, rel=1e-12)


def test_rescaling_identity_rejects_scale_below_threshold():
    with pytest.raises(DomainError):
        rescaling_identity_check(0.99 * rescaling_threshold())


@pytest.mark.parametrize("mode", [1, 2])
def test_localized_operator_is_the_block_sum(cov8, mode):
    # T f(x) = sum over balls B of 1_B(x) K(1_{B*} f)(x), B* the dilated block
    f = smooth_test_field(LINE, mode=mode)
    setting = KernelSetting("classical", diffusion=0.5)
    x = LINE.space.nodes
    expect = np.zeros_like(f.values)
    for c, r in zip(cov8.centers, cov8.radii):
        ball = np.abs(x - c) < r
        if not ball.any():
            continue
        block = np.abs(x - c) < (COMPARABILITY_C0 + 1.0) * r
        part = apply_K(setting, f.with_values(f.values * block[None, :, None]))
        expect += part.values * ball[None, :, None]
    got = localized_operator_T(f, cov8).values
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_covering_constants_stay_below_their_bounds(cov8, mode):
    # the benchmark's bounds; measured at most 2.54 and 0.90 over these modes
    f = smooth_test_field(LINE, mode=mode)
    assert 0.0 < domination_covering_difference(f, cov8).constant <= 3.0
    assert 0.0 < block_sum_bound(f, cov8).constant <= 1.0


def test_block_sum_is_the_per_block_loop(cov8):
    # sum over dilated blocks B* of |K(1_{B*} f)|^2, one apply per block
    f = smooth_test_field(LINE, fiber_dim=2, mode=1)
    setting = KernelSetting("classical", diffusion=0.5)
    x = LINE.space.nodes
    total = 0.0
    for c, r in zip(cov8.centers, cov8.radii):
        block = np.abs(x - c) < (COMPARABILITY_C0 + 1.0) * r
        total += apply_K(setting, f.with_values(f.values * block[None, :, None])).l2_norm() ** 2
    res = block_sum_bound(f, cov8)
    assert float(res.rhs[0]) == pytest.approx(total, rel=1e-12)
    assert float(res.lhs[0]) == pytest.approx(localized_operator_T(f, cov8).l2_norm() ** 2, rel=1e-12)
