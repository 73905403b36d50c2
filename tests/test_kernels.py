import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from semireg import kernels as kn
from semireg.errors import DomainError
from semireg.quad import Grid1D, grid_integrate
from semireg.spectral_oracle import (
    hankel_poisson_kernel_oracle,
    heat_series_terms,
    hermite_heat_series,
    hermite_poisson_series,
    laguerre_heat_series,
    poisson_series_terms,
)

# ---------------------------------------------------------------------------
# settings and scalar helpers
# ---------------------------------------------------------------------------


def test_setting_validation():
    with pytest.raises(DomainError):
        kn.KernelSetting("bessel")
    with pytest.raises(DomainError):
        kn.bessel(-0.5)
    with pytest.raises(DomainError):
        kn.KernelSetting("hermite", alpha=1.0)
    with pytest.raises(DomainError):
        kn.KernelSetting("hermite", diffusion=0.5)
    assert kn.classical(0.5).domain == "real-line"
    assert kn.laguerre(1.3).domain == "half-line"
    assert kn.bessel(0.7).nu == pytest.approx(0.2)


def test_critical_radius_values():
    assert kn.critical_radius(0.0) == pytest.approx(0.5)
    assert kn.critical_radius(1.0) == pytest.approx(0.5)
    eps = 1e-6
    assert kn.critical_radius(1.0 + eps) == pytest.approx(1.0 / (2.0 + eps))
    assert kn.critical_radius(3.0) == pytest.approx(0.25)
    assert kn.critical_radius(-3.0) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# classical kernels
# ---------------------------------------------------------------------------


def test_poisson_classical_frozen_value():
    assert float(kn.poisson_classical(1.0, 0.0)) == pytest.approx(1.0 / math.pi, abs=1e-15)


@given(st.floats(min_value=0.05, max_value=5.0), st.floats(min_value=-8.0, max_value=8.0))
def test_poisson_classical_even(t, z):
    assert float(kn.poisson_classical(t, z)) == float(kn.poisson_classical(t, -z))


def test_poisson_classical_unit_mass():
    val, _ = scipy.integrate.quad(lambda z: float(kn.poisson_classical(0.7, z)),
                                  -np.inf, np.inf)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_heat_classical_peak_and_mass():
    t = 0.4
    assert float(kn.heat_classical(t, 0.0)) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi * t), rel=1e-14)
    val, _ = scipy.integrate.quad(lambda z: float(kn.heat_classical(t, z)),
                                  -np.inf, np.inf)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_heat_classical_semigroup_law():
    t, s, x, y = 0.3, 0.5, 0.4, -0.9
    g = Grid1D.symmetric(14.0, 4000)
    comp = grid_integrate(
        kn.heat_classical(t, x - g.nodes) * kn.heat_classical(s, g.nodes - y), g)
    assert comp == pytest.approx(float(kn.heat_classical(t + s, x - y)), abs=1e-9)


def test_dt_poisson_classical_matches_difference_quotient():
    t, z = 0.8, 1.3
    h = 1e-4
    fd = (float(kn.poisson_classical(t + h, z)) - float(kn.poisson_classical(t - h, z))) / (2 * h)
    assert float(kn.dt_poisson_classical(t, z)) == pytest.approx(fd, rel=1e-7)


def test_diffusion_scaling():
    # -c d^2 kernels are the c=1 kernels evaluated at rescaled arguments
    t, z, c = 0.6, 0.9, 0.5
    assert float(kn.heat_classical(t, z, diffusion=c)) == pytest.approx(
        float(kn.heat_classical(c * t, z)), rel=1e-14)
    assert float(kn.poisson_classical(t, z, diffusion=c)) == pytest.approx(
        float(kn.poisson_classical(math.sqrt(c) * t, z)), rel=1e-14)


# ---------------------------------------------------------------------------
# Bessel kernels
# ---------------------------------------------------------------------------


def test_poisson_bessel_symmetric():
    for a in (0.6, 1.5):
        v1 = float(kn.poisson_bessel(a, 0.5, 1.2, 0.7))
        v2 = float(kn.poisson_bessel(a, 0.5, 0.7, 1.2))
        assert v1 == pytest.approx(v2, rel=1e-12)


def test_poisson_bessel_contractive_above_one():
    # for alpha > 1 the half-line semigroup is a contraction
    a = 1.5
    for t in (0.1, 1.0):
        for x in (0.5, 2.0):
            mass, _ = scipy.integrate.quad(
                lambda y: float(kn.poisson_bessel(a, t, x, y)), 0.0, np.inf, limit=300)
            assert mass <= 1.0 + 1e-6


def test_poisson_bessel_vs_hankel_oracle():
    a, t, x, y = 0.7, 0.5, 1.0, 2.0
    closed = float(kn.poisson_bessel(a, t, x, y))
    oracle = hankel_poisson_kernel_oracle(a, t, x, y)
    assert abs(closed / oracle - 1.0) < 1e-6


def test_bessel_alpha_one_reflection_closed_form():
    # alpha = 1: kernels reduce to differences of classical kernels
    t, x, y = 0.37, 1.3, 0.8
    heat = float(kn.heat_classical(t, x - y)) - float(kn.heat_classical(t, x + y))
    assert float(kn.heat_bessel(1.0, t, x, y)) == pytest.approx(heat, abs=1e-13)
    pois = float(kn.poisson_classical(t, x - y)) - float(kn.poisson_classical(t, x + y))
    assert float(kn.poisson_bessel(1.0, t, x, y)) == pytest.approx(pois, abs=1e-12)


def test_piece_split_identity():
    # flattened-denominator piece minus the classical kernel is the tail piece
    t, x, y = 0.37, 1.3, 0.8
    for a in (0.6, 1.4, 2.3):
        p12 = float(kn.poisson_bessel_piece("12", a, t, x, y))
        p13 = float(kn.poisson_bessel_piece("13", a, t, x, y))
        assert p12 - float(kn.poisson_classical(t, x - y)) == pytest.approx(p13, abs=1e-8)
        assert p13 < 0.0


def test_piece_twelve_antiderivative_oracle():
    # the flattened integrand has an elementary antiderivative
    t, x, y = 0.52, 0.9, 1.7
    for a in (0.6, 1.4):
        big_a = (x - y) ** 2 + t * t
        expect = (t / (math.pi * big_a)) * (
            x * y / (4.0 * big_a / math.pi ** 2 + x * y)) ** a
        assert float(kn.poisson_bessel_piece("12", a, t, x, y)) == pytest.approx(
            expect, rel=1e-12)


def test_piece_one_plus_mirror_recovers_full():
    t, x, y = 0.4, 1.1, 0.9
    # regular mirrored segment, adaptive reference
    a = 1.4
    def integrand(theta):
        d = (x - y) ** 2 + t * t + 2 * x * y * (1 - math.cos(theta))
        return math.sin(theta) ** (2 * a - 1) / d ** (a + 1)
    mirror, _ = scipy.integrate.quad(integrand, math.pi / 2, math.pi)
    mirror *= (2 * a / math.pi) * (x * y) ** a * t
    full = float(kn.poisson_bessel(a, t, x, y))
    p1 = float(kn.poisson_bessel_piece("1", a, t, x, y))
    assert p1 + mirror == pytest.approx(full, abs=1e-8)


def test_pieces_vanish_at_small_time():
    x, y = 1.0, 2.0
    for piece in ("1", "11", "12", "13"):
        v_small = abs(float(kn.poisson_bessel_piece(piece, 0.8, 1e-3, x, y)))
        v_large = abs(float(kn.poisson_bessel_piece(piece, 0.8, 1e-2, x, y)))
        assert v_small < v_large


def test_piece_rejects_unknown():
    # "full" labels the whole kernel inside the module; it is not a piece
    for fn in (kn.poisson_bessel_piece, kn.dt_poisson_bessel_piece):
        for label in ("7", "full", "2", ""):
            with pytest.raises(DomainError):
                fn(label, 0.8, 0.5, 1.0, 1.0)


# values of the angular (Bessel) and subordinated (oscillator) kernels at
# alpha = 1.5, t = 0.37, x = 1.3, y = 0.8: the angular ones recorded from
# the per-piece quadrature code these functions replaced, the subordinated
# ones from the log-u rule
FROZEN_ANGULAR = {
    None: (0.2334497272059721, 0.09241031050236055),
    "1": (0.21734548381667926, 0.058624058355302086),
    "11": (0.272876238019347, 0.12647066358291928),
    "12": (0.24658588955094243, 0.10212958452676774),
    "13": (-0.05782004967883888, -0.1383705218411628),
}
FROZEN_SUBORDINATED = {
    "hermite": (0.20338312205254866, 0.2701037382719105),
    "laguerre": (0.17531583623544766, 0.20955496864955547),
}
# the same point by mpmath at 30 digits: tanh-sinh quadrature in u of the
# subordination integral of the closed-form heat kernels, breaks at 0,
# 10^-8, ..., 10^3 and infinity, error estimates below 1e-35
MPMATH_SUBORDINATED = {
    "hermite": (0.20338312207287335, 0.2701037403900519),
    "laguerre": (0.17531583624299882, 0.2095549707423254),
}


def test_kernel_frozen_values():
    a, t, x, y = 1.5, 0.37, 1.3, 0.8
    for piece, (value, dt) in FROZEN_ANGULAR.items():
        if piece is None:
            got = (kn.poisson_bessel(a, t, x, y), kn.dt_poisson_bessel(a, t, x, y))
        else:
            got = (kn.poisson_bessel_piece(piece, a, t, x, y),
                   kn.dt_poisson_bessel_piece(piece, a, t, x, y))
        assert float(got[0]) == pytest.approx(value, rel=1e-13)
        assert float(got[1]) == pytest.approx(dt, rel=1e-13)
    for setting in (kn.hermite(), kn.laguerre(a)):
        value, dt = FROZEN_SUBORDINATED[setting.variant]
        assert float(kn.poisson_kernel_grid(setting, t, x, y)) == pytest.approx(value, rel=1e-13)
        assert float(kn.dt_poisson_kernel_grid(setting, t, x, y)) == pytest.approx(dt, rel=1e-13)


def test_subordinated_kernels_match_mpmath():
    a, t, x, y = 1.5, 0.37, 1.3, 0.8
    for setting in (kn.hermite(), kn.laguerre(a)):
        value, dt = MPMATH_SUBORDINATED[setting.variant]
        assert float(kn.poisson_kernel_grid(setting, t, x, y)) == pytest.approx(value, rel=3e-8)
        assert float(kn.dt_poisson_kernel_grid(setting, t, x, y)) == pytest.approx(dt, rel=3e-8)


def test_dt_poisson_bessel_matches_difference_quotient():
    a, t, x, y = 1.2, 0.6, 0.9, 1.4
    h = 1e-4
    fd = (float(kn.poisson_bessel(a, t + h, x, y))
          - float(kn.poisson_bessel(a, t - h, x, y))) / (2 * h)
    assert float(kn.dt_poisson_bessel(a, t, x, y)) == pytest.approx(fd, rel=1e-7)
    for piece in ("1", "11", "12", "13"):
        fd = (float(kn.poisson_bessel_piece(piece, a, t + h, x, y))
              - float(kn.poisson_bessel_piece(piece, a, t - h, x, y))) / (2 * h)
        assert float(kn.dt_poisson_bessel_piece(piece, a, t, x, y)) == pytest.approx(
            fd, rel=1e-6)


def test_heat_kernels_tiny_arguments_finite():
    # x y / (2t) = 5e-261: (z/2)^nu underflows inside log I
    v = float(kn.heat_bessel(3.5, 1.0, 1e-130, 1e-130))
    assert np.isfinite(v) and v >= 0.0
    v = float(kn.heat_laguerre(3.5, 1.0, 1e-130, 1e-130))
    assert np.isfinite(v) and v >= 0.0


def test_halfline_preconditions():
    with pytest.raises(DomainError):
        kn.poisson_bessel(0.8, -0.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        kn.heat_bessel(0.8, 0.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        kn.heat_laguerre(0.8, 0.5, 1.0, 0.0)


# ---------------------------------------------------------------------------
# oscillator kernels
# ---------------------------------------------------------------------------

# closed-form value at t = ln 2, x = y = 0: sqrt(2/(3 pi))
OSCILLATOR_HEAT_AT_LN2 = 0.46065886596178063


def test_heat_hermite_frozen_value():
    assert float(kn.heat_hermite(math.log(2.0), 0.0, 0.0)) == pytest.approx(
        OSCILLATOR_HEAT_AT_LN2, abs=1e-15)


def test_heat_hermite_symmetric():
    assert float(kn.heat_hermite(0.3, 1.1, -0.4)) == pytest.approx(
        float(kn.heat_hermite(0.3, -0.4, 1.1)), rel=1e-14)


def test_heat_hermite_matches_series():
    worst = 0.0
    for t in (0.1, 0.5, 2.0):
        n = heat_series_terms(t, 1e-10)
        for x in (-3.5, 0.0, 1.2):
            for y in (-0.7, 2.0):
                sv = hermite_heat_series(t, x, y, n, index_cap=max(n, 400))
                worst = max(worst, abs(sv.value - float(kn.heat_hermite(t, x, y))))
    assert worst < 1e-8


def test_heat_hermite_huge_time_ground_mode():
    t = 800.0
    lead = math.exp(-t / 2.0) / math.sqrt(math.pi) * math.exp(-(1.0 + 4.0) / 2.0)
    assert float(kn.heat_hermite(t, 1.0, 2.0)) == pytest.approx(lead, rel=1e-10)


def test_heat_laguerre_matches_series():
    worst = 0.0
    for a in (0.5, 1.3):
        for t in (0.2, 0.6):
            n = heat_series_terms(t, 1e-10, rate=2.0)
            for x in (0.1, 0.9, 3.0):
                sv = laguerre_heat_series(a, t, x, 0.7, n, index_cap=max(n, 400))
                worst = max(worst, abs(sv.value - float(kn.heat_laguerre(a, t, x, 0.7))))
    assert worst < 1e-7


def test_heat_laguerre_alpha_one_is_reflected_oscillator():
    t, x, y = 0.4, 1.1, 0.6
    expect = float(kn.heat_hermite(t, x, y)) - float(kn.heat_hermite(t, x, -y))
    assert float(kn.heat_laguerre(1.0, t, x, y)) == pytest.approx(expect, abs=1e-14)


def test_heat_laguerre_extreme_arguments_finite():
    # xi ~ 9e8: log-domain evaluation must not overflow
    v = float(kn.heat_laguerre(0.9, 1e-6, 30.0, 30.0))
    assert np.isfinite(v) and v > 0.0
    assert float(kn.heat_laguerre(0.9, 800.0, 1.0, 2.0)) >= 0.0


def test_heat_laguerre_underflowing_cross_argument():
    # xi = x y / sinh t = 1e-200 / sinh(300) underflows; mpmath at 30 digits
    v = float(kn.heat_laguerre(0.6, 300.0, 1e-100, 1e-100))
    assert v == pytest.approx(1.0127687531313416e-263, rel=1e-12, abs=0.0)


def test_heat_laguerre_gaussian_envelope_stable():
    # kernel bounded by C e^{-|x-y|^2/(8t)} / sqrt(t); the empirical C must
    # not grow under grid refinement
    a, t = 0.7, 0.3
    ratios = []
    for n in (60, 120):
        g = Grid1D.uniform(0.05, 6.0, n, domain="half-line")
        xx, yy = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        w = kn.heat_laguerre(a, t, xx, yy)
        env = np.exp(-(xx - yy) ** 2 / (8.0 * t)) / math.sqrt(t)
        ratios.append(float(np.max(w / env)))
    assert ratios[1] <= ratios[0] * 1.10


# ---------------------------------------------------------------------------
# subordination
# ---------------------------------------------------------------------------


def test_subordinated_classical_poisson():
    for dz in (0.0, 1.0, 3.0):
        res = kn.poisson_via_subordination(kn.classical(), 1.0, dz, 0.0)
        assert res.converged
        assert res.value == pytest.approx(float(kn.poisson_classical(1.0, dz)), abs=1e-9)


def test_subordinated_grid_matches_scalar_route():
    vals = kn.poisson_kernel_grid(kn.hermite(), 0.7, np.array([0.0, 1.0]), 0.5)
    for v, x in zip(vals, (0.0, 1.0)):
        res = kn.poisson_via_subordination(kn.hermite(), 0.7, x, 0.5)
        assert v == pytest.approx(res.value, abs=1e-9)


def test_subordinated_hermite_poisson_symmetric():
    assert float(kn.poisson_kernel_grid(kn.hermite(), 0.6, 1.3, -0.2)) == pytest.approx(
        float(kn.poisson_kernel_grid(kn.hermite(), 0.6, -0.2, 1.3)), rel=1e-12)


def test_subordinated_hermite_matches_poisson_series():
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        n = poisson_series_terms(t, 1e-8)
        for x, y in ((0.0, 0.5), (1.0, -1.5)):
            sv = hermite_poisson_series(t, x, y, n, index_cap=max(n, 400))
            pg = float(kn.poisson_kernel_grid(kn.hermite(), t, x, y))
            worst = max(worst, abs(sv.value - pg))
    assert worst < 1e-6


@pytest.mark.parametrize("setting", [kn.classical(), kn.bessel(1.5), kn.hermite(), kn.laguerre(1.5)])
def test_kernel_grid_stacks_one_kernel_per_time(setting):
    x = np.linspace(0.1, 3.0, 7)
    X, Y = x[:, None], x[None, :]
    times = np.array([0.2, 0.55, 1.9])
    for fn in (kn.poisson_kernel_grid, kn.dt_poisson_kernel_grid):
        stack = fn(setting, times, X, Y)
        assert stack.shape == (3, 7, 7)
        for row, t in zip(stack, times):
            one = fn(setting, t, X, Y)
            assert one.shape == (7, 7)
            assert np.max(np.abs(row - one)) <= 1e-14 * np.max(np.abs(one))
        for bad in (np.array([[0.2, 0.5]]), np.array([]), np.array([0.2, 0.0])):
            with pytest.raises(DomainError):
                fn(setting, bad, X, Y)


@pytest.mark.parametrize("piece", [None, "1", "11", "12", "13"])
def test_bessel_functions_stack_one_kernel_per_time(piece):
    if piece is None:
        fns = (kn.poisson_bessel, kn.dt_poisson_bessel)
    else:
        fns = (lambda a, t, x, y: kn.poisson_bessel_piece(piece, a, t, x, y),
               lambda a, t, x, y: kn.dt_poisson_bessel_piece(piece, a, t, x, y))
    a = 1.5
    x = np.linspace(0.1, 3.0, 7)
    times = np.array([0.2, 0.55, 1.9])
    # a full grid, and node pairs along one axis as the tensor build passes them
    for X, Y in ((x[:, None], x[None, :]), (x, x[::-1])):
        for fn in fns:
            stack = fn(a, times, X, Y)
            assert stack.shape == (3,) + np.broadcast(X, Y).shape
            for row, t in zip(stack, times):
                one = fn(a, t, X, Y)
                assert one.shape == row.shape
                assert np.max(np.abs(row - one)) <= 1e-14 * np.max(np.abs(one))
            for bad in (np.array([[0.2, 0.5]]), np.array([]), np.array([0.2, -1.0])):
                with pytest.raises(DomainError):
                    fn(a, bad, X, Y)


# Laguerre (alpha = 1.5) at x = 1, y = 1.2 by mpmath at 30 digits, as for
# MPMATH_SUBORDINATED: t = 10 needs a refined log-u lattice (the base one is
# off by 2e-5 there); at t = 300 the base lattice has no panel left
MPMATH_LAGUERRE_T10 = (5.6034798636581735e-07, -7.927132822903831e-07)


def test_subordination_refines_or_raises_at_large_times():
    lag = kn.laguerre(1.5)
    value, dt = MPMATH_LAGUERRE_T10
    assert float(kn.poisson_kernel_grid(lag, 10.0, 1.0, 1.2)) == pytest.approx(value, rel=1e-9)
    assert float(kn.dt_poisson_kernel_grid(lag, 10.0, 1.0, 1.2)) == pytest.approx(dt, rel=1e-9)
    # a refined row does not change the base-lattice rows that share its call
    x = np.linspace(0.2, 3.0, 5)
    X, Y = x[:, None], x[None, :]
    times = np.array([0.37, 10.0])
    for fn in (kn.poisson_kernel_grid, kn.dt_poisson_kernel_grid):
        stack = fn(lag, times, X, Y)
        for row, t in zip(stack, times):
            one = fn(lag, t, X, Y)
            assert np.max(np.abs(row - one)) <= 1e-14 * np.max(np.abs(one))
    for setting in (lag, kn.hermite()):
        for fn in (kn.poisson_kernel_grid, kn.dt_poisson_kernel_grid):
            with pytest.raises(DomainError):
                fn(setting, 300.0, 1.0, 1.2)
            with pytest.raises(DomainError):
                fn(setting, np.array([0.5, 300.0]), X, Y)


def test_dt_poisson_grid_matches_difference_quotient():
    # 4th-order stencil with a wide step: keeps the quadrature noise of the
    # kernel evaluations from being amplified by 1/h
    t, h = 0.8, 0.02
    for setting, x, y in ((kn.hermite(), 0.7, -0.3), (kn.laguerre(1.3), 0.9, 1.4)):
        p = lambda tt: float(kn.poisson_kernel_grid(setting, tt, x, y))
        fd = (-p(t + 2 * h) + 8 * p(t + h) - 8 * p(t - h) + p(t - 2 * h)) / (12 * h)
        assert float(kn.dt_poisson_kernel_grid(setting, t, x, y)) == pytest.approx(
            fd, rel=1e-5)


# ---------------------------------------------------------------------------
# cross-setting invariants
# ---------------------------------------------------------------------------


def _random_args(rng, setting, n):
    t = rng.uniform(0.05, 3.0, n)
    if setting.domain == "half-line":
        x = rng.uniform(0.02, 8.0, n)
        y = rng.uniform(0.02, 8.0, n)
    else:
        x = rng.uniform(-8.0, 8.0, n)
        y = rng.uniform(-8.0, 8.0, n)
    return t, x, y


@pytest.mark.parametrize("setting", [
    kn.classical(), kn.bessel(0.7), kn.bessel(1.5), kn.hermite(),
    kn.laguerre(0.5), kn.laguerre(1.3),
])
def test_heat_kernels_nonnegative(setting):
    rng = np.random.default_rng(11)
    t, x, y = _random_args(rng, setting, 10_000)
    vals = kn.heat_kernel(setting, t, x, y)
    assert np.all(vals >= 0.0)
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("setting,window", [
    (kn.classical(), None),
    (kn.hermite(), None),
    (kn.bessel(0.7), (0.0, 16.0)),
    (kn.laguerre(1.3), (0.0, 16.0)),
])
def test_heat_semigroup_law(setting, window):
    pairs = [(0.9, 1.4), (0.4, 2.1), (1.7, 0.6)] if window else [(0.3, -0.4), (-1.2, 0.8), (0.1, 1.9)]
    for (t, s) in ((0.2, 0.2), (0.2, 0.5), (0.5, 0.5)):
        for x, y in pairs:
            if window:
                g = Grid1D.uniform(window[0], window[1], 4000, domain="half-line")
            else:
                g = Grid1D.symmetric(14.0, 4000)
            comp = grid_integrate(
                np.asarray(kn.heat_kernel(setting, t, x, g.nodes))
                * np.asarray(kn.heat_kernel(setting, s, g.nodes, y)), g)
            tgt = float(kn.heat_kernel(setting, t + s, x, y))
            assert abs(comp - tgt) / abs(tgt) < 1e-6
