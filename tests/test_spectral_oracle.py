import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from semireg import kernels as kn
from semireg import spectral_oracle as so
from semireg.errors import CapabilityError, DomainError
from semireg.quad import Grid1D
from semireg.specfun import hermite_function_table, laguerre_function_table


def test_series_rejects_bad_arguments():
    with pytest.raises(DomainError):
        so.hermite_heat_series(-0.1, 0.0, 0.0, 10)
    with pytest.raises(DomainError):
        so.hermite_heat_series(1.0, 0.0, 0.0, 0)
    with pytest.raises(DomainError):
        so.hermite_heat_series(1.0, 0.0, 0.0, 300)  # above default index cap


def test_heat_series_spectral_gap_limit():
    # at t=30 the ratio to the ground mode is 1 to ~e^{-30}
    t = 30.0
    for x, y in ((0.0, 0.0), (0.3, 0.7)):
        sv = so.hermite_heat_series(t, x, y, 6)
        lead = math.exp(-t / 2.0) * math.exp(-(x * x + y * y) / 2.0) / math.sqrt(math.pi)
        assert sv.value / lead == pytest.approx(1.0, abs=1e-10)


def test_heat_series_symmetric():
    a = so.hermite_heat_series(0.4, 1.1, -0.6, 60)
    b = so.hermite_heat_series(0.4, -0.6, 1.1, 60)
    assert a.value == pytest.approx(b.value, rel=1e-13)


@pytest.mark.parametrize("series,point,ns", [
    (so.hermite_heat_series, (0.35, 0.8, -0.4), (20, 40, 80)),
    (lambda *a: so.laguerre_heat_series(0.8, *a), (0.35, 0.8, 0.4), (10, 20, 40)),
], ids=["hermite", "laguerre"])
def test_truncation_bound_is_honest_and_monotone(series, point, ns):
    t, x, y = point
    ref = series(t, x, y, 199)
    bounds = []
    for n in ns:
        sv = series(t, x, y, n)
        assert abs(sv.value - ref.value) <= sv.truncation_bound
        bounds.append(sv.truncation_bound)
    assert bounds[0] > bounds[1] > bounds[2]
    assert series(t, x, y, ns[-1]).truncation_bound <= 1e-6


def test_laguerre_series_spectral_gap_limit():
    a, t = 0.8, 20.0
    x, y = 0.9, 1.4
    sv = so.laguerre_heat_series(a, t, x, y, 5)
    phi0x = laguerre_function_table(0, a, x)[0]
    phi0y = laguerre_function_table(0, a, y)[0]
    lead = math.exp(-(a + 0.5) * t) * phi0x * phi0y
    assert sv.value / lead == pytest.approx(1.0, abs=1e-10)


def test_laguerre_partial_sums_positive_for_large_n():
    a, t = 0.5, 0.3
    for x in (0.2, 1.0, 2.5):
        for y in (0.5, 1.8):
            sv = so.laguerre_heat_series(a, t, x, y, 120)
            assert sv.value > 0.0


def test_series_term_counters():
    assert so.hermite_heat_series(0.1, 0.0, 0.0, 255, index_cap=400).truncation_bound <= 1e-10
    n2 = so.poisson_series_terms(0.5, 1e-8)
    assert n2 > 1000  # slow sqrt-eigenvalue decay needs thousands of modes
    sv = so.hermite_poisson_series(0.5, 0.0, 0.0, n2, index_cap=n2 + 1)
    assert sv.truncation_bound <= 1e-8


# ---------------------------------------------------------------------------
# Hankel oracle
# ---------------------------------------------------------------------------


def test_hankel_round_trip_identity():
    alpha = 1.5
    nu = alpha - 0.5
    g = Grid1D.uniform(0.0, 10.0, 2000, domain="half-line")
    f = g.nodes ** (nu + 0.5) * np.exp(-g.nodes ** 2)
    back = so.hankel_poisson_oracle(alpha, 0.0, g.nodes, f)
    assert np.max(np.abs(back - f)) < 1e-5


def test_hankel_oracle_agrees_with_kernel_integration():
    a, t = 0.7, 0.5
    g = Grid1D.uniform(0.0, 10.0, 2000, domain="half-line")
    norm = 1.0 / scipy.integrate.quad(lambda y: y * y * math.exp(-y * y), 0, np.inf)[0]
    f = norm * g.nodes ** 2 * np.exp(-g.nodes ** 2)
    out = so.hankel_poisson_oracle(a, t, g.nodes, f)
    for x0 in (0.5, 1.0, 2.5):
        i = int(np.argmin(np.abs(g.nodes - x0)))
        direct, _ = scipy.integrate.quad(
            lambda y: float(kn.poisson_bessel(a, t, g.nodes[i], y))
            * norm * y * y * math.exp(-y * y), 0, 12, limit=200)
        assert out[i] == pytest.approx(direct, abs=1e-5)


def test_hankel_oracle_linear():
    a = 0.9
    g = Grid1D.uniform(0.0, 8.0, 900, domain="half-line")
    f1 = g.nodes ** (a) * np.exp(-g.nodes ** 2)
    f2 = np.exp(-((g.nodes - 2.0) ** 2)) * g.nodes
    lhs = so.hankel_poisson_oracle(a, 0.3, g.nodes, f1 + 2.0 * f2)
    rhs = (so.hankel_poisson_oracle(a, 0.3, g.nodes, f1)
           + 2.0 * so.hankel_poisson_oracle(a, 0.3, g.nodes, f2))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("a", [0.7, 1.5])
@pytest.mark.parametrize("t", [0.0, 0.5])
def test_hankel_oracle_is_transform_multiplier_inverse(a, t):
    # explicitly built z-by-x forward transform on Simpson weights, multiplier
    # e^{-tz} w, then an explicitly built x-by-z inverse
    nu = a - 0.5
    x = Grid1D.uniform(0.0, 6.0, 120, domain="half-line").nodes
    f = x ** a * np.exp(-((x - 2.0) ** 2))
    z, w = so._frequency_panels(40.0, math.pi / (x.max() + 1.0))
    arg = np.multiply.outer(z, x)
    forward = (np.sqrt(arg) * scipy.special.jv(nu, arg)) @ (so._simpson_weights(x) * f)
    g = forward * np.exp(-t * z) * w
    arg = np.multiply.outer(x, z)
    expect = (np.sqrt(arg) * scipy.special.jv(nu, arg)) @ g
    got = so.hankel_poisson_oracle(a, t, x, f)
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_hankel_kernel_oracle_matches_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(0.4, 2.0)
        t = rng.uniform(0.2, 1.5)
        x = rng.uniform(0.3, 3.0)
        y = rng.uniform(0.3, 3.0)
        closed = float(kn.poisson_bessel(a, t, x, y))
        oracle = so.hankel_poisson_kernel_oracle(a, t, x, y)
        assert abs(closed / oracle - 1.0) < 1e-5


def test_hankel_kernel_oracle_matches_closed_form_to_rounding():
    # the graded z-rule resolves the z^{2 alpha} endpoint at z = 0, so the
    # oracle and the angular closed form meet at the angular rule's accuracy
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(0.4, 2.0)
        t = rng.uniform(0.2, 1.5)
        x = rng.uniform(0.3, 3.0)
        y = rng.uniform(0.3, 3.0)
        closed = float(kn.poisson_bessel(a, t, x, y))
        oracle = so.hankel_poisson_kernel_oracle(a, t, x, y)
        assert abs(closed / oracle - 1.0) < 1e-12


def _dense_graded_rule(z_max, panel):
    """Reference z-rule: 32 Gauss-Legendre nodes on every panel, edges 0,
    panel 2^-60, ..., panel/2, panel, then panels of length <= panel."""
    base_x, base_w = np.polynomial.legendre.leggauss(32)
    n = math.ceil(z_max / panel) - 1
    edges = np.concatenate([[0.0], panel * 2.0 ** np.arange(-60, 0),
                            np.linspace(panel, z_max, n + 1)])
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (half * base_x + mid).ravel(), (half * base_w).ravel()


@pytest.mark.parametrize("a", [0.3, 0.55, 0.7, 0.9, 1.5, 2.3, 6.0])
def test_hankel_routes_match_dense_graded_reference(a):
    nu = a - 0.5
    g = Grid1D.uniform(0.0, 8.0, 60, domain="half-line")
    x = g.nodes
    f = x ** a * (np.exp(-(((x - 2.0) / 0.7) ** 2)) - 0.8 * np.exp(-(((x - 1.3) / 0.6) ** 2)))
    z, w = _dense_graded_rule(40.0, math.pi / (2.0 * (x.max() + 1.0)))
    arg = np.multiply.outer(z, x)
    hank = np.sqrt(arg) * scipy.special.jv(nu, arg)
    sampled = hank.T @ (scipy.integrate.simpson(hank * f, x=x, axis=1) * np.exp(-0.7 * z) * w)
    root = hank.T @ ((hank @ (f * g.cell_widths())) * z * w)
    for got, ref in ((so.hankel_poisson_oracle(a, 0.7, x, f), sampled),
                     (so.sqrt_generator_apply(kn.KernelSetting("bessel", alpha=a), g, f), root)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    for t, x0, y0 in ((0.3, 0.5, 2.0), (1.2, 1.7, 0.9)):
        z, w = _dense_graded_rule(max(40.0, 40.0 / t), math.pi / (2.0 * (x0 + y0 + 1.0)))
        ref = math.sqrt(x0 * y0) * np.sum(
            w * z * np.exp(-t * z) * scipy.special.jv(nu, x0 * z) * scipy.special.jv(nu, y0 * z))
        assert so.hankel_poisson_kernel_oracle(a, t, x0, y0) == pytest.approx(ref, rel=1e-12)


def test_hankel_preconditions():
    with pytest.raises(DomainError):
        so.hankel_poisson_oracle(-1.0, 0.5, np.array([1.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        so.hankel_poisson_kernel_oracle(0.8, -0.5, 1.0, 1.0)


def test_hankel_routes_reject_negative_nodes():
    x = np.array([-0.5, 0.5, 1.0])
    with pytest.raises(DomainError):
        so.hankel_poisson_oracle(0.8, 0.5, x, np.ones(3))


def test_bessel_sqrt_generator_rejects_real_line_grid():
    g = Grid1D.symmetric(4.0, 16)
    with pytest.raises(DomainError):
        so.sqrt_generator_apply(kn.KernelSetting("bessel", alpha=1.5), g, np.exp(-g.nodes ** 2))


@pytest.mark.parametrize("n", [3, 4, 60, 61, 200, 201])
def test_simpson_weights_match_scipy(n):
    x = Grid1D.uniform(0.0, 8.0, n, domain="half-line").nodes
    f = np.vstack([np.exp(-x), x ** 1.5 * np.exp(-(x - 3.0) ** 2),
                   np.random.default_rng(n).uniform(0.5, 2.0, n)])
    np.testing.assert_allclose(f @ so._simpson_weights(x),
                               scipy.integrate.simpson(f, x=x, axis=1), rtol=1e-15, atol=0.0)


def test_simpson_weights_refuse_non_uniform_nodes():
    with pytest.raises(DomainError):
        so._simpson_weights(np.geomspace(0.1, 8.0, 21))
    # jitter far below any quadrature error is still not a uniform grid
    x = Grid1D.uniform(0.0, 8.0, 21, domain="half-line").nodes
    with pytest.raises(DomainError):
        so._simpson_weights(x * (1.0 + 1e-10 * np.random.default_rng(3).uniform(-1.0, 1.0, 21)))
    with pytest.raises(DomainError):
        so.hankel_poisson_oracle(0.8, 0.5, np.geomspace(0.1, 8.0, 21), np.ones(21))


def test_hankel_routes_reject_mismatched_samples():
    x = Grid1D.uniform(0.0, 4.0, 20, domain="half-line")
    with pytest.raises(DomainError):
        so.hankel_poisson_oracle(0.8, 0.5, x.nodes, np.ones(19))
    with pytest.raises(DomainError):
        so.hankel_poisson_oracle(0.8, 0.5, x.nodes, np.ones(21))
    with pytest.raises(DomainError):
        so.hankel_poisson_oracle(0.8, 0.5, x.nodes, np.ones((2, 20)))
    with pytest.raises(DomainError):
        so.sqrt_generator_apply(kn.KernelSetting("bessel", alpha=1.5), x, np.ones((2, 19)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hankel_routes_reject_non_finite_arguments(bad):
    with pytest.raises(DomainError):
        so.hankel_poisson_kernel_oracle(0.8, bad, 1.0, 1.0)
    with pytest.raises(DomainError):
        so.hankel_poisson_kernel_oracle(0.8, 0.5, bad, 1.0)
    with pytest.raises(DomainError):
        so.hankel_poisson_oracle(0.8, bad, np.array([0.5, 1.0, 1.5]), np.ones(3))


# ---------------------------------------------------------------------------
# eigen-identity residuals
# ---------------------------------------------------------------------------


def _residual_ladder(setting, mode, a, b, n0, levels=4, grade=None):
    # grade maps (0, 1) smoothly onto itself; the nodes are its image of a
    # uniform grid, and the ladder refines that grid
    dom = "half-line" if setting.domain == "half-line" else "real-line"
    out = []
    for k in range(levels):
        g = Grid1D.uniform(a, b, n0 * 2 ** k, domain=dom)
        if grade is not None:
            g = Grid1D(a + (b - a) * grade((g.nodes - a) / (b - a)), domain=dom)
        out.append(so.eigen_identity_residual(setting, mode, g))
    return out


def test_eigen_residual_hermite_fine_grid():
    g = Grid1D.uniform(-4.0, 4.0, 8000, domain="real-line")
    assert so.eigen_identity_residual(kn.KernelSetting("hermite"), 0, g) < 1e-6


def test_stencil_second_derivative_keeps_its_digits():
    # h ~ 1e-3, so weighting f-, f0 and f+ separately cancels terms of size
    # f/h^2 ~ 1e6 and leaves rounding near 1e-10; the same stencil in
    # 30-digit arithmetic on the same doubles is the reference
    x = Grid1D.uniform(-4.0, 4.0, 8000, domain="real-line").nodes
    f = hermite_function_table(0, x)[0]
    ones, zeros = np.ones(x.size - 2), np.zeros(x.size - 2)
    d2 = so._stencil_apply((ones, zeros, zeros), x, f)
    worst = 0.0
    with mpmath.workdps(30):
        for i in np.linspace(1, x.size - 2, 50).astype(int):
            xm, x0, xp = (mpmath.mpf(float(v)) for v in x[i - 1:i + 2])
            fm, f0, fp = (mpmath.mpf(float(v)) for v in f[i - 1:i + 2])
            h1, h2 = x0 - xm, xp - x0
            exact = 2 * (fm / (h1 * (h1 + h2)) - f0 / (h1 * h2) + fp / (h2 * (h1 + h2)))
            worst = max(worst, abs(float(exact - d2[i - 1])))
    assert worst < 1e-12


def _sinh_grade(s):
    # steps about 2.4 times longer at the ends than at the centre
    return 0.5 + 0.5 * np.sinh(3.0 * (s - 0.5)) / math.sinh(1.5)


@pytest.mark.parametrize("setting,mode,a,b,grade", [
    (kn.KernelSetting("hermite"), 0, -6.0, 6.0, None),
    (kn.KernelSetting("hermite"), 4, -6.0, 6.0, None),
    (kn.KernelSetting("hermite"), 4, -6.0, 6.0, _sinh_grade),
    (kn.KernelSetting("bessel", alpha=1.5), 1.0, 0.5, 8.0, None),
    (kn.KernelSetting("laguerre", alpha=0.5), 1, 0.5, 8.0, None),
])
def test_eigen_residual_second_order(setting, mode, a, b, grade):
    res = _residual_ladder(setting, mode, a, b, 400, grade=grade)
    orders = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
    assert min(orders) >= 1.8


def test_eigen_residual_rejects_classical():
    g = Grid1D.uniform(-1.0, 1.0, 50, domain="real-line")
    with pytest.raises(CapabilityError):
        so.eigen_identity_residual(kn.KernelSetting("classical"), 0, g)


# ---------------------------------------------------------------------------
# spectral square root
# ---------------------------------------------------------------------------


def test_sqrt_generator_oscillator_eigenfunction():
    g = Grid1D.uniform(-10.0, 10.0, 600, domain="real-line")
    h3 = hermite_function_table(3, g.nodes)[3]
    out = so.sqrt_generator_apply(kn.KernelSetting("hermite"), g, h3)
    assert np.max(np.abs(out - math.sqrt(3.5) * h3)) < 1e-10


def test_sqrt_generator_laguerre_eigenfunction():
    g = Grid1D.uniform(0.0, 14.0, 1400, domain="half-line")
    p2 = laguerre_function_table(2, 0.8, g.nodes)[2]
    out = so.sqrt_generator_apply(kn.KernelSetting("laguerre", alpha=0.8), g, p2)
    assert np.max(np.abs(out - math.sqrt(5.3) * p2)) < 5e-4


def test_sqrt_generator_classical_refuses_graded_grid():
    # uniformity is measured from the nodes: no tag marks this grid graded
    s = np.linspace(-1.0, 1.0, 64)
    g = Grid1D(8.0 * s * (1.0 + s * s) / 2.0, domain="real-line")
    with pytest.raises(DomainError):
        so.sqrt_generator_apply(kn.KernelSetting("classical"), g, np.exp(-g.nodes ** 2))


def test_sqrt_generator_classical_squares_to_generator():
    g = Grid1D.symmetric(16.0, 1024)
    f = np.exp(-g.nodes ** 2)
    flat = kn.KernelSetting("classical", diffusion=0.5)
    twice = so.sqrt_generator_apply(flat, g, so.sqrt_generator_apply(flat, g, f))
    target = -0.5 * (4.0 * g.nodes ** 2 - 2.0) * np.exp(-g.nodes ** 2)
    # window-truncation artifacts concentrate at the edges; check the interior
    interior = np.abs(g.nodes) <= 8.0
    assert np.max(np.abs((twice - target)[interior])) < 2e-2
    # single application against a continuous-transform quadrature oracle
    once = so.sqrt_generator_apply(flat, g, f)
    i = int(np.argmin(np.abs(g.nodes - 1.0)))
    x0 = g.nodes[i]
    oracle, _ = scipy.integrate.quad(
        lambda xi: math.sqrt(0.5) * xi * math.sqrt(math.pi)
        * math.exp(-xi * xi / 4.0) * math.cos(xi * x0) / math.pi, 0.0, 60.0, limit=200)
    assert once[i] == pytest.approx(oracle, abs=5e-4)


def test_sqrt_generator_bessel_squares_to_generator():
    g = Grid1D.uniform(0.0, 12.0, 1500, domain="half-line")
    nu = 1.0
    x = g.nodes
    f = x ** (nu + 0.5) * np.exp(-x ** 2)
    bes = kn.KernelSetting("bessel", alpha=1.5)
    twice = so.sqrt_generator_apply(bes, g, so.sqrt_generator_apply(bes, g, f))
    fpp = ((nu + 0.5) * (nu - 0.5) * x ** (nu - 1.5)
           - 2.0 * (2.0 * nu + 2.0) * x ** (nu + 0.5)
           + 4.0 * x ** (nu + 2.5)) * np.exp(-x ** 2)
    target = -fpp + (1.5 * 0.5) / x ** 2 * f
    interior = (x > 0.2) & (x < 8.0)
    assert np.max(np.abs((twice - target)[interior])) < 1e-3
