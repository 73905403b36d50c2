import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semireg.errors import DomainError
from semireg.specfun import (
    bessel_j,
    hermite_function,
    hermite_function_table,
    laguerre_function,
    laguerre_function_table,
    log_modified_bessel_i,
    modified_bessel_i,
)


# ground state value, pi^(-1/4)
GROUND_AT_ZERO = 0.7511255444649425


def test_hermite_ground_state():
    assert hermite_function(0, 0.0) == pytest.approx(GROUND_AT_ZERO, abs=1e-15)
    # even function with Gaussian profile
    assert hermite_function(0, 1.3) == pytest.approx(
        GROUND_AT_ZERO * math.exp(-1.3 * 1.3 / 2.0), rel=1e-14
    )


def test_hermite_first_mode():
    # k=1 mode is sqrt(2) x times the ground state
    for x in (0.4, -1.1, 2.5):
        assert hermite_function(1, x) == pytest.approx(
            math.sqrt(2.0) * x * hermite_function(0, x), rel=1e-13
        )


def test_hermite_orthonormal_gram():
    # Gauss-Hermite nodes integrate products of the first 21 modes exactly
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    table = hermite_function_table(20, nodes)  # (21, 64)
    rescaled = table * np.exp(nodes * nodes / 2.0)[None, :]
    gram = (rescaled * weights[None, :]) @ rescaled.T
    assert np.max(np.abs(gram - np.eye(21))) < 1e-9


def test_hermite_index_cap():
    from semireg.errors import CapabilityError

    with pytest.raises(CapabilityError):
        hermite_function_table(500, 0.0)
    # explicit cap override allows deep tables
    table = hermite_function_table(500, 0.0, index_cap=600)
    assert table.shape[0] == 501


def test_laguerre_ground_state_closed_form():
    # alpha=1/2: ground state is sqrt(2) sqrt(x) e^{-x^2/2}
    for x in (0.3, 1.0, 2.2):
        expect = math.sqrt(2.0) * math.sqrt(x) * math.exp(-x * x / 2.0)
        assert laguerre_function(0, 0.5, x) == pytest.approx(expect, rel=1e-13)


def test_laguerre_orthonormal_gram():
    import scipy.special

    alpha = 0.8
    nu = alpha - 0.5
    # substitution u = x^2 turns the weight into u^nu e^{-u}
    u, w = scipy.special.roots_genlaguerre(64, nu)
    x = np.sqrt(u)
    table = laguerre_function_table(20, alpha, x)
    # divide out x^alpha e^{-x^2/2} so only the polynomial part remains
    poly = table / (x[None, :] ** alpha * np.exp(-u[None, :] / 2.0))
    gram = 0.5 * (poly * w[None, :]) @ poly.T
    assert np.max(np.abs(gram - np.eye(21))) < 1e-9


def test_laguerre_positive_and_decaying():
    vals = laguerre_function_table(0, 1.3, np.array([0.5, 1.0, 6.0]))[0]
    assert np.all(vals > 0.0)
    assert vals[2] < vals[1]


HALF_I_RANGE = np.concatenate(
    [np.geomspace(0.01, 11.9, 40), np.geomspace(12.1, 50.0, 20)]
)


def test_modified_bessel_half_integer_closed_form():
    # I_{1/2}(z) = sqrt(2/(pi z)) sinh z across both evaluation regimes
    z = HALF_I_RANGE
    expect = np.sqrt(2.0 / (math.pi * z)) * np.sinh(z)
    got = modified_bessel_i(0.5, z)
    assert np.max(np.abs(got / expect - 1.0)) < 1e-9


def test_modified_bessel_three_halves_closed_form():
    z = HALF_I_RANGE
    expect = np.sqrt(2.0 / (math.pi * z)) * (np.cosh(z) - np.sinh(z) / z)
    got = modified_bessel_i(1.5, z)
    assert np.max(np.abs(got / expect - 1.0)) < 1e-9


def test_bessel_j_half_integer_closed_form():
    z = np.geomspace(0.01, 50.0, 60)
    expect = np.sqrt(2.0 / (math.pi * z)) * np.sin(z)
    got = bessel_j(0.5, z)
    assert np.max(np.abs(got - expect)) / np.max(np.abs(expect)) < 1e-9
    mask = np.abs(np.sin(z)) > 0.1
    assert np.max(np.abs(got[mask] / expect[mask] - 1.0)) < 1e-9


def test_bessel_j_rejects_low_order():
    with pytest.raises(DomainError):
        bessel_j(-0.7, 1.0)


def test_modified_bessel_small_z_series_regime():
    # ascending series: I_nu(z) ~ (z/2)^nu / Gamma(nu+1) * (1 + z^2/(4(nu+1)))
    nu = 0.8
    for z in (1e-3, 1e-2):
        lead = (z / 2.0) ** nu / math.gamma(nu + 1.0)
        expect = lead * (1.0 + z * z / (4.0 * (nu + 1.0)))
        assert modified_bessel_i(nu, z) == pytest.approx(expect, rel=1e-8)


def test_modified_bessel_large_z_asymptotic_regime():
    # leading asymptotic e^z/sqrt(2 pi z) with the bracket
    # 1 - (4nu^2-1)/(8z) + (4nu^2-1)(4nu^2-9)/(128z^2)
    nu = 0.8
    mu = 4.0 * nu * nu
    for z in (60.0, 200.0):
        lead = math.exp(z) / math.sqrt(2.0 * math.pi * z)
        expect = lead * (1.0 - (mu - 1.0) / (8.0 * z) + (mu - 1.0) * (mu - 9.0) / (128.0 * z * z))
        assert modified_bessel_i(nu, z) == pytest.approx(expect, rel=1e-6)


def _log_ive_reference(nu, z):
    # log(I_nu(z) e^{-z}); 40 digits leave the difference exact to double
    # rounding for z up to 1e15
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.besseli(nu, z)) - z)


def test_modified_bessel_scipy_cross_check():
    # the scipy-backed I_nu against an independent mpmath reference
    rng = np.random.default_rng(7)
    nu = rng.uniform(0.1, 3.0, 50)
    z = rng.uniform(0.05, 40.0, 50)
    for n, zz in zip(nu, z):
        assert modified_bessel_i(n, zz) == pytest.approx(
            float(mpmath.besseli(n, zz)), rel=1e-9
        )
    # across z = 12 and beyond the range where I itself overflows
    for n in (0.3, 1.5, 2.8):
        for zz in (11.5, 11.99, 12.0, 12.01, 12.5, 20.0, 1e3, 1e5, 1e8):
            assert log_modified_bessel_i(n, zz) == pytest.approx(_log_ive_reference(n, zz), rel=1e-9)


def test_log_modified_bessel_matches_mpmath_everywhere():
    # log(I e^{-z}) enters the heat kernels as an additive term of the
    # kernel's logarithm, so its error is measured relative to
    # max(1, |log(I e^{-z})|): that is the relative error it causes in the
    # kernel.  Near 0 (small z for nu = 0) no double-precision evaluation has
    # a small relative error in the logarithm itself.  The range covers the
    # ordinary branch and, for nu > 0, the underflowing one.
    z = np.geomspace(1e-250, 1e8, 121)
    for nu in (0.0, 0.2, 0.5, 1.0, 1.3, 2.5, 3.0, 5.0):
        got = log_modified_bessel_i(nu, z)
        ref = np.array([_log_ive_reference(nu, zz) for zz in z])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-14


def test_log_modified_bessel_at_huge_arguments():
    # scipy's ive is NaN from z ~ 1.08e9; the large-z expansion takes over
    for nu in (0.0, 1.0, 5.5):
        for z in (1e9, 1e12, 1e15):
            ref = _log_ive_reference(nu, z)
            assert abs(log_modified_bessel_i(nu, z) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_log_modified_bessel_underflowing_scaled_value():
    # (z/2)^nu underflows: the scaled ive is 0 and the value must come from
    # the leading series term, finite and without a divide-by-zero warning
    for nu in (1.3, 3.0, 5.0):
        for z in (1e-250, 1e-100):
            assert log_modified_bessel_i(nu, z) == pytest.approx(_log_ive_reference(nu, z), rel=1e-14)
    # z = 0 (an underflowed argument): log I_0(0) = 0, log I_nu(0) = -inf
    assert log_modified_bessel_i(0.0, np.array([0.0, 1.0]))[0] == 0.0
    assert log_modified_bessel_i(1.3, 0.0) == -math.inf
    with pytest.raises(DomainError):
        log_modified_bessel_i(1.3, -1.0)


def test_log_modified_bessel_consistency():
    nu = 1.3
    for z in (0.5, 5.0, 30.0):
        assert log_modified_bessel_i(nu, z) + z == pytest.approx(
            math.log(modified_bessel_i(nu, z)), abs=1e-11
        )


def test_log_modified_bessel_huge_argument():
    # far beyond floating-point overflow of I itself
    val = log_modified_bessel_i(0.9, 1.0e6) + 1.0e6
    lead = 1.0e6 - 0.5 * math.log(2.0 * math.pi * 1.0e6)
    assert val == pytest.approx(lead, rel=1e-10)


@settings(max_examples=40)
@given(st.floats(min_value=0.1, max_value=3.0), st.floats(min_value=0.05, max_value=45.0))
def test_modified_bessel_positive(nu, z):
    assert modified_bessel_i(nu, z) > 0.0
