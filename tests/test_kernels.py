import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from semireg import kernels as kn
from semireg.errors import DomainError
from semireg.quad import Grid1D
from semireg.spectral_oracle import (
    hankel_poisson_kernel_oracle,
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
        kn.KernelSetting("bessel", alpha=-0.5)
    with pytest.raises(DomainError):
        kn.KernelSetting("hermite", alpha=1.0)
    with pytest.raises(DomainError):
        kn.KernelSetting("hermite", diffusion=0.5)
    assert kn.KernelSetting("classical", diffusion=0.5).domain == "real-line"
    assert kn.KernelSetting("laguerre", alpha=1.3).domain == "half-line"
    assert kn.KernelSetting("bessel", alpha=0.7).nu == pytest.approx(0.2)


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
    comp = (kn.heat_classical(t, x - g.nodes) * kn.heat_classical(s, g.nodes - y)) \
        @ g.cell_widths()
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


# (value, dt) of pieces 12 and 13 and of the whole kernel at CLOSED_FORM_POINTS
# (x/t = 2, 300, 1000, t/x = 1e4, and x/t = 1000 at y - x = t, where the
# dt kernels are near a sign change), by mpmath at 30 digits: the angular
# integrals of the definitions (the whole kernel's over (0, pi), with
# 1 - cos th written 2 sin^2(th/2); the flattened pieces' over (0, pi/2) and
# (pi/2, inf)), split at the dyadic multiples 2^k sqrt(A/xy), k >= -60, of
# the peak width that fall inside the range (on (pi/2, inf) up to
# 10^6 max(sqrt(A/xy), 1)), each divided by a first estimate of its size so
# that quad's absolute tolerance acts as a relative one.  The whole-kernel
# values agree with mpmath's own 2F1 form to 1e-16.
SIGN_CHANGE = (1e-3, 1.0, 1.001)
CLOSED_FORM_POINTS = ((0.5, 1.0, 1.3), (1.0 / 300.0, 1.0, 1.0 + 1.0 / 600.0),
                      (1e-3, 1.0, 1.0005), (1e4, 1.0, 0.501), SIGN_CHANGE)
MPMATH_CLOSED_FORMS = {
    ("12", 0.55): ((0.44287016578742944, -0.4854786705618205),
                   (76.3941365674144, -13751.057917654087),
                   (254.6478380291548, -152788.81628608864),
                   (1.4239434316893703e-09, -2.9902811761936493e-13),
                   (159.1548722094641, -0.0708824218250042)),
    ("12", 1.5): ((0.4024481817417083, -0.5489372990227809),
                  (76.39372873120621, -13751.180266838908),
                  (254.64771553466582, -152788.93878042625),
                  (4.3748819272994663e-17, -1.7499527492487706e-20),
                  (159.15474977621784, -0.19331551689219764)),
    ("12", 2.3): ((0.3712843459381667, -0.590155793170145),
                  (76.39338529187751, -13751.283296414183),
                  (254.64761238145766, -152789.04193343385),
                  (2.0636132856595853e-23, -1.1556234248435382e-26),
                  (159.15464667460984, -0.2964169245299687)),
    ("13", 0.55): ((-0.02523260801226269, -0.0449113540444633),
                   (-0.00023611669464128335, -0.070834514796074),
                   (-7.091788896480529e-05, -0.07091784443708642),
                   (-3.18295645956879e-05, 3.1827998099424435e-09),
                   (-7.08824487765247e-05, -0.0708824042933009)),
    ("13", 1.5): ((-0.06565459205798381, -0.10836998250542369),
                  (-0.0006439529028466842, -0.19318369961696305),
                  (-0.00019341237793040744, -0.19341218206073912),
                  (-3.183098853907584e-05, 3.1830988380425632e-09),
                  (-0.00019331569503439896, -0.19331549936049433)),
    ("13", 2.3): ((-0.0968184278615254, -0.14958847665278782),
                  (-0.0009873922315439966, -0.2962132748925965),
                  (-0.00029656558609325774, -0.29656518965315615),
                  (-3.1830988539119586e-05, 3.1830988380600626e-09),
                  (-0.0002964173030420773, -0.29641690699826534)),
    (None, 0.55): ((0.4821581388454582, -0.4363102255016136),
                   (76.39514932072026, -13750.785553750762),
                   (254.64818958940342, -152788.49622296318),
                   (2.8045641791624094e-09, -5.889584667477172e-13),
                   (159.15521435619436, 0.25158837246671156)),
    (None, 1.5): ((0.38271641385593985, -0.5391563412024969),
                  (76.39165600547628, -13751.706750220674),
                  (254.64694941929068, -152789.60945048975),
                  (5.3192185474187343e-17, -2.1276873856957558e-20),
                  (159.15401203700424, -0.871431190692506)),
    (None, 2.3): ((0.29387772497873377, -0.5628716061387574),
                  (76.38522550833491, -13753.351180525726),
                  (254.64458922527555, -152791.68458267162),
                  (1.4668040655012685e-23, -8.214102645698865e-27),
                  (159.1517366285723, -2.968765417383531)),
}


def test_closed_forms_match_frozen_mpmath():
    # piece 12 is P_cl W^a, piece 13 P_cl (W^a - 1) and the whole kernel a
    # 2F1; the angular rules they replaced were off by up to 1.1 (relative)
    # at x/t = 1000 and 1.3 at t/x = 1e4
    for (piece, a), rows in MPMATH_CLOSED_FORMS.items():
        for (t, x, y), (value, dt) in zip(CLOSED_FORM_POINTS, rows):
            if piece is None:
                got = (kn.poisson_bessel(a, t, x, y), kn.dt_poisson_bessel(a, t, x, y))
            else:
                got = (kn.poisson_bessel_piece(piece, a, t, x, y),
                       kn.dt_poisson_bessel_piece(piece, a, t, x, y))
            assert float(got[0]) == pytest.approx(value, rel=1e-13)
            # the 2F1 form's dt is a difference that cancels at a sign change
            rel = 1e-9 if piece is None and (t, x, y) == SIGN_CHANGE else 1e-13
            assert float(got[1]) == pytest.approx(dt, rel=rel)


# (alpha, t): (value, dt) of the whole kernel at x = y = 1, where scipy's
# real-argument hyp2f1 returns inf for G_1 (alpha = 3.1) or is off by 2.4e-8
# for G_2 (alpha = 2.1); mpmath as for MPMATH_CLOSED_FORMS
MPMATH_REAL_HYP2F1_FAILS = {
    (3.1, 1e-4): (3183.0979354050487, -31830996.846609075),
    (2.1, 0.025): (12.695298317474112, -510.41221763044354),
}


def test_bessel_kernel_where_real_hyp2f1_fails():
    for (a, t), (value, dt) in MPMATH_REAL_HYP2F1_FAILS.items():
        assert float(kn.poisson_bessel(a, t, 1.0, 1.0)) == pytest.approx(value, rel=1e-13)
        assert float(kn.dt_poisson_bessel(a, t, 1.0, 1.0)) == pytest.approx(dt, rel=1e-13)


# (alpha, t, x, y): (value, dt) of the whole kernel at the ends of the
# documented range 0.02 <= alpha <= 10, by mpmath at 40 digits in the plain
# form P = (2a/pi) (xy)^a t J(a+1), dt P = (2a/pi) (xy)^a (J(a+1) - 2(a+1)
# t^2 J(a+2)), J(mu) = B(a, 1/2) s^-mu 2F1(mu/2, (mu+1)/2; a+1/2; (2xy/s)^2),
# s = (x-y)^2 + t^2 + 2xy, with mpmath's own hyp2f1 (an angular quadrature
# split only at pi/2 is itself off by 1.8% at alpha = 0.02)
MPMATH_ALPHA_ENDS = {
    (0.02, 0.5, 1.0, 1.0): (0.6752676188815733, -1.2080652148012896),
    (0.02, 1.0 / 300.0, 1.0, 1.0): (95.49329188008073, -28647.795069035055),
    (0.02, 1e-3, 1.0, 1.0): (318.3099877472397, -318309.78773982904),
    (0.02, 0.3, 2.0, 0.9): (0.08480448521002536, 0.24786772760691142),
    (0.02, 1e4, 1.0, 0.7): (4.4930952001505356e-05, -4.67281887158444e-09),
    (10.0, 0.5, 1.0, 1.0): (0.01631385916658328, -0.17147392111178286),
    (10.0, 1.0 / 300.0, 1.0, 1.0): (95.29844149812486, -28691.938318221557),
    (10.0, 1e-3, 1.0, 1.0): (318.2342907589555, -318371.1594109928),
    (10.0, 0.3, 2.0, 0.9): (9.524132997907239e-05, 0.00011545751308978218),
    (10.0, 1e4, 1.0, 0.7): (1.0206146879338147e-85, -2.1432908112052622e-88),
}


def test_bessel_kernel_at_the_ends_of_the_alpha_range():
    for (a, t, x, y), (value, dt) in MPMATH_ALPHA_ENDS.items():
        assert float(kn.poisson_bessel(a, t, x, y)) == pytest.approx(value, rel=1e-13)
        assert float(kn.dt_poisson_bessel(a, t, x, y)) == pytest.approx(dt, rel=1e-13)


def test_bessel_kernel_refuses_alpha_outside_its_range():
    # hyp2f1 loses digits past alpha ~ 12, so the whole kernel refuses
    # alphas outside the range its accuracy is documented for
    for a in (0.015, 10.5):
        for fn in (kn.poisson_bessel, kn.dt_poisson_bessel):
            with pytest.raises(DomainError):
                fn(a, 0.5, 1.0, 1.0)
    assert np.isfinite(float(kn.dt_poisson_bessel(10.0, 0.5, 1.0, 1.0)))


# w = 1 - z from 1e-16 to 1, and zeta = (1 - sqrt w)/(1 + sqrt w) within 1%
# of the split 0.7 between the two series, on either side
G_SERIES_W = tuple(np.logspace(-16.0, 0.0, 33)[:-1]) + tuple(
    ((1.0 - zeta) / (1.0 + zeta)) ** 2 for zeta in (0.693, 0.6993, 0.7007, 0.707))


@pytest.mark.parametrize("a", [0.02, 0.55, 1.5, 2.3, 6.0, 10.0])
def test_bessel_g_matches_mpmath(a):
    # xy = 1/4, so that 4xy = 1 and A(A + 1) = w (A + 1/2)^2; A = 1e8 leaves
    # 1 - w below rounding (w = 1).  The reference takes the floats A and xy
    # as given, at 40 digits
    w = np.array(G_SERIES_W)
    big_a = np.append(w / (2.0 * (1.0 - w + np.sqrt(1.0 - w))), 1e8)
    got = kn._bessel_g(a, big_a, 0.25, 2)
    with mpmath.workdps(40):
        for k in (1, 2):
            for value, ba in zip(got[k - 1], big_a):
                z = (mpmath.mpf(0.5) / (mpmath.mpf(ba) + mpmath.mpf(0.5))) ** 2
                ref = mpmath.hyp2f1(mpmath.mpf(a + 1 - k) / 2, mpmath.mpf(a - k) / 2,
                                    mpmath.mpf(a) + mpmath.mpf(0.5), z)
                assert abs(value - ref) <= 1e-14 * abs(ref), (k, ba)


def test_dt_bessel_stack_matches_lag_by_lag():
    # a (lags, pairs) call is the same elementwise arithmetic as one call
    # per lag, although each call splits its own elements between the series
    x = np.linspace(0.05, 6.0, 24)
    i, j = np.triu_indices(x.size)
    lags = np.arange(2, 30) * 0.05
    stack = kn.dt_poisson_bessel(1.5, lags, x[i], x[j])
    assert stack.shape == (lags.size, i.size)
    for row, t in zip(stack, lags):
        assert np.array_equal(row, kn.dt_poisson_bessel(1.5, t, x[i], x[j]))


@pytest.mark.parametrize("t", [1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("x", [1.0, 2.0])
def test_heat_laguerre_at_small_time_matches_mpmath(t, x):
    # log sinh t as t + log(-expm1(-2t)) - log 2 keeps its relative accuracy
    # as t -> 0, where t + log1p(-e^{-2t}) - log 2 was off by 1e-16/t
    # relative; and the growth of I(xi), xi = x^2/sinh t ~ 1e8, is folded
    # into the Gaussian exponent analytically, where log I(xi) and the
    # exponent cancelled to eps * xi
    with mpmath.workdps(40):
        tm, xm = mpmath.mpf(t), mpmath.mpf(x)
        sh = mpmath.sinh(tm)
        ref = (xm / sh * mpmath.besseli(1, xm * xm / sh)
               * mpmath.exp(-xm * xm / mpmath.tanh(tm)))
    assert float(kn.heat_laguerre(1.5, t, x, x)) == pytest.approx(float(ref), rel=1e-12)


@pytest.mark.parametrize("t", [1e-4, 1e-6, 1e-9])
@pytest.mark.parametrize("x", [1.0, 2.0])
def test_heat_bessel_at_small_time_matches_mpmath(t, x):
    # xi = x^2/2t reaches 2e9 at t = 1e-9, where scipy's ive is NaN and the
    # large-xi expansion of the scaled log I serves; log I(xi) against the
    # Gaussian exponent would cancel to eps * xi there
    with mpmath.workdps(40):
        tm, xm = mpmath.mpf(t), mpmath.mpf(x)
        ref = xm / (2 * tm) * mpmath.besseli(1, xm * xm / (2 * tm)) * mpmath.exp(-xm * xm / (2 * tm))
    assert float(kn.heat_bessel(1.5, t, x, x)) == pytest.approx(float(ref), rel=1e-12)


@pytest.mark.parametrize("t", [1000.0, 9100.0])
def test_dt_piece_thirteen_matches_mpmath_at_large_times(t):
    # t/x up to 9,100, where the (pi/2, inf) integral of the flattened
    # integrand peaks at th ~ sqrt(A/xy), far above pi/2; the angular rule it
    # replaced was off by 4.0e-2 and 1.4 here.  mpmath at 30 digits, the
    # integrand scaled by A^p (of order 1 here), split at 16^k sqrt(A/xy)
    a, x, y = 1.5, 1.0, 0.501
    with mpmath.workdps(30):
        big_a = (mpmath.mpf(x) - y) ** 2 + mpmath.mpf(t) ** 2
        width = mpmath.sqrt(big_a / (x * y))
        cuts = [mpmath.pi / 2] + [width * 16.0 ** k for k in range(-3, 1)
                                  if width * 16.0 ** k > mpmath.pi / 2] + [mpmath.inf]

        def tail(p):
            return mpmath.quad(lambda th: th ** (2 * a - 1) * (1 + x * y * th * th / big_a) ** -p,
                               cuts) / big_a ** p

        expect = float(-2 * a / mpmath.pi * (x * y) ** a
                       * (tail(a + 1) - 2 * (a + 1) * t * t * tail(a + 2)))
    assert float(kn.dt_poisson_bessel_piece("13", a, t, x, y)) == pytest.approx(expect, rel=1e-12)


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
        for label in ("7", "full", ""):
            with pytest.raises(DomainError):
                fn(label, 0.8, 0.5, 1.0, 1.0)


@pytest.mark.parametrize("t, x, y", [(0.05, 0.4, 0.7), (0.6, 2.0, 1.3), (2.5, 5.0, 8.0)])
def test_dt_obtuse_half_matches_mpmath(t, x, y):
    # the (pi/2, pi) half of the dt Bessel angular integral, on the band
    # x/2 < y < 2x, against mpmath's quadrature at 30 digits
    a = 1.5
    with mpmath.workdps(30):
        def sums(p):
            return mpmath.quad(lambda th: mpmath.sin(th) ** (2 * a - 1) * (
                (x - y) ** 2 + t * t + 2 * x * y * (1 - mpmath.cos(th))) ** (-p),
                [mpmath.pi / 2, mpmath.pi])
        expect = float(2 * a / mpmath.pi * (x * y) ** a
                       * (sums(a + 1) - 2 * (a + 1) * t * t * sums(a + 2)))
    got = float(kn.dt_poisson_bessel_piece("2", a, t, x, y))
    assert got == pytest.approx(expect, rel=1e-12)


# piece 11, (value, dt) at x = y = 1, keyed (alpha, x/t), by mpmath at 30
# digits: quad of th^{2a-1} (A + 4xy sin^2(th/2))^{-p} over (0, pi/2),
# p = a + 1 and a + 2, split at 0, r, 2r, 4r, ... < pi/2 with
# r = sqrt(A/xy); 40 digits and splits at 1.5^k r agree to all 17 shown
MPMATH_PIECE11_LARGE_X_OVER_T = {
    (0.55, 300): (95.493573509698468, -28647.752687225413),
    (0.55, 1000): (318.31012293195965, -318309.69466223025),
    (1.5, 300): (95.49594787571858, -28647.194101105691),
    (1.5, 1000): (318.31102031636983, -318308.95099578428),
    (2.3, 300): (95.49923024206023, -28646.413127457535),
    (2.3, 1000): (318.31225030659181, -318307.92472602616),
}


@pytest.mark.parametrize("a, ratio", list(MPMATH_PIECE11_LARGE_X_OVER_T))
def test_angular_pieces_at_large_x_over_t(a, ratio):
    # the integrand peaks in a width t/sqrt(xy) at th = 0, which the node
    # count must resolve; piece 1 is checked against the closed kernel minus
    # the obtuse half, whose integrand is smooth on its range
    t, x, y = 1.0 / ratio, 1.0, 1.0
    value, dt = MPMATH_PIECE11_LARGE_X_OVER_T[(a, ratio)]
    assert float(kn.poisson_bessel_piece("11", a, t, x, y)) == pytest.approx(value, rel=1e-9)
    assert float(kn.dt_poisson_bessel_piece("11", a, t, x, y)) == pytest.approx(dt, rel=1e-9)
    for one, full in ((kn.poisson_bessel_piece, kn.poisson_bessel),
                      (kn.dt_poisson_bessel_piece, kn.dt_poisson_bessel)):
        expect = float(full(a, t, x, y)) - float(one("2", a, t, x, y))
        assert float(one("1", a, t, x, y)) == pytest.approx(expect, rel=1e-9)


def test_angular_piece_memory_is_bounded_at_small_time():
    # t = 1e-4 against x in (0.5, 2) takes about 1,600 nodes; building
    # them all at once would hold about 560 MB of node-by-pair arrays
    x = np.linspace(0.5, 2.0, 100)
    tracemalloc.start()
    try:
        kn.dt_poisson_bessel_piece("11", 1.5, 1e-4, x[:, None], x[None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


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
    for setting in (kn.KernelSetting("hermite"), kn.KernelSetting("laguerre", alpha=a)):
        value, dt = FROZEN_SUBORDINATED[setting.variant]
        assert float(kn.poisson_kernel_grid(setting, t, x, y)) == pytest.approx(value, rel=1e-13)
        assert float(kn.dt_poisson_kernel_grid(setting, t, x, y)) == pytest.approx(dt, rel=1e-13)


def test_subordinated_kernels_match_mpmath():
    a, t, x, y = 1.5, 0.37, 1.3, 0.8
    for setting in (kn.KernelSetting("hermite"), kn.KernelSetting("laguerre", alpha=a)):
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
    for t, n in ((0.1, 255), (0.5, 49), (2.0, 13)):
        for x in (-3.5, 0.0, 1.2):
            for y in (-0.7, 2.0):
                sv = hermite_heat_series(t, x, y, n, index_cap=400)
                assert sv.truncation_bound <= 1e-10
                worst = max(worst, abs(sv.value - float(kn.heat_hermite(t, x, y))))
    assert worst < 1e-8


def test_heat_hermite_huge_time_ground_mode():
    t = 800.0
    lead = math.exp(-t / 2.0) / math.sqrt(math.pi) * math.exp(-(1.0 + 4.0) / 2.0)
    assert float(kn.heat_hermite(t, 1.0, 2.0)) == pytest.approx(lead, rel=1e-10)


def test_heat_laguerre_matches_series():
    worst = 0.0
    for a in (0.5, 1.3):
        for t, n in ((0.2, 62), (0.6, 21)):
            for x in (0.1, 0.9, 3.0):
                sv = laguerre_heat_series(a, t, x, 0.7, n, index_cap=400)
                assert sv.truncation_bound <= 1e-10
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


@pytest.mark.parametrize("heat,lo", [
    (kn.heat_hermite, -6.0),
    (lambda t, x, y: kn.heat_laguerre(1.5, t, x, y), 0.05),
    (lambda t, x, y: kn.heat_laguerre(0.6, t, x, y), 0.05),
], ids=["hermite", "laguerre-1.5", "laguerre-0.6"])
def test_heat_kernels_on_a_time_column_equal_scalar_calls(heat, lo):
    # the subordination evaluates one block of log-u nodes per call, as a
    # (16, 1, 1) column against (x, y); each row must be the scalar call's
    u = np.geomspace(1e-4, 300.0, 16)
    x = np.linspace(lo, 6.0, 24)
    X, Y = x[:, None], x[None, :]
    block = heat(u.reshape(-1, 1, 1), X, Y)
    assert block.shape == (16, 24, 24)
    assert np.array_equal(block, np.stack([heat(float(uq), X, Y) for uq in u]))


# ---------------------------------------------------------------------------
# subordination
# ---------------------------------------------------------------------------


def test_subordinated_classical_poisson():
    for dz in (0.0, 1.0, 3.0):
        res = kn.poisson_via_subordination(kn.KernelSetting("classical"), 1.0, dz, 0.0)
        assert res.converged
        assert res.value == pytest.approx(float(kn.poisson_classical(1.0, dz)), abs=1e-9)


def _quadpack_subordination(setting, t, x, y):
    """The subordination integral in w by QUADPACK, an independent reference."""
    def f(w):
        return 0.0 if w == 0.0 else math.exp(-w * w) * float(kn.heat_kernel(setting, t * t / (4 * w * w), x, y))

    value, _ = scipy.integrate.quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return 2.0 / math.sqrt(math.pi) * value


def test_subordination_agrees_with_quadpack():
    # t in [0.3, 2], the range of the benchmark's pointwise subordination checks
    rng = np.random.default_rng(20221)
    settings_ = (kn.KernelSetting("classical"), kn.KernelSetting("hermite"),
                 kn.KernelSetting("laguerre", alpha=1.5), kn.KernelSetting("laguerre", alpha=0.6),
                 kn.KernelSetting("bessel", alpha=1.5))
    for i in range(30):
        setting = settings_[i % len(settings_)]
        low = -3.0 if setting.variant in ("classical", "hermite") else 0.05
        x, y = rng.uniform(low, 3.0, 2)
        t = rng.uniform(0.3, 2.0)
        res = kn.poisson_via_subordination(setting, t, x, y)
        assert res.converged
        assert res.value == pytest.approx(_quadpack_subordination(setting, t, x, y), rel=1e-12, abs=0.0)


def test_subordinated_hermite_matches_series_at_large_time():
    # the convergence test is relative: with an absolute floor of 1e-12 the
    # result was flagged converged while 33% off at t = 50
    for t in (0.1, 5.0, 20.0, 50.0, 200.0):
        n = poisson_series_terms(t, 1e-10)
        series = hermite_poisson_series(t, 0.5, 0.4, n, index_cap=max(n + 1, 400)).value
        res = kn.poisson_via_subordination(kn.KernelSetting("hermite"), t, 0.5, 0.4)
        assert res.converged
        assert res.value == pytest.approx(series, rel=1e-9, abs=0.0)


def test_subordinated_laguerre_at_small_time():
    # the rule samples u near 1e-12, where the Laguerre heat kernel needs
    # log I_nu beyond z = 1e9
    res = kn.poisson_via_subordination(kn.KernelSetting("laguerre", alpha=1.5), 1e-3, 1.0, 1.2)
    assert math.isfinite(res.value) and res.converged
    lag = kn.KernelSetting("laguerre", alpha=1.5)
    assert res.value == pytest.approx(float(kn.poisson_kernel_grid(lag, 1e-3, 1.0, 1.2)),
                                      rel=1e-6, abs=0.0)


def test_subordinated_grid_matches_scalar_route():
    vals = kn.poisson_kernel_grid(kn.KernelSetting("hermite"), 0.7, np.array([0.0, 1.0]), 0.5)
    for v, x in zip(vals, (0.0, 1.0)):
        res = kn.poisson_via_subordination(kn.KernelSetting("hermite"), 0.7, x, 0.5)
        assert v == pytest.approx(res.value, abs=1e-9)


def test_subordinated_hermite_poisson_symmetric():
    her = kn.KernelSetting("hermite")
    assert float(kn.poisson_kernel_grid(her, 0.6, 1.3, -0.2)) == pytest.approx(
        float(kn.poisson_kernel_grid(her, 0.6, -0.2, 1.3)), rel=1e-12)


def test_subordinated_hermite_matches_poisson_series():
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        n = poisson_series_terms(t, 1e-8)
        for x, y in ((0.0, 0.5), (1.0, -1.5)):
            sv = hermite_poisson_series(t, x, y, n, index_cap=max(n, 400))
            pg = float(kn.poisson_kernel_grid(kn.KernelSetting("hermite"), t, x, y))
            worst = max(worst, abs(sv.value - pg))
    assert worst < 1e-6


@pytest.mark.parametrize("setting", [
    kn.KernelSetting("classical"), kn.KernelSetting("bessel", alpha=1.5),
    kn.KernelSetting("hermite"), kn.KernelSetting("laguerre", alpha=1.5),
])
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
            # no node pairs: an empty kernel per time
            assert fn(a, times, x[:0], x[:0]).shape == (3, 0)


# Laguerre (alpha = 1.5) at x = 1, y = 1.2 by mpmath at 30 digits, as for
# MPMATH_SUBORDINATED: t = 10 needs a refined log-u lattice (the base one is
# off by 2e-5 there); at t = 300 the base lattice has no panel left
MPMATH_LAGUERRE_T10 = (5.6034798636581735e-07, -7.927132822903831e-07)


def test_subordination_refines_or_raises_at_large_times():
    lag = kn.KernelSetting("laguerre", alpha=1.5)
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
    for setting in (lag, kn.KernelSetting("hermite")):
        for fn in (kn.poisson_kernel_grid, kn.dt_poisson_kernel_grid):
            with pytest.raises(DomainError):
                fn(setting, 300.0, 1.0, 1.2)
            with pytest.raises(DomainError):
                fn(setting, np.array([0.5, 300.0]), X, Y)


def test_dt_poisson_grid_matches_difference_quotient():
    # 4th-order stencil with a wide step: keeps the quadrature noise of the
    # kernel evaluations from being amplified by 1/h
    t, h = 0.8, 0.02
    for setting, x, y in ((kn.KernelSetting("hermite"), 0.7, -0.3),
                          (kn.KernelSetting("laguerre", alpha=1.3), 0.9, 1.4)):
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
    kn.KernelSetting("classical"), kn.KernelSetting("bessel", alpha=0.7),
    kn.KernelSetting("bessel", alpha=1.5), kn.KernelSetting("hermite"),
    kn.KernelSetting("laguerre", alpha=0.5), kn.KernelSetting("laguerre", alpha=1.3),
])
def test_heat_kernels_nonnegative(setting):
    rng = np.random.default_rng(11)
    t, x, y = _random_args(rng, setting, 10_000)
    vals = kn.heat_kernel(setting, t, x, y)
    assert np.all(vals >= 0.0)
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("setting,window", [
    (kn.KernelSetting("classical"), None),
    (kn.KernelSetting("hermite"), None),
    (kn.KernelSetting("bessel", alpha=0.7), (0.0, 16.0)),
    (kn.KernelSetting("laguerre", alpha=1.3), (0.0, 16.0)),
])
def test_heat_semigroup_law(setting, window):
    pairs = [(0.9, 1.4), (0.4, 2.1), (1.7, 0.6)] if window else [(0.3, -0.4), (-1.2, 0.8), (0.1, 1.9)]
    for (t, s) in ((0.2, 0.2), (0.2, 0.5), (0.5, 0.5)):
        for x, y in pairs:
            if window:
                g = Grid1D.uniform(window[0], window[1], 4000, domain="half-line")
            else:
                g = Grid1D.symmetric(14.0, 4000)
            comp = (np.asarray(kn.heat_kernel(setting, t, x, g.nodes))
                    * np.asarray(kn.heat_kernel(setting, s, g.nodes, y))) @ g.cell_widths()
            tgt = float(kn.heat_kernel(setting, t + s, x, y))
            assert abs(comp - tgt) / abs(tgt) < 1e-6
