import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semireg import transference as tr
from semireg.errors import CapabilityError, DomainError
from semireg.kernels import KernelSetting
from semireg.quad import Grid1D, gauss_legendre_rule
from semireg.specfun import hermite_function

ALPHAS = (0.8, 1.5)

# (scale, shift(alpha)) forced by the square substitution; the conjugation
# sweep below would flag any wrong row with an O(1) residual floor
NORMALIZATIONS = {
    "delta_alpha": (1.0, lambda a: 0.0),
    "ou_plus_half": (1.0, lambda a: 0.0),
    "L_alpha_shift": (4.0, lambda a: -(a + 0.5)),
    "L_alpha_ell": (4.0, lambda a: 0.0),
    "L_alpha_psi": (1.0, lambda a: 0.0),
    "L_alpha_script": (4.0, lambda a: 0.0),
}


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_slugs_and_bases():
    entries = tr.chart_entries(1.2)
    assert tuple(e.slug for e in entries) == tr.CHART_SLUGS
    assert len(set(tr.CHART_SLUGS)) == 6
    by_slug = {e.slug: e for e in entries}
    assert by_slug["delta_alpha"].base.variant == "bessel"
    assert by_slug["ou_plus_half"].base.variant == "hermite"
    for slug in ("L_alpha_shift", "L_alpha_ell", "L_alpha_psi", "L_alpha_script"):
        assert by_slug[slug].base.variant == "laguerre"
    squares = {slug: by_slug[slug].square_map for slug in tr.CHART_SLUGS}
    assert squares == {
        "delta_alpha": False,
        "ou_plus_half": False,
        "L_alpha_shift": True,
        "L_alpha_ell": True,
        "L_alpha_psi": False,
        "L_alpha_script": True,
    }


def test_catalog_rejects_bad_input():
    with pytest.raises(DomainError):
        tr.chart_entry("no_such_entry")
    with pytest.raises(DomainError):
        tr.chart_entry("delta_alpha", alpha=0.0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_conjugation_normalizations(alpha):
    for e in tr.chart_entries(alpha):
        scale, shift = NORMALIZATIONS[e.slug]
        assert e.conj_scale == scale
        assert e.conj_shift == pytest.approx(shift(alpha), abs=1e-15)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_target_densities_match_weight_and_substitution(alpha):
    # the stored closed form against M(h^{-1})^2 |(h^{-1})'|, ten spot points
    for e in tr.chart_entries(alpha):
        assert tr.measure_density_check(e) < 1e-12


# ---------------------------------------------------------------------------
# sandwich maps
# ---------------------------------------------------------------------------


def test_identity_substitution_is_plain_weighting():
    e = tr.chart_entry("delta_alpha", 0.7)
    grid = tr.source_grid(e, 200)
    f = np.sin(grid.nodes)
    assert np.array_equal(tr.apply_UW(e, f, grid), grid.nodes**0.7 * f)


def test_round_trip_exact_on_image_nodes():
    e = tr.chart_entry("L_alpha_shift", 1.1)
    grid = tr.source_grid(e, 150)
    z = tr.target_nodes(e, grid)
    assert np.allclose(z, grid.nodes**2)
    f = np.cos(z) / (1.0 + z)
    back = tr.apply_UW_inverse(e, tr.apply_UW(e, f, grid), grid)
    np.testing.assert_allclose(back, f, rtol=1e-13, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=40, max_size=40), st.sampled_from(tr.CHART_SLUGS))
def test_round_trip_property(values, slug):
    e = tr.chart_entry(slug, 1.3)
    grid = tr.source_grid(e, 40)
    f = np.asarray(values)
    back = tr.apply_UW_inverse(e, tr.apply_UW(e, f, grid), grid)
    np.testing.assert_allclose(back, f, rtol=5e-13, atol=1e-13)


def test_substituted_points_outside_sample_range_refused():
    e = tr.chart_entry("L_alpha_ell", 0.7)
    grid = tr.source_grid(e, 120)
    with pytest.raises(DomainError):
        tr.apply_UW(e, np.ones(17), grid)
    with pytest.raises(DomainError):
        tr.apply_UW_inverse(e, np.ones(17), grid)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_isometry_defect_all_entries(alpha):
    # five random smooth fields per entry
    for e in tr.chart_entries(alpha):
        for seed in range(5):
            assert tr.isometry_defect(e, seed=seed) < 1e-8


def test_panel_integral_matches_per_panel_loop():
    # both sides of every isometry integral, against one rule per panel
    fn = tr.random_smooth_function(np.random.default_rng(0))
    for e in tr.chart_entries(1.5):
        sides = [(lambda x, e=e: e.weight(x) ** 2 * fn(x * x if e.square_map else x) ** 2, False),
                 (lambda z, e=e: e.target_density(z) * fn(z) ** 2, True)]
        for integrand, target_side in sides:
            edges = tr._panel_edges(e, target_side=target_side)
            loop = 0.0
            for a, b in zip(edges, edges[1:]):
                pts, wts = gauss_legendre_rule(float(a), float(b), 12)
                loop += float(wts @ integrand(pts))
            assert tr._panel_integral(integrand, edges) == pytest.approx(loop, rel=1e-14)


# ---------------------------------------------------------------------------
# differential expressions
# ---------------------------------------------------------------------------


def test_constant_through_zero_order_term_is_exact():
    # derivative stencils annihilate constants, so only c(z) survives
    e = tr.chart_entry("ou_plus_half")
    z = np.linspace(-4.0, 4.0, 101)
    out = tr.apply_chart_operator(e, np.ones_like(z), z)
    assert out.shape == (99,)
    np.testing.assert_allclose(out, 0.5, atol=1e-13)


def test_companion_ground_state_residual_second_order():
    setting = KernelSetting("hermite")
    errs = []
    for n in (200, 400):
        grid = Grid1D.uniform(-6.0, 6.0, n, domain="real-line")
        h0 = hermite_function(0, grid.nodes)
        out = tr.apply_base_operator(setting, h0, grid.nodes)
        errs.append(np.max(np.abs(out - 0.5 * h0[1:-1])))
    assert errs[1] < 2e-4
    assert math.log2(errs[0] / errs[1]) > 1.8


def test_stencil_needs_three_nodes():
    e = tr.chart_entry("delta_alpha", 1.0)
    with pytest.raises(DomainError):
        tr.apply_chart_operator(e, np.ones(2), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        tr.apply_chart_operator(e, np.ones(5), np.linspace(1.0, 2.0, 4))


@pytest.mark.parametrize(
    "slug", ["ou_plus_half", "L_alpha_shift", "L_alpha_ell", "L_alpha_psi", "L_alpha_script"])
def test_transferred_modes_are_eigenfunctions(slug):
    e = tr.chart_entry(slug, 1.3)
    lam = tr.chart_eigenvalue(e, 3)
    errs = []
    for n in (160, 320, 640):
        if slug == "L_alpha_script":
            # kept away from the z^{-1/4} blowup at 0
            grid = Grid1D.uniform(0.7, 3.2, n, domain="half-line")
        else:
            grid = tr.source_grid(e, n)
        z = tr.target_nodes(e, grid)
        g = tr.transferred_eigenfunction(e, 3, z)
        lhs = tr.apply_chart_operator(e, g, z)
        errs.append(np.max(np.abs(lhs - lam * g[1:-1])))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) > 1.8


def test_eigenvalue_bookkeeping():
    alpha = 1.3
    lam = 2.0 * 3 + alpha + 0.5
    assert tr.chart_eigenvalue(tr.chart_entry("L_alpha_psi", alpha), 3) == pytest.approx(lam)
    assert tr.chart_eigenvalue(tr.chart_entry("L_alpha_ell", alpha), 3) == pytest.approx(lam / 4.0)
    assert tr.chart_eigenvalue(tr.chart_entry("L_alpha_shift", alpha), 3) == pytest.approx(
        (lam + alpha + 0.5) / 4.0
    )
    assert tr.chart_eigenvalue(tr.chart_entry("ou_plus_half"), 3) == pytest.approx(3.5)
    with pytest.raises(CapabilityError):
        tr.chart_eigenvalue(tr.chart_entry("delta_alpha", 1.0), 3)
    with pytest.raises(CapabilityError):
        tr.transferred_eigenfunction(tr.chart_entry("delta_alpha", 1.0), 3, np.ones(4))
    with pytest.raises(DomainError):
        tr.chart_eigenvalue(tr.chart_entry("L_alpha_psi", alpha), -1)


# ---------------------------------------------------------------------------
# conjugation sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", ALPHAS)
def test_conjugation_residuals_second_order(alpha):
    for e in tr.chart_entries(alpha):
        rep = tr.check_conjugation(e, levels=3)
        assert rep.residuals[0] > rep.residuals[1] > rep.residuals[2]
        assert rep.min_order() > 1.8
        assert rep.residuals[-1] < 1e-3


def test_conjugation_detects_wrong_normalization():
    e = dataclasses.replace(tr.chart_entry("L_alpha_ell", 1.0), conj_scale=1.0)
    rep = tr.check_conjugation(e, levels=3)
    # residual floor stays O(1) instead of shrinking
    assert rep.residuals[-1] > 0.1
    assert rep.min_order() < 0.5


def test_conjugation_accepts_custom_test():
    e = tr.chart_entry("delta_alpha", 1.4)
    rep = tr.check_conjugation(e, levels=2, test=lambda z: np.exp(-((z - 2.0) ** 2)))
    assert rep.min_order() > 1.8
    with pytest.raises(DomainError):
        tr.check_conjugation(e, levels=0)


def test_report_shape():
    e = tr.chart_entry("ou_plus_half")
    rep = tr.check_conjugation(e, levels=1)
    assert rep.orders == ()
    assert math.isnan(rep.min_order())
    rep = tr.check_conjugation(e, levels=2)
    assert rep.slug == "ou_plus_half"
    assert len(rep.spacings) == len(rep.residuals) == 2
    assert len(rep.orders) == 1
