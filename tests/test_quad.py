import math

import numpy as np
import pytest

from semireg.errors import DomainError, NonConvergenceError
from semireg.quad import (
    Grid1D,
    QuadratureRule,
    SpaceTimeGrid,
    gauss_jacobi_rule,
    gauss_legendre_panels,
    gauss_legendre_rule,
    grid_integrate,
    integrate,
    integrate_or_raise,
    integrate_subordination,
)


def test_integrate_polynomial():
    res = integrate(lambda x: x * x, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_integrate_interior_singularity_with_points():
    res = integrate(lambda x: abs(x - 0.5) ** -0.5, 0.0, 1.0, points=(0.5,))
    assert res.converged
    assert res.value == pytest.approx(2.0 * math.sqrt(0.5) * 2.0, rel=1e-9)


def test_integrate_or_raise_flags_starved_budget():
    rule = QuadratureRule(rtol=1e-13, atol=1e-15, max_subdivisions=10)
    with pytest.raises(NonConvergenceError):
        integrate_or_raise(lambda x: math.sin(1.0 / (x + 1e-6)) / math.sqrt(abs(x) + 1e-9),
                           0.0, 1.0, rule=rule)


def test_rule_validation():
    with pytest.raises(DomainError):
        QuadratureRule(rtol=-1.0)
    with pytest.raises(DomainError):
        QuadratureRule(max_subdivisions=0)


def test_subordination_reproduces_classical_poisson():
    # the weighted heat-kernel average must equal the explicit Poisson kernel
    for t in (0.3, 1.0):
        for z in (0.0, 0.7, 2.5):
            g = lambda u: math.exp(-z * z / (4.0 * u)) / math.sqrt(4.0 * math.pi * u)
            res = integrate_subordination(g, t)
            expect = t / (math.pi * (t * t + z * z))
            assert res.converged
            assert res.value == pytest.approx(expect, abs=1e-12)


def test_uniform_grid_is_cell_centered():
    g = Grid1D.uniform(0.0, 1.0, 4, domain="half-line")
    assert np.allclose(g.nodes, [0.125, 0.375, 0.625, 0.875])
    assert g.step == pytest.approx(0.25)
    assert np.allclose(g.cell_widths(), 0.25)


def test_symmetric_grid_mirrors_positive_part():
    g = Grid1D.symmetric(2.0, 10)
    pos = Grid1D.uniform(0.0, 2.0, 10, domain="half-line")
    assert np.array_equal(g.positive_part().nodes, pos.nodes)
    assert np.array_equal(g.nodes, np.concatenate([-pos.nodes[::-1], pos.nodes]))


@pytest.mark.parametrize("a,b,n", [(0.0, 1.0, 4), (-30.0, 30.0, 10000), (0.0, 100.0, 30000)])
def test_uniformity_is_measured_from_the_nodes(a, b, n):
    # the wide fine grids' steps differ by up to 3.4e-12 relative, from the
    # rounding of their nodes alone; a graded grid is caught without a tag
    g = Grid1D.uniform(a, b, n)
    assert g.is_uniform and Grid1D.symmetric(b, n).is_uniform
    assert not Grid1D(a + (b - a) * ((g.nodes - a) / (b - a)) ** 1.5, domain="interval").is_uniform


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid1D(nodes=np.array([1.0, 0.5]), domain="real-line")
    with pytest.raises(DomainError):
        Grid1D(nodes=np.array([-1.0, 0.5]), domain="half-line")


def test_grid_nodes_are_a_read_only_copy():
    # kernel stacks are held by the grid, so its nodes must not change under them
    src = np.array([0.5, 1.0, 2.0])
    g = Grid1D(nodes=src, domain="half-line")
    src[:] = [3.0, 2.0, 1.0]
    assert np.array_equal(g.nodes, [0.5, 1.0, 2.0])
    with pytest.raises(ValueError):
        g.nodes[0] = 0.75


def test_grid_integrate_gaussian_mass():
    g = Grid1D.symmetric(10.0, 500)
    vals = np.exp(-g.nodes ** 2) / math.sqrt(math.pi)
    assert grid_integrate(vals, g) == pytest.approx(1.0, abs=1e-12)


def test_space_time_grid():
    st_grid = SpaceTimeGrid.uniform(horizon=2.0, n_time=8, space=Grid1D.symmetric(3.0, 12))
    assert st_grid.shape == (8, 24)
    assert st_grid.dt == pytest.approx(0.25)
    assert np.all(st_grid.time.nodes > 0.0) and np.all(st_grid.time.nodes < 2.0)


def test_space_time_grid_rejects_outside_nodes():
    with pytest.raises(DomainError):
        SpaceTimeGrid(time=Grid1D.uniform(0.0, 3.0, 6, domain="interval"),
                      space=Grid1D.symmetric(1.0, 4), horizon=2.0)


def test_gauss_legendre_exactness():
    x, w = gauss_legendre_rule(0.0, 2.0, 8)
    assert np.sum(w * x ** 7) == pytest.approx(2.0 ** 8 / 8.0, rel=1e-13)


def test_gauss_legendre_panels_are_the_per_panel_rules():
    edges = np.array([0.0, 1e-9, 0.3, 1.0, 2.5])
    x, w = gauss_legendre_panels(edges, 6)
    assert x.shape == w.shape == (24,)
    ref_x, ref_w = np.polynomial.legendre.leggauss(6)
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        panel = slice(6 * k, 6 * k + 6)
        assert np.allclose(x[panel], a + 0.5 * (b - a) * (ref_x + 1.0), rtol=1e-14, atol=0.0)
        assert np.allclose(w[panel], 0.5 * (b - a) * ref_w, rtol=1e-15, atol=0.0)
        assert np.array_equal(gauss_legendre_rule(a, b, 6)[0], x[panel])
    # degree 11 is exact on every panel, so on the union
    assert np.sum(w * x ** 11) == pytest.approx(2.5 ** 12 / 12.0, rel=1e-13)


def test_quadrature_rules_cannot_corrupt_later_calls():
    x, w = gauss_legendre_rule(0.0, 2.0, 8)
    x[:] = 0.0
    w[:] = 0.0
    x, w = gauss_legendre_rule(0.0, 2.0, 8)
    assert np.sum(w * x ** 7) == pytest.approx(2.0 ** 8 / 8.0, rel=1e-13)
    # Jacobi rules are cached and shared, so they cannot be written
    _, w = gauss_jacobi_rule(0.5, 1.0, 8)
    with pytest.raises(ValueError):
        w *= 2.0


def test_gauss_jacobi_endpoint_weight():
    # integral of theta^(2a-1) * theta^2 over (0, b), exact for smooth part
    alpha = 0.3
    beta = 2.0 * alpha - 1.0
    b = math.pi / 2.0
    x, w = gauss_jacobi_rule(beta, b, 12)
    expect = b ** (2.0 * alpha + 2.0) / (2.0 * alpha + 2.0)
    assert np.sum(w * x * x) == pytest.approx(expect, rel=1e-12)


def test_gauss_jacobi_pure_weight_mass():
    alpha = 0.9
    beta = 2.0 * alpha - 1.0
    b = math.pi / 2.0
    x, w = gauss_jacobi_rule(beta, b, 10)
    assert np.sum(w) == pytest.approx(b ** (2.0 * alpha) / (2.0 * alpha), rel=1e-12)
