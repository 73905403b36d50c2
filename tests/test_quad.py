import math

import numpy as np
import pytest

from semireg.errors import DomainError, NonConvergenceError
from semireg.quad import (
    Grid1D,
    QuadratureRule,
    SpaceTimeGrid,
    gauss_jacobi_rule,
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


def test_subordination_direct_path_agrees():
    g = lambda u: math.exp(-1.0 / (4.0 * u)) / math.sqrt(4.0 * math.pi * u)
    a = integrate_subordination(g, 0.8, substitute=True)
    b = integrate_subordination(g, 0.8, substitute=False)
    assert a.value == pytest.approx(b.value, abs=1e-10)


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


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid1D(nodes=np.array([1.0, 0.5]), domain="real-line", spacing="uniform")
    with pytest.raises(DomainError):
        Grid1D(nodes=np.array([-1.0, 0.5]), domain="half-line", spacing="uniform")


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
