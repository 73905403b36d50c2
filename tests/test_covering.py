import numpy as np
import pytest

from semireg.covering import (
    COMPARABILITY_C0,
    build_covering,
    comparability_constant,
    localized_operator_T,
    region_sandwich_check,
    rescaling_identity_check,
    rescaling_threshold,
    uncovered_points,
)
from semireg.errors import DomainError
from semireg.kernels import KernelSetting
from semireg.operators import apply_K, smooth_test_field
from semireg.quad import Grid1D, SpaceTimeGrid

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


def test_region_sandwich(cov8):
    assert region_sandwich_check(cov8, LINE.space.nodes) == (0, 0)


def test_comparability_constant_below_analytic_sup():
    c = comparability_constant()
    assert 1.2495 <= c <= 1.25 < COMPARABILITY_C0


def test_build_covering_rejects_bad_input():
    for kwargs in ({"window": 0.0}, {"window": 8.0, "dilation": 0.5},
                   {"window": 8.0, "overlap_factor": 2.0}):
        with pytest.raises(DomainError):
            build_covering(**kwargs)


@pytest.mark.parametrize("factor", [1.0, 1.4])
def test_rescaling_identity_above_threshold(factor):
    assert rescaling_identity_check(factor * rescaling_threshold()) <= 1e-12


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
