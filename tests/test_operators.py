import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semireg import operators
from semireg.covering import build_covering, localized_operator_T, multiplicity_matrix
from semireg.errors import DomainError
from semireg.kernels import (
    KernelSetting,
    dt_poisson_bessel_piece,
    dt_poisson_kernel_grid,
    poisson_bessel_piece,
    poisson_kernel_grid,
)
from semireg.operators import (
    _d1d2,
    _family_bessel_piece,
    _family_difference,
    _family_for,
    _family_reflected,
    _kernel_tensors,
    _Term,
    _time_derivative,
    _weighted_apply,
    EstimateRecord,
    SampledField,
    apply_difference_local,
    apply_K,
    apply_K_global,
    apply_K_local,
    apply_K_minus,
    apply_K_plus,
    averaging_L,
    difference_kernel_time_integral,
    difference_local_pieces,
    domination_bessel_pieces,
    domination_global_hardy,
    domination_hermite_global,
    domination_hermite_local,
    domination_laguerre_local,
    domination_reflected_hardy,
    estimate_catalog,
    estimate_ratio_supremum,
    hardy_H0,
    hardy_Hinf,
    hardy_littlewood_M,
    local_region_matrix,
    log_kernel_A,
    maximal_P_star,
    maximal_W_star,
    smooth_test_field,
    sqrt_kernel_N,
)
from semireg.quad import Grid1D, SpaceTimeGrid

CL = KernelSetting("classical")
CL_HALF = KernelSetting("classical", diffusion=0.5)
BESSEL = KernelSetting("bessel", alpha=1.5)
HERMITE = KernelSetting("hermite")
LAGUERRE = KernelSetting("laguerre", alpha=1.5)


def half_grid(nt=48, nx=64, horizon=4.0, width=6.0):
    return SpaceTimeGrid.uniform(horizon, nt, Grid1D.uniform(0.0, width, nx, domain="half-line"))


def line_grid(nt=24, n_half=48, horizon=4.0, half_width=8.0):
    return SpaceTimeGrid.uniform(horizon, nt, Grid1D.symmetric(half_width, n_half))


def _hann_field(grid):
    """Field that vanishes on the first and last node of both axes, on any grid."""
    nt, nx = grid.shape
    return SampledField(grid, np.outer(np.hanning(nt), np.hanning(nx)), time_margin=1, space_margin=1)


# ---------------------------------------------------------------------------
# SampledField
# ---------------------------------------------------------------------------


class TestSampledField:
    def test_fiber_promotion(self):
        grid = half_grid(nt=8, nx=12, horizon=1.0)
        f = SampledField(grid, np.zeros((8, 12)))
        assert f.values.shape == (8, 12, 1)
        assert f.fiber_dim == 1

    def test_shape_mismatch_rejected(self):
        grid = half_grid(nt=8, nx=12, horizon=1.0)
        with pytest.raises(DomainError):
            SampledField(grid, np.zeros((8, 13)))

    def test_margin_violation_rejected(self):
        grid = half_grid(nt=8, nx=12, horizon=1.0)
        vals = np.ones((8, 12))
        with pytest.raises(DomainError):
            SampledField(grid, vals, time_margin=1)
        with pytest.raises(DomainError):
            SampledField(grid, vals, space_margin=1)

    def test_halfline_margin_only_checks_outer_edge(self):
        grid = half_grid(nt=8, nx=12, horizon=1.0)
        vals = np.ones((8, 12))
        vals[:, -2:] = 0.0
        f = SampledField(grid, vals, space_margin=2)
        assert f.space_margin == 2

    @pytest.mark.parametrize("space", [Grid1D.uniform(0.0, 6.0, 16, domain="half-line"),
                                       Grid1D.symmetric(8.0, 8)], ids=["half-line", "line"])
    def test_smooth_test_field_on_graded_space_grid(self, space):
        s = space.nodes
        r = (s - s[0]) / (s[-1] - s[0])
        graded = Grid1D(s[0] + (s[-1] - s[0]) * r * r, domain=space.domain)
        f = smooth_test_field(SpaceTimeGrid.uniform(1.0, 12, graded), mode=1)
        k = f.space_margin
        assert k >= 1
        assert np.all(f.values[:, -k:] == 0.0)
        if space.domain != "half-line":
            assert np.all(f.values[:, :k] == 0.0)
        assert f.l2_norm() > 0.0

    def test_l2_norm_of_ones(self):
        grid = half_grid(nt=8, nx=12, horizon=1.0, width=3.0)
        f = SampledField(grid, np.ones((8, 12)))
        assert f.l2_norm() == pytest.approx(math.sqrt(1.0 * 3.0), rel=1e-14)

    def test_positive_and_reflected_parts(self):
        grid = line_grid(nt=8, n_half=16, horizon=1.0, half_width=4.0)
        x = grid.space.nodes
        vals = np.broadcast_to(np.exp(-((x - 0.5) ** 2) * 4.0), (8, x.size)).copy()
        vals[:, :2] = 0.0
        vals[:, -2:] = 0.0
        f = SampledField(grid, vals, space_margin=2)
        fp = f.positive_part()
        fm = f.reflected_part()
        pos = x[x > 0]
        np.testing.assert_allclose(fp.grid.space.nodes, pos)
        np.testing.assert_array_equal(fp.values[0, :, 0], vals[0, x > 0])
        np.testing.assert_array_equal(fm.values[0, :, 0], vals[0, x < 0][::-1])

    def test_zero_extension_round_trip(self):
        line = Grid1D.symmetric(4.0, 16)
        grid = SpaceTimeGrid.uniform(1.0, 8, line.positive_part())
        f = smooth_test_field(grid)
        f0 = f.zero_extension(line)
        back = f0.positive_part()
        np.testing.assert_array_equal(back.values, f.values)
        assert np.all(f0.values[:, line.nodes < 0] == 0.0)

    def test_smooth_test_field_margins_are_honest(self):
        grid = half_grid(nt=16, nx=24, horizon=2.0)
        f = smooth_test_field(grid, fiber_dim=3, mode=2)
        assert f.time_margin >= 1 and f.space_margin >= 1
        assert np.all(f.values[: f.time_margin] == 0.0)
        assert np.all(f.values[-f.time_margin :] == 0.0)
        assert f.l2_norm() > 0.0


# ---------------------------------------------------------------------------
# Time differentiation
# ---------------------------------------------------------------------------


class TestTimeDerivative:
    def test_exact_on_cubic(self):
        t = np.linspace(0.0, 1.0, 9)
        vals = (t**3 - 2.0 * t)[:, None]
        out = _time_derivative(vals, t[1] - t[0])
        np.testing.assert_allclose(out[:, 0], 3.0 * t * t - 2.0, atol=1e-12)

    def test_fourth_order_convergence(self):
        errs = []
        for n in (32, 64):
            t = np.linspace(0.0, 1.0, n + 1)
            out = _time_derivative(np.sin(3.0 * t)[:, None], t[1] - t[0])
            errs.append(np.max(np.abs(out[:, 0] - 3.0 * np.cos(3.0 * t))))
        assert errs[0] / errs[1] > 14.0

    def test_needs_five_samples(self):
        with pytest.raises(DomainError):
            _time_derivative(np.zeros((4, 3)), 0.1)


# ---------------------------------------------------------------------------
# Core operator identities
# ---------------------------------------------------------------------------


class TestApplyK:
    def test_local_global_partition_is_exact(self):
        grid = line_grid(nt=16, n_half=24, horizon=2.0)
        f = smooth_test_field(grid, fiber_dim=2)
        full = apply_K(CL, f)
        loc = apply_K_local(CL, f)
        glob = apply_K_global(CL, f)
        scale = np.max(np.abs(full.values))
        assert np.max(np.abs(loc.values + glob.values - full.values)) <= 1e-12 * scale

    def test_partition_exact_on_half_line(self):
        grid = half_grid(nt=16, nx=24, horizon=2.0)
        f = smooth_test_field(grid)
        full = apply_K(BESSEL, f)
        both = apply_K_local(BESSEL, f).values + apply_K_global(BESSEL, f).values
        assert np.max(np.abs(both - full.values)) <= 1e-12 * np.max(np.abs(full.values))

    def test_reflection_decomposition(self):
        grid = line_grid(nt=16, n_half=24, horizon=2.0)
        f = smooth_test_field(grid, fiber_dim=2, mode=1)
        full = apply_K(CL, f)
        plus = apply_K_plus(CL, f.positive_part())
        minus = apply_K_minus(CL, f.reflected_part())
        mask = grid.space.nodes > 0
        resid = np.max(np.abs(full.values[:, mask] - (plus.values + minus.values)))
        assert resid <= 1e-10 * max(np.max(np.abs(full.values)), 1e-30)

    def test_zero_extension_matches_plus_part(self):
        line = Grid1D.symmetric(6.0, 24)
        grid = SpaceTimeGrid.uniform(2.0, 16, line.positive_part())
        f = smooth_test_field(grid)
        f0 = f.zero_extension(line)
        lifted = apply_K(CL, f0)
        plus = apply_K_plus(CL, f)
        mask = line.nodes > 0
        resid = np.max(np.abs(lifted.values[:, mask] - plus.values))
        assert resid <= 1e-10 * max(np.max(np.abs(plus.values)), 1e-30)

    def test_linearity_and_zero(self):
        grid = line_grid(nt=16, n_half=24, horizon=2.0)
        f = smooth_test_field(grid, mode=0)
        g = smooth_test_field(grid, mode=3)
        combo = f.with_values(2.0 * f.values - 0.25 * g.values)
        lhs = apply_K(CL, combo).values
        rhs = 2.0 * apply_K(CL, f).values - 0.25 * apply_K(CL, g).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        zero = f.with_values(np.zeros_like(f.values))
        assert np.max(np.abs(apply_K(CL, zero).values)) == 0.0

    def test_piece_split_telescopes(self):
        grid = half_grid(nt=24, nx=48, horizon=1.0)
        f = smooth_test_field(grid, mode=2)
        pieces = difference_local_pieces(1.5, f)
        total = sum(p.values for p in pieces.values())
        diff = apply_difference_local(BESSEL, CL, f)
        assert np.max(np.abs(total - diff.values)) <= 1e-9

    @pytest.mark.parametrize("setting", [HERMITE, LAGUERRE])
    def test_tensor_rows_equal_single_time_kernels(self, setting):
        grid = half_grid()
        stack, q = _kernel_tensors(_Term(setting), grid)
        x = grid.space.nodes
        X, Y = x[:, None], x[None, :]
        for row, lag in zip(stack, np.arange(2, grid.time.n) * grid.dt):
            one = dt_poisson_kernel_grid(setting, lag, X, Y)
            assert np.max(np.abs(row - one)) <= 1e-14 * np.max(np.abs(one))
        one = poisson_kernel_grid(setting, 1.5 * grid.dt, X, Y)
        assert np.max(np.abs(q - one)) <= 1e-14 * np.max(np.abs(one))

    @pytest.mark.parametrize("term, on_line", [
        (_Term(BESSEL), False),
        *[(_Term(BESSEL, piece), False) for piece in ("1", "11", "12", "13", "2")],
        (_Term(CL, reflected=True), True),
        (_Term(HERMITE, reflected=True), True),
    ], ids=["bessel", "piece1", "piece11", "piece12", "piece13", "piece2",
            "classical-reflected", "hermite-reflected"])
    def test_tensor_slices_are_symmetric_full_grid_kernels(self, term, on_line):
        grid = line_grid(nt=12, n_half=16) if on_line else half_grid(nt=16, nx=24)
        stack, q = _kernel_tensors(term, grid)
        x = grid.space.nodes
        X, Y = x[:, None], (-x if term.reflected else x)[None, :]
        a = BESSEL.alpha
        if term.piece is None:
            value = lambda t: poisson_kernel_grid(term.setting, t, X, Y)
            dt = lambda t: dt_poisson_kernel_grid(term.setting, t, X, Y)
        else:
            value = lambda t: poisson_bessel_piece(term.piece, a, t, X, Y)
            dt = lambda t: dt_poisson_bessel_piece(term.piece, a, t, X, Y)
        pairs = list(zip(stack, map(dt, np.arange(2, grid.time.n) * grid.dt)))
        pairs.append((q, value(1.5 * grid.dt)))
        for got, one in pairs:
            assert np.max(np.abs(got - one)) <= 1e-14 * np.max(np.abs(one))
            assert np.array_equal(got, got.T)

    def test_kernel_stacks_tell_grids_with_equal_ends_apart(self):
        uniform = half_grid(nt=12, nx=16, horizon=1.0)
        s = uniform.space.nodes
        # same size and end nodes, graded in between
        r = (s - s[0]) / (s[-1] - s[0])
        graded_space = Grid1D(s[0] + (s[-1] - s[0]) * r * r, domain="half-line")
        graded = SpaceTimeGrid(time=uniform.time, space=graded_space, horizon=uniform.horizon)
        apply_K(BESSEL, smooth_test_field(uniform))
        f = _hann_field(graded)
        cached = apply_K(BESSEL, f).values
        # a fresh, equal grid instance holds no stacks yet and builds its own
        twin = SpaceTimeGrid(time=graded.time, space=graded.space, horizon=graded.horizon)
        fresh = apply_K(BESSEL, _hann_field(twin)).values
        assert np.array_equal(cached, fresh)

    def test_stacks_are_freed_with_their_grid(self):
        grid = half_grid(nt=8, nx=12, horizon=1.0)
        f = smooth_test_field(grid)
        apply_K(BESSEL, f)
        stack = weakref.ref(_kernel_tensors(_Term(BESSEL), grid)[0])
        assert stack() is not None
        del grid, f
        gc.collect()
        assert stack() is None

    def test_restrictions_share_the_half_grid_and_its_stacks(self):
        f = smooth_test_field(line_grid(nt=12, n_half=12, horizon=1.0))
        plus, minus = f.positive_part(), f.reflected_part()
        assert plus.grid is minus.grid is f.positive_part().grid
        apply_K_plus(CL, plus)
        apply_K_minus(CL, minus)
        built = dict(plus.grid._stacks)
        assert len(built) == 2
        apply_K_plus(CL, f.positive_part())
        apply_K_minus(CL, f.reflected_part())
        assert plus.grid._stacks.keys() == built.keys()
        assert all(plus.grid._stacks[k] is v for k, v in built.items())

    def test_graded_time_grid_rejected(self):
        t = np.linspace(0.0, 1.0, 10)[1:-1] ** 1.5
        space = Grid1D.uniform(0.0, 3.0, 12, domain="half-line")
        grid = SpaceTimeGrid(time=Grid1D(t, domain="interval"), space=space, horizon=1.0)
        f = _hann_field(grid)
        with pytest.raises(DomainError):
            apply_K(BESSEL, f)

    def test_margin_gate(self):
        grid = half_grid(nt=8, nx=12, horizon=1.0)
        f = SampledField(grid, np.ones((8, 12)))
        with pytest.raises(DomainError):
            apply_K(BESSEL, f)

    @pytest.mark.parametrize("setting", [BESSEL, LAGUERRE])
    def test_short_time_grid_refused_before_any_tensor_is_built(self, setting):
        # the near-diagonal tail's fourth-order differences need 5 time rows
        grid = half_grid(nt=4, nx=12, horizon=1.0)
        f = SampledField(grid, np.outer(np.ones(4), np.hanning(12)), space_margin=1)
        with pytest.raises(DomainError):
            apply_K(setting, f)
        assert not grid._stacks

    def test_domain_checks(self):
        line = line_grid(nt=8, n_half=12, horizon=1.0)
        half = half_grid(nt=8, nx=12, horizon=1.0)
        f_line = smooth_test_field(line)
        f_half = smooth_test_field(half)
        with pytest.raises(DomainError):
            apply_K(BESSEL, f_line)
        with pytest.raises(DomainError):
            apply_K(HERMITE, f_half)
        with pytest.raises(DomainError):
            apply_K_plus(BESSEL, f_half)
        with pytest.raises(DomainError):
            apply_K_minus(CL, f_line)


def _dense_apply(family, f, weight=None):
    """Reference apply: the family's signed, weighted term sum materialized
    as whole stacks, contracted lag by lag with einsum in the (time, space,
    fiber) layout; the midpoint sum starts at lag 2, the tail at 1.5 dt."""
    dt, nt = f.grid.dt, f.n_time
    parts = [(sign, _kernel_tensors(term, f.grid)) for sign, term in family.terms]
    stack = sum(sign * s for sign, (s, _) in parts)
    q = sum(sign * v for sign, (_, v) in parts)
    diag = np.ones(f.n_space)
    if weight is not None:
        stack, q, diag = stack * weight, q * weight, np.diag(weight)
    wy = f.grid.space.cell_widths()[None, :, None]
    out = np.zeros_like(f.values)
    for m in range(2, nt):
        kern = stack[m - 2]
        out[m:] += dt * np.einsum("xy,tyf->txf", kern, wy * f.values[: nt - m], optimize=True)
    g = _time_derivative(f.values, dt)
    mass = family.mass * diag[None, :, None]
    delta = 1.5 * dt
    out += np.einsum("xy,tyf->txf", q, wy * f.values, optimize=True) - mass * f.values
    out -= (delta / 2.0) * (np.einsum("xy,tyf->txf", q, wy * g, optimize=True) - mass * g)
    return out


def _piece_families(alpha):
    # d1 is the whole kernel minus the obtuse half "2" and piece 11; k2 is "2"
    p = {s: _family_bessel_piece(alpha, s) for s in ("2", "11", "12", "13")}
    full = _family_for(KernelSetting("bessel", alpha=alpha))
    return {"d1": _family_difference(_family_difference(full, p["2"]), p["11"]),
            "d2": _family_difference(p["11"], p["12"]), "d3": p["13"], "k2": p["2"]}


def _local(f):
    return local_region_matrix(f.grid.space)


# apply kind -> (grid, the apply, its family, its weight matrix or None)
APPLY_KINDS = {
    "full-bessel": ("half", lambda f: apply_K(BESSEL, f), _family_for(BESSEL), None),
    "full-hermite": ("line", lambda f: apply_K(HERMITE, f), _family_for(HERMITE), None),
    "reflected": ("half", lambda f: apply_K_minus(CL, f), _family_reflected(CL), None),
    "local-hermite": ("line", lambda f: apply_K_local(HERMITE, f), _family_for(HERMITE), _local),
    "global-bessel": ("half", lambda f: apply_K_global(BESSEL, f), _family_for(BESSEL),
                      lambda f: 1.0 - _local(f)),
    "hermite-minus-classical": (
        "line", lambda f: apply_difference_local(HERMITE, CL_HALF, f),
        _family_difference(_family_for(HERMITE), _family_for(CL_HALF)), _local),
    "hermite-minus-laguerre": (
        "half", lambda f: apply_difference_local(HERMITE, LAGUERRE, f),
        _family_difference(_family_for(HERMITE), _family_for(LAGUERRE)), _local),
    **{f"bessel-{k}": ("half", lambda f, k=k: difference_local_pieces(1.5, f)[k], fam, _local)
       for k, fam in _piece_families(1.5).items()},
    "covering-multiplicity": (
        "line", lambda f: localized_operator_T(f, build_covering(8.0)), _family_for(CL_HALF),
        lambda f: multiplicity_matrix(build_covering(8.0), f.grid.space.nodes)),
}


def _kind_field(grid, fiber):
    # fiber components with distinct oscillations and amplitudes, so a
    # transposed or mixed-up fiber axis changes the output
    f = smooth_test_field(grid, fiber_dim=fiber, mode=1)
    return f.with_values(f.values * np.linspace(1.0, 2.0, fiber))


def _normwise(got, expect):
    return np.linalg.norm(got - expect) / np.linalg.norm(expect)


class TestApplyAgainstDenseReference:
    grids = {"half": half_grid(), "line": line_grid()}

    @pytest.mark.parametrize("fiber", [1, 5])
    @pytest.mark.parametrize("kind", list(APPLY_KINDS))
    def test_apply_matches_dense_reference(self, kind, fiber):
        grid, call, family, weight = APPLY_KINDS[kind]
        f = _kind_field(self.grids[grid], fiber)
        expect = _dense_apply(family, f, None if weight is None else weight(f))
        assert _normwise(call(f).values, expect) <= 1e-13

    @pytest.mark.parametrize("kind", list(APPLY_KINDS))
    def test_fiber_apply_is_stacked_scalar_applies(self, kind):
        grid, call, _, _ = APPLY_KINDS[kind]
        f = _kind_field(self.grids[grid], 5)
        stacked = np.concatenate(
            [call(f.with_values(f.values[:, :, k:k + 1])).values for k in range(5)], axis=2)
        assert _normwise(call(f).values, stacked) <= 1e-14

    @pytest.mark.parametrize("k", ["d1", "k2"])
    def test_piece_split_matches_angular_piece_one(self, k):
        # d1 and k2 through the angular piece 1: d1 = "1" - "11", k2 = whole - "1"
        one, eleven = (_family_bessel_piece(1.5, s) for s in ("1", "11"))
        old = {"d1": _family_difference(one, eleven),
               "k2": _family_difference(_family_for(BESSEL), one)}[k]
        f = _kind_field(self.grids["half"], 1)
        got = difference_local_pieces(1.5, f)[k].values
        expect = _weighted_apply(old, f, _local(f))
        assert _normwise(got, expect.values) <= 1e-11

    def test_family_mass_is_the_signed_sum_of_term_masses(self):
        # whole kernels and the pieces that tend to the identity carry mass 1;
        # reflected kernels, "13", "2" and every difference here carry 0
        assert _family_for(BESSEL).mass == _family_for(HERMITE).mass == 1
        assert _family_reflected(CL).mass == 0
        assert [_family_bessel_piece(1.5, s).mass for s in ("1", "11", "12", "13", "2")] \
            == [1, 1, 1, 0, 0]
        assert _family_difference(_family_for(HERMITE), _family_for(CL_HALF)).mass == 0
        assert {k: fam.mass for k, fam in _piece_families(1.5).items()} \
            == {"d1": 0, "d2": 0, "d3": 0, "k2": 0}

    @pytest.mark.parametrize("kind", ["full-bessel", "global-bessel", "bessel-d1"])
    def test_off_benchmark_shape(self, kind):
        _, call, family, weight = APPLY_KINDS[kind]
        f = _kind_field(half_grid(nt=12, nx=16, horizon=1.0), 3)
        expect = _dense_apply(family, f, None if weight is None else weight(f))
        assert _normwise(call(f).values, expect) <= 1e-13


class TestLocalRegion:
    def test_half_line_band(self):
        g = Grid1D.uniform(0.0, 4.0, 16, domain="half-line")
        w = local_region_matrix(g)
        x = g.nodes
        expect = ((x[None, :] > x[:, None] / 2) & (x[None, :] < 2 * x[:, None])).astype(float)
        np.testing.assert_array_equal(w, expect)
        assert np.all(np.diag(w) == 1.0)

    def test_line_window_diagonal(self):
        g = Grid1D.symmetric(4.0, 16)
        w = local_region_matrix(g)
        assert np.all(np.diag(w) == 1.0)
        assert w[0, -1] == 0.0

    def test_interval_rejected(self):
        g = Grid1D.uniform(0.0, 1.0, 8, domain="interval")
        with pytest.raises(DomainError):
            local_region_matrix(g)


# ---------------------------------------------------------------------------
# Scalar dominating operators
# ---------------------------------------------------------------------------


class TestScalarOperators:
    def setup_method(self):
        self.grid = Grid1D.uniform(0.0, 8.0, 512, domain="half-line")

    def test_hardy_H0_of_ones(self):
        out = hardy_H0(self.grid, np.ones(512))
        np.testing.assert_allclose(out, 1.0, atol=1e-13)

    def test_hardy_Hinf_log_profile(self):
        out = hardy_Hinf(self.grid, np.ones(512))
        x = self.grid.nodes
        window_edge = x[-1] + self.grid.step / 2
        for i in (10, 100):
            assert out[i] == pytest.approx(math.log(window_edge / x[i]), rel=1e-2)

    def test_averaging_indicator(self):
        x = self.grid.nodes
        chi = ((x > 0.5) & (x < 2.0)).astype(float)
        out = averaging_L(self.grid, chi)
        i = np.argmin(np.abs(x - 1.0))
        expect = (min(2 * x[i], 2.0) - max(x[i] / 2, 0.5)) / x[i]
        assert out[i] == pytest.approx(expect, abs=1e-12)

    def test_log_kernel_row_mass(self):
        # integral over (1/2, 2) of 1 + log(1/|1-z|) dz, scale invariant
        out = log_kernel_A(self.grid, np.ones(512))
        expect = 3.0 + math.log(2.0) / 2.0
        for xv in (1.0, 2.5):
            i = np.argmin(np.abs(self.grid.nodes - xv))
            assert out[i] == pytest.approx(expect, abs=1e-8)

    def test_sqrt_kernel_row_constant(self):
        # integral over (1/2, 2) of z^{-1/2} |1-z|^{-1/2} dz, scale invariant
        out = sqrt_kernel_N(self.grid, np.ones(512))
        for xv in (1.0, 3.0):
            i = np.argmin(np.abs(self.grid.nodes - xv))
            assert out[i] == pytest.approx(3.3335435008312437, abs=1e-9)

    def test_maximal_bounds(self):
        t = Grid1D.uniform(0.0, 1.0, 48, domain="interval").nodes
        h = np.sin(2 * np.pi * t) ** 3
        for star in (maximal_P_star, maximal_W_star):
            out = star(t, h)
            assert np.all(out >= np.abs(h) - 1e-14)
            assert np.max(out) <= np.max(np.abs(h)) + 1e-12

    def test_maximal_monotone(self):
        t = Grid1D.uniform(0.0, 1.0, 48, domain="interval").nodes
        small = np.abs(np.sin(2 * np.pi * t))
        large = small + 0.5
        assert np.all(maximal_P_star(t, large) >= maximal_P_star(t, small) - 1e-14)

    def test_hardy_littlewood_window_bounds(self):
        t = np.linspace(0.0, 1.0, 64)
        h = np.cos(3 * np.pi * t)
        out = hardy_littlewood_M(t, h)
        assert np.all(out >= np.abs(h) - 1e-14)
        assert np.max(out) <= np.max(np.abs(h)) + 1e-14

    def test_hardy_littlewood_needs_uniform_nodes(self):
        with pytest.raises(DomainError):
            hardy_littlewood_M(np.geomspace(0.1, 1.0, 16), np.ones(16))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
    def test_hardy_littlewood_homogeneous(self, a):
        t = np.linspace(0.0, 1.0, 32)
        h = np.sin(5 * t)
        np.testing.assert_allclose(
            hardy_littlewood_M(t, a * h), abs(a) * hardy_littlewood_M(t, h), atol=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=6))
    def test_maximal_subadditive(self, k):
        t = Grid1D.uniform(0.0, 1.0, 32, domain="interval").nodes
        f = np.sin((k + 1) * t)
        g = np.cos(2 * t + k)
        lhs = maximal_P_star(t, f + g)
        rhs = maximal_P_star(t, f) + maximal_P_star(t, g)
        assert np.all(lhs <= rhs + 1e-12)


# ---------------------------------------------------------------------------
# Operator norms
# ---------------------------------------------------------------------------


class TestOperatorNorm:
    def test_hardy_norm_approaches_two(self):
        nodes = np.geomspace(1e-7, 1e7, 400)
        grid = Grid1D(nodes, domain="half-line")
        root = np.sqrt(grid.cell_widths())
        mat = hardy_H0(grid, np.eye(grid.n)).T
        assert np.linalg.norm(root[:, None] * mat / root[None, :], 2) == pytest.approx(2.0, rel=5e-2)


# ---------------------------------------------------------------------------
# Estimate catalog
# ---------------------------------------------------------------------------

EXPECTED_SUPS = {
    "bessel-dt-global": 0.3448,
    "bessel-dt-piece2": 0.0827,
    "bessel-d1d2-log": 1.9342,
    "bessel-dt-piece13": 0.3186,
    "hermite-heat-decay": 1.2267,
    "hermite-heat-window": 39.10,
    "hermite-heat-difference": 0.3641,
    "hermite-dt-global": 0.5123,
    "laguerre-heat-gauss": 0.3920,
    "laguerre-regime-small-u-large-xi": 0.1894,
    "laguerre-regime-large-u-large-xi": 0.1676,
    "laguerre-regime-small-u-small-xi": 0.4727,
    "laguerre-regime-large-u-small-xi": 0.5834,
}


class TestEstimateCatalog:
    def test_catalog_shape(self):
        records = estimate_catalog()
        ids = [r.identifier for r in records]
        assert len(ids) == len(set(ids)) == 13
        assert set(EXPECTED_SUPS) == set(ids)

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            estimate_catalog(alpha=0.0)

    @pytest.mark.parametrize(
        "identifier",
        [
            "hermite-heat-decay",
            "hermite-heat-window",
            "hermite-heat-difference",
            "laguerre-heat-gauss",
            "laguerre-regime-small-u-small-xi",
        ],
    )
    def test_closed_form_records_match_frozen_sups(self, identifier):
        rec = next(r for r in estimate_catalog() if r.identifier == identifier)
        rep = estimate_ratio_supremum(rec, levels=2)
        assert rep.series["sup_ratio"][-1] == pytest.approx(EXPECTED_SUPS[identifier], rel=5e-2)
        assert rep.stabilized("sup_ratio", 0.10)

    def test_empty_region_raises(self):
        rec = next(
            r for r in estimate_catalog() if r.identifier == "laguerre-regime-large-u-large-xi"
        )
        with pytest.raises(DomainError):
            estimate_ratio_supremum(dataclasses.replace(rec, box=((4.2, 5.0), (0.05, 1.0), (0.05, 1.0))),
                                    levels=1)

    def test_negative_rhs_raises(self):
        bad = EstimateRecord(
            identifier="bad",
            lhs=lambda u, x, y: np.ones(np.broadcast(u, x, y).shape),
            rhs=lambda u, x, y: x - y,
            region=lambda u, x, y: np.ones(np.broadcast(u, x, y).shape, dtype=bool),
            anchor="negative dominating side",
            box=((0.1, 1.0), (0.0, 1.0), (0.0, 1.0)),
            base_shape=(3, 5, 5),
        )
        with pytest.raises(DomainError):
            estimate_ratio_supremum(bad, levels=1)

    @pytest.mark.parametrize("record", estimate_catalog(), ids=lambda r: r.identifier)
    def test_sweep_equals_full_grid_then_mask(self, record):
        got = estimate_ratio_supremum(record, levels=2).series
        expect = _full_grid_sweep(record, levels=2)
        for name, values in expect.items():
            np.testing.assert_allclose(got[name], values, rtol=1e-13, atol=0.0, err_msg=name)

    def test_sweep_evaluates_only_admissible_points(self):
        def region(u, x, y):
            return (y > x / 2.0) & (y < 2.0 * x)

        def lhs(u, x, y):
            if not np.all(region(u, x, y)):
                raise DomainError("evaluated outside the region")
            return np.exp(-((x - y) ** 2))

        rec = EstimateRecord(
            identifier="band-only",
            lhs=lhs,
            rhs=lambda u, x, y: np.ones_like(x),
            region=region,
            anchor="lhs defined on the band only",
            box=((0.1, 1.0), (0.05, 6.0), (0.05, 6.0)),
        )
        rep = estimate_ratio_supremum(rec, levels=2)
        assert rep.series["sup_ratio"] == [1.0, 1.0]

    def test_obtuse_piece_record_calls_the_public_kernel(self, monkeypatch):
        # the tracer wraps public kernel functions; the record's angular work
        # must pass through one of them to be counted as kernel work
        calls = []

        def traced(piece, *args):
            calls.append(piece)
            return dt_poisson_bessel_piece(piece, *args)

        monkeypatch.setattr(operators, "dt_poisson_bessel_piece", traced)
        rec = next(r for r in estimate_catalog() if r.identifier == "bessel-dt-piece2")
        rec.lhs(0.5, np.array([1.0, 1.2]), np.array([0.9, 1.5]))
        assert calls == ["2"]

    def test_d1d2_lhs_matches_four_piece_calls(self):
        rng = np.random.default_rng(17)
        alpha = 1.5
        u = 0.7
        x = rng.uniform(0.1, 5.0, 200)
        y = x * rng.uniform(0.55, 1.9, 200)

        def piece(p):
            return dt_poisson_bessel_piece(p, alpha, u, x, y)

        old = np.abs(piece("1") - piece("11")) + np.abs(piece("11") - piece("12"))
        np.testing.assert_allclose(_d1d2(alpha, u, x, y), old, rtol=1e-15, atol=0.0)


def _full_grid_sweep(record, levels):
    """Reference sweep: every kernel evaluated on the full x-y sample grid of a
    time slice, the region applied afterwards."""
    series = {k: [] for k in ("sup_ratio", "h_time", "h_space",
                              "argmax_t", "argmax_x", "argmax_y")}
    box, base = record.box, record.base_shape
    for level in range(levels):
        axes = []
        for pos, ((lo, hi), n) in enumerate(zip(box, base)):
            count = (n - 1) * 2**level + 1
            geometric = pos > 0 and lo > 0.0 and hi / lo >= 20.0
            axes.append(np.geomspace(lo, hi, count) if geometric else np.linspace(lo, hi, count))
        us, xs, ys = axes
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        sup, argmax = 0.0, (math.nan, math.nan, math.nan)
        for u in us:
            mask = np.broadcast_to(record.region(float(u), X, Y), X.shape)
            lhs = np.broadcast_to(record.lhs(float(u), X, Y), X.shape)[mask]
            rhs = np.broadcast_to(record.rhs(float(u), X, Y), X.shape)[mask]
            live = rhs > 0.0
            if live.any():
                ratio = lhs[live] / rhs[live]
                best = int(np.argmax(ratio))
                if ratio[best] > sup:
                    sup = float(ratio[best])
                    argmax = (float(u), float(X[mask][live][best]), float(Y[mask][live][best]))
        series["sup_ratio"].append(sup)
        series["h_time"].append((box[0][1] - box[0][0]) / (us.size - 1))
        series["h_space"].append((box[1][1] - box[1][0]) / (xs.size - 1))
        for axis, value in zip(("t", "x", "y"), argmax):
            series[f"argmax_{axis}"].append(value)
    return series


# ---------------------------------------------------------------------------
# Dominations
# ---------------------------------------------------------------------------

DOMINATION_BOUNDS = {
    "reflected": 0.75,
    "classical-global": 0.85,
    "bessel-global": 0.45,
    "hermite-global": 0.25,
    "hermite-local": 0.40,
    "laguerre-local": 0.12,
    "d3": 0.30,
    "d1d2": 0.15,
    "k2": 0.08,
}


@pytest.fixture(scope="module")
def half_field():
    return smooth_test_field(half_grid(), mode=2)


@pytest.fixture(scope="module")
def line_field():
    return smooth_test_field(line_grid(), mode=1)


class TestDominations:
    def test_reflected_hardy(self, half_field):
        vec = half_field.with_values(np.repeat(half_field.values, 2, axis=2))
        res = domination_reflected_hardy(vec)
        assert 0.0 < res.constant <= DOMINATION_BOUNDS["reflected"]

    def test_global_hardy_classical(self, half_field):
        res = domination_global_hardy(CL, half_field)
        assert 0.0 < res.constant <= DOMINATION_BOUNDS["classical-global"]

    def test_global_hardy_bessel(self, half_field):
        res = domination_global_hardy(BESSEL, half_field)
        assert 0.0 < res.constant <= DOMINATION_BOUNDS["bessel-global"]

    def test_hermite_global(self, line_field):
        res = domination_hermite_global(line_field)
        assert 0.0 < res.constant <= DOMINATION_BOUNDS["hermite-global"]

    def test_hermite_local(self, line_field):
        res = domination_hermite_local(line_field)
        assert 0.0 < res.constant <= DOMINATION_BOUNDS["hermite-local"]

    def test_laguerre_local(self, half_field):
        res = domination_laguerre_local(1.5, half_field)
        assert 0.0 < res.constant <= DOMINATION_BOUNDS["laguerre-local"]

    def test_bessel_piece_dominations(self, half_field):
        results = domination_bessel_pieces(1.5, half_field)
        for key in ("d3", "d1d2", "k2"):
            assert 0.0 < results[key].constant <= DOMINATION_BOUNDS[key]

    def test_difference_time_integral_envelope(self):
        x = 1.5
        y = np.linspace(0.8, 2.9, 33)
        y = y[np.abs(y - x) > 1e-9]
        lhs = difference_kernel_time_integral(1.5, x, y)
        env = np.sqrt(y / np.abs(x - y)) / y
        assert float(np.max(lhs / env)) <= 0.45
