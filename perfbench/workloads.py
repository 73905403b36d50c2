"""The benchmark's three workloads, driven through semireg's public functions.

A workload object is built from a seed; building it is the set-up (inputs,
reference load and, for warm-vector-apply, the tensor build).  operations()
returns one pass as a list of Op: a call into semireg and the check of its
result.  The seed picks only input contents (field modes, fiber mixes, test
functions, oracle sample points); grids, settings and the operation mix are
fixed, so the cost of a pass does not depend on it.

Pinned bounds below are copies of the tier-1 test constants, not imports, so
the benchmark keeps checking the same numbers if the tests move.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from semireg import covering, kernels, operators, quad, specfun, spectral_oracle, transference
from semireg.operators import SampledField, smooth_test_field
from semireg.quad import Grid1D, SpaceTimeGrid

import spec

ALPHA = spec.ALPHA
CL = kernels.KernelSetting("classical")
CL_HALF = kernels.KernelSetting("classical", diffusion=0.5)
BESSEL = kernels.KernelSetting("bessel", alpha=ALPHA)
HERMITE = kernels.KernelSetting("hermite")
LAGUERRE = kernels.KernelSetting("laguerre", alpha=ALPHA)

# tests/test_operators.py DOMINATION_BOUNDS
DOMINATION_BOUNDS = {
    "reflected": 0.75, "classical-global": 0.85, "bessel-global": 0.45,
    "hermite-global": 0.25, "hermite-local": 0.40, "laguerre-local": 0.12,
    "d3": 0.30, "d1d2": 0.15, "k2": 0.08,
}
# tests/test_operators.py EXPECTED_SUPS, checked to 5% with growth <= 10%
EXPECTED_SUPS = {
    "bessel-dt-global": 0.3448, "bessel-dt-piece2": 0.0827, "bessel-d1d2-log": 1.9342,
    "bessel-dt-piece13": 0.3186, "hermite-heat-decay": 1.2267, "hermite-heat-window": 39.10,
    "hermite-heat-difference": 0.3641, "hermite-dt-global": 0.5123,
    "laguerre-heat-gauss": 0.3920, "laguerre-regime-small-u-large-xi": 0.1894,
    "laguerre-regime-large-u-large-xi": 0.1676, "laguerre-regime-small-u-small-xi": 0.4727,
    "laguerre-regime-large-u-small-xi": 0.5834,
}
SUP_REL_TOL = 5e-2
SUP_GROWTH = 0.10
# tests/test_transference.py: conjugation order, isometry, density
CHART_MIN_ORDER = 1.8
ISOMETRY_TOL = 1e-8
DENSITY_TOL = 1e-12
# covering.py's first pinned results, measured on the 24 x 96 line grid:
# the overlap bound is the same for every window, the measured radius
# ratio lies just under its analytic supremum 5/4, and the two constants
# stay below these bounds for every field mode the seed can draw (measured
# at most 2.54 for the covering difference and 0.90 for the block sum)
COVERING_WINDOWS = (8.0, 16.0, 40.0)
COVERING_OVERLAP = 18
COMPARABILITY_RANGE = (1.2495, 1.25)
COVERING_DOMINATION_BOUND = 3.0
BLOCK_SUM_BOUND = 1.0
RESCALING_TOL = 1e-12
# the local + global split of a warm apply must reproduce apply_K to rounding
PARTITION_TOL = 1e-12
# the 200-node window (0, 8) cuts off the tail of P_t f, which limits the
# sqrt-generator agreement to 0.06-0.7% for t in (0.5, 1) (12 seeds measured);
# a wrong normalization or multiplier is off by O(1)
SQRT_TOL = 2e-2
# kernel error gate, relative to each family's largest reference value
KERNEL_TOL = 1e-4

FIBERS = (1, 4, 16)
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


@dataclass(frozen=True)
class Op:
    """One call into semireg; check(result, earlier) lists failure causes."""

    name: str
    run: Callable
    check: Callable


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def make_grid(name: str, tiny: bool) -> SpaceTimeGrid:
    g = spec.GRIDS[name]
    n_time, n_space = (12, 16) if tiny else (g["n_time"], g["n_space"])
    if name == "half":
        space = Grid1D.uniform(g["lo"], g["hi"], n_space, domain="half-line")
    else:
        space = Grid1D.symmetric(g["hi"], n_space // 2)
    return SpaceTimeGrid.uniform(g["horizon"], n_time, space)


def mixed_field(grid: SpaceTimeGrid, fiber: int, rng) -> SampledField:
    """A smooth test field whose fiber components are mixed by a random
    orthogonal matrix and scaled by a random amplitude."""
    base = smooth_test_field(grid, fiber_dim=fiber, mode=int(rng.integers(0, 4)))
    q, r = np.linalg.qr(rng.standard_normal((fiber, fiber)))
    q = q * np.sign(np.diag(r))
    amp = rng.uniform(0.5, 2.0)
    return base.with_values(amp * np.einsum("txf,fg->txg", base.values, q))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _nonfinite(label: str, *arrays) -> list:
    return [f"{label}: non-finite output"] if any(
        not np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays) else []


def _domination(label: str, res, bound: float) -> list:
    causes = _nonfinite(label, res.lhs, res.rhs, res.constant)
    if not 0.0 < res.constant <= bound:
        causes.append(f"{label}: constant {res.constant:.4g} outside (0, {bound}]")
    return causes


def dominated(key: str) -> Callable:
    return lambda res, _: _domination(key, res, DOMINATION_BOUNDS[key])


def _pieces(res, _) -> list:
    return [c for key in ("d3", "d1d2", "k2")
            for c in _domination(key, res[key], DOMINATION_BOUNDS[key])]


def _finite_field(res, _) -> list:
    return _nonfinite("apply", res.values)


def _sweep(res, _) -> list:
    sups = res.series["sup_ratio"]
    causes = _nonfinite(res.identifier, sups)
    pinned = EXPECTED_SUPS[res.identifier]
    if abs(sups[-1] - pinned) > SUP_REL_TOL * pinned:
        causes.append(f"{res.identifier}: sup {sups[-1]:.4g} not within 5% of {pinned}")
    if not res.stabilized("sup_ratio", SUP_GROWTH):
        causes.append(f"{res.identifier}: sup grew {res.max_growth('sup_ratio'):.3f} per level")
    return causes


def _conjugation(rep, _) -> list:
    causes = _nonfinite(rep.slug, rep.residuals)
    r = rep.residuals
    if not all(a > b for a, b in zip(r, r[1:])):
        causes.append(f"{rep.slug}: residuals not decreasing {r}")
    if not rep.min_order() > CHART_MIN_ORDER:
        causes.append(f"{rep.slug}: order {rep.min_order():.3f} <= {CHART_MIN_ORDER}")
    return causes


def below(label: str, tol: float) -> Callable:
    def check(value, _):
        if not (math.isfinite(value) and value < tol):
            return [f"{label}: {value:.3g} not below {tol}"]
        return []
    return check


# ---------------------------------------------------------------------------
# kernel references through the operators
# ---------------------------------------------------------------------------

FAMILY_CALLS = {
    "classical-reflected": lambda f: operators.apply_K_minus(CL, f),
    "classical-global": lambda f: operators.apply_K_global(CL, f),
    "bessel-global": lambda f: operators.apply_K_global(BESSEL, f),
    "hermite-minus-laguerre-local": lambda f: operators.apply_difference_local(HERMITE, LAGUERRE, f),
    "piece-d1": lambda f: operators.difference_local_pieces(ALPHA, f)["d1"],
    "piece-d2": lambda f: operators.difference_local_pieces(ALPHA, f)["d2"],
    "piece-d3": lambda f: operators.difference_local_pieces(ALPHA, f)["d3"],
    "piece-k2": lambda f: operators.difference_local_pieces(ALPHA, f)["k2"],
    "hermite-global": lambda f: operators.apply_K_global(HERMITE, f),
    "hermite-minus-classical-local": lambda f: operators.apply_difference_local(HERMITE, CL_HALF, f),
}


def family_error(name: str, ref: dict, grid: SpaceTimeGrid) -> float:
    """Normwise error of one kernel family read off the operator's impulse
    response: a unit input at time row 0 and space column j gives, at rows
    past the near-diagonal stencil, dt * w_j * (family kernel)(t, x, y_j)."""
    dt = grid.dt
    x = grid.space.nodes
    w = grid.space.cell_widths()
    by_col = {}
    for row, i, col, t, xr, yr, value, _ in ref["points"]:
        if abs(x[i] - xr) > 1e-12 or abs(x[col] - yr) > 1e-12 or abs(row * dt - t) > 1e-12:
            raise ValueError(f"{name}: reference point ({t}, {xr}, {yr}) is not on the grid")
        by_col.setdefault(col, []).append((row, i, value))
    worst = scale = 0.0
    for col, pts in by_col.items():
        vals = np.zeros(grid.shape + (1,))
        vals[0, col, 0] = 1.0
        out = FAMILY_CALLS[name](SampledField(grid, vals, time_margin=0, space_margin=1)).values
        for row, i, value in pts:
            got = out[row, i, 0] / (dt * w[col])
            worst = max(worst, abs(got - value))
            scale = max(scale, abs(value))
    return worst / scale


KERNEL_CALLS = {
    "dtP:classical1": lambda t, x, y: kernels.dt_poisson_classical(t, x - y),
    "dtP:classical0.5": lambda t, x, y: kernels.dt_poisson_classical(t, x - y, diffusion=0.5),
    "dtP:bessel": lambda t, x, y: kernels.dt_poisson_bessel(ALPHA, t, x, y),
    "dtP:piece1": lambda t, x, y: kernels.dt_poisson_bessel_piece("1", ALPHA, t, x, y),
    "dtP:piece11": lambda t, x, y: kernels.dt_poisson_bessel_piece("11", ALPHA, t, x, y),
    "dtP:piece12": lambda t, x, y: kernels.dt_poisson_bessel_piece("12", ALPHA, t, x, y),
    "dtP:piece13": lambda t, x, y: kernels.dt_poisson_bessel_piece("13", ALPHA, t, x, y),
    "dtP:hermite": lambda t, x, y: kernels.dt_poisson_kernel_grid(HERMITE, t, x, y),
    "dtP:laguerre": lambda t, x, y: kernels.dt_poisson_kernel_grid(LAGUERRE, t, x, y),
    "heat:bessel": lambda t, x, y: kernels.heat_bessel(ALPHA, t, x, y),
    "heat:hermite": lambda t, x, y: kernels.heat_hermite(t, x, y),
    "heat:laguerre": lambda t, x, y: kernels.heat_laguerre(ALPHA, t, x, y),
}


def kernel_error(name: str, points: list) -> float:
    """Normwise error of one kernel evaluated directly at its reference points."""
    fn = KERNEL_CALLS[name]
    got = np.array([float(fn(t, x, y)) for t, x, y, _, _ in points])
    ref = np.array([p[3] for p in points])
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    grids: dict = {}

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        self.tiny = tiny
        self.refs = load_references()

    def operations(self) -> list:
        raise NotImplementedError

    def kernel_errors(self) -> dict:
        """Untimed: normwise kernel error per family; empty on tiny grids,
        which have no references."""
        return {}

    def _family_errors(self, names: tuple) -> dict:
        if self.tiny:
            return {}
        fams = self.refs["families"]
        return {n: family_error(n, fams[n], self.grids[fams[n]["grid"]]) for n in names}


class ColdDominations(Workload):
    """Every domination check on the tier-1 grids with empty kernel caches."""

    name = "cold-dominations"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.grids = {k: make_grid(k, tiny) for k in ("half", "line")}
        # half-line mode 0 has a reflected-Hardy constant of 0.78, above the
        # tier-1 bound 0.75 that was pinned on mode 2, so it is not drawn
        self.half_field = smooth_test_field(self.grids["half"], mode=int(self.rng.integers(1, 4)))
        self.line_field = smooth_test_field(self.grids["line"], mode=int(self.rng.integers(0, 4)))

    def operations(self) -> list:
        hf, lf = self.half_field, self.line_field
        return [
            Op("reflected-hardy", lambda: operators.domination_reflected_hardy(hf),
               dominated("reflected")),
            Op("global-hardy-classical", lambda: operators.domination_global_hardy(CL, hf),
               dominated("classical-global")),
            Op("global-hardy-bessel", lambda: operators.domination_global_hardy(BESSEL, hf),
               dominated("bessel-global")),
            Op("laguerre-local", lambda: operators.domination_laguerre_local(ALPHA, hf),
               dominated("laguerre-local")),
            Op("bessel-pieces", lambda: operators.domination_bessel_pieces(ALPHA, hf), _pieces),
            Op("hermite-global", lambda: operators.domination_hermite_global(lf),
               dominated("hermite-global")),
            Op("hermite-local", lambda: operators.domination_hermite_local(lf),
               dominated("hermite-local")),
        ]

    def kernel_errors(self) -> dict:
        return self._family_errors(tuple(spec.FAMILIES))


class WarmVectorApply(Workload):
    """Cached-tensor applies of vector-valued fields at fibers 1, 4 and 16."""

    name = "warm-vector-apply"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.grids = {k: make_grid(k, tiny) for k in ("half", "line")}
        self.fields = {f: (mixed_field(self.grids["half"], f, self.rng),
                           mixed_field(self.grids["line"], f, self.rng)) for f in FIBERS}
        # tensor build is set-up: one apply per kernel family fills the cache
        hf, lf = self.fields[1]
        operators.apply_K(BESSEL, hf)
        operators.apply_K(HERMITE, lf)
        operators.apply_difference_local(HERMITE, CL_HALF, lf)

    def operations(self) -> list:
        ops = []
        for fiber in FIBERS:
            hf, lf = self.fields[fiber]
            for tag, setting, f in (("bessel", BESSEL, hf), ("hermite", HERMITE, lf)):
                full, local = f"K-{tag}-f{fiber}", f"K_local-{tag}-f{fiber}"
                ops += [
                    Op(full, lambda s=setting, f=f: operators.apply_K(s, f), _finite_field),
                    Op(local, lambda s=setting, f=f: operators.apply_K_local(s, f), _finite_field),
                    Op(f"K_global-{tag}-f{fiber}",
                       lambda s=setting, f=f: operators.apply_K_global(s, f),
                       lambda res, done, a=full, b=local: _partition(res, done[a], done[b])),
                ]
            ops.append(Op(f"diff_local-hermite-classical-f{fiber}",
                          lambda f=lf: operators.apply_difference_local(HERMITE, CL_HALF, f),
                          _finite_field))
        return ops

    def kernel_errors(self) -> dict:
        return self._family_errors(("bessel-global", "hermite-global",
                                    "hermite-minus-classical-local"))


def _partition(glob, full, local) -> list:
    causes = _nonfinite("apply", glob.values)
    if full is None or local is None:
        return causes + ["partition: full or local apply failed"]
    scale = float(np.max(np.abs(full.values)))
    gap = float(np.max(np.abs(local.values + glob.values - full.values)))
    if gap > PARTITION_TOL * scale:
        causes.append(f"partition: |local + global - full| = {gap:.3g} > {PARTITION_TOL} * {scale:.3g}")
    return causes


class PointwiseChecks(Workload):
    """Estimate sweeps, charts, covering and oracle cross-checks: many small
    kernel slices, no operator tensors."""

    name = "pointwise-checks"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        rng = self.rng
        self.levels = 1 if tiny else 3
        self.records = operators.estimate_catalog(ALPHA)
        self.entries = transference.chart_entries(ALPHA)
        self.chart_tests = [self._chart_test(e, rng) for e in self.entries]
        self.iso_seeds = [int(s) for s in rng.integers(0, 2**31, len(self.entries))]
        self.density_points = [
            rng.uniform(-3.0, 3.0, 10) if e.domain == "real-line"
            else np.exp(rng.uniform(math.log(0.1), math.log(9.0), 10)) for e in self.entries]
        self.line = make_grid("line", tiny)
        self.cover_field = smooth_test_field(self.line, mode=int(rng.integers(0, 4)))
        self.rescale = covering.rescaling_threshold() * rng.uniform(1.0, 1.5)
        # oracle inputs: x^alpha times signed Gaussian bumps on (0, 8)
        self.n_oracle = 60 if tiny else 200
        self.bumps = (rng.uniform(1.2, 2.8, 3), rng.uniform(0.5, 0.9, 3),
                      rng.uniform(0.5, 1.5, 3) * rng.choice([-1.0, 1.0], 3))
        self.t_hankel, self.t_sqrt = rng.uniform(0.5, 1.0, 2)
        self.hankel_x = rng.uniform(0.5, 3.0, 3)
        self.series_pts = [(rng.uniform(0.8, 2.0), *rng.uniform(-2.0, 2.0, 2)) for _ in range(3)]
        self.half_pts = [(rng.uniform(0.8, 2.0), *rng.uniform(0.3, 3.0, 2)) for _ in range(3)]
        self.heat_pts = [(rng.uniform(0.3, 2.0), *rng.uniform(0.3, 3.0, 2)) for _ in range(3)]

    @staticmethod
    def _chart_test(entry, rng) -> Callable:
        # the default test shape of check_conjugation, moved, widened and
        # phase-shifted; tier-1's residual floor 1e-3 was pinned for the
        # default shape only (these reach 1.1e-3), so the gate is the order
        z = transference.target_nodes(entry, transference.source_grid(entry, 160))
        span = z.max() - z.min()
        zc = 0.5 * (z.min() + z.max()) + rng.uniform(-0.05, 0.05) * span
        width = span / 6.0 * rng.uniform(1.0, 1.1)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return lambda s: np.exp(-(((s - zc) / width) ** 2)) * (1.0 + 0.3 * np.sin(1.5 * s + phase))

    def _f(self, x):
        c, w, a = self.bumps
        return x ** ALPHA * sum(ai * np.exp(-(((x - ci) / wi) ** 2)) for ci, wi, ai in zip(c, w, a))

    def operations(self) -> list:
        ops = [Op(f"sweep:{r.identifier}",
                  lambda r=r: operators.estimate_ratio_supremum(r, levels=self.levels), _sweep)
               for r in self.records]
        for e, test, seed, pts in zip(self.entries, self.chart_tests, self.iso_seeds,
                                      self.density_points):
            ops += [
                Op(f"conjugation:{e.slug}",
                   lambda e=e, test=test: transference.check_conjugation(e, levels=3, test=test),
                   _conjugation),
                Op(f"isometry:{e.slug}", lambda e=e, s=seed: transference.isometry_defect(e, seed=s),
                   below(f"isometry {e.slug}", ISOMETRY_TOL)),
                Op(f"density:{e.slug}",
                   lambda e=e, p=pts: transference.measure_density_check(e, points=p),
                   below(f"density {e.slug}", DENSITY_TOL)),
            ]
        cov = {}

        def build(window):
            cov[window] = covering.build_covering(window)
            return cov[window], covering.uncovered_points(cov[window])

        for window in COVERING_WINDOWS:
            ops.append(Op(f"covering-build-w{window:g}", lambda w=window: build(w), _covered))
        w0 = COVERING_WINDOWS[0]
        nodes = self.line.space.nodes
        f = self.cover_field
        ops += [
            Op("covering-sandwich", lambda: covering.region_sandwich_check(cov[w0], nodes),
               lambda res, _: [] if tuple(res) == (0, 0) else [f"sandwich {res} != (0, 0)"]),
            Op("covering-comparability", covering.comparability_constant, _comparability),
            Op("covering-domination", lambda: covering.domination_covering_difference(f, cov[w0]),
               lambda res, _: _domination("covering-domination", res, COVERING_DOMINATION_BOUND)),
            Op("covering-block-sum", lambda: covering.block_sum_bound(f, cov[w0]),
               lambda res, _: _domination("covering-block-sum", res, BLOCK_SUM_BOUND)),
            Op("covering-rescaling", lambda: covering.rescaling_identity_check(self.rescale),
               below("rescaling residual", RESCALING_TOL)),
            Op("oracle-hankel", self._hankel, _hankel_agree),
            Op("oracle-sqrt-generator", self._sqrt_generator, _sqrt_agree),
            Op("oracle-hermite-series", self._hermite_series, _series_agree),
            Op("oracle-laguerre-series", self._laguerre_series, _series_agree),
            Op("oracle-laguerre-heat-series", self._laguerre_heat, _series_agree),
        ]
        return ops

    def _oracle_grid(self) -> Grid1D:
        return Grid1D.uniform(0.0, 8.0, self.n_oracle, domain="half-line")

    def _hankel(self):
        """Hankel-route Poisson semigroup against angular-kernel quadrature."""
        x = self._oracle_grid().nodes
        fx = self._f(x)
        out = spectral_oracle.hankel_poisson_oracle(ALPHA, self.t_hankel, x, fx)
        edges = np.linspace(0.0, 12.0, 61)
        rules = [quad.gauss_legendre_rule(float(a), float(b), 16) for a, b in zip(edges, edges[1:])]
        y = np.concatenate([r[0] for r in rules])
        wy = np.concatenate([r[1] for r in rules])
        idx = [int(np.argmin(np.abs(x - x0))) for x0 in self.hankel_x]
        direct = [float(np.sum(wy * kernels.poisson_bessel(ALPHA, self.t_hankel, x[i], y) * self._f(y)))
                  for i in idx]
        return out[idx], np.asarray(direct), float(np.max(np.abs(fx)))

    def _sqrt_generator(self):
        """sqrt(L) P_t f against -d/dt P_t f, both from the angular kernel."""
        grid = self._oracle_grid()
        x = grid.nodes
        w = grid.cell_widths()
        X, Y = x[:, None], x[None, :]
        fx = self._f(x)
        u = (kernels.poisson_bessel(ALPHA, self.t_sqrt, X, Y) * w) @ fx
        v = -(kernels.dt_poisson_bessel(ALPHA, self.t_sqrt, X, Y) * w) @ fx
        sq = spectral_oracle.sqrt_generator_apply(BESSEL, grid, u)
        interior = (x > 0.3) & (x < 6.0)
        return sq[interior], v[interior]

    def _hermite_series(self):
        rows = []
        for t, x, y in self.series_pts:
            n = spectral_oracle.poisson_series_terms(t, 1e-10)
            ser = spectral_oracle.hermite_poisson_series(t, x, y, n, index_cap=n + 1)
            sub = kernels.poisson_via_subordination(HERMITE, t, x, y)
            fixed = float(kernels.poisson_kernel_grid(HERMITE, t, x, y))
            rows.append((ser.value, sub.value, sub.converged, fixed))
        return rows

    def _laguerre_series(self):
        rows = []
        for t, x, y in self.half_pts:
            n = spectral_oracle.poisson_series_terms(t, 1e-10)
            tab = specfun.laguerre_function_table(n - 1, ALPHA, np.array([x, y]), index_cap=n + 1)
            lam = 2.0 * np.arange(n) + ALPHA + 0.5
            ser = float(np.sum((np.exp(-t * np.sqrt(lam)) * tab[:, 0] * tab[:, 1])[::-1]))
            sub = kernels.poisson_via_subordination(LAGUERRE, t, x, y)
            fixed = float(kernels.poisson_kernel_grid(LAGUERRE, t, x, y))
            rows.append((ser, sub.value, sub.converged, fixed))
        return rows

    def _laguerre_heat(self):
        rows = []
        for t, x, y in self.heat_pts:
            ser = spectral_oracle.laguerre_heat_series(ALPHA, t, x, y, 60).value
            closed = float(kernels.heat_laguerre(ALPHA, t, x, y))
            rows.append((ser, closed, True, closed))
        return rows

    def kernel_errors(self) -> dict:
        return {name: kernel_error(name, pts) for name, pts in self.refs["kernels"].items()}


def _covered(res, _) -> list:
    cov, missed = res
    causes = []
    if missed != 0:
        causes.append(f"window {cov.window:g}: {missed} uncovered points")
    if cov.overlap_bound != COVERING_OVERLAP:
        causes.append(f"window {cov.window:g}: overlap bound {cov.overlap_bound} != {COVERING_OVERLAP}")
    return causes


def _comparability(value, _) -> list:
    lo, hi = COMPARABILITY_RANGE
    return [] if lo <= value <= hi else [f"comparability constant {value:.6f} outside [{lo}, {hi}]"]


def _hankel_agree(res, _) -> list:
    oracle, direct, scale = res
    gap = float(np.max(np.abs(oracle - direct)))
    causes = _nonfinite("hankel", oracle, direct)
    if not gap <= 1e-6 * scale:
        causes.append(f"hankel oracle off by {gap:.3g} (scale {scale:.3g})")
    return causes


def _sqrt_agree(res, _) -> list:
    sq, v = res
    gap = float(np.max(np.abs(sq - v)))
    scale = float(np.max(np.abs(v)))
    causes = _nonfinite("sqrt generator", sq, v)
    if not gap <= SQRT_TOL * scale:
        causes.append(f"sqrt generator off by {gap:.3g} (scale {scale:.3g})")
    return causes


def _series_agree(rows, _) -> list:
    causes = []
    for series, sub, converged, fixed in rows:
        if not converged:
            causes.append(f"adaptive subordination not converged at value {sub:.6g}")
        if not abs(series - sub) <= 1e-9 * max(1.0, abs(sub)):
            causes.append(f"series {series:.12g} != subordination {sub:.12g}")
        if not abs(fixed - sub) <= 1e-6 * abs(sub):
            causes.append(f"fixed rule {fixed:.12g} != adaptive {sub:.12g}")
    return causes


WORKLOADS = {cls.name: cls for cls in (ColdDominations, WarmVectorApply, PointwiseChecks)}
