"""Critical-radius ball covering of the line and the block-localized singular
operator it carries.

The construction is the 1-D greedy chain: starting from the origin, each next
center sits 0.7 * rho(previous) to the right (mirrored to the negative axis),
so consecutive balls overlap and the union covers any finite window.  Balls
dilated by 3 then have a finite, window-independent overlap count, which is
the second covering property.

The localized operator T freezes the kernel's y-integral to the dilated block
(radius (C0 + 1) rho, C0 = COMPARABILITY_C0) of each ball containing x.
Because blocks are counted with multiplicity, T rides through the same
weighted kernel application as the local/global split, with the
integer-valued block matrix as the weight.  Its kernel is the classical one
with c = 1/2, the oscillator's small-time companion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import KernelSetting, critical_radius, poisson_classical
from .operators import (
    DominationResult,
    SampledField,
    _family_for,
    _ratio_constant,
    _time_maximal_field,
    _weighted_apply,
    hardy_littlewood_M,
    local_region_matrix,
)
from .quad import Grid1D, gauss_legendre_panels

__all__ = [
    "COMPARABILITY_C0",
    "Covering",
    "comparability_constant",
    "build_covering",
    "uncovered_points",
    "multiplicity_matrix",
    "localized_operator_T",
    "covering_difference",
    "domination_covering_difference",
    "region_sandwich_check",
    "block_sum_bound",
    "rescaling_threshold",
    "rescaling_identity_check",
]

# sup of rho(x)/rho(y) over |x-y| <= rho(x) is 5/4, attained at x = 1 where
# rho(1)/rho(1.5) = 0.5/0.4; 1.5 keeps a margin and feeds the dilated-block
# geometry
COMPARABILITY_C0 = 1.5

# the overlap bound is counted for balls dilated by 3
_DILATION = 3.0
# centers step by 0.7 rho: radii shrink by at most 3/4 per step, so any
# factor below 7/4 keeps consecutive balls overlapping; 0.7 stays well inside
_OVERLAP_FACTOR = 0.7
# the classical model, c = 1/2: the oscillator's small-time companion
_MODEL = KernelSetting("classical", diffusion=0.5)


def comparability_constant() -> float:
    """Measured sup of the two-sided radius ratio over touching points,
    on 40,001 equally spaced x in [-60, 60]."""
    x = np.linspace(-60.0, 60.0, 40001)
    rx = critical_radius(x)
    worst = 1.0
    for side in (-1.0, 1.0):
        ry = critical_radius(x + side * rx)
        worst = max(worst, float(np.max(rx / ry)), float(np.max(ry / rx)))
    return worst


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Covering:
    """Ball centers, their radii, the window they cover, and the measured
    overlap bound of the dilated family."""

    centers: np.ndarray
    radii: np.ndarray
    window: float
    overlap_bound: int

    @property
    def count(self) -> int:
        return int(self.centers.size)


def _max_overlap(centers: np.ndarray, radii: np.ndarray) -> int:
    """Exact max cardinality of dilated-ball intersections on sorted centers:
    pairs (i, i + d) count at both ends for d = 1, 2, ... until every gap at
    offset d clears reach_i + max reach, past which gaps only grow."""
    reach = _DILATION * radii
    hits = np.ones(centers.size, dtype=int)
    for d in range(1, centers.size):
        gap = centers[d:] - centers[:-d]
        meet = gap < reach[:-d] + reach[d:]
        hits[:-d] += meet
        hits[d:] += meet
        if np.all(gap >= reach[:-d] + reach.max()):
            break
    return int(hits.max())


def build_covering(window: float) -> Covering:
    """Greedy symmetric chain of critical-radius balls covering [-window,
    window], centers 0.7 rho apart, with the overlap bound of the balls
    dilated by 3."""
    if not window > 0.0:
        raise DomainError(f"window must be > 0, got {window}")
    xs = [0.0]
    while xs[-1] <= window:
        xs.append(xs[-1] + _OVERLAP_FACTOR * critical_radius(xs[-1]))
    right = np.asarray(xs)
    centers = np.concatenate([-right[:0:-1], right])
    radii = critical_radius(centers)
    m = _max_overlap(centers, radii)
    return Covering(centers=centers, radii=radii, window=float(window), overlap_bound=m)


def uncovered_points(cov: Covering) -> int:
    """Number of points of [-window, window], 1e-3 apart, missed by every ball."""
    spacing = 1e-3
    pts = np.arange(-cov.window, cov.window + 0.5 * spacing, spacing)
    idx = np.searchsorted(cov.centers, pts)
    covered = np.zeros(pts.size, dtype=bool)
    # any ball reaching a point is at most a few chain steps from the nearest
    # center: radii vary by less than a factor 2 over one radius
    for offset in range(-16, 17):
        k = np.clip(idx + offset, 0, cov.count - 1)
        covered |= np.abs(pts - cov.centers[k]) < cov.radii[k]
    return int(np.size(pts) - np.count_nonzero(covered))


# ---------------------------------------------------------------------------
# Block-localized operator
# ---------------------------------------------------------------------------


def _dilated_blocks(cov: Covering, x: np.ndarray) -> np.ndarray:
    """(balls, nodes) mask of the nodes inside each ball's dilated block, of
    radius (COMPARABILITY_C0 + 1) rho."""
    return np.abs(x[None, :] - cov.centers[:, None]) < (COMPARABILITY_C0 + 1.0) * cov.radii[:, None]


def multiplicity_matrix(cov: Covering, nodes) -> np.ndarray:
    """V(x, y) = number of balls with x inside and y inside the dilated
    block, of radius (COMPARABILITY_C0 + 1) rho."""
    x = np.asarray(nodes, dtype=float)
    if np.max(np.abs(x)) > cov.window:
        raise DomainError("nodes stick out of the covered window")
    in_ball = (np.abs(x[None, :] - cov.centers[:, None]) < cov.radii[:, None]).astype(float)
    return in_ball.T @ _dilated_blocks(cov, x).astype(float)


def localized_operator_T(f: SampledField, cov: Covering) -> SampledField:
    """Sum over balls of (x in ball) times the classical (c = 1/2) kernel
    integral over the dilated block; multiplicity counted, as in the block
    decomposition."""
    if f.grid.space.domain != "real-line":
        raise DomainError("the covering lives on the whole line")
    V = multiplicity_matrix(cov, f.grid.space.nodes)
    return _weighted_apply(_family_for(_MODEL), f, V)


def covering_difference(f: SampledField, cov: Covering) -> SampledField:
    """T minus the locally restricted operator, in one weighted application."""
    if f.grid.space.domain != "real-line":
        raise DomainError("the covering lives on the whole line")
    V = multiplicity_matrix(cov, f.grid.space.nodes)
    W = V - local_region_matrix(f.grid.space)
    return _weighted_apply(_family_for(_MODEL), f, W)


def domination_covering_difference(f: SampledField, cov: Covering) -> DominationResult:
    """|T - K^loc| against the spatial maximal function of the time-maximal
    input; the weight mismatch lives in an annulus of width comparable to the
    critical radius, which is what the maximal average absorbs."""
    d = covering_difference(f, cov)
    lhs = d.fiber_norm()
    rhs = hardy_littlewood_M(f.grid.space, _time_maximal_field(f))
    return _ratio_constant("covering-difference-maximal", lhs, rhs)


def region_sandwich_check(cov: Covering, nodes):
    """Grid check of the two block-region inclusions.

    Returns (missing, excess): points of the local region outside the block
    union, and block-union points outside the local region that escape the
    comparability annulus |x - y| <= C0 (C0 + 2) rho(x), C0 =
    COMPARABILITY_C0.  Both must be zero.
    """
    x = np.asarray(nodes, dtype=float)
    union = multiplicity_matrix(cov, x) > 0.0
    local = local_region_matrix(Grid1D(x, domain="real-line")) > 0.0
    missing = int(np.count_nonzero(local & ~union))
    gap = np.abs(x[:, None] - x[None, :])
    outer = gap <= COMPARABILITY_C0 * (COMPARABILITY_C0 + 2.0) * critical_radius(x)[:, None]
    excess = int(np.count_nonzero(union & ~local & ~outer))
    return missing, excess


def block_sum_bound(f: SampledField, cov: Covering) -> DominationResult:
    """Squared norm of T(f) against the sum over blocks of the squared norms
    of the unrestricted operator applied to the block slices of f."""
    lhs = localized_operator_T(f, cov).l2_norm() ** 2
    # every block slice of every fiber component side by side on the fiber
    # axis of one field: one apply, and the squared norm of its output is
    # the sum of the blocks' squared norms
    blocks = _dilated_blocks(cov, f.grid.space.nodes)
    blocks = blocks[blocks.any(axis=1)]
    nt, nx, fib = f.values.shape
    sliced = f.values[:, :, None, :] * blocks.T[None, :, :, None]
    batch = f.with_values(sliced.reshape(nt, nx, blocks.shape[0] * fib))
    total = _weighted_apply(_family_for(_MODEL), batch).l2_norm() ** 2
    return _ratio_constant("covering-block-sum",
                           np.asarray([lhs]), np.asarray([total]))


# ---------------------------------------------------------------------------
# Rescaling identity
# ---------------------------------------------------------------------------


# the rescaled input is a bump supported in |y| <= _SUPPORT, on the time
# horizon 1, probed over |x| <= _WINDOW
_SUPPORT = 1.0
_WINDOW = 2.0


def rescaling_threshold() -> float:
    """Smallest scale from which the support of the rescaled input sits inside
    the local region: (support+window)/R < rho(x/R) for |x| <= window, with
    support 1 and probe window 2."""
    s = _SUPPORT + _WINDOW
    # plateau branch needs R > 2s; outer branch needs R^2 > s (R + window)
    return max(2.0 * s, 0.5 * (s + math.sqrt(s * s + 4.0 * s * _WINDOW)))


def _poisson_average(u: np.ndarray, x: float, phi, support: float, cut: float | None) -> np.ndarray:
    """S(u) = integral of P_u(x-y) phi(y) dy over (-support, support),
    optionally intersected with |y-x| < cut; panel quadrature refined
    geometrically toward the interval's point nearest x, so small u stay resolved."""
    lo, hi = -support, support
    if cut is not None:
        lo, hi = max(lo, x - cut), min(hi, x + cut)
    if not hi > lo:
        return np.zeros_like(u)
    near = min(max(x, lo), hi)
    steps = 1e-7 * 2.0 ** np.arange(28)
    cuts = np.concatenate([[lo, hi], near - steps[near - steps > lo], near + steps[near + steps < hi]])
    pts, wts = gauss_legendre_panels(np.unique(cuts), 10)
    return poisson_classical(u[:, None], x - pts[None, :], _MODEL.diffusion) @ (wts * phi(pts))


def _k_separable(t, x, w, wprime, phi, support, cut) -> float:
    """K on a separable input w(s) phi(y) through the time-integrated form
    K = -phi(x) w(t) + int_0^t (P_u phi)(x) w'(t-u) du, on 24 equal panels."""
    u, wts = gauss_legendre_panels(t * np.arange(25) / 24.0, 8)
    s = _poisson_average(u, x, phi, support, cut)
    return float(np.dot(wts, s * wprime(t - u)) - phi(x) * w(t))


def rescaling_identity_check(R: float) -> float:
    """Max probe residual between K(f)(t, x) and the locally restricted
    operator applied to the time/space rescaled input at (t/R, x/R).

    K is the classical operator with c = 1/2.  The input is the separable
    profile sin^2(pi s) on the horizon 1 times the cosine bump cos^2(pi y/2)
    supported in |y| <= 1; probes run over t in {0.45, 0.85} and x in {0,
    0.6, 1.5, 2}, inside the probe window |x| <= 2.
    """
    if not R >= rescaling_threshold():
        raise DomainError(f"scale {R} below the threshold {rescaling_threshold():.3f}")

    def w(s):
        return np.sin(math.pi * s) ** 2

    def wprime(s):
        return math.pi * np.sin(2.0 * math.pi * s)

    def phi(y):
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(y) <= _SUPPORT, np.cos(0.5 * math.pi * y) ** 2, 0.0)

    worst = 0.0
    for t in (0.45, 0.85):
        for x in (0.0, 0.6, 1.5, _WINDOW):
            lhs = _k_separable(t, x, w, wprime, phi, _SUPPORT, None)
            rhs = _k_separable(
                t / R, x / R,
                lambda s: w(R * s), lambda s: R * wprime(R * s),
                lambda y: phi(R * y),
                _SUPPORT / R, critical_radius(x / R),
            )
            worst = max(worst, abs(lhs - rhs))
    return worst
