"""Critical-radius ball covering of the line and the block-localized singular
operator it carries.

The construction is the 1-D greedy chain: starting from the origin, each next
center sits overlap_factor * rho(previous) to the right (mirrored to the
negative axis), so consecutive balls overlap and the union covers any finite
window.  Dilated balls then have a finite, window-independent overlap count,
which is the second covering property.

The localized operator T freezes the kernel's y-integral to the dilated block
of each ball containing x.  Because blocks are counted with multiplicity, T
rides through the same weighted kernel application as the local/global split,
with the integer-valued block matrix as the weight.
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
from .quad import gauss_legendre_rule

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


def comparability_constant(n: int = 40001, span: float = 60.0) -> float:
    """Measured sup of the two-sided radius ratio over touching points."""
    x = np.linspace(-span, span, n)
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
    dilation: float
    overlap_bound: int

    @property
    def count(self) -> int:
        return int(self.centers.size)

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "dilation": self.dilation,
            "overlap_bound": self.overlap_bound,
            "count": self.count,
            "centers": [float(c) for c in self.centers],
            "radii": [float(r) for r in self.radii],
        }


def _max_overlap(centers: np.ndarray, radii: np.ndarray, dilation: float) -> int:
    """Exhaustive max cardinality of dilated-ball intersections, chunked."""
    worst = 0
    reach = dilation * radii
    for start in range(0, centers.size, 512):
        sl = slice(start, start + 512)
        gap = np.abs(centers[sl, None] - centers[None, :])
        hits = gap < (reach[sl, None] + reach[None, :])
        worst = max(worst, int(hits.sum(axis=1).max()))
    return worst


def build_covering(window: float, dilation: float = 3.0, overlap_factor: float = 0.7) -> Covering:
    """Greedy symmetric chain of critical-radius balls covering [-window, window]."""
    if not window > 0.0:
        raise DomainError(f"window must be > 0, got {window}")
    if not dilation >= 1.0:
        raise DomainError(f"dilation must be >= 1, got {dilation}")
    # radii shrink by at most 3/4 per step, so any factor below 7/4 keeps
    # consecutive balls overlapping; stay well inside
    if not 0.0 < overlap_factor <= 1.5:
        raise DomainError("overlap_factor must lie in (0, 1.5]")
    xs = [0.0]
    while xs[-1] <= window:
        xs.append(xs[-1] + overlap_factor * critical_radius(xs[-1]))
    right = np.asarray(xs)
    centers = np.concatenate([-right[:0:-1], right])
    radii = critical_radius(centers)
    m = _max_overlap(centers, radii, dilation)
    return Covering(centers=centers, radii=radii, window=float(window),
                    dilation=float(dilation), overlap_bound=m)


def uncovered_points(cov: Covering, spacing: float = 1e-3) -> int:
    """Number of grid points of [-window, window] missed by every ball."""
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


def multiplicity_matrix(cov: Covering, nodes, comparability: float = COMPARABILITY_C0) -> np.ndarray:
    """V(x, y) = number of balls with x inside and y inside the dilated block."""
    x = np.asarray(nodes, dtype=float)
    if np.max(np.abs(x)) > cov.window:
        raise DomainError("nodes stick out of the covered window")
    c = cov.centers[:, None]
    r = cov.radii[:, None]
    in_ball = (np.abs(x[None, :] - c) < r).astype(float)
    in_block = (np.abs(x[None, :] - c) < (comparability + 1.0) * r).astype(float)
    return in_ball.T @ in_block


def _classical(diffusion: float) -> KernelSetting:
    return KernelSetting("classical", diffusion=diffusion)


def localized_operator_T(f: SampledField, cov: Covering, diffusion: float = 0.5,
                         delta_steps: int = 2) -> SampledField:
    """Sum over balls of (x in ball) times the kernel integral over the
    dilated block; multiplicity counted, as in the block decomposition."""
    if f.grid.space.domain != "real-line":
        raise DomainError("the covering lives on the whole line")
    V = multiplicity_matrix(cov, f.grid.space.nodes)
    return _weighted_apply(_family_for(_classical(diffusion)), f, V, delta_steps)


def covering_difference(f: SampledField, cov: Covering, diffusion: float = 0.5,
                        delta_steps: int = 2) -> SampledField:
    """T minus the locally restricted operator, in one weighted application."""
    if f.grid.space.domain != "real-line":
        raise DomainError("the covering lives on the whole line")
    V = multiplicity_matrix(cov, f.grid.space.nodes)
    W = V - local_region_matrix(f.grid.space)
    return _weighted_apply(_family_for(_classical(diffusion)), f, W, delta_steps)


def domination_covering_difference(f: SampledField, cov: Covering,
                                   diffusion: float = 0.5) -> DominationResult:
    """|T - K^loc| against the spatial maximal function of the time-maximal
    input; the weight mismatch lives in an annulus of width comparable to the
    critical radius, which is what the maximal average absorbs."""
    d = covering_difference(f, cov, diffusion=diffusion)
    lhs = d.fiber_norm()
    rhs = hardy_littlewood_M(f.grid.space.nodes, _time_maximal_field(f))
    return _ratio_constant("covering-difference-maximal", lhs, rhs)


def region_sandwich_check(cov: Covering, nodes, comparability: float = COMPARABILITY_C0):
    """Grid check of the two block-region inclusions.

    Returns (missing, excess): points of the local region outside the block
    union, and block-union points outside the local region that escape the
    comparability annulus.  Both must be zero.
    """
    x = np.asarray(nodes, dtype=float)
    V = multiplicity_matrix(cov, x, comparability)
    union = V > 0.0
    gap = np.abs(x[:, None] - x[None, :])
    rho = critical_radius(x)[:, None]
    local = gap < rho
    missing = int(np.count_nonzero(local & ~union))
    outer = gap <= comparability * (comparability + 2.0) * rho
    excess = int(np.count_nonzero(union & ~local & ~outer))
    return missing, excess


def block_sum_bound(f: SampledField, cov: Covering, diffusion: float = 0.5,
                    delta_steps: int = 2) -> DominationResult:
    """Squared norm of T(f) against the sum over blocks of the squared norms
    of the unrestricted operator applied to the block slices of f."""
    if f.grid.space.domain != "real-line":
        raise DomainError("the covering lives on the whole line")
    nodes = f.grid.space.nodes
    family = _family_for(_classical(diffusion))
    V = multiplicity_matrix(cov, nodes)
    lhs = _weighted_apply(family, f, V, delta_steps).l2_norm() ** 2
    total = 0.0
    for c, r in zip(cov.centers, cov.radii):
        col = np.abs(nodes - c) < (COMPARABILITY_C0 + 1.0) * r
        if not col.any():
            continue
        sliced = f.with_values(f.values * col[None, :, None])
        total += _weighted_apply(family, sliced, None, delta_steps).l2_norm() ** 2
    return _ratio_constant("covering-block-sum",
                           np.asarray([lhs]), np.asarray([total]))


# ---------------------------------------------------------------------------
# Rescaling identity
# ---------------------------------------------------------------------------


def rescaling_threshold(support: float = 1.0, window: float = 2.0) -> float:
    """Smallest scale from which the support of the rescaled input sits inside
    the local region: (support+window)/R < rho(x/R) for |x| <= window."""
    s = support + window
    # plateau branch needs R > 2s; outer branch needs R^2 > s (R + window)
    return max(2.0 * s, 0.5 * (s + math.sqrt(s * s + 4.0 * s * window)))


def _poisson_average(diffusion: float, u: np.ndarray, x: float, phi,
                     support: float, cut: float | None) -> np.ndarray:
    """S(u) = integral of P_u(x-y) phi(y) dy over (-support, support),
    optionally intersected with |y-x| < cut; panel quadrature refined
    geometrically toward y = x so small u stay resolved."""
    lo, hi = -support, support
    if cut is not None:
        lo, hi = max(lo, x - cut), min(hi, x + cut)
    if not hi > lo:
        return np.zeros_like(u)
    edges = {lo, hi}
    if lo < x < hi:
        for j in range(28):
            step = 1e-7 * 2.0**j
            if x - step > lo:
                edges.add(x - step)
            if x + step < hi:
                edges.add(x + step)
    cuts = np.array(sorted(edges))
    total = np.zeros_like(u)
    for a, b in zip(cuts, cuts[1:]):
        pts, wts = gauss_legendre_rule(float(a), float(b), 10)
        kern = poisson_classical(u[:, None], x - pts[None, :], diffusion)
        total += kern @ (wts * phi(pts))
    return total


def _k_separable(diffusion, t, x, w, wprime, phi, support, cut) -> float:
    """K on a separable input w(s) phi(y) through the time-integrated form
    K = -phi(x) w(t) + int_0^t (P_u phi)(x) w'(t-u) du."""
    acc = 0.0
    for a, b in ((0.0, 0.5 * t), (0.5 * t, t)):
        for j in range(12):
            lo = a + (b - a) * j / 12.0
            hi = a + (b - a) * (j + 1) / 12.0
            pts, wts = gauss_legendre_rule(lo, hi, 8)
            s = _poisson_average(diffusion, pts, x, phi, support, cut)
            acc += float(np.dot(wts, s * wprime(t - pts)))
    return acc - phi(x) * w(t)


def rescaling_identity_check(R: float, support: float = 1.0, window: float = 2.0,
                             horizon: float = 1.0, diffusion: float = 0.5) -> float:
    """Max probe residual between K(f)(t, x) and the locally restricted
    operator applied to the time/space rescaled input at (t/R, x/R).

    The input is the separable profile sin^2 in time times a cosine bump
    supported in |y| <= support; probes run over |x| <= window.
    """
    if not R >= rescaling_threshold(support, window):
        raise DomainError(
            f"scale {R} below the threshold {rescaling_threshold(support, window):.3f}")
    h = horizon

    def w(s):
        return np.sin(math.pi * s / h) ** 2

    def wprime(s):
        return (math.pi / h) * np.sin(2.0 * math.pi * s / h)

    def phi(y):
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(y) <= support, np.cos(0.5 * math.pi * y / support) ** 2, 0.0)

    worst = 0.0
    for t in (0.45 * h, 0.85 * h):
        for x in (0.0, 0.6 * support, 0.5 * (support + window), window):
            lhs = _k_separable(diffusion, t, x, w, wprime, phi, support, None)
            rhs = _k_separable(
                diffusion, t / R, x / R,
                lambda s: w(R * s), lambda s: R * wprime(R * s),
                lambda y: phi(R * y),
                support / R, critical_radius(x / R),
            )
            worst = max(worst, abs(lhs - rhs))
    return worst
