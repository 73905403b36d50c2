"""Discretized space-time operators built on the Poisson kernels.

The central map sends a sampled forcing field f to

    (K f)(t, x) = integral over s in (0, t) of  dP/dt_{t-s} applied to f(s),

discretized on a SpaceTimeGrid with time step dt.  The time integral is
split at t - delta, delta = 1.5 dt: lags 2 dt, 3 dt, ... sum the analytic
d/dt kernels with the midpoint rule, while the near-diagonal tail uses the
cancellation rewrite

    tail = (Q_delta f - m f) - (delta/2) (Q_delta g - m g),    g = df/dt,

which needs kernel *values* (never derivatives) at the single small time
delta; m is the kernel family's mass at the diagonal (1 for a full
semigroup kernel, 0 for reflected kernels and kernel differences).  Local,
global, reflected, and difference variants all reduce to one weighted
application with a different (x, y) weight matrix and kernel family.

The module also hosts the scalar dominating operators from the comparison
arguments (Hardy, maximal, band-averaging, log- and square-root kernels),
and the catalog of pointwise kernel estimates checked as sup-ratios.  Each
dominating operator takes the Grid1D it samples on.  The space operators
act along the last axis of any array, so a batch of time rows is one call;
the maximal functions P* and W* act along axis 0.  The Hardy averages read
one cumulative integral, and the log and square-root kernels one band rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .kernels import (
    KernelSetting,
    critical_radius,
    dt_poisson_bessel,
    dt_poisson_bessel_piece,
    dt_poisson_kernel_grid,
    heat_classical,
    heat_hermite,
    heat_laguerre,
    poisson_bessel_piece,
    poisson_classical,
    poisson_kernel_grid,
    _subordinate,
)
from .quad import Grid1D, SpaceTimeGrid, gauss_legendre_panels, gauss_legendre_rule

__all__ = [
    "SampledField",
    "smooth_test_field",
    "apply_K",
    "apply_K_plus",
    "apply_K_minus",
    "apply_K_local",
    "apply_K_global",
    "apply_difference_local",
    "difference_local_pieces",
    "local_region_matrix",
    "hardy_H0",
    "hardy_Hinf",
    "averaging_L",
    "log_kernel_A",
    "sqrt_kernel_N",
    "maximal_P_star",
    "maximal_W_star",
    "hardy_littlewood_M",
    "EstimateRecord",
    "SweepReport",
    "estimate_catalog",
    "estimate_ratio_supremum",
    "DominationResult",
    "domination_reflected_hardy",
    "domination_global_hardy",
    "domination_hermite_global",
    "domination_hermite_local",
    "domination_laguerre_local",
    "domination_bessel_pieces",
    "difference_kernel_time_integral",
]

# margin slices must be this small relative to the field's sup norm
SUPPORT_TOL = 1e-12

# the midpoint sum starts at lag _FIRST_LAG * dt; the near-diagonal tail
# covers the rest, with its value kernel at delta = (_FIRST_LAG - 1/2) dt
_FIRST_LAG = 2


# ---------------------------------------------------------------------------
# Sampled space-time fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledField:
    """Function samples on a space-time grid with a finite-dimensional fiber.

    values has shape (n_time, n_space, fiber).  A 2-D array is promoted to
    fiber dimension 1.  time_margin / space_margin declare how many leading
    and trailing slices along each axis vanish; operators that extend the
    field by zero rely on these declarations, so they are validated here.
    """

    grid: SpaceTimeGrid
    values: np.ndarray
    time_margin: int = 0
    space_margin: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 2:
            v = v[:, :, None]
        if v.ndim != 3:
            raise DomainError("field values must have shape (time, space[, fiber])")
        object.__setattr__(self, "values", v)
        if v.shape[:2] != self.grid.shape:
            raise DomainError(
                f"value shape {v.shape[:2]} does not match grid shape {self.grid.shape}"
            )
        if v.shape[2] < 1:
            raise DomainError("fiber dimension must be >= 1")
        if self.time_margin < 0 or self.space_margin < 0:
            raise DomainError("margins must be nonnegative")
        if 2 * self.time_margin >= v.shape[0] or 2 * self.space_margin >= v.shape[1]:
            raise DomainError("margins leave no interior samples")
        tol = SUPPORT_TOL * (1.0 + float(np.max(np.abs(v))))
        m, k = self.time_margin, self.space_margin
        if m and float(np.max(np.abs(v[:m]))) > tol or m and float(np.max(np.abs(v[-m:]))) > tol:
            raise DomainError("values do not vanish on the declared time margin")
        if k:
            # the origin end of a half-line grid is a natural boundary, not a
            # window truncation, so only the outer edge carries the margin
            edge = float(np.max(np.abs(v[:, -k:])))
            if self.grid.space.domain != "half-line":
                edge = max(edge, float(np.max(np.abs(v[:, :k]))))
            if edge > tol:
                raise DomainError("values do not vanish on the declared space margin")

    @property
    def n_time(self) -> int:
        return self.values.shape[0]

    @property
    def n_space(self) -> int:
        return self.values.shape[1]

    @property
    def fiber_dim(self) -> int:
        return self.values.shape[2]

    def with_values(self, values, time_margin=None, space_margin=None) -> "SampledField":
        return SampledField(
            grid=self.grid,
            values=values,
            time_margin=self.time_margin if time_margin is None else time_margin,
            space_margin=self.space_margin if space_margin is None else space_margin,
        )

    def fiber_norm(self) -> np.ndarray:
        """Pointwise Euclidean norm over the fiber, shape (n_time, n_space)."""
        return np.sqrt(np.sum(self.values * self.values, axis=2))

    def l2_norm(self) -> float:
        """Space-time L2 norm of the fiber norm (midpoint-cell quadrature)."""
        wt = self.grid.time.cell_widths()
        wx = self.grid.space.cell_widths()
        sq = np.sum(self.values * self.values, axis=2)
        return math.sqrt(float(wt @ sq @ wx))

    def positive_part(self) -> "SampledField":
        """Restriction f_+ to the positive space nodes of a symmetric grid."""
        mask = self.grid.space.nodes > 0.0
        half = self.grid.positive_half
        return SampledField(half, self.values[:, mask], self.time_margin, max(self.space_margin, 1))

    def reflected_part(self) -> "SampledField":
        """f_-(t, x) = f(t, -x) on the positive nodes of a symmetric grid."""
        nodes = self.grid.space.nodes
        if not np.allclose(nodes, -nodes[::-1]):
            raise DomainError("reflected_part needs a symmetric space grid")
        mask = nodes > 0.0
        half = self.grid.positive_half
        return SampledField(
            half, self.values[:, ::-1][:, mask], self.time_margin, max(self.space_margin, 1)
        )

    def zero_extension(self, space: Grid1D) -> "SampledField":
        """f_0: extend a half-line field by zero onto a symmetric grid."""
        nodes = space.nodes
        pos = nodes[nodes > 0.0]
        if pos.size != self.n_space or not np.allclose(pos, self.grid.space.nodes):
            raise DomainError("target grid's positive part must match the field's grid")
        out = np.zeros((self.n_time, nodes.size, self.fiber_dim))
        out[:, nodes > 0.0] = self.values
        grid = SpaceTimeGrid(time=self.grid.time, space=space, horizon=self.grid.horizon)
        return SampledField(grid, out, self.time_margin, max(self.space_margin, 1))


def smooth_test_field(grid: SpaceTimeGrid, fiber_dim: int = 1, mode: int = 0) -> SampledField:
    """A smooth compactly supported field for sweeps and property tests.

    sin^2 windows over the middle 80% of the time interval and the middle
    70% of the space window, times an oscillation selected by mode; fiber
    components get shifted phases.
    """
    t = grid.time.nodes
    x = grid.space.nodes
    tw = _window(t, 0.1 * grid.horizon, 0.9 * grid.horizon)
    a, b = x[0], x[-1]
    lo, hi = a + 0.15 * (b - a), b - 0.15 * (b - a)
    xw = _window(x, lo, hi)
    width = hi - lo
    values = np.empty((t.size, x.size, fiber_dim))
    for j in range(fiber_dim):
        osc = np.cos((mode + j) * math.pi * (x - lo) / width + 0.3 * j)
        values[:, :, j] = tw[:, None] * (xw * osc)[None, :]
    t_margin = int(np.searchsorted(t, 0.1 * grid.horizon))
    # the field vanishes outside (lo, hi); a half-line grid's margin is only
    # checked at its outer edge, a line grid's at both
    leading = int(np.searchsorted(x, lo))
    trailing = x.size - int(np.searchsorted(x, hi, side="right"))
    x_margin = trailing if grid.space.domain == "half-line" else min(leading, trailing)
    return SampledField(grid, values, time_margin=t_margin, space_margin=x_margin)


def _window(s, a, b):
    """C^1 bump: sin^2(pi (s-a)/(b-a)) inside (a, b), zero outside."""
    s = np.asarray(s, dtype=float)
    u = (s - a) / (b - a)
    out = np.where((u > 0.0) & (u < 1.0), np.sin(math.pi * np.clip(u, 0.0, 1.0)) ** 2, 0.0)
    return out


def _time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order finite-difference d/dt along axis 0 (one-sided at ends)."""
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    if n < 5:
        raise DomainError("fourth-order differences need at least 5 time samples")
    out = np.empty_like(v)
    out[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * dt)
    for i in (0, 1):
        out[i] = (
            -25.0 * v[i] + 48.0 * v[i + 1] - 36.0 * v[i + 2] + 16.0 * v[i + 3] - 3.0 * v[i + 4]
        ) / (12.0 * dt)
    for i in (n - 2, n - 1):
        out[i] = (
            25.0 * v[i] - 48.0 * v[i - 1] + 36.0 * v[i - 2] - 16.0 * v[i - 3] + 3.0 * v[i - 4]
        ) / (12.0 * dt)
    return out


# ---------------------------------------------------------------------------
# Kernel families and the weighted application core
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Term:
    """One kernel of a family: the setting's whole kernel, or a Bessel split
    piece, read at (x, y) or, when reflected, at (x, -y)."""

    setting: KernelSetting
    piece: str | None = None
    reflected: bool = False

    @property
    def mass(self) -> int:
        """Mass at the diagonal as t -> 0: 1 for an unreflected whole kernel
        and pieces "1", "11" and "12"; 0 if reflected and for "13" and "2"."""
        return int(not self.reflected and self.piece in (None, "1", "11", "12"))


@dataclass(frozen=True)
class _KernelFamily:
    """Signed sum of kernel terms, ((sign, _Term), ...) with signs +-1."""

    terms: tuple

    @property
    def mass(self) -> int:
        """The family's mass at the diagonal: sum of sign * term mass."""
        return sum(sign * term.mass for sign, term in self.terms)


def _family_for(setting: KernelSetting) -> _KernelFamily:
    return _KernelFamily(((1, _Term(setting)),))


def _family_reflected(setting: KernelSetting) -> _KernelFamily:
    if setting.domain != "real-line":
        raise DomainError("reflected kernels need a whole-line setting")
    return _KernelFamily(((1, _Term(setting, reflected=True)),))


def _family_difference(fam_a: _KernelFamily, fam_b: _KernelFamily) -> _KernelFamily:
    return _KernelFamily(fam_a.terms + tuple((-sign, term) for sign, term in fam_b.terms))


def _family_bessel_piece(alpha: float, piece: str) -> _KernelFamily:
    return _KernelFamily(((1, _Term(KernelSetting("bessel", alpha=alpha), piece)),))


def _kernel_tensors(term: _Term, grid: SpaceTimeGrid):
    """Stack of one term's dt kernels at lags 2 dt .. (n_time - 1) dt plus
    its value kernel at delta = 1.5 dt, read-only.

    Kernel tensors are expensive for the subordinated settings, so the grid
    holds the stacks it was built on, keyed by term: each term is built once
    per grid and reused by every family and weight that holds it, and is
    freed with the grid.

    Each stack is one kernel call over all lags (one log-u pass for both
    stack and value kernel of an oscillator term).  The call is evaluated
    only on the node pairs (x_i, x_j), i <= j, read at -x_j when reflected,
    and mirrored: x and y come from the same node vector, and every term is
    symmetric under x <-> y, the reflected classical and Hermite kernels
    too, as they depend on x and y only through (x+y)^2 and (x-y)^2.
    """
    hit = grid._stacks.get(term)
    if hit is not None:
        return hit
    x = grid.space.nodes
    i, j = np.triu_indices(x.size)
    X, Y = x[i], (-x if term.reflected else x)[j]
    lags = np.arange(_FIRST_LAG, grid.time.n) * grid.dt
    delta = (_FIRST_LAG - 0.5) * grid.dt
    setting, piece = term.setting, term.piece
    if piece is not None:
        half = dt_poisson_bessel_piece(piece, setting.alpha, lags, X, Y)
        q_half = poisson_bessel_piece(piece, setting.alpha, delta, X, Y)
    elif setting.variant in ("hermite", "laguerre"):
        rows = _subordinate(setting, np.append(lags, delta),
                            np.append(np.ones(lags.size, bool), False), X, Y)
        half, q_half = rows[:-1], rows[-1]
    else:
        half = dt_poisson_kernel_grid(setting, lags, X, Y)
        q_half = poisson_kernel_grid(setting, delta, X, Y)
    stack = np.empty((lags.size, x.size, x.size))
    q = np.empty((x.size, x.size))
    stack[:, i, j] = stack[:, j, i] = half
    q[i, j] = q[j, i] = q_half
    stack.flags.writeable = False
    q.flags.writeable = False
    grid._stacks[term] = (stack, q)
    return stack, q


def _signed_kernel(parts, weight, buf):
    """Sum of sign * kernel over parts ((sign, (nx, nx) kernel), ...), times
    the (x, y) weight if one is given, built in buf; a lone +1 term with no
    weight is returned as it is, without a copy."""
    (sign, kern), *rest = parts
    if sign == 1 and not rest and weight is None:
        return kern
    np.multiply(kern, sign, out=buf)
    for sign, kern in rest:
        (np.add if sign == 1 else np.subtract)(buf, kern, out=buf)
    if weight is not None:
        buf *= weight
    return buf


def _space_major(values: np.ndarray) -> np.ndarray:
    """(n_time, n_space, fiber) values as a (n_space, n_time * fiber) array."""
    nt, nx, fib = values.shape
    return values.transpose(1, 0, 2).reshape(nx, nt * fib)


def _weighted_apply(
    family: _KernelFamily,
    f: SampledField,
    weight: np.ndarray | None = None,
) -> SampledField:
    """Apply the family's kernel, times the (x, y) weight if one is given.

    Lags 2 dt .. (n_time - 1) dt take the midpoint rule on the dt kernels;
    the near-diagonal tail takes the value kernel at delta = 1.5 dt and the
    fourth-order time derivative of f, so the field needs 5 time samples.

    The field is held space-major, as a (n_space, n_time * fiber) array, so
    time lag m is a shift by m * fiber columns and each lag's contraction is
    one BLAS matmul of its (n_space, n_space) kernel.  That kernel, signed
    and weighted, is built into one reused buffer just before its matmul;
    no signed or weighted copy of a whole stack is made or kept.
    """
    if f.space_margin < 1:
        raise DomainError("operator input must vanish near the space boundary (space_margin >= 1)")
    nt = f.n_time
    if nt < 5:
        raise DomainError("the near-diagonal tail's fourth-order differences need 5 time samples")
    if not f.grid.time.is_uniform:
        raise DomainError("operators need a uniform time grid: kernel lags are multiples of dt")
    dt = f.grid.dt
    nx, fib = f.n_space, f.fiber_dim
    wy = f.grid.space.cell_widths()[:, None]
    tensors = [(sign, _kernel_tensors(term, f.grid)) for sign, term in family.terms]
    buf = np.empty((nx, nx))
    # near-diagonal tail: first-order Taylor of f around s = t under the
    # rewritten integral, (Q_delta - m)(f - (delta/2) g); it needs only the
    # value kernel at time delta
    delta = (_FIRST_LAG - 0.5) * dt
    h = _space_major(f.values - (delta / 2.0) * _time_derivative(f.values, dt))
    q = _signed_kernel([(sign, qv) for sign, (_, qv) in tensors], weight, buf)
    out = q @ (wy * h)
    mass = family.mass * (np.ones(nx) if weight is None else np.diag(weight))
    out -= mass[:, None] * h
    v = (dt * wy) * _space_major(f.values)
    for j, m in enumerate(range(_FIRST_LAG, nt)):
        kern = _signed_kernel([(sign, stack[j]) for sign, (stack, _) in tensors], weight, buf)
        out[:, m * fib:] += kern @ v[:, : (nt - m) * fib]
    out = np.ascontiguousarray(out.reshape(nx, nt, fib).transpose(1, 0, 2))
    return f.with_values(out, time_margin=0, space_margin=0)


def _check_grid_setting(setting: KernelSetting, f: SampledField, allow_restriction=False):
    dom = f.grid.space.domain
    if setting.domain == "half-line" and dom != "half-line":
        raise DomainError(f"{setting.describe()} needs a half-line grid")
    if setting.domain == "real-line" and dom == "half-line" and not allow_restriction:
        raise DomainError(
            f"{setting.describe()} lives on the whole line; use the plus/minus variants "
            "for half-line fields"
        )
    if dom == "interval":
        raise DomainError("space-time operators need a real-line or half-line grid")


def local_region_matrix(grid: Grid1D) -> np.ndarray:
    """Indicator of the local region on grid nodes.

    Half-line grids use the band x/2 < y < 2x; whole-line grids use the
    critical-radius window |x - y| < rho(x).  The diagonal always lies in
    the region, so the near-diagonal tail belongs entirely to the local part.
    """
    x = grid.nodes
    X, Y = x[:, None], x[None, :]
    if grid.domain == "half-line":
        return ((Y > X / 2.0) & (Y < 2.0 * X)).astype(float)
    if grid.domain == "real-line":
        return (np.abs(X - Y) < critical_radius(x)[:, None]).astype(float)
    raise DomainError("local region is defined for real-line and half-line grids")


def apply_K(setting: KernelSetting, f: SampledField) -> SampledField:
    """Full operator K: s-integral of the dt Poisson kernel against f."""
    _check_grid_setting(setting, f)
    return _weighted_apply(_family_for(setting), f)


def apply_K_plus(setting: KernelSetting, f: SampledField) -> SampledField:
    """Half-line restriction of a whole-line kernel: x, y > 0 only."""
    if setting.domain != "real-line":
        raise DomainError("the plus variant restricts a whole-line setting")
    if f.grid.space.domain != "half-line":
        raise DomainError("apply_K_plus expects a half-line field")
    return _weighted_apply(_family_for(setting), f)


def apply_K_minus(setting: KernelSetting, f: SampledField) -> SampledField:
    """Reflected-kernel part: kernel evaluated at (x, -y) for x, y > 0."""
    if setting.domain != "real-line":
        raise DomainError("the minus variant reflects a whole-line setting")
    if f.grid.space.domain != "half-line":
        raise DomainError("apply_K_minus expects a half-line field")
    return _weighted_apply(_family_reflected(setting), f)


def apply_K_local(setting: KernelSetting, f: SampledField) -> SampledField:
    """K with the y-integral restricted to the local region."""
    _check_grid_setting(setting, f, allow_restriction=True)
    w = local_region_matrix(f.grid.space)
    return _weighted_apply(_family_for(setting), f, w)


def apply_K_global(setting: KernelSetting, f: SampledField) -> SampledField:
    """K with the y-integral restricted to the complement of the local region."""
    _check_grid_setting(setting, f, allow_restriction=True)
    w = 1.0 - local_region_matrix(f.grid.space)
    return _weighted_apply(_family_for(setting), f, w)


def apply_difference_local(
    setting_a: KernelSetting,
    setting_b: KernelSetting,
    f: SampledField,
) -> SampledField:
    """Local difference operator between two settings sharing the grid.

    Covers the three comparison pairs: singular-potential vs classical on
    the half-line, oscillator vs classical on the line, and oscillator vs
    half-line radial oscillator.
    """
    _check_grid_setting(setting_a, f, allow_restriction=True)
    _check_grid_setting(setting_b, f, allow_restriction=True)
    fam = _family_difference(_family_for(setting_a), _family_for(setting_b))
    w = local_region_matrix(f.grid.space)
    return _weighted_apply(fam, f, w)


def difference_local_pieces(alpha: float, f: SampledField) -> dict:
    """Piecewise split of the half-line local difference operator.

    Returns fields keyed d1, d2, d3, k2 (the angular-replacement error, the
    denominator-flattening error, the restored tail piece, and the obtuse
    half "2" of the kernel) whose sum telescopes to the full local
    difference.  Piece 1 is never built: d1 is the whole kernel (cached for
    the global operator too) minus "2" and "11", and "2", whose integrand
    is smooth on its half, converges at few nodes.
    """
    if f.grid.space.domain != "half-line":
        raise DomainError("piece split lives on the half-line")
    w = local_region_matrix(f.grid.space)
    p = {s: _family_bessel_piece(alpha, s) for s in ("2", "11", "12", "13")}
    full = _family_for(KernelSetting("bessel", alpha=alpha))
    fams = {
        "d1": _family_difference(_family_difference(full, p["2"]), p["11"]),
        "d2": _family_difference(p["11"], p["12"]),
        "d3": p["13"],
        "k2": p["2"],
    }
    return {k: _weighted_apply(fam, f, w) for k, fam in fams.items()}


# ---------------------------------------------------------------------------
# Scalar dominating operators
# ---------------------------------------------------------------------------


def _interp_matrix(nodes: np.ndarray, points: np.ndarray, weights) -> np.ndarray:
    """(rows, n) matrix R with R @ v = sum over k of weights[:, k] * v~(points[:, k]),
    where v~ joins the node values v linearly and vanishes outside the nodes;
    points has shape (rows, k) and weights broadcasts against it."""
    n = nodes.size
    rows = points.shape[0]
    j = np.clip(np.searchsorted(nodes, points, side="right") - 1, 0, n - 2)
    t = (points - nodes[j]) / (nodes[j + 1] - nodes[j])
    w = np.where((points >= nodes[0]) & (points <= nodes[-1]), weights, 0.0)
    flat = (np.arange(rows)[:, None] * n + j).ravel()
    mat = np.bincount(flat, (w * (1.0 - t)).ravel(), minlength=rows * n)
    mat += np.bincount(flat + 1, (w * t).ravel(), minlength=rows * n)
    return mat.reshape(rows, n)


def _cumulative(grid: Grid1D, h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Integral of h from the window's start to each point, on the last axis.

    The cell masses accumulate at the cell edges, are joined linearly
    between them and held constant beyond the window; h has shape (..., n)
    and the result (..., points.size).
    """
    x, w = grid.nodes, grid.cell_widths()
    edges = np.concatenate([[x[0] - 0.5 * w[0]], 0.5 * (x[1:] + x[:-1]), [x[-1] + 0.5 * w[-1]]])
    masses = np.asarray(h, dtype=float) * w
    cum = np.concatenate([np.zeros(masses.shape[:-1] + (1,)), np.cumsum(masses, axis=-1)], axis=-1)
    inside = np.clip(points, edges[0], edges[-1])[:, None]
    return cum @ _interp_matrix(edges, inside, 1.0).T


def hardy_H0(grid: Grid1D, h: np.ndarray) -> np.ndarray:
    """(1/x) * integral of h over (0, x) at each node x."""
    return _cumulative(grid, h, grid.nodes) / grid.nodes


def _tail_integral(grid: Grid1D, h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Integral of h(y)/y from each point to the window's end."""
    cum = _cumulative(grid, np.asarray(h, dtype=float) / grid.nodes, np.append(points, np.inf))
    return cum[..., -1:] - cum[..., :-1]


def hardy_Hinf(grid: Grid1D, h: np.ndarray) -> np.ndarray:
    """Integral of h(y)/y over (x, infinity), truncated at the grid window."""
    return _tail_integral(grid, h, grid.nodes)


def averaging_L(grid: Grid1D, h: np.ndarray) -> np.ndarray:
    """Band average (1/x) * integral of h over (x/2, 2x)."""
    x = grid.nodes
    cum = _cumulative(grid, h, np.concatenate([0.5 * x, 2.0 * x]))
    return (cum[..., x.size:] - cum[..., :x.size]) / x


def _band_apply(grid: Grid1D, h: np.ndarray, side: Callable) -> np.ndarray:
    """h against a rule on the band (x/2, 2x) of each node x, on the last axis.

    side(sign, a) gives the points y and weights, each of shape (n, k), of
    the rule on the band's side of length a below x (sign -1, a = x/2) or
    above it (sign +1, a = x).  Both sides fold into one (n, n) matrix by
    linear interpolation on the nodes, so the cost of a row does not grow
    with the rule's k.
    """
    x = grid.nodes
    mat = sum(_interp_matrix(x, *side(sign, a)) for sign, a in ((-1.0, 0.5 * x), (1.0, x)))
    return np.asarray(h, dtype=float) @ mat.T


# log-kernel quadrature: dyadic panels toward the singular endpoint
_LOG_PANELS = 36
_PANEL_NODES = 8


def log_kernel_A(grid: Grid1D, h: np.ndarray) -> np.ndarray:
    """(1/x) * integral over the band (x/2, 2x) of (1 + log(x/|x-y|)) h(y).

    The logarithmic endpoint y = x is handled with geometrically graded
    panels on each side, nodes symmetric about the singularity.
    """
    x = grid.nodes
    gl_nodes, gl_weights = gauss_legendre_rule(0.0, 1.0, _PANEL_NODES)
    # panel k covers z in (a 2^{-k-1}, a 2^{-k}); z = distance to the singularity
    scale_hi = np.power(0.5, np.arange(_LOG_PANELS))

    def side(sign, a):
        hi = (a[:, None] * scale_hi[None, :])[:, :, None]
        lo = 0.5 * hi
        z = (lo + (hi - lo) * gl_nodes).reshape(x.size, -1)
        wz = ((hi - lo) * gl_weights).reshape(x.size, -1)
        return x[:, None] + sign * z, (1.0 + np.log(x[:, None] / z)) * wz / x[:, None]

    return _band_apply(grid, h, side)


_SQRT_NODES = 48


def sqrt_kernel_N(grid: Grid1D, h: np.ndarray) -> np.ndarray:
    """Integral over the band (x/2, 2x) of h(y) / sqrt(y |x-y|).

    The |x-y|^{-1/2} singularity is removed by the substitution z = w^2,
    after which plain Gauss-Legendre applies on each side of y = x.
    """
    x = grid.nodes
    gl_nodes, gl_weights = gauss_legendre_rule(0.0, 1.0, _SQRT_NODES)

    def side(sign, a):
        wmax = np.sqrt(a)[:, None]
        w = wmax * gl_nodes
        y = x[:, None] + sign * w * w
        return y, 2.0 * wmax * gl_weights / np.sqrt(y)

    return _band_apply(grid, h, side)


def _maximal_convolution(grid: Grid1D, h: np.ndarray, kernel) -> np.ndarray:
    """sup over a geometric u-ladder of row-normalized kernel averages of |h~0|.

    h is indexed by the grid's nodes along axis 0 (zero-extension beyond
    the window); the ladder doubles from the squared first node step to the
    squared node span, and the |h| rung itself is included as the u -> 0
    limit.
    """
    nodes = grid.nodes
    step = float(nodes[1] - nodes[0])
    span = float(nodes[-1] - nodes[0])
    absolute = np.abs(np.asarray(h, dtype=float))
    out = absolute.copy()
    diffs = nodes[:, None] - nodes[None, :]
    widths = grid.cell_widths()
    count = max(int(math.ceil(math.log2(span * span / (step * step)))) + 1, 1)
    for u in step * step * np.power(2.0, np.arange(count)):
        mat = kernel(u, diffs) * widths[None, :]
        rows = np.sum(mat, axis=1)
        mat /= rows[:, None]
        out = np.maximum(out, np.abs(np.tensordot(mat, absolute, axes=([1], [0]))))
    return out


def maximal_P_star(grid: Grid1D, h: np.ndarray) -> np.ndarray:
    """Discrete harmonic-extension maximal function along axis 0."""
    return _maximal_convolution(grid, h, poisson_classical)


def maximal_W_star(grid: Grid1D, h: np.ndarray) -> np.ndarray:
    """Discrete Gauss-kernel maximal function along axis 0."""
    return _maximal_convolution(grid, h, heat_classical)


def hardy_littlewood_M(grid: Grid1D, h: np.ndarray) -> np.ndarray:
    """Centered maximal averages over dyadic windows, acting on the last axis.

    Uniform node spacing; the field is extended by zero beyond the window,
    and the half-width-0 rung reproduces |h| itself.
    """
    if not grid.is_uniform:
        raise DomainError("hardy_littlewood_M needs uniform spacing")
    h = np.abs(np.asarray(h, dtype=float))
    n = grid.n
    cum = np.concatenate(
        [np.zeros(h.shape[:-1] + (1,)), np.cumsum(h, axis=-1)], axis=-1
    )
    out = h.copy()
    w = 1
    idx = np.arange(n)
    while w < 2 * n:
        hi = np.minimum(idx + w + 1, n)
        lo = np.maximum(idx - w, 0)
        window = (cum[..., hi] - cum[..., lo]) / (2 * w + 1)
        out = np.maximum(out, window)
        w *= 2
    return out


# ---------------------------------------------------------------------------
# The estimate catalog: paper-style kernel bounds as sup-ratio checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateRecord:
    """One pointwise kernel bound LHS(u,x,y) <= C * RHS(u,x,y) on a region.

    The free constant is probed empirically as the supremum of LHS/RHS over
    admissible sample points; the record stores the default (u, x, y) box
    and base resolution for that sweep.  lhs, rhs and region act elementwise
    on a time u and 1-D arrays x, y; lhs and rhs see only admissible points.
    """

    identifier: str
    lhs: Callable
    rhs: Callable
    region: Callable
    anchor: str
    box: tuple
    base_shape: tuple = (5, 17, 17)


@dataclass
class SweepReport:
    """Per-level values of named quantities across refinements."""

    identifier: str
    levels: list
    series: dict

    def max_growth(self, name: str) -> float:
        vals = self.series[name]
        if len(vals) < 2:
            return 0.0
        growth = [abs(b) / abs(a) - 1.0 for a, b in zip(vals[:-1], vals[1:]) if a != 0.0]
        return max(growth, default=0.0)

    def stabilized(self, name: str, threshold: float) -> bool:
        return self.max_growth(name) <= threshold


def _band_region(u, x, y):
    return (y > x / 2.0) & (y < 2.0 * x)


def _all_region(u, x, y):
    return np.ones(np.broadcast(u, x, y).shape, dtype=bool)


def _xi(u, x, y):
    return x * y / np.sinh(u)


def _d1d2(alpha, u, x, y):
    """|dt piece 1 - dt piece 11| + |dt piece 11 - dt piece 12|, one call per piece."""
    p1, p11, p12 = (dt_poisson_bessel_piece(p, alpha, u, x, y) for p in ("1", "11", "12"))
    return np.abs(p1 - p11) + np.abs(p11 - p12)


def estimate_catalog(alpha: float = 1.5) -> list:
    """Kernel estimates checked by the acceptance sweeps.

    Half-line records use the given alpha.  Decay rates and Gaussian scales
    are pinned to the package normalization of the generators (ground
    energy 1/2 for the oscillator; small-time diffusion 1/2), which trades
    the abstract constants of the source bounds for explicit ones.
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    half_box = ((0.05, 3.0), (0.05, 6.0), (0.05, 6.0))
    line_box = ((0.05, 4.0), (-6.0, 6.0), (-6.0, 6.0))
    records = [
        EstimateRecord(
            identifier="bessel-dt-global",
            lhs=lambda u, x, y: np.abs(dt_poisson_bessel(alpha, u, x, y)),
            rhs=lambda u, x, y: 1.0 / ((x - y) ** 2 + u * u),
            region=_all_region,
            anchor="global bound for the dt singular-potential kernel by the flat dt envelope",
            box=half_box,
        ),
        EstimateRecord(
            identifier="bessel-dt-piece2",
            lhs=lambda u, x, y: np.abs(dt_poisson_bessel_piece("2", alpha, u, x, y)),
            rhs=lambda u, x, y: 1.0 / (u * u + x * x),
            region=_band_region,
            anchor="obtuse-angle kernel piece decays off the band like the origin envelope",
            box=half_box,
        ),
        EstimateRecord(
            identifier="bessel-d1d2-log",
            lhs=lambda u, x, y: _d1d2(alpha, u, x, y),
            rhs=lambda u, x, y: (x * y) ** alpha
            / ((x - y) ** 2 + u * u + x * y) ** (alpha + 1.0)
            * (1.0 + np.maximum(np.log(x * y / ((x - y) ** 2 + u * u)), 0.0)),
            region=_band_region,
            anchor="angular replacement errors on the band obey the logarithmic envelope",
            box=half_box,
        ),
        EstimateRecord(
            identifier="bessel-dt-piece13",
            lhs=lambda u, x, y: np.abs(dt_poisson_bessel_piece("13", alpha, u, x, y)),
            rhs=lambda u, x, y: 1.0 / (u * u + x * x),
            region=_band_region,
            anchor="restored tail piece decays on the band like the origin envelope",
            box=half_box,
        ),
        EstimateRecord(
            identifier="hermite-heat-decay",
            lhs=lambda u, x, y: heat_hermite(u, x, y),
            rhs=lambda u, x, y: np.exp(-u / 4.0) * heat_classical(u, x - y, diffusion=0.5),
            region=_all_region,
            anchor="oscillator heat kernel decays exponentially against the flat Gaussian",
            box=line_box,
        ),
        EstimateRecord(
            identifier="hermite-heat-window",
            lhs=lambda u, x, y: heat_hermite(u, x, y),
            rhs=lambda u, x, y: np.exp(-((x - y) ** 2) / (4.0 * u))
            / np.sqrt(u)
            * (critical_radius(x) ** 2 / u) ** 2,
            region=_all_region,
            anchor="oscillator heat kernel beyond the critical time-scale window",
            box=((0.02, 4.0), (-6.0, 6.0), (-6.0, 6.0)),
        ),
        EstimateRecord(
            identifier="hermite-heat-difference",
            lhs=lambda u, x, y: np.abs(heat_hermite(u, x, y) - heat_classical(u, x - y, diffusion=0.5)),
            rhs=lambda u, x, y: u / critical_radius(x) ** 2 * heat_classical(u, x - y, diffusion=0.5),
            region=lambda u, x, y: (np.abs(x - y) < critical_radius(x)) & (u < critical_radius(x) ** 2),
            anchor="perturbation bound for the oscillator-minus-flat heat difference at short times",
            box=((0.001, 0.25), (-6.0, 6.0), (-6.0, 6.0)),
        ),
        EstimateRecord(
            identifier="hermite-dt-global",
            lhs=lambda u, x, y: np.abs(dt_poisson_kernel_grid(KernelSetting("hermite"), u, x, y)),
            rhs=lambda u, x, y: 1.0 / (u * u + (x - y) ** 2),
            region=_all_region,
            anchor="dt oscillator kernel obeys the flat dt envelope",
            box=((0.05, 3.0), (-6.0, 6.0), (-6.0, 6.0)),
        ),
        EstimateRecord(
            identifier="laguerre-heat-gauss",
            lhs=lambda u, x, y: heat_laguerre(alpha, u, x, y),
            rhs=lambda u, x, y: np.exp(-((x - y) ** 2) / (4.0 * u)) / np.sqrt(u),
            region=_all_region,
            anchor="radial oscillator heat kernel is Gaussian-dominated",
            box=((0.02, 4.0), (0.05, 6.0), (0.05, 6.0)),
        ),
        EstimateRecord(
            identifier="laguerre-regime-small-u-large-xi",
            lhs=lambda u, x, y: np.abs(heat_hermite(u, x, y) - heat_laguerre(alpha, u, x, y)),
            rhs=lambda u, x, y: np.exp(-((x - y) ** 2) / (4.0 * u)) / (_xi(u, x, y) ** 0.25 * np.sqrt(u)),
            region=lambda u, x, y: _band_region(u, x, y) & (_xi(u, x, y) >= 1.0) & (u < 1.0),
            anchor="large cross-argument, short time: heat difference against the scaled Gaussian",
            box=((0.02, 0.98), (0.05, 6.0), (0.05, 6.0)),
            base_shape=(9, 33, 33),
        ),
        EstimateRecord(
            identifier="laguerre-regime-large-u-large-xi",
            lhs=lambda u, x, y: np.abs(heat_hermite(u, x, y) - heat_laguerre(alpha, u, x, y)),
            rhs=lambda u, x, y: np.exp(-u / 2.0) * np.exp(-((x - y) ** 2) / 4.0) / _xi(u, x, y) ** 0.25,
            region=lambda u, x, y: _band_region(u, x, y) & (_xi(u, x, y) >= 1.0) & (u >= 1.0),
            anchor="large cross-argument, long time: heat difference decays exponentially",
            box=((1.0, 4.0), (0.05, 6.0), (0.05, 6.0)),
            base_shape=(9, 49, 49),
        ),
        EstimateRecord(
            identifier="laguerre-regime-small-u-small-xi",
            lhs=lambda u, x, y: np.abs(heat_hermite(u, x, y) - heat_laguerre(alpha, u, x, y)),
            rhs=lambda u, x, y: (0.5 / np.sinh(u)) ** 0.25
            * np.exp(-((x - y) ** 2) / (4.0 * u))
            / u**0.25,
            region=lambda u, x, y: _band_region(u, x, y) & (_xi(u, x, y) <= 1.0) & (u < 1.0),
            anchor="small cross-argument, short time: heat difference against the quarter-power envelope",
            box=((0.02, 0.98), (0.05, 6.0), (0.05, 6.0)),
            base_shape=(9, 33, 33),
        ),
        EstimateRecord(
            identifier="laguerre-regime-large-u-small-xi",
            lhs=lambda u, x, y: np.abs(heat_hermite(u, x, y) - heat_laguerre(alpha, u, x, y)),
            rhs=lambda u, x, y: (0.5 / np.sinh(u)) ** 0.25
            * np.exp(-u / 4.0)
            * np.exp(-((x - y) ** 2) / 4.0),
            region=lambda u, x, y: _band_region(u, x, y) & (_xi(u, x, y) <= 1.0) & (u >= 1.0),
            anchor="small cross-argument, long time: heat difference decays exponentially",
            box=((1.02, 4.0), (0.05, 6.0), (0.05, 6.0)),
            base_shape=(9, 33, 33),
        ),
    ]
    return records


def estimate_ratio_supremum(record: EstimateRecord, levels: int = 3) -> SweepReport:
    """Sup of LHS/RHS over admissible sample points of the record's box,
    per refinement level, from the record's base shape.

    Sample grids nest (each level doubles the panel count of an inclusive
    linspace or geomspace, and both nest bit for bit), so the per-level
    suprema are nondecreasing and their growth measures how close the coarse
    sup is to saturation.  The finest level is swept once; level l reads
    every 2^(levels - 1 - l)-th of its samples along each axis.

    Per time slice u, the record's region is called on 1-D arrays of the
    slice's (x, y) sample points, and its lhs and rhs on 1-D arrays of the
    admissible ones only; all three must be elementwise in (x, y).
    """
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    box, base = record.box, record.base_shape
    # space axes on wide positive boxes are sampled geometrically so that
    # corner maximizers near the origin are resolved early
    axes = []
    for pos, ((lo, hi), n) in enumerate(zip(box, base)):
        count = (n - 1) * 2 ** (levels - 1) + 1
        if pos > 0 and lo > 0.0 and hi / lo >= 20.0:
            axes.append(np.geomspace(lo, hi, count))
        else:
            axes.append(np.linspace(lo, hi, count))
    us, xs, ys = axes
    # the slice's (x, y) points, flattened x-major
    X, Y = np.repeat(xs, ys.size), np.tile(ys, xs.size)
    strides = [2 ** (levels - 1 - level) for level in range(levels)]
    sup, populated = np.zeros(levels), np.zeros(levels, dtype=bool)
    argmax = np.full((levels, 3), math.nan)
    # one time slice at a time, and only its admissible points, keeps the
    # angular-quadrature arrays small
    for i, u in enumerate(us):
        mask = np.broadcast_to(record.region(float(u), X, Y), X.shape)
        if not mask.any():
            continue
        x, y = X[mask], Y[mask]
        lhs = np.broadcast_to(np.asarray(record.lhs(float(u), x, y), float), x.shape)
        rhs = np.broadcast_to(np.asarray(record.rhs(float(u), x, y), float), x.shape)
        if np.any(rhs < 0.0):
            raise DomainError(f"record {record.identifier}: RHS negative on the region")
        # deep-tail Gaussians underflow to exact zero on both sides;
        # such points are vacuous, but a positive LHS there is a failure
        live = rhs > 0.0
        if np.any(lhs[~live] > 0.0):
            raise DomainError(f"record {record.identifier}: RHS vanishes under a positive LHS")
        ratio = np.full(X.shape, -np.inf)
        ratio[np.flatnonzero(mask)[live]] = lhs[live] / rhs[live]
        ratio, mask = ratio.reshape(xs.size, ys.size), mask.reshape(xs.size, ys.size)
        for level, s in enumerate(strides):
            if i % s:
                continue
            populated[level] |= mask[::s, ::s].any()
            sub = ratio[::s, ::s]
            j, k = np.unravel_index(np.argmax(sub), sub.shape)
            if sub[j, k] > sup[level]:
                sup[level] = sub[j, k]
                argmax[level] = u, xs[s * j], ys[s * k]
    if not populated.all():
        raise DomainError(f"record {record.identifier}: empty region on the sampled box")
    series = {"sup_ratio": sup.tolist(),
              "h_time": [(box[0][1] - box[0][0]) / (us[::s].size - 1) for s in strides],
              "h_space": [(box[1][1] - box[1][0]) / (xs[::s].size - 1) for s in strides]}
    series.update(zip(("argmax_t", "argmax_x", "argmax_y"), argmax.T.tolist()))
    return SweepReport(identifier=record.identifier, levels=list(range(levels)), series=series)


# ---------------------------------------------------------------------------
# Pointwise domination checks (operator output vs dominating expression)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationResult:
    identifier: str
    constant: float
    lhs: np.ndarray
    rhs: np.ndarray


def _ratio_constant(identifier, lhs, rhs) -> DominationResult:
    floor = 1e-13 * float(np.max(rhs))
    mask = rhs > floor
    if not mask.any():
        raise DomainError(f"domination {identifier}: dominating side vanishes")
    constant = float(np.max(lhs[mask] / rhs[mask]))
    return DominationResult(identifier, constant, lhs, rhs)


def _time_maximal_field(f: SampledField) -> np.ndarray:
    """P_*-style input: the harmonic maximal function in t of the fiber norm."""
    return maximal_P_star(f.grid.time, f.fiber_norm())


def _heat_maximal_time(f: SampledField) -> np.ndarray:
    return maximal_W_star(f.grid.time, f.fiber_norm())


def domination_reflected_hardy(f: SampledField):
    """Reflected flat kernel (diffusion 1) output against Hardy averages of
    the time-maximal input."""
    lhs = apply_K_minus(KernelSetting("classical"), f).fiber_norm()
    phi = _time_maximal_field(f)
    grid = f.grid.space
    rhs = (hardy_H0(grid, phi) + hardy_Hinf(grid, phi)) / math.pi
    return _ratio_constant("classical-reflected-hardy", lhs, rhs)


def _hardy_cut(grid: Grid1D, phi: np.ndarray) -> np.ndarray:
    """(1/x) integral over (0, x/2) plus integral of phi(y)/y over (2x, window]."""
    x = grid.nodes
    return _cumulative(grid, phi, 0.5 * x) / x + _tail_integral(grid, phi, 2.0 * x)


def domination_global_hardy(setting: KernelSetting, f: SampledField):
    """Global part on the half-line against the cut Hardy averages."""
    if f.grid.space.domain != "half-line":
        raise DomainError("global Hardy domination lives on the half-line")
    lhs = apply_K_global(setting, f).fiber_norm()
    rhs = _hardy_cut(f.grid.space, _time_maximal_field(f))
    return _ratio_constant(f"global-hardy[{setting.describe()}]", lhs, rhs)


def domination_hermite_global(f: SampledField):
    """Oscillator global part against heat-maximal and windowed-maximal composites."""
    lhs = apply_K_global(KernelSetting("hermite"), f).fiber_norm()
    inner = _heat_maximal_time(f)  # (nt, nx)
    grid = f.grid.space
    outer_heat = maximal_W_star(grid, inner.T).T
    outer_window = hardy_littlewood_M(grid, inner)
    rhs = outer_heat + outer_window
    return _ratio_constant("hermite-global-maximal", lhs, rhs)


def domination_hermite_local(f: SampledField):
    """Oscillator-minus-flat local difference against the windowed maximal function."""
    diff = apply_difference_local(
        KernelSetting("hermite"), KernelSetting("classical", diffusion=0.5), f
    ).fiber_norm()
    rhs = hardy_littlewood_M(f.grid.space, _heat_maximal_time(f))
    return _ratio_constant("hermite-local-maximal", diff, rhs)


def domination_laguerre_local(alpha: float, f: SampledField):
    """Half-line oscillator difference against the square-root band kernel."""
    diff = apply_difference_local(
        KernelSetting("hermite"), KernelSetting("laguerre", alpha=alpha), f
    ).fiber_norm()
    rhs = sqrt_kernel_N(f.grid.space, _heat_maximal_time(f))
    return _ratio_constant(f"laguerre-local-sqrt[alpha={alpha:g}]", diff, rhs)


def difference_kernel_time_integral(alpha: float, x, y) -> np.ndarray:
    """Integral over u in (0, inf) of |oscillator minus radial-oscillator heat
    kernel| du/u, by 60 geometric 8-node panels on u in (1e-6, 40).

    On the band this integral is dominated by sqrt(y/|x - y|)/y, which is
    what makes the square-root band kernel the right dominating operator.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nodes, weights = gauss_legendre_panels(np.geomspace(1e-6, 40.0, 61), 8)
    total = np.zeros(np.broadcast(x, y).shape)
    for u, w in zip(nodes, weights):
        total += w * np.abs(heat_hermite(u, x, y) - heat_laguerre(alpha, u, x, y)) / u
    return total


def domination_bessel_pieces(alpha: float, f: SampledField) -> dict:
    """The three band-piece dominations of the half-line comparison argument."""
    pieces = difference_local_pieces(alpha, f)
    phi = _time_maximal_field(f)
    band = averaging_L(f.grid.space, phi)
    logband = log_kernel_A(f.grid.space, phi)
    return {
        "d3": _ratio_constant("bessel-d3-averaging", pieces["d3"].fiber_norm(), band),
        "d1d2": _ratio_constant(
            "bessel-d1d2-log", pieces["d1"].fiber_norm() + pieces["d2"].fiber_norm(), logband
        ),
        "k2": _ratio_constant("bessel-k2-averaging", pieces["k2"].fiber_norm(), band),
    }
