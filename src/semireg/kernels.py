"""Heat and Poisson kernels for the four base operators.

Settings: the classical second-derivative operator on the line (with an
adjustable diffusion coefficient so the harmonic-oscillator scale has an
exact classical companion), the Bessel-type operator on the half-line, the
harmonic oscillator on the line, and the Laguerre-type oscillator on the
half-line.

Every Poisson kernel function takes a time or a 1-D array of times; an
array gives one kernel per time along a new leading (lag) axis.

Classical Poisson kernels are closed forms, broadcast over the lag axis.
Bessel ones are angular integrals: the angle-dependent base of the
denominator, (x-y)^2 + 2xy(1 - cos th) or a split piece's, is built once
per call, and each time only adds its t^2 before the power and the node
contraction.  The oscillator Poisson kernels are Bochner subordinations of
their closed-form heat kernels,

    P_t = int_0^inf t u^{-3/2} e^{-t^2/4u} / (2 sqrt(pi)) W_u du,

computed on a fixed log-u rule: 4-point Gauss-Legendre panels in log u on a
lattice of 4 panels per decade, from the panel that holds min(t)^2/160 up
to u = 10^2.5.  Each heat kernel W_u is evaluated once per node and shared
by every requested time, so a whole stack of times costs one pass over the
nodes.  Times where the rule's estimated error is too large get a denser
lattice, or DomainError.

Time derivatives of Poisson kernels are always analytic expressions
(differentiation happens under the integral sign), never numerical
differencing of kernel values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .quad import (
    IntegrationResult,
    QuadratureRule,
    gauss_jacobi_rule,
    gauss_legendre_rule,
    integrate_subordination,
)
from .specfun import log_modified_bessel_i

__all__ = [
    "KernelSetting",
    "classical",
    "bessel",
    "hermite",
    "laguerre",
    "critical_radius",
    "poisson_classical",
    "dt_poisson_classical",
    "heat_classical",
    "poisson_bessel",
    "dt_poisson_bessel",
    "poisson_bessel_piece",
    "dt_poisson_bessel_piece",
    "heat_bessel",
    "heat_hermite",
    "heat_laguerre",
    "heat_kernel",
    "poisson_kernel_grid",
    "dt_poisson_kernel_grid",
    "poisson_via_subordination",
]

_VARIANTS = ("classical", "bessel", "hermite", "laguerre")

#: Gauss-Jacobi nodes of the Bessel angular quadratures
THETA_NODES = 96

# log-u subordination lattice: panel k covers log10 u in (k/4, (k+1)/4).
# The first panel holds min(t)^2/160, where e^{-t^2/4u} = e^{-40}; the last
# ends at u = 10^2.5, where both oscillator heat kernels have decayed at
# least like e^{-u/2}.
_PANELS_PER_DECADE = 4
_PANEL_NODES = 4
_U_LOW = 1.0 / 160.0
_U_HIGH_DECADE = 2.5
# relative error the rule must reach on the heat kernel's ground mode, and
# how often a time may double the panels per decade to reach it
_SUBORDINATION_TOL = 1e-6
_MAX_REFINEMENTS = 3


@dataclass(frozen=True)
class KernelSetting:
    """A base operator choice.

    variant: one of "classical", "bessel", "hermite", "laguerre".
    alpha:   half-line parameter, required (and > 0) for bessel/laguerre.
    diffusion: coefficient c of the classical generator -c d^2/dx^2; the
        harmonic oscillator's small-time companion is diffusion = 1/2.
    """

    variant: str
    alpha: float | None = None
    diffusion: float = 1.0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.variant in ("bessel", "laguerre"):
            if self.alpha is None or self.alpha <= 0.0:
                raise DomainError(f"{self.variant} setting requires alpha > 0")
        elif self.alpha is not None:
            raise DomainError(f"{self.variant} setting takes no alpha")
        if self.diffusion <= 0.0:
            raise DomainError("diffusion must be positive")
        if self.variant != "classical" and self.diffusion != 1.0:
            raise DomainError("diffusion is only adjustable for the classical setting")

    @property
    def domain(self) -> str:
        return "half-line" if self.variant in ("bessel", "laguerre") else "real-line"

    @property
    def nu(self) -> float:
        if self.alpha is None:
            raise DomainError("nu is defined only for half-line settings")
        return self.alpha - 0.5

    def describe(self) -> str:
        if self.variant == "classical":
            return f"classical(diffusion={self.diffusion:g})"
        if self.alpha is not None:
            return f"{self.variant}(alpha={self.alpha:g})"
        return self.variant


def classical(diffusion: float = 1.0) -> KernelSetting:
    return KernelSetting("classical", diffusion=diffusion)


def bessel(alpha: float) -> KernelSetting:
    return KernelSetting("bessel", alpha=alpha)


def hermite() -> KernelSetting:
    return KernelSetting("hermite")


def laguerre(alpha: float) -> KernelSetting:
    return KernelSetting("laguerre", alpha=alpha)


def critical_radius(x):
    """Radius of locality for the harmonic oscillator: 1/2 inside |x|<=1, 1/(1+|x|) outside."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) <= 1.0, 0.5, 1.0 / (1.0 + np.abs(x)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Classical kernels (closed form)
# ---------------------------------------------------------------------------


def poisson_classical(t, z, diffusion: float = 1.0):
    """Poisson kernel of -c d^2/dx^2 at time t, offset z = x - y."""
    c = diffusion
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    return (math.sqrt(c) / math.pi) * t / (c * t * t + z * z)


def dt_poisson_classical(t, z, diffusion: float = 1.0):
    """Analytic time derivative of the classical Poisson kernel."""
    c = diffusion
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    den = c * t * t + z * z
    return (math.sqrt(c) / math.pi) * (z * z - c * t * t) / (den * den)


def heat_classical(t, z, diffusion: float = 1.0):
    """Heat kernel of -c d^2/dx^2: exp(-z^2/(4 c t)) / sqrt(4 pi c t)."""
    c = diffusion
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    return np.exp(-z * z / (4.0 * c * t)) / np.sqrt(4.0 * math.pi * c * t)


# ---------------------------------------------------------------------------
# Bessel-type kernels on the half-line
# ---------------------------------------------------------------------------


_PIECES = ("1", "11", "12", "13")


def _bessel_sums(piece: str, alpha: float, t, x, y):
    """Angular quadratures (sign, J1, J2) behind the Bessel Poisson kernel.

    J1 = int weight(th) D(th)^{-(a+1)} dth and J2 is the same with exponent
    a+2, where A = (x-y)^2 + t^2 and, by piece,

    "full": weight (sin th)^{2a-1}, D = A + 2xy(1-cos th), th in (0, pi),
            summed as the half (0, pi/2) plus its mirror th -> pi - th;
    "1":    the same integrand on (0, pi/2) only;
    "11":   weight th^{2a-1}, same D, on (0, pi/2);
    "12":   weight th^{2a-1}, flattened D = A + xy th^2, on (0, pi/2);
    "13":   the "12" integrand on (pi/2, inf), mapped to tau = 1/th in
            (0, 2/pi) where it is smooth; it enters with sign -1.

    The algebraic endpoint weight th^{2a-1} is carried by a Gauss-Jacobi
    rule; the remaining factor is smooth.

    t is a time or a 1-D array of times; an array gives J1 and J2 per time
    along a new leading axis.  The time-free base of D, B = D - t^2 (for
    "13", D - t^2 tau^2), is built once per call and angle set.  Each time
    adds its t^2 into a preallocated buffer, takes the power in place and
    contracts the nodes with one matrix-vector product, so at most three
    (node x grid) arrays are held at once, however many times are asked.
    """
    _check_times(t, "bessel kernel")
    _check_halfline(alpha, t, x, y)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grid = np.broadcast(x, y).shape
    n = THETA_NODES
    col = (n,) + (1,) * len(grid)
    xy = x * y
    d2 = (x - y) ** 2
    # each base is lhs * factor + addend, with factor on the node axis
    if piece == "13":
        tau, w = gauss_legendre_rule(0.0, 2.0 / math.pi, n)
        sign, w1, w2 = -1.0, w * tau, w * tau ** 3
        scale = (tau * tau).reshape(col)
        bases = ((d2, scale, xy),)
    else:
        beta = 2.0 * alpha - 1.0
        th, w = gauss_jacobi_rule(beta, math.pi / 2.0, n)
        if piece in ("full", "1"):
            w = w * (np.sin(th) / th) ** beta
        sign, w1, w2 = 1.0, w, w
        th = th.reshape(col)
        scale = 1.0
        if piece == "12":
            bases = ((xy, th * th, d2),)
        else:
            angles = (th, math.pi - th) if piece == "full" else (th,)
            bases = tuple((xy, 2.0 * (1.0 - np.cos(angle)), d2) for angle in angles)
    p = alpha + 1.0
    j1 = np.zeros((times.size, math.prod(grid)))
    j2 = np.zeros_like(j1)
    d = np.empty(col[:1] + grid)
    power = np.empty_like(d)
    for lhs, factor, addend in bases:
        base = lhs * factor
        base += addend
        for k, s in enumerate(times):
            np.add(base, s * s * scale, out=d)
            # one power per node: D^{-(a+2)} is D^{-(a+1)} / D
            np.power(d, -p, out=power)
            j1[k] += w1 @ power.reshape(n, -1)
            power /= d
            j2[k] += w2 @ power.reshape(n, -1)
        del base  # freed before the next angle set's base is formed
    j1 = j1.reshape(times.shape + grid)
    j2 = j2.reshape(times.shape + grid)
    return (sign, j1, j2) if np.ndim(t) else (sign, j1[0], j2[0])


def _lead(t, ndim: int):
    """t with ndim trailing unit axes, so that a 1-D t spans a leading time axis."""
    return np.reshape(t, np.shape(t) + (1,) * ndim)


def _bessel_kernel(piece: str, alpha: float, t, x, y, dt: bool):
    sign, j1, j2 = _bessel_sums(piece, alpha, t, x, y)
    t = _lead(t, np.ndim(j1) - np.ndim(t))
    pref = sign * (2.0 * alpha / math.pi) * (np.asarray(x) * np.asarray(y)) ** alpha
    if dt:
        return pref * (j1 - 2.0 * (alpha + 1.0) * t * t * j2)
    return pref * t * j1


def _piece_label(piece) -> str:
    piece = str(piece)
    if piece not in _PIECES:
        raise DomainError(f"unknown piece {piece!r}")
    return piece


def poisson_bessel(alpha: float, t, x, y):
    """Poisson kernel of the Bessel-type operator via its angular integral.

    t is a time or a 1-D array of times, as for poisson_kernel_grid; so for
    the three functions below.
    """
    return _bessel_kernel("full", alpha, t, x, y, dt=False)


def dt_poisson_bessel(alpha: float, t, x, y):
    """Analytic time derivative of the Bessel Poisson kernel."""
    return _bessel_kernel("full", alpha, t, x, y, dt=True)


def poisson_bessel_piece(piece, alpha: float, t, x, y):
    """Pieces of the Bessel Poisson kernel split.

    "1"  angular integral restricted to (0, pi/2);
    "11" sine weight replaced by its power of theta;
    "12" denominator flattened to (x-y)^2 + t^2 + xy theta^2;
    "13" the (negative) remainder integral over theta in (pi/2, infinity)
         that restores the classical kernel: piece "12" = classical + "13".
    """
    return _bessel_kernel(_piece_label(piece), alpha, t, x, y, dt=False)


def dt_poisson_bessel_piece(piece, alpha: float, t, x, y):
    """Analytic time derivative of a split piece."""
    return _bessel_kernel(_piece_label(piece), alpha, t, x, y, dt=True)


def heat_bessel(alpha: float, t, x, y):
    """Heat kernel of the Bessel-type operator (closed form, log-stable)."""
    _check_halfline(alpha, t, x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nu = alpha - 0.5
    arg = x * y / (2.0 * t)
    log_i = log_modified_bessel_i(nu, arg)
    log_val = 0.5 * np.log(x * y) - np.log(2.0 * t) + log_i - (x * x + y * y) / (4.0 * t)
    return np.exp(log_val)


# ---------------------------------------------------------------------------
# Harmonic oscillator (line) and Laguerre oscillator (half-line) heat kernels
# ---------------------------------------------------------------------------


def _log_sinh(t):
    """log(sinh t), valid for every t > 0 without overflow."""
    t = np.asarray(t, dtype=float)
    return t + np.log1p(-np.exp(-2.0 * t)) - math.log(2.0)


def heat_hermite(t, x, y):
    """Heat kernel of the harmonic oscillator -(1/2)(d^2/dx^2 - x^2).

    Evaluated in the shifted-quadratic form
        (2 pi sinh t)^(-1/2) exp(-[coth(t/2)(x-y)^2 + tanh(t/2)(x+y)^2]/4),
    which is stable for all t > 0 (large t reduces to the ground-state mode).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("heat_hermite requires t > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    th = np.tanh(0.5 * t)
    log_val = (
        -0.5 * (math.log(2.0 * math.pi) + _log_sinh(t))
        - 0.25 * ((x - y) ** 2 / th + (x + y) ** 2 * th)
    )
    return np.exp(log_val)


def heat_laguerre(alpha: float, t, x, y):
    """Heat kernel of the Laguerre-type oscillator on the half-line.

    Log-domain evaluation: the cross term I_nu(xi) with xi = xy/sinh(t) is
    combined with the Gaussian factor before exponentiating, so xi up to 1e6
    and beyond stays finite.  Where xi underflows (large t, tiny xy), log I
    is the leading series term nu (log xi - log 2) - log Gamma(nu + 1),
    built from log xi = log(xy) - log sinh t.
    """
    _check_halfline(alpha, t, x, y)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nu = alpha - 0.5
    log_sh = _log_sinh(t)
    log_xy = np.log(x) + np.log(y)
    log_xi = log_xy - log_sh
    xi = np.exp(log_xi)
    coth = 1.0 / np.tanh(t)
    log_i = np.where(
        xi < np.finfo(float).tiny,
        nu * (log_xi - math.log(2.0)) - gammaln(nu + 1.0),
        log_modified_bessel_i(nu, xi),
    )
    log_val = 0.5 * log_xy - log_sh + log_i - 0.5 * coth * (x * x + y * y)
    return np.exp(log_val)


# ---------------------------------------------------------------------------
# Dispatchers and subordination
# ---------------------------------------------------------------------------


def heat_kernel(setting: KernelSetting, t, x, y):
    """Heat kernel value(s) for any setting, signature (t, x, y)."""
    if setting.variant == "classical":
        return heat_classical(t, np.asarray(x) - np.asarray(y), diffusion=setting.diffusion)
    if setting.variant == "bessel":
        return heat_bessel(setting.alpha, t, x, y)
    if setting.variant == "hermite":
        return heat_hermite(t, x, y)
    return heat_laguerre(setting.alpha, t, x, y)


def poisson_via_subordination(
    setting: KernelSetting, t: float, x: float, y: float, rule: QuadratureRule | None = None
) -> IntegrationResult:
    """Poisson kernel obtained from the setting's heat kernel by subordination."""

    def g(u):
        return float(heat_kernel(setting, u, x, y))

    return integrate_subordination(g, t, rule=rule)


def _log_u_rule(t_min: float, level: int = 0):
    """Nodes u and weights du of the log-u panel rule serving every t >= t_min,
    with 2^level times the base number of panels per decade.

    Panel edges sit on a fixed lattice, so a node's position and weight do
    not depend on t_min; a smaller t_min only adds panels at the low end.
    """
    per_decade = _PANELS_PER_DECADE << level
    first = math.floor(per_decade * math.log10(t_min * t_min * _U_LOW))
    last = round(per_decade * _U_HIGH_DECADE)
    s, w = gauss_legendre_rule(0.0, 1.0, _PANEL_NODES)
    width = math.log(10.0) / per_decade
    u = np.exp(((np.arange(first, last)[:, None] + s[None, :]) * width).ravel())
    return u, u * np.tile(width * w, max(last - first, 0))


def _subordination_rules(setting: KernelSetting, times, dt):
    """Blocks (rows, u, weights) of log-u rules covering every row (time, dt).

    The rule's relative error is estimated on the heat kernel's ground mode
    e^{-lambda0 u}, whose subordination is exactly e^{-t sqrt(lambda0)}
    (times -sqrt(lambda0) for d/dt).  From t = 6 on this is within a factor
    2.5 of the normwise kernel error (Hermite, Laguerre alpha = 0.5, 1.5, 6
    on a 40 x 40 grid, against 32 panels per decade); below, where errors
    are small, it can undercount 30-fold.  A row over _SUBORDINATION_TOL
    moves to a lattice with twice the panels per decade, and past
    _MAX_REFINEMENTS doublings raises DomainError: Laguerre (alpha = 1.5)
    refines from t = 6.25 and raises past t ~ 27, where the mode's mass has
    slid below the first panel, min(t)^2/160.
    """
    lam0 = 0.5 if setting.variant == "hermite" else setting.alpha + 0.5
    root = math.sqrt(lam0)
    exact = np.exp(-root * times) * np.where(dt, -root, 1.0)
    rows = np.arange(times.size)
    blocks = []
    for level in range(_MAX_REFINEMENTS + 1):
        u, du = _log_u_rule(float(np.min(times[rows])), level)
        tt = times[rows, None]
        weights = np.exp(-tt * tt / (4.0 * u)) * u ** -1.5 * du / (2.0 * math.sqrt(math.pi))
        weights = weights * np.where(dt[rows, None], 1.0 - tt * tt / (2.0 * u), tt)
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.abs(weights @ np.exp(-lam0 * u) - exact[rows]) / np.abs(exact[rows])
        ok = err <= _SUBORDINATION_TOL
        if ok.any():
            blocks.append((rows[ok], u, weights[ok]))
        rows = rows[~ok]
        if rows.size == 0:
            return blocks
    raise DomainError(
        f"log-u subordination rule for {setting.describe()} misses relative error "
        f"{_SUBORDINATION_TOL:g} at t = {float(np.max(times[rows])):g}"
    )


def _subordinate(setting: KernelSetting, t, dt, x, y):
    """Kernels of an oscillator setting at a time, or one per row (time, dt)
    of a 1-D t along a leading axis: P_t, or d/dt P_t where dt is true.

    Each heat kernel W_u is evaluated once per node of the log-u rules and
    contracted with the (row x node) weight matrix

        value: t u^{-3/2} e^{-t^2/4u} / (2 sqrt(pi)) du,
        dt:    (1 - t^2/2u) u^{-3/2} e^{-t^2/4u} / (2 sqrt(pi)) du,

    so value and dt rows share one pass over the nodes.  Panel edges are
    fixed, so a row's value depends on the other rows in the call only
    through the negligible low-end panels a smaller time adds.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    dt = np.broadcast_to(dt, times.shape)
    blocks = _subordination_rules(setting, times, dt)
    u = np.concatenate([block[1] for block in blocks])
    weights = np.zeros((times.size, u.size))
    col = 0
    for rows, uu, w in blocks:
        weights[rows, col:col + uu.size] = w
        col += uu.size
    shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
    out = np.zeros((times.size, math.prod(shape)))
    # one decade of base nodes at a time bounds the heat-kernel block's memory
    step = _PANELS_PER_DECADE * _PANEL_NODES
    heat = np.empty((step,) + shape)
    for lo in range(0, u.size, step):
        block = heat[: u.size - lo]
        for q, uq in enumerate(u[lo:lo + step]):
            block[q] = heat_kernel(setting, uq, x, y)
        out += weights[:, lo:lo + step] @ block.reshape(len(block), -1)
    out = out.reshape(times.shape + shape)
    return out if np.ndim(t) else out[0]


def _check_times(t, label: str):
    t = np.asarray(t, dtype=float)
    if t.ndim > 1 or t.size == 0:
        raise DomainError(f"{label} takes a time or a nonempty 1-D array of times")
    if np.any(t <= 0.0):
        raise DomainError(f"{label} requires t > 0")


def poisson_kernel_grid(setting: KernelSetting, t, x, y):
    """Poisson kernel on broadcastable argument arrays.

    t is a time or a 1-D array of times; an array gives one kernel per time,
    stacked along a new leading axis.  Classical and Bessel settings use
    their closed and angular forms; oscillator settings subordinate the heat
    kernel on the log-u rule of this module,
    P_t = int_0^inf t u^{-3/2} e^{-t^2/4u} / (2 sqrt(pi)) W_u du.
    """
    _check_times(t, "poisson kernel")
    if setting.variant == "classical":
        z = np.asarray(x) - np.asarray(y)
        return poisson_classical(_lead(t, z.ndim), z, diffusion=setting.diffusion)
    if setting.variant == "bessel":
        return poisson_bessel(setting.alpha, t, x, y)
    return _subordinate(setting, t, dt=False, x=x, y=y)


def dt_poisson_kernel_grid(setting: KernelSetting, t, x, y):
    """Analytic time derivative of the Poisson kernel on argument arrays.

    t is a time or a 1-D array of times, as for poisson_kernel_grid.  For
    subordinated settings the derivative is taken under the integral:
    d/dt P_t = int_0^inf (1 - t^2/2u) u^{-3/2} e^{-t^2/4u} / (2 sqrt(pi)) W_u du.
    """
    _check_times(t, "dt poisson kernel")
    if setting.variant == "classical":
        z = np.asarray(x) - np.asarray(y)
        return dt_poisson_classical(_lead(t, z.ndim), z, diffusion=setting.diffusion)
    if setting.variant == "bessel":
        return dt_poisson_bessel(setting.alpha, t, x, y)
    return _subordinate(setting, t, dt=True, x=x, y=y)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _check_halfline(alpha: float, t, x, y):
    if alpha <= 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    if np.any(np.asarray(t) <= 0.0):
        raise DomainError("kernel requires t > 0")
    if np.any(np.asarray(x) <= 0.0) or np.any(np.asarray(y) <= 0.0):
        raise DomainError("half-line kernel requires x, y > 0")
