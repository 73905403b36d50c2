"""Heat and Poisson kernels for the four base operators.

Settings: the classical second-derivative operator on the line (with an
adjustable diffusion coefficient so the harmonic-oscillator scale has an
exact classical companion), the Bessel-type operator on the half-line, the
harmonic oscillator on the line, and the Laguerre-type oscillator on the
half-line.

Classical Poisson kernels are closed forms and Bessel ones angular
integrals.  The oscillator Poisson kernels are Bochner subordinations of
their closed-form heat kernels,

    P_t = int_0^inf t u^{-3/2} e^{-t^2/4u} / (2 sqrt(pi)) W_u du,

computed on a fixed log-u rule: 4-point Gauss-Legendre panels in log u on a
lattice of 4 panels per decade, from the panel that holds min(t)^2/160 up
to u = 10^2.5.  Each heat kernel W_u is evaluated once per node and shared
by every requested time, so a whole stack of times costs one pass over the
nodes.

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
    """
    _check_halfline(alpha, t, x, y)
    n = THETA_NODES
    shape = (n,) + (1,) * np.ndim(x * y)
    a = (x - y) ** 2 + t * t
    if piece == "13":
        tau, w = gauss_legendre_rule(0.0, 2.0 / math.pi, n)
        tau, w = tau.reshape(shape), w.reshape(shape)
        sign, w1, w2 = -1.0, w * tau, w * tau ** 3
        dens = (a * tau * tau + x * y,)
    else:
        beta = 2.0 * alpha - 1.0
        th, w = gauss_jacobi_rule(beta, math.pi / 2.0, n)
        th, w = th.reshape(shape), w.reshape(shape)
        if piece in ("full", "1"):
            w = w * (np.sin(th) / th) ** beta
        sign, w1, w2 = 1.0, w, w
        if piece == "12":
            dens = (a + x * y * th * th,)
        else:
            angles = (th, math.pi - th) if piece == "full" else (th,)
            # a generator: each denominator has shape (n,) + grid shape,
            # so only one is held at a time
            dens = (a + 2.0 * x * y * (1.0 - np.cos(angle)) for angle in angles)
    p = alpha + 1.0
    j1 = 0.0
    j2 = 0.0
    for d in dens:
        # one power per node: D^{-(a+2)} is D^{-(a+1)} / D, formed in place
        power = d ** (-p)
        j1 = j1 + np.sum(w1 * power, axis=0)
        power /= d
        j2 = j2 + np.sum(w2 * power, axis=0)
        del power  # freed before the generator forms the next D
    return sign, j1, j2


def _bessel_value(piece: str, alpha: float, t, x, y):
    sign, j1, _ = _bessel_sums(piece, alpha, t, x, y)
    return sign * (2.0 * alpha / math.pi) * (np.asarray(x) * np.asarray(y)) ** alpha * t * j1


def _bessel_dt(piece: str, alpha: float, t, x, y):
    sign, j1, j2 = _bessel_sums(piece, alpha, t, x, y)
    pref = sign * (2.0 * alpha / math.pi) * (np.asarray(x) * np.asarray(y)) ** alpha
    return pref * (j1 - 2.0 * (alpha + 1.0) * t * t * j2)


def _piece_label(piece) -> str:
    piece = str(piece)
    if piece not in _PIECES:
        raise DomainError(f"unknown piece {piece!r}")
    return piece


def poisson_bessel(alpha: float, t, x, y):
    """Poisson kernel of the Bessel-type operator via its angular integral."""
    return _bessel_value("full", alpha, t, x, y)


def dt_poisson_bessel(alpha: float, t, x, y):
    """Analytic time derivative of the Bessel Poisson kernel."""
    return _bessel_dt("full", alpha, t, x, y)


def poisson_bessel_piece(piece, alpha: float, t, x, y):
    """Pieces of the Bessel Poisson kernel split.

    "1"  angular integral restricted to (0, pi/2);
    "11" sine weight replaced by its power of theta;
    "12" denominator flattened to (x-y)^2 + t^2 + xy theta^2;
    "13" the (negative) remainder integral over theta in (pi/2, infinity)
         that restores the classical kernel: piece "12" = classical + "13".
    """
    return _bessel_value(_piece_label(piece), alpha, t, x, y)


def dt_poisson_bessel_piece(piece, alpha: float, t, x, y):
    """Analytic time derivative of a split piece."""
    return _bessel_dt(_piece_label(piece), alpha, t, x, y)


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


def _log_u_rule(t_min: float):
    """Nodes u and weights du of the log-u panel rule serving every t >= t_min.

    Panel edges sit on a fixed lattice, so a node's position and weight do
    not depend on t_min; a smaller t_min only adds panels at the low end.
    """
    first = math.floor(_PANELS_PER_DECADE * math.log10(t_min * t_min * _U_LOW))
    last = round(_PANELS_PER_DECADE * _U_HIGH_DECADE)
    s, w = gauss_legendre_rule(0.0, 1.0, _PANEL_NODES)
    width = math.log(10.0) / _PANELS_PER_DECADE
    u = np.exp(((np.arange(first, last)[:, None] + s[None, :]) * width).ravel())
    return u, u * np.tile(width * w, max(last - first, 0))


def _subordinate(setting: KernelSetting, t, x, y, dt: bool):
    """P_t (or d/dt P_t) of an oscillator setting for a time or a 1-D array of times.

    Each heat kernel W_u is evaluated once per node of the log-u rule and
    contracted with the (time x node) weight matrix

        value: t u^{-3/2} e^{-t^2/4u} / (2 sqrt(pi)) du,
        dt:    (1 - t^2/2u) u^{-3/2} e^{-t^2/4u} / (2 sqrt(pi)) du.

    The integrand's peak in log u narrows like t^{-1/2}, so the rule is
    accurate for the times the operators use: against a 96-node rule in
    w = t/(2 sqrt(u)) on a 40 x 40 grid, Laguerre (alpha = 1.5) kernels
    differ by at most 1.4e-7 normwise for t <= 4, 9e-7 at t = 6 and 2e-5
    at t = 10.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    u, du = _log_u_rule(float(np.min(times)))
    tt = times[:, None]
    weights = np.exp(-tt * tt / (4.0 * u)) * u ** -1.5 * du / (2.0 * math.sqrt(math.pi))
    weights = weights * ((1.0 - tt * tt / (2.0 * u)) if dt else tt)
    shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
    out = np.zeros((times.size, math.prod(shape)))
    # one decade of nodes at a time bounds the heat-kernel block's memory
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


def _per_time(kernel, t):
    """kernel(t), or for a 1-D t the kernels at its times along a new leading axis."""
    if np.ndim(t) == 0:
        return kernel(t)
    out = None
    for j, s in enumerate(t):
        k = kernel(s)
        if out is None:
            out = np.empty((len(t),) + np.shape(k))
        out[j] = k
    return out


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
        return _per_time(lambda s: poisson_classical(s, z, diffusion=setting.diffusion), t)
    if setting.variant == "bessel":
        return _per_time(lambda s: poisson_bessel(setting.alpha, s, x, y), t)
    return _subordinate(setting, t, x, y, dt=False)


def dt_poisson_kernel_grid(setting: KernelSetting, t, x, y):
    """Analytic time derivative of the Poisson kernel on argument arrays.

    t is a time or a 1-D array of times, as for poisson_kernel_grid.  For
    subordinated settings the derivative is taken under the integral:
    d/dt P_t = int_0^inf (1 - t^2/2u) u^{-3/2} e^{-t^2/4u} / (2 sqrt(pi)) W_u du.
    """
    _check_times(t, "dt poisson kernel")
    if setting.variant == "classical":
        z = np.asarray(x) - np.asarray(y)
        return _per_time(lambda s: dt_poisson_classical(s, z, diffusion=setting.diffusion), t)
    if setting.variant == "bessel":
        return _per_time(lambda s: dt_poisson_bessel(setting.alpha, s, x, y), t)
    return _subordinate(setting, t, x, y, dt=True)


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
