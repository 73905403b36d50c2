"""Heat and Poisson kernels for the four base operators.

Settings: the classical second-derivative operator on the line (with an
adjustable diffusion coefficient so the harmonic-oscillator scale has an
exact classical companion), the Bessel-type operator on the half-line, the
harmonic oscillator on the line, and the Laguerre-type oscillator on the
half-line.

Every Poisson kernel function takes a time or a 1-D array of times; an
array gives one kernel per time along a new leading (lag) axis.  Classical
Poisson kernels are closed forms; so are the Bessel kernel (2F1s summed
as two convergent power series, _bessel_g) and its elementary split pieces
"12" and "13".  Bessel pieces "1", "11" and "2" are
angular quadratures with a node count per time (_bessel_angular).  The
oscillator Poisson kernels are Bochner subordinations of their closed-form
heat kernels,

    P_t = int_0^inf t u^{-3/2} e^{-t^2/4u} / (2 sqrt(pi)) W_u du,

on a fixed log-u panel rule that evaluates each heat kernel once per node
for a whole stack of times (_subordinate), refined, or DomainError, where
its estimated error is too large (_subordination_rules).  Time derivatives
are analytic (differentiation under the integral sign), never numerical
differencing of kernel values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import digamma, gammaln, rgamma

from .errors import CapabilityError, DomainError
from .quad import (
    IntegrationResult,
    gauss_jacobi_rule,
    gauss_legendre_rule,
    integrate_subordination,
)
from .specfun import log_modified_bessel_i

__all__ = [
    "KernelSetting",
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

# angular Gauss-Jacobi nodes built and contracted at once: bounds a call's memory
_NODE_BLOCK = 96

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


_PIECES = ("1", "11", "12", "13", "2")
# alphas where _bessel_g gives the whole kernel's 2F1s to 1e-14 (see poisson_bessel)
_WHOLE_KERNEL_ALPHAS = (0.02, 10.0)
# _bessel_g's series: in zeta up to _ZETA_SPLIT (w = 1 - z > 0.031), in w past it
_ZETA_SPLIT = 0.7
_ZETA_TERMS = 80
_LOG_TERMS = 24


@functools.cache
def _bessel_series(alpha: float):
    """Read-only coefficients of _bessel_g's polynomials, lowest power first:
    column k - 1 of the first for G_k's series in zeta; columns 2k - 2 and
    2k - 1 of the second for the parts of G_k without and with the factor
    log w, the finite sum of DLMF 15.8.10 included."""
    c = alpha + 0.5
    n, j = np.arange(_ZETA_TERMS - 1.0), np.arange(float(_LOG_TERMS))
    in_zeta = np.ones((_ZETA_TERMS, 2))
    in_w = np.zeros((_LOG_TERMS + 2, 4))
    for k in (1, 2):
        in_zeta[1:, k - 1] = np.cumprod((alpha - k + n) * (0.5 - k + n) / ((c + n) * (n + 1.0)))
        a, b = 0.5 * (alpha + 1.0 - k), 0.5 * (alpha - k)
        in_w[:k, 2 * k - 2] = math.gamma(c) * rgamma(a + k) * rgamma(b + k) * np.array([1.0, -a * b][:k])
        ratio = (a + k + j[:-1]) * (b + k + j[:-1]) / ((j[:-1] + 1.0) * (j[:-1] + k + 1.0))
        log_part = ((-1.0) ** (k + 1) * math.gamma(c) * rgamma(a) * rgamma(b) / math.factorial(k)
                    * np.cumprod(np.append(1.0, ratio)))
        psi = digamma(a + k + j) + digamma(b + k + j) - digamma(j + 1.0) - digamma(j + k + 1.0)
        in_w[k:k + _LOG_TERMS, 2 * k - 2] = log_part * psi
        in_w[k:k + _LOG_TERMS, 2 * k - 1] = log_part
    in_zeta.flags.writeable = in_w.flags.writeable = False
    return in_zeta, in_w


def _horner(coef, x):
    """Every column of coef (lowest power first) as a polynomial at x: (columns, x.size)."""
    out = np.zeros((coef.shape[1], x.size))
    for row in coef[::-1]:
        out *= x
        out += row[:, None]
    return out


def _bessel_g(alpha: float, big_a, xy, count: int):
    """G_k = 2F1((a+1-k)/2, (a-k)/2; a+1/2; z), k = 1, ..., count, z = (2xy/s)^2,
    s = A + 2xy, each on a leading axis (see poisson_bessel); A has the shape
    of the result."""
    s = big_a + 2.0 * xy
    big_b = big_a + 4.0 * xy
    q = np.sqrt(big_a * big_b)
    zeta = (2.0 * xy / (s + q)) ** 2  # (1 - sqrt w)/(1 + sqrt w), w = 1 - z
    in_zeta, in_w = _bessel_series(alpha)
    g = np.empty((count,) + np.shape(big_a))
    near = zeta > _ZETA_SPLIT
    far = ~near
    r = (s[far] + q[far]) / (2.0 * s[far])
    # DLMF 15.8 (quadratic transformation): G_k = r^{k-a} F(a-k, 1/2-k; a+1/2; zeta)
    g[:, far] = r ** (1.0 - alpha) * _horner(in_zeta[:, :count], zeta[far])
    if count == 2:
        g[1, far] *= r
    if near.any():
        # DLMF 15.8.10 with c - a - b = k
        w = (big_a[near] / s[near]) * (big_b[near] / s[near])
        parts = _horner(in_w[:, :2 * count], w)
        g[:, near] = parts[0::2] + np.log(w) * parts[1::2]
    return g


def _bessel_angular(piece: str, alpha: float, t, x, y, dt: bool):
    """Piece "1" or "11", or the obtuse half "2" ("1" + "2" is the kernel), or
    its t-derivative: (2a/pi) (xy)^a t J1, or (2a/pi) (xy)^a (J1 - 2(a+1) t^2
    J2), J1 and J2 the integrals over (0, pi/2) of weight(th) D^{-(a+1)} and
    weight(th) D^{-(a+2)}, D = (x-y)^2 + t^2 + 4xy sin^2(th/2), weight (sin
    th)^{2a-1} ("11": th^{2a-1}, carried by the Gauss-Jacobi rule); "2" takes
    th -> pi - th.  D = 0 at th = i s ("2": pi + i s), cosh s = 1 + A/2xy,
    which is c + ib, b = 4s/pi, c = -1 ("2": 3) once (0, pi/2) is mapped onto
    (-1, 1).  Gauss error falls like rho^{-2n}, log rho = arccosh((|c+ib+1| +
    |c+ib-1|)/2) (Trefethen, ATAP Thm 19.3), so a time takes n = 18.4/log rho
    nodes for its nearest pair, up to a multiple of 8 and at least 12.  Times
    with one n share the base D - t^2, built and contracted _NODE_BLOCK nodes
    at a time so memory does not grow with n.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grid = np.broadcast(x, y).shape
    xy, dd = (x * y).ravel(), ((x - y) ** 2).ravel()
    q = np.array([np.min((dd + s * s) / (2.0 * xy), initial=np.inf) for s in times])
    b = (4.0 / math.pi) * np.arccosh(1.0 + q)
    c = 3.0 if piece == "2" else -1.0
    log_rho = np.arccosh(0.5 * (np.hypot(c + 1.0, b) + np.hypot(c - 1.0, b)))
    counts = np.maximum(12, 8 * np.ceil(18.4 / (8.0 * log_rho)).astype(int))
    beta = 2.0 * alpha - 1.0
    p = alpha + 1.0
    j = np.zeros((1 + dt, times.size, xy.size))
    buf = np.empty((3, min(_NODE_BLOCK, counts.max()), xy.size))
    for n in np.unique(counts):
        th, w = gauss_jacobi_rule(beta, math.pi / 2.0, int(n))
        if piece != "11":
            w = w * (np.sin(th) / th) ** beta
        half = 0.5 * (math.pi - th if piece == "2" else th)
        for lo in range(0, n, _NODE_BLOCK):
            wb = w[lo:lo + _NODE_BLOCK]
            base, d, power = buf[:, :wb.size]
            np.multiply(4.0 * np.sin(half[lo:lo + wb.size, None]) ** 2, xy, out=base)
            base += dd
            for k in np.flatnonzero(counts == n):
                np.add(base, times[k] ** 2, out=d)
                # one power per node: D^{-(a+2)} is D^{-(a+1)} / D
                np.power(d, -p, out=power)
                j[0, k] += wb @ power
                if dt:
                    power /= d
                    j[1, k] += wb @ power
    pref = (2.0 * alpha / math.pi) * xy ** alpha
    tt = times[:, None]
    out = pref * (j[0] - 2.0 * p * tt * tt * j[1]) if dt else pref * tt * j[0]
    return out.reshape(times.shape + grid if np.ndim(t) else grid)


def _lead(t, ndim: int):
    """t with ndim trailing unit axes, so that a 1-D t spans a leading time axis."""
    return np.reshape(t, np.shape(t) + (1,) * ndim)


def _bessel_closed(piece: str, alpha: float, t, x, y, dt: bool):
    """The kernel ("full"), piece "12" or "13", or its t-derivative, in closed form."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = _lead(np.asarray(t, dtype=float), np.broadcast(x, y).ndim)
    d = x - y
    big_a = d * d + t * t
    if piece == "full":
        lo, hi = _WHOLE_KERNEL_ALPHAS
        if not lo <= alpha <= hi:
            raise DomainError(f"the whole Bessel kernel needs {lo:g} <= alpha <= {hi:g}, got {alpha:g}")
        s = big_a + 2.0 * x * y
        h = s / (big_a * (big_a + 4.0 * x * y))  # 1 / (s (1 - z)), 1 - z formed exactly
        g = _bessel_g(alpha, big_a, x * y, 1 + dt)
        c = (2.0 * alpha / math.pi) * beta_fn(alpha, 0.5) * (x * y / s) ** alpha * h
        out = c * (g[0] - 2.0 * (alpha + 1.0) * t * t * h * g[1]) if dt else c * t * g[0]
        if not np.all(np.isfinite(out)):
            raise DomainError(f"the whole Bessel kernel is not finite at alpha = {alpha:g}")
        return out
    xys = x * y * (math.pi ** 2 / 4.0)
    w_a = (xys / (big_a + xys)) ** alpha
    cl = t / (math.pi * big_a)  # the classical kernel P_t(x - y)
    lift = w_a if piece == "12" else np.expm1(-alpha * np.log1p(big_a / xys))
    if not dt:
        return cl * lift
    # d^2 - t^2 factored: accurate to rounding where |x - y| is close to t
    dcl = (d - t) * (d + t) / (math.pi * big_a * big_a)
    return dcl * lift - 2.0 * alpha * t * w_a * cl / (big_a + xys)


def _bessel_kernel(piece: str, alpha: float, t, x, y, dt: bool):
    _check_times(t, "bessel kernel")
    _check_halfline(alpha, t, x, y)
    closed = piece in ("full", "12", "13")
    return (_bessel_closed if closed else _bessel_angular)(piece, alpha, t, x, y, dt)


def _piece_label(piece) -> str:
    piece = str(piece)
    if piece not in _PIECES:
        raise DomainError(f"unknown piece {piece!r}")
    return piece


def poisson_bessel(alpha: float, t, x, y):
    """Poisson kernel of the Bessel-type operator, in closed form.

    The kernel (2a/pi) (xy)^a t int_0^pi (sin th)^{2a-1} D^{-(a+1)} dth, with
    D = A + 2xy(1 - cos th) and A = (x-y)^2 + t^2, expanded in powers of
    cos th (DLMF 15.2) and Euler-transformed (DLMF 15.8.1) to take out the
    pole at z = 1 with 1 - z formed exactly, is P_t = C t G_1, and
    d/dt P_t = C (G_1 - 2(a+1) t^2 h G_2), where s = A + 2xy, z = (2xy/s)^2,
    h = s/(A (A + 4xy)), C = (2a/pi) B(a, 1/2) (xy/s)^a h and
    G_k = 2F1((a+1-k)/2, (a-k)/2; a+1/2; z).  With w = 1 - z = (A/s)((A +
    4xy)/s), q = sqrt(A (A + 4xy)) and zeta = (2xy/(s + q))^2 = (1 - sqrt
    w)/(1 + sqrt w), all formed without cancellation, G_k is summed in
    numpy as one of two power series: for zeta <= 0.7 the quadratic
    transformation G_k = ((s + q)/2s)^{k-a} 2F1(a-k, 1/2-k; a+1/2; zeta)
    (DLMF 15.8(iii)), 80 terms; beyond, where w < 0.031, the logarithmic
    expansion about z = 1 for the integer c - a - b = k (DLMF 15.8.10), 24
    terms.  G_k is within 1.3e-15 relative of 40-digit mpmath for 0.02 <= a
    <= 10 and 1e-16 <= w <= 1; past a = 12 the error grows (1.2e-13 at
    a = 20, 4.7e-10 at a = 40).  DomainError is raised for a outside
    [0.02, 10], and where the kernel is not finite.
    Kernel and t-derivative are within 2e-14 relative of 30-digit
    quadrature for x/t in [2, 1000] and at t/x = 1e4; near the derivative's
    sign change, |x - y| ~ t, its error is that of the difference (2e-10
    relative at x/t = 1000, y - x = t).
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
         that restores the classical kernel: piece "12" = classical + "13";
    "2"  the obtuse half, over (pi/2, pi): "1" + "2" is the kernel.

    "1", "11" and "2" are quadratures with a node count per time; at x = y,
    x/t up to 1000 and a = 0.55, 1.5, 2.3, "1" and "11" are within 1e-10
    relative of 30-digit quadrature, value and t-derivative.  w = xy th^2/(A
    + xy th^2) makes "12" and "13" elementary: with A = (x-y)^2 + t^2, W =
    xyS/(A + xyS), S = pi^2/4 and the classical kernel P = t/(pi A), "12" =
    P W^a and "13" = P (W^a - 1),
    W^a - 1 = expm1(-a log1p(A/(xyS))); their t-derivatives subtract
    2a t W^a P/(A + xyS) from P' W^a and P' (W^a - 1).  Value and derivative
    are within 1e-15 relative of 30-digit quadrature for x/t in [2, 1000]
    and at t/x = 1e4.
    """
    return _bessel_kernel(_piece_label(piece), alpha, t, x, y, dt=False)


def dt_poisson_bessel_piece(piece, alpha: float, t, x, y):
    """Analytic time derivative of a split piece."""
    return _bessel_kernel(_piece_label(piece), alpha, t, x, y, dt=True)


def heat_bessel(alpha: float, t, x, y):
    """Heat kernel of the Bessel-type operator (closed form, log-stable).

    The growth e^xi of I_nu(xi), xi = xy/2t, is folded into the Gaussian
    factor analytically, xi - (x^2 + y^2)/4t = -(x - y)^2/4t, so only the
    scaled log(I_nu(xi) e^{-xi}) is evaluated and nothing cancels at large xi.
    """
    _check_halfline(alpha, t, x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nu = alpha - 0.5
    arg = x * y / (2.0 * t)
    log_ive = log_modified_bessel_i(nu, arg)
    log_val = 0.5 * np.log(x * y) - np.log(2.0 * t) + log_ive - (x - y) ** 2 / (4.0 * t)
    return np.exp(log_val)


# ---------------------------------------------------------------------------
# Harmonic oscillator (line) and Laguerre oscillator (half-line) heat kernels
# ---------------------------------------------------------------------------


def _log_sinh(t):
    """log(sinh t), valid for every t > 0 without overflow."""
    t = np.asarray(t, dtype=float)
    return t + np.log(-np.expm1(-2.0 * t)) - math.log(2.0)


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

    Log-domain evaluation: the growth e^xi of the cross term I_nu(xi),
    xi = xy/sinh(t), is folded into the Gaussian factor analytically,
    xi - coth(t) (x^2 + y^2)/2 = -coth(t) (x - y)^2/2 - xy tanh(t/2), so only
    the scaled log(I_nu(xi) e^{-xi}) is evaluated and nothing cancels at
    large xi.  Where xi underflows (large t, tiny xy), that is the leading
    series term nu (log xi - log 2) - log Gamma(nu + 1), built from
    log xi = log(xy) - log sinh t.
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
    log_ive = np.where(
        xi < np.finfo(float).tiny,
        nu * (log_xi - math.log(2.0)) - gammaln(nu + 1.0),
        log_modified_bessel_i(nu, xi),
    )
    gauss = 0.5 * (x - y) ** 2 / np.tanh(t) + x * y * np.tanh(0.5 * t)
    log_val = 0.5 * log_xy - log_sh + log_ive - gauss
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


def poisson_via_subordination(setting: KernelSetting, t: float, x: float, y: float) -> IntegrationResult:
    """Poisson kernel obtained from the setting's heat kernel by adaptive
    subordination (quad.integrate_subordination)."""

    def g(u):
        return float(heat_kernel(setting, u, x, y))

    return integrate_subordination(g, t)


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


def _eigenvalues(setting: KernelSetting, n: int):
    """The n lowest eigenvalues of an oscillator setting, k + 1/2 (Hermite) or
    2k + alpha + 1/2 (Laguerre) for k < n; CapabilityError for other settings."""
    k = np.arange(n)
    if setting.variant == "hermite":
        return k + 0.5
    if setting.variant == "laguerre":
        return 2.0 * k + setting.alpha + 0.5
    raise CapabilityError(f"{setting.describe()} has no discrete spectrum")


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
    lam0 = float(_eigenvalues(setting, 1)[0])
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
    # one heat call per decade of base nodes, u as a column against (x, y):
    # its temporaries, 16 kernels' worth, bound the call's memory
    step = _PANELS_PER_DECADE * _PANEL_NODES
    for lo in range(0, u.size, step):
        block = heat_kernel(setting, u[lo:lo + step].reshape((-1,) + (1,) * len(shape)), x, y)
        out += weights[:, lo:lo + step] @ block.reshape(block.shape[0], -1)
    out = out.reshape(times.shape + shape)
    return out if np.ndim(t) else out[0]


def _check_times(t, label: str):
    t = np.asarray(t, dtype=float)
    if t.ndim > 1 or t.size == 0:
        raise DomainError(f"{label} takes a time or a nonempty 1-D array of times")
    if np.any(t <= 0.0):
        raise DomainError(f"{label} requires t > 0")


def _check_halfline(alpha: float, t, x, y):
    if alpha <= 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    if np.any(np.asarray(t) <= 0.0):
        raise DomainError("kernel requires t > 0")
    if np.any(np.asarray(x) <= 0.0) or np.any(np.asarray(y) <= 0.0):
        raise DomainError("half-line kernel requires x, y > 0")


def poisson_kernel_grid(setting: KernelSetting, t, x, y):
    """Poisson kernel on broadcastable argument arrays.

    t is a time or a 1-D array of times; an array gives one kernel per time,
    stacked along a new leading axis.  Classical and Bessel settings use
    closed forms; oscillator settings subordinate the heat kernel on the
    log-u rule of this module,
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
