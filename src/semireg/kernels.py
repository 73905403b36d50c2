"""Heat and Poisson kernels for the four base operators.

Settings: the classical second-derivative operator on the line (with an
adjustable diffusion coefficient so the harmonic-oscillator scale has an
exact classical companion), the Bessel-type operator on the half-line, the
harmonic oscillator on the line, and the Laguerre-type oscillator on the
half-line.

Time derivatives of Poisson kernels are always analytic expressions
(differentiation happens under the integral sign), never numerical
differencing of kernel values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

#: default node counts for fixed-rule kernel quadrature
THETA_NODES = 96
SUBORDINATION_NODES = 96
_SUBORDINATION_WMAX = 8.0


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


def _bessel_sums(piece: str, alpha: float, t, x, y, n: int):
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
        j1 = j1 + np.sum(w1 * d ** (-p), axis=0)
        j2 = j2 + np.sum(w2 * d ** (-p - 1.0), axis=0)
    return sign, j1, j2


def _bessel_value(piece: str, alpha: float, t, x, y, n: int):
    sign, j1, _ = _bessel_sums(piece, alpha, t, x, y, n)
    return sign * (2.0 * alpha / math.pi) * (np.asarray(x) * np.asarray(y)) ** alpha * t * j1


def _bessel_dt(piece: str, alpha: float, t, x, y, n: int):
    sign, j1, j2 = _bessel_sums(piece, alpha, t, x, y, n)
    pref = sign * (2.0 * alpha / math.pi) * (np.asarray(x) * np.asarray(y)) ** alpha
    return pref * (j1 - 2.0 * (alpha + 1.0) * t * t * j2)


def _piece_label(piece) -> str:
    piece = str(piece)
    if piece not in _PIECES:
        raise DomainError(f"unknown piece {piece!r}")
    return piece


def poisson_bessel(alpha: float, t, x, y, n: int = THETA_NODES, rule: QuadratureRule | None = None):
    """Poisson kernel of the Bessel-type operator via its angular integral.

    If a rule is given, the quadrature is re-evaluated at 3n/2 nodes and the
    difference must satisfy the rule's tolerances (raises otherwise).
    """
    value = _bessel_value("full", alpha, t, x, y, n)
    if rule is not None:
        _enforce_rule(value, _bessel_value("full", alpha, t, x, y, (3 * n) // 2), rule, "poisson_bessel")
    return value


def dt_poisson_bessel(alpha: float, t, x, y, n: int = THETA_NODES):
    """Analytic time derivative of the Bessel Poisson kernel."""
    return _bessel_dt("full", alpha, t, x, y, n)


def poisson_bessel_piece(piece, alpha: float, t, x, y, n: int = THETA_NODES):
    """Pieces of the Bessel Poisson kernel split.

    "1"  angular integral restricted to (0, pi/2);
    "11" sine weight replaced by its power of theta;
    "12" denominator flattened to (x-y)^2 + t^2 + xy theta^2;
    "13" the (negative) remainder integral over theta in (pi/2, infinity)
         that restores the classical kernel: piece "12" = classical + "13".
    """
    return _bessel_value(_piece_label(piece), alpha, t, x, y, n)


def dt_poisson_bessel_piece(piece, alpha: float, t, x, y, n: int = THETA_NODES):
    """Analytic time derivative of a split piece."""
    return _bessel_dt(_piece_label(piece), alpha, t, x, y, n)


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
    and beyond stays finite; log I also covers xi that underflows (large t).
    """
    _check_halfline(alpha, t, x, y)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nu = alpha - 0.5
    log_sh = _log_sinh(t)
    xi = np.exp(np.log(x * y) - log_sh)
    coth = 1.0 / np.tanh(t)
    log_i = log_modified_bessel_i(nu, xi)
    log_val = 0.5 * np.log(x * y) - log_sh + log_i - 0.5 * coth * (x * x + y * y)
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


def _subordinate(setting: KernelSetting, t: float, x, y, n: int, dt: bool):
    """Fixed Gauss-Legendre subordination sum over w in (0, 8):

        sum_q wt_q e^{-w_q^2} [1 - 2 w_q^2 if dt] W_{t^2/4w_q^2}(x, y).
    """
    w, wt = gauss_legendre_rule(0.0, _SUBORDINATION_WMAX, n)
    acc = 0.0
    for wq, ww in zip(w, wt):
        weight = ww * math.exp(-wq * wq)
        if dt:
            weight = weight * (1.0 - 2.0 * wq * wq)
        acc = acc + weight * heat_kernel(setting, t * t / (4.0 * wq * wq), x, y)
    return acc


def poisson_kernel_grid(setting: KernelSetting, t: float, x, y, n: int = SUBORDINATION_NODES):
    """Poisson kernel on broadcastable argument arrays.

    Classical and Bessel settings use their analytic angular/closed forms;
    oscillator settings use the fixed Gauss-Legendre subordination rule
    P_t = (2/sqrt(pi)) int_0^inf e^{-w^2} W_{t^2/4w^2} dw.
    """
    if t <= 0.0:
        raise DomainError("poisson kernel requires t > 0")
    if setting.variant == "classical":
        return poisson_classical(t, np.asarray(x) - np.asarray(y), diffusion=setting.diffusion)
    if setting.variant == "bessel":
        return poisson_bessel(setting.alpha, t, x, y)
    return (2.0 / math.sqrt(math.pi)) * _subordinate(setting, t, x, y, n, dt=False)


def dt_poisson_kernel_grid(setting: KernelSetting, t: float, x, y, n: int = SUBORDINATION_NODES):
    """Analytic time derivative of the Poisson kernel on argument arrays.

    For subordinated settings the derivative is taken under the integral:
    d/dt P_t = (2/(t sqrt(pi))) int_0^inf e^{-w^2} (1 - 2 w^2) W_{t^2/4w^2} dw.
    """
    if t <= 0.0:
        raise DomainError("dt poisson kernel requires t > 0")
    if setting.variant == "classical":
        return dt_poisson_classical(t, np.asarray(x) - np.asarray(y), diffusion=setting.diffusion)
    if setting.variant == "bessel":
        return dt_poisson_bessel(setting.alpha, t, x, y)
    return (2.0 / (t * math.sqrt(math.pi))) * _subordinate(setting, t, x, y, n, dt=True)


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


def _enforce_rule(v1, v2, rule: QuadratureRule, label: str):
    from .errors import NonConvergenceError

    diff = np.max(np.abs(np.asarray(v1) - np.asarray(v2)))
    scale = np.max(np.abs(np.asarray(v2)))
    if diff > max(rule.atol, rule.rtol * scale) * 50.0:
        raise NonConvergenceError(f"{label}: quadrature not converged (diff {diff:.2g})")
