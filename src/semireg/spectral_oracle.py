"""Independent brute-force oracles for the kernel formulas.

Eigenfunction-series kernels for the oscillator settings (spectrum from
_modes), the Hankel multiplier route to the Bessel Poisson kernel, the
generator's eigen-identity residuals, and the spectral square root of the
generator. Everything here is deliberately slow and direct; the point is
independence from the closed forms in `kernels`.
The Hankel routes share one graded frequency rule, dyadic toward z = 0;
its error against a denser graded rule is measured in `_frequency_panels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError
from .kernels import KernelSetting, _eigenvalues
from .quad import Grid1D, gauss_legendre_panels
from .specfun import (
    DEFAULT_INDEX_CAP,
    bessel_j,
    hermite_function_table,
    laguerre_function_table,
)

__all__ = [
    "SeriesValue",
    "hermite_heat_series",
    "hermite_poisson_series",
    "laguerre_heat_series",
    "poisson_series_terms",
    "hankel_poisson_oracle",
    "hankel_poisson_kernel_oracle",
    "eigen_identity_residual",
    "sqrt_generator_apply",
]

_SQRT_MODES = 128  # oscillator modes in the spectral square root


@dataclass(frozen=True)
class SeriesValue:
    """A truncated eigenfunction-series evaluation with its tail bound."""

    value: float
    truncation_bound: float
    terms: int


def _modes(setting: KernelSetting, n: int, x):
    """The n lowest eigenvalues of an oscillator setting and its orthonormal
    eigenfunctions at x: (lambda, table of shape (n,) + x.shape).
    CapabilityError for a setting without a discrete spectrum."""
    lam = _eigenvalues(setting, n)
    if setting.variant == "hermite":
        return lam, hermite_function_table(n - 1, x, index_cap=n)
    return lam, laguerre_function_table(n - 1, setting.alpha, x, index_cap=n)


def _mode_sum(setting: KernelSetting, multiplier, t: float, x: float, y: float,
              n_terms: int, index_cap: int) -> float:
    """sum of multiplier(lambda_k) phi_k(x) phi_k(y) over k < n_terms, the
    largest index first so that small terms accumulate before large ones."""
    if t <= 0.0:
        raise DomainError("series requires t > 0")
    if n_terms < 1 or n_terms > index_cap:
        raise DomainError(f"n_terms must lie in [1, {index_cap}]")
    lam, table = _modes(setting, n_terms, np.array([x, y], dtype=float))
    terms = multiplier(lam) * table[:, 0] * table[:, 1]
    return float(np.sum(terms[::-1]))


def _heat_series(setting: KernelSetting, t: float, x: float, y: float, n_terms: int,
                 index_cap: int) -> SeriesValue:
    """Heat kernel as the sum of e^{-lambda_k t} phi_k(x) phi_k(y), k < N = n_terms,
    with tail bound e^{-lambda_N t}/(1 - e^{-Delta t}), Delta the eigenvalue
    spacing: a geometric series, the eigenfunctions bounded by 1."""
    value = _mode_sum(setting, lambda lam: np.exp(-lam * t), t, x, y, n_terms, index_cap)
    lam = _eigenvalues(setting, n_terms + 1)
    bound = math.exp(-lam[-1] * t) / (1.0 - math.exp(-(lam[1] - lam[0]) * t))
    return SeriesValue(value, bound, n_terms)


def hermite_heat_series(t: float, x: float, y: float, n_terms: int,
                        index_cap: int = DEFAULT_INDEX_CAP) -> SeriesValue:
    """Oscillator heat kernel as sum of e^{-(k+1/2)t} h_k(x) h_k(y), k < n_terms,
    with the tail bound e^{-(n_terms+1/2)t}/(1-e^{-t})."""
    return _heat_series(KernelSetting("hermite"), t, x, y, n_terms, index_cap)


def hermite_poisson_series(t: float, x: float, y: float, n_terms: int,
                           index_cap: int = DEFAULT_INDEX_CAP) -> SeriesValue:
    """Oscillator Poisson kernel as sum of e^{-t sqrt(k+1/2)} h_k(x) h_k(y), k < n_terms,
    with the tail bound (2/t^2)(1 + t r) e^{-t r}, r = sqrt(n_terms + 1/2)."""
    value = _mode_sum(KernelSetting("hermite"), lambda lam: np.exp(-t * np.sqrt(lam)), t, x, y,
                      n_terms, index_cap)
    return SeriesValue(value, _poisson_tail(t, n_terms), n_terms)


def laguerre_heat_series(alpha: float, t: float, x: float, y: float, n_terms: int,
                         index_cap: int = DEFAULT_INDEX_CAP) -> SeriesValue:
    """Laguerre-oscillator heat kernel as sum of e^{-(2k+a+1/2)t} f_k(x) f_k(y),
    k < n_terms, with the tail bound e^{-(2 n_terms+a+1/2)t}/(1-e^{-2t})."""
    return _heat_series(KernelSetting("laguerre", alpha=alpha), t, x, y, n_terms, index_cap)


def _poisson_tail(t: float, n: int) -> float:
    """Oscillator Poisson series tail after n terms, by integral comparison of e^{-t sqrt(s)}."""
    root = math.sqrt(n + 0.5)
    return (2.0 / (t * t)) * (1.0 + t * root) * math.exp(-t * root)


def poisson_series_terms(t: float, tol: float) -> int:
    """Smallest N whose poisson-series tail bound falls below tol."""
    if t <= 0.0 or tol <= 0.0:
        raise DomainError("need t > 0 and tol > 0")
    n = 4
    while n < 10 ** 7:
        if _poisson_tail(t, n) <= tol:
            return n
        n = int(n * 1.3) + 1
    raise NonConvergenceError("poisson series tail bound does not reach tolerance")


def _multiplier_apply(table, weights, values, multiplier):
    """A spectral multiplier along the last axis of sampled values: the
    transform sum_j table[k, j] weights[j] values[..., j], times
    multiplier[k], carried back through the table."""
    coeff = np.tensordot(values * weights, table, axes=([-1], [1]))
    return np.tensordot(coeff * multiplier, table, axes=([-1], [0]))


# ---------------------------------------------------------------------------
# Hankel transform machinery for the Bessel setting
# ---------------------------------------------------------------------------


def _frequency_panels(z_max: float, panel_len: float):
    """Graded composite Gauss-Legendre rule on (0, z_max], 8 nodes per panel.

    Edges 0, L 2^-21, ..., L/2, L, then equal panels of length <= L up to
    z_max; L = panel_len resolves the Bessel oscillation, and the dyadic
    panels the z^{2 alpha} behaviour of the integrands at z = 0.  Callers
    take L = pi/(max x + 1), half an oscillation.  Against 32 nodes per
    panel of length L/2 and 60 dyadic levels, the Poisson oracle (t = 0,
    0.7) and the Bessel square root on (0, 6)/120, (0, 8)/200 and (0, 10)/400
    nodes agree to 1.1e-14 normwise for alpha in {0.55, 1.5, 3, 6, 10},
    1.6e-14 at alpha = 0.3 and 2.9e-11 at alpha = 0.05, where the z^{2 alpha}
    endpoint sets the error (L/2 with 20 dyadic levels: 1.3e-14 at alpha =
    0.3, the same elsewhere; L with 20 levels: twice that at alpha = 0.3 and
    0.05; 3L: 2.5e-7).
    """
    if not z_max > panel_len > 0.0:
        raise DomainError("need z_max > panel length > 0")
    n = math.ceil(z_max / panel_len) - 1
    edges = np.concatenate([[0.0], panel_len * 2.0 ** np.arange(-21, 0),
                            np.linspace(panel_len, z_max, n + 1)])
    return gauss_legendre_panels(edges, 8)


def _hankel_rule(nu: float, x):
    """Frequency rule (z, w) on (0, 40] for samples on the nodes x, and the
    (z x x) Hankel matrix sqrt(zx) J_nu(zx) on it; its transpose is the
    x x z one."""
    if not np.all(x >= 0.0):
        raise DomainError("Hankel nodes must be nonnegative")
    z, w = _frequency_panels(40.0, math.pi / (np.max(x) + 1.0))
    arg = np.multiply.outer(z, x)
    return z, w, np.sqrt(arg) * bessel_j(nu, arg)


def _simpson_weights(x):
    """Composite Simpson weights on uniform nodes x, scipy.integrate.simpson's
    rule: (h/3)(1, 4, 2, ..., 4, 1) on an odd node count; on an even count,
    that rule on all but the last node plus Cartwright's last-interval
    correction (h/12)(-1, 8, 5) on the last three."""
    n = x.size
    if n < 3:
        raise DomainError("Simpson weights need at least three nodes")
    if not Grid1D(x, domain="interval").is_uniform:
        raise DomainError("Simpson weights need uniform nodes")
    h = (x[-1] - x[0]) / (n - 1)
    m = n - 1 + n % 2  # nodes under the plain Simpson rule
    w = np.zeros(n)
    w[1:m - 1] = np.where(np.arange(1, m - 1) % 2, 4.0, 2.0)
    w[0] = w[m - 1] = 1.0
    w *= h / 3.0
    if m < n:
        w[-3:] += (h / 12.0) * np.array([-1.0, 8.0, 5.0])
    return w


def hankel_poisson_oracle(alpha: float, t: float, x_nodes, f_values):
    """Poisson semigroup applied to a sampled function via the Hankel route.

    Forward transform, multiplication by e^{-t z}, inverse transform (the
    transform is its own inverse, so one kernel matrix serves both ways).
    t = 0 performs a pure round-trip.  The x-samples must lie on a uniform
    grid (DomainError otherwise): composite Simpson keeps the
    sample-integration error at fourth order.
    """
    if not (alpha > 0.0 and 0.0 <= t < math.inf):
        raise DomainError("need alpha > 0 and a finite t >= 0")
    x, f = np.asarray(x_nodes, dtype=float), np.asarray(f_values, dtype=float)
    if x.ndim != 1 or f.shape != x.shape:
        raise DomainError("nodes and samples must be 1-D arrays of one length")
    z, w, kernel = _hankel_rule(alpha - 0.5, x)
    return _multiplier_apply(kernel, _simpson_weights(x), f, np.exp(-t * z) * w)


def hankel_poisson_kernel_oracle(alpha: float, t: float, x: float, y: float) -> float:
    """Pointwise Bessel Poisson kernel through its continuous eigenexpansion:
    sqrt(xy) int_0^inf z e^{-tz} J_nu(xz) J_nu(yz) dz."""
    if not all(0.0 < v < math.inf for v in (alpha, t, x, y)):
        raise DomainError("all arguments must be positive and finite")
    nu = alpha - 0.5
    # e^{-tz} controls the tail; panels of half an oscillation of J_nu J_nu
    z, w = _frequency_panels(max(40.0, 40.0 / t), math.pi / (x + y + 1.0))
    vals = z * np.exp(-t * z) * bessel_j(nu, x * z) * bessel_j(nu, y * z)
    return math.sqrt(x * y) * float(np.sum(w * vals))


# ---------------------------------------------------------------------------
# Eigen-identity residuals by three-point stencils
# ---------------------------------------------------------------------------


def _generator_coefficients(setting: KernelSetting, x):
    """Coefficients (a, b, c) of the differential expression a f'' + b f' + c f."""
    if setting.variant == "classical":
        c = setting.diffusion
        return -c * np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    if setting.variant == "bessel":
        a = setting.alpha
        return -np.ones_like(x), np.zeros_like(x), a * (a - 1.0) / (x * x)
    if setting.variant == "hermite":
        return -0.5 * np.ones_like(x), np.zeros_like(x), 0.5 * x * x
    a = setting.alpha
    return (-0.5 * np.ones_like(x), np.zeros_like(x),
            0.5 * (x * x + a * (a - 1.0) / (x * x)))


def _stencil_apply(coeffs, nodes, values) -> np.ndarray:
    """a f'' + b f' + c f at the interior nodes.

    Three-point stencils on possibly non-uniform nodes; the first derivative
    is second order, the second derivative is second order when the spacing
    varies smoothly (the image of a uniform grid under a smooth map does).
    The second derivative is a difference of slopes: weighting the three
    samples separately would cancel terms of size f/h^2 down to f''.
    """
    x = np.asarray(nodes, dtype=float)
    vals = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise DomainError("need at least three nodes")
    if vals.shape[-1] != x.size:
        raise DomainError("values and nodes disagree in length")
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    fm = vals[..., :-2]
    f0 = vals[..., 1:-1]
    fp = vals[..., 2:]
    d1 = (-h2 / (h1 * (h1 + h2))) * fm + ((h2 - h1) / (h1 * h2)) * f0 \
        + (h1 / (h2 * (h1 + h2))) * fp
    d2 = 2.0 * ((fp - f0) / h2 - (f0 - fm) / h1) / (h1 + h2)
    a, b, c = coeffs
    return a * d2 + b * d1 + c * f0


def eigen_identity_residual(setting: KernelSetting, mode, grid: Grid1D) -> float:
    """Max interior defect of (generator f - eigenvalue f) with the generator
    applied by three-point stencils on the grid's nodes; f is oscillator mode
    `mode`, or the Bessel eigenfunction at frequency `mode`.  Shrinks O(h^2)
    on uniform and smoothly graded grids."""
    x = grid.nodes
    if setting.variant == "bessel":
        y0 = float(mode)
        f, lam = np.sqrt(x * y0) * bessel_j(setting.nu, x * y0), y0 * y0
    else:
        lams, table = _modes(setting, int(mode) + 1, x)
        f, lam = table[-1], lams[-1]
    res = _stencil_apply(_generator_coefficients(setting, x[1:-1]), x, f) - lam * f[1:-1]
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# Spectral application of sqrt(generator)
# ---------------------------------------------------------------------------


def sqrt_generator_apply(setting: KernelSetting, grid: Grid1D, values):
    """Apply the square root of the generator along the last axis of `values`.

    Classical: Fourier multiplier sqrt(c)|xi| with 4x zero padding, on a
    uniform grid only.  Hermite/Laguerre: projection on the lowest 128
    eigenfunctions, multiply sqrt(eigenvalue).  Bessel: Hankel multiplier z
    (the generator's symbol is z^2).
    """
    v = np.asarray(values, dtype=float)
    x = grid.nodes
    if v.shape[-1:] != x.shape:
        raise DomainError("values must have the grid's length along the last axis")
    if setting.variant == "classical":
        if not grid.is_uniform:
            raise DomainError("Fourier application requires a uniform grid")
        n = x.size
        pad = 4 * n
        ext = np.zeros(v.shape[:-1] + (pad,))
        ext[..., :n] = v
        xi = 2.0 * math.pi * np.fft.fftfreq(pad, d=grid.step)
        mult = math.sqrt(setting.diffusion) * np.abs(xi)
        out = np.fft.ifft(np.fft.fft(ext, axis=-1) * mult, axis=-1).real
        return out[..., :n]
    if setting.variant == "bessel":
        z, wz, table = _hankel_rule(setting.nu, x)
        multiplier = z * wz
    else:
        lam, table = _modes(setting, _SQRT_MODES, x)
        multiplier = np.sqrt(lam)
    return _multiplier_apply(table, grid.cell_widths(), v, multiplier)
