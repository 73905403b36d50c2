"""Independent brute-force oracles for the kernel formulas.

Eigenfunction-series kernels for the oscillator settings, the Hankel
multiplier route to the Bessel Poisson kernel, finite-difference
eigen-identity residuals, and spectral application of the generator's
square root. Everything here is deliberately slow and direct; the point is
independence from the closed forms in `kernels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate

from .errors import CapabilityError, DomainError, NonConvergenceError
from .kernels import KernelSetting
from .quad import Grid1D, gauss_legendre_rule
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
    "heat_series_terms",
    "poisson_series_terms",
    "hankel_transform",
    "hankel_poisson_oracle",
    "hankel_poisson_kernel_oracle",
    "eigen_identity_residual",
    "sqrt_generator_apply",
]


@dataclass(frozen=True)
class SeriesValue:
    """A truncated eigenfunction-series evaluation with its tail bound."""

    value: float
    truncation_bound: float
    terms: int

    def converged_to(self, tol: float) -> bool:
        return self.truncation_bound <= tol


def _series_value(weights, hx, hy) -> float:
    # largest index first: small terms accumulate before large ones
    terms = weights * hx * hy
    return float(np.sum(terms[::-1]))


def hermite_heat_series(t: float, x: float, y: float, n_terms: int,
                        index_cap: int = DEFAULT_INDEX_CAP) -> SeriesValue:
    """Oscillator heat kernel as sum of e^{-(k+1/2)t} h_k(x) h_k(y), k < n_terms.

    The reported truncation bound is e^{-(n_terms+1/2)t}/(1-e^{-t}), using a
    unit amplitude bound on the eigenfunctions.
    """
    if t <= 0.0:
        raise DomainError("series requires t > 0")
    if n_terms < 1 or n_terms > index_cap:
        raise DomainError(f"n_terms must lie in [1, {index_cap}]")
    k = np.arange(n_terms)
    w = np.exp(-(k + 0.5) * t)
    hx = hermite_function_table(n_terms - 1, x, index_cap=index_cap)
    hy = hermite_function_table(n_terms - 1, y, index_cap=index_cap)
    bound = math.exp(-(n_terms + 0.5) * t) / (1.0 - math.exp(-t))
    return SeriesValue(_series_value(w, hx, hy), bound, n_terms)


def hermite_poisson_series(t: float, x: float, y: float, n_terms: int,
                           index_cap: int = DEFAULT_INDEX_CAP) -> SeriesValue:
    """Oscillator Poisson kernel as sum of e^{-t sqrt(k+1/2)} h_k(x) h_k(y).

    Tail bound from the integral comparison of e^{-t sqrt(s)}:
    (2/t^2)(1 + t sqrt(N+1/2)) e^{-t sqrt(N+1/2)}.
    """
    if t <= 0.0:
        raise DomainError("series requires t > 0")
    if n_terms < 1 or n_terms > index_cap:
        raise DomainError(f"n_terms must lie in [1, {index_cap}]")
    k = np.arange(n_terms)
    w = np.exp(-t * np.sqrt(k + 0.5))
    hx = hermite_function_table(n_terms - 1, x, index_cap=index_cap)
    hy = hermite_function_table(n_terms - 1, y, index_cap=index_cap)
    root = math.sqrt(n_terms + 0.5)
    bound = (2.0 / (t * t)) * (1.0 + t * root) * math.exp(-t * root)
    return SeriesValue(_series_value(w, hx, hy), bound, n_terms)


def laguerre_heat_series(alpha: float, t: float, x: float, y: float, n_terms: int,
                         index_cap: int = DEFAULT_INDEX_CAP) -> SeriesValue:
    """Laguerre-oscillator heat kernel as sum of e^{-(2k+a+1/2)t} f_k(x) f_k(y)."""
    if t <= 0.0:
        raise DomainError("series requires t > 0")
    if n_terms < 1 or n_terms > index_cap:
        raise DomainError(f"n_terms must lie in [1, {index_cap}]")
    k = np.arange(n_terms)
    w = np.exp(-(2.0 * k + alpha + 0.5) * t)
    fx = laguerre_function_table(n_terms - 1, alpha, x, index_cap=index_cap)
    fy = laguerre_function_table(n_terms - 1, alpha, y, index_cap=index_cap)
    bound = math.exp(-(2.0 * n_terms + alpha + 0.5) * t) / (1.0 - math.exp(-2.0 * t))
    return SeriesValue(_series_value(w, fx, fy), bound, n_terms)


def heat_series_terms(t: float, tol: float, gap: float = 1.0, rate: float = 1.0) -> int:
    """Smallest N with e^{-(rate*N+gap/2)t}/(1-e^{-rate*t}) below tol."""
    if t <= 0.0 or tol <= 0.0:
        raise DomainError("need t > 0 and tol > 0")
    denom = 1.0 - math.exp(-rate * t)
    n = (math.log(1.0 / (tol * denom))) / (rate * t)
    return max(4, int(math.ceil(n)) + 1)


def poisson_series_terms(t: float, tol: float) -> int:
    """Smallest N whose poisson-series tail bound falls below tol."""
    if t <= 0.0 or tol <= 0.0:
        raise DomainError("need t > 0 and tol > 0")
    n = 4
    while n < 10 ** 7:
        root = math.sqrt(n + 0.5)
        if (2.0 / (t * t)) * (1.0 + t * root) * math.exp(-t * root) <= tol:
            return n
        n = int(n * 1.3) + 1
    raise NonConvergenceError("poisson series tail bound does not reach tolerance")


# ---------------------------------------------------------------------------
# Hankel transform machinery for the Bessel setting
# ---------------------------------------------------------------------------


def _frequency_panels(z_max: float, panel_len: float, nodes_per_panel: int = 16):
    """Composite Gauss-Legendre nodes on (0, z_max] in panels short enough to
    resolve the Bessel oscillation."""
    n_panels = max(8, int(math.ceil(z_max / panel_len)))
    base_z, base_w = gauss_legendre_rule(0.0, 1.0, nodes_per_panel)
    edges = np.linspace(0.0, z_max, n_panels + 1)
    lengths = np.diff(edges)
    z = (edges[:-1, None] + lengths[:, None] * base_z[None, :]).ravel()
    w = (lengths[:, None] * base_w[None, :]).ravel()
    return z, w


def _hankel_matrix(nu: float, z, x):
    """The (z x x) matrix sqrt(zx) J_nu(zx); its transpose is the x x z one."""
    arg = np.multiply.outer(z, x)
    return np.sqrt(arg) * bessel_j(nu, arg)


def hankel_transform(nu: float, x_nodes, f_values, z_nodes):
    """Transform of sampled data: int sqrt(xz) J_nu(xz) f(x) dx at each z.

    The x-samples must lie on a uniform grid; composite Simpson keeps the
    sample-integration error at fourth order.
    """
    x = np.asarray(x_nodes, dtype=float)
    z = np.asarray(z_nodes, dtype=float)
    f = np.asarray(f_values, dtype=float)
    return scipy.integrate.simpson(_hankel_matrix(nu, z, x) * f[None, :], x=x, axis=1)


def hankel_poisson_oracle(alpha: float, t: float, x_nodes, f_values,
                          z_max: float | None = None):
    """Poisson semigroup applied to a sampled function via the Hankel route.

    Forward transform, multiplication by e^{-t z}, inverse transform (the
    transform is its own inverse, so one kernel matrix serves both ways).
    t = 0 performs a pure round-trip.
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    nu = alpha - 0.5
    x = np.asarray(x_nodes, dtype=float)
    if z_max is None:
        z_max = 40.0
    panel = math.pi / (2.0 * (np.max(x) + 1.0))
    z, w = _frequency_panels(z_max, panel)
    kernel = _hankel_matrix(nu, z, x)
    f = np.asarray(f_values, dtype=float)
    g = scipy.integrate.simpson(kernel * f[None, :], x=x, axis=1)
    return kernel.T @ (g * np.exp(-t * z) * w)


def hankel_poisson_kernel_oracle(alpha: float, t: float, x: float, y: float,
                                 z_max: float | None = None) -> float:
    """Pointwise Bessel Poisson kernel through its continuous eigenexpansion:
    sqrt(xy) int_0^inf z e^{-tz} J_nu(xz) J_nu(yz) dz."""
    if alpha <= 0.0 or t <= 0.0 or x <= 0.0 or y <= 0.0:
        raise DomainError("all arguments must be positive")
    nu = alpha - 0.5
    # e^{-tz} controls the tail; keep panels below a quarter oscillation
    z_max = z_max if z_max is not None else max(40.0, 40.0 / t)
    panel = math.pi / (2.0 * (x + y + 1.0))
    z, w = _frequency_panels(z_max, panel)
    vals = z * np.exp(-t * z) * bessel_j(nu, x * z) * bessel_j(nu, y * z)
    return math.sqrt(x * y) * float(np.sum(w * vals))


# ---------------------------------------------------------------------------
# Eigen-identity residuals by central finite differences
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


def _eigen_mode(setting: KernelSetting, mode, x):
    """Eigenfunction samples and eigenvalue for the requested mode."""
    if setting.variant == "hermite":
        k = int(mode)
        vals = np.array([hermite_function_table(k, xi)[k] for xi in np.atleast_1d(x)])
        return vals, k + 0.5
    if setting.variant == "laguerre":
        k = int(mode)
        a = setting.alpha
        vals = np.array([laguerre_function_table(k, a, xi)[k] for xi in np.atleast_1d(x)])
        return vals, 2.0 * k + a + 0.5
    if setting.variant == "bessel":
        y0 = float(mode)
        nu = setting.nu
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        return np.sqrt(xa * y0) * bessel_j(nu, xa * y0), y0 * y0
    raise CapabilityError("classical setting has no normalizable eigenfunctions")


def eigen_identity_residual(setting: KernelSetting, mode, grid: Grid1D) -> float:
    """Max interior defect of (generator f - eigenvalue f) with the generator
    applied by second-order central differences on the grid. Shrinks O(h^2)."""
    if grid.spacing != "uniform":
        raise DomainError("residual stencil requires a uniform grid")
    x = grid.nodes
    h = grid.step
    f, lam = _eigen_mode(setting, mode, x)
    a, b, c = _generator_coefficients(setting, x[1:-1])
    d2 = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    d1 = (f[2:] - f[:-2]) / (2.0 * h)
    res = a * d2 + b * d1 + c * f[1:-1] - lam * f[1:-1]
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# Spectral application of sqrt(generator)
# ---------------------------------------------------------------------------


def sqrt_generator_apply(setting: KernelSetting, grid: Grid1D, values,
                         n_modes: int = 128):
    """Apply the square root of the generator along the last axis of `values`.

    Classical: Fourier multiplier sqrt(c)|xi| with 4x zero padding.
    Hermite/Laguerre: eigenfunction projection, multiply sqrt(eigenvalue).
    Bessel: Hankel multiplier z (the generator's symbol is z^2).
    """
    v = np.asarray(values, dtype=float)
    x = grid.nodes
    if setting.variant == "classical":
        if grid.spacing != "uniform":
            raise DomainError("Fourier application requires a uniform grid")
        n = x.size
        pad = 4 * n
        ext = np.zeros(v.shape[:-1] + (pad,))
        ext[..., :n] = v
        xi = 2.0 * math.pi * np.fft.fftfreq(pad, d=grid.step)
        mult = math.sqrt(setting.diffusion) * np.abs(xi)
        out = np.fft.ifft(np.fft.fft(ext, axis=-1) * mult, axis=-1).real
        return out[..., :n]
    w = grid.cell_widths()
    if setting.variant == "hermite":
        table = hermite_function_table(n_modes - 1, x, index_cap=max(n_modes, 256))
        lam = np.sqrt(np.arange(n_modes) + 0.5)
    elif setting.variant == "laguerre":
        table = laguerre_function_table(n_modes - 1, setting.alpha, x,
                                        index_cap=max(n_modes, 256))
        lam = np.sqrt(2.0 * np.arange(n_modes) + setting.alpha + 0.5)
    else:
        nu = setting.nu
        z_max = 40.0
        panel = math.pi / (2.0 * (np.max(x) + 1.0))
        z, wz = _frequency_panels(z_max, panel)
        kern = _hankel_matrix(nu, z, x)
        coeff = np.tensordot(v * w, kern, axes=([-1], [1]))
        return np.tensordot(coeff * (z * wz), kern, axes=([-1], [0]))
    coeff = np.tensordot(v * w, table, axes=([-1], [1]))
    return np.tensordot(coeff * lam, table, axes=([-1], [0]))
