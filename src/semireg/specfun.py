"""Scalar special functions underlying every kernel family.

Orthonormal Hermite and Laguerre functions (stable normalized recurrences
in the function domain), Bessel J, and the modified Bessel I with the
logarithm of its scaled form I e^{-z}.  J and I come from scipy (I through
the Amos algorithm, ACM TOMS 644, whose exponentially scaled ive keeps the
logarithm finite for huge arguments).
All evaluators accept numpy arrays where that helps kernel tensor assembly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, iv, ive, jv

from .errors import CapabilityError, DomainError

#: Default ceiling for eigenfunction indices; callers may override per call.
DEFAULT_INDEX_CAP = 200

# ---------------------------------------------------------------------------
# Hermite functions (orthonormal in L^2(R))
# ---------------------------------------------------------------------------


def hermite_function_table(k_max: int, x, index_cap: int = DEFAULT_INDEX_CAP) -> np.ndarray:
    """All orthonormal Hermite functions h_0..h_{k_max} at the points x.

    Uses the normalized three-term recurrence
        h_{k+1} = sqrt(2/(k+1)) x h_k - sqrt(k/(k+1)) h_{k-1},
    which keeps every intermediate at unit L^2 scale (no factorial overflow).

    Returns an array of shape (k_max+1,) + x.shape.
    """
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    if k_max > index_cap:
        raise CapabilityError(f"index {k_max} exceeds cap {index_cap}")
    x = np.asarray(x, dtype=float)
    out = np.empty((k_max + 1,) + x.shape, dtype=float)
    out[0] = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if k_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, k_max):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * x * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def hermite_function(k: int, x, index_cap: int = DEFAULT_INDEX_CAP):
    """Orthonormal Hermite function h_k (eigenfunction of the harmonic oscillator)."""
    table = hermite_function_table(k, x, index_cap=index_cap)
    return table[k]


# ---------------------------------------------------------------------------
# Laguerre-type functions (orthonormal in L^2(0, infty), plain dx)
# ---------------------------------------------------------------------------


def laguerre_function_table(
    k_max: int, alpha: float, x, index_cap: int = DEFAULT_INDEX_CAP
) -> np.ndarray:
    """Orthonormal Laguerre-type functions phi_0..phi_{k_max} on (0, infinity).

    phi_k(x) = (2 k! / Gamma(k+alpha+1/2))^(1/2) e^{-x^2/2} x^alpha L_k^{(alpha-1/2)}(x^2),
    evaluated through the normalized recurrence (u = x^2, nu = alpha - 1/2):

        phi_{k+1} = (2k+nu+1-u)/sqrt((k+1)(k+nu+1)) phi_k
                    - sqrt(k(k+nu)/((k+1)(k+nu+1))) phi_{k-1}.
    """
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    if k_max > index_cap:
        raise CapabilityError(f"index {k_max} exceeds cap {index_cap}")
    if alpha <= 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("laguerre functions require x > 0")
    nu = alpha - 0.5
    u = x * x
    out = np.empty((k_max + 1,) + x.shape, dtype=float)
    # phi_0 in log form: x^alpha can under/overflow for extreme x otherwise.
    log_phi0 = 0.5 * (math.log(2.0) - gammaln(nu + 1.0)) + alpha * np.log(x) - 0.5 * u
    out[0] = np.exp(log_phi0)
    if k_max >= 1:
        out[1] = (nu + 1.0 - u) / math.sqrt(nu + 1.0) * out[0]
    for k in range(1, k_max):
        a = (2.0 * k + nu + 1.0 - u) / math.sqrt((k + 1.0) * (k + nu + 1.0))
        b = math.sqrt(k * (k + nu) / ((k + 1.0) * (k + nu + 1.0)))
        out[k + 1] = a * out[k] - b * out[k - 1]
    return out


def laguerre_function(k: int, alpha: float, x, index_cap: int = DEFAULT_INDEX_CAP):
    """Orthonormal Laguerre-type function phi_k^alpha on the half-line."""
    table = laguerre_function_table(k, alpha, x, index_cap=index_cap)
    return table[k]


# ---------------------------------------------------------------------------
# Bessel J (first kind)
# ---------------------------------------------------------------------------


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu, vectorized over x."""
    if nu < -0.5:
        raise DomainError(f"bessel_j supports nu >= -1/2, got {nu}")
    return jv(nu, np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# Modified Bessel I (scipy's Amos-algorithm iv/ive)
# ---------------------------------------------------------------------------


def modified_bessel_i(nu: float, z):
    """Modified Bessel function I_nu(z) for nu >= 0, z >= 0."""
    if nu < 0.0:
        raise DomainError(f"modified_bessel_i requires nu >= 0, got {nu}")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise DomainError("modified_bessel_i requires z >= 0")
    out = iv(nu, z_arr)
    return float(out) if out.ndim == 0 else out


def log_modified_bessel_i(nu: float, z):
    """Scaled log I: log(I_nu(z) e^{-z}) = log ive(nu, z) for nu >= 0, z >= 0.

    The growth e^z of I_nu is left out, so a caller folds z into its own
    exponent analytically and nothing cancels at large z.  Finite for every
    finite z.  Where ive is not finite (NaN from z ~ 1.08e9) the large-z
    expansion log(I_nu(z) e^{-z}) = -log(2 pi z)/2 + log(1 - (4nu^2 - 1)/(8z)
    + ...) (DLMF 10.40.1) is used with four correction terms, below rounding
    there for nu up to about 30.  Where ive underflows (tiny z, (z/2)^nu
    below the smallest normal float) the leading term
    nu log(z/2) - log Gamma(nu+1) - z of the ascending series is used; for nu
    up to about 30 its relative correction z^2/(4(nu+1)) is below rounding
    there.  At z = 0 the value is log I_nu(0): 0 for nu = 0, -inf otherwise.
    """
    if nu < 0.0:
        raise DomainError(f"log_modified_bessel_i requires nu >= 0, got {nu}")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise DomainError("log_modified_bessel_i requires z >= 0")
    scaled = ive(nu, z_arr)
    under = scaled < np.finfo(float).tiny
    with np.errstate(divide="ignore"):
        out = np.log(scaled)
        if np.any(under):
            lead = nu * (np.log(z_arr) - math.log(2.0)) - gammaln(nu + 1.0)
            out = np.where(under, lead - z_arr, out)
    broken = ~np.isfinite(scaled)
    if np.any(broken):
        big = np.where(broken, z_arr, 1e9)  # unused lanes: any z the expansion serves
        mu = 4.0 * nu * nu
        term = series = np.ones_like(big)
        for k in range(1, 5):
            term = term * (-(mu - (2 * k - 1) ** 2) / (8.0 * k * big))
            series = series + term
        out = np.where(broken, np.log(series) - 0.5 * np.log(2.0 * math.pi * big), out)
    return float(out) if out.ndim == 0 else out
