"""Quadrature rules, grids, and the subordination integral.

Adaptive integration wraps scipy.integrate.quad behind a small result type
that always carries an error estimate and a convergence flag; composite
grid rules are plain weighted sums so operator identities stay exact.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

from .errors import DomainError, NonConvergenceError

__all__ = [
    "QuadratureRule",
    "IntegrationResult",
    "integrate",
    "integrate_or_raise",
    "integrate_subordination",
    "Grid1D",
    "SpaceTimeGrid",
    "gauss_legendre_rule",
    "gauss_jacobi_rule",
    "grid_integrate",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Tolerance budget for adaptive integration."""

    rtol: float = 1e-10
    atol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 10:
            raise DomainError("max_subdivisions must be >= 10")


DEFAULT_RULE = QuadratureRule()


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error: float
    converged: bool


def integrate(f, a: float, b: float, rule: QuadratureRule | None = None, points=None) -> IntegrationResult:
    """Adaptive integral of f over (a, b); b may be numpy.inf.

    Non-convergence is never silent: the flag is False whenever the error
    estimate exceeds the requested tolerances or the integrator reports
    trouble.
    """
    rule = rule or DEFAULT_RULE
    kwargs = dict(epsabs=rule.atol, epsrel=rule.rtol, limit=rule.max_subdivisions, full_output=1)
    if points is not None and not math.isinf(b):
        kwargs["points"] = points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = scipy.integrate.quad(f, a, b, **kwargs)
    value, err = out[0], out[1]
    ok = len(out) < 4  # a fourth element is scipy's warning message
    converged = bool(ok and err <= max(rule.atol, rule.rtol * abs(value)) * 50.0)
    return IntegrationResult(value=float(value), error=float(err), converged=converged)


def integrate_or_raise(f, a, b, rule: QuadratureRule | None = None, points=None) -> float:
    res = integrate(f, a, b, rule=rule, points=points)
    if not res.converged:
        raise NonConvergenceError(
            f"integral did not converge: value={res.value:.6g}, error={res.error:.2g}"
        )
    return res.value


def integrate_subordination(g, t: float, rule: QuadratureRule | None = None, substitute: bool = True) -> IntegrationResult:
    """Subordination integral  (t/sqrt(4 pi)) * int_0^inf u^{-3/2} e^{-t^2/4u} g(u) du.

    With substitute=True the variable change u = t^2/(4 w^2) removes the
    endpoint singularity exactly, turning the integral into
    (2/sqrt(pi)) * int_0^inf e^{-w^2} g(t^2/(4 w^2)) dw.
    """
    if t <= 0.0:
        raise DomainError(f"subordination requires t > 0, got {t}")
    rule = rule or DEFAULT_RULE
    if substitute:
        c = 2.0 / math.sqrt(math.pi)

        def integrand(w):
            if w == 0.0:
                return 0.0
            return math.exp(-w * w) * g(t * t / (4.0 * w * w))

        res = integrate(integrand, 0.0, np.inf, rule=rule)
        return IntegrationResult(c * res.value, c * res.error, res.converged)
    c = t / math.sqrt(4.0 * math.pi)

    def integrand_u(u):
        return u ** (-1.5) * math.exp(-t * t / (4.0 * u)) * g(u)

    res = integrate(integrand_u, 0.0, np.inf, rule=rule)
    return IntegrationResult(c * res.value, c * res.error, res.converged)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

_DOMAINS = ("real-line", "half-line", "interval")
_SPACINGS = ("uniform", "graded")


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing 1-D node set with a domain tag.

    Nodes of uniform grids are cell-centered: the k-th node sits at the
    middle of its weight cell, so composite quadrature is the midpoint rule
    and indicator partitions of an operator stay exact on nodes.
    """

    nodes: np.ndarray
    domain: str
    spacing: str = "uniform"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if self.domain not in _DOMAINS:
            raise DomainError(f"unknown domain tag {self.domain!r}")
        if self.spacing not in _SPACINGS:
            raise DomainError(f"unknown spacing tag {self.spacing!r}")
        if nodes.ndim != 1 or nodes.size < 2:
            raise DomainError("grid needs at least two nodes")
        if np.any(np.diff(nodes) <= 0.0):
            raise DomainError("grid nodes must be strictly increasing")
        if self.domain == "half-line" and nodes[0] <= 0.0:
            raise DomainError("half-line grid nodes must be positive")

    @classmethod
    def uniform(cls, a: float, b: float, n: int, domain: str = "interval") -> "Grid1D":
        """n cell-centered nodes on (a, b)."""
        if not b > a:
            raise DomainError("need b > a")
        if n < 2:
            raise DomainError("need n >= 2")
        h = (b - a) / n
        nodes = a + h * (np.arange(n) + 0.5)
        return cls(nodes=nodes, domain=domain, spacing="uniform")

    @classmethod
    def symmetric(cls, half_width: float, n_half: int) -> "Grid1D":
        """2*n_half cell-centered nodes on (-half_width, half_width), symmetric about 0.

        The positive half coincides with Grid1D.uniform(0, half_width, n_half,
        "half-line"), which makes reflection identities exact on nodes.
        """
        pos = Grid1D.uniform(0.0, half_width, n_half, domain="half-line").nodes
        return cls(nodes=np.concatenate([-pos[::-1], pos]), domain="real-line", spacing="uniform")

    @property
    def n(self) -> int:
        return int(self.nodes.size)

    @property
    def step(self) -> float:
        """Uniform spacing (mean spacing for graded grids)."""
        return float(np.mean(np.diff(self.nodes)))

    def cell_widths(self) -> np.ndarray:
        """Quadrature weights: cell widths around each node."""
        x = self.nodes
        mid = 0.5 * (x[1:] + x[:-1])
        left = np.concatenate([[x[0] - (mid[0] - x[0])], mid])
        right = np.concatenate([mid, [x[-1] + (x[-1] - mid[-1])]])
        return right - left

    def positive_part(self) -> "Grid1D":
        mask = self.nodes > 0.0
        return Grid1D(nodes=self.nodes[mask], domain="half-line", spacing=self.spacing)


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Tensor grid on (0, horizon) x space domain."""

    time: Grid1D
    space: Grid1D
    horizon: float

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise DomainError("horizon must be positive")
        t = self.time.nodes
        if t[0] <= 0.0 or t[-1] >= self.horizon:
            raise DomainError("time nodes must lie strictly inside (0, horizon)")

    @classmethod
    def uniform(cls, horizon: float, n_time: int, space: Grid1D) -> "SpaceTimeGrid":
        return cls(time=Grid1D.uniform(0.0, horizon, n_time), space=space, horizon=horizon)

    @property
    def shape(self) -> tuple:
        return (self.time.n, self.space.n)

    @property
    def dt(self) -> float:
        return self.time.step


def grid_integrate(values, grid: Grid1D) -> float:
    """Composite (midpoint-cell) integral of sampled values over the grid."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != grid.n:
        raise DomainError("values length does not match the grid")
    return float(np.tensordot(values, grid.cell_widths(), axes=([-1], [0])))


# ---------------------------------------------------------------------------
# Fixed nodes for kernel tensor assembly
# ---------------------------------------------------------------------------

_gj_cache: dict = {}


@functools.cache
def _legendre_reference(n: int):
    """Read-only Gauss-Legendre nodes/weights on (-1, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_rule(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights on (a, b): the cached (-1, 1) rule for n,
    mapped affinely into fresh arrays."""
    x, w = _legendre_reference(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def gauss_jacobi_rule(beta: float, b: float, n: int):
    """Nodes/weights for integrals  int_0^b theta^beta f(theta) dtheta  with smooth f.

    Gauss-Jacobi with the algebraic weight at the left endpoint; exactness is
    spectral in n for smooth f, for every beta > -1.
    """
    if beta <= -1.0:
        raise DomainError("need beta > -1")
    key = (round(beta, 12), round(b, 14), n)
    if key not in _gj_cache:
        x, w = scipy.special.roots_jacobi(n, 0.0, beta)
        # map (-1,1) with weight (1+x)^beta onto (0,b) with weight theta^beta
        theta = 0.5 * b * (x + 1.0)
        weights = w * (0.5 * b) ** (beta + 1.0)
        # shared between callers, so read-only
        theta.flags.writeable = weights.flags.writeable = False
        _gj_cache[key] = (theta, weights)
    return _gj_cache[key]
