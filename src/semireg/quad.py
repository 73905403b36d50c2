"""Quadrature rules, grids, and the subordination integral.

Adaptive integration wraps scipy.integrate.quad (QUADPACK, imported on the
first call of `integrate`) behind a small result type that always carries
an error estimate and a convergence flag.  The subordination integral has
its own nested double-exponential rule in numpy, so importing this module
loads neither scipy.integrate nor the packages it pulls in.  Composite grid
rules are plain weighted sums so operator identities stay exact.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
# roots_jacobi imports scipy.linalg on its first call; loading it here keeps
# that import out of the first kernel build
import scipy.linalg  # noqa: F401
import scipy.special

from .errors import DomainError, NonConvergenceError

__all__ = [
    "IntegrationResult",
    "integrate",
    "integrate_or_raise",
    "integrate_subordination",
    "Grid1D",
    "SpaceTimeGrid",
    "gauss_legendre_rule",
    "gauss_legendre_panels",
    "gauss_jacobi_rule",
]

# adaptive integration budget
_RTOL = 1e-10
_ATOL = 1e-12
_MAX_SUBDIVISIONS = 200


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error: float
    converged: bool


def integrate(f, a: float, b: float) -> IntegrationResult:
    """Adaptive integral of f over (a, b); b may be numpy.inf.

    Non-convergence is never silent: the flag is False whenever the error
    estimate exceeds the tolerances (relative 1e-10, absolute 1e-12, within
    200 subdivisions) or the integrator reports trouble.
    """
    import scipy.integrate  # deferred: it loads scipy.optimize and scipy.sparse

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = scipy.integrate.quad(f, a, b, epsabs=_ATOL, epsrel=_RTOL,
                                   limit=_MAX_SUBDIVISIONS, full_output=1)
    value, err = out[0], out[1]
    ok = len(out) < 4  # a fourth element is scipy's warning message
    converged = bool(ok and err <= max(_ATOL, _RTOL * abs(value)) * 50.0)
    return IntegrationResult(value=float(value), error=float(err), converged=converged)


def integrate_or_raise(f, a, b) -> float:
    res = integrate(f, a, b)
    if not res.converged:
        raise NonConvergenceError(
            f"integral did not converge: value={res.value:.6g}, error={res.error:.2g}"
        )
    return res.value


# double-exponential subordination rule: w = exp((pi/2) sinh s), trapezoid in s
_DE_STEP = 0.5  # level-0 step in s
_DE_REACH = 10  # level-0 steps at most on either side of s = 0
_DE_LEVELS = 8  # step halvings at most
_DE_RTOL = 1e-10
_EPS = float(np.finfo(float).eps)


def integrate_subordination(g, t: float) -> IntegrationResult:
    """Subordination integral  (t/sqrt(4 pi)) * int_0^inf u^{-3/2} e^{-t^2/4u} g(u) du.

    The variable change u = t^2/(4 w^2) removes the endpoint singularity
    exactly, turning the integral into
    (2/sqrt(pi)) * int_0^inf e^{-w^2} g(t^2/(4 w^2)) dw.  With
    w = exp((pi/2) sinh s) the integrand decays double-exponentially at both
    ends in s, where the trapezoid rule is applied.

    Truncation: at the level-0 step 0.5 each end of the s-range grows from
    s = 0 until its term is at most eps = 2.2e-16 times the running sum, for
    at most 10 steps (s in [-5, 5]).  The right end also stops where
    e^{-w^2} underflows (s near 1.5); such terms are 0 and g is not called.
    Convergence: the step then halves inside that range, up to 8 times,
    reusing every earlier evaluation.  The change over the last halving is
    the error estimate, and the result is converged once that change is at
    most 1e-10 times the value, with no absolute floor; past the last
    halving, converged is False.
    """
    if t <= 0.0:
        raise DomainError(f"subordination requires t > 0, got {t}")
    c = 2.0 / math.sqrt(math.pi)
    half_pi = 0.5 * math.pi

    def term(s):
        """Integrand in s; None where e^{-w^2} underflows."""
        w = math.exp(half_pi * math.sinh(s))
        decay = math.exp(-w * w)
        if decay == 0.0:
            return None
        return decay * g(t * t / (4.0 * w * w)) * half_pi * math.cosh(s) * w

    total = term(0.0)
    reach = []
    for sign in (1, -1):
        k = 0
        while k < _DE_REACH:
            k += 1
            f = term(sign * k * _DE_STEP)
            if f is None:
                break
            total += f
            if total != 0.0 and abs(f) <= _EPS * abs(total):
                break
        reach.append(k)
    lo, n, h = -reach[1] * _DE_STEP, sum(reach), _DE_STEP
    value = h * total
    for _ in range(_DE_LEVELS):
        h *= 0.5
        total += sum(term(lo + (2 * j + 1) * h) or 0.0 for j in range(n))
        n *= 2
        value, error = h * total, abs(h * total - value)
        if error <= _DE_RTOL * abs(value):
            return IntegrationResult(c * value, c * error, True)
    return IntegrationResult(c * value, c * error, False)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

_DOMAINS = ("real-line", "half-line", "interval")


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing 1-D node set with a domain tag.

    Nodes of uniform grids are cell-centered: the k-th node sits at the
    middle of its weight cell, so composite quadrature is the midpoint rule
    and indicator partitions of an operator stay exact on nodes.  The grid
    keeps a read-only copy of the nodes it is given, so no later write can
    change it.
    """

    nodes: np.ndarray
    domain: str

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        if self.domain not in _DOMAINS:
            raise DomainError(f"unknown domain tag {self.domain!r}")
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
        return cls(nodes=nodes, domain=domain)

    @classmethod
    def symmetric(cls, half_width: float, n_half: int) -> "Grid1D":
        """2*n_half cell-centered nodes on (-half_width, half_width), symmetric about 0.

        The positive half coincides with Grid1D.uniform(0, half_width, n_half,
        "half-line"), which makes reflection identities exact on nodes.
        """
        pos = Grid1D.uniform(0.0, half_width, n_half, domain="half-line").nodes
        return cls(nodes=np.concatenate([-pos[::-1], pos]), domain="real-line")

    @property
    def n(self) -> int:
        return int(self.nodes.size)

    @property
    def step(self) -> float:
        """Uniform spacing (mean spacing for graded grids)."""
        return float(np.mean(np.diff(self.nodes)))

    @property
    def is_uniform(self) -> bool:
        """Whether every step equals the first to relative 1e-12, up to the
        rounding of the nodes themselves (a few ulps of the largest)."""
        steps = np.diff(self.nodes)
        ulps = 8.0 * np.finfo(float).eps * np.max(np.abs(self.nodes))
        return bool(np.allclose(steps, steps[0], rtol=1e-12, atol=ulps))

    def cell_widths(self) -> np.ndarray:
        """Quadrature weights: cell widths around each node."""
        x = self.nodes
        mid = 0.5 * (x[1:] + x[:-1])
        left = np.concatenate([[x[0] - (mid[0] - x[0])], mid])
        right = np.concatenate([mid, [x[-1] + (x[-1] - mid[-1])]])
        return right - left

    def positive_part(self) -> "Grid1D":
        mask = self.nodes > 0.0
        return Grid1D(nodes=self.nodes[mask], domain="half-line")


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Tensor grid on (0, horizon) x space domain.

    The kernel stacks that operators discretize on the grid are held in
    _stacks, keyed by kernel term, and live and die with the grid.
    """

    time: Grid1D
    space: Grid1D
    horizon: float
    _stacks: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise DomainError("horizon must be positive")
        t = self.time.nodes
        if t[0] <= 0.0 or t[-1] >= self.horizon:
            raise DomainError("time nodes must lie strictly inside (0, horizon)")

    @classmethod
    def uniform(cls, horizon: float, n_time: int, space: Grid1D) -> "SpaceTimeGrid":
        return cls(time=Grid1D.uniform(0.0, horizon, n_time), space=space, horizon=horizon)

    @functools.cached_property
    def positive_half(self) -> "SpaceTimeGrid":
        """The grid on the positive space nodes, built once per grid so that
        every field restricted to it shares its kernel stacks."""
        return SpaceTimeGrid(time=self.time, space=self.space.positive_part(), horizon=self.horizon)

    @property
    def shape(self) -> tuple:
        return (self.time.n, self.space.n)

    @property
    def dt(self) -> float:
        return self.time.step


# ---------------------------------------------------------------------------
# Fixed nodes for kernel tensor assembly
# ---------------------------------------------------------------------------

@functools.cache
def _legendre_reference(n: int):
    """Read-only Gauss-Legendre nodes/weights on (-1, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_panels(edges, n: int):
    """Composite Gauss-Legendre rule: the cached (-1, 1) rule for n mapped
    affinely onto every panel between consecutive edges, as fresh flat node
    and weight arrays in panel order."""
    edges = np.asarray(edges, dtype=float)
    x, w = _legendre_reference(n)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * x + mid).ravel(), (half * w).ravel()


def gauss_legendre_rule(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights on (a, b): the one-panel composite rule."""
    return gauss_legendre_panels((a, b), n)


@functools.cache
def _jacobi_reference(beta: float, b: float, n: int):
    """Read-only Gauss-Jacobi nodes/weights on (0, b) for the weight theta^beta."""
    x, w = scipy.special.roots_jacobi(n, 0.0, beta)
    # map (-1,1) with weight (1+x)^beta onto (0,b) with weight theta^beta
    theta = 0.5 * b * (x + 1.0)
    weights = w * (0.5 * b) ** (beta + 1.0)
    theta.flags.writeable = weights.flags.writeable = False
    return theta, weights


def gauss_jacobi_rule(beta: float, b: float, n: int):
    """Nodes/weights for integrals  int_0^b theta^beta f(theta) dtheta  with smooth f.

    Gauss-Jacobi with the algebraic weight at the left endpoint; exactness is
    spectral in n for smooth f, for every beta > -1.  The arrays are cached,
    shared between callers, and read-only.
    """
    if beta <= -1.0:
        raise DomainError("need beta > -1")
    return _jacobi_reference(beta, b, n)
