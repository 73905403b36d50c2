"""Change-of-variable isometries tying weighted operator forms to their
unweighted companions.

Each catalog entry pairs a target differential expression (stored as
coefficient functions of a f'' + b f' + c f) with a companion operator, a
positive weight M, and a substitution h that is either the identity or the
square map.  The sandwich

    (U W) f(x) = M(x) f(h(x))

is an isometry from L^2 of the target measure onto L^2(dx), and conjugating
the companion operator through it reproduces the target expression up to an
explicit affine normalization:

    (U W)^{-1} companion (U W) = conj_scale * target + conj_shift.

The square substitution feeds h'(x)^2 = 4 h(x) into the second-order term,
which is where the non-unit scale factors come from; the shift shows up when
the target expression carries its own additive constant.  Both factors are
fixed by the eigenvalue bookkeeping and re-verified numerically in
check_conjugation, so a wrong table entry cannot survive the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .kernels import KernelSetting, _eigenvalues
from .quad import Grid1D, gauss_legendre_panels
from .spectral_oracle import _generator_coefficients, _modes, _stencil_apply

__all__ = [
    "ChartEntry",
    "ConjugationReport",
    "CHART_SLUGS",
    "chart_entries",
    "chart_entry",
    "source_grid",
    "target_nodes",
    "apply_UW",
    "apply_UW_inverse",
    "apply_chart_operator",
    "apply_base_operator",
    "check_conjugation",
    "isometry_defect",
    "measure_density_check",
    "random_smooth_function",
    "transferred_eigenfunction",
    "chart_eigenvalue",
]


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartEntry:
    """One change-of-variable datum.

    weight and the coefficient callables are vectorized over numpy arrays;
    coefficients live on the target side (argument z = h(x)).  target_density
    is the closed-form weight of the target L^2 space and is cross-checked
    against M and h by measure_density_check.
    """

    slug: str
    base: KernelSetting
    square_map: bool
    weight: Callable
    coeff_second: Callable
    coeff_first: Callable
    coeff_zero: Callable
    conj_scale: float
    conj_shift: float
    target_density: Callable

    @property
    def domain(self) -> str:
        # h maps the companion's domain onto itself for both substitutions
        return self.base.domain


def _entry_delta(alpha: float) -> ChartEntry:
    return ChartEntry(
        slug="delta_alpha",
        base=KernelSetting("bessel", alpha=alpha),
        square_map=False,
        weight=lambda x: x**alpha,
        coeff_second=lambda z: -np.ones_like(z),
        coeff_first=lambda z: -2.0 * alpha / z,
        coeff_zero=lambda z: np.zeros_like(z),
        conj_scale=1.0,
        conj_shift=0.0,
        target_density=lambda z: z ** (2.0 * alpha),
    )


def _entry_ou(alpha: float) -> ChartEntry:
    # weight is the ground state of the companion; alpha is ignored
    return ChartEntry(
        slug="ou_plus_half",
        base=KernelSetting("hermite"),
        square_map=False,
        weight=lambda x: math.pi ** -0.25 * np.exp(-0.5 * x * x),
        coeff_second=lambda z: -0.5 * np.ones_like(z),
        coeff_first=lambda z: np.asarray(z, dtype=float),
        coeff_zero=lambda z: 0.5 * np.ones_like(z),
        conj_scale=1.0,
        conj_shift=0.0,
        target_density=lambda z: math.pi**-0.5 * np.exp(-z * z),
    )


def _entry_shift(alpha: float) -> ChartEntry:
    return ChartEntry(
        slug="L_alpha_shift",
        base=KernelSetting("laguerre", alpha=alpha),
        square_map=True,
        weight=lambda x: math.sqrt(2.0) * x**alpha * np.exp(-0.5 * x * x),
        coeff_second=lambda z: -0.5 * z,
        coeff_first=lambda z: 0.5 * (z - alpha - 0.5),
        coeff_zero=lambda z: np.full_like(z, 0.5 * (alpha + 0.5)),
        conj_scale=4.0,
        conj_shift=-(alpha + 0.5),
        target_density=lambda z: z ** (alpha - 0.5) * np.exp(-z),
    )


def _entry_ell(alpha: float) -> ChartEntry:
    return ChartEntry(
        slug="L_alpha_ell",
        base=KernelSetting("laguerre", alpha=alpha),
        square_map=True,
        weight=lambda x: math.sqrt(2.0) * x**alpha,
        coeff_second=lambda z: -0.5 * z,
        coeff_first=lambda z: np.full_like(z, -0.5 * (alpha + 0.5)),
        coeff_zero=lambda z: 0.125 * z,
        conj_scale=4.0,
        conj_shift=0.0,
        target_density=lambda z: z ** (alpha - 0.5),
    )


def _entry_psi(alpha: float) -> ChartEntry:
    return ChartEntry(
        slug="L_alpha_psi",
        base=KernelSetting("laguerre", alpha=alpha),
        square_map=False,
        weight=lambda x: x**alpha,
        coeff_second=lambda z: -0.5 * np.ones_like(z),
        coeff_first=lambda z: -alpha / z,
        coeff_zero=lambda z: 0.5 * z * z,
        conj_scale=1.0,
        conj_shift=0.0,
        target_density=lambda z: z ** (2.0 * alpha),
    )


def _entry_script(alpha: float) -> ChartEntry:
    nu = alpha - 0.5
    return ChartEntry(
        slug="L_alpha_script",
        base=KernelSetting("laguerre", alpha=alpha),
        square_map=True,
        weight=lambda x: math.sqrt(2.0) * np.sqrt(x),
        coeff_second=lambda z: -0.5 * z,
        coeff_first=lambda z: np.full_like(z, -0.5),
        coeff_zero=lambda z: 0.125 * z + 0.125 * nu * nu / z,
        conj_scale=4.0,
        conj_shift=0.0,
        target_density=lambda z: np.ones_like(z),
    )


_BUILDERS = {
    "delta_alpha": _entry_delta,
    "ou_plus_half": _entry_ou,
    "L_alpha_shift": _entry_shift,
    "L_alpha_ell": _entry_ell,
    "L_alpha_psi": _entry_psi,
    "L_alpha_script": _entry_script,
}

CHART_SLUGS = tuple(_BUILDERS)


def chart_entry(slug: str, alpha: float = 1.5) -> ChartEntry:
    """Look up one catalog entry by its CLI slug."""
    if slug not in _BUILDERS:
        raise DomainError(f"unknown entry {slug!r}; choose one of {', '.join(CHART_SLUGS)}")
    if not alpha > 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    return _BUILDERS[slug](float(alpha))


def chart_entries(alpha: float = 1.5) -> tuple:
    """All six catalog entries at a common alpha."""
    return tuple(chart_entry(slug, alpha) for slug in CHART_SLUGS)


# ---------------------------------------------------------------------------
# Grids and the sandwich maps
# ---------------------------------------------------------------------------

_HALF_WINDOW = (0.2, 3.2)
_REAL_WINDOW = (-6.0, 6.0)


def source_grid(entry: ChartEntry, n: int) -> Grid1D:
    """Uniform companion-side grid; the target grid is its image under h."""
    lo, hi = _REAL_WINDOW if entry.domain == "real-line" else _HALF_WINDOW
    return Grid1D.uniform(lo, hi, n, domain=entry.domain)


def target_nodes(entry: ChartEntry, grid: Grid1D) -> np.ndarray:
    """Images h(x) of the companion-side nodes; the substitution is exact here."""
    x = grid.nodes
    return x * x if entry.square_map else x.copy()


def apply_UW(entry: ChartEntry, values, grid: Grid1D) -> np.ndarray:
    """(U W) f on the companion-side grid: M(x) f(h(x)).

    The values are samples of f at target_nodes(entry, grid), so the
    substitution costs nothing.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape[-1] != grid.n:
        raise DomainError("values must be sampled on the image of the grid")
    return entry.weight(grid.nodes) * vals


def apply_UW_inverse(entry: ChartEntry, values, grid: Grid1D) -> np.ndarray:
    """Inverse sandwich: samples at target_nodes from companion-side samples."""
    vals = np.asarray(values, dtype=float)
    if vals.shape[-1] != grid.n:
        raise DomainError("values must be sampled on the grid nodes")
    return vals / entry.weight(grid.nodes)


# ---------------------------------------------------------------------------
# Differential expressions by finite differences
# ---------------------------------------------------------------------------


def apply_chart_operator(entry: ChartEntry, values, nodes) -> np.ndarray:
    """Target differential expression on interior nodes (output trimmed by one
    node at each end)."""
    zi = np.asarray(nodes, dtype=float)[1:-1]
    coeffs = (entry.coeff_second(zi), entry.coeff_first(zi), entry.coeff_zero(zi))
    return _stencil_apply(coeffs, nodes, values)


def apply_base_operator(setting: KernelSetting, values, nodes) -> np.ndarray:
    """Companion differential expression on interior nodes."""
    xi = np.asarray(nodes, dtype=float)[1:-1]
    return _stencil_apply(_generator_coefficients(setting, xi), nodes, values)


# ---------------------------------------------------------------------------
# Conjugation check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugationReport:
    """Interior residuals of the conjugation identity across grid halvings."""

    slug: str
    spacings: tuple
    residuals: tuple

    @property
    def orders(self) -> tuple:
        out = []
        for r0, r1 in zip(self.residuals, self.residuals[1:]):
            out.append(math.inf if r1 == 0.0 else math.log2(r0 / r1))
        return tuple(out)

    def min_order(self) -> float:
        orders = self.orders
        return min(orders) if orders else math.nan


def _default_test(z: np.ndarray) -> Callable:
    zc = 0.5 * (z.min() + z.max())
    w = (z.max() - z.min()) / 6.0
    return lambda s: np.exp(-(((s - zc) / w) ** 2)) * (1.0 + 0.3 * np.sin(1.5 * s))


def check_conjugation(entry: ChartEntry, levels: int = 3,
                      test: Optional[Callable] = None) -> ConjugationReport:
    """Residual of conj_scale * target + conj_shift against the conjugated
    companion on source_grid with 160, 320, ... nodes.

    Both routes use second-order stencils on their own side of the
    substitution, so the residual must shrink at order about 2; a wrong
    normalization or coefficient leaves an O(1) floor instead.
    """
    if levels < 1:
        raise DomainError("need at least one level")
    spacings = []
    residuals = []
    fn = test
    for level in range(levels):
        grid = source_grid(entry, 160 * 2**level)
        x = grid.nodes
        z = target_nodes(entry, grid)
        if fn is None:
            fn = _default_test(z)
        fz = fn(z)
        target_route = entry.conj_scale * apply_chart_operator(entry, fz, z) \
            + entry.conj_shift * fz[1:-1]
        weight = entry.weight(x)
        companion = apply_base_operator(entry.base, weight * fz, x) / weight[1:-1]
        spacings.append(grid.step)
        residuals.append(float(np.max(np.abs(target_route - companion))))
    return ConjugationReport(entry.slug, tuple(spacings), tuple(residuals))


# ---------------------------------------------------------------------------
# Isometry and measure checks
# ---------------------------------------------------------------------------


def random_smooth_function(rng) -> Callable:
    """Signed sum of four Gaussian bumps, centres in (1, 4) and widths in
    (0.4, 1.2); smooth and square integrable for every catalog measure."""
    centers = rng.uniform(1.0, 4.0, size=4)
    widths = rng.uniform(0.4, 1.2, size=4)
    amps = rng.uniform(0.5, 1.5, size=4) * rng.choice([-1.0, 1.0], size=4)

    def fn(z):
        z = np.asarray(z, dtype=float)
        acc = np.zeros_like(z)
        for c, w, a in zip(centers, widths, amps):
            acc += a * np.exp(-(((z - c) / w) ** 2))
        return acc

    return fn


def _panel_edges(entry: ChartEntry, target_side: bool) -> np.ndarray:
    # geometric panels absorb the integrable power singularities at 0;
    # uniform panels of width <= 0.2 resolve the bump scales
    if entry.domain == "real-line":
        return np.linspace(-16.0, 16.0, 161)
    hi = 16.0 if (target_side or not entry.square_map) else 4.0
    geo = np.geomspace(1e-12, 1.0, 61)
    lin = np.linspace(1.0, hi, int(math.ceil((hi - 1.0) / 0.2)) + 1)
    return np.concatenate([geo, lin[1:]])


def _panel_integral(fn: Callable, edges: np.ndarray, n: int = 12) -> float:
    pts, wts = gauss_legendre_panels(edges, n)
    return float(wts @ fn(pts))


def isometry_defect(entry: ChartEntry, seed: Optional[int] = None) -> float:
    """Relative gap between the companion-side and target-side L^2 norms of
    one random smooth test function carried through the sandwich."""
    fn = random_smooth_function(np.random.default_rng(seed))

    def companion_integrand(x):
        return entry.weight(x) ** 2 * fn(x * x if entry.square_map else x) ** 2

    def target_integrand(z):
        return entry.target_density(z) * fn(z) ** 2

    left = _panel_integral(companion_integrand, _panel_edges(entry, target_side=False))
    right = _panel_integral(target_integrand, _panel_edges(entry, target_side=True))
    return abs(math.sqrt(left) - math.sqrt(right)) / math.sqrt(right)


def measure_density_check(entry: ChartEntry, points=None) -> float:
    """Max relative gap between the stored target density and the one derived
    from M and h; ten spot points by default."""
    if points is None:
        points = (np.linspace(-3.0, 3.0, 10) if entry.domain == "real-line"
                  else np.geomspace(0.1, 9.0, 10))
    z = np.asarray(points, dtype=float)
    if entry.square_map:
        x = np.sqrt(z)
        derived = entry.weight(x) ** 2 / (2.0 * x)
    else:
        derived = entry.weight(z) ** 2
    stored = entry.target_density(z)
    return float(np.max(np.abs(derived - stored) / np.abs(stored)))


# ---------------------------------------------------------------------------
# Transferred eigenfunctions
# ---------------------------------------------------------------------------


def transferred_eigenfunction(entry: ChartEntry, k: int, nodes) -> np.ndarray:
    """Samples of the k-th companion eigenfunction carried to the target side.

    Defined for discrete-spectrum companions only.  The returned profile g
    satisfies target(g) = chart_eigenvalue(entry, k) * g exactly.
    """
    z = np.asarray(nodes, dtype=float)
    x = np.sqrt(z) if entry.square_map else z
    _, table = _modes(entry.base, k + 1, x)
    return table[k] / entry.weight(x)


def chart_eigenvalue(entry: ChartEntry, k: int) -> float:
    """Eigenvalue of the target expression on transferred mode k."""
    if k < 0:
        raise DomainError(f"mode index must be >= 0, got {k}")
    lam = float(_eigenvalues(entry.base, k + 1)[k])
    return (lam - entry.conj_shift) / entry.conj_scale
