"""Fixed settings shared by the benchmark and its reference generator.

Nothing here imports semireg, so the reference generator stays independent
of the package it checks.  Grids are the tier-1 test grids: a 48 x 64
half-line grid on (0, 6) and a 24 x 96 symmetric line grid on (-8, 8), both
over the time horizon 4, with cell-centred nodes.
"""

from __future__ import annotations

ALPHA = 1.5

GRIDS = {
    "half": {"horizon": 4.0, "n_time": 48, "lo": 0.0, "hi": 6.0, "n_space": 64},
    "line": {"horizon": 4.0, "n_time": 24, "lo": -8.0, "hi": 8.0, "n_space": 96},
}

# Kernel families the operators build on the workload grids.  Each is a
# signed sum of dt-Poisson kernels, read at (x, y) or, when reflected, at
# (x, -y); "region" names where the operator's weight matrix is 1.
FAMILIES = {
    "classical-reflected": ("half", "all", ((1, "dtP:classical1", True),)),
    "classical-global": ("half", "global", ((1, "dtP:classical1", False),)),
    "bessel-global": ("half", "global", ((1, "dtP:bessel", False),)),
    "hermite-minus-laguerre-local": (
        "half", "local", ((1, "dtP:hermite", False), (-1, "dtP:laguerre", False))),
    "piece-d1": ("half", "local", ((1, "dtP:piece1", False), (-1, "dtP:piece11", False))),
    "piece-d2": ("half", "local", ((1, "dtP:piece11", False), (-1, "dtP:piece12", False))),
    "piece-d3": ("half", "local", ((1, "dtP:piece13", False),)),
    "piece-k2": ("half", "local", ((1, "dtP:bessel", False), (-1, "dtP:piece1", False))),
    "hermite-global": ("line", "global", ((1, "dtP:hermite", False),)),
    "hermite-minus-classical-local": (
        "line", "local", ((1, "dtP:hermite", False), (-1, "dtP:classical0.5", False))),
}

# Impulse columns (space index of the unit input) and output rows (time
# lags, in steps) at which the families are read.  Rows start at 3 so the
# near-diagonal stencil, which touches rows 0..2 of an impulse at row 0,
# never contributes.
COLUMNS = {"half": (20, 40), "line": (58, 20)}
ROWS = {"half": (3, 8, 20, 47), "line": (3, 8, 23)}
POINTS_PER_REGION = 3

# Heat-kernel spot points (u, x, y); the small-u, large-x ones push the
# modified Bessel argument x y / sinh(u) into the thousands.
HEAT_POINTS = tuple(
    (u, x, y)
    for u in (0.01, 0.05, 0.3, 1.0, 3.0)
    for x, y in ((0.3, 0.45), (1.2, 1.5), (2.5, 4.0), (5.9, 5.8))
)


def space_nodes(grid: str) -> list:
    g = GRIDS[grid]
    h = (g["hi"] - g["lo"]) / g["n_space"]
    return [g["lo"] + h * (k + 0.5) for k in range(g["n_space"])]


def time_step(grid: str) -> float:
    g = GRIDS[grid]
    return g["horizon"] / g["n_time"]


def critical_radius(x: float) -> float:
    return 0.5 if abs(x) <= 1.0 else 1.0 / (1.0 + abs(x))


def in_local_region(grid: str, x: float, y: float) -> bool:
    if grid == "half":
        return x / 2.0 < y < 2.0 * x
    return abs(x - y) < critical_radius(x)


def family_points(name: str) -> list:
    """(row, x index, column) triples at which a family is read."""
    grid, region, _ = FAMILIES[name]
    nodes = space_nodes(grid)
    out = []
    for col in COLUMNS[grid]:
        y = nodes[col]
        if region == "all":
            cand = list(range(len(nodes)))
        else:
            local = region == "local"
            cand = [i for i, x in enumerate(nodes) if in_local_region(grid, x, y) == local]
        # first, middle and last admissible node: spread over the region
        picks = sorted({cand[0], cand[len(cand) // 2], cand[-1]})[:POINTS_PER_REGION]
        for row in ROWS[grid]:
            out.extend((row, i, col) for i in picks)
    return out
