"""Generate perfbench/references.json: high-precision kernel references.

    python3 perfbench/make_references.py

Every value is computed with mpmath at 30 digits, independently of
semireg's quadrature:

* dt-Poisson kernels of the Bessel (alpha = 1.5), Hermite and Laguerre
  (alpha = 1.5) settings by subordinating the closed-form heat kernels
  (Weber, Mehler and Hille-Hardy formulas) with tanh-sinh quadrature in u;
* the Bessel split pieces by tanh-sinh quadrature of their angular integrals;
* classical kernels from their closed forms.

Two identities cross-check the transcription: the full Bessel kernel by
subordination equals its angular integral over (0, pi), and piece "12"
equals the classical kernel plus piece "13".  A point whose mpmath error
estimate is not below REF_TOL times its family's scale is rejected, and the
script fails rather than write it.  Timed benchmark runs only load the file.
"""

from __future__ import annotations

import json
import os
import sys
import time

import mpmath as mp

import spec

mp.mp.dps = 30
A = mp.mpf(spec.ALPHA)
NU = A - mp.mpf("0.5")

# the benchmark gate on kernel error is 1e-4 (relative to the family's
# largest value); references must be many orders tighter than that
REF_TOL = mp.mpf("1e-12")
CROSS_TOL = mp.mpf("1e-12")

U_BREAKS = [mp.mpf(0)] + [mp.mpf(10) ** k for k in range(-8, 4)] + [mp.inf]


def heat_bessel(u, x, y):
    return mp.sqrt(x * y) / (2 * u) * mp.besseli(NU, x * y / (2 * u)) * mp.exp(-(x * x + y * y) / (4 * u))


def heat_hermite(u, x, y):
    return (2 * mp.pi * mp.sinh(u)) ** mp.mpf("-0.5") * mp.exp(
        -(mp.coth(u / 2) * (x - y) ** 2 + mp.tanh(u / 2) * (x + y) ** 2) / 4)


def heat_laguerre(u, x, y):
    s = mp.sinh(u)
    return mp.sqrt(x * y) / s * mp.besseli(NU, x * y / s) * mp.exp(-mp.coth(u) * (x * x + y * y) / 2)


def dt_subordinated(heat, t, x, y):
    """d/dt of int_0^inf t/(2 sqrt(pi)) u^(-3/2) e^(-t^2/4u) W_u(x, y) du."""

    def f(u):
        if u == 0:
            return mp.mpf(0)
        return (1 - t * t / (2 * u)) * mp.exp(-t * t / (4 * u)) * u ** mp.mpf("-1.5") * heat(u, x, y)

    val, err = mp.quad(f, U_BREAKS, error=True)
    c = 1 / (2 * mp.sqrt(mp.pi))
    return val * c, err * c


def dt_angular(t, x, y, lo, hi, weight, flat):
    """(2a/pi)(xy)^a int weight(th) [D^-(a+1) - 2(a+1) t^2 D^-(a+2)] dth."""

    def den(th):
        if flat:
            return (x - y) ** 2 + t * t + x * y * th * th
        return (x - y) ** 2 + t * t + 2 * x * y * (1 - mp.cos(th))

    def f(th):
        d = den(th)
        return weight(th) * (d ** (-(A + 1)) - 2 * (A + 1) * t * t * d ** (-(A + 2)))

    breaks = [lo, hi] if hi != mp.inf else [lo, 2 * lo, 8 * lo, 64 * lo, mp.inf]
    val, err = mp.quad(f, breaks, error=True)
    c = (2 * A / mp.pi) * (x * y) ** A
    return c * val, c * err


def dt_classical(t, z, c):
    den = c * t * t + z * z
    return mp.sqrt(c) / mp.pi * (z * z - c * t * t) / (den * den), mp.mpf(0)


def kernel_value(name, t, x, y):
    """(value, error estimate) of one named kernel at (t, x, y)."""
    beta = 2 * A - 1
    if name == "dtP:classical1":
        return dt_classical(t, x - y, mp.mpf(1))
    if name == "dtP:classical0.5":
        return dt_classical(t, x - y, mp.mpf("0.5"))
    if name == "dtP:hermite":
        return dt_subordinated(heat_hermite, t, x, y)
    if name == "dtP:laguerre":
        return dt_subordinated(heat_laguerre, t, x, y)
    if name == "dtP:bessel":
        val, err = dt_subordinated(heat_bessel, t, x, y)
        ang, aerr = dt_angular(t, x, y, 0, mp.pi, lambda th: mp.sin(th) ** beta, False)
        if abs(val - ang) > CROSS_TOL * abs(val) + err + aerr:
            raise SystemExit(f"Bessel subordination and angular forms disagree at {(t, x, y)}")
        return val, err
    if name == "dtP:piece1":
        return dt_angular(t, x, y, 0, mp.pi / 2, lambda th: mp.sin(th) ** beta, False)
    if name == "dtP:piece11":
        return dt_angular(t, x, y, 0, mp.pi / 2, lambda th: th ** beta, False)
    if name == "dtP:piece12":
        val, err = dt_angular(t, x, y, 0, mp.pi / 2, lambda th: th ** beta, True)
        tail, terr = kernel_value("dtP:piece13", t, x, y)
        flat, _ = dt_classical(t, x - y, mp.mpf(1))
        if abs(val - (flat + tail)) > CROSS_TOL * abs(val) + err + terr:
            raise SystemExit(f"piece 12 != classical + piece 13 at {(t, x, y)}")
        return val, err
    if name == "dtP:piece13":
        val, err = dt_angular(t, x, y, mp.pi / 2, mp.inf, lambda th: th ** beta, True)
        return -val, err
    raise KeyError(name)


def main() -> int:
    started = time.time()
    cache = {}

    def kernel(name, t, x, y):
        key = (name, t, x, y)
        if key not in cache:
            cache[key] = kernel_value(name, mp.mpf(t), mp.mpf(x), mp.mpf(y))
        return cache[key]

    families = {}
    kernels = {}
    for fam, (grid, region, terms) in spec.FAMILIES.items():
        nodes = spec.space_nodes(grid)
        dt = spec.time_step(grid)
        rows = []
        for row, i, col in spec.family_points(fam):
            t, x, y = row * dt, nodes[i], nodes[col]
            total, err = mp.mpf(0), mp.mpf(0)
            for sign, name, reflected in terms:
                v, e = kernel(name, t, x, -y if reflected else y)
                total += sign * v
                err += e
                if not reflected:
                    kernels.setdefault(name, {})[(t, x, y)] = (v, e)
            rows.append((row, i, col, t, x, y, total, err))
        scale = max(abs(r[6]) for r in rows)
        for r in rows:
            if r[7] > REF_TOL * scale:
                raise SystemExit(f"{fam}: mpmath error {mp.nstr(r[7], 3)} too large at {r[:3]}")
        families[fam] = {
            "grid": grid,
            "region": region,
            "points": [[r[0], r[1], r[2], r[3], r[4], r[5], float(r[6]), float(r[7])] for r in rows],
        }
        print(f"{fam}: {len(rows)} points, {time.time() - started:.0f} s", file=sys.stderr)

    heat = {"heat:bessel": heat_bessel, "heat:hermite": heat_hermite, "heat:laguerre": heat_laguerre}
    for name, fn in heat.items():
        kernels[name] = {p: (fn(*map(mp.mpf, p)), mp.mpf(0)) for p in spec.HEAT_POINTS}
    kernel_out = {}
    for name, pts in kernels.items():
        scale = max(abs(v) for v, _ in pts.values())
        for p, (v, e) in pts.items():
            if e > REF_TOL * scale:
                raise SystemExit(f"{name}: mpmath error {mp.nstr(e, 3)} too large at {p}")
        kernel_out[name] = [[t, x, y, float(v), float(e)] for (t, x, y), (v, e) in sorted(pts.items())]

    out = {
        "generator": "perfbench/make_references.py",
        "mpmath": mp.__version__,
        "dps": mp.mp.dps,
        "alpha": spec.ALPHA,
        "ref_tol": float(REF_TOL),
        "families": families,
        "kernels": kernel_out,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path} in {time.time() - started:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
