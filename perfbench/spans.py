"""Per-layer spans for traced benchmark runs.

A Tracer wraps the public functions of each semireg layer.  A wrapper
replaces the function in every loaded semireg module that holds it (for
example both kernels.heat_kernel and operators.dt_poisson_kernel_grid), so
calls made inside the package are caught too.  Spans (group, function,
start, end, parent) stay in memory until the run ends.  Wrappers exist only
in traced runs: untraced runs never construct a Tracer.

Bytes and flops of the apply layer are computed from array sizes, not
measured.  Per-layer times are raw seconds, not scaled to nominal speed,
and include the few percent the speed probe (probe.py) spends inside them.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time

import numpy as np

PUBLIC = "public"

# group -> (module, functions); PUBLIC means every function in __all__
GROUPS = {
    "specfun.logI": ("specfun", ("log_modified_bessel_i", "modified_bessel_i")),
    "specfun.besselJ": ("specfun", ("bessel_j",)),
    "specfun.tables": ("specfun", ("hermite_function_table", "laguerre_function_table",
                                   "hermite_function", "laguerre_function")),
    "quad.rules": ("quad", ("gauss_legendre_rule", "gauss_jacobi_rule")),
    "quad.adaptive": ("quad", ("integrate", "integrate_or_raise", "integrate_subordination")),
    "kernels.heat": ("kernels", ("heat_kernel", "heat_classical", "heat_bessel",
                                 "heat_hermite", "heat_laguerre")),
    "kernels.subord": ("kernels", ("poisson_kernel_grid", "dt_poisson_kernel_grid",
                                   "poisson_via_subordination")),
    "kernels.angular": ("kernels", ("poisson_bessel", "dt_poisson_bessel",
                                    "poisson_bessel_piece", "dt_poisson_bessel_piece")),
    "kernels.closed": ("kernels", ("poisson_classical", "dt_poisson_classical")),
    "operators.build": ("operators", ("_kernel_tensors",)),
    "operators.apply": ("operators", ("_weighted_apply", "apply_K", "apply_K_plus",
                                      "apply_K_minus", "apply_K_local", "apply_K_global",
                                      "apply_difference_local", "difference_local_pieces")),
    "operators.dominate": ("operators", ("hardy_H0", "hardy_Hinf", "averaging_L",
                                         "log_kernel_A", "sqrt_kernel_N", "maximal_P_star",
                                         "maximal_W_star", "hardy_littlewood_M",
                                         "domination_reflected_hardy", "domination_global_hardy",
                                         "domination_hermite_global", "domination_hermite_local",
                                         "domination_laguerre_local", "domination_bessel_pieces")),
    "operators.sweep": ("operators", ("estimate_catalog", "estimate_ratio_supremum")),
    "transference": ("transference", PUBLIC),
    "covering": ("covering", PUBLIC),
    "spectral_oracle": ("spectral_oracle", PUBLIC),
}

# per-layer metric -> unit; every traced run reports each one, as a number
# or, when its hook point no longer exists, as missing
METRIC_UNITS = {
    "specfun.logI.calls": "count", "specfun.logI.elems": "count", "specfun.logI.self_s": "s",
    "specfun.besselJ.calls": "count", "specfun.besselJ.elems": "count",
    "specfun.besselJ.self_s": "s", "specfun.tables.self_s": "s", "specfun.self_s": "s",
    "quad.rules.calls": "count", "quad.rules.self_s": "s",
    "quad.adaptive.calls": "count", "quad.adaptive.self_s": "s",
    "kernels.heat.calls": "count", "kernels.heat.elems": "count", "kernels.heat.self_s": "s",
    "kernels.subord.calls": "count", "kernels.subord.self_s": "s",
    "kernels.angular.calls": "count", "kernels.angular.elems": "count",
    "kernels.angular.self_s": "s", "kernels.closed.self_s": "s", "kernels.self_s": "s",
    "kernels.entry_calls": "count", "kernels.distinct_ratio": "ratio",
    "operators.build.count": "count", "operators.build_s": "s", "operators.tensor_mb": "MB",
    "operators.hit.count": "count", "operators.hit_ratio": "ratio",
    "operators.apply.calls": "count", "operators.apply.self_s": "s",
    "operators.apply.gflop": "GFLOP", "operators.apply.gb": "GB",
    "operators.dominate.self_s": "s",
    "operators.sweep.self_s": "s", "operators.sweep.points": "count",
    "transference.self_s": "s", "covering.self_s": "s", "spectral_oracle.self_s": "s",
    "setup.build.count": "count", "setup.build_s": "s", "setup.tensor_mb": "MB",
    "trace.pass_s": "s", "trace.spans": "count",
    "trace.overhead_s": "s", "trace.uncovered_s": "s",
}

# the groups each metric reads; a metric is missing when one of them is
_NEEDS = {
    "operators.tensor_mb": ("operators.build",), "operators.build_s": ("operators.build",),
    "operators.hit.count": ("operators.build",),
    "operators.hit_ratio": ("operators.build",), "setup.build.count": ("operators.build",),
    "setup.build_s": ("operators.build",), "setup.tensor_mb": ("operators.build",),
    "kernels.entry_calls": ("kernels.heat", "kernels.subord", "kernels.angular", "kernels.closed"),
    "kernels.distinct_ratio": ("kernels.heat", "kernels.subord", "kernels.angular",
                               "kernels.closed"),
    "kernels.self_s": ("kernels.heat", "kernels.subord", "kernels.angular", "kernels.closed"),
    "specfun.self_s": ("specfun.logI", "specfun.besselJ", "specfun.tables"),
}


def _needs(metric: str) -> tuple:
    if metric in _NEEDS:
        return _NEEDS[metric]
    group = metric.rsplit(".", 1)[0]
    if group in GROUPS:
        return (group,)
    head = metric.split(".")[0]
    return (head,) if head in GROUPS else ()


def _digest(value) -> str:
    if isinstance(value, np.ndarray):
        h = hashlib.blake2b(np.ascontiguousarray(value).tobytes(), digest_size=8)
        return f"a{value.shape}{h.hexdigest()}"
    return repr(value)


def _apply_cost(bound) -> tuple:
    """(flops, bytes) of one weighted apply, computed from array sizes.

    Per lag m the contraction xy,tyf->txf costs 2 nx^2 (nt - m) F flops and
    streams the lag's (nx, nx) slice plus (nt - m) rows of input and output;
    a weight matrix adds one multiply and one extra copy of every slice.
    The near-diagonal tail is two more contractions over all nt rows.
    """
    f = bound.arguments["f"]
    delta = bound.arguments.get("delta_steps", 2)
    weighted = bound.arguments.get("weight") is not None
    nt, nx, fib = f.values.shape
    lags = max(nt - delta, 0)
    rows = lags * (lags + 1) // 2
    flops = 2.0 * nx * nx * fib * (rows + 2 * nt) + (lags * nx * nx if weighted else 0)
    slices = lags * nx * nx * (3 if weighted else 1)
    field = 3 * rows * nx * fib + 6 * nt * nx * fib
    return flops, 8.0 * (slices + field)


class Tracer:
    """Wraps layer functions and records one span per call."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.missing = set()
        self.missing_hooks = []
        self.installed = []
        self.windows = []

    # -- installation -----------------------------------------------------

    def install(self):
        for group, (mod_name, names) in GROUPS.items():
            module = self.modules.get(mod_name)
            if module is None:
                self.missing.add(group)
                self.missing_hooks.append(mod_name)
                continue
            if names == PUBLIC:
                names = tuple(n for n in getattr(module, "__all__", ())
                              if inspect.isfunction(getattr(module, n, None)))
            for name in names:
                fn = getattr(module, name, None)
                if fn is None or not callable(fn):
                    # a partly hooked group would undercount: report it missing
                    self.missing.add(group)
                    self.missing_hooks.append(f"{mod_name}.{name}")
                    continue
                self._replace(fn, self._wrap(group, name, fn))

    def _replace(self, original, wrapper):
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("semireg"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self.installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self.installed):
            setattr(module, attr, original)
        self.installed.clear()

    def _wrap(self, group, name, fn):
        spans, stack = self.spans, self.stack
        kernel = group.startswith("kernels.")
        # argument binding is needed only where the cost is read from arguments
        sig = inspect.signature(fn) if name in ("_weighted_apply", "estimate_ratio_supremum") \
            else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            key = None
            if kernel and (parent < 0 or not spans[parent][0].startswith("kernels.")):
                key = (name,) + tuple(_digest(a) for a in args) \
                    + tuple(f"{k}={_digest(v)}" for k, v in sorted(kwargs.items()))
            idx = len(spans)
            spans.append([group, name, 0.0, 0.0, parent, 0.0, 0.0, key])
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[idx]
                span[2], span[3] = start, end
            if group in ("specfun.logI", "specfun.besselJ") and len(args) > 1:
                span[5] = float(np.size(args[1]))
            elif kernel:
                span[5] = float(np.size(out))
            elif group == "operators.build":
                span[5] = float(sum(np.asarray(a).nbytes for a in out))
            elif sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if name == "estimate_ratio_supremum":
                    span[5] = _sweep_points(bound)
                else:
                    span[5], span[6] = _apply_cost(bound)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__perfbench_span__ = group
        return wrapper

    # -- windows and reduction -------------------------------------------

    def window(self, start: float, end: float):
        """Declare [start, end] as measured pass time."""
        self.windows.append((start, end))

    def metrics(self, passes: int) -> tuple:
        """Per-pass layer metrics over spans that start inside a window, and
        the names of those whose hook points are missing (reported as None)."""
        spans = self.spans
        n = len(spans)
        child = np.zeros(n)
        for s in spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        built = np.zeros(n, dtype=bool)
        for s in spans:
            if s[0].startswith("kernels."):
                p = s[4]
                while p >= 0 and spans[p][0] != "operators.build":
                    p = spans[p][4]
                if p >= 0:
                    built[p] = True
        starts = np.array([w[0] for w in self.windows])
        ends = np.array([w[1] for w in self.windows])

        def in_pass(s):
            i = np.searchsorted(starts, s[2], side="right") - 1
            return i >= 0 and s[2] <= ends[i]

        acc = {}
        setup = {"count": 0, "s": 0.0, "bytes": 0.0}
        keys = []
        covered = 0.0
        for i, s in enumerate(spans):
            group = s[0]
            dur = s[3] - s[2]
            if group == "operators.build" and built[i] and not in_pass(s):
                setup["count"] += 1
                setup["s"] += dur
                setup["bytes"] += s[5]
            if not in_pass(s):
                continue
            if s[4] < 0:
                covered += dur
            a = acc.setdefault(group, {"calls": 0, "self": 0.0, "x": 0.0, "y": 0.0,
                                       "build": 0, "build_s": 0.0, "bytes": 0.0})
            a["calls"] += 1
            a["self"] += dur - child[i]
            a["x"] += s[5]
            a["y"] += s[6]
            if group == "operators.build" and built[i]:
                a["build"] += 1
                a["build_s"] += dur
                a["bytes"] += s[5]
            if s[7] is not None:
                keys.append(s[7])

        def g(group, field):
            return acc.get(group, {}).get(field, 0)

        measured = float(np.sum(ends - starts)) if self.windows else 0.0
        builds = g("operators.build", "build")
        calls_build = g("operators.build", "calls")
        kernel_groups = ("kernels.heat", "kernels.subord", "kernels.angular", "kernels.closed")
        raw = {
            "specfun.logI.calls": g("specfun.logI", "calls"),
            "specfun.logI.elems": g("specfun.logI", "x"),
            "specfun.logI.self_s": g("specfun.logI", "self"),
            "specfun.besselJ.calls": g("specfun.besselJ", "calls"),
            "specfun.besselJ.elems": g("specfun.besselJ", "x"),
            "specfun.besselJ.self_s": g("specfun.besselJ", "self"),
            "specfun.tables.self_s": g("specfun.tables", "self"),
            "specfun.self_s": sum(g(k, "self") for k in ("specfun.logI", "specfun.besselJ",
                                                         "specfun.tables")),
            "quad.rules.calls": g("quad.rules", "calls"),
            "quad.rules.self_s": g("quad.rules", "self"),
            "quad.adaptive.calls": g("quad.adaptive", "calls"),
            "quad.adaptive.self_s": g("quad.adaptive", "self"),
            "kernels.heat.calls": g("kernels.heat", "calls"),
            "kernels.heat.elems": g("kernels.heat", "x"),
            "kernels.heat.self_s": g("kernels.heat", "self"),
            "kernels.subord.calls": g("kernels.subord", "calls"),
            "kernels.subord.self_s": g("kernels.subord", "self"),
            "kernels.angular.calls": g("kernels.angular", "calls"),
            "kernels.angular.elems": g("kernels.angular", "x"),
            "kernels.angular.self_s": g("kernels.angular", "self"),
            "kernels.closed.self_s": g("kernels.closed", "self"),
            "kernels.self_s": sum(g(k, "self") for k in kernel_groups),
            "kernels.entry_calls": len(keys),
            "operators.build.count": builds,
            "operators.build_s": g("operators.build", "build_s"),
            "operators.tensor_mb": g("operators.build", "bytes") / 1e6,
            "operators.hit.count": calls_build - builds,
            "operators.apply.calls": g("operators.apply", "calls"),
            "operators.apply.self_s": g("operators.apply", "self"),
            "operators.apply.gflop": g("operators.apply", "x") / 1e9,
            "operators.apply.gb": g("operators.apply", "y") / 1e9,
            "operators.dominate.self_s": g("operators.dominate", "self"),
            "operators.sweep.self_s": g("operators.sweep", "self"),
            "operators.sweep.points": g("operators.sweep", "x"),
            "transference.self_s": g("transference", "self"),
            "covering.self_s": g("covering", "self"),
            "spectral_oracle.self_s": g("spectral_oracle", "self"),
            "trace.pass_s": measured,
            "trace.spans": sum(a["calls"] for a in acc.values()),
            "trace.uncovered_s": measured - covered,
        }
        out = {k: v / passes for k, v in raw.items()}
        # ratios are per-pass invariant, with their bases kernels.entry_calls
        # and build.count + hit.count; with no calls nothing was wasted: 1
        out["kernels.distinct_ratio"] = len(set(keys)) / len(keys) if keys else 1.0
        out["operators.hit_ratio"] = (calls_build - builds) / calls_build if calls_build else 1.0
        out["setup.build.count"] = setup["count"]
        out["setup.build_s"] = setup["s"]
        out["setup.tensor_mb"] = setup["bytes"] / 1e6
        missing = [m for m in out if any(grp in self.missing for grp in _needs(m))]
        for metric in missing:
            out[metric] = None
        return out, missing

    def dump(self, path: str):
        """Write the spans as JSON lines: group, function, start, end, parent."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[0], s[1], round(s[2], 9), round(s[3], 9), s[4]]))
                fh.write("\n")


def _sweep_points(bound) -> float:
    record = bound.arguments["record"]
    base = bound.arguments.get("base_shape") or record.base_shape
    levels = bound.arguments.get("levels", 3)
    total = 0
    for level in range(levels):
        count = 1
        for n in base:
            count *= (n - 1) * 2 ** level + 1
        total += count
    return float(total)


def wrapped_attributes() -> int:
    """Number of semireg module attributes that currently hold a span wrapper."""
    count = 0
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("semireg"):
            continue
        count += sum(1 for v in vars(module).values() if hasattr(v, "__perfbench_span__"))
    return count
