"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; semireg is imported from ./src.  Workloads:
cold-dominations, warm-vector-apply, pointwise-checks (see workloads.py).

All load comes from one process at a time.  cold-dominations and
pointwise-checks start one interpreter per pass, so every pass begins with
empty kernel caches; passes repeat while the next one still fits in
--seconds.  warm-vector-apply runs three interpreters that each build the
tensors in set-up and then apply for a third of --seconds.  Set-up is timed
from process start to the end of set-up, at least five times per run;
setup_s is the median.  Every time is scaled to nominal machine speed by a
speed probe that runs alongside (probe.py); --seconds counts scaled time.

A request is what a user waits for: one pass of the check workloads, one
apply of warm-vector-apply.  latency_ms_tail is the highest percentile of
request latency with at least ten requests beyond it, or the maximum when
there are fewer than eleven requests; the table names which.

With --trace 0 the last output line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, which runs
untraced and traced interpreters alternately so that trace.overhead_s can
be measured.  A readable table precedes that line, and the full record,
with provenance and raw times, goes to .bench_results/.  The exit code is 0
whenever the run completes, including runs whose checks fail (then
"correct" is false); it is 2 when ./src/semireg is missing and 1 when a
benchmark process dies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("cold-dominations", "warm-vector-apply", "pointwise-checks")
PER_PASS = ("cold-dominations", "pointwise-checks")
MIN_SETUPS = 5
WARM_PROCESSES = 3
# BLAS/OpenMP threads per process (at most nproc); one keeps runs steady
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# stop starting passes after this much wall time; processes die at DEADLINE
SOFT_LIMIT = 110.0
DEADLINE = 170.0

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "ops_per_s": "1/s", "latency_ms_p50": "ms",
    "latency_ms_tail": "ms", "peak_rss_mb": "MiB", "kernel_rel_err": "ratio", "ok_ratio": "ratio",
}


class BenchError(RuntimeError):
    """A benchmark process died or broke the protocol."""


def tail_percentile(samples: list) -> tuple:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it.  With fewer than eleven samples no percentile has ten beyond
    it, and the maximum is reported as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return 100.0, xs[-1]
    # the order statistic at index n - 11 has exactly ten samples above it
    return 100.0 * (n - 10) / n, xs[n - 11]


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                        **{v: str(THREADS) for v in THREAD_VARS})
        self.children = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, role: str, budget: float = 0.0, traced: bool = False) -> dict:
        index = len(self.children)
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
               "--role", role, "--budget", f"{budget:.3f}", "--trace", str(int(traced))]
        if traced:
            cmd += ["--spans", os.path.join(
                RESULTS, f"spans-{self.workload}-seed{self.seed}-{index}.jsonl")]
        timeout = max(DEADLINE - self.elapsed(), 1.0)
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{role} process exceeded {timeout:.0f} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{role} process exited {proc.returncode}: {proc.stderr[-2000:]}")
        out = json.loads(lines[-1])
        if not os.path.abspath(out["semireg"]).startswith(SRC + os.sep):
            raise BenchError(f"semireg was imported from {out['semireg']}, not {SRC}")
        raw_setup = out["ready"] - start
        out.update(role=role, traced=traced, raw_setup_s=raw_setup,
                   setup_s=raw_setup * out["setup_scale"], wall_s=time.monotonic() - start)
        self.children.append(out)
        return out

    # -- schedules ----------------------------------------------------------

    def run(self):
        if self.workload in PER_PASS:
            self._per_pass()
        else:
            self._warm()
        while not self.trace and len(self.children) < MIN_SETUPS and self.elapsed() < SOFT_LIMIT:
            self.spawn("setup")

    def _per_pass(self):
        # traced runs alternate untraced and traced passes
        sides = (False, True) if self.trace else (False,)
        measured, walls = [], []
        while True:
            for traced in sides:
                c = self.spawn("pass", traced=traced)
                walls.append(c["wall_s"])
            measured.append(sum(c["passes"][0] for c in self.children[-len(sides):]))
            if sum(measured) + statistics.median(measured) > self.seconds \
                    or self.elapsed() + len(sides) * statistics.median(walls) > SOFT_LIMIT:
                break

    def _warm(self):
        if self.trace:
            self.spawn("loop", self.seconds / 2)
            self.spawn("loop", self.seconds / 2, traced=True)
        else:
            for _ in range(WARM_PROCESSES):
                self.spawn("loop", self.seconds / WARM_PROCESSES)

    # -- reduction ----------------------------------------------------------

    def counts(self) -> tuple:
        attempted = sum(c["attempted"] for c in self.children)
        failures = [f for c in self.children for f in c["failures"]]
        return attempted, failures

    def end_to_end(self) -> tuple:
        work = [c for c in self.children if c["role"] != "setup"]
        passes = [p for c in work for p in c["passes"]]
        samples = [s[2] for c in work for s in c["samples"]]
        requests = passes if self.workload in PER_PASS else samples
        kind = "passes" if self.workload in PER_PASS else "applies"
        attempted, failures = self.counts()
        pct, tail = tail_percentile(requests)
        errs = [v for c in work for v in c.get("kernel_errors", {}).values()]
        values = {
            "setup_s": statistics.median(c["setup_s"] for c in self.children),
            "pass_s": statistics.median(passes),
            "ops_per_s": len(samples) / sum(samples),
            "latency_ms_p50": 1e3 * statistics.median(requests),
            "latency_ms_tail": 1e3 * tail,
            "peak_rss_mb": max(c["peak_rss_mb"] for c in work),
            "kernel_rel_err": max(errs) if errs else None,
            "ok_ratio": (attempted - len(failures)) / attempted,
        }
        notes = {
            "setup_s": f"median of {len(self.children)} set-ups",
            "pass_s": f"median of {len(passes)} passes",
            "ops_per_s": f"{len(samples)} operations",
            "latency_ms_p50": f"median of {len(requests)} {kind}",
            "latency_ms_tail": ("max" if pct == 100.0 else f"p{pct:.1f}")
                               + f" of {len(requests)} {kind}",
            "kernel_rel_err": f"max over {len(errs)} kernel/family checks",
            "ok_ratio": f"{attempted - len(failures)} of {attempted} passed",
        }
        return values, notes

    def per_layer(self) -> tuple:
        from spans import METRIC_UNITS

        traced = [c for c in self.children if c["traced"]]
        plain = [p for c in self.children if c["role"] != "setup" and not c["traced"]
                 for p in c["passes"]]
        weights = [len(c["passes"]) for c in traced]
        values, notes = {}, {}
        for name in METRIC_UNITS:
            if name == "trace.overhead_s":
                continue
            vals = [c["layers"].get(name) for c in traced]
            if any(v is None for v in vals):
                values[name] = None
            else:
                values[name] = sum(v * w for v, w in zip(vals, weights)) / sum(weights)
        traced_passes = [p for c in traced for p in c["passes"]]
        values["trace.overhead_s"] = statistics.median(traced_passes) - statistics.median(plain)
        missing = sorted({h for c in traced for h in c.get("missing_hooks", [])})
        notes["trace.overhead_s"] = f"median traced pass minus median of {len(plain)} untraced"
        builds = values["operators.build.count"]
        bases = {"kernels.distinct_ratio": values["kernels.entry_calls"],
                 "operators.hit_ratio": None if builds is None
                 else builds + values["operators.hit.count"]}
        for ratio, base in bases.items():
            if base == 0:
                notes[ratio] = "no calls: nothing wasted"
        if missing:
            notes["missing_hooks"] = ", ".join(missing)
        return values, notes


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        import mpmath
        mp_version = mpmath.__version__
    except ImportError:
        mp_version = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mp_version,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: str(THREADS) for v in THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "semireg", "__init__.py")):
        print(f"error: {SRC}/semireg not found; run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        runner.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failures = runner.counts()
    if args.trace:
        from spans import METRIC_UNITS as units
        values, notes = runner.per_layer()
    else:
        units = END_TO_END
        values, notes = runner.end_to_end()
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        if value is None:
            metrics[name]["missing"] = True
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  notes=notes, failures=failures, provenance=provenance(args.seed),
                  processes=[{k: c[k] for k in ("role", "traced", "setup_s", "raw_setup_s", "wall_s",
                                                "passes", "raw_passes", "attempted", "peak_rss_mb")}
                             | {"kernel_errors": c.get("kernel_errors", {})}
                             for c in runner.children])
    by_op = {}
    for c in runner.children:
        for op, raw, nominal in c["samples"]:
            by_op.setdefault(op, []).append((raw, nominal))
    record["op_median_s"] = {op: {"raw": statistics.median(r for r, _ in v),
                                  "nominal": statistics.median(n for _, n in v)}
                             for op, v in by_op.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {attempted} operations, {len(failures)} failed, "
          f"fail_ratio {len(failures) / attempted:.4g}")
    alias = {"ops_per_s": "applies_per_s", "latency_ms_p50": "apply_ms_p50",
             "latency_ms_tail": "apply_ms_tail"} if args.workload == "warm-vector-apply" else {}
    for key, m in metrics.items():
        shown = f"{key} ({alias[key]})" if key in alias else key
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {shown:34s} {value:>14s} {m['unit']:6s} {notes.get(key, '')}")
    for f in failures:
        print(f"  FAILED {f['op']}: {'; '.join(f['causes'])}")
    if "missing_hooks" in notes:
        print(f"  missing hook points: {notes['missing_hooks']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
