"""One benchmark process: set up a workload, then run its passes.

    python3 perfbench/worker.py --workload NAME --seed N --role ROLE
                                [--budget S] [--trace 0|1] [--spans PATH] [--tiny]

run.py starts these; each prints one JSON line as its last line of output.
Times are reported raw and scaled to nominal machine speed (see probe.py).
Roles: "setup" stops once set-up is done, "pass" runs one pass, "loop" runs
passes until the next one would overrun --budget seconds at nominal speed.
"ready" is the CLOCK_MONOTONIC time at which set-up ended, which the parent
compares with the time it started the process.  --tiny shrinks the grids
for self-tests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cause(exc: BaseException) -> str:
    tb = traceback.extract_tb(exc.__traceback__)
    where = f" at {os.path.basename(tb[-1].filename)}:{tb[-1].lineno}" if tb else ""
    return f"{type(exc).__name__}: {exc}{where}"


def run_pass(ops, samples: list, failures: list, tracer, probe) -> tuple:
    """Time each operation, then check it; returns the pass's (raw, nominal)
    seconds.  Samples are [name, raw seconds, nominal seconds]; raw excludes
    the speed probe's own time."""
    clock = time.perf_counter
    done = {}
    windows = []
    for op in ops:
        start = clock()
        try:
            result, causes = op.run(), []
        except Exception as exc:  # a failed operation is counted, not fatal
            result, causes = None, [_cause(exc)]
        end = clock()
        if tracer is not None:
            tracer.window(start, end)
        if not causes:
            try:
                causes = op.check(result, done)
            except Exception as exc:
                causes = [f"check raised {_cause(exc)}"]
        done[op.name] = result
        windows.append((op.name, start, end))
        if causes:
            failures.append({"op": op.name, "causes": causes})
    probe.sample(2)
    raw = nominal = 0.0
    for name, start, end in windows:
        seconds = end - start - probe.inside(start, end)
        scaled = seconds * probe.scale(start, end)
        samples.append([name, seconds, scaled])
        raw += seconds
        nominal += scaled
    return raw, nominal


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=("setup", "pass", "loop"), required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default="")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from probe import SpeedProbe
    from spans import Tracer, wrapped_attributes

    tracer = None
    if args.trace:
        mods = {k.split(".", 1)[1]: m for k, m in sys.modules.items()
                if k.startswith("semireg.") and m is not None}
        tracer = Tracer(mods)
        tracer.install()
    with SpeedProbe() as probe:
        workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
        ready = time.monotonic()
        probe.sample(10)
        out = {"ready": ready, "setup_scale": probe.scale(0.0, time.perf_counter()),
               "passes": [], "raw_passes": [], "samples": [], "failures": [], "attempted": 0}
        while args.role != "setup":
            ops = workload.operations()
            out["attempted"] += len(ops)
            raw, nominal = run_pass(ops, out["samples"], out["failures"], tracer, probe)
            out["raw_passes"].append(raw)
            out["passes"].append(nominal)
            done = out["passes"]
            if args.role == "pass" or sum(done) + statistics.median(done) > args.budget:
                break
    if args.role != "setup":
        # untimed: kernel error against the committed references
        out["attempted"] += 1
        try:
            errs = workload.kernel_errors()
            out["kernel_errors"] = errs
            bad = {k: v for k, v in errs.items() if not v <= workloads.KERNEL_TOL}
            if bad:
                out["failures"].append({"op": "kernel-references", "causes": [
                    f"{k}: normwise error {v:.3g} above {workloads.KERNEL_TOL}" for k, v in bad.items()]})
        except Exception as exc:
            out["kernel_errors"] = {}
            out["failures"].append({"op": "kernel-references", "causes": [_cause(exc)]})
    if tracer is not None:
        out["layers"], out["missing_metrics"] = tracer.metrics(max(len(out["passes"]), 1))
        out["missing_hooks"] = tracer.missing_hooks
        if args.spans:
            tracer.dump(args.spans)
    out["wrappers"] = wrapped_attributes()
    out["semireg"] = sys.modules["semireg"].__file__
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
