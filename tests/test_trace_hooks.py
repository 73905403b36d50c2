"""The benchmark tracer's hook points are still semireg functions.

perfbench/spans.py wraps the functions named in its GROUPS table; a name
that a refactor removes or renames is reported as a missing hook only when
a traced benchmark runs.  This test reads that table (the file is executed
from its source text, so nothing is written next to it) and fails at once.
"""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_namespace() -> dict:
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_every_trace_hook_is_a_semireg_function():
    spans = _spans_namespace()
    missing = []
    for group, (mod_name, names) in spans["GROUPS"].items():
        module = importlib.import_module(f"semireg.{mod_name}")
        if names == spans["PUBLIC"]:
            # the tracer wraps the functions among the exported names
            names = [n for n in module.__all__ if callable(getattr(module, n, None))]
            if not names:
                missing.append(f"{group}: no function exported by semireg.{mod_name}")
        missing += [f"{group}: semireg.{mod_name}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert not missing
