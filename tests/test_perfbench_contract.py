"""The benchmark's calls into semireg still resolve and run.

perfbench/workloads.py drives semireg through its public functions; a name
or keyword that a refactor removes shows up only as a failed operation when
the benchmark runs.  This test runs one tiny-grid pass of every workload,
calling each operation but not its check: the pinned bounds are measured on
the full grids and need not hold on tiny ones.  spec.py and workloads.py
are executed from their source text, so nothing is written next to them.
"""

import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as monkeypatch:
        _load("spec", monkeypatch)
        yield _load("workloads", monkeypatch)


@pytest.mark.parametrize("name", ["cold-dominations", "warm-vector-apply", "pointwise-checks"])
def test_every_operation_runs_on_tiny_grids(workloads, name):
    workload = workloads.WORKLOADS[name](seed=7, tiny=True)
    ops = workload.operations()
    assert ops
    for op in ops:
        op.run()
    workload.kernel_errors()
