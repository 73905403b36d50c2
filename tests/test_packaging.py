"""Every console script that pyproject.toml declares can be imported, every
name a semireg module exports exists, and importing semireg stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys
import tomllib
from pathlib import Path

import semireg

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_declared_script_imports():
    scripts = tomllib.loads(PYPROJECT.read_text()).get("project", {}).get("scripts", {})
    broken = []
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        try:
            obj = importlib.import_module(module)
            for part in filter(None, attr.split(".")):
                obj = getattr(obj, part)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{name} = {target}: {exc}")
            continue
        if not callable(obj):
            broken.append(f"{name} = {target}: not callable")
    assert not broken


def test_every_all_entry_resolves():
    # the benchmark tracer hooks every name in a layer's __all__ and skips
    # a name that does not resolve, so a stale entry would drop a hook
    stale = []
    for info in pkgutil.iter_modules(semireg.__path__):
        module = importlib.import_module(f"semireg.{info.name}")
        stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert not stale


def test_import_loads_no_heavy_scipy_package():
    # process start-up is the largest cost of a fresh benchmark process:
    # these packages add about 0.3 s, and nothing in semireg needs them
    heavy = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.sparse")
    code = (
        "import importlib, pkgutil, sys, semireg\n"
        "for info in pkgutil.iter_modules(semireg.__path__):\n"
        "    importlib.import_module('semireg.' + info.name)\n"
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))\n"
    )
    src = str(Path(semireg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"
