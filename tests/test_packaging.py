"""Every console script that pyproject.toml declares can be imported, and every
name a semireg module exports exists."""

import importlib
import pkgutil
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
