"""Every console script that pyproject.toml declares can be imported."""

import importlib
import tomllib
from pathlib import Path

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
