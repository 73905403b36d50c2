"""Every exported semireg name has a caller in the package or the benchmark.

The package's public surface is what src/semireg and perfbench call; a name
that only the tests call is test scaffolding and belongs in the tests.  This
test reads the sources with ast (it imports and writes nothing) and resolves
each reference to the module that defines it, so an attribute such as
scipy.integrate does not count as a call of quad.integrate.

Exported means listed in a module's __all__, or a public function of
specfun, which has no __all__.  perfbench/spans.py is not a caller: it hooks
names for tracing, and the names it hooks are allow-listed instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semireg"
BENCH = ROOT / "perfbench"

# exported names without a caller, kept on purpose: reason -> names
ALLOWED_BY_REASON = {
    "oracles, the independent references for the kernel formulas": (
        ("spectral_oracle", "hermite_heat_series"),
        ("spectral_oracle", "hankel_poisson_kernel_oracle"),
        ("spectral_oracle", "eigen_identity_residual"),
    ),
    "the paper's estimate behind the square-root band kernel": (
        ("operators", "difference_kernel_time_integral"),
    ),
    "the chart API that change-of-variable operators are to be built on": (
        ("transference", "apply_UW"),
        ("transference", "apply_UW_inverse"),
        ("transference", "transferred_eigenfunction"),
        ("transference", "chart_eigenvalue"),
    ),
    "setting constructors, one per family": (
        ("kernels", "classical"),
        ("kernels", "bessel"),
    ),
    "trace hooks in perfbench/spans.py GROUPS": (
        ("operators", "apply_K_plus"),
        ("quad", "integrate"),
        ("quad", "integrate_or_raise"),
        ("specfun", "hermite_function"),
        ("specfun", "laguerre_function"),
        ("specfun", "modified_bessel_i"),
    ),
}
ALLOWED = {name for names in ALLOWED_BY_REASON.values() for name in names}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exports() -> set:
    """(module, name) for every exported name of the package."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree, module = _parse(path), path.stem
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                out |= {(module, name) for name in ast.literal_eval(node.value)}
        if module == "specfun":
            out |= {(module, node.name) for node in tree.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    out.discard(("__init__", "__version__"))
    return out


def _package_module(node: ast.ImportFrom, own_package: bool):
    """The semireg module an import-from reads from, or None (the package
    itself is "")."""
    if node.level == 1 and own_package:
        return node.module or ""
    if node.level == 0 and node.module is not None:
        if node.module == "semireg":
            return ""
        if node.module.startswith("semireg."):
            return node.module.split(".", 1)[1]
    return None


def _references(path: Path, own_module) -> set:
    """(module, name) of every semireg name that the file loads."""
    tree = _parse(path)
    names = {}    # local name -> (module, name)
    modules = {}  # local name -> semireg module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node, own_module is not None)
            for alias in node.names if source is not None else ():
                local = alias.asname or alias.name
                if source == "":
                    modules[local] = alias.name
                else:
                    names[local] = (source, alias.name)
    if own_module is not None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.setdefault(node.name, (own_module, node.name))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.setdefault(target.id, (own_module, target.id))
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
            refs.add(names[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            refs.add((modules[node.value.id], node.attr))
    return refs


def _callers() -> set:
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")):
        refs |= _references(path, path.stem)
    for path in sorted(BENCH.glob("*.py")):
        if path.name != "spans.py":
            refs |= _references(path, None)
    return refs


def test_every_export_has_a_caller():
    exports, callers = _exports(), _callers()
    uncalled = sorted(f"{m}.{n}" for m, n in exports - callers if (m, n) not in ALLOWED)
    assert not uncalled, f"exported but called only by tests: {uncalled}"


def test_allow_list_names_exports():
    # a deleted or renamed name leaves the list with it
    assert not sorted(f"{m}.{n}" for m, n in ALLOWED - _exports())
