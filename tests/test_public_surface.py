"""Every exported semireg name has a caller in the package or the benchmark,
and every defaulted parameter of an exported function is passed by one.

The package's public surface is what src/semireg and perfbench call; a name
or a knob that only the tests use is test scaffolding and belongs in the
tests.  This test reads the sources with ast (it imports and writes nothing)
and resolves each reference to the module that defines it, so an attribute
such as scipy.integrate does not count as a call of quad.integrate.

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

# defaulted parameters that no caller passes, kept on purpose: reason ->
# (module, function, parameter)
ALLOWED_PARAMETERS_BY_REASON = {
    "lifts the cap guard for the 255-term truncation tests": (
        ("spectral_oracle", "hermite_heat_series", "index_cap"),
        ("spectral_oracle", "laguerre_heat_series", "index_cap"),
    ),
    "trace hooks in perfbench/spans.py GROUPS, deleted with their functions": (
        ("specfun", "hermite_function", "index_cap"),
        ("specfun", "laguerre_function", "index_cap"),
    ),
}
ALLOWED_PARAMETERS = {p for params in ALLOWED_PARAMETERS_BY_REASON.values() for p in params}


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


def _resolver(tree: ast.Module, own_module):
    """A function that gives the (module, name) of the semireg name an
    expression loads, or None."""
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

    def resolve(node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            return names.get(node.id)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            return (modules[node.value.id], node.attr)
        return None

    return resolve


def _caller_trees():
    """(tree, own module or None) of every file whose calls count."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield _parse(path), path.stem
    for path in sorted(BENCH.glob("*.py")):
        if path.name != "spans.py":
            yield _parse(path), None


def _callers() -> set:
    """(module, name) of every semireg name that a counted file loads."""
    refs = set()
    for tree, own_module in _caller_trees():
        resolve = _resolver(tree, own_module)
        refs |= {ref for ref in map(resolve, ast.walk(tree)) if ref is not None}
    return refs


def _passed() -> dict:
    """(module, name) -> (positional count, keyword names, spread) of each
    call that a counted file makes; a spread call, with *args or **kwargs,
    passes everything."""
    out = {}
    for tree, own_module in _caller_trees():
        resolve = _resolver(tree, own_module)
        for node in ast.walk(tree):
            ref = isinstance(node, ast.Call) and resolve(node.func)
            if not ref:
                continue
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            out.setdefault(ref, []).append((len(node.args), {k.arg for k in node.keywords}, spread))
    return out


def _defaulted_parameters() -> set:
    """(module, function, parameter, position) of every defaulted parameter
    of an exported function; keyword-only parameters have position None."""
    exports, out = _exports(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in _parse(path).body:
            if not isinstance(node, ast.FunctionDef) or (module, node.name) not in exports:
                continue
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            out |= {(module, node.name, a.arg, i)
                    for i, a in enumerate(positional) if i >= first}
            out |= {(module, node.name, a.arg, None)
                    for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None}
    return out


def test_every_export_has_a_caller():
    exports, callers = _exports(), _callers()
    uncalled = sorted(f"{m}.{n}" for m, n in exports - callers if (m, n) not in ALLOWED)
    assert not uncalled, f"exported but called only by tests: {uncalled}"


def test_allow_list_names_exports():
    # a deleted or renamed name leaves the list with it
    assert not sorted(f"{m}.{n}" for m, n in ALLOWED - _exports())


def test_every_defaulted_parameter_is_passed():
    calls = _passed()
    unpassed = []
    for module, name, param, position in sorted(_defaulted_parameters(), key=str):
        if (module, name, param) in ALLOWED_PARAMETERS:
            continue
        if not any(spread or param in keywords or (position is not None and count > position)
                   for count, keywords, spread in calls.get((module, name), ())):
            unpassed.append(f"{module}.{name}({param})")
    assert not unpassed, f"defaulted parameters that only tests set: {unpassed}"


def test_parameter_allow_list_names_parameters():
    # a deleted or renamed parameter leaves the list with it
    known = {(m, n, p) for m, n, p, _ in _defaulted_parameters()}
    assert not sorted(f"{m}.{n}({p})" for m, n, p in ALLOWED_PARAMETERS - known)
