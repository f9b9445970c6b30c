"""Every name a library module imports is one it uses, every name the
package exports has a caller outside the tests, every function it exports
has one outside its own module, and only ``numerics`` asks numpy what kind
of dtype an array has."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mlpinit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The code that may call the public surface: the library itself, the demos
# and the benchmark (load_model's only caller is perfbench/workloads.py).
CALLERS = MODULES + sorted(
    p for folder in ("demos", "perfbench") for p in (ROOT / folder).glob("*.py")
    if not p.name.startswith("test_")
)

# perfbench's tracer replaces these harness attributes, although the
# training loop runs step plans instead; they go when the tracer wraps the
# plans (ROADMAP item 0).
UNUSED_ALLOWED = {"harness": {"forward", "backward"}}

# The helpers that know the (..., out, in + 1) parameter-block layout. Other
# modules get a stacked model over a flat parameter vector from
# network._flat_stack, and step plans that bind their own gradient blocks.
LAYOUT_HELPERS = {"_weights_and_bias", "_flat_blocks"}


def unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_uses_every_name_it_imports(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert unused <= UNUSED_ALLOWED.get(path.stem, set()), sorted(unused)


def exports() -> dict[str, Path]:
    """Each name the package exports, mapped to the module that defines it."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name: PACKAGE / f"{node.module}.py"
        for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names(path: Path) -> set[str]:
    """Every name a file reads or takes as an attribute."""
    referenced = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
    return referenced


def test_every_exported_name_has_a_caller_outside_the_tests():
    # ROADMAP north star: "Remove public surface with no caller in src/,
    # demos/ or the CLI."
    referenced = set().union(*map(referenced_names, CALLERS))
    assert set(exports()) - referenced == set()


def test_every_exported_function_has_a_caller_outside_its_own_module():
    # A function that only its own module calls is a helper, not public surface.
    referenced = {path: referenced_names(path) for path in CALLERS}
    uncalled = []
    for name, module in exports().items():
        defined = ast.parse(module.read_text(encoding="utf-8")).body
        if any(isinstance(node, ast.FunctionDef) and node.name == name for node in defined):
            if not any(name in names for path, names in referenced.items() if path != module):
                uncalled.append(name)
    assert uncalled == []


def names_in(tree: ast.Module) -> set[str]:
    """Every name a module defines, imports, reads or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_only_network_names_the_parameter_block_layout():
    named = {path.stem: names_in(ast.parse(path.read_text(encoding="utf-8"))) for path in MODULES}
    assert LAYOUT_HELPERS <= named["network"]
    outside = {stem: sorted(names & LAYOUT_HELPERS) for stem, names in named.items()
               if stem != "network" and names & LAYOUT_HELPERS}
    assert outside == {}


def calls_of(tree: ast.Module, name: str) -> int:
    """How many calls in a module go to ``name`` or to an attribute of that
    name (``np.issubdtype`` and ``issubdtype`` alike)."""
    return sum(
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
        for node in ast.walk(tree)
    )


def test_only_numerics_decides_what_an_array_dtype_is():
    # numerics._check_ints and _check_reals are the one rule for integer
    # and real arrays that reach the library from outside.
    calls = {path.stem: calls_of(ast.parse(path.read_text(encoding="utf-8")), "issubdtype")
             for path in MODULES}
    assert calls["numerics"] > 0
    assert {stem: n for stem, n in calls.items() if n and stem != "numerics"} == {}


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, as ``from .errors import ...``
    or ``from . import _pool``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return found


def test_only_harness_knows_the_suite_cells():
    # harness.SUITE_CELLS is the one table of cells and presets: the
    # optimizer knows no topology or initializer, and no other module
    # makes a Hyperparams.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert package_imports(trees["optimizer"]) == {"errors"}
    calls = {stem: calls_of(tree, "Hyperparams") for stem, tree in trees.items()}
    assert calls["harness"] > 0
    assert {stem: n for stem, n in calls.items() if n and stem != "harness"} == {}
