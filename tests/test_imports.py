"""Every name a library module imports is one it uses, and every name the
package exports has a caller outside the tests."""

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


def test_every_exported_name_has_a_caller_outside_the_tests():
    # ROADMAP north star: "Remove public surface with no caller in src/,
    # demos/ or the CLI."
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    referenced = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert exported - referenced == set()
