"""Every name a library module imports is one it uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mlpinit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# perfbench's tracer replaces these harness attributes, although the
# training loop calls the unchecked cores instead; they go when the tracer
# wraps the cores (ROADMAP item 0).
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
