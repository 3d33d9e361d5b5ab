"""Every name a demo imports from voliso still exists (the demos
themselves take seconds to run, and no other test touches them)."""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def _voliso_imports(path):
    """(module, name or None) for every voliso import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "voliso"):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "voliso")


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports_resolve(path):
    imports = list(_voliso_imports(path))
    assert imports
    for module, name in imports:
        target = importlib.import_module(module)
        assert name is None or hasattr(target, name), f"{module}.{name}"
