import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "curlflux"
TESTS = Path(__file__).resolve().parent
ALLOWED = {"numpy", "curlflux", "__future__"}


def _imported_packages(path):
    # every import statement, also inside try blocks and functions, so an
    # optional-dependency fork cannot hide behind a guard; relative imports
    # stay inside curlflux
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_numpy_and_the_standard_library(path):
    bad = {name for name in _imported_packages(path)
           if name not in ALLOWED and name not in sys.stdlib_module_names}
    assert not bad


def _unused_imports(path):
    # names bound by import statements that the module never reads; a name
    # read only as `name.attr` counts, `from __future__` binds nothing
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_every_imported_name_is_used(path):
    assert not _unused_imports(path)
