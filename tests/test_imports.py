"""Every name a module of the package imports is used in that module.

An AST check standing in for a linter: a name bound by ``import`` or
``from ... import`` must be read somewhere in the module or listed in its
``__all__``.  ``__init__.py`` is skipped because its imports are the
package's re-exports.
"""

import ast
import pathlib

import pytest

import selrtest

MODULES = sorted(
    p for p in pathlib.Path(selrtest.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_name():
    source = "import os\nfrom typing import Any, Callable\nx: Callable = os.sep\n"
    assert unused_imports(source) == [(2, "Any")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
