"""Every name a module of the package imports is used in that module, every
name it exports is defined in it, and every private function or class it
defines is used somewhere in the package.

AST checks standing in for a linter: a name bound by ``import`` or
``from ... import`` must be read somewhere in the module or listed in its
``__all__`` (``__init__.py`` is skipped because its imports are the
package's re-exports), each ``__all__`` entry must be bound by a top-level
definition or assignment of its module, and a module-level ``_private``
function or class must be read by name or attribute in some module of the
package.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import selrtest

PACKAGE = sorted(pathlib.Path(selrtest.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def undefined_exports(source: str) -> list[str]:
    """The ``__all__`` entries that no top-level statement of the module binds."""
    defined, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                exported = [elt.value for elt in node.value.elts]
            defined |= names
    return [name for name in exported if name not in defined]


def test_export_checker_flags_a_stale_name():
    source = "__all__ = ['f', 'C', 'K', 'gone']\ndef f(): pass\nclass C: pass\nK: int = 1\n"
    assert undefined_exports(source) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert undefined_exports(path.read_text()) == []


def orphans(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each module-level private function or class that no
    module reads; an import alone is not a use."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    )


def test_orphan_checker_flags_an_unused_private():
    sources = {
        "a.py": "def _called(): pass\ndef _orphan(): pass\nclass _Via: pass\n",
        "b.py": "import a\nfrom a import _called, _orphan\nx = _called()\ny = a._Via\n",
    }
    assert orphans(sources) == [("a.py", "_orphan")]


def test_no_orphan_private_definitions():
    assert orphans({p.name: p.read_text() for p in PACKAGE}) == []


def test_cli_and_montecarlo_leave_scipy_stats_unimported():
    # scipy.stats costs about half a second and 20 MB at start-up; the
    # chi-squared laws come from scipy.special
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(selrtest.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, selrtest.cli, selrtest.montecarlo; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
