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


def run_fresh(code: str) -> str:
    """The standard output of ``code`` run by a new interpreter that imports
    this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(selrtest.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_cli_and_montecarlo_leave_scipy_stats_unimported():
    # scipy.stats costs about half a second and 20 MB at start-up, and
    # scipy.optimize and scipy.integrate about a quarter second together: the
    # chi-squared laws come from scipy.special, the named kernels' constants
    # from a table, and the optimizers and the process pool are imported by
    # the calls that use them
    code = (
        "import sys, selrtest, selrtest.cli, selrtest.montecarlo\n"
        "from selrtest.kernels import KERNEL_FAMILIES, kernel_by_name, kernel_constants\n"
        "for family in KERNEL_FAMILIES:\n"
        "    kernel_constants(kernel_by_name(family))\n"
        "print(' '.join(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.integrate',\n"
        "                           'concurrent.futures.process') if m in sys.modules))\n"
    )
    assert run_fresh(code).split() == []


def test_tabulated_kernel_constants_leave_scipy_integrate_unimported():
    # a tabulated kernel's constants come from Gauss-Legendre rules on its
    # pieces, with no adaptive quadrature
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from selrtest.kernels import kernel_constants, tabulated_kernel\n"
        "t = np.linspace(-1, 1, 2001)\n"
        "kernel_constants(tabulated_kernel(t, 0.75 * (1 - t**2)))\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    assert run_fresh(code).split() == ["False"]


def test_dual_solver_failures_leave_scipy_optimize_unimported():
    # the dual solver certifies Infeasible from its own iterate, with no LP:
    # a window with all moments positive, then a simple null and its
    # bootstrap on thin windows, whose failed solves reach the same branch
    code = (
        "import sys, warnings\n"
        "import numpy as np\n"
        "from selrtest import Dataset, Infeasible, MaxIterations, local_el, selr\n"
        "from selrtest.estfun import make_identity\n"
        "from selrtest.kernels import kernel_by_name\n"
        "warnings.simplefilter('ignore')\n"
        "raised, solve = [], local_el.solve_lagrange\n"
        "def counting(moments, weights):\n"
        "    try:\n"
        "        return solve(moments, weights)\n"
        "    except (Infeasible, MaxIterations) as exc:\n"
        "        raised.append(type(exc).__name__)\n"
        "        raise\n"
        "local_el.solve_lagrange = counting\n"
        "try:\n"
        "    local_el.solve_lagrange(np.array([[1.0], [2.0], [0.5], [3.0]]), np.full(4, 0.25))\n"
        "except Infeasible:\n"
        "    pass\n"
        "print(raised == ['Infeasible'])\n"
        "rng = np.random.default_rng([0, 99, 0])\n"
        "u = rng.random(60)\n"
        "x = np.column_stack([np.ones(60), rng.standard_normal(60)])\n"
        "data = Dataset(u, x, 0.3 + rng.standard_t(2, 60) * (1.0 + 2.0 * u))\n"
        "zero2 = selr.Hypothesis.simple([selr.zero_coef()] * 2)\n"
        "kernel, g = kernel_by_name('triweight'), make_identity()\n"
        "selr.selr_test(data, kernel, 0.06, g, zero2)\n"
        "print(len(raised) - 1)\n"
        "selr.bootstrap_null(data, kernel, 0.06, g, zero2, B=3, seed=0)\n"
        "print(len(raised) - 1)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    first, in_test, in_both, optimize = run_fresh(code).split()
    assert first == "True"
    assert 0 < int(in_test) < int(in_both)
    assert optimize == "False"
