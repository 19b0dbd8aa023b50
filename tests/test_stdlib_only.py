"""The package uses only the standard library: every absolute import under
`pairideal` names a standard-library module or the package itself.  The
test oracles (sympy, hypothesis) stay in the tests."""

import ast
import sys
from pathlib import Path

import pairideal

PACKAGE = Path(pairideal.__file__).parent


def foreign_imports(trees):
    """(file, line, module) of every absolute import whose top-level name is
    neither a standard-library module nor `pairideal`."""
    found = []
    for fname, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "pairideal":
                    found.append((fname, node.lineno, name))
    return found


def test_package_imports_only_the_standard_library():
    trees = [
        (path.name, ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(PACKAGE.rglob("*.py"))
    ]
    found = foreign_imports(trees)
    assert not found, f"imports from outside the standard library: {found}"


def test_the_lint_finds_a_foreign_import():
    code = (
        "from __future__ import annotations\n"
        "import os.path, sympy\n"
        "from . import ring\n"
        "from pairideal.spans import Echelon\n"
        "def f():\n"
        "    from numpy.linalg import matrix_rank\n"
    )
    found = foreign_imports([("snippet.py", ast.parse(code))])
    assert found == [("snippet.py", 2, "sympy"), ("snippet.py", 6, "numpy.linalg")]
