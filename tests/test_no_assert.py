"""The package raises typed errors; an `assert` would vanish under `python -O`."""

import ast
from pathlib import Path

import pairideal

PACKAGE = Path(pairideal.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
