"""A row is stored in an `Echelon` without elimination only by `spans.fill`,
which knows the vector is one already (a multiple of a kept row), so no
other module assigns into an echelon's `rows`.  Setting `rows` to a copy of
another echelon's rows (as `matroid` does) keeps them rows, and is left
alone."""

import ast
from pathlib import Path

import pairideal

PACKAGE = Path(pairideal.__file__).parent


def _is_rows(node):
    return isinstance(node, ast.Attribute) and node.attr == "rows"


def row_stores(tree):
    """Lines that assign into a `.rows` dict: `x.rows[k] = v` (plain,
    augmented or annotated) and `x.rows.update/setdefault(...)`."""
    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("update", "setdefault") and _is_rows(node.func.value):
                found.append(node.lineno)
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Subscript) and _is_rows(sub.value):
                    found.append(node.lineno)
    return found


def test_only_spans_assigns_into_echelon_rows():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "spans.py":
            lines = row_stores(ast.parse(path.read_text(), filename=str(path)))
            found += [f"{path.name}:{line}" for line in lines]
    assert not found, f"rows stored outside spans: {found}"


def test_spans_still_stores_rows():
    assert row_stores(ast.parse((PACKAGE / "spans.py").read_text()))


def test_the_lint_finds_a_planted_store():
    planted = [
        "def f(ech, vec):\n    ech.rows[min(vec)] = vec\n",
        "def f(ech, c, vec):\n    ech.rows[c], x = vec, 1\n",
        "def f(ech, c):\n    ech.rows[c] += 1\n",
        "def f(ech, other):\n    ech.rows.update(other)\n",
        "def f(self, c, vec):\n    self.ech.rows.setdefault(c, vec)\n",
    ]
    for code in planted:
        assert row_stores(ast.parse(code)) == [2], code
    left_alone = (
        "def f(ech, grown):\n"
        "    rows = ech.rows\n"
        "    grown.rows = dict(ech.rows)\n"
        "    x = ech.rows[0]\n"
    )
    assert row_stores(ast.parse(left_alone)) == []
