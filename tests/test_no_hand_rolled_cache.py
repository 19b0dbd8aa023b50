"""Derived objects are cached by `memo.memo` (or `functools.cached_property`),
so the package holds no hand-rolled cache outside the one kept on purpose."""

import ast
from pathlib import Path

import pairideal

PACKAGE = Path(pairideal.__file__).parent

# (file, name) of the hand-rolled caches kept, each with its reason
ALLOWED = {
    ("spans.py", "_pieces"),  # a data structure: grow_pieces fills several grades at once
}


def _is_empty_dict(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict" and not node.args


def hand_rolled_caches(tree):
    """(line, name, kind) of every cache idiom in a module's syntax tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("hasattr", "getattr"):
            name = node.args[1] if len(node.args) > 1 else None
            if isinstance(name, ast.Constant) and str(name.value).startswith("_"):
                found.append((node.lineno, name.value, f"{node.func.id} sentinel"))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if not isinstance(target, ast.Attribute):
                    continue
                attr = target.attr
                if attr.startswith("_") and ("cache" in attr or _is_empty_dict(node.value)):
                    found.append((node.lineno, attr, "dict attribute"))
        elif isinstance(node, ast.If):
            test = node.test
            if (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Attribute)
                and isinstance(test.ops[0], ast.Is)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
            ):
                attr = test.left.attr
                assigned = {
                    t.attr
                    for stmt in node.body
                    for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Assign)
                    for t in sub.targets
                    if isinstance(t, ast.Attribute)
                }
                if attr in assigned:
                    found.append((node.lineno, attr, "None sentinel"))
        elif isinstance(node, ast.ClassDef):
            if any(isinstance(f, ast.FunctionDef) and f.name == "__missing__" for f in node.body):
                found.append((node.lineno, node.name, "dict with __missing__"))
        elif isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(dec, "id", None) or getattr(dec, "attr", None)
                if name in ("cache", "lru_cache"):
                    found.append((node.lineno, node.name, f"functools.{name}"))
    return found


def test_package_has_no_hand_rolled_cache():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name, kind in hand_rolled_caches(tree):
            if (path.name, name) not in ALLOWED:
                found.append(f"{path.name}:{line} {name} ({kind})")
    assert not found, f"hand-rolled caches in the package: {found}"


def test_the_kept_caches_are_still_there():
    # an entry of ALLOWED that matches nothing is stale
    seen = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        seen |= {(path.name, name) for _, name, _ in hand_rolled_caches(tree)}
    assert ALLOWED <= seen


def test_the_lint_finds_each_idiom():
    snippets = {
        "hasattr sentinel": "def f(self):\n    if not hasattr(self, '_x'):\n        self._x = 1\n",
        "dict attribute": "def f(self):\n    self._seen = {}\n",
        "None sentinel": "def f(self):\n    if self._x is None:\n        self._x = 1\n",
        "dict with __missing__": "class M(dict):\n    def __missing__(self, k):\n        pass\n",
        "functools.lru_cache": "@functools.lru_cache(None)\ndef f(x):\n    pass\n",
    }
    for kind, code in snippets.items():
        assert [k for _, _, k in hand_rolled_caches(ast.parse(code))] == [kind], kind
    assert hand_rolled_caches(ast.parse("def f(self):\n    self.rows = {}\n")) == []
