"""Every function of the package has a caller in the package, so no public
API lives on only because tests reach it; the test oracles kept on purpose
are named in `KEPT`, each with its reason."""

import ast
from pathlib import Path

import pairideal

PACKAGE = Path(pairideal.__file__).parent

# name -> why it stays although nothing in the package calls it
KEPT = {
    "hilbert": "GradedEngine: the second Hilbert route, against sympy's standard monomials",
    "derivation_new_generator_count": "GradedEngine: new derivation generators per degree",
    "ix_new_generators": "GradedEngine: acceptance criterion 4, the new (2;2) relation",
    "standard_monomial_count": "Ideal: standard monomials against GradedEngine.quotient_dim",
    "quotient_dimension": "Ideal: the dimension formula from cyclic flats",
    "pivot_columns": "Echelon: grown pieces against pieces built in full",
    "error": "cli._Parser: argparse calls it on a usage error",
}


def _modules():
    """(file name, syntax tree) of every module but the re-exporting __init__."""
    return [
        (path.name, ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
    ]


def uncalled_functions(trees):
    """(file, line, name) of every non-dunder def whose name no module loads,
    as a name, an attribute or an import."""
    loaded, defs = set(), []
    for fname, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((fname, node.lineno, node.name))
    return [d for d in defs if d[2] not in loaded]


def test_every_function_has_a_caller():
    found = [
        f"{f}:{line} {name}"
        for f, line, name in uncalled_functions(_modules())
        if name not in KEPT
    ]
    assert not found, f"functions nothing in the package calls: {found}"


def test_the_kept_functions_are_still_uncalled():
    # an entry of KEPT that some caller now reaches, or that is gone, is stale
    assert {name for _, _, name in uncalled_functions(_modules())} == set(KEPT)


def test_the_lint_finds_an_uncalled_function():
    code = (
        "def used(x):\n    return x\n\n"
        "def unused(x):\n    return used(x)\n\n"
        "class C:\n    def __init__(self):\n        self.m()\n\n"
        "    def m(self):\n        pass\n\n"
        "    def dead(self):\n        pass\n"
    )
    found = uncalled_functions([("snippet.py", ast.parse(code))])
    assert [name for _, _, name in found] == ["unused", "dead"]
    imported = ast.parse("from snippet import unused, dead\n")
    assert uncalled_functions([("snippet.py", ast.parse(code)), ("user.py", imported)]) == []
