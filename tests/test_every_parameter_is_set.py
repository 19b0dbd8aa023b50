"""Every defaulted parameter of the package is set by some call in the
package, so no knob lives on at the one value it always takes; the ones
left unset on purpose are named in `KEPT`, each with its reason.

Calls are matched by name, as in the caller lint: `f(...)` and `x.f(...)`
call every def named f, `C(...)` calls `C.__init__`, and so do `cls(...)`
inside a method of C and `super().__init__(...)` inside a subclass of C.
A call sets a parameter by keyword, by position (`self` and `cls` are not
counted) or through `*` or `**`.
"""

import ast
from pathlib import Path

import pairideal

PACKAGE = Path(pairideal.__file__).parent

# "function(parameter)" -> why it stays although no call in the package sets it
KEPT = {
    "main(argv)": "cli entry point: the console script calls it with no arguments",
    "get_fixture(field)": "tests build the GF(p) fixtures",
    "koszul_betti(hard_cap)": "perfbench/record_expected.py sets it",
    "associated_primes(progress)": "perfbench/layertrace.py sets it",
    "slice_associated_primes(progress)": "perfbench/layertrace.py sets it",
    "mul_monomial(coeff)": "test helpers scale monomial multiples",
}


def _modules():
    """(file name, syntax tree) of every module of the package."""
    return [
        (path.name, ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(PACKAGE.rglob("*.py"))
    ]


def _defaulted(fn):
    """(position or None, name) of each defaulted parameter of a def; the
    position skips `self` and `cls`, keyword-only parameters have none."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args if a.arg not in ("self", "cls")]
    out = [(i, name) for i, name in enumerate(positional)][len(positional) - len(args.defaults):]
    out += [
        (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    return out


def _walk(trees):
    """(defs, calls): defs as (file, line, callee name, def node), calls as
    (callee name, call node); `C.__init__` goes by the class name C."""
    defs, calls = [], []

    def visit(fname, node, cls):
        for child in ast.iter_child_nodes(node):
            inner = cls
            if isinstance(child, ast.ClassDef):
                inner = child
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = cls.name if cls is not None and child.name == "__init__" else child.name
                defs.append((fname, child.lineno, name, child))
            elif isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    name = cls.name if cls is not None and func.id == "cls" else func.id
                    calls.append((name, child))
                elif isinstance(func, ast.Attribute):
                    if func.attr == "__init__" and cls is not None:
                        calls.extend((b.id, child) for b in cls.bases if isinstance(b, ast.Name))
                    else:
                        calls.append((func.attr, child))
            visit(fname, child, inner)

    for fname, tree in trees:
        visit(fname, tree, None)
    return defs, calls


def _sets(call, position, name):
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and position < len(call.args)


def unset_parameters(trees):
    """(file, line, "function(parameter)") of every defaulted parameter that
    no call of its function in `trees` sets."""
    defs, calls = _walk(trees)
    by_name = {}
    for name, call in calls:
        by_name.setdefault(name, []).append(call)
    return [
        (fname, line, f"{fn.name if fn.name != '__init__' else name}({param})")
        for fname, line, name, fn in defs
        for position, param in _defaulted(fn)
        if not any(_sets(c, position, param) for c in by_name.get(name, ()))
    ]


def test_every_parameter_is_set():
    found = [
        f"{f}:{line} {key}" for f, line, key in unset_parameters(_modules()) if key not in KEPT
    ]
    assert not found, f"defaulted parameters no call in the package sets: {found}"


def test_the_kept_parameters_are_still_unset():
    # an entry of KEPT that some call now sets, or that is gone, is stale
    assert {key for _, _, key in unset_parameters(_modules())} == set(KEPT)


def test_the_lint_finds_an_unset_parameter():
    code = (
        "def knob(x, scale=1, *, mode='a'):\n    return x\n\n"
        "def set_by_position(x, y=0):\n    return x\n\n"
        "def set_by_star(x, y=0):\n    return x\n\n"
        "class C:\n"
        "    def __init__(self, a=0, b=0):\n        self.a = a\n\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls(b=2)\n\n"
        "    def method(self, k=1):\n        return k\n\n"
        "class D(C):\n"
        "    def __init__(self):\n        super().__init__(1)\n\n"
        "knob(1)\nset_by_position(1, 2)\nset_by_star(*[1, 2])\n"
        "C().method(**{})\n"
    )
    found = unset_parameters([("snippet.py", ast.parse(code))])
    assert [key for _, _, key in found] == ["knob(scale)", "knob(mode)"]
    dropped = code.replace("super().__init__(1)", "super().__init__()")
    found = unset_parameters([("snippet.py", ast.parse(dropped))])
    assert [key for _, _, key in found] == ["knob(scale)", "knob(mode)", "C(a)"]
