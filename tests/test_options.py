"""Every defaulted parameter in src/angletower is set by some call.

A parameter with a default that no call in src/, tests/ or bench/ passes,
by keyword or by position, holds one value for good: it is a module
constant, not an option.  Calls are matched to definitions by name (the
called name or attribute; a class name calls its __init__), so a call of
any same-named function counts, and the check errs towards passing.  Only
the standard-library `ast` module is needed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "angletower"
CALLERS = [SRC, ROOT / "tests", ROOT / "bench"]


def defaulted_params(source: str) -> list[tuple[str, str, int | None]]:
    """(qualified name, parameter, call position or None) of every
    parameter with a default; positions skip self or cls, and keyword-only
    parameters have none."""
    out = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name if owner is None else f"{owner}.{node.name}"
                a = node.args
                pos = a.posonlyargs + a.args
                bound = owner is not None and not any(
                    isinstance(dec, ast.Name) and dec.id == "staticmethod"
                    for dec in node.decorator_list)
                skip = 1 if bound else 0
                for i, arg in enumerate(pos[len(pos) - len(a.defaults):],
                                        start=len(pos) - len(a.defaults)):
                    out.append((name, arg.arg, i - skip))
                out.extend((name, arg.arg, None)
                           for arg, dft in zip(a.kwonlyargs, a.kw_defaults)
                           if dft is not None)
                visit(node.body, None)

    visit(ast.parse(source).body, None)
    return out


def passed_arguments(sources) -> dict[str, tuple[set, int]]:
    """Per called name: the keywords passed and the most positional
    arguments passed by any call (a starred argument counts as all)."""
    calls: dict[str, tuple[set, int]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.id if isinstance(f, ast.Name) else
                    f.attr if isinstance(f, ast.Attribute) else None)
            if name is None:
                continue
            keys, most = calls.setdefault(name, (set(), 0))
            keys.update(k.arg for k in node.keywords)
            npos = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                npos = 1 << 30
            calls[name] = (keys, max(most, npos))
    return calls


def never_passed(definitions: str, callers) -> list[str]:
    """The defaulted parameters of definitions that no call passes."""
    calls = passed_arguments(callers)
    out = []
    for qual, param, pos in defaulted_params(definitions):
        owner, _, name = qual.rpartition(".")
        called = owner if name == "__init__" and owner else name
        keys, most = calls.get(called, (set(), 0))
        if None in keys:
            continue  # a **mapping could pass anything
        if param not in keys and (pos is None or pos >= most):
            out.append(f"{qual}({param})")
    return out


def test_checker_flags_unpassed_defaults():
    definitions = (
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "def g(x=0):\n    pass\n"
        "class K:\n"
        "    def __init__(self, p=1, q=2):\n        pass\n"
        "    def m(self, r=1, s=2):\n        pass\n"
        "    @staticmethod\n"
        "    def st(u=1, v=2):\n        pass\n"
        "def h(y=1):\n"
        "    def inner(z=1):\n        pass\n")
    callers = [definitions,
               "f(0, 5, d=4)\ng(*xs)\nK(1)\nobj.m(s=3)\nK.st(1)\nh(**kw)\n"]
    assert never_passed(definitions, callers) == [
        "f(c)", "K.__init__(q)", "K.m(r)", "K.st(v)", "inner(z)"]


def test_every_default_is_passed():
    sources = [p.read_text() for root in CALLERS
               for p in sorted(root.glob("*.py"))]
    found = [f"{path.name}: {p}" for path in sorted(SRC.glob("*.py"))
             for p in never_passed(path.read_text(), sources)]
    assert found == []
