"""Every defaulted parameter in src/angletower is an option some caller
uses: some call passes it, and some call leaves it out.

The callers are those of tests/test_surface.py: src/, bench/ and
tests/test_acceptance.py.  A parameter with a default that no caller
passes, by keyword or by position, holds one value for good: it is a
module constant, which a test may monkeypatch, not an option.  A default
that every caller overrides is never read: the parameter is required.
Calls are matched to definitions by name (the called name or attribute;
a class name calls its __init__), so a call of any same-named function
counts, and the check errs towards passing: a starred argument passes
every position, and a **mapping may pass or leave out any keyword.  Only
the standard-library `ast` module is needed.
"""

import ast

from test_surface import CALLERS, SRC


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


def call_shapes(sources) -> dict[str, list[tuple[set, int]]]:
    """Per called name, the keywords of each call (None for a **mapping)
    and its positional argument count (a starred argument counts as
    all)."""
    calls: dict[str, list[tuple[set, int]]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.id if isinstance(f, ast.Name) else
                    f.attr if isinstance(f, ast.Attribute) else None)
            if name is None:
                continue
            npos = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                npos = 1 << 30
            calls.setdefault(name, []).append(
                ({k.arg for k in node.keywords}, npos))
    return calls


def uses(definitions: str, callers):
    """(name(param), passes, omits) per defaulted parameter of
    definitions: whether some call may pass it, and whether some call may
    leave it out."""
    calls = call_shapes(callers)
    for qual, param, pos in defaulted_params(definitions):
        owner, _, name = qual.rpartition(".")
        called = owner if name == "__init__" and owner else name
        passed = [None in keys or param in keys
                  or (pos is not None and pos < npos)
                  for keys, npos in calls.get(called, [])]
        omitted = [None in keys or not p
                   for (keys, _), p in zip(calls.get(called, []), passed)]
        yield f"{qual}({param})", any(passed), any(omitted)


def never_passed(definitions: str, callers) -> list[str]:
    """The defaulted parameters of definitions that no call passes."""
    return [p for p, passes, _ in uses(definitions, callers) if not passes]


def never_omitted(definitions: str, callers) -> list[str]:
    """The defaulted parameters of definitions that some call passes and
    none leaves out."""
    return [p for p, passes, omits in uses(definitions, callers)
            if passes and not omits]


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
               "f(0, 5, d=4)\ng(*xs)\ng()\nK(1)\nobj.m(s=3)\nK.st(1)\n"
               "K.st()\nh(**kw)\n"]
    assert never_passed(definitions, callers) == [
        "f(c)", "K.__init__(q)", "K.m(r)", "K.st(v)", "inner(z)"]
    assert never_omitted(definitions, callers) == [
        "f(b)", "f(d)", "K.__init__(p)", "K.m(s)"]


def test_every_default_is_passed():
    sources = [p.read_text() for p in CALLERS]
    found = [f"{path.name}: {p}" for path in sorted(SRC.glob("*.py"))
             for p in never_passed(path.read_text(), sources)]
    assert found == []


def test_every_default_is_left_out():
    sources = [p.read_text() for p in CALLERS]
    found = [f"{path.name}: {p}" for path in sorted(SRC.glob("*.py"))
             for p in never_omitted(path.read_text(), sources)]
    assert found == []
