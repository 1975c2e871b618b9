"""Every public name in src/angletower has a caller outside the tests.

A public module-level function or class, or a public method of a
top-level class, must be referenced somewhere in src/ (outside its own
definition), in bench/, or in tests/test_acceptance.py.  A name that only
other tests use is a test oracle and belongs in tests/.  References are
matched by name: a read of the name or attribute, an imported name, or a
string equal to it (the benchmark's tracer names methods by string).  A
bare-name read counts only where no enclosing function, lambda or
comprehension binds that name, so a local `step` or `f` does not stand
for a public `step` or `f`; any other same-named reference counts, and
the check errs towards passing.  Only the standard-library `ast` module
is needed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "angletower"
CALLERS = (sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
          ast.SetComp, ast.DictComp, ast.GeneratorExp)


def public_names(source: str) -> list[str]:
    """Qualified names of the public module-level functions and classes
    and of the public methods of top-level classes."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += [f"{node.name}.{m.name}" for m in node.body
                        if isinstance(m, DEFINITIONS)
                        and not m.name.startswith("_")]
    return out


def bound_names(scope) -> set[str]:
    """The names a function, lambda or comprehension binds: its
    parameters, and the targets, imports and definitions of its own body
    (not of the scopes nested in it)."""
    args = getattr(scope, "args", None)
    found = {a.arg for a in ast.walk(args)
             if isinstance(a, ast.arg)} if args else set()
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.alias):
            found.add((node.asname or node.name).partition(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            found.add(node.name)
        if isinstance(node, DEFINITIONS):
            found.add(node.name)
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def referenced_names(source: str) -> set[str]:
    """Names source reads, imports or spells as a string, each outside
    the definitions of that same name; a bare name counts when it is
    read where no enclosing scope binds it."""
    found = set()

    def visit(node, inside, local):
        if isinstance(node, DEFINITIONS):
            inside = inside | {node.name}
        if isinstance(node, SCOPES):
            local = local | bound_names(node)
        name = (node.id if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load) and node.id not in local
                else node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else
                node.value if isinstance(node, ast.Constant)
                and isinstance(node.value, str) else None)
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside, local)

    visit(ast.parse(source), frozenset(), frozenset())
    return found


def uncalled(definitions: str, refs: set[str]) -> list[str]:
    """The public names of definitions that are not in refs."""
    return [q for q in public_names(definitions)
            if q.rpartition(".")[2] not in refs]


def test_checker_flags_unreferenced_names():
    definitions = (
        "def used(x):\n    return helper(x)\n"
        "def helper(x):\n    return x\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "def _private():\n    pass\n"
        "class Kept:\n"
        "    def method(self):\n        pass\n"
        "    def spare(self):\n        pass\n"
        "    def named(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "class Dropped:\n"
        "    pass\n"
        "def shadowed(x):\n    return x\n"
        "def looped(x):\n    return x\n")
    callers = [definitions,
               "from pkg import used\nKept().method()\n"
               "METHODS = (('mod', 'Kept', 'named'),)\n",
               # each read below is of a local, not of the public name
               "def run(shadowed, xs):\n"
               "    def inner():\n        return shadowed(xs)\n"
               "    return inner() + [looped(x) for looped in xs]\n"
               "def other(helper):\n    return helper\n"]
    refs = set().union(*map(referenced_names, callers))
    assert uncalled(definitions, refs) == [
        "recursive", "Kept.spare", "Dropped", "shadowed", "looped"]


def test_every_public_name_has_a_caller():
    refs = set().union(*(referenced_names(p.read_text()) for p in CALLERS))
    found = [f"{path.name}: {q}" for path in sorted(SRC.glob("*.py"))
             for q in uncalled(path.read_text(), refs)]
    assert found == []
