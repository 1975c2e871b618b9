"""No module-level import in src/angletower goes unused, and one module
knows the graph library.

A name bound by a top-level `import` or `from ... import` must be read
somewhere in its module; `from __future__` imports are exempt.  Only
`inducing` imports scipy, at any depth of its source.  Only the
standard-library `ast` module is needed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "angletower"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of source that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_checker_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\n"
              "from fractions import Fraction\n"
              "from .angles import times_d, format_angle\n"
              "def f(x: Fraction) -> str:\n"
              "    return format_angle(np.float64(x))\n")
    assert unused_imports(source) == ["math", "times_d"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Top-level package of every import anywhere in source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.partition(".")[0])
    return found


def test_only_inducing_imports_scipy():
    assert [p.name for p in MODULES
            if "scipy" in imported_modules(p.read_text())] == ["inducing.py"]
