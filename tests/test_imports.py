"""No module-level import in src/angletower goes unused, and one function
knows the graph library.

A name bound by a top-level `import` or `from ... import` must be read
somewhere in its module; `from __future__` imports are exempt.  Only
`inducing` imports scipy, at any depth of its source, and only inside
`strong_components`, so a stage that labels no strong component never
loads it; a fresh interpreter running stages through `cli.main` shows
that.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "angletower"
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


def import_roots(node: ast.AST) -> set[str]:
    """Top-level package of each module node imports (none if node is not
    an import)."""
    if isinstance(node, ast.Import):
        return {a.name.partition(".")[0] for a in node.names}
    if isinstance(node, ast.ImportFrom) and node.module:
        return {node.module.partition(".")[0]}
    return set()


def imported_modules(source: str) -> set[str]:
    """Top-level package of every import anywhere in source."""
    return set().union(*map(import_roots, ast.walk(ast.parse(source))))


def test_only_inducing_imports_scipy():
    assert [p.name for p in MODULES
            if "scipy" in imported_modules(p.read_text())] == ["inducing.py"]


def scipy_import_scopes(source: str) -> list:
    """Name of the top-level function enclosing each scipy import of
    source, or None for an import outside every function."""
    scopes = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, ast.FunctionDef) else None
        scopes += [name for node in ast.walk(top)
                   if "scipy" in import_roots(node)]
    return scopes


def test_scope_checker_flags_module_level_scipy():
    source = ("import scipy.sparse as sp\n"
              "def f():\n    from scipy.sparse import csgraph\n")
    assert scipy_import_scopes(source) == [None, "f"]


def test_scipy_is_imported_only_in_strong_components():
    scopes = {p.name: scipy_import_scopes(p.read_text()) for p in MODULES}
    assert {name: s for name, s in scopes.items() if s} == {
        "inducing.py": ["strong_components", "strong_components"]}


COLD_START = """\
import json, sys
from angletower.cli import main
config, out = sys.argv[1:]
seen = {"import": "scipy" in sys.modules}
for stage in ("tower-build", "census", "lift", "induce"):
    assert main([stage, "--config", config, "--out", out]) == 0, stage
    seen[stage] = "scipy" in sys.modules
print(json.dumps(seen))
"""


def test_cold_start_defers_scipy_to_induce(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-c", COLD_START,
         str(ROOT / "configs" / "chebyshev.ini"), str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == {
        "import": False, "tower-build": False, "census": False,
        "lift": False, "induce": True}
