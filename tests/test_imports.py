"""No module-level import in src/angletower goes unused, and none loads
scipy.

A name bound by a top-level `import` or `from ... import` must be read
somewhere in its module; `from __future__` imports are exempt.  No module
imports scipy, at any depth of its source, and a fresh interpreter running
all eight stages through `cli.main` never has it in `sys.modules`.  A
fresh interpreter running one stage loads the stage modules that stage
runs and no others, and never numpy.ma.
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


def test_import_checker_finds_scipy_at_any_depth():
    source = ("import numpy as np\n"
              "def f():\n    if True:\n"
              "        from scipy.sparse import csgraph\n")
    assert imported_modules(source) == {"numpy", "scipy"}


def test_only_inducing_imports_scipy():
    assert [p.name for p in MODULES if p.name != "inducing.py"
            and "scipy" in imported_modules(p.read_text())] == []


def test_scipy_is_imported_only_in_strong_components():
    # strong_components was scipy's one importer; its Tarjan pass needs none,
    # so inducing imports scipy nowhere, that function's body included.
    assert "scipy" not in imported_modules((SRC / "inducing.py").read_text())


COLD_START = """\
import json, sys
from angletower.cli import COMMANDS, main
config, out = sys.argv[1:]
seen = {"import": "scipy" in sys.modules}
for stage in COMMANDS:
    assert main([stage, "--config", config, "--out", out]) == 0, stage
    seen[stage] = "scipy" in sys.modules
print(json.dumps(seen))
"""


def test_cold_start_never_loads_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-c", COLD_START,
         str(ROOT / "configs" / "chebyshev.ini"), str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert list(seen)[1:] == ["tower-build", "tower-export", "census", "lift",
                              "lyapunov", "induce", "conformal", "report"]
    assert not any(seen.values()), seen


STAGE_PROBE = """\
import json, sys
from angletower.cli import main
stage, config, out = sys.argv[1:]
code = main([stage, "--config", config, "--out", out])
print(json.dumps([code, sorted(m for m in sys.modules if m == "numpy.ma"
                                or m.startswith(("angletower", "numpy.ma.")))]))
"""

# the modules every stage loads: the CLI, config, tower and landing
BASE_MODULES = ("cli", "angles", "geometry", "tower")
STAGE_MODULES = {
    "tower-build": (), "tower-export": (), "census": ("census",),
    "lift": ("lifting", "streams"), "lyapunov": ("lifting", "streams"),
    "induce": ("inducing", "lifting", "streams"),
    "conformal": ("conformal", "inducing", "lifting", "streams"),
    "report": (),
}


def test_each_stage_loads_only_the_modules_it_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    config = str(ROOT / "configs" / "chebyshev.ini")
    assert list(STAGE_MODULES) == ["tower-build", "tower-export", "census",
                                   "lift", "lyapunov", "induce", "conformal",
                                   "report"]
    for stage, own in STAGE_MODULES.items():
        run = subprocess.run(
            [sys.executable, "-c", STAGE_PROBE, stage, config, str(tmp_path)],
            env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        code, loaded = json.loads(run.stdout.splitlines()[-1])
        assert code == 0, stage
        assert loaded == sorted(["angletower"] + [
            f"angletower.{m}" for m in BASE_MODULES + own]), stage
