"""What importing the package and running one command load.

Each check runs in a fresh interpreter, so that modules other tests have
imported cannot hide a module the code under test would load, or a name the
lazy package namespace fails to resolve.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brodmann

PACKAGE = Path(brodmann.__file__).parent


def fresh(code: str, *args: str, cwd: Path | None = None):
    """Run code in a new interpreter that imports this checkout's brodmann;
    returns the JSON value its last line of stdout prints."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd, check=True,
    )  # fmt: skip
    return json.loads(done.stdout.strip().splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'brodmann')"

RUN_COMMAND = f"""
import contextlib, io, json, sys
import brodmann.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = brodmann.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, {LOADED}]))
"""

BASE = ["brodmann", "brodmann.cli", "brodmann.errors"]


def test_bare_import_loads_no_submodule():
    assert fresh(f"import json, sys\nimport brodmann\nprint(json.dumps({LOADED}))") == [
        "brodmann"
    ]


def test_building_the_parser_loads_no_library_module():
    code = f"""
import json, sys
import brodmann.cli
brodmann.cli.build_parser()
print(json.dumps({LOADED}))
"""
    assert fresh(code) == BASE


@pytest.mark.parametrize(
    "argv,extra",
    [
        (["--help"], []),
        (["bound", "--r", "2", "--s", "2", "--d", "2"], ["bounds", "monomials", "radicals"]),
        (["rr", "--ideal", "two.txt", "--n", "1"],
         ["cohomology", "ioformats", "monomials"]),
        (["cone", "--system", "stair.txt"], ["ioformats", "monomials", "polyhedra", "radicals"]),
        (["ass-profile", "--ideal", "two.txt", "--n-max", "2"],
         ["assprimes", "ioformats", "monomials"]),
        (["a0", "--ideal", "two.txt", "--n-max", "2"], ["cohomology", "ioformats", "monomials"]),
    ],
    ids=["help", "bound", "rr", "cone", "ass-profile", "a0"],
)  # fmt: skip
def test_a_command_loads_only_what_it_runs(tmp_path, argv, extra):
    (tmp_path / "two.txt").write_text("vars: 2\nx1^2 x2\nx1 x2^3\n")
    (tmp_path / "stair.txt").write_text("vars: 3\n2 -1 0 >= 0\n0 2 -1 >= 0\n")
    code, loaded = fresh(RUN_COMMAND, *argv, cwd=tmp_path)
    assert code == 0
    assert loaded == sorted(BASE + [f"brodmann.{m}" for m in extra])


def _defining_modules() -> dict[str, list[str]]:
    """Each top-level name a submodule defines by def, class or assignment."""
    out: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("__"):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                out.setdefault(name, []).append(path.stem)
    return out


def test_star_import_binds_each_name_from_its_home_module():
    defined = _defining_modules()
    homes = {name: defined.get(name) for name in brodmann.__all__ if name != "__version__"}
    assert {name: home for name, home in homes.items() if home is None or len(home) != 1} == {}
    code = """
import importlib, json, sys
from brodmann import *
import brodmann
homes = json.loads(sys.argv[1])
unbound = [n for n in brodmann.__all__ if n not in globals()]
foreign = [
    n for n, (home,) in homes.items()
    if globals()[n] is not getattr(importlib.import_module("brodmann." + home), n)
    or getattr(brodmann, n) is not globals()[n]
]
print(json.dumps([unbound, foreign]))
"""
    assert fresh(code, json.dumps(homes)) == [[], []]


def test_dir_lists_every_export_before_any_is_loaded():
    code = """
import json
import brodmann
print(json.dumps(sorted(set(brodmann.__all__) - set(dir(brodmann)))))
"""
    assert fresh(code) == []


def test_submodules_resolve_after_a_bare_import():
    code = """
import json
import brodmann
print(json.dumps([brodmann.monomials.__name__, brodmann.polyhedra.__name__,
                  brodmann.cli.__name__, callable(brodmann.monomials.power.cache_clear)]))
"""
    assert fresh(code) == ["brodmann.monomials", "brodmann.polyhedra", "brodmann.cli", True]


def test_an_unknown_name_raises_attribute_error():
    code = """
import json
import brodmann
try:
    brodmann.no_such_name
    raised = None
except AttributeError as exc:
    raised = str(exc)
print(json.dumps([raised, hasattr(brodmann, "greedy_decompose")]))
"""
    assert fresh(code) == ["module 'brodmann' has no attribute 'no_such_name'", False]
