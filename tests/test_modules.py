"""Module privacy: no module of the package reads another's underscore
names, by import or through a module object.  Class attributes such as
``Poly._raw`` stay allowed.  The test extra of ``pyproject.toml`` declares
every module the tests import from outside the stdlib and wsys, or skip
on through ``pytest.importorskip``.  The package's export table resolves
each public name to its defining module's object, and a fresh process
loads only the modules that its ``wsys`` verb runs."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import wsys

SRC = Path(wsys.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list[tuple[int, str]]:
    """(line, module.name) of every underscore name the source imports from
    a wsys module, or reads as an attribute of a name bound to one."""
    tree, found, modules = ast.parse(source), [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "wsys"):
            package = node.module in (None, "wsys")
            for alias in node.names:
                if package:  # from . import graphs: a module object
                    modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append((node.lineno, f"{node.module or ''}.{alias.name}".lstrip(".")))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and _private(node.attr):
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    uses = {path.name: private_uses(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_guard_finds_each_kind_of_use():
    sample = (
        "from . import graphs\n"
        "from .glws import _state, feps\n"
        "from .algebra import Poly\n"
        "\n"
        "def f(x):\n"
        "    return graphs._bits(x), graphs.subsets(x), graphs.__name__, Poly._raw({}), _state\n"
    )
    assert private_uses(sample) == [(2, "glws._state"), (6, "graphs._bits")]


def imported_modules(source: str) -> set[str]:
    """The top-level modules a test source imports (absolute imports only)
    or passes to ``pytest.importorskip`` as a string."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "importorskip"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            found.add(node.args[0].value.split(".")[0])
    return found


def test_the_test_extra_declares_every_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    extra = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in extra}
    paths = sorted((ROOT / "tests").glob("*.py"))
    local = {path.stem for path in paths} | {"wsys"}
    used = set().union(*(imported_modules(path.read_text()) for path in paths))
    assert {"pytest", "hypothesis"} <= used
    assert sorted(used - set(sys.stdlib_module_names) - local - declared) == []


def test_the_dependency_guard_finds_each_kind_of_use():
    sample = (
        "import os.path, numpy as np\n"
        "from scipy.linalg import det\n"
        "from . import helpers\n"
        "import pytest\n"
        "sympy = pytest.importorskip('sympy.core')\n"
    )
    assert imported_modules(sample) == {"os", "numpy", "scipy", "pytest", "sympy"}


def test_the_export_table_resolves_each_name_in_its_defining_module():
    homes = {name: module for module, names in wsys._EXPORTS.items() for name in names.split()}
    assert wsys.__all__ == [*homes, "__version__"] and len(homes) == 81
    for name, module in homes.items():
        home = importlib.import_module(f"wsys.{module}")
        value = getattr(wsys, name)
        assert value is getattr(home, name), name
        if isinstance(value, (type, FunctionType)):  # defined there, not re-exported
            assert value.__module__ == home.__name__, name
    namespace: dict = {}
    exec("from wsys import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(wsys.__all__)
    assert set(wsys.__all__) <= set(dir(wsys))


def test_the_package_refuses_unknown_names_and_still_imports_submodules():
    with pytest.raises(AttributeError, match="module 'wsys' has no attribute 'subset_poly'"):
        wsys.subset_poly  # public in wsys.algebra, not in the export table
    with pytest.raises(ImportError):
        exec("from wsys import no_such_name", {})
    from wsys import algebra, dmat, glws, hopf, invariants, verify

    for module in (algebra, dmat, glws, hopf, invariants, verify):
        assert module is sys.modules[module.__name__]


# Each case: the argv of a wsys process and the modules of the package it
# must not load.
_NO_ENGINE = {"algebra", "glws", "invariants", "hopf", "verify"}
_NO_INVARIANTS = {"invariants", "dmat", "hopf", "verify"}
IMPORT_CASES = [
    (["faces", "--perm", "2,3,1"], _NO_ENGINE),
    (["pivot", "--perm", "3,4,1,2", "--a", "1,3", "--b", "2,4"], _NO_ENGINE),
    (["pivot", "--graph", "n=3; edges=1-2,2-3", "--a", "1", "--b", "2"], _NO_ENGINE),
    (["dmat", "--graph", "n=3; edges=1-2,2-3"], _NO_ENGINE),
    (["dmat", "--perm", "3,4,1,2", "--dual", "1", "--distance", "2"], _NO_ENGINE),
    (["wgl", "--perm", "2,3,1"], _NO_INVARIANTS),
    (["feps", "--perm", "3,4,1,2"], _NO_INVARIANTS),
    (["feps", "--direct", "--perm", "3,4,1,2"], _NO_INVARIANTS),
    (["interlace", "--perm", "3,4,1,2"], _NO_INVARIANTS),
    (["skewchar", "--perm", "3,4,1,2"], _NO_INVARIANTS),
    (["series", "--perm", "3,4,1,2"], _NO_INVARIANTS),
]

# Runs the verb given in argv, or only ``import wsys`` without one, then
# prints the package's loaded modules as its last line.
_LOADED = """
import sys
if sys.argv[1:]:
    from wsys.cli import run
    code = run(sys.argv[1:])
else:
    import wsys
    code = 0
print(" ".join(name for name in sys.modules if name.split(".")[0] == "wsys"))
sys.exit(code)
"""


def loaded_modules(*argv: str) -> set[str]:
    """The package's modules a fresh process running argv has loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, (argv, proc.stderr)
    return set(proc.stdout.splitlines()[-1].split())


def test_each_process_loads_only_the_modules_its_verb_runs():
    assert loaded_modules() == {"wsys"}
    for argv, forbidden in IMPORT_CASES:
        modules = loaded_modules(*argv)
        assert not modules & {f"wsys.{name}" for name in forbidden}, (argv, sorted(modules))
