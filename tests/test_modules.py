"""Module privacy: no module of the package reads another's underscore
names, by import or through a module object.  Class attributes such as
``Poly._raw`` stay allowed.  The test extra of ``pyproject.toml`` declares
every module the tests import from outside the stdlib and wsys, or skip
on through ``pytest.importorskip``."""

import ast
import re
import sys
from pathlib import Path

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
