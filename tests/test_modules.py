"""Module privacy: no module of the package reads another's underscore
names, by import or through a module object.  Class attributes such as
``Poly._raw`` stay allowed."""

import ast
from pathlib import Path

import wsys

SRC = Path(wsys.__file__).parent


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
