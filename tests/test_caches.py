"""The one cache type of the package: its semantics, a clear-and-recompute
round trip over every cache, one monomial-part table per variable, a guard
against tables that cannot be cleared, and one that README's caches table
names every module-level cache."""

import ast
import gc
from pathlib import Path
from random import Random

import pytest

import wsys
from wsys import algebra, glws, graphs, invariants
from wsys.caches import Cache
from wsys.dmat import dmat_from_graph
from wsys.errors import DomainError
from wsys.glws import (
    casimir_to_N,
    feps,
    gl11_skewchar,
    interlace_perm,
    spec_standard,
    wgl,
)
from wsys.graphs import all_graphs
from wsys.hopf import primitive_eval_diagram
from wsys.invariants import (
    interlace_dmat,
    interlace_graph_recursive,
    refined_skew_char_graph,
    skew_char,
    two_var_interlace,
)
from wsys.perm import all_chord_diagrams, all_perms


def test_cache_builds_once_and_clears():
    built = []
    cache = Cache(lambda k: built.append(k) or k * k)
    assert cache.stats() == {"entries": 0}
    assert [cache[3], cache[3], cache[4]] == [9, 9, 16]
    assert built == [3, 4] and cache.stats() == {"entries": 2}
    cache.clear()
    assert cache.stats() == {"entries": 0} and cache[3] == 9 and built == [3, 4, 3]
    with pytest.raises(KeyError):
        Cache()["absent"]  # without a build, a dict


def test_capped_cache_never_holds_more_than_its_cap():
    rng = Random(29)
    cache = Cache(lambda k: -k, cap=7)
    for _ in range(200):
        key = rng.randrange(40)
        assert cache[key] == -key
        assert len(cache) <= 7
    assert cache.stats() == {"entries": 7, "cap": 7}


def test_a_build_that_raises_stores_nothing():
    def build(k):
        if k < 0:
            raise DomainError(f"negative {k}")
        return k

    cache = Cache(build)
    for _ in range(2):
        with pytest.raises(DomainError, match="^negative -1$"):
            cache[-1]
        assert -1 not in cache and cache.stats() == {"entries": 0}
    # an unknown variable name raises every time and is never stored
    for lookup in (algebra.var_key, algebra.VAR_KEYS.__getitem__) * 2:
        with pytest.raises(DomainError, match="^unknown variable 'q'$"):
            lookup("q")
        assert "q" not in algebra.VAR_KEYS


def _outputs() -> list:
    """Values through every cache of the package, each from fresh inputs:
    the six engine specializations of every permutation on at most 5
    points, the Hopf projection of feps through 4 chords, and the graph
    sums and the interlace recursion of every graph on at most 4
    vertices."""
    out: list = []
    for m in range(6):
        for p in all_perms(m):
            r = interlace_perm(p)
            out += [wgl(p), feps(p), spec_standard(p), casimir_to_N(p), gl11_skewchar(p), r, r.series(6)]
    for n in range(5):
        out += [primitive_eval_diagram(feps, b) for b in all_chord_diagrams(n)]
    for n in range(5):
        for g in all_graphs(n):
            d = dmat_from_graph(g)
            out += [skew_char(g), refined_skew_char_graph(g), interlace_dmat(d), two_var_interlace(d)]
            out.append(interlace_graph_recursive(g))
    return [(value, str(value)) for value in out]


def test_every_cache_clears_and_recomputes_the_same_values():
    before = _outputs()
    caches = [obj for obj in gc.get_objects() if isinstance(obj, Cache)]
    named = [
        algebra.VAR_KEYS,
        algebra.SERIES_FRACTIONS,
        graphs.SUBSET_BITSETS,
        invariants.RECURSION_MEMO,
        glws.PROJECTION_BOUNDS,
        glws.GL11_COEFFS,
        glws._CAP_TABLES,
        glws._LOWER_TABLES,
        glws.ENGINE_MEMOS.public,
        algebra.MONOMIAL_PARTS["u"],
        algebra.MONOMIAL_PARTS["z"],
    ]
    bound = [glws._FEPS.classes, glws._GL11.binding(5).strip, glws._INTERLACE.binding(5).fixed]
    rings = [glws._WGL.binding(5).ring._monos, glws._FEPS.binding(5).ring._biases]
    for cache in named + bound + rings:
        assert any(c is cache for c in caches)
        assert len(cache) > 0
    for cache in caches:
        cache.clear()
    glws.ENGINE_MEMOS.clear()
    for cache in caches:
        assert len(cache) == 0
        if cache is not graphs.SUBSET_BITSETS:  # its stats() reports bitsets instead
            assert cache.stats()["entries"] == 0
    assert graphs.SUBSET_BITSETS.stats()["n"] == [] and glws.ENGINE_MEMOS.stats() == {}
    assert _outputs() == before


def test_each_fixed_variable_has_one_monomial_part_table():
    parts = algebra.MONOMIAL_PARTS
    assert set(parts) == set(algebra._FIXED_VARS)
    assert glws._U_PARTS is invariants._U is parts["u"]
    assert glws._N_PARTS is parts["N"] and glws._EPS_PARTS is parts["eps"]
    assert all(table is parts[var] for table, var in zip((invariants._W, invariants._X, invariants._Y), "wxy"))
    # a univariate int ring reads its variable's table: x for the
    # interlace L, N for the standard values, z for the images of C_k
    rings = [invariants._L_RING, glws._STANDARD.binding(5).ring, glws._INTERLACE.binding(5).ring]
    for ring, var in zip(rings, "xNz"):
        assert ring.names == (var,) and ring._monos is parts[var]
    assert not hasattr(invariants, "monomial_parts") and not hasattr(algebra, "_Z_MONOS")
    # a clear empties a table and never replaces it
    tables = dict(parts)
    parts["z"].clear()
    assert str(algebra.coeffs_to_poly_z([1, 0, 3])) == "1 + 3*z^2" and len(parts["z"]) == 3
    assert all(parts[var] is tables[var] for var in tables)


# functools.cache keeps its table for the life of the process, with no
# stats() and no clear() a caller can reach, so no module or class level
# of the package uses it; every such table is a Cache.


class _ModuleLevelCaches(ast.NodeVisitor):
    """Every use of functools.cache or lru_cache outside a function body:
    (name of the decorated function or None, line)."""

    def __init__(self) -> None:
        self.found: list[tuple[str | None, int]] = []
        self.names: set[str] = set()  # local names of cache and lru_cache
        self.modules: set[str] = set()  # local names of functools

    def visit_Import(self, node: ast.Import) -> None:
        self.modules |= {a.asname or a.name for a in node.names if a.name == "functools"}

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "functools":
            self.names |= {a.asname or a.name for a in node.names if a.name in ("cache", "lru_cache")}

    def _uses(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in self.names:
                return True
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr in ("cache", "lru_cache")
                and isinstance(sub.value, ast.Name)
                and sub.value.id in self.modules
            ):
                return True
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        # the decorators run at module or class level; the body is local
        self.found += [(node.name, d.lineno) for d in node.decorator_list if self._uses(d)]

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.Name, ast.Attribute)) and self._uses(node):
            self.found.append((None, node.lineno))
            return
        super().generic_visit(node)


def _module_level_caches(source: str) -> list[tuple[str | None, int]]:
    visitor = _ModuleLevelCaches()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_the_guard_finds_module_and_class_level_caches():
    source = """
import functools
from functools import cache, lru_cache as lru, cached_property

@cache
def a(x): ...

table = functools.lru_cache(maxsize=8)(len)

class K:
    @lru(maxsize=None)
    def b(self): ...

    wrapped = cache(len)

    @cached_property
    def c(self): ...

def local():
    memo = cache(len)
    return memo
"""
    assert _module_level_caches(source) == [("a", 5), (None, 8), ("b", 11), (None, 14)]


def test_no_module_level_functools_cache():
    found = [
        (path.name, name, line)
        for path in sorted(Path(wsys.__file__).parent.glob("*.py"))
        for name, line in _module_level_caches(path.read_text())
    ]
    assert found == []


def _cache_assignments(trees: dict[str, ast.Module]) -> list[str]:
    """module.name of every module-level assignment whose value calls Cache
    or a subclass of it defined in the package."""
    types = {"Cache"}
    while True:
        subclasses = {
            node.name
            for tree in trees.values()
            for node in tree.body
            if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id in types for b in node.bases)
        }
        if subclasses <= types:
            break
        types |= subclasses
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                calls = [sub for sub in ast.walk(node.value) if isinstance(sub, ast.Call)]
                if any(isinstance(call.func, ast.Name) and call.func.id in types for call in calls):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found += [f"{module}.{t.id}" for t in targets if isinstance(t, ast.Name)]
    return found


def test_the_readme_caches_table_names_every_module_level_cache():
    package = Path(wsys.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    found = _cache_assignments(trees)
    readme = (package.parents[1] / "README.md").read_text()
    table = readme.split("| Cache | Owner | Holds | Capped |", 1)[1].split("\n\n", 1)[0]
    assert {"algebra.MONOMIAL_PARTS", "glws._LOWER_TABLES", "graphs.SUBSET_BITSETS"} <= set(found)
    assert [name for name in found if f"`{name}`" not in table] == []
