"""Simple graphs over GF(2): adjacency coranks, pivots, four-term images."""

import ast
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

import wsys
from wsys.dmat import dmat_from_graph
from wsys.errors import DomainError, InternalError, ParseError
from wsys.graphs import (
    MAX_GROUND,
    MAX_VERTICES,
    SUBSET_BITSETS,
    Graph,
    SubsetTable,
    all_graphs,
    bit_indices,
    complete_graph,
    cycle_graph,
    diamond_graph,
    four_term_images,
    gf2_corank,
    gf2_rank,
    graph_format,
    graph_parse,
    graph_pivot,
    induced_corank,
    induced_subgraph,
    is_nondegenerate,
    path_graph,
    subset_counts,
    subset_masks,
    subsets,
)
from wsys.invariants import _ROW, _STRIDE, _delete_flat, _flat, graph_4t_check, skew_char
from wsys.perm import all_perms, cycle_count, face_count, subperm


def test_construction_and_edges():
    g = Graph.from_edges(4, [(1, 2), (2, 3)])
    assert g.n == 4
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    assert g.edges() == [(1, 2), (2, 3)]
    assert g.neighbors(2) == {1, 3}
    assert Graph.empty(3).edges() == []
    with pytest.raises(DomainError):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(DomainError):
        Graph.from_edges(2, [(1, 3)])


def test_toggle_edge():
    g = Graph.empty(2)
    h = g.toggle_edge(1, 2)
    assert h.has_edge(1, 2)
    assert h.toggle_edge(1, 2) == g


def test_parse_and_format_round_trip():
    g = graph_parse("n=3; edges=1-2,1-3,2-3")
    assert g == complete_graph(3)
    assert graph_parse("n=3; edges=") == Graph.empty(3)
    assert graph_parse(graph_format(g)) == g
    for n in range(0, 4):
        for g in all_graphs(n):
            assert graph_parse(graph_format(g)) == g
    for bad in ["", "n=x; edges=", "n=2; edges=1-1", "n=2; edges=1-3", "edges=1-2"]:
        with pytest.raises(ParseError):
            graph_parse(bad)


def test_large_vertex_counts_are_cheap_or_refused():
    # the symmetry check walks set bits only (an all-pairs check takes
    # seconds at n = 4000), and graph_parse refuses a vertex count above
    # MAX_VERTICES before building any row (n = 10^8 rows would not fit in
    # memory, and int() refuses a 5000-digit run)
    assert Graph.empty(4000).edges() == []
    assert Graph.from_edges(4000, [(1, 4000), (2, 3)]).edges() == [(1, 4000), (2, 3)]
    assert graph_parse(f"n={MAX_VERTICES}; edges=1-2").n == MAX_VERTICES
    for text in [f"n={MAX_VERTICES + 1}; edges=1-2", "n=100000000; edges=1-2", "n=" + "9" * 5000 + "; edges="]:
        with pytest.raises(DomainError):
            graph_parse(text)
    with pytest.raises(ParseError):
        graph_parse("n=3; edges=1-" + "9" * 5000)
    with pytest.raises(DomainError):
        Graph(3, (0b100, 0, 0))


def test_gf2_rank_bitsets():
    # rows are int bitsets, bit i = column i
    assert gf2_rank([]) == 0
    assert gf2_rank([0b1, 0b10, 0b11]) == 2
    assert gf2_rank([0b101, 0b011, 0b110]) == 2
    assert gf2_corank([0b101, 0b011, 0b110], 3) == 1


def test_adjacency_corank_known_graphs():
    # K_2 is nondegenerate; K_3 has corank 1; P_3 is nondegenerate
    assert induced_corank(complete_graph(2), [1, 2]) == 0
    assert induced_corank(complete_graph(3), [1, 2, 3]) == 1
    # odd-order graphs are always degenerate: GF(2) skew rank is even
    assert induced_corank(path_graph(3), [1, 2, 3]) == 1
    # a single vertex is degenerate (zero 1x1 matrix)
    assert induced_corank(complete_graph(3), [2]) == 1
    assert induced_corank(complete_graph(3), []) == 0
    assert list(complete_graph(2).rows) == [0b10, 0b01]
    # all induced coranks at once, against the one-subset routes
    for n in range(6):
        for g in all_graphs(n):
            coranks = g.coranks
            for mask in range(1 << n):
                subset = [v + 1 for v in range(n) if mask >> v & 1]
                sub = induced_subgraph(g, subset)
                assert coranks[mask] == induced_corank(g, subset) == gf2_corank(sub.rows, sub.n)


def seeded_corank_graphs():
    # two graphs per vertex count past the exhaustive range, densities 0.2-0.8
    rng = Random(2718)
    for n in range(6, 15):
        for _ in range(2):
            density = rng.choice((0.2, 0.4, 0.6, 0.8))
            yield Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2) if rng.random() < density])


def test_coranks_past_the_exhaustive_range():
    rng = Random(31)
    for g in seeded_corank_graphs():
        coranks, full = g.coranks, range(1 << g.n)
        masks = full if g.n <= 8 else [rng.randrange(1 << g.n) for _ in range(200)]
        for mask in masks:
            assert coranks[mask] == induced_corank(g, [v + 1 for v in bit_indices(mask)]), (g, mask)
        for mask in full:
            # a GF(2) alternating matrix has even rank, and deleting one
            # vertex changes the rank by at most 2, so the corank by exactly 1
            assert coranks[mask] % 2 == mask.bit_count() % 2, (g, mask)
            for v in bit_indices(mask):
                assert abs(coranks[mask] - coranks[mask ^ 1 << v]) == 1, (g, mask, v)
        nondegenerate = {mask for mask in full if induced_corank(g, [v + 1 for v in bit_indices(mask)]) == 0}
        assert dmat_from_graph(g).phi == nondegenerate, g


def test_subset_tables_up_to_the_budget():
    # one seeded graph per vertex count 15..20 and density: phi and sampled
    # coranks against the per-subset elimination, the histogram against
    # 2^n and the parity of an alternating matrix's corank
    rng = Random(1620)
    for n in range(15, MAX_GROUND + 1):
        for density in (0.2, 0.5, 0.8):
            g = Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2) if rng.random() < density])
            phi, coranks, counts = g.nondegenerate, g.coranks, g.corank_counts
            assert len(coranks) == sum(counts.values()) == 1 << n, g
            assert all(size % 2 == corank % 2 for size, corank in counts), g
            assert len(phi) == sum(c for (_, corank), c in counts.items() if corank == 0), g
            masks = [rng.randrange(1 << n) for _ in range(40)] + rng.sample(sorted(phi), min(10, len(phi)))
            for mask in masks:
                corank = induced_corank(g, [v + 1 for v in bit_indices(mask)])
                assert coranks[mask] == corank, (g, mask)
                assert (mask in phi) == (corank == 0), (g, mask)


def test_hypercube_distances_from_the_levels():
    assert SubsetTable.of_masks(0, [0]).distances == (0,)
    assert SubsetTable.of_masks(3, [0b011]).distances == (2, 1, 1, 0, 3, 2, 2, 1)
    rng = Random(88)
    for n in range(1, 9):
        sources = {rng.randrange(1 << n) for _ in range(rng.randint(1, 5))}
        expected = tuple(min((mask ^ f).bit_count() for f in sources) for mask in range(1 << n))
        assert SubsetTable.of_masks(n, sources).distances == expected, (n, sources)


def test_subset_table_refuses_an_empty_source_family():
    # with no source the levels would be (0,): every distance would read 0
    for n in (0, 3):
        with pytest.raises(DomainError, match=f"^no source masks among the subsets of {n} elements$"):
            SubsetTable.of_masks(n, [])


def test_subset_tables_refuse_past_the_budget_before_building():
    # refused by subset_masks before any 2^21-bit set exists
    big = Graph.empty(MAX_GROUND + 1)
    tracemalloc.start()
    try:
        for call in (lambda: big.coranks, lambda: big.corank_counts, lambda: dmat_from_graph(big)):
            with pytest.raises(DomainError, match="^21 elements exceed the subset budget of 20$"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << MAX_GROUND + 1) // 8 // 4, peak


def test_subset_bitsets_cache_clears_and_refills():
    SUBSET_BITSETS.clear()
    assert SUBSET_BITSETS[3] == ((0b10101010, 0b11001100, 0b11110000), (0b1, 0b00010110, 0b01101000, 0b10000000))
    g = path_graph(4)
    before = g.coranks
    SUBSET_BITSETS.clear()
    assert Graph(g.n, g.rows).coranks == before


def test_subset_bitsets_stats():
    SUBSET_BITSETS.clear()
    assert SUBSET_BITSETS.stats() == {"n": [], "bitsets": 0, "bytes": 0}
    held = [SUBSET_BITSETS[3], SUBSET_BITSETS[2]]
    bitsets = [b for holding, sized in held for b in holding + sized]
    assert len(bitsets) == (3 + 4) + (2 + 3)
    assert SUBSET_BITSETS.stats() == {"n": [2, 3], "bitsets": 12, "bytes": sum(map(sys.getsizeof, bitsets))}
    SUBSET_BITSETS.clear()
    assert SUBSET_BITSETS.stats()["n"] == []


def test_subset_level_check_survives_optimize_flag():
    # a table whose levels miss a mask would count 3 of the 4 subsets;
    # under python -O an assert would miss it
    code = (
        "import sys\n"
        "from wsys.errors import InternalError\n"
        "from wsys.graphs import SubsetTable\n"
        "try:\n"
        "    SubsetTable(2, (0b0001, 0b1010)).counts\n"
        "except InternalError:\n"
        "    print('InternalError', sys.flags.optimize)\n"
    )
    src = os.path.dirname(os.path.dirname(wsys.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["InternalError", "1"]
    assert SubsetTable(2, (0b0001, 0b0110, 0b1000)).counts == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_nondegeneracy():
    assert is_nondegenerate(Graph.empty(0))
    assert not is_nondegenerate(Graph.empty(1))
    assert is_nondegenerate(complete_graph(2))
    assert not is_nondegenerate(complete_graph(3))
    # nondegenerate induced subgraphs always have even order
    for g in all_graphs(4):
        if is_nondegenerate(g):
            assert g.n % 2 == 0


def flat_delete_vertex(g: Graph, v: int) -> Graph:
    """g without vertex v by the interlace recursion's flat deletion; the
    flat int must hold nothing but the n - 1 rows it decodes to."""
    flat = _delete_flat(_flat(g.rows), v - 1)
    rows = tuple(flat >> _STRIDE * r & _ROW for r in range(g.n - 1))
    assert _flat(rows) == flat
    return Graph._raw(g.n - 1, rows)


def test_induced_subgraph_and_delete():
    g = complete_graph(3)
    h = induced_subgraph(g, [1, 3])
    assert h == complete_graph(2)
    assert flat_delete_vertex(g, 2) == complete_graph(2)
    with pytest.raises(DomainError):
        induced_subgraph(g, [1, 4])


def test_graph_pivot_requires_edge():
    with pytest.raises(DomainError):
        graph_pivot(Graph.empty(2), 1, 2)
    with pytest.raises(DomainError):
        graph_pivot(complete_graph(2), 1, 1)
    with pytest.raises(DomainError):  # a vertex outside 1..n
        graph_pivot(complete_graph(2), 1, 3)


def test_graph_pivot_small_cases():
    # pivoting the middle edge of P_4 toggles the cross pairs
    p4 = path_graph(4)  # edges 1-2, 2-3, 3-4
    piv = graph_pivot(p4, 2, 3)
    # classes for edge 2-3: N(2) only = {1}, N(3) only = {4}; toggle 1-4
    assert piv == p4.toggle_edge(1, 4)
    # pivot is an involution
    assert graph_pivot(piv, 2, 3) == p4
    # pivot is symmetric in its arguments
    for g in all_graphs(4):
        for a, b in g.edges():
            assert graph_pivot(g, a, b) == graph_pivot(g, b, a)


def test_four_term_images_shapes():
    g = complete_graph(3)
    gp, gt, gtp = four_term_images(g, 1, 2)
    # g' toggles the edge ab
    assert gp == g.toggle_edge(1, 2)
    # g~ toggles {a,c} for every c adjacent to b (other than a)
    assert gt == g.toggle_edge(1, 3)
    # g~' additionally toggles ab
    assert gtp == g.toggle_edge(1, 3).toggle_edge(1, 2)
    with pytest.raises(DomainError):
        four_term_images(g, 2, 2)


def test_named_graphs():
    assert complete_graph(4).edges() == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert path_graph(1) == Graph.empty(1)
    assert cycle_graph(3) == complete_graph(3)
    d = diamond_graph()
    assert d.n == 4 and len(d.edges()) == 5
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_graphs(4)) == 64


# -- reference constructions: one has_edge test or one toggle at a time ------


def ref_induced_subgraph(g, vertices):
    vs = sorted(set(vertices))
    rows = [0] * len(vs)
    for i, v in enumerate(vs):
        for k, u in enumerate(vs):
            if u != v and g.has_edge(v, u):
                rows[i] |= 1 << k
    return Graph(len(vs), tuple(rows))


def ref_delete_vertex(g, v):
    return ref_induced_subgraph(g, [u for u in range(1, g.n + 1) if u != v])


def ref_graph_pivot(g, a, b):
    classes = {}
    for v in range(1, g.n + 1):
        if v not in (a, b) and (g.has_edge(v, a) or g.has_edge(v, b)):
            classes[v] = (g.has_edge(v, a), g.has_edge(v, b))
    out = g
    for u, v in combinations(sorted(classes), 2):
        if classes[u] != classes[v]:
            out = out.toggle_edge(u, v)
    return out


def ref_four_term_images(g, a, b):
    g_tilde = g
    for v in sorted(g.neighbors(b) - {a}):
        g_tilde = g_tilde.toggle_edge(a, v)
    return g.toggle_edge(a, b), g_tilde, g_tilde.toggle_edge(a, b)


def seeded_graphs(seed, count):
    rng = Random(seed)
    for _ in range(count):
        n = rng.randint(8, 12)
        density = rng.choice((0.3, 0.5, 0.7))
        yield Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2) if rng.random() < density])


def check_against_references(g, subsets):
    for v in range(1, g.n + 1):
        assert flat_delete_vertex(g, v) == ref_delete_vertex(g, v)
    for a in range(1, g.n + 1):
        for b in range(1, g.n + 1):
            if a == b:
                continue
            assert four_term_images(g, a, b) == ref_four_term_images(g, a, b)
            if g.has_edge(a, b):
                assert graph_pivot(g, a, b) == ref_graph_pivot(g, a, b)
    for mask in subsets:
        subset = [v + 1 for v in range(g.n) if mask >> v & 1]
        assert induced_subgraph(g, subset) == ref_induced_subgraph(g, subset)


def test_structural_operations_match_references_exhaustively():
    # every vertex, ordered pair and subset of every graph with n <= 5
    for n in range(6):
        for g in all_graphs(n):
            check_against_references(g, range(1 << n))


def test_structural_operations_match_references_on_seeded_graphs():
    rng = Random(12)
    for g in seeded_graphs(2024, 40):
        check_against_references(g, [rng.randrange(1 << g.n) for _ in range(30)])


L3 = graph_parse("n=3; edges=1-3")


@pytest.mark.parametrize(
    "call",
    [
        # has_edge(0, 1) used to read index -1, which wraps around to vertex 3
        pytest.param(lambda: L3.has_edge(0, 1), id="has_edge(0,1)"),
        pytest.param(lambda: L3.has_edge(1, 4), id="has_edge(1,4)"),
        pytest.param(lambda: L3.neighbors(0), id="neighbors(0)"),
        pytest.param(lambda: L3.neighbors(4), id="neighbors(4)"),
        pytest.param(lambda: L3.toggle_edge(1, 5), id="toggle_edge(1,5)"),
        pytest.param(lambda: L3.toggle_edge(0, 2), id="toggle_edge(0,2)"),
        pytest.param(lambda: four_term_images(L3, 1, 9), id="four_term_images(1,9)"),
        pytest.param(lambda: four_term_images(L3, 0, 1), id="four_term_images(0,1)"),
        pytest.param(lambda: graph_4t_check(skew_char, L3, 0, 1), id="graph_4t_check(0,1)"),
        pytest.param(lambda: graph_pivot(L3, 0, 1), id="graph_pivot(0,1)"),
        pytest.param(lambda: induced_subgraph(L3, [0, 1]), id="induced_subgraph(0,1)"),
        pytest.param(lambda: induced_corank(L3, [4]), id="induced_corank(4)"),
    ],
)
def test_vertices_outside_the_range_are_refused(call):
    with pytest.raises(DomainError, match="out of range"):
        call()


def test_subsets_in_mask_order_with_members_in_input_order():
    for n in range(7):
        for items in ("gfedcba"[:n], tuple(range(10, 10 - n, -1)), range(3, 3 + n)):
            got = list(subsets(items))
            assert [mask for mask, _ in got] == list(range(1 << n)), items
            for mask, members in got:
                assert members == [x for i, x in enumerate(items) if mask >> i & 1], (items, mask)


def test_subset_counts_equals_the_naive_histogram():
    def naive(stats):
        return dict(Counter((mask.bit_count(), s) for mask, s in enumerate(stats)))

    rng = Random(1414)
    tables = [(0,), (5,)]  # tables of length 1
    for n in range(15):
        density = rng.choice((0.2, 0.4, 0.6, 0.8))
        g = Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2) if rng.random() < density])
        tables.append(g.coranks)
    for m in range(6):  # the statistics feps_direct sums over
        for p in all_perms(m):
            subs = [subperm(p, points) for _, points in subsets(range(1, m + 1))]
            tables.append([cycle_count(p) - cycle_count(sub) + face_count(sub) - 1 for sub in subs])
    for stats in tables:
        assert subset_counts(stats) == naive(stats), stats
    assert subset_counts((5,)) == {(0, 5): 1}
    # the histogram a graph keeps, and shares with its set system, is read-only
    with pytest.raises(TypeError):
        complete_graph(2).corank_counts[(0, 0)] = 2


def test_subset_counts_refuses_a_negative_statistic():
    # decoded blindly, the key -1 * 3 + 1 would still read as (1, -1); it is refused
    with pytest.raises(InternalError, match="^negative subset statistic -1$"):
        subset_counts((0, -1, 0, 0))


def test_subsets_budget():
    assert next(subsets(range(MAX_GROUND))) == (0, [])
    over = subsets(range(MAX_GROUND + 1))  # refused on the first next(), not before
    with pytest.raises(DomainError, match="^21 elements exceed the subset budget of 20$"):
        next(over)


def test_subset_masks_budget():
    assert subset_masks(0) == range(1)
    assert subset_masks(MAX_GROUND) == range(1 << MAX_GROUND)
    with pytest.raises(DomainError, match="^21 elements exceed the subset budget of 20$"):
        subset_masks(MAX_GROUND + 1)
    with pytest.raises(DomainError, match="^21 elements exceed the subset budget of 20$"):
        Graph.empty(MAX_GROUND + 1).coranks


def test_derived_graphs_pass_the_validating_constructor():
    # the structural operations build their results without validation;
    # every result must still be a graph the public constructor accepts
    def validated(h):
        assert Graph(h.n, h.rows) == h

    for n in range(6):
        for g in all_graphs(n):
            for mask in range(1 << n):
                validated(induced_subgraph(g, [v + 1 for v in range(n) if mask >> v & 1]))
            for v in range(1, n + 1):
                validated(flat_delete_vertex(g, v))
            for a, b in combinations(range(1, n + 1), 2):
                validated(g.toggle_edge(a, b))
                for x, y in ((a, b), (b, a)):
                    for h in four_term_images(g, x, y):
                        validated(h)
                    if g.has_edge(x, y):
                        validated(graph_pivot(g, x, y))


def test_no_subset_loop_outside_the_enumerator():
    # a 2^n loop written outside graphs.subset_masks would bypass its budget;
    # all_graphs enumerates edge sets and the partial-dual suite its dual
    # masks, neither of which builds a member list
    allowed = {("graphs", "subset_masks"), ("graphs", "all_graphs"), ("verify", "suite_partial_dual_invariance")}
    found = set()
    for path in sorted(Path(wsys.__file__).parent.glob("*.py")):
        text = path.read_text()
        funcs = [node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)]
        for lineno, line in enumerate(text.splitlines(), 1):
            if re.search(r"\brange\((?:1, )?1 <<", line):
                owners = [f for f in funcs if f.lineno <= lineno <= f.end_lineno]
                found.add((path.stem, max(owners, key=lambda f: f.lineno).name if owners else None))
    assert ("graphs", "subset_masks") in found
    assert found <= allowed, sorted(found - allowed)


def test_no_assert_in_the_package():
    # python -O strips assert statements, so a consistency check written as
    # one would stop running; every check raises an error class instead
    found = []
    for path in sorted(Path(wsys.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.stem, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
