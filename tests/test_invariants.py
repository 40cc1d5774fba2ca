"""Skew-characteristic and interlace polynomials on graphs and delta-matroids."""

import os
import subprocess
import sys
from itertools import combinations
from random import Random

import pytest

import wsys

from wsys.algebra import Poly, poly_subst, var_key
from wsys.dmat import dmat_from_graph, partial_dual
from wsys.errors import DomainError, InternalError
from wsys.glws import feps_direct
from wsys.graphs import (
    Graph,
    all_graphs,
    complete_graph,
    cycle_graph,
    diamond_graph,
    graph_parse,
    path_graph,
)
from wsys.invariants import (
    RECURSION_MEMO,
    convolution,
    corank_power_N,
    first_edge,
    graph_4t_check,
    interlace_dmat,
    interlace_graph,
    interlace_graph_recursive,
    nondegeneracy_indicator,
    refined_skew_char_dmat,
    refined_skew_char_graph,
    shift_variable,
    skew_char,
    two_var_interlace,
    unit_invariant,
    vertex_count_power_u,
)
from wsys.perm import all_perms

N = Poly.var("N")
u, w, x, y = Poly.var("u"), Poly.var("w"), Poly.var("x"), Poly.var("y")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _seeded_graph(rng: Random, n: int, density: float) -> Graph:
    return Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2) if rng.random() < density])


def test_skew_char_small_graphs():
    # Q_G(u) = sum over nondegenerate induced subgraphs of u^(codimension)
    assert skew_char(Graph.empty(0)) == Poly.one()
    assert skew_char(Graph.empty(1)) == u
    assert skew_char(complete_graph(2)) == u**2 + 1
    assert skew_char(complete_graph(3)) == u**3 + 3 * u
    assert skew_char(path_graph(3)) == u**3 + 2 * u


def test_refined_skew_char_graph():
    assert refined_skew_char_graph(Graph.empty(1)) == u + w
    assert refined_skew_char_graph(complete_graph(2)) == u**2 + 2 * u * w + 1
    assert refined_skew_char_graph(complete_graph(3)) == u**3 + 3 * u**2 * w + 3 * u + w
    # w = 0 recovers the plain polynomial
    for n in range(0, 5):
        for g in all_graphs(n):
            assert poly_subst(refined_skew_char_graph(g), {"w": Poly.zero()}) == skew_char(g)


def test_refined_skew_char_dmat_matches_graph():
    for n in range(0, 5):
        for g in all_graphs(n):
            assert refined_skew_char_dmat(dmat_from_graph(g)) == refined_skew_char_graph(g)


def test_interlace_golden_values():
    with open(os.path.join(GOLDEN, "interlace.txt")) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            lhs, rhs = line.split(" = ", 1)
            assert str(interlace_graph(graph_parse(lhs))) == rhs


def test_interlace_known_values():
    assert interlace_graph(diamond_graph()) == 2 * x**2 + 8 * x + 6
    assert interlace_graph(complete_graph(3)) == 4 * x + 4
    assert interlace_graph(Graph.empty(2)) == (x + 1) ** 2


def test_interlace_recursive_equals_subset_sum():
    for n in range(0, 5):
        for g in all_graphs(n):
            assert interlace_graph_recursive(g) == interlace_dmat(dmat_from_graph(g))


def test_interlace_recursion_past_the_exhaustive_range():
    rng = Random(1618)
    for n in range(13, 17):
        for _ in range(2):
            density = rng.choice((0.2, 0.4, 0.6, 0.8))
            g = Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2) if rng.random() < density])
            value = interlace_graph_recursive(g, memo={})
            assert value == interlace_dmat(dmat_from_graph(g)), g
            assert sum(value.terms.values()) == 1 << n
    rng = Random(2023)
    for n in range(17, 21):
        for density in (0.2, 0.5, 0.8):
            g = _seeded_graph(rng, n, density)
            value = interlace_graph_recursive(g, memo={})
            assert value == interlace_dmat(dmat_from_graph(g)), g
            assert sum(value.terms.values()) == 1 << n


def test_interlace_recursion_at_the_budget():
    # the largest graph the budget admits; its coefficients sum to 2^20
    assert interlace_graph_recursive(Graph.empty(20), memo={}) == (x + 1) ** 20
    with pytest.raises(DomainError, match="^21 elements exceed the subset budget of 20$"):
        interlace_graph_recursive(Graph.empty(21), memo={})


def test_interlace_recursion_slot_check_survives_optimize_flag():
    # a memo entry whose slot 0 overflowed into slot 1 reads as x, whose
    # coefficients do not sum to 2^2; under python -O an assert would miss it.
    # K2 is keyed by its flat rows: row 0 = 0b10 at bit 0, row 1 = 0b01 at bit 20
    code = (
        "import sys\n"
        "from wsys.graphs import complete_graph\n"
        "from wsys.errors import InternalError\n"
        "from wsys.invariants import interlace_graph_recursive\n"
        "memo = {(2, 2 | 1 << 20): 1 << 24}\n"
        "try:\n"
        "    interlace_graph_recursive(complete_graph(2), memo=memo)\n"
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


def test_interlace_recursion_edge_policy_independent():
    import random

    rng = random.Random(7)

    def random_edge(g):
        es = g.edges()
        return rng.choice(es) if es else None

    for n in range(0, 5):
        for g in all_graphs(n):
            a = interlace_graph_recursive(g, memo={}, edge_policy=random_edge)
            assert a == interlace_graph(g)
    graph_rng = Random(510)
    for n in range(5, 11):
        for density in (0.2, 0.5, 0.8):
            g = Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2) if graph_rng.random() < density])
            a = interlace_graph_recursive(g, memo={}, edge_policy=random_edge)
            assert a == interlace_graph_recursive(g, memo={}), g

    # the highest vertex with a neighbour, and its highest neighbour: the
    # pivot runs on edges with a > b, and at n = 20 on the top row
    def last_edge(g):
        return next(((a, g.rows[a - 1].bit_length()) for a in range(g.n, 0, -1) if g.rows[a - 1]), None)

    last_rng = Random(2420)
    for n in range(11, 21):
        for density in (0.2, 0.5, 0.8):
            g = _seeded_graph(last_rng, n, density)
            assert n < 20 or last_edge(g)[0] == 20
            a = interlace_graph_recursive(g, memo={}, edge_policy=last_edge)
            assert a == interlace_graph_recursive(g, memo={}) == interlace_dmat(dmat_from_graph(g)), g

    # the default route applies first_edge's rule to the rows (the lowest
    # vertex with a neighbour, and its lowest neighbour) instead of calling
    # it: both pick the same edge, so both routes fill the same memo
    def row_rule(g):
        return next(((v, min(g.neighbors(v))) for v in range(1, g.n + 1) if g.neighbors(v)), None)

    # past n = 5, seeded graphs up to the budget; at n = 20 vertex 20 has
    # neighbours above vertex 10, which reach the top row of the flat int
    # and the high half of its spread table
    seeded_rng = Random(2320)
    seeded = [_seeded_graph(seeded_rng, n, density) for n in range(6, 21) for density in (0.2, 0.5, 0.8)]
    assert seeded[-2].n == 20 and seeded[-2].rows[19] >> 10
    for g in [g for n in range(0, 6) for g in all_graphs(n)] + seeded:
        assert first_edge(g) == row_rule(g), g
        by_rows, by_policy = {}, {}
        interlace_graph_recursive(g, memo=by_rows)
        interlace_graph_recursive(g, memo=by_policy, edge_policy=lambda h: first_edge(h))
        assert by_rows == by_policy, g


def test_interlace_recursion_refuses_a_policy_edge_that_is_absent():
    with pytest.raises(DomainError, match="^pivot requires edge 1-3$"):
        interlace_graph_recursive(path_graph(3), memo={}, edge_policy=lambda g: (1, 3))


def test_interlace_recursion_refuses_no_edge_on_a_graph_with_edges():
    # None would take the graph as edgeless, (x+1)^n, whose coefficients
    # still sum to 2^n; it is refused, and the refusing node writes no
    # memo entry, so the default route on the same memo stays right
    memo = {}
    message = "^pivot requires an edge, and the policy gave none on a graph with edges$"
    with pytest.raises(DomainError, match=message):
        interlace_graph_recursive(path_graph(2), memo=memo, edge_policy=lambda h: None)
    assert memo == {}
    assert interlace_graph_recursive(path_graph(2), memo=memo) == 2 + 2 * Poly.var("x")


def test_default_edge_rule_builds_no_graph(monkeypatch):
    g = cycle_graph(7)
    built, raw = [], Graph._raw
    monkeypatch.setattr(Graph, "_raw", classmethod(lambda cls, n, rows: built.append(n) or raw(n, rows)))
    interlace_graph_recursive(g, memo={})
    assert built == []
    interlace_graph_recursive(g, memo={}, edge_policy=lambda h: first_edge(h))
    assert built and built[0] == g.n


def test_recursion_memo_is_an_explicit_cache():
    # one packed int per graph the recursion meets, kept until clear()
    g = diamond_graph()
    fresh = {}
    interlace_graph_recursive(g, memo=fresh)
    assert len(fresh) > 1 and all(type(v) is int for v in fresh.values())
    RECURSION_MEMO.clear()
    assert RECURSION_MEMO.stats() == {"entries": 0}
    first = interlace_graph_recursive(g)
    assert RECURSION_MEMO.stats() == {"entries": len(fresh)}
    assert interlace_graph_recursive(g) == first  # a memo hit
    assert RECURSION_MEMO.stats() == {"entries": len(fresh)}
    RECURSION_MEMO.clear()
    assert RECURSION_MEMO.stats() == {"entries": 0}
    assert interlace_graph_recursive(g) == first == interlace_dmat(dmat_from_graph(g))


def test_subset_sums_adopt_canonical_terms():
    # subset_poly adopts its dict without the validating constructor, so
    # every coefficient must already be a positive int, every monomial free
    # of zero exponents and in the fixed variable order
    rng = Random(1717)
    graphs = [g for n in range(6) for g in all_graphs(n)]
    for n in range(6, 13):
        for density in (0.2, 0.5, 0.8):
            graphs.append(Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2) if rng.random() < density]))
    results = []
    for g in graphs:
        d = dmat_from_graph(g)
        results += [skew_char(g), refined_skew_char_graph(g), interlace_dmat(d), two_var_interlace(d)]
        results.append(refined_skew_char_dmat(d))
    results += [feps_direct(p) for m in range(6) for p in all_perms(m)]
    for p in results:
        assert all(type(c) is int and c > 0 for c in p.terms.values()), p
        for mono in p.terms:
            assert all(e for _, e in mono), p
            assert list(mono) == sorted(mono, key=lambda factor: var_key(factor[0])), p
        assert p == Poly(dict(p.terms))


def test_first_edge_policy():
    assert first_edge(Graph.empty(3)) is None
    assert first_edge(path_graph(3)) == (1, 2)


def test_interlace_refined_relation():
    # L_D(x) is the refined polynomial at u = 1, w = x
    for n in range(0, 5):
        for g in all_graphs(n):
            d = dmat_from_graph(g)
            assert interlace_dmat(d) == poly_subst(
                refined_skew_char_dmat(d), {"u": Poly.one(), "w": x}
            )


def test_shift_variable():
    assert shift_variable(x**2, "x") == (x - 1) ** 2
    assert shift_variable(4 * x + 4, "x") == 4 * x
    assert shift_variable(u + x, "x") == u + x - 1


def test_two_var_interlace_values():
    from wsys.dmat import DMat

    loop = dmat_from_graph(Graph.empty(1))
    assert two_var_interlace(loop) == 1 + x * y
    assert two_var_interlace(dmat_from_graph(complete_graph(2))) == 1 + 2 * x * y + x**2


def test_two_var_specializes_to_interlace():
    # y = 1 recovers L_D up to the subset-sum normalization
    for n in range(0, 4):
        for g in all_graphs(n):
            d = dmat_from_graph(g)
            lhs = poly_subst(two_var_interlace(d), {"x": x, "y": Poly.one()})
            # both count sum_U x^{|U| or d(U)} -- they agree at x = 1
            assert lhs.evaluate({"x": 1}) == interlace_dmat(d).evaluate({"x": 1}) == 2**n


def test_refined_from_two_var_transform():
    # coefficient of u^(|E|-a) w^b in Qbar equals that of x^a y^b in Lbar
    for n in range(0, 5):
        for g in all_graphs(n):
            d = dmat_from_graph(g)
            qbar = refined_skew_char_dmat(d)
            lbar = two_var_interlace(d)
            for mono, coef in lbar.terms.items():
                a = dict(mono).get("x", 0)
                b = dict(mono).get("y", 0)
                assert qbar.coefficient({"u": n - a, "w": b}) == coef


def test_partial_dual_preserves_interlace():
    for n in range(0, 4):
        for g in all_graphs(n):
            d = dmat_from_graph(g)
            for mask in range(1 << n):
                assert interlace_dmat(partial_dual(d, mask)) == interlace_dmat(d)
    rng = Random(1516)
    for n in (15, 16):
        for density in (0.2, 0.5, 0.8):
            d = dmat_from_graph(_seeded_graph(rng, n, density))
            mask = rng.randrange(1, 1 << n)
            assert interlace_dmat(partial_dual(d, mask)) == interlace_dmat(d), (d.ground, mask)


def test_convolution_counit():
    for n in range(0, 4):
        for g in all_graphs(n):
            assert convolution(skew_char, unit_invariant, g) == skew_char(g)
            assert convolution(unit_invariant, skew_char, g) == skew_char(g)


def test_convolution_refuses_past_the_subset_budget():
    calls = []

    def counted(g):
        calls.append(g)
        raise AssertionError("invariant evaluated past the subset budget")

    with pytest.raises(DomainError, match="21 elements exceed the subset budget of 20"):
        convolution(counted, counted, Graph.empty(21))
    assert calls == []


def test_convolution_characterizes_skew_char():
    for n in range(0, 5):
        for g in all_graphs(n):
            assert convolution(nondegeneracy_indicator, vertex_count_power_u, g) == skew_char(g)


def test_convolution_characterizes_refined():
    # the refined polynomial at w = N is the convolution of N^corank with u^|V|
    for n in range(0, 5):
        for g in all_graphs(n):
            assert convolution(corank_power_N, vertex_count_power_u, g) == poly_subst(
                refined_skew_char_graph(g), {"w": N}
            )


@pytest.mark.xfail(
    strict=True,
    reason="convolving the full skew-characteristic polynomial with N^corank "
    "double-counts nondegenerate subsets: on K_2 it yields u^2 + 2Nu + 2, "
    "while the refined polynomial is u^2 + 2Nu + 1",
)
def test_convolution_of_skew_char_with_corank_power():
    g = complete_graph(2)
    assert convolution(skew_char, corank_power_N, g) == poly_subst(
        refined_skew_char_graph(g), {"w": N}
    )


def test_graph_four_term():
    for n in range(0, 4):
        for g in all_graphs(n):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    if a == b:
                        continue
                    for f in (skew_char, refined_skew_char_graph, interlace_graph):
                        assert graph_4t_check(f, g, a, b)


def test_invariant_building_blocks():
    assert nondegeneracy_indicator(complete_graph(2)) == Poly.one()
    assert nondegeneracy_indicator(complete_graph(3)) == Poly.zero()
    assert vertex_count_power_u(complete_graph(3)) == u**3
    assert corank_power_N(complete_graph(3)) == N
    assert corank_power_N(complete_graph(2)) == Poly.one()
    assert unit_invariant(Graph.empty(0)) == Poly.one()
    assert unit_invariant(Graph.empty(1)) == Poly.zero()


def test_subset_tables_computed_once(monkeypatch):
    # the set system and the four subset sums of one graph share one subset
    # table: one Pfaffian pass and one level pass, built for the graph and
    # handed to the system by dmat_from_graph, whose one histogram all four
    # sums read; none of them decodes the 2^n coranks tuple
    import wsys.graphs

    passes, levels = [], []
    pfaffian, corank_levels = wsys.graphs._pfaffian_bits, wsys.graphs._corank_levels
    monkeypatch.setattr(wsys.graphs, "_pfaffian_bits", lambda rows: passes.append(len(rows)) or pfaffian(rows))
    monkeypatch.setattr(
        wsys.graphs, "_corank_levels", lambda n, sources: levels.append(n) or corank_levels(n, sources)
    )
    g = graph_parse("n=6; edges=1-2,1-4,1-6,2-3,3-4,4-5,5-6")
    d = dmat_from_graph(g)
    skew_char(g)
    refined_skew_char_graph(g)
    interlace_dmat(d)
    two_var_interlace(d)
    assert passes == levels == [g.n]
    assert d.subset_table is g.subset_table
    assert d.distance_counts is g.corank_counts
    assert "distances" not in vars(g.subset_table)
