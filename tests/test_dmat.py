"""Delta-matroids: admissible sets, exchange axiom, distance, partial duality."""

import hashlib
from itertools import combinations
from random import Random

import pytest

from wsys import dmat, graphs
from wsys.dmat import (
    MAX_EXCHANGE_SETS,
    DMat,
    check_symmetric_exchange,
    distance,
    dmat_delete,
    dmat_format,
    dmat_from_chord_diagram,
    dmat_from_graph,
    dmat_parse,
    is_coloop,
    is_loop,
    mask_to_set,
    partial_dual,
    set_to_mask,
)
from wsys.errors import DomainError, ParseError
from wsys.graphs import MAX_GROUND, Graph, all_graphs, complete_graph, graph_format, graph_pivot, path_graph
from wsys.invariants import (
    interlace_dmat,
    interlace_graph_recursive,
    refined_skew_char_graph,
    skew_char,
    two_var_interlace,
)
from wsys.perm import all_chord_diagrams, face_count, perm_format, perm_parse, subperm
from wsys.verify import MAX_VERIFY_VERTICES


def set_bits(mask):
    return {i + 1 for i in range(mask.bit_length()) if mask >> i & 1}


def test_masks():
    assert set_to_mask([1, 3], 3) == 0b101
    assert set_to_mask([], 3) == 0
    assert mask_to_set(0b101) == (1, 3)
    assert mask_to_set(0) == ()
    with pytest.raises(DomainError):
        set_to_mask([4], 3)
    with pytest.raises(DomainError):
        set_to_mask([0], 3)
    for mask in [*range(1 << 10), 1 << 40, (1 << 64) - 1, 0b1011 << 100]:
        assert mask_to_set(mask) == tuple(sorted(set_bits(mask)))


def test_dmat_validation():
    d = DMat(2, frozenset({0b00, 0b11}))
    assert d.is_admissible([1, 2])
    assert not d.is_admissible([1])
    assert d.admissible_sorted() == [0b00, 0b11]
    with pytest.raises(DomainError):
        DMat(2, frozenset())  # proper set systems are nonempty
    with pytest.raises(DomainError):
        DMat(1, frozenset({0b10}))  # admissible set outside the ground set


def test_dmat_from_graph_feasible_sets():
    # subsets with nondegenerate induced adjacency matrix
    d = dmat_from_graph(complete_graph(3))
    assert d.admissible_sorted() == [0b000, 0b011, 0b101, 0b110]
    d = dmat_from_graph(Graph.empty(2))
    assert d.admissible_sorted() == [0b00]
    assert dmat_format(dmat_from_graph(complete_graph(3))) == "E=3; phi={},{1,2},{1,3},{2,3}"


def test_dmat_from_chord_diagram_matches_intersection_graph():
    for n in range(1, 5):
        for b in all_chord_diagrams(n):
            from wsys.perm import intersection_graph

            assert dmat_from_chord_diagram(b) == dmat_from_graph(intersection_graph(b))


def test_symmetric_exchange_axiom():
    for n in range(0, 5):
        for g in all_graphs(n):
            assert check_symmetric_exchange(dmat_from_graph(g))
    # a non-example: {(), {1,2}} with witness sets missing
    bad = DMat(2, frozenset({0b00, 0b01, 0b11}))
    # still a delta-matroid: exchanges exist for every pair
    assert check_symmetric_exchange(bad)
    not_dm = DMat(3, frozenset({0b000, 0b111}))
    assert not check_symmetric_exchange(not_dm)


def _pairwise_exchange(d: DMat) -> bool:
    """The axiom compared pair by pair on member tuples, as the check did
    before it read neighbour masks: the reference it must agree with."""
    phi_list = list(d.phi)
    for f in phi_list:
        for g in phi_list:
            diff = f ^ g
            if not diff:
                continue
            for x in mask_to_set(diff):
                xbit = 1 << (x - 1)
                if f ^ xbit in d.phi:  # y = x
                    continue
                if not any(f ^ xbit ^ (1 << (y - 1)) in d.phi for y in mask_to_set(diff) if y != x):
                    return False
    return True


def test_symmetric_exchange_agrees_with_the_pairwise_reference(monkeypatch):
    # the mask check never builds a member tuple: dmat.mask_to_set is gone
    # while it runs, and the reference reads this module's own binding
    monkeypatch.setattr(dmat, "mask_to_set", None)
    graph_systems = [dmat_from_graph(g) for n in range(6) for g in all_graphs(n)]
    assert len(graph_systems) == 1100
    for d in graph_systems:
        assert check_symmetric_exchange(d) is _pairwise_exchange(d) is True, d
    # seeded random families on at most 7 elements, many of them no
    # delta-matroid
    rng, failing = Random(34), 0
    for _ in range(600):
        ground = rng.randint(0, 7)
        density = rng.choice((0.1, 0.3, 0.5, 0.8))
        phi = frozenset(mask for mask in range(1 << ground) if rng.random() < density) or frozenset({0})
        d = DMat(ground, phi)
        verdict = check_symmetric_exchange(d)
        assert verdict is _pairwise_exchange(d), dmat_format(d)
        failing += not verdict
    assert failing == 277
    # seeded graph systems on 6 to 10 vertices (16 to 253 sets), each also
    # with one admissible set removed and one other set added: all ten break
    broken = 0
    for n in range(6, 11):
        rng = Random(n)
        g = Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5])
        d = dmat_from_graph(g)
        assert check_symmetric_exchange(d) is _pairwise_exchange(d) is True, graph_format(g)
        admissible = sorted(d.phi)
        other = [mask for mask in range(1 << n) if mask not in d.phi]
        for e in (DMat(n, d.phi ^ {rng.choice(admissible)}), DMat(n, d.phi ^ {rng.choice(other)})):
            verdict = check_symmetric_exchange(e)
            assert verdict is _pairwise_exchange(e), graph_format(g)
            broken += not verdict
    assert broken == 10


def test_symmetric_exchange_refuses_past_its_budget_before_any_pair(monkeypatch):
    # every graph system of the dmat-axiom suite is within the budget; so
    # are the 256 subsets of 8 elements, and one set more is refused before
    # a pair is compared: each pair's bit pass would call the missing
    # graphs.bit_indices
    assert MAX_EXCHANGE_SETS == 256 and 2**MAX_VERIFY_VERTICES <= MAX_EXCHANGE_SETS
    assert check_symmetric_exchange(DMat(8, frozenset(range(256))))
    monkeypatch.setattr(graphs, "bit_indices", None)
    with pytest.raises(DomainError, match="^257 admissible sets exceed the exchange budget of 256$"):
        check_symmetric_exchange(DMat(9, frozenset(range(257))))
    # a set system past the subset budget is refused when it is made
    with pytest.raises(DomainError, match="^ground size 21 outside 0..20$"):
        DMat(MAX_GROUND + 1, frozenset({0}))


def test_distance():
    d = dmat_from_graph(complete_graph(3))
    assert distance(d, []) == 0
    assert distance(d, [1]) == 1
    assert distance(d, [1, 2]) == 0
    assert distance(d, [1, 2, 3]) == 1
    # on chord-diagram delta-matroids, distance equals faces - 1 of the
    # diagram restricted to the chosen chords
    for b in all_chord_diagrams(3):
        dd = dmat_from_chord_diagram(b)
        from wsys.perm import chords

        ch = chords(b)
        for mask in range(1 << len(ch)):
            subset = [k + 1 for k in range(len(ch)) if mask >> k & 1]
            pts = sorted(p for k in subset for p in ch[k - 1])
            assert distance(dd, subset) == face_count(subperm(b, pts)) - 1
    # all distances at once agree with the one-subset definition
    systems = [dmat_from_graph(g) for n in range(5) for g in all_graphs(n)]
    systems += [dmat_from_chord_diagram(b) for n in range(1, 5) for b in all_chord_diagrams(n)]
    for dd in systems:
        assert dd.distances == tuple(distance(dd, m) for m in range(1 << dd.ground))


def test_partial_dual():
    d = dmat_from_graph(path_graph(3))
    full = list(range(1, 4))
    # duality is an involution and composes by symmetric difference
    assert partial_dual(partial_dual(d, [1]), [1]) == d
    assert partial_dual(partial_dual(d, [1]), [2]) == partial_dual(d, [1, 2])
    # dualizing the full ground set XORs every admissible set
    dd = partial_dual(d, full)
    assert sorted(a ^ 0b111 for a in dd.admissible_sorted()) == d.admissible_sorted()


def test_loop_coloop():
    # P_3 has admissible sets {}, {1,2}, {2,3}: element 3 is in some but
    # not all of them, hence neither loop nor coloop
    d = dmat_from_graph(path_graph(3))
    assert not is_loop(d, 3) and not is_coloop(d, 3)
    # element in no admissible set is a loop
    iso = dmat_from_graph(Graph.empty(1))
    assert is_loop(iso, 1)
    assert not is_coloop(iso, 1)
    # element in every admissible set is a coloop
    co = DMat(1, frozenset({0b1}))
    assert is_coloop(co, 1)
    assert not is_loop(co, 1)


def test_dmat_delete():
    d = dmat_from_graph(complete_graph(3))
    d2 = dmat_delete(d, 3)
    assert d2.ground == 2
    assert d2.admissible_sorted() == [0b00, 0b11]
    co = DMat(1, frozenset({0b1}))
    with pytest.raises(DomainError, match="cannot delete the coloop 1"):
        dmat_delete(co, 1)  # deleting a coloop empties the system
    # against the definition on sets: keep the sets avoiding e, renumber
    # the elements above e one lower
    rng = Random(7)
    systems = [dmat_from_graph(g) for n in range(5) for g in all_graphs(n)]
    for _ in range(200):
        ground = rng.randint(1, 9)
        systems.append(DMat(ground, frozenset(rng.randrange(1 << ground) for _ in range(rng.randint(1, 12)))))
    for d in systems:
        for e in range(1, d.ground + 1):
            if is_coloop(d, e):
                continue
            kept = {frozenset(x - (x > e) for x in set_bits(f)) for f in d.phi if e not in set_bits(f)}
            assert {frozenset(set_bits(f)) for f in dmat_delete(d, e).phi} == kept


def test_parse_format_round_trip():
    d = dmat_from_graph(complete_graph(3))
    assert dmat_parse(dmat_format(d)) == d
    assert dmat_parse("E=2; phi={}") == DMat(2, frozenset({0}))
    assert dmat_parse("E=0; phi={}") == DMat(0, frozenset({0}))
    for bad in ["", "E=2; phi=", "E=x; phi={}", "E=1; phi={2}", "phi={}"]:
        with pytest.raises(ParseError):
            dmat_parse(bad)


def test_graph_systems_pass_the_validating_constructor():
    # dmat_from_graph adopts the graph's table without validation; every
    # result must still be a system the public constructor accepts
    rng = Random(1212)
    graphs = [g for n in range(6) for g in all_graphs(n)]
    for n in range(6, 13):
        for density in (0.2, 0.5, 0.8):
            graphs.append(Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2) if rng.random() < density]))
    for g in graphs:
        d = dmat_from_graph(g)
        checked = DMat(d.ground, d.phi)
        assert checked == d and checked.phi == d.phi == g.nondegenerate, g
        assert checked.distances == d.distances, g


def test_distances_past_the_exhaustive_range():
    # a parsed system and a seeded partial dual of a graph system, checked
    # against the definition on sampled masks
    rng = Random(1518)
    for ground in range(15, 21):
        phi = frozenset(rng.randrange(1 << ground) for _ in range(rng.randint(1, 40)))
        parsed = dmat_parse(dmat_format(DMat(ground, phi)))
        g = Graph.from_edges(ground - 4, [p for p in combinations(range(1, ground - 3), 2) if rng.random() < 0.5])
        dual = partial_dual(dmat_from_graph(g), rng.randrange(1 << g.n))
        for d in (parsed, dual):
            assert sum(d.distance_counts.values()) == len(d.distances) == 1 << d.ground
            masks = [rng.randrange(1 << d.ground) for _ in range(25)]
            for mask in masks + rng.sample(sorted(d.phi), min(5, len(d.phi))):
                assert d.distances[mask] == distance(d, mask), (dmat_format(d)[:80], mask)


# SHA-256 of the printed subset-sum and delta-matroid layer, one
# tab-separated line each: the system, the four subset sums and the
# interlace recursion of every graph with at most five vertices and of 26
# seeded graphs at 8 to 20 vertices (the system printed through 10
# vertices, its size past them); a partial dual (the i-th graph's by the
# mask i mod 2^n) and the pivot at each edge of every graph with at most
# five vertices; and the
# system of every chord diagram with at most four chords with its
# distances.
LAYER_D_DIGEST = "df4002d900dc172d4c89897d6f5a3fb98e7c77c4c8643c4bc2e8ed84e64921a9"


def _layer_d_lines() -> list[str]:
    rng = Random(14)
    graphs = [g for n in range(6) for g in all_graphs(n)]
    for n in range(8, 21):
        for density in (0.2, 0.8):
            graphs.append(Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2) if rng.random() < density]))
    lines = []
    for g in graphs:
        d = dmat_from_graph(g)
        sums = (skew_char(g), refined_skew_char_graph(g), interlace_dmat(d), two_var_interlace(d))
        system = dmat_format(d) if g.n <= 10 else str(len(d.phi))
        lines.append("\t".join([graph_format(g), system, *map(str, sums), str(interlace_graph_recursive(g))]))
    for i, g in enumerate(graphs[:1100]):
        dual = dmat_format(partial_dual(dmat_from_graph(g), i % (1 << g.n)))
        pivots = [graph_format(graph_pivot(g, a, b)) for a, b in g.edges()]
        lines.append("\t".join([graph_format(g), dual, *pivots]))
    for n in range(5):
        for b in all_chord_diagrams(n):
            d = dmat_from_chord_diagram(b)
            lines.append(f"{perm_format(b)}\t{dmat_format(d)}\t{' '.join(map(str, d.distances))}")
    return lines


def test_printed_subset_layer_is_unchanged():
    lines = _layer_d_lines()
    assert len(lines) == 1126 + 1100 + 125
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LAYER_D_DIGEST
