"""Permutation encoding, parsing, hypermap faces, chords, and pivots."""

import pytest

from wsys.errors import DomainError, ParseError
from wsys.perm import (
    EMPTY,
    MAX_POINTS,
    Perm,
    all_chord_diagrams,
    all_perms,
    chord_4t_graphs,
    chord_4t_quadruple,
    chord_subdiagram,
    chords,
    concat,
    cycle_count,
    cyclic_shift,
    face_count,
    identity,
    interlacing_two_cycle_pairs,
    intersection_graph,
    is_chord_diagram,
    perm_format,
    perm_parse,
    perm_pivot,
    relabel,
    standard_cycle,
    subperm,
    two_cycles,
)


def test_perm_validation():
    assert Perm((2, 1, 3)).m == 3
    with pytest.raises(DomainError):
        Perm((1, 1, 3))
    with pytest.raises(DomainError):
        Perm((0, 1))
    with pytest.raises(DomainError):
        Perm((2, 3))


def test_call_and_inverse():
    p = Perm((3, 1, 2))
    assert [p(i) for i in (1, 2, 3)] == [3, 1, 2]
    q = p.inverse()
    assert all(q(p(i)) == i for i in (1, 2, 3))


def test_cycles():
    assert Perm((3, 1, 2)).cycles() == [(1, 3, 2)]
    assert Perm((2, 1, 4, 3)).cycles() == [(1, 2), (3, 4)]
    assert EMPTY.cycles() == []
    assert identity(3).cycles() == [(1,), (2,), (3,)]


def test_standard_cycle():
    assert standard_cycle(4).img == (2, 3, 4, 1)
    assert standard_cycle(1) == identity(1)
    with pytest.raises(DomainError):
        standard_cycle(0)


def test_parse_one_line_and_cycles():
    assert perm_parse("3,1,2") == Perm((3, 1, 2))
    assert perm_parse("(1 3 2)") == Perm((3, 1, 2))
    assert perm_parse("(1,3,2)") == Perm((3, 1, 2))
    assert perm_parse("(1 3)(2 4)") == Perm((3, 4, 1, 2))
    assert perm_parse("()") == EMPTY
    # unlisted points inside cycle notation become fixed points
    assert perm_parse("(1 3)", m=4) == Perm((3, 2, 1, 4))


def test_parse_errors():
    for bad in ["1,1", "0,1", "1,3", "(1 2", "a,b", "(1 2)(2 3)", "²,1", "(² 1)"]:
        with pytest.raises(ParseError):
            perm_parse(bad)
    # blank input is the empty permutation, like "()"
    assert perm_parse("") == EMPTY


def test_format_round_trip():
    for m in range(0, 5):
        for p in all_perms(m):
            assert perm_parse(perm_format(p)) == p
    assert perm_format(EMPTY) == "()"


def test_cycle_and_face_counts():
    assert cycle_count(identity(4)) == 4
    assert cycle_count(standard_cycle(5)) == 1
    assert face_count(EMPTY) == 1
    # the standard m-cycle has m faces (its face permutation is the identity),
    # matching the standard-representation value C_m -> N^(m-1) = N^(f-1)
    for m in range(1, 7):
        assert face_count(standard_cycle(m)) == m
    # the single chord (1 2) has two faces
    assert face_count(Perm((2, 1))) == 2
    # interlaced pair of chords: one face
    assert face_count(perm_parse("(1 3)(2 4)")) == 1
    # parallel pair of chords: three faces
    assert face_count(perm_parse("(1 2)(3 4)")) == 3


def test_face_count_euler_parity():
    # V - E + F has the parity of an orientable one-vertex map: for a
    # chord diagram with n chords, f = n + 1 - 2*genus
    for n in range(1, 5):
        for b in all_chord_diagrams(n):
            f = face_count(b)
            assert (n + 1 - f) % 2 == 0
            assert 1 <= f <= n + 1


def test_subperm():
    p = perm_parse("(1 3)(2 4)")
    assert subperm(p, [1, 3]) == Perm((2, 1))
    # severed chords close up into fixed points
    assert subperm(p, [1, 2]) == identity(2)
    # restriction keeps relative order and closes orbits through skipped points
    q = perm_parse("(1 2 3)")
    assert subperm(q, [1, 3]) == Perm((2, 1))
    assert subperm(q, []) == EMPTY
    with pytest.raises(DomainError):
        subperm(q, [1, 4])


def test_face_count_is_the_cycle_count_of_sigma_after_alpha_inverse():
    # the definition, i -> sigma(alpha^{-1}(i)), built from the inverse
    for m in range(8):
        for p in all_perms(m):
            inv = p.inverse()
            phi = Perm(tuple(inv(i) % m + 1 for i in range(1, m + 1)))
            assert face_count(p) == (cycle_count(phi) if m else 1), p.img


def test_cycles_match_the_walk_by_calls():
    # the walk with one call of p per step, marking every visited point
    def walk(p):
        seen = [False] * p.m
        out = []
        for start in range(1, p.m + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = p(start)
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = p(j)
            out.append(tuple(cyc))
        return out

    for m in range(7):
        for p in all_perms(m):
            assert p.cycles() == walk(p), p.img


def test_subperm_matches_the_walk_to_the_next_kept_point():
    # each kept point goes to the next kept point of its cycle, as its rank
    def restrict(p, kept):
        def next_kept(v):
            v = p(v)
            while v not in kept:
                v = p(v)
            return v

        return tuple(kept.index(next_kept(v)) + 1 for v in kept)

    for m in range(7):
        for p in all_perms(m):
            for mask in range(1 << m):
                kept = [v for v in range(1, m + 1) if mask >> v - 1 & 1]
                assert subperm(p, kept).img == restrict(p, kept), (p.img, mask)


def test_chord_subdiagram_is_the_restriction_to_the_chords_points():
    for n in range(5):
        for b in all_chord_diagrams(n):
            ch = chords(b)
            index = {p: k for k, chord in enumerate(ch, 1) for p in chord}
            for mask in range(1 << n):
                chosen = [c for i, c in enumerate(ch) if mask >> i & 1]
                points = [p for p in range(1, b.m + 1) if mask >> index[p] - 1 & 1]
                sub = chord_subdiagram(b, chosen)
                assert sub == subperm(b, points), (perm_format(b), mask)
                assert len(chords(sub)) == len(chosen)


def test_concat_shifts_second_block():
    a, b = perm_parse("(1 2)"), perm_parse("(1 2 3)")
    c = concat(a, b)
    assert c == perm_parse("(1 2)(3 4 5)")
    assert concat(EMPTY, a) == a
    assert concat(a, EMPTY) == a


def test_relabel_and_cyclic_shift():
    p = perm_parse("(1 2)")
    assert relabel(p, {1: 2, 2: 1}) == p
    with pytest.raises(DomainError):
        relabel(p, {1: 1, 2: 1})
    # conjugation by the standard shift preserves cycle type
    q = perm_parse("(1 2)(3 4)")
    s = cyclic_shift(q)
    assert sorted(len(c) for c in s.cycles()) == [2, 2]
    assert s == perm_parse("(2 3)(4 1)")


def test_chord_diagram_predicates():
    assert is_chord_diagram(perm_parse("(1 3)(2 4)"))
    assert not is_chord_diagram(perm_parse("(1 2 3)"))
    assert not is_chord_diagram(identity(2))
    assert is_chord_diagram(EMPTY)
    assert chords(perm_parse("(1 3)(2 4)")) == [(1, 3), (2, 4)]
    with pytest.raises(DomainError):
        chords(perm_parse("(1 2 3)"))


def test_intersection_graph():
    # interlaced chords meet, parallel ones do not
    g = intersection_graph(perm_parse("(1 3)(2 4)"))
    assert g.n == 2 and g.has_edge(1, 2)
    g = intersection_graph(perm_parse("(1 2)(3 4)"))
    assert g.n == 2 and not g.has_edge(1, 2)
    # the (1 4)(2 5)(3 6) diagram is a triangle
    g = intersection_graph(perm_parse("(1 4)(2 5)(3 6)"))
    assert all(g.has_edge(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j)


def test_two_cycle_helpers():
    p = perm_parse("(1 3)(2 4)", m=5)
    assert two_cycles(p) == [(1, 3), (2, 4)]
    assert interlacing_two_cycle_pairs(p) == [((1, 3), (2, 4))]
    assert interlacing_two_cycle_pairs(perm_parse("(1 2)(3 4)")) == []


def test_perm_pivot_worked_example():
    # pivoting (3,5,6,7,2,8,4,9,1) on the interlacing orbits (2,5) and (4,7)
    p = perm_parse("3,5,6,7,2,8,4,9,1")
    piv = perm_pivot(p, (2, 5), (4, 7))
    assert piv == perm_parse("6,5,8,7,2,3,4,9,1")
    # argument order does not matter
    assert perm_pivot(p, (4, 7), (2, 5)) == piv


def test_perm_pivot_requires_interlacing_two_cycles():
    p = perm_parse("(1 2)(3 4)")
    with pytest.raises(DomainError):
        perm_pivot(p, (1, 2), (3, 4))
    with pytest.raises(DomainError):
        perm_pivot(perm_parse("(1 2 3)", m=4), (1, 2), (2, 4))


def test_perm_pivot_is_an_involution():
    for b in all_chord_diagrams(3):
        for x, y in interlacing_two_cycle_pairs(b):
            piv = perm_pivot(b, x, y)
            a1, a2 = sorted(x)
            b1, b2 = sorted(y)
            if b1 < a1:
                a1, a2, b1, b2 = b1, b2, a1, a2
            ximg = (a1, a1 + b2 - b1)
            yimg = (a1 + b2 - a2, b2)
            assert perm_pivot(piv, ximg, yimg) == b


def test_chord_4t_quadruple_shapes():
    b = perm_parse("(1 4)(2 5)(3 6)")
    q1, q2, q3, q4 = chord_4t_quadruple(b, 1, 2)
    assert q1 == b
    assert all(is_chord_diagram(q) for q in (q2, q3, q4))
    assert all(q.m == b.m for q in (q2, q3, q4))
    # ends on the same chord are rejected
    with pytest.raises(DomainError):
        chord_4t_quadruple(perm_parse("(1 2)(3 4)"), 1, 2)


def test_chord_4t_graphs_are_graph_four_term_images():
    from wsys.graphs import four_term_images

    for n in (2, 3):
        for b in all_chord_diagrams(n):
            m = b.m
            for e in range(1, m + 1):
                e2 = e % m + 1
                if b(e) == e2:
                    continue
                g, gp, gt, gtp = chord_4t_graphs(b, e, e2)
                index = {p: k for k, chord in enumerate(chords(b), 1) for p in chord}
                assert (gp, gt, gtp) == four_term_images(g, index[e], index[e2])


def test_enumerators():
    assert sum(1 for _ in all_perms(0)) == 1
    assert sum(1 for _ in all_perms(3)) == 6
    assert sum(1 for _ in all_perms(4)) == 24
    # (2n - 1)!! diagrams on n chords
    assert sum(1 for _ in all_chord_diagrams(1)) == 1
    assert sum(1 for _ in all_chord_diagrams(2)) == 3
    assert sum(1 for _ in all_chord_diagrams(3)) == 15
    assert sum(1 for _ in all_chord_diagrams(4)) == 105
    for b in all_chord_diagrams(3):
        assert is_chord_diagram(b)


def test_parse_point_budget():
    # a cycle point, an m or a one-line length above MAX_POINTS is refused
    # before any list of that size is built, whatever the length of the digit run
    too_many = ",".join(str(i) for i in range(1, MAX_POINTS + 2))
    for text in ["(1 100000000)", f"(1 {MAX_POINTS + 1})", "(1 " + "9" * 5000 + ")", too_many]:
        with pytest.raises(DomainError):
            perm_parse(text)
    # a one-line value above the text's own length, or a cycle point above an
    # explicit m, is malformed input, not input over the budget
    for text, m in [("2,100000000", None), ("1,1001", None), ("1," + "9" * 5000, None), ("(1 1001)", 5), ("(1 6)", 5)]:
        with pytest.raises(ParseError) as info:
            perm_parse(text, m)
        assert not isinstance(info.value, DomainError)
    for m in (MAX_POINTS + 1, 10**8):
        with pytest.raises(DomainError):
            perm_parse("()", m=m)
        with pytest.raises(DomainError):
            perm_parse("(1 2)", m=m)
    assert perm_parse(f"(1 {MAX_POINTS})").m == MAX_POINTS
    assert perm_parse("(0001 02)") == Perm((2, 1))
    with pytest.raises(ParseError):
        perm_parse("(1 000)")
