"""Interlace and skew-characteristic polynomial families.

Graph invariants here are plain functions Graph -> Poly, so they can be
passed around first-class (the convolution product takes two of them).
The delta-matroid versions take a :class:`~wsys.dmat.DMat` and use the
distance function in place of the GF(2) corank; on systems coming from
graphs the two agree subset by subset.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, MutableMapping, Sequence

from .algebra import Monomial, Poly
from .dmat import DMat, mask_to_set
from .errors import DomainError
from .graphs import (
    MAX_GROUND,
    Graph,
    _bits,
    delete_vertex,
    four_term_images,
    graph_pivot,
    induced_corank,
    induced_subgraph,
    subsets,
)

GraphInvariant = Callable[[Graph], Poly]


def subset_poly(stats: Sequence[int], mono: Callable[[int, int], Monomial | None]) -> Poly:
    """Sum over subset masks U of the monomial mono(|U|, stats[U]).

    ``stats`` holds one statistic per mask (a corank or a distance).  The
    monomial is a tuple of (variable, exponent) pairs in the fixed variable
    order; factors with exponent 0 are dropped, and None leaves U out.
    """
    pairs = Counter((mask.bit_count(), stat) for mask, stat in enumerate(stats))
    terms: Counter = Counter()
    for (size, stat), count in pairs.items():
        key = mono(size, stat)
        if key is not None:
            terms[tuple((var, e) for var, e in key if e)] += count
    return Poly(terms)


def skew_char(g: Graph) -> Poly:
    """Q(u) = sum over mod-2 nondegenerate vertex subsets of u^(n - |U|)."""
    return subset_poly(g.coranks, lambda s, c: None if c else (("u", g.n - s),))


def refined_skew_char_graph(g: Graph) -> Poly:
    """Qbar(u, w) = sum over all vertex subsets of u^(n-|U|) w^(corank A_U)."""
    return subset_poly(g.coranks, lambda s, c: (("u", g.n - s), ("w", c)))


def refined_skew_char_dmat(d: DMat) -> Poly:
    """Qbar(u, w) with the distance to the admissible family as exponent."""
    return subset_poly(d.distances, lambda s, c: (("u", d.ground - s), ("w", c)))


def interlace_dmat(d: DMat) -> Poly:
    """L(x) = sum over all subsets of x^(distance)."""
    return subset_poly(d.distances, lambda s, c: (("x", c),))


def two_var_interlace(d: DMat) -> Poly:
    """Lbar(x, y) = sum over all subsets of x^|U| y^(distance)."""
    return subset_poly(d.distances, lambda s, c: (("x", s), ("y", c)))


# -- recursive interlace -------------------------------------------------------

_RECURSION_MEMO: dict[tuple[int, tuple[int, ...]], Poly] = {}


def first_edge(g: Graph) -> tuple[int, int] | None:
    for a, row in enumerate(g.rows, 1):
        for j in _bits(row >> a):  # neighbors above a
            return a, a + 1 + j
    return None


def interlace_graph_recursive(
    g: Graph,
    memo: MutableMapping[tuple[int, tuple[int, ...]], Poly] | None = None,
    edge_policy: Callable[[Graph], tuple[int, int] | None] = first_edge,
) -> Poly:
    """L(x) by the vertex recursion L(G) = L(G - a) + L(G^{ab} - b), with
    (x+1)^n on edgeless graphs.  The result does not depend on which edge
    the policy picks; the default takes the lexicographically first."""
    if g.n > MAX_GROUND:
        raise DomainError(f"{g.n} elements exceed the subset budget of {MAX_GROUND}")
    table = _RECURSION_MEMO if memo is None else memo
    key = (g.n, g.rows)
    cached = table.get(key)
    if cached is not None:
        return cached
    edge = edge_policy(g)
    if edge is None:
        result = (Poly.var("x") + Poly.one()) ** g.n
    else:
        a, b = edge
        result = interlace_graph_recursive(
            delete_vertex(g, a), table, edge_policy
        ) + interlace_graph_recursive(
            delete_vertex(graph_pivot(g, a, b), b), table, edge_policy
        )
    table[key] = result
    return result


def interlace_graph(g: Graph) -> Poly:
    """Interlace polynomial of a graph (recursive computation)."""
    return interlace_graph_recursive(g)


def shift_variable(p: Poly, var: str) -> Poly:
    """Substitute var -> var - 1 (the alternative normalization some
    sources use for the interlace polynomial)."""
    return p.subs({var: Poly.var(var) - Poly.one()})


# -- convolution and 4-term check -----------------------------------------------


def convolution(f: GraphInvariant, g: GraphInvariant, graph: Graph) -> Poly:
    """(f * g)(G) = sum over vertex subsets U of f(G|U) g(G|rest)."""
    full = (1 << graph.n) - 1
    total = Poly.zero()
    for mask, part in subsets(range(1, graph.n + 1)):
        rest = mask_to_set(full ^ mask)
        total = total + f(induced_subgraph(graph, part)) * g(induced_subgraph(graph, rest))
    return total


def graph_4t_check(f: GraphInvariant, g: Graph, a: int, b: int) -> bool:
    """f(G) - f(G') = f(G~) - f(G~') at the ordered pair (a, b)."""
    g_prime, g_tilde, g_tilde_prime = four_term_images(g, a, b)
    return f(g) - f(g_prime) == f(g_tilde) - f(g_tilde_prime)


# -- invariants used as convolution factors --------------------------------------


def nondegeneracy_indicator(g: Graph) -> Poly:
    """1 on mod-2 nondegenerate graphs, 0 otherwise."""
    return Poly.one() if induced_corank(g, range(1, g.n + 1)) == 0 else Poly.zero()


def vertex_count_power_u(g: Graph) -> Poly:
    """u^|V|."""
    return Poly.var("u", g.n) if g.n else Poly.one()


def corank_power_N(g: Graph) -> Poly:
    """N^(corank of the adjacency matrix)."""
    c = induced_corank(g, range(1, g.n + 1))
    return Poly.var("N", c) if c else Poly.one()


def unit_invariant(g: Graph) -> Poly:
    """1 on the empty graph, 0 otherwise (the counit)."""
    return Poly.one() if g.n == 0 else Poly.zero()
