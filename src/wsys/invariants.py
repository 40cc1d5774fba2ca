"""Interlace and skew-characteristic polynomial families.

Graph invariants here are plain functions Graph -> Poly, so they can be
passed around first-class (the convolution product takes two of them).
The delta-matroid versions take a :class:`~wsys.dmat.DMat` and use the
distance function in place of the GF(2) corank; on systems coming from
graphs the two agree subset by subset.

Every subset sum reads the histogram of (|U|, statistic) pairs of the
subset table kept on its graph (``Graph.corank_counts``) or system
(``DMat.distance_counts``), so a graph and the system ``dmat_from_graph``
makes of it share one table and one histogram; no sum decodes the 2^n
statistics one by one.
A sum adds each monomial's count into a plain dict and adopts it with
``Poly._raw``: histogram counts are positive ints and the monomials come
in the fixed variable order, so nothing is left to validate.
The vertex recursion of the interlace polynomial runs on adjacency rows
and on packed integers (L at x = 2^21) and decodes to a Poly once per
call.  Its default edge rule reads the row tuple directly; a policy the
caller passes gets a Graph per node and has its edge checked.  Packed
values are kept in the explicit cache :data:`RECURSION_MEMO`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Mapping, MutableMapping

from .algebra import Monomial, Poly
from .dmat import DMat, mask_to_set
from .errors import DomainError, InternalError
from .graphs import (
    MAX_GROUND,
    Graph,
    _delete_row,
    _pivot_rows,
    four_term_images,
    graph_format,
    induced_corank,
    induced_subgraph,
    subsets,
)

GraphInvariant = Callable[[Graph], Poly]


def subset_poly(
    counts: Mapping[tuple[int, int], int], mono: Callable[[int, int], Monomial | None]
) -> Poly:
    """Sum over subsets U of the monomial mono(|U|, stat(U)), read from the
    histogram {(|U|, stat): count} of a subset table or of
    :func:`~wsys.graphs.subset_counts` (the statistic is a corank or a
    distance).  The monomial is a tuple of (variable, exponent) pairs in
    the fixed variable order; factors with exponent 0 are dropped, and
    None leaves U out.  The result is adopted without validation, which
    holds because every count of a histogram is a positive int.
    """
    terms: dict[Monomial, int] = {}
    nonzero = itemgetter(1)
    for (size, stat), count in counts.items():
        key = mono(size, stat)
        if key is not None:
            key = tuple(filter(nonzero, key))
            terms[key] = terms.get(key, 0) + count
    return Poly._raw(terms)


def skew_char(g: Graph) -> Poly:
    """Q(u) = sum over mod-2 nondegenerate vertex subsets of u^(n - |U|)."""
    return subset_poly(g.corank_counts, lambda s, c: None if c else (("u", g.n - s),))


def refined_skew_char_graph(g: Graph) -> Poly:
    """Qbar(u, w) = sum over all vertex subsets of u^(n-|U|) w^(corank A_U)."""
    return subset_poly(g.corank_counts, lambda s, c: (("u", g.n - s), ("w", c)))


def refined_skew_char_dmat(d: DMat) -> Poly:
    """Qbar(u, w) with the distance to the admissible family as exponent."""
    return subset_poly(d.distance_counts, lambda s, c: (("u", d.ground - s), ("w", c)))


def interlace_dmat(d: DMat) -> Poly:
    """L(x) = sum over all subsets of x^(distance)."""
    return subset_poly(d.distance_counts, lambda s, c: (("x", c),))


def two_var_interlace(d: DMat) -> Poly:
    """Lbar(x, y) = sum over all subsets of x^|U| y^(distance)."""
    return subset_poly(d.distance_counts, lambda s, c: (("x", s), ("y", c)))


# -- recursive interlace -------------------------------------------------------

# The recursion evaluates L at x = 2^_SLOT, one _SLOT-bit slot per
# coefficient.  By induction on n, L of an n-vertex graph has nonnegative
# coefficients summing to exactly 2^n: (x+1)^n does, and L(G - a) and
# L(G^{ab} - b) each sum to 2^(n-1).  Under the budget n <= MAX_GROUND every
# coefficient is at most 2^MAX_GROUND < 2^_SLOT, so no slot carries into
# the next, and adding two polynomials is one int addition.
_SLOT = MAX_GROUND + 1
_X_PLUS_ONE = (1 << _SLOT) + 1

RecursionKey = tuple[int, tuple[int, ...]]


class RecursionMemo(dict[RecursionKey, int]):
    """Packed L of every graph the vertex recursion has met, keyed by
    (n, rows): one int per graph.  An explicit cache, kept until clear()."""

    def stats(self) -> dict[str, int]:
        return {"entries": len(self)}


#: The memo of interlace_graph_recursive when the caller passes none.
RECURSION_MEMO = RecursionMemo()


def first_edge(g: Graph) -> tuple[int, int] | None:
    """The lexicographically first edge: the lowest vertex that has a
    neighbour, and its lowest neighbour."""
    for a, row in enumerate(g.rows, 1):
        above = row >> a  # neighbors above a
        if above:
            return a, a + (above & -above).bit_length()
    return None


def _interlace_packed(
    n: int,
    rows: tuple[int, ...],
    memo: MutableMapping[RecursionKey, int],
    edge_policy: Callable[[Graph], tuple[int, int] | None] | None,
) -> int:
    """Packed L of the graph with these rows, by the vertex recursion.
    With edge_policy None the edge is first_edge's, read off the rows."""
    key = (n, rows)
    value = memo.get(key)
    if value is not None:
        return value
    a = b = -1  # no edge
    if edge_policy is None:
        for i, row in enumerate(rows):
            if row:  # the lowest vertex with a neighbour; all lie above it
                a, b = i, (row & -row).bit_length() - 1
                break
    else:
        edge = edge_policy(Graph._raw(n, rows))
        if edge is not None:
            a, b = edge
            if not (0 < a <= n and 0 < b <= n and rows[a - 1] >> (b - 1) & 1):
                raise DomainError(f"pivot requires edge {a}-{b}")
            a, b = a - 1, b - 1
    if a < 0:
        value = _X_PLUS_ONE**n
    else:
        pivoted = list(rows)
        _pivot_rows(pivoted, a, b)
        value = _interlace_packed(n - 1, _delete_row(rows, a), memo, edge_policy)
        value += _interlace_packed(n - 1, _delete_row(pivoted, b), memo, edge_policy)
    memo[key] = value
    return value


def interlace_graph_recursive(
    g: Graph,
    memo: MutableMapping[RecursionKey, int] | None = None,
    edge_policy: Callable[[Graph], tuple[int, int] | None] = first_edge,
) -> Poly:
    """L(x) by the vertex recursion L(G) = L(G - a) + L(G^{ab} - b), with
    (x+1)^n on edgeless graphs.  The result does not depend on which edge
    the policy picks; the default, :func:`first_edge`, is applied to the
    rows without building a Graph per node.  The memo (by default
    :data:`RECURSION_MEMO`) holds packed values (L at x = 2^(MAX_GROUND + 1))."""
    if g.n > MAX_GROUND:
        raise DomainError(f"{g.n} elements exceed the subset budget of {MAX_GROUND}")
    memo = RECURSION_MEMO if memo is None else memo
    rule = None if edge_policy is first_edge else edge_policy
    value = _interlace_packed(g.n, g.rows, memo, rule)
    mask = (1 << _SLOT) - 1
    coeffs = [value >> _SLOT * k & mask for k in range(g.n + 1)]
    if value >> _SLOT * (g.n + 1) or sum(coeffs) != 1 << g.n:
        raise InternalError(f"interlace coefficients of {graph_format(g)} do not sum to 2^{g.n}")
    return Poly._raw({(("x", k),) if k else (): c for k, c in enumerate(coeffs) if c})


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
