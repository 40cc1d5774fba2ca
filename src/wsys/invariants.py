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
A sum is :func:`~wsys.algebra.subset_poly` of that histogram, as are
``glws.feps_direct`` and ``glws.feps_in_v``: it adds each monomial's
count into a plain dict and adopts it with ``Poly._raw``, since a
monomial is a concatenation of cached parts
(:data:`~wsys.algebra.MONOMIAL_PARTS`, () at exponent 0) in the fixed
variable order and histogram counts are positive ints.
The vertex recursion of the interlace polynomial holds L as one int of a
:class:`~wsys.algebra.KroneckerRing` (L at x = 2^24) and decodes it to a
Poly once per call, by the ring's checked digits and the parts of x.
It keeps each graph as one flat int, row r at bit 20r (a stride of MAX_GROUND),
and deleting a vertex or pivoting is a fixed number of int operations.
By default the edge is the lowest set bit; a policy the caller passes
only chooses the edge: it gets a Graph per node and has its edge
checked.  Packed values are keyed by (n, flat) in the
:class:`~wsys.caches.Cache` :data:`RECURSION_MEMO`.
"""

from __future__ import annotations

from typing import Callable, Mapping, MutableMapping

from .algebra import MONOMIAL_PARTS, KroneckerRing, Poly, subset_poly
from .caches import Cache
from .dmat import DMat, mask_to_set
from .errors import DomainError, InternalError
from .graphs import (
    MAX_GROUND,
    Graph,
    four_term_images,
    graph_format,
    induced_corank,
    induced_subgraph,
    subsets,
)

GraphInvariant = Callable[[Graph], Poly]


_U, _W, _X, _Y = map(MONOMIAL_PARTS.__getitem__, "uwxy")


def skew_char(g: Graph) -> Poly:
    """Q(u) = sum over mod-2 nondegenerate vertex subsets of u^(n - |U|)."""
    n = g.n
    return subset_poly(g.corank_counts, lambda s, c: None if c else _U[n - s])


def refined_skew_char_graph(g: Graph) -> Poly:
    """Qbar(u, w) = sum over all vertex subsets of u^(n-|U|) w^(corank A_U)."""
    n = g.n
    return subset_poly(g.corank_counts, lambda s, c: _U[n - s] + _W[c])


def refined_skew_char_dmat(d: DMat) -> Poly:
    """Qbar(u, w) with the distance to the admissible family as exponent."""
    n = d.ground
    return subset_poly(d.distance_counts, lambda s, c: _U[n - s] + _W[c])


def interlace_dmat(d: DMat) -> Poly:
    """L(x) = sum over all subsets of x^(distance)."""
    return subset_poly(d.distance_counts, lambda s, c: _X[c])


def two_var_interlace(d: DMat) -> Poly:
    """Lbar(x, y) = sum over all subsets of x^|U| y^(distance)."""
    return subset_poly(d.distance_counts, lambda s, c: _X[s] + _Y[c])


# -- recursive interlace -------------------------------------------------------

# The recursion holds L as one int of _L_RING, L at x = 2^24, one 24-bit
# slot per coefficient.  By induction on n, L of an n-vertex graph has
# nonnegative coefficients summing to exactly 2^n: (x+1)^n does, and
# L(G - a) and L(G^{ab} - b) each sum to 2^(n-1).  Under the budget
# n <= MAX_GROUND every coefficient is at most 2^MAX_GROUND < 2^24, so no
# slot carries into the next, and adding two polynomials is one int
# addition.
_L_RING = KroneckerRing(("x",), 24, 1)
_X_PLUS_ONE = _L_RING.pack(Poly.var("x") + Poly.one())

# The recursion keeps a graph as one flat int: row r (the neighbours of
# vertex r + 1) sits at bits _STRIDE*r ... _STRIDE*r + _STRIDE - 1.
# Every row fits its field, since n <= MAX_GROUND, so a node of the
# recursion is a fixed number of int operations on the whole graph.
_STRIDE = MAX_GROUND
_ROW = (1 << _STRIDE) - 1


def _spread_table(first: int) -> list[int]:
    """Entry k puts bit j of the 10-bit k at bit _STRIDE*(first + j),
    built by doubling."""
    table = [0]
    for r in range(first, first + 10):
        bit = 1 << _STRIDE * r
        table += [v | bit for v in table]
    return table


# spread(cls), bit r of a vertex set at bit _STRIDE*r, is one lookup per
# 10-bit half; spread(cls) * p repeats p < 2^_STRIDE in every row of cls,
# and the product carries nowhere
_SPREAD_LOW, _SPREAD_HIGH = _spread_table(0), _spread_table(10)
_EVERY_ROW = _SPREAD_LOW[-1] | _SPREAD_HIGH[-1]
# deleting column i: the bits below i stay, the bits above i move down one
# (field bit _STRIDE - 1 stays clear of the next row's bit 0 shifted in)
_COLS_BELOW = tuple(((1 << i) - 1) * _EVERY_ROW for i in range(MAX_GROUND))
_COLS_ABOVE = tuple((_ROW >> 1 & -1 << i) * _EVERY_ROW for i in range(MAX_GROUND))
# cutting row i: the rows below i stay, the rows above i move down one field
_ROWS_BELOW = tuple((1 << _STRIDE * i) - 1 for i in range(MAX_GROUND))
_ROWS_ABOVE = tuple(-1 << _STRIDE * i for i in range(MAX_GROUND))

#: The memo of interlace_graph_recursive when the caller passes none:
#: packed L of every graph the vertex recursion has met, keyed by (n,
#: flat), where flat holds row r of the adjacency rows at bit
#: MAX_GROUND * r, one int per graph.
RECURSION_MEMO = Cache()


def first_edge(g: Graph) -> tuple[int, int] | None:
    """The lexicographically first edge: the lowest vertex that has a
    neighbour, and its lowest neighbour."""
    for a, row in enumerate(g.rows, 1):
        above = row >> a  # neighbors above a
        if above:
            return a, a + (above & -above).bit_length()
    return None


def _flat(rows: tuple[int, ...]) -> int:
    """The rows as one flat int, row r at bit _STRIDE*r."""
    flat = 0
    for r, row in enumerate(rows):
        flat |= row << _STRIDE * r
    return flat


def _delete_flat(flat: int, i: int) -> int:
    """The flat graph without vertex i + 1: column i dropped from every
    row, then row i cut out."""
    flat = flat & _COLS_BELOW[i] | flat >> 1 & _COLS_ABOVE[i]
    return flat & _ROWS_BELOW[i] | flat >> _STRIDE & _ROWS_ABOVE[i]


def _interlace_flat(
    n: int,
    flat: int,
    memo: MutableMapping[tuple[int, int], int],
    edge_policy: Callable[[Graph], tuple[int, int] | None] | None,
) -> int:
    """Packed L of the flat graph by the vertex recursion.  Without a
    policy the edge is first_edge's: the lowest set bit lies in the lowest
    row with a neighbour, at that vertex's lowest neighbour.  A policy gets
    the Graph of every node, edgeless ones included, and its edge must be
    one of the graph's, or None on an edgeless graph only.  A refused
    edge raises before the node writes the memo."""
    key = (n, flat)
    value = memo.get(key)
    if value is not None:
        return value
    if edge_policy is None:
        edge = divmod((flat & -flat).bit_length() - 1, _STRIDE) if flat else None
    else:
        edge = edge_policy(Graph._raw(n, tuple([flat >> _STRIDE * r & _ROW for r in range(n)])))
        if edge is not None:
            a, b = edge
            if not (0 < a <= n and 0 < b <= n and flat >> _STRIDE * (a - 1) + b - 1 & 1):
                raise DomainError(f"pivot requires edge {a}-{b}")
            edge = a - 1, b - 1
        elif flat:  # None on a graph with edges would take it as edgeless
            raise DomainError("pivot requires an edge, and the policy gave none on a graph with edges")
    if edge is None:
        value = _X_PLUS_ONE**n
    else:
        a, b = edge
        near_a = (flat >> _STRIDE * a & _ROW) ^ 1 << b
        near_b = (flat >> _STRIDE * b & _ROW) ^ 1 << a
        both, union = near_a & near_b, near_a | near_b
        pivoted = flat
        for cls in (both, near_a ^ both, near_b ^ both):
            pivoted ^= (_SPREAD_LOW[cls & 1023] | _SPREAD_HIGH[cls >> 10]) * (union ^ cls)
        value = _interlace_flat(n - 1, _delete_flat(flat, a), memo, edge_policy)
        value += _interlace_flat(n - 1, _delete_flat(pivoted, b), memo, edge_policy)
    memo[key] = value
    return value


def interlace_graph_recursive(
    g: Graph,
    memo: MutableMapping[tuple[int, int], int] | None = None,
    edge_policy: Callable[[Graph], tuple[int, int] | None] = first_edge,
) -> Poly:
    """L(x) by the vertex recursion L(G) = L(G - a) + L(G^{ab} - b), with
    (x+1)^n on edgeless graphs, on one flat int per graph.  The result does
    not depend on which edge the policy picks; the default,
    :func:`first_edge`, is read off the flat graph without building a Graph
    per node.  Any other policy gets a Graph per node, edgeless ones
    included, and must return one of its edges, or None exactly when it
    has none (DomainError otherwise).  The memo (by
    default :data:`RECURSION_MEMO`) holds packed values (L at x = 2^24),
    keyed by (n, flat) whatever the policy."""
    if g.n > MAX_GROUND:
        raise DomainError(f"{g.n} elements exceed the subset budget of {MAX_GROUND}")
    memo = RECURSION_MEMO if memo is None else memo
    value = _interlace_flat(g.n, _flat(g.rows), memo, None if edge_policy is first_edge else edge_policy)
    digits = _L_RING.digits(value, g.n + 1, signed=False)
    if sum(digits) != 1 << g.n:
        raise InternalError(f"interlace coefficients of {graph_format(g)} do not sum to 2^{g.n}")
    return _L_RING.from_digits(digits)


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
