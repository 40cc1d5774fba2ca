"""Projection onto primitives as the logarithm of the identity.

Set functions on the subsets of a ground set form a commutative algebra
under subset convolution, (a * b)(S) = sum over T inside S of a(T) b(S - T).
An invariant f with f(empty) taken as 1 is the exponential of its
primitive projection p = f o pi, and splitting off the block that holds
the smallest element of S gives the connected-part recursion

    p(S) = f(S) - sum_{min S in T strictly inside S} p(T) * f(S - T)

with its inverse, the exponential,

    f(S) = sum_{min S in T inside S} p(T) * f(S - T),    f(empty) = 1.

Both run on bitmasks with fewer than 3^n products for n ground elements.
They are identities of the algebra, so they hold for every f,
multiplicative or not.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from .algebra import Poly
from .errors import DomainError, InternalError
from .glws import feps, spec_standard
from .graphs import Graph, induced_subgraph
from .perm import Perm, chords, subperm

T = TypeVar("T")


def _restricted_values(
    f: Callable[[T], Poly],
    obj: T,
    ground: Sequence[int],
    restrict: Callable[[T, Sequence[int]], T],
) -> list[Poly]:
    """f(obj restricted to U) for every subset mask U of the ground
    sequence; the empty subset is taken as 1 and f is not called on it."""
    items = list(ground)
    values = [Poly.one()]
    for mask in range(1, 1 << len(items)):
        values.append(f(restrict(obj, [x for i, x in enumerate(items) if mask >> i & 1])))
    return values


def _pointed_sum(p: list[Poly], g: list[Poly], s: int) -> Poly:
    """Sum of p(T) * g(S - T) over the T strictly inside S that hold min S."""
    low = s & -s
    rest = s ^ low
    total = Poly.zero()
    r = rest
    while r:
        r = (r - 1) & rest
        t = low | r
        if p[t]:
            total = total + p[t] * g[s ^ t]
    return total


def _connected_parts(values: list[Poly]) -> list[Poly]:
    """The primitive projection p of every subset, by the log recursion."""
    p = [Poly.zero()]
    for s in range(1, len(values)):
        p.append(values[s] - _pointed_sum(p, values, s))
    return p


def primitive_eval(
    f: Callable[[T], Poly],
    obj: T,
    ground: Sequence[int],
    restrict: Callable[[T, Sequence[int]], T],
) -> Poly:
    """(f o pi)(obj) by the connected-part recursion; 0 on an empty ground set."""
    return _connected_parts(_restricted_values(f, obj, ground, restrict))[-1]


def reconstruct_from_primitives(
    f: Callable[[T], Poly],
    obj: T,
    ground: Sequence[int],
    restrict: Callable[[T, Sequence[int]], T],
) -> Poly:
    """The exponential of the projection: rebuilds f(obj) from the values
    of f o pi on the subsets of the ground set (1 on an empty ground set)."""
    p = _connected_parts(_restricted_values(f, obj, ground, restrict))
    g = [Poly.one()]
    for s in range(1, len(p)):
        g.append(p[s] + _pointed_sum(p, g, s))
    return g[-1]


# -- concrete ground sets -----------------------------------------------------


def restrict_graph(g: Graph, vertices: Sequence[int]) -> Graph:
    return induced_subgraph(g, vertices)


def restrict_diagram(b: Perm, chord_indices: Sequence[int]) -> Perm:
    """Subdiagram on the chords with the given (1-based) indices."""
    ch = chords(b)
    points = [pt for i in chord_indices for pt in ch[i - 1]]
    return subperm(b, points)


def primitive_eval_graph(f: Callable[[Graph], Poly], g: Graph) -> Poly:
    return primitive_eval(f, g, range(1, g.n + 1), restrict_graph)


def primitive_eval_diagram(f: Callable[[Perm], Poly], b: Perm) -> Poly:
    n = len(chords(b))
    return primitive_eval(f, b, range(1, n + 1), restrict_diagram)


def eps_independence_check(b: Perm) -> tuple[bool, Poly]:
    """Project the two-parameter family of a diagram onto primitives.

    Returns (eps_free, value).  The value is also recomputed with the
    one-parameter standard specialization N^(f-1) in place of the family;
    the two projections must agree, which is what makes eps-freeness
    possible in the first place.
    """
    n = len(chords(b))
    if n < 2:
        raise DomainError("eps-independence needs at least two chords")
    value = primitive_eval_diagram(feps, b)
    eps_free = "eps" not in value.variables()
    if value != primitive_eval_diagram(spec_standard, b):
        raise InternalError(
            f"projected family and projected standard specialization disagree on {b.img}"
        )
    return eps_free, value
