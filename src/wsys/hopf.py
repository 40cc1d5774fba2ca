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
multiplicative or not.  The values are packed once into the
:class:`wsys.algebra.PackedRing` of their variables, the convolutions run
there, one :func:`~wsys.algebra.packed_fold` per subset, and the result
converts to :class:`Poly` once.

Given one of the engine's own specializations (``feps``,
``spec_standard``; :func:`wsys.glws.specialization_binding` tells them
by function object), :func:`primitive_eval_diagram` skips the Poly
values altogether: each chord subdiagram is a state cut from the
diagram's one-line image, its packed value is read straight from the
specialization's memo (:func:`wsys.glws.packed_state_value`), and the
convolutions run in that binding's ring.  Any other callable, a wrapper
of those included, takes the generic route through :func:`primitive_eval`.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator, Sequence, TypeVar

from .algebra import EXP_BITS, Packed, PackedRing, Poly, packed_fold, packed_mul, var_key
from .errors import DomainError, InternalError
from .glws import DEFAULT_CAP, feps, packed_state_value, spec_standard, specialization_binding
from .graphs import Graph, induced_subgraph, subsets
from .perm import Perm, chord_subdiagram, chords

T = TypeVar("T")
E = TypeVar("E")


def _restricted_values(
    f: Callable[[T], Poly],
    obj: T,
    ground: Sequence[E],
    restrict: Callable[[T, list[E]], T],
) -> tuple[PackedRing, list[Packed]]:
    """f(obj restricted to U) for every subset mask U of the ground
    sequence, packed into the ring of their variables; the empty subset is
    taken as 1 and f is not called on it (nor at all past MAX_GROUND).

    By induction on |S|, a monomial of p(S), of g(S) or of a product in
    their recursions has each exponent at most |S| times the largest
    exponent e among the values, so n * e < 2^EXP_BITS keeps every slot in
    range (the last variable's is not bounded)."""
    values = [f(restrict(obj, members)) if mask else Poly.one() for mask, members in subsets(ground)]
    names = sorted({var for v in values for var in v.variables()}, key=var_key)
    top = max((e for v in values for mono in v.terms for var, e in mono if var != names[-1]), default=0)
    _check_slots(top, len(ground))
    ring = PackedRing(tuple(names))
    return ring, [ring.pack(v) for v in values]


def _check_slots(top: int, n: int) -> None:
    """Refuse values whose largest bounded exponent top could overflow a
    slot in the convolutions over n ground elements."""
    if n * top >> EXP_BITS:
        raise DomainError(f"exponent {top} on {n} ground elements exceeds the packed slots")


def _subdiagram_values(b: Perm, binding) -> list[Packed]:
    """The packed value under an engine specialization's binding of every
    chord subdiagram of b, by mask as in :func:`_restricted_values`, each
    read straight from the binding's memo.  A subdiagram is its state cut
    from b's one-line image: the chosen chords' points in order, each value
    renumbered to its rank among them (a chord diagram maps chosen points
    to chosen points)."""
    img, ground = b.img, chords(b)
    values: list[Packed] = []
    for mask, members in subsets(ground):
        if not mask:
            values.append({0: 1})
            continue
        points = sorted(chain.from_iterable(members))
        rank = {x: chr(i) for i, x in enumerate(points, 1)}  # point -> code point of its new number
        values.append(packed_state_value("".join([rank[img[x - 1]] for x in points]), DEFAULT_CAP, binding))
    # an engine value on m points has every exponent at most m; the last
    # variable of a ring has no bound to keep
    _check_slots(b.m if len(binding.ring.names) > 1 else 0, len(ground))
    return values


def _pointed_terms(p: list[Packed], g: list[Packed], s: int, sign: int) -> Iterator[tuple[int, int, Packed]]:
    """Fold terms sign * p(T) * g(S - T) over the T strictly inside S holding min S."""
    low = s & -s
    rest = s ^ low
    r = rest
    while r:
        r = (r - 1) & rest
        t = low | r
        if p[t]:
            yield sign, 0, packed_mul(p[t], g[s ^ t])


def _connected_parts(values: list[Packed]) -> list[Packed]:
    """The primitive projection p of every subset, by the log recursion."""
    p: list[Packed] = [{}]
    for s in range(1, len(values)):
        p.append(packed_fold(values[s], _pointed_terms(p, values, s, -1)))
    return p


def primitive_eval(
    f: Callable[[T], Poly],
    obj: T,
    ground: Sequence[E],
    restrict: Callable[[T, list[E]], T],
) -> Poly:
    """(f o pi)(obj) by the connected-part recursion; 0 on an empty ground set."""
    ring, values = _restricted_values(f, obj, ground, restrict)
    return ring.poly(_connected_parts(values)[-1])


def reconstruct_from_primitives(
    f: Callable[[T], Poly],
    obj: T,
    ground: Sequence[E],
    restrict: Callable[[T, list[E]], T],
) -> Poly:
    """The exponential of the projection: rebuilds f(obj) from the values
    of f o pi on the subsets of the ground set (1 on an empty ground set)."""
    ring, values = _restricted_values(f, obj, ground, restrict)
    p = _connected_parts(values)
    g: list[Packed] = [{0: 1}]
    for s in range(1, len(p)):
        g.append(packed_fold(p[s], _pointed_terms(p, g, s, 1)))
    return ring.poly(g[-1])


# -- concrete ground sets -----------------------------------------------------


def restrict_graph(g: Graph, vertices: Sequence[int]) -> Graph:
    return induced_subgraph(g, vertices)


def restrict_diagram(b: Perm, chord_indices: Sequence[int]) -> Perm:
    """Subdiagram on the chords with the given (1-based) indices."""
    ch = chords(b)
    for i in chord_indices:
        if not 1 <= i <= len(ch):
            raise DomainError(f"chord {i} out of range 1..{len(ch)}")
    return chord_subdiagram(b, [ch[i - 1] for i in chord_indices])


def primitive_eval_graph(f: Callable[[Graph], Poly], g: Graph) -> Poly:
    return primitive_eval(f, g, range(1, g.n + 1), restrict_graph)


def primitive_eval_diagram(f: Callable[[Perm], Poly], b: Perm) -> Poly:
    """(f o pi)(b) over the chords of b.  For one of the engine's own
    specializations the restricted values are read packed from its memo
    and the result is decoded once; any other f is called on each
    subdiagram (:func:`primitive_eval`)."""
    binding = specialization_binding(f)
    if binding is None:
        return primitive_eval(f, b, chords(b), chord_subdiagram)
    return binding.ring.poly(_connected_parts(_subdiagram_values(b, binding))[-1])


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
