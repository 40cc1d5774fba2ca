"""Projection onto primitives as the logarithm of the identity.

Set functions on the subsets of a ground set form a commutative algebra
under subset convolution, (a * b)(S) = sum over T inside S of a(T) b(S - T).
An invariant f with f(empty) taken as 1 is the exponential of its
primitive projection p = f o pi, and splitting off the block that holds
the smallest element of S gives the connected-part recursion

    p(S) = f(S) - sum_{min S in T strictly inside S} p(T) * f(S - T)

with its inverse, the exponential,

    f(S) = sum_{min S in T inside S} p(T) * f(S - T),    f(empty) = 1.

Both run on bitmasks with fewer than 3^n products for n ground elements
(:func:`wsys.algebra.connected_parts` and
:func:`wsys.algebra.pointed_terms`).  They are identities of the
algebra, so they hold for every f, multiplicative or not.  The values are
packed once into the :class:`wsys.algebra.PackedRing` of their
variables, the convolutions run there, one fold per subset, and the
result converts to :class:`Poly` once.

:func:`primitive_eval_diagram` of ``feps`` or ``spec_standard`` itself
runs on the engine's ints instead (:func:`wsys.glws.engine_projection`);
any other callable, a wrapper of those included, takes the generic route.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from .algebra import EXP_BITS, Packed, PackedRing, Poly, connected_parts, pointed_terms, var_key
from .errors import DomainError, InternalError
from .glws import engine_projection, feps, spec_standard
from .graphs import Graph, induced_subgraph, subset_masks, subsets
from .perm import Perm, chord_subdiagram, chords

T = TypeVar("T")
E = TypeVar("E")

#: Largest ground set of the subset logarithm of _restricted_values, whose
#: about 3^n / 2 products took 0.8 s at 12 elements, 3.0 s at 13, 9.2 s at
#: 14 and 26.7 s at 15 (interlace values of density-0.5 graphs, 2 cores,
#: CPython 3.11).
MAX_LOG_GROUND = 13


def _restricted_values(
    f: Callable[[T], Poly],
    obj: T,
    ground: Sequence[E],
    restrict: Callable[[T, list[E]], T],
) -> tuple[PackedRing, list[Packed]]:
    """f(obj restricted to U) for every subset mask U of the ground
    sequence, packed into the ring of their variables; the empty subset is
    taken as 1 and f is not called on it, nor at all past MAX_GROUND
    elements (refused first) or past MAX_LOG_GROUND.

    By induction on |S|, a monomial of p(S), of g(S) or of a product in
    their recursions has each exponent at most |S| times the largest
    exponent e among the values, so n * e < 2^EXP_BITS keeps every slot in
    range (the last variable's is not bounded)."""
    subset_masks(len(ground))  # refuses past MAX_GROUND first
    if len(ground) > MAX_LOG_GROUND:
        raise DomainError(f"{len(ground)} elements exceed the subset-logarithm budget of {MAX_LOG_GROUND}")
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


def primitive_eval(
    f: Callable[[T], Poly],
    obj: T,
    ground: Sequence[E],
    restrict: Callable[[T, list[E]], T],
) -> Poly:
    """(f o pi)(obj) by the connected-part recursion; 0 on an empty ground set."""
    ring, values = _restricted_values(f, obj, ground, restrict)
    return ring.poly(connected_parts(values, ring)[-1])


def reconstruct_from_primitives(
    f: Callable[[T], Poly],
    obj: T,
    ground: Sequence[E],
    restrict: Callable[[T, list[E]], T],
) -> Poly:
    """The exponential of the projection: rebuilds f(obj) from the values
    of f o pi on the subsets of the ground set (1 on an empty ground set)."""
    ring, values = _restricted_values(f, obj, ground, restrict)
    p = connected_parts(values, ring)
    g: list[Packed] = [ring.one]
    for s in range(1, len(p)):
        g.append(ring.fold(p[s], pointed_terms(p, g, s, 1, ring.mul)))
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
    """(f o pi)(b) over the chords of b: on the engine's ints for feps and
    spec_standard themselves (:func:`wsys.glws.engine_projection`), else
    by calling f on each subdiagram (:func:`primitive_eval`)."""
    value = engine_projection(f, b)
    return primitive_eval(f, b, chords(b), chord_subdiagram) if value is None else value


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
