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
there, one fold per subset, and the result converts to :class:`Poly`
once.

Given one of the engine's own specializations (``feps``,
``spec_standard``; :func:`wsys.glws.specialization_binding` tells them
by function object), :func:`primitive_eval_diagram` skips the Poly
values altogether: each chord subdiagram is a state cut from the
diagram's state by one ``str.translate`` (the table of its point mask
deletes the other points and renumbers the kept ones; one table per mask
over DEFAULT_CAP points, in the cache ``_CAP_TABLES``), its value is
read straight from the specialization's memo
(:func:`wsys.glws.packed_state_value`) as one int of the DEFAULT_CAP
width class (a diagram past DEFAULT_CAP is refused before any value is
read), and the convolutions multiply and add those ints.  The result
decodes once, with a proven bound on its coefficients
(:func:`wsys.glws.projection_bound`) and a check on its digits.  Any
other callable, a wrapper of those included, takes the generic route
through :func:`primitive_eval`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence, TypeVar

from .algebra import EXP_BITS, Packed, PackedRing, Poly, var_key
from .caches import Cache
from .errors import DomainError, InternalError
from .glws import (
    DEFAULT_CAP,
    Ring,
    Value,
    _Binding,
    _state,
    feps,
    packed_state_value,
    PROJECTION_BOUNDS,
    spec_standard,
    specialization_binding,
)
from .graphs import Graph, induced_subgraph, subset_masks, subsets
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


def _point_table(points: int) -> dict[int, str | None]:
    """The translate table of a point mask over 1..DEFAULT_CAP: each point
    in the mask (bit x for point x) to the code point of its rank among
    them, every other point deleted."""
    kept = [x for x in range(1, DEFAULT_CAP + 1) if points >> x & 1]
    return dict.fromkeys(range(1, DEFAULT_CAP + 1)) | {x: chr(rank) for rank, x in enumerate(kept, 1)}


#: The translate table of each point mask over 1..DEFAULT_CAP, built once:
#: at most 2^DEFAULT_CAP tables.
_CAP_TABLES = Cache(_point_table)


def _subdiagram_values(b: Perm, binding: _Binding) -> list[Value]:
    """The value under an engine specialization's binding of every chord
    subdiagram of b, by mask as in :func:`_restricted_values`, each read
    straight from the binding's memo.  A subdiagram's state is one
    translate of b's state: a chord diagram maps the chosen points to
    chosen points, so deleting the values outside them deletes their
    positions too, and the kept values are renumbered by rank.  The point
    mask of a chord mask adds the points of its lowest chord to those of
    the rest.  A diagram past the subset budget, then one past DEFAULT_CAP
    points, is refused before any subdiagram is read, naming the first
    subdiagram past the cap as the engine would."""
    state, ground = _state(b.img), chords(b)
    masks = subset_masks(len(ground))
    if b.m > DEFAULT_CAP:
        raise DomainError(f"permutation has {2 * (DEFAULT_CAP // 2 + 1)} points, exceeding the cap {DEFAULT_CAP}")
    bits = [1 << x | 1 << y for x, y in ground]
    points, values = [0], [binding.ring.one]
    for mask in masks[1:]:
        low = mask & -mask
        points.append(points[mask ^ low] | bits[low.bit_length() - 1])
        values.append(packed_state_value(state.translate(_CAP_TABLES[points[mask]]), DEFAULT_CAP, binding))
    return values


def _pointed_terms(p: list[Value], g: list[Value], s: int, sign: int, mul) -> Iterator[tuple[int, int, Value]]:
    """Fold terms sign * p(T) * g(S - T) over the T strictly inside S holding min S."""
    low = s & -s
    rest = s ^ low
    r = rest
    while r:
        r = (r - 1) & rest
        t = low | r
        if p[t]:
            yield sign, 0, mul(p[t], g[s ^ t])


def _connected_parts(values: list[Value], ring: Ring) -> list[Value]:
    """The primitive projection p of every subset, by the log recursion."""
    p: list[Value] = [ring.zero]
    fold, mul = ring.fold, ring.mul
    for s in range(1, len(values)):
        p.append(fold(values[s], _pointed_terms(p, values, s, -1, mul)))
    return p


def _engine_projection(b: Perm, binding: _Binding) -> Poly:
    """(f o pi)(b) for an engine specialization f: its values are ints of
    the DEFAULT_CAP class, so the convolutions are int products and sums.
    Every value has each degree at most b.m and the projection too, and
    its coefficients are bounded by projection_bound; a bound past the
    slots is refused.  The decode checks that bound, and that the digits
    sum to p(S) at all variables 1: f there is l1(m) (feps sums to 2^m,
    the standard value is one monomial), a multiplicative function, whose
    projection is 0 on two chords or more."""
    values = _subdiagram_values(b, binding)
    s = len(values).bit_length() - 1
    ring, bound = binding.ring, PROJECTION_BOUNDS[binding.l1, s]
    if bound >> ring.width - 1:
        raise DomainError(f"projection over {s} chords may reach {bound}, past the {ring.width}-bit slots")
    digits = ring.digits(_connected_parts(values, ring)[-1], ring.slots(b.m), signed=True)
    if sum(map(abs, digits)) > bound or sum(digits) != (binding.l1(2) if s == 1 else 0):
        raise InternalError(f"projection of {b.img} over {s} chords breaks its bound {bound}")
    return ring.from_digits(digits)


def primitive_eval(
    f: Callable[[T], Poly],
    obj: T,
    ground: Sequence[E],
    restrict: Callable[[T, list[E]], T],
) -> Poly:
    """(f o pi)(obj) by the connected-part recursion; 0 on an empty ground set."""
    ring, values = _restricted_values(f, obj, ground, restrict)
    return ring.poly(_connected_parts(values, ring)[-1])


def reconstruct_from_primitives(
    f: Callable[[T], Poly],
    obj: T,
    ground: Sequence[E],
    restrict: Callable[[T, list[E]], T],
) -> Poly:
    """The exponential of the projection: rebuilds f(obj) from the values
    of f o pi on the subsets of the ground set (1 on an empty ground set)."""
    ring, values = _restricted_values(f, obj, ground, restrict)
    p = _connected_parts(values, ring)
    g: list[Packed] = [ring.one]
    for s in range(1, len(p)):
        g.append(ring.fold(p[s], _pointed_terms(p, g, s, 1, ring.mul)))
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
    specializations the restricted values are read as ints from its memo
    and the result is decoded once; any other f is called on each
    subdiagram (:func:`primitive_eval`)."""
    spec = specialization_binding(f)
    if spec is None:
        return primitive_eval(f, b, chords(b), chord_subdiagram)
    return _engine_projection(b, spec.binding(DEFAULT_CAP))


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
