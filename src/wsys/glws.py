"""The universal gl-weight system on permutations and its specializations.

``wgl`` assigns to every permutation a polynomial in N and the Casimir
variables C1, C2, ...; it is 1 on the empty permutation, multiplicative
under concatenation, and takes the standard m-cycle to C_m.  Everything
else is forced by a recurrence that relates the value at a permutation to
the values at the conjugate by an adjacent transposition (same number of
points) and at two contractions (one point fewer).

The recurrence is implemented through an index-class calculus on the
positions l, l+1: each variant merges the two affected factors of the
permutation's edge word into one and identifies one pair of index classes.
When the identification is trivial (the two classes already coincide) an
index is freed, which contributes a factor of N; when the merged factor
closes on itself it becomes an ordinary fixed point of the contracted
permutation.  The degenerate configurations (fixed points at l or l+1,
the descending edge alpha(l+1) = l, the ascending edge alpha(l) = l+1)
are all instances of the same calculus and need no special casing.

Reduction strategy: first remove every fixed point, each a factor C1.
The index class of a fixed point j occurs only in its own factor E_{i_j
i_j}, and summing over that class gives the central element C1, so
wgl(alpha) = C1 * wgl(alpha without j) at any position j.  Then strip
leading standard-cycle blocks (each contributes a Casimir factor);
otherwise locate the first element of the cycle through 1 that is out of
place and bubble it one position left per step.  Each swap strictly
decreases the position of that element, each contraction decreases the
number of points, so the reduction terminates.  Strips and swaps run in
one loop; only contractions recurse.  A swap is a conjugation and a strip
drops a whole block, so neither creates a fixed point: only a contraction
can, and the fixed points are removed once per evaluator call (the input
and each contraction result), not once per swap.  The value is also
unchanged under conjugation by the long cycle (rotating the circle), so a
fixed-point-free image the memo misses is replaced by its least rotation
(:func:`_least_rotation`) before it is reduced: the m rotations of a state
share one reduction.  Swap and strip states inside the loop stay
unrotated, and contraction results are rotated by the recursive call.  All
intermediate states are memoized on the way out, and so is the input
image whenever it differs from the rotation that was reduced.

Every specialization is a ring homomorphism out of Q[N, C1, C2, ...], so
it commutes with the recurrence: one evaluator runs the recurrence in each
target ring, given a binding (the image of a stripped C_k, and the factor
of a contraction that frees no index class or one: 1 and N in wgl).  A
binding carries its ring, whose few operations (one, fold, mul) each
reduction binds to locals once, and the decode of a state's value to its
public form; the fixed-point and rotation rules hold in every ring for
the same reason.  Two forms of ring serve (:mod:`wsys.algebra`):

* ``feps`` (N and eps), the homogenized interlace numerator (z), the
  standard specialization and C_k -> N (both N) have integer
  coefficients in one or two variables and hold each value as one int,
  the polynomial at 2^W (:class:`~wsys.algebra.KroneckerRing`).  A sum
  is an int add, a unit monomial (N) a shift, and every other factor (a
  strip image, C1^f, the interlace contraction factors) one int
  multiply.
* ``wgl`` (N and a thousand Casimirs) and gl(1|1) keep the dict form
  (:class:`~wsys.algebra.PackedRing`, one int per monomial).  gl(1|1)
  runs in v = u/2, where the image k (u/2)^(k-1) of C_k is the integer
  polynomial k v^(k-1), and its decode turns the coefficient c of v^j
  into c/2^j of u^j, each rational built once (:data:`GL11_COEFFS`).  So
  no ring of the engine holds a ``Fraction``.

The slot width W is proven, not sampled.  Evaluation at 2^W is a ring
homomorphism Z[x] -> Z, so only a decoded value needs its coefficients
to fit, and each specialization states the bound of the values it
decodes (:class:`_Specialization`).  The bound grows with the point
count, so an int specialization has two width classes, DEFAULT_CAP
points and twice that, each with its own binding and its own memo in
:data:`ENGINE_MEMOS`; an input is evaluated in the smaller class that
holds its points, so an input with m <= DEFAULT_CAP never pays for the
wider slots.  An input on more points runs in one dict class of
MAX_POINTS points, where the sparse values it can reach are cheaper as
dicts than as ints sized by their slot grids.  Every decode of an int
checks an identity that a carry between slots breaks and raises
InternalError.  DEFAULT_CAP, the default ``cap`` of the public
functions, and MAX_POINTS are the two point budgets of :mod:`wsys.perm`,
so the CLI reads the cap without loading the engine; the subset sums
of ``feps_direct`` and ``feps_in_v`` are :func:`~wsys.algebra.subset_poly`'s,
so the engine loads no graph invariant.

A memo maps each state it has seen (rotation representatives, loop
states and inputs) to its value in the binding's ring; the public
functions decode the result once, and ``interlace_perm`` reads its
coefficient list straight into a :class:`RatFunc`; an int value is
decoded once per distinct value, not once per call (``public`` of
:class:`EngineMemos`).  Every ring cuts a
state into the same pieces, and only the values differ, so the public
functions share one more table, ``ENGINE_MEMOS.cuts``: state -> its
cut, made by whichever ring met the state first.  An input or a
contraction result maps to (fixed points, the fixed-point-free rest,
its least rotation or None until a ring needs it); a strip state to (k,
rest); a swap state to the :func:`_step` tuple, which lists both
contractions even where a zero factor skips one.  A later ring on the
same permutation only looks cuts up and folds values, and a state met
in the loop and later as a contraction result is reduced as it stands
(the values of a state and of its rotations are equal).  The cut table
holds no value, so it serves every binding and width class; each cut,
with its two checks, is made once, not once per ring.  A call with its
own ``memo`` neither reads nor writes the cut table or the public
values, so it cuts every state and decodes its value itself (cold timing
stays cold).  Every public
function enters the engine through :func:`packed_state_value` (cap
checks, memo read, and the binding's own consistency check: the standard
value is N^(f-1) and the C_k -> N value N^c).

A state is a one-line image stored as a ``str`` with one code point per
point (code point v is the value v), which covers all MAX_POINTS points;
its hash is computed once.  Each step is a few C-level string calls.
:func:`_step` cuts a state once into left, alpha(l), alpha(l+1), right:
each contraction joins left, one middle entry and right, then makes one
``str.replace`` and one ``str.translate`` (v -> v - (v > l)), and the
swap joins the pieces with the middle two exchanged and translates by
the transposition (l, l+1).  A strip slices a block off and translates
by -k.  Fixed points go from the highest down, each one slice and one
translate, and factor out as one power of C1.  A rotation slices and
translates by (y - 1 - x) mod m + 1; the rotations that start with 2 are
found by comparing the state with 2, 3, ..., m, 1 in C, and only a state
with none lists its displacements.  The translate tables are cut from
one alphabet string and kept per l, k or m, each in a
:class:`~wsys.caches.Cache`, as is every other growing table but
:data:`ENGINE_MEMOS`; monomial parts come from ``algebra.MONOMIAL_PARTS``.
The loop reads the memo for each contraction result before it calls the
evaluator, so a hit costs no call.  On the way out of the strip/swap
loop, a swap state's two contraction terms are folded into its
successor's value by the ring's fold (one dict copy, or int adds); a
contraction factor that is a unit monomial (N) enters as a shift, any
other factor multiplies, and a zero factor's branch is never evaluated.

The Hopf projection of ``feps`` and ``spec_standard`` themselves runs here
too (:func:`engine_projection`; the generic route is :mod:`wsys.hopf`'s):
each chord subdiagram is a state cut from the diagram's by one
``str.translate``, its value one int of the DEFAULT_CAP class read
through :func:`packed_state_value`, and the subset logarithm multiplies
and adds those ints before one checked decode.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import compress
from math import comb
from operator import eq
from typing import Any, Callable, MutableMapping, NamedTuple, Sequence

from .algebra import (
    MONOMIAL_PARTS,
    KroneckerRing,
    Packed,
    PackedRing,
    Poly,
    RatFunc,
    Ring,
    Value,
    casimir,
    connected_parts,
    kronecker_width,
    subset_poly,
)
from .caches import Cache
from .errors import DomainError, InternalError, shorten_int
from .graphs import subset_counts, subset_masks, subsets
from .perm import DEFAULT_CAP, MAX_POINTS, Perm, chords, cycle_count, face_count, intersection_graph, is_chord_diagram, subperm

# One linear combination of permutations, as (coefficient, permutation) pairs.
WglState = list[tuple[Poly, Perm]]

_N = Poly.var("N")
_N_PARTS, _EPS_PARTS = MONOMIAL_PARTS["N"], MONOMIAL_PARTS["eps"]


class _Binding(NamedTuple):
    """Where the recurrence's factors go in one target ring, in one width
    class."""

    name: str
    points: int  # the width class: the most points of a state the binding holds
    ring: Ring  # one, zero, mul and fold, bound to locals once per reduction
    strip: Cache  # k -> image of C_k
    fixed: Cache  # f -> image of C1^f, for f fixed points
    contract: tuple[tuple[int, Value | None] | None, ...]  # per freed class count, see _contract_rule
    decode: Callable[[Value, int], Any]  # what the public function returns for a value on m points, checked
    l1: Callable[[int], int] | None  # the proven L1 bound of a value on m points, for an int ring
    check: Callable[["_Binding", str, Value], None] | None  # raises InternalError on a wrong value of a state


def _contract_rule(ring: Ring, factor: Poly) -> tuple[int, Value | None] | None:
    """How a contraction factor enters the sum: None for a zero factor (the
    branch is never evaluated), (shift, None) for a unit monomial (a
    shift), else (0, factor in the ring) to multiply by."""
    if not factor:
        return None
    value = ring.pack(factor)
    shift = ring.unit_shift(value)
    return (0, value) if shift is None else (shift, None)


def projection_bound(l1: Callable[[int], int], chords: int) -> int:
    """A bound on the L1 norm, so on every coefficient, of the Hopf
    projection p(S) over a set S of s = chords chords, when the value of
    every chord diagram on m points has L1 norm at most l1(m).  The log
    recursion p(S) = f(S) - sum p(T) f(S - T), over the T strictly inside
    S that hold min S (C(s-1, t-1) of them at size t), and the L1 norm's
    being submultiplicative give r(s) = l1(2s) + sum_{t<s} C(s-1, t-1)
    r(t) l1(2(s-t)).  For feps (l1 = 2^m) at 5 chords this is 153 600."""
    r = [0]
    for s in range(1, chords + 1):
        r.append(l1(2 * s) + sum(comb(s - 1, t - 1) * r[t] * l1(2 * (s - t)) for t in range(1, s)))
    return r[chords]


#: projection_bound of each (l1, chords) the Hopf projection has asked for.
PROJECTION_BOUNDS = Cache(lambda key: projection_bound(*key))


# The width classes held as ints: DEFAULT_CAP points and twice that.  Past
# them an int value is sized by its slot grid (at 40 points, 64-bit slots
# by 41 per N degree for feps) while the values that inputs so large can
# reach are sparse: with int classes doubling up to 320 points, cold feps
# calls on 40 and 80 points (standard cycles, identities, chains of 3- and
# 4-point blocks) took 1.3 to 2.2 times as long as on the dict ring, and
# interlace calls on 40 to 320 points 0.65 to 1.7 times.  Every input past
# them runs in one dict class of MAX_POINTS points.
_INT_POINTS = 2 * DEFAULT_CAP


class _Specialization:
    """One specialization of wgl: ``names`` are the ring's variables,
    ``strip`` the image of C_k and ``contract`` the factors of a
    contraction that frees no index class and one.  :meth:`binding` gives
    the binding of the width class that holds a point count.

    Without ``l1`` the ring is the dict ring and there is one class of
    MAX_POINTS points.  With it the values have integer coefficients, and
    l1(m) bounds the L1 norm (so every coefficient) of the value of any
    state on m points; the ring's stride, points + 1, holds the eps degree
    of feps (at most m), and a one-variable ring does not read it.  Such a
    specialization has two int classes, DEFAULT_CAP and _INT_POINTS
    points, and a dict class of MAX_POINTS points past them.
    One of ``_PROJECTED`` is also read by the Hopf projection
    (:func:`engine_projection`), which evaluates under DEFAULT_CAP, so the
    width of its DEFAULT_CAP class covers the projection over
    DEFAULT_CAP // 2 chords (:func:`projection_bound`).  ``decode`` reads
    a value on m points to what the public function returns (and checks
    it): an int value when ``l1`` is given, else a dict value.  A dict
    class of an int specialization decodes as a Poly, or with ``ratfunc``
    as the RatFunc of its coefficient list over (1-z)^m."""

    def __init__(
        self,
        name: str,
        names: tuple[str, ...],
        strip: Callable[[int], Poly],
        contract: tuple[Poly, Poly],
        *,
        l1: Callable[[int], int] | None = None,
        decode: Callable[[Any, Any, int], Any] | None = None,
        ratfunc: bool = False,
        check: Callable[[_Binding, str, Value], None] | None = None,
    ) -> None:
        self.name, self.names, self.strip, self.contract = name, names, strip, contract
        self.l1, self.decode, self.ratfunc = l1, decode, ratfunc
        self.check = check
        self.classes = Cache(self._class)  # the binding of each width class

    def binding(self, m: int) -> _Binding:
        """The binding of the smallest width class that holds m points."""
        if self.l1 is None or m > _INT_POINTS:
            return self.classes[MAX_POINTS]
        return self.classes[DEFAULT_CAP if m <= DEFAULT_CAP else _INT_POINTS]

    def _class(self, points: int) -> _Binding:
        """The binding of a width class."""
        ring: Ring
        l1 = self.l1 if points <= _INT_POINTS else None
        if l1 is None:
            ring = PackedRing(self.names)
            if self.l1 is None and self.decode is not None:
                decode = partial(self.decode, ring)
            elif self.ratfunc:
                decode = lambda value, m: RatFunc.make(ring.poly(value), m)  # noqa: E731
            else:
                decode = lambda value, m: ring.poly(value)  # noqa: E731
        else:
            bound = l1(points)
            if points == DEFAULT_CAP and self in _PROJECTED.values():
                bound = max(bound, projection_bound(l1, DEFAULT_CAP // 2))
            ring = KroneckerRing(self.names, kronecker_width(bound), points + 1)
            decode = partial(self.decode, ring)
        strip = self.strip
        return _Binding(
            self.name,
            points,
            ring,
            Cache(lambda k: ring.pack(strip(k))),
            Cache(lambda f: ring.pack(strip(1) ** f)),
            tuple(_contract_rule(ring, f) for f in self.contract),
            decode,
            l1,
            self.check,
        )


# A state is a one-line image as a str, one code point per point: code
# point v stands for the value v.  _ALPHABET[v] is the character of v,
# and every translate table below is cut from it; the tables depend on l,
# v or m only, never on an input.
_ALPHABET = "".join(map(chr, range(MAX_POINTS + 2)))
_POINTS = _ALPHABET[1:]  # _POINTS[x - 1] is the value of position x in the identity
#: Translate table v -> v - (v > l), by l.
_LOWER_TABLES = Cache(lambda l: _ALPHABET[: l + 1] + _ALPHABET[l:])
#: Translate table exchanging the values l and l+1, by l.
_SWAP_TABLES = Cache(lambda l: _ALPHABET[:l] + _ALPHABET[l + 1] + _ALPHABET[l] + _ALPHABET[l + 2 :])
#: Translate table w -> w - v for w >= v, by v.
_STRIP_TABLES = Cache(lambda v: _ALPHABET[:v] + _ALPHABET)
#: 1..m twice, by m: its slice [m - 1 - x : 2m - x] is the translate
#: table y -> (y - 1 - x) mod m + 1 on 1..m.
_ROTATION_TABLES = Cache(lambda m: _POINTS[:m] * 2)
#: 2, 3, ..., m, 1 by m: the image of the long cycle on 1..m.
_SUCCESSORS = Cache(lambda m: _POINTS[1:m] + _POINTS[0])


def _state(img: tuple[int, ...]) -> str:
    return "".join(map(chr, img))


def _image(state: str) -> tuple[int, ...]:
    return tuple(map(ord, state))


def _scan(state: str) -> int:
    """Walk the cycle through 1 while it sits in standard ascending position.

    Returns -k when the cycle closes as the standard k-cycle on points
    1..k (a strip), else the image t that breaks the ascent (t is then >
    position+1, and must be bubbled left).
    """
    x = 1
    while state[x - 1] == _ALPHABET[x + 1]:
        x += 1
    y = ord(state[x - 1])
    return -x if y == 1 else y


def _step(state: str, l: int) -> tuple[str, bool, str, bool, str]:
    """One recurrence step at positions l, l+1: (swap, freed1, merged1,
    freed2, merged2), with value(state) = value(swap) + f(freed1) *
    value(merged1) - f(freed2) * value(merged2) for the contraction factor
    f (1 or N in wgl).

    The swap is the conjugate by the transposition (l, l+1): the slots l
    and l+1 exchanged, then the values l and l+1.  Variant 1 merges the
    two factors into (first = class of l, second = class of alpha(l+1))
    and identifies the classes of alpha(l) and l+1; variant 2 merges into
    (first = class of l+1, second = class of alpha(l)) and identifies the
    classes of alpha(l+1) and l.  freed is True exactly when the
    identification was trivial and an index class got freed (a factor of
    N).

    In closed form: the merged factor sits at position l and carries class
    l (variant 1) or l+1 (variant 2).  The other of the two, hi = l+1 or
    lo = l, carries no factor any more, so identifying it with alpha(l)
    (variant 1) or alpha(l+1) (variant 2) renames it, one ``str.replace``;
    when the two coincide the class is freed instead and occurs in no
    factor.  Every other class q is carried by the factor at position
    q - (q > l), which is the relabelling of each factor's second class,
    one ``str.translate``.
    """
    left, a, b, right = state[: l - 1], state[l - 1], state[l], state[l + 1 :]
    lo, hi = _ALPHABET[l], _ALPHABET[l + 1]
    seconds1, seconds2 = left + b + right, left + a + right
    freed1, freed2 = a == hi, b == lo
    if (freed1 and hi in seconds1) or (freed2 and lo in seconds2):
        raise InternalError("freed class may not occur in any factor")
    lower = _LOWER_TABLES[l]
    merged1 = seconds1.replace(hi, a).translate(lower)
    merged2 = seconds2.replace(lo, b).translate(lower)
    n = len(state) - 1  # the points of either contraction
    if len(set(merged1)) != n or len(set(merged2)) != n:
        raise InternalError("contracted image is not a permutation")
    swap = (left + b + a + right).translate(_SWAP_TABLES[l])
    return swap, freed1, merged1, freed2, merged2


def _drop_fixed(state: str) -> tuple[int, str]:
    """(f, state): the state with its f fixed points removed and the other
    points renumbered in order, by one translate."""
    if not any(map(eq, state, _POINTS)):
        return 0, state
    table: dict[int, int | None] = {}  # fixed point -> deleted, other value -> renumbered
    f = 0
    for x, y in enumerate(state, 1):
        if ord(y) == x:
            f += 1
            table[x] = None
        else:
            table[x] = x - f
    return f, state.translate(table)


def _least_rotation(state: str) -> str:
    """The least of the m rotations of a fixed-point-free state (conjugates
    by powers of the long cycle): the smallest first entry, ties broken
    lexicographically.  The k-th power maps position x to x + k and value y
    to y + k (mod m), so the rotation that starts at 0-based position x
    has first entry 1 + ((y - 1 - x) mod m) for y = its value at x.  That
    is never 1 (no fixed points), and it is 2 exactly where y is the
    successor of x + 1 on the circle, which one comparison with 2, 3, ...,
    m, 1 finds; only a state with no such y lists its displacements.  Only
    the rotations tied for the smallest are built, and the one that starts
    at 0 is the state itself."""
    m = len(state)
    starts = [*compress(range(m), map(eq, state, _SUCCESSORS[m]))]
    if not starts:
        firsts = [(y - x) % m for x, y in enumerate(map(ord, state), 1)]
        least = min(firsts)
        starts = [x for x, first in enumerate(firsts) if first == least]
    tables = _ROTATION_TABLES[m]
    if len(starts) > 1:
        return min((state[x:] + state[:x]).translate(tables[m - 1 - x : 2 * m - x]) if x else state for x in starts)
    (x,) = starts
    return (state[x:] + state[:x]).translate(tables[m - 1 - x : 2 * m - x]) if x else state


def _wgl_state(state: str, b: _Binding, memo: MutableMapping, cuts: dict[str, tuple] | None) -> Value:
    """The value in b's ring of a state the memo misses.  Fixed points are
    factored out as one power of C1 first, and what is left, if the memo
    misses it too, is replaced by its least rotation; then leading
    standard blocks are stripped and the out-of-place element bubbled left
    in one loop; only the contractions (one point fewer each) recurse.
    The cut (fixed points, rest, least rotation or None if not yet needed)
    is read from ``cuts`` when another ring made it, and written there."""
    cut = None if cuts is None else cuts.get(state)
    if cut is None:
        fixed, rest = _drop_fixed(state)
        rot = None
    elif len(cut) == 3:
        fixed, rest, rot = cut
    else:  # a loop state, so fixed-point free: reduced as it stands
        return _reduce(state, b, memo, cuts)
    if not fixed or (val := memo.get(rest)) is None:
        if rot is None:
            rot = _least_rotation(rest)
        val = _reduce(rot, b, memo, cuts)
    if fixed:
        val = b.ring.mul(b.fixed[fixed], val)
    if rot != state:  # else the loop has memoized the state and cut it
        memo[state] = val
        if cuts is not None and (cut is None or cut[2] != rot):
            cuts[state] = (fixed, rest, rot)
    return val


def _reduce(cur: str, b: _Binding, memo: MutableMapping, cuts: dict[str, tuple] | None) -> Value:
    """The value of a fixed-point-free state by strips, swaps and
    contractions, memoizing every state of the loop.  A loop state's cut,
    (k, rest) for a strip or the :func:`_step` tuple for a swap, is read
    from ``cuts`` when another ring made it, and written there.  On the
    way out each swap state's contraction terms are folded into the value
    of its successor in one fold."""
    pending: list[tuple[str, Value | None, Sequence]] = []  # (state, strip factor, contraction terms)
    # per freed: (shift, factor or None), or None for a zero factor
    contract, strip, mul, fold = b.contract, b.strip, b.ring.mul, b.ring.fold
    while (val := memo.get(cur)) is None:
        if cuts is None or (cut := cuts.get(cur)) is None or len(cut) == 3:
            v = _scan(cur)
            cut = (-v, cur[-v:].translate(_STRIP_TABLES[-v])) if v < 0 else _step(cur, v - 1)
            if cuts is not None:
                cuts[cur] = cut
        if len(cut) == 2:
            k, rest = cut
            pending.append((cur, strip[k], ()))
            cur = rest
            continue
        swap, freed1, merged1, freed2, merged2 = cut
        terms = []
        if (rule := contract[freed1]) is not None:  # a zero factor skips the branch
            if (term := memo.get(merged1)) is None:
                term = _wgl_state(merged1, b, memo, cuts)
            terms.append((1, rule[0], term if rule[1] is None else mul(rule[1], term)))
        if (rule := contract[freed2]) is not None:
            if (term := memo.get(merged2)) is None:
                term = _wgl_state(merged2, b, memo, cuts)
            terms.append((-1, rule[0], term if rule[1] is None else mul(rule[1], term)))
        pending.append((cur, None, terms))
        cur = swap
    for state, factor, terms in reversed(pending):
        val = fold(val, terms) if factor is None else mul(factor, val)
        memo[state] = val
    return val


def _public_value(key: tuple[str, int, int, int]) -> Any:
    """The public value of (binding name, width class, m, int value): the
    binding's checked decode."""
    name, points, m, value = key
    return _INT_SPECIALIZATIONS[name].classes[points].decode(value, m)


class EngineMemos(dict[tuple[str, int], dict[str, Value]]):
    """The engine's memos, one per binding name and width class: state
    (one-line image as a str) -> value in that binding's ring, and one
    table ``cuts`` of every ring: state -> its ring-free cut (see
    :func:`_wgl_state` and :func:`_reduce`).  An explicit cache, kept
    until clear(); reads are concurrent-safe under the GIL.

    ``public`` holds what the public functions return for the int rings,
    by (binding name, width class, m, int value), so each distinct value
    is decoded (and checked) once and inputs with equal values share one
    object: the specializations depend only on the class of a
    permutation, and their values repeat.  It keeps at most 4096 values,
    about 5 MB (a feps value on 10 points takes about 1.1 KB, an
    interlace one 0.8 KB); past that a value is decoded on every call.  A
    dict value cannot be a key, so the dict rings always decode."""

    def __init__(self) -> None:
        super().__init__()
        self.cuts: dict[str, tuple] = {}
        self.public = Cache(_public_value, cap=4096)

    def table(self, b: _Binding) -> dict[str, Value]:
        """b's memo, made on first use with the empty state's value 1."""
        table = self.get((b.name, b.points))
        if table is None:
            table = self[b.name, b.points] = {"": b.ring.one}
        return table

    def clear(self) -> None:
        """Empty the value memos, the cut table and the public values."""
        super().clear()
        self.cuts.clear()
        self.public.clear()

    def stats(self) -> dict[str, Any]:
        """Entries per binding name and width class, under "cuts" the cut
        table's entries once it has any, and under "public" the public
        values' stats() once it has any."""
        out: dict[str, Any] = {}
        for (name, points), table in sorted(self.items()):
            out.setdefault(name, {})[points] = len(table)
        if self.cuts:
            out["cuts"] = len(self.cuts)
        if self.public:
            out["public"] = self.public.stats()
        return out


#: The memos of the public functions; a caller of wgl may pass its own.
ENGINE_MEMOS = EngineMemos()


def packed_state_value(state: str, cap: int, b: _Binding, memo: MutableMapping | None = None) -> Value:
    """The value in b's ring of a state (a one-line image as a str, see
    :func:`wgl`): the one path into the engine.  It refuses a negative cap
    and more points than the cap or MAX_POINTS, reads the memo (b's own in
    :data:`ENGINE_MEMOS` unless ``memo`` is given) and evaluates only on a
    miss, then runs b's consistency check on the value, if b has one."""
    if cap < 0:
        raise DomainError(f"cap must be >= 0, got {shorten_int(cap)}")
    if (n := len(state)) > cap or n > b.points:  # b.points <= MAX_POINTS
        what, limit = ("cap", cap) if cap <= MAX_POINTS else ("budget", MAX_POINTS)
        if n > limit:
            raise DomainError(f"permutation has {n} points, exceeding the {what} {limit}")
        raise InternalError(f"a state on {n} points in the {b.points}-point class of {b.name}")
    if memo is None:
        table, cuts = ENGINE_MEMOS.table(b), ENGINE_MEMOS.cuts
    else:
        table, cuts = memo, None
        table.setdefault("", b.ring.one)
    if (val := table.get(state)) is None:
        val = _wgl_state(state, b, table, cuts)
    if b.check is not None:
        b.check(b, state, val)
    return val


def _evaluate(p: Perm, cap: int, spec: _Specialization, memo: MutableMapping | None = None) -> Any:
    """The public value of p, in the width class of p: an int value is
    read from ``ENGINE_MEMOS.public`` and decoded only on a miss there; a
    dict value, or any value of a call with its own ``memo``, is decoded
    on every call."""
    b = spec.binding(p.m)
    val = packed_state_value(_state(p.img), cap, b, memo)
    if memo is not None or b.l1 is None:
        return b.decode(val, p.m)
    return ENGINE_MEMOS.public[b.name, b.points, p.m, val]


# Slot 0 holds N and slot k holds C_k.  A wgl value on m points has weighted
# degree at most m (N of weight 1, C_k of weight k), since a strip of C_k
# leaves m - k points and a contraction one factor N at most and m - 1
# points; so has every partial sum of the evaluator, and every exponent is
# at most m <= MAX_POINTS < 2^EXP_BITS (packed_state_value refuses more
# points).  gl(1|1) is univariate in v, so its dict ring bounds no exponent.
_WGL = _Specialization(
    "wgl", ("N", *map(casimir, range(1, MAX_POINTS + 1))), lambda k: Poly.var(casimir(k)), (Poly.one(), _N)
)


def wgl(
    p: Perm,
    cap: int = DEFAULT_CAP,
    memo: MutableMapping[str, Packed] | None = None,
) -> Poly:
    """Value of the universal gl-weight system, a polynomial in N, C1, C2, ...
    Pass a private ``memo`` dict to isolate the computation (cold timing):
    the call then reads and writes nothing of :data:`ENGINE_MEMOS`, its
    cut table and public values included.  The memo maps states to the engine's packed value: each input, the least
    rotation of each fixed-point-free state reduced, and the states of its
    strip/swap loop.  A state is a one-line image as a ``str`` with one
    code point per point: ``"".join(map(chr, p.img))``."""
    return _evaluate(p, cap, _WGL, memo)


def rule_terms(p: Perm, l: int) -> tuple[Perm, int, Perm, int, Perm]:
    """The right-hand side of the recurrence at position l.

    Returns (swap, n1, merge1, n2, merge2) with
    wgl(p) = wgl(swap) + N^n1 * wgl(merge1) - N^n2 * wgl(merge2).
    """
    if not 1 <= l < p.m:
        raise DomainError(f"rule position {l} out of range 1..{p.m - 1}")
    swap, n1, m1, n2, m2 = _step(_state(p.img), l)
    return Perm(_image(swap)), int(n1), Perm(_image(m1)), int(n2), Perm(_image(m2))


def rule_apply(p: Perm, l: int) -> WglState:
    """The recurrence right-hand side as a formal linear combination."""
    swap, n1, m1, n2, m2 = rule_terms(p, l)
    return [(Poly.one(), swap), (_N ** n1, m1), (-(_N ** n2), m2)]


def state_value(
    state: WglState,
    cap: int = DEFAULT_CAP,
    memo: MutableMapping[str, Packed] | None = None,
) -> Poly:
    """Evaluate a formal linear combination under wgl.  ``memo`` is passed
    to :func:`wgl` for every term, so it holds the engine's packed values,
    keyed by states (one-line images as ``str``, see :func:`wgl`), not
    ``Poly`` values."""
    total = Poly.zero()
    for coef, perm in state:
        total = total + coef * wgl(perm, cap=cap, memo=memo)
    return total


# -- specializations ---------------------------------------------------------


def feps_casimir_binding(k: int) -> Poly:
    """Image of C_k in the two-parameter family, its k + 1 distinct terms
    built directly: N*eps^k + sum_{i=1..k} binom(k, i) N^(i-1) eps^(k-i)."""
    if k < 0:
        raise DomainError(f"Casimir index must be >= 0, got {k}")
    terms = {_N_PARTS[i - 1] + _EPS_PARTS[k - i]: comb(k, i) for i in range(1, k + 1)}
    return Poly._raw({_N_PARTS[1] + _EPS_PARTS[k]: 1, **terms})


_Z2 = Poly.var("z", 2) - Poly.one()  # N at the interlace point
_ONE_MINUS_Z = Poly.one() - Poly.var("z")  # 1/eps at the interlace point


def _interlace_casimir(k: int) -> Poly:
    """(1-z)^k C_k at N = z^2 - 1, eps = 1/(1-z): with A = z^2 - 1 and
    B = 1 - z, A + sum_{i=1..k} binom(k, i) A^(i-1) B^i, which is
    A + ((1 + AB)^k - 1)/A, where 1 + AB = z + z^2 - z^3.

    It is computed as one int, at z = 2^W: evaluation is a ring
    homomorphism, so the division by A(2^W) is exact.  The L1 norm is at
    most 2 + sum_i binom(k, i) 2^(i-1) 2^i = 2 + (5^k - 1)/2 <= 5^k, which
    W holds; the degree is at most max(2, 3k - 2); and A(1) = B(1) = 0, so
    the coefficients sum to 0, which a carry between slots breaks."""
    if k < 1:
        raise DomainError(f"Casimir index must be >= 1, got {k}")
    ring = KroneckerRing(("z",), kronecker_width(5**k), 1)
    x = 1 << ring.width
    a = x * x - 1
    digits = ring.digits(a + ((x + x * x - x * x * x) ** k - 1) // a, max(3, 3 * k - 1), signed=True)
    if sum(digits):
        raise InternalError(f"interlace image of C{k} does not vanish at z = 1")
    return ring.from_digits(digits)


def _feps_poly(ring: KroneckerRing, value: int, m: int) -> Poly:
    """feps on m points from its unsigned digits.  By feps_direct's subset
    sum its coefficients are >= 0 and sum to 2^m, and each degree is <= m,
    so every coefficient fits a slot (the width holds 2^points).  A digit
    carried past its slot, or a negative coefficient borrowed from the
    next, moves the digit sum by a multiple of 2^W - 1."""
    digits = ring.digits(value, ring.slots(m), signed=False)
    if sum(digits) != 1 << m:
        raise InternalError(f"feps digits of a state on {m} points do not sum to 2^{m}")
    return ring.from_digits(digits)


def _interlace_ratfunc(ring: KroneckerRing, value: int, m: int) -> RatFunc:
    """The interlace rational function on m points: the homogenized
    numerator, from its signed digits, over (1-z)^m.  By feps_direct's
    subset sum the numerator is the sum over subsets U of
    (z^2-1)^a (1-z)^|U| with a <= m, so its degree is <= 3m and its L1
    norm <= 2^m * 4^m; it vanishes at z = 1 when m >= 1 (every term but
    U = {} has a factor 1-z, and that one is N^c(p)), so the digits sum to
    0, or to 1 at m = 0.  A carry between slots moves the sum by a
    multiple of 2^W - 1."""
    digits = ring.digits(value, ring.slots(3 * m), signed=True)
    if sum(digits) != (m == 0):
        raise InternalError(f"interlace digits of a state on {m} points do not sum to {int(m == 0)}")
    return RatFunc.from_coeffs(digits, m)


def _monomial_poly(ring: KroneckerRing, value: int, m: int) -> Poly:
    """A value that is one monomial with coefficient 1 (the standard and
    C_k -> N values): one set bit, at a slot boundary."""
    e = (value.bit_length() - 1) // ring.width
    if e < 0 or value != 1 << ring.width * e:
        raise InternalError(f"{ring.names[0]} value of a state on {m} points is not a monomial")
    return Poly.var(ring.names[0], e)


_FEPS = _Specialization(
    "feps",
    ("N", "eps"),
    feps_casimir_binding,
    (Poly.one(), _N),
    l1=lambda m: 1 << m,
    decode=_feps_poly,
)


def _check_monomial(name: str, power: str, degree: Callable[[Perm], int], b: _Binding, state: str, val: Value) -> None:
    """The value of every state is N^degree(state); bound to its message
    words and degree by partial, a binding's check."""
    p = Perm(_image(state))
    if val != b.ring.pack(Poly.var("N", degree(p))):
        raise InternalError(f"{name} of {p.img} is not {power}: {b.decode(val, p.m)}")


# The standard and C_k -> N values are one monomial with coefficient 1.
_STANDARD = _Specialization(
    "standard",
    ("N",),
    lambda k: Poly.var("N", k - 1),
    (Poly.one(), _N),
    l1=lambda m: 1,
    decode=_monomial_poly,
    check=partial(_check_monomial, "standard specialization", "N^(f-1)", lambda p: face_count(p) - 1),
)
_CYCLES = _Specialization(
    "cycles", ("N",), lambda k: _N, (Poly.one(), _N), l1=lambda m: 1, decode=_monomial_poly,
    check=partial(_check_monomial, "C_k -> N specialization", "N^c", cycle_count),
)


def _halved(key: tuple[int, int]) -> int | Fraction:
    """c/2^j for key (c, j): an int when 2^j divides c."""
    c, j = key
    return Fraction(c, 1 << j) if c & (1 << j) - 1 else c >> j


#: The coefficient c/2^j of u^j in gl(1|1) of each (c, j), at most 4096.
GL11_COEFFS = Cache(_halved, cap=4096)
_U_PARTS = MONOMIAL_PARTS["u"]


def _gl11_poly(ring: PackedRing, value: Packed, m: int) -> Poly:
    """gl(1|1) in u from its value in v = u/2, whose packed monomial is the
    exponent itself: the coefficient c of v^j is c/2^j of u^j."""
    return Poly._raw({_U_PARTS[j]: GL11_COEFFS[c, j] for j, c in value.items()})


_GL11 = _Specialization(
    "gl11", ("v",), lambda k: k * Poly.var("v", k - 1), (Poly.one(), Poly.zero()), decode=_gl11_poly
)
# The interlace family homogenized by (1-z)^m: every contraction drops one
# point, so it takes one factor (1-z) besides its N; a removed fixed point
# takes its (1-z) with the image of C1.
_INTERLACE = _Specialization(
    "interlace",
    ("z",),
    _interlace_casimir,
    (_ONE_MINUS_Z, _Z2 * _ONE_MINUS_Z),
    l1=lambda m: 1 << 3 * m,
    decode=_interlace_ratfunc,
    ratfunc=True,
)
# The specializations whose values are ints up to _INT_POINTS points, by
# binding name, for the decode of a miss in ENGINE_MEMOS.public.
_INT_SPECIALIZATIONS = {spec.name: spec for spec in (_FEPS, _STANDARD, _CYCLES, _INTERLACE)}


def feps(p: Perm, cap: int = DEFAULT_CAP) -> Poly:
    """Two-parameter specialization of wgl: C_k bound as in
    :func:`feps_casimir_binding`; a polynomial in N and eps."""
    return _evaluate(p, cap, _FEPS)


def feps_direct(p: Perm) -> Poly:
    """The same family computed as a sum over all point subsets:
    sum_U N^(c(p) - c(p|U) + f(p|U) - 1) * eps^(m - |U|)."""
    m, c_full = p.m, cycle_count(p)
    subs = (subperm(p, points) for _, points in subsets(range(1, m + 1)))
    stats = [c_full - cycle_count(sub) + face_count(sub) - 1 for sub in subs]
    return subset_poly(subset_counts(stats), lambda s, c: _N_PARTS[c] + _EPS_PARTS[m - s])


def spec_standard(p: Perm, cap: int = DEFAULT_CAP) -> Poly:
    """Standard-representation specialization C_k -> N^(k-1); always the
    monomial N^(f(p) - 1), which the binding checks on every value."""
    return _evaluate(p, cap, _STANDARD)


def casimir_to_N(p: Perm, cap: int = DEFAULT_CAP) -> Poly:
    """Specialization C_k -> N for every k; always the monomial N^(c(p)),
    which the binding checks on every value."""
    return _evaluate(p, cap, _CYCLES)


def gl11_skewchar(p: Perm, cap: int = DEFAULT_CAP) -> Poly:
    """gl(1|1) specialization: N -> 0, C_k -> k (u/2)^(k-1); on chord
    diagrams this equals the skew characteristic polynomial of the
    intersection graph."""
    return _evaluate(p, cap, _GL11)


def feps_in_v(b: Perm, cap: int = DEFAULT_CAP) -> Poly:
    """The two-parameter family of a chord diagram written in (v, N): the
    sum over vertex subsets U of the intersection graph of N^(corank A_U)
    v^(n - |U|), its refined skew characteristic polynomial at u := v,
    w := N.  Checked against :func:`feps` through v = 2*eps + N*eps^2; a
    mismatch would signal a convention bug, not bad input."""
    if not is_chord_diagram(b):
        raise DomainError("feps_in_v needs a chord diagram")
    g, v_parts = intersection_graph(b), MONOMIAL_PARTS["v"]
    result = subset_poly(g.corank_counts, lambda s, c: _N_PARTS[c] + v_parts[g.n - s])
    v_expansion = Poly.const(2) * Poly.var("eps") + Poly.var("N") * Poly.var("eps", 2)
    if result.subs({"v": v_expansion}) != feps(b, cap=cap):
        raise InternalError(f"(v, N) form of {b.img} does not expand to the eps form")
    return result


def interlace_perm(p: Perm, cap: int = DEFAULT_CAP) -> RatFunc:
    """Interlace rational function of a permutation: the two-parameter
    family at N = z^2 - 1, eps = 1/(1-z).  A polynomial (dpow = 0) on
    chord diagrams."""
    return _evaluate(p, cap, _INTERLACE)


# -- the Hopf projection on the engine's ints --------------------------------


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
    """The value under a binding of the DEFAULT_CAP class of every chord
    subdiagram of b, by chord mask (the empty one is 1).  A subdiagram's
    state is one translate of b's state by the table of its point mask
    (:data:`_CAP_TABLES`): a chord diagram maps the chosen points to chosen
    points, so deleting the values outside them deletes their positions
    too, and the kept values are renumbered by rank.  The point mask of a
    chord mask adds the points of its lowest chord to those of the rest.
    A diagram past the subset budget, then one past DEFAULT_CAP points, is
    refused before any subdiagram is read."""
    state, ground = _state(b.img), chords(b)
    masks = subset_masks(len(ground))
    if b.m > DEFAULT_CAP:
        raise DomainError(f"permutation has {b.m} points, exceeding the cap {DEFAULT_CAP}")
    bits = [1 << x | 1 << y for x, y in ground]
    points, values = [0], [binding.ring.one]
    for mask in masks[1:]:
        low = mask & -mask
        points.append(points[mask ^ low] | bits[low.bit_length() - 1])
        values.append(packed_state_value(state.translate(_CAP_TABLES[points[mask]]), DEFAULT_CAP, binding))
    return values


# The specializations whose Hopf projection runs on the engine's ints, by
# the id of the function object: any other callable, a wrapper of one of
# these included, takes the generic route.
_PROJECTED = {id(feps): _FEPS, id(spec_standard): _STANDARD}


def engine_projection(f: Callable, b: Perm) -> Poly | None:
    """(f o pi)(b), the Hopf projection of f over the chords of b, when f
    is :func:`feps` or :func:`spec_standard` itself; None for any other
    callable.  The subset logarithm runs on the ints of
    :func:`_subdiagram_values`.  Every value has each degree at most b.m
    and the projection too, and its coefficients are bounded by
    :func:`projection_bound`; a bound past the slots is refused.  The
    decode checks that bound, and that the digits sum to p(S) at all
    variables 1: f there is l1(m) (feps sums to 2^m, the standard value is
    one monomial), a multiplicative function, whose projection is 0 on two
    chords or more."""
    spec = _PROJECTED.get(id(f))
    if spec is None:
        return None
    binding = spec.binding(DEFAULT_CAP)
    values = _subdiagram_values(b, binding)
    s = len(values).bit_length() - 1
    ring, bound = binding.ring, PROJECTION_BOUNDS[binding.l1, s]
    if bound >> ring.width - 1:
        raise DomainError(f"projection over {s} chords may reach {bound}, past the {ring.width}-bit slots")
    digits = ring.digits(connected_parts(values, ring)[-1], ring.slots(b.m), signed=True)
    if sum(map(abs, digits)) > bound or sum(digits) != (binding.l1(2) if s == 1 else 0):
        raise InternalError(f"projection of {b.img} over {s} chords breaks its bound {bound}")
    return ring.from_digits(digits)
