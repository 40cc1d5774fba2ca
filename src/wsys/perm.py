"""Permutations of {1..m} and chord diagrams (fixed-point-free involutions).

A permutation is stored in one-line form: ``img[i-1]`` is the image of the
1-based point i.  The empty permutation (m = 0) is the multiplicative unit
for concatenation.

Chord diagrams are permutations of 2n points that are involutions without
fixed points; their chords are the 2-cycles, ordered by smaller endpoint,
and the intersection graph has one vertex per chord with edges between
interlacing chords.

Text formats accepted by :func:`perm_parse`:

* one-line: ``"3,5,6,7,2,8,4,9,1"``
* cycles:   ``"(1 4)(2 5)"`` (fixed points may be omitted when the total
  number of points is passed explicitly)

A text naming more than :data:`MAX_POINTS` points is refused with
``DomainError`` before anything of that size is allocated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations as _permutations
from typing import Iterable, Iterator, Mapping, Sequence

from . import graphs
from .errors import DomainError, ParseError, bounded_uint, is_uint, shorten

#: Largest point count perm_parse accepts, from a cycle point, m or a one-line length.
MAX_POINTS = 1000

#: The default cap of the engine's public functions (``glws``) and of
#: ``wsys wgl --cap``: the most points a call admits unless it passes its
#: own cap, which MAX_POINTS bounds in turn.
DEFAULT_CAP = 10


@dataclass(frozen=True)
class Perm:
    """Permutation in one-line form; img[i-1] = alpha(i)."""

    img: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.img) != list(range(1, len(self.img) + 1)):
            raise DomainError(f"not a permutation of 1..{len(self.img)}: {self.img}")

    @property
    def m(self) -> int:
        return len(self.img)

    def __call__(self, i: int) -> int:
        return self.img[i - 1]

    def inverse(self) -> "Perm":
        inv = [0] * self.m
        for i, j in enumerate(self.img, start=1):
            inv[j - 1] = i
        return Perm(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycles as tuples, each starting at its smallest point, sorted."""
        img = self.img
        seen = [False] * (len(img) + 1)
        out: list[tuple[int, ...]] = []
        for start in range(1, len(img) + 1):
            if seen[start]:
                continue
            cyc = [start]
            j = img[start - 1]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = img[j - 1]
            out.append(tuple(cyc))
        return out


EMPTY = Perm(())


def identity(m: int) -> Perm:
    return Perm(tuple(range(1, m + 1)))


def standard_cycle(m: int) -> Perm:
    """The cycle (1, 2, ..., m): each point maps to the next, m to 1."""
    if m < 1:
        raise DomainError("standard cycle needs at least one point")
    return Perm(tuple(list(range(2, m + 1)) + [1]))


# -- parsing and formatting --------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def perm_parse(text: str, m: int | None = None) -> Perm:
    """Parse one-line or cycle notation; `m` fixes the point count for
    cycle notation with omitted fixed points."""
    if m is not None and m < 0:
        raise ParseError(f"negative point count {m}")
    if m is not None and m > MAX_POINTS:
        raise DomainError(f"{m} points exceed the budget of {MAX_POINTS}")
    body = text.strip()
    if body in ("", "()"):
        return identity(m or 0)
    if "(" in body:
        leftover = _CYCLE_RE.sub("", body).strip()
        if leftover:
            raise ParseError(f"stray text {shorten(leftover)!r} outside cycles")
        limit = MAX_POINTS if m is None else m
        points_seen: set[int] = set()
        cycles: list[list[int]] = []
        for group in _CYCLE_RE.findall(body):
            pts = [p for p in re.split(r"[\s,]+", group.strip()) if p]
            if not pts:
                continue
            cyc: list[int] = []
            for p in pts:
                v = bounded_uint(p, limit) if is_uint(p) else 0
                if v < 1:
                    raise ParseError(f"bad point {shorten(p)!r} in cycle notation")
                if v > limit:
                    if m is not None:
                        raise ParseError(f"point {v} exceeds m = {m}")
                    raise DomainError(f"a point exceeds the budget of {MAX_POINTS} points")
                if v in points_seen:
                    raise ParseError(f"point {v} appears twice")
                points_seen.add(v)
                cyc.append(v)
            cycles.append(cyc)
        size = m if m is not None else max(points_seen, default=0)
        img = list(range(1, size + 1))
        for cyc in cycles:
            for i, v in enumerate(cyc):
                img[v - 1] = cyc[(i + 1) % len(cyc)]
        return Perm(tuple(img))
    pts = [p for p in re.split(r"[\s,]+", body) if p]
    if not all(is_uint(p) for p in pts):
        raise ParseError(f"malformed permutation text: {shorten(text)!r}")
    if len(pts) > MAX_POINTS:
        raise DomainError(f"{len(pts)} points exceed the budget of {MAX_POINTS}")
    img = [bounded_uint(p, len(pts)) for p in pts]
    if m is not None and m != len(img):
        raise ParseError(f"one-line form has {len(img)} points, expected {m}")
    if sorted(img) != list(range(1, len(img) + 1)):
        raise ParseError(f"not a permutation of 1..{len(img)}: {','.join(map(str, img))}")
    return Perm(tuple(img))


def perm_format(p: Perm) -> str:
    """Canonical output: one-line form (empty permutation prints as "()")."""
    return ",".join(str(v) for v in p.img) if p.m else "()"


# -- counting ----------------------------------------------------------------


def cycle_count(p: Perm) -> int:
    """Number of cycles, fixed points included; 0 for the empty permutation."""
    return len(p.cycles())


def face_count(p: Perm) -> int:
    """Number of cycles of i -> sigma(alpha^{-1}(i)) where sigma is the
    ascending long cycle; 1 for the empty permutation.  Counted on its
    inverse alpha . sigma^{-1}, the image rotated one step right:
    (alpha(m), alpha(1), ..., alpha(m-1))."""
    if p.m == 0:
        return 1
    return cycle_count(Perm(p.img[-1:] + p.img[:-1]))


# -- structural operations -----------------------------------------------------


def subperm(p: Perm, points: Iterable[int]) -> Perm:
    """Restriction to a subset: each kept point maps to the next point of
    its cycle that is kept, with points renumbered order-preserving."""
    kept, m = sorted(set(points)), p.m
    for v in kept:
        if not 1 <= v <= m:
            raise DomainError(f"point {v} out of range 1..{m}")
    index = {v: i for i, v in enumerate(kept, 1)}
    img: list[int] = []
    for v in kept:
        nxt = p.img[v - 1]
        while nxt not in index:
            nxt = p.img[nxt - 1]
        img.append(index[nxt])
    return Perm(tuple(img))


def concat(a: Perm, b: Perm) -> Perm:
    """Disjoint union with b's points shifted above a's."""
    return Perm(a.img + tuple(v + a.m for v in b.img))


def relabel(p: Perm, mu: Mapping[int, int]) -> Perm:
    """Conjugation by the point bijection mu: returns mu . p . mu^{-1}."""
    if sorted(mu) != list(range(1, p.m + 1)) or sorted(mu.values()) != list(
        range(1, p.m + 1)
    ):
        raise DomainError("relabeling is not a bijection of the points")
    img = [0] * p.m
    for i in range(1, p.m + 1):
        img[mu[i] - 1] = mu[p(i)]
    return Perm(tuple(img))


def cyclic_shift(p: Perm) -> Perm:
    """Conjugation by the ascending long cycle (rotate the circle one step)."""
    if p.m == 0:
        return p
    return relabel(p, {i: i % p.m + 1 for i in range(1, p.m + 1)})


# -- chord diagrams ------------------------------------------------------------


def is_chord_diagram(p: Perm) -> bool:
    return all(p(p(i)) == i and p(i) != i for i in range(1, p.m + 1))


def chords(b: Perm) -> list[tuple[int, int]]:
    """The 2-cycles as (smaller, larger) pairs, ascending."""
    if not is_chord_diagram(b):
        raise DomainError("not a chord diagram")
    return [(i, b(i)) for i in range(1, b.m + 1) if i < b(i)]


def chord_subdiagram(b: Perm, chosen_chords: Iterable[tuple[int, int]]) -> Perm:
    """The subdiagram of b on the given chords, as pairs from :func:`chords`."""
    return subperm(b, [pt for chord in chosen_chords for pt in chord])


def _interlace(p: tuple[int, int], q: tuple[int, int]) -> bool:
    a1, a2 = sorted(p)
    b1, b2 = sorted(q)
    return a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2


def _chord_graph(ch: Sequence[tuple[int, int]]) -> graphs.Graph:
    """Vertex k for the chord ch[k-1], edges between interlacing chords."""
    return graphs.Graph.from_edges(
        len(ch),
        (
            (i + 1, j + 1)
            for i in range(len(ch))
            for j in range(i + 1, len(ch))
            if _interlace(ch[i], ch[j])
        ),
    )


def intersection_graph(b: Perm) -> graphs.Graph:
    """One vertex per chord (ordered by smaller endpoint), edges between
    interlacing chords."""
    return _chord_graph(chords(b))


# -- pivot ---------------------------------------------------------------------


def two_cycles(p: Perm) -> list[tuple[int, int]]:
    """Orbits of length exactly 2, as sorted pairs."""
    return [(i, p(i)) for i in range(1, p.m + 1) if p(i) > i and p(p(i)) == i]


def interlacing_two_cycle_pairs(p: Perm) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    tc = two_cycles(p)
    return [
        (tc[i], tc[j])
        for i in range(len(tc))
        for j in range(i + 1, len(tc))
        if _interlace(tc[i], tc[j])
    ]


def perm_pivot(p: Perm, a: tuple[int, int], b: tuple[int, int]) -> Perm:
    """Pivot along two interlacing 2-cycles.

    Writing the circle as A a1 B b1 C a2 D b2 E (capital letters the runs of
    remaining points), the blocks B and D are exchanged and the rearranged
    sequence is relabeled by position; the result is the conjugation of p by
    that block-exchange bijection.
    """
    for pair in (a, b):
        i, j = pair
        if i == j or not (1 <= i <= p.m and 1 <= j <= p.m) or p(i) != j or p(j) != i:
            raise DomainError(f"{pair} is not a 2-cycle of the permutation")
    a1, a2 = sorted(a)
    b1, b2 = sorted(b)
    if b1 < a1:
        a1, a2, b1, b2 = b1, b2, a1, a2
    if not a1 < b1 < a2 < b2:
        raise DomainError(f"2-cycles {a} and {b} do not interlace")
    # New circular order: A a1 D b1 C a2 B b2 E
    block_a = list(range(1, a1))
    block_b = list(range(a1 + 1, b1))
    block_c = list(range(b1 + 1, a2))
    block_d = list(range(a2 + 1, b2))
    block_e = list(range(b2 + 1, p.m + 1))
    order = block_a + [a1] + block_d + [b1] + block_c + [a2] + block_b + [b2] + block_e
    mu = {point: pos + 1 for pos, point in enumerate(order)}
    return relabel(p, mu)


# -- 4-term quadruple ------------------------------------------------------------


def _transposition_map(m: int, i: int, j: int) -> dict[int, int]:
    mu = {p: p for p in range(1, m + 1)}
    mu[i], mu[j] = j, i
    return mu


def _relocation_map(m: int, src: int, dst: int, side: str) -> dict[int, int]:
    """Remove point src and reinsert it immediately before/after dst."""
    order = [p for p in range(1, m + 1) if p != src]
    at = order.index(dst)
    if side == "after":
        order = order[: at + 1] + [src] + order[at + 1 :]
    else:
        order = order[:at] + [src] + order[at:]
    return {point: pos + 1 for pos, point in enumerate(order)}


def _quadruple_maps(
    b: Perm, e: int, e2: int
) -> list[tuple[Perm, dict[int, int]]]:
    if not is_chord_diagram(b):
        raise DomainError("4-term quadruple needs a chord diagram")
    m = b.m
    if not (1 <= e <= m and 1 <= e2 <= m) or e2 != e % m + 1:
        raise DomainError(f"points {e}, {e2} are not circle-adjacent in order")
    if b(e) == e2:
        raise DomainError(f"points {e}, {e2} lie on the same chord")
    far = b(e2)  # far end of the chord of e2
    ident = {p: p for p in range(1, m + 1)}
    mu2 = _transposition_map(m, e, e2)
    mu3 = _relocation_map(m, e, far, "after")
    mu4 = _relocation_map(m, e, far, "before")
    return [(b, ident)] + [(relabel(b, mu), mu) for mu in (mu2, mu3, mu4)]


def chord_4t_quadruple(b: Perm, e: int, e2: int) -> tuple[Perm, Perm, Perm, Perm]:
    """The four diagrams of the 4-term relation at adjacent ends (e, e2).

    e2 must be the circular successor of e and the two points must lie on
    distinct chords x (containing e) and y (containing e2).  The second
    diagram transposes the two ends; the third relocates e immediately
    after the far end of y; the fourth relocates it immediately before.
    Their intersection graphs realize the graph 4-term quadruple at
    (a, b) = (chord of e, chord of e2); see :func:`chord_4t_graphs`.
    """
    return tuple(perm for perm, _ in _quadruple_maps(b, e, e2))


def chord_4t_graphs(
    b: Perm, e: int, e2: int
) -> tuple[graphs.Graph, graphs.Graph, graphs.Graph, graphs.Graph]:
    """Intersection graphs of the 4-term quadruple, with vertices aligned to
    the chords of the original diagram.

    Transposing or relocating ends can change which chord has the smaller
    endpoint, so the plain sorted-chord labeling of the moved diagrams may
    permute vertices; here vertex k always denotes (the image of) the k-th
    chord of b, which is the labeling under which the quadruple equals
    (G, G'_ab, G~_ab, G~'_ab).
    """
    base = chords(b)
    return tuple(
        _chord_graph([(mu[p], mu[q]) for p, q in base]) for _, mu in _quadruple_maps(b, e, e2)
    )


# -- enumeration -----------------------------------------------------------------


def all_perms(m: int) -> Iterator[Perm]:
    for img in _permutations(range(1, m + 1)):
        yield Perm(img)


def all_chord_diagrams(n: int) -> Iterator[Perm]:
    """All (2n-1)!! fixed-point-free involutions on 2n points."""

    def pairings(points: list[int]) -> Iterator[list[tuple[int, int]]]:
        if not points:
            yield []
            return
        first = points[0]
        for i in range(1, len(points)):
            partner = points[i]
            rest = points[1:i] + points[i + 1 :]
            for tail in pairings(rest):
                yield [(first, partner)] + tail

    for pairs in pairings(list(range(1, 2 * n + 1))):
        img = [0] * (2 * n)
        for p, q in pairs:
            img[p - 1], img[q - 1] = q, p
        yield Perm(tuple(img))
