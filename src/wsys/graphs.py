"""Simple labeled graphs with GF(2) linear algebra.

Vertices are labeled 1..n.  Adjacency is stored as one integer bitmask per
vertex (bit j-1 of ``rows[i-1]`` is set iff i ~ j), which makes Gaussian
elimination over GF(2) a few word operations per row.  All operations are
pure: they return new graphs.  The structural ones (induced subgraphs, the
pivot, the 4-term images) compute the result's rows directly from the
input's rows and construct one :class:`Graph` each.  Every vertex argument
is checked against 1..n and refused with :class:`~wsys.errors.DomainError`.

Every loop over the 2^n subsets of vertices, points, chords or ground
elements runs on :func:`subset_masks`, which refuses more than
``MAX_GROUND`` elements; :func:`subsets` adds the member lists.

The induced corank of every vertex subset comes from a :class:`SubsetTable`
that keeps each corank level as one 2^n-bit ``int``, bit U standing for the
subset with mask U, so every pass is a few C-level big-integer operations
instead of a Python loop over masks: the mod-2 Pfaffian of every subset,
one shift per edge, finds the nondegenerate family; level k + 1 is every
one-element flip of level k not seen before, O(n) operations per level;
and the (|U|, corank) histogram counts each level against the bitset of
each subset size.  The graph keeps one table (``Graph.subset_table``) and
reads ``nondegenerate``, ``coranks`` and ``corank_counts`` off it; the
per-n bitsets live in the :class:`~wsys.caches.Cache`
:data:`SUBSET_BITSETS`, kept until cleared (5.45 MB at n = 20).
:func:`gf2_rank` and :func:`induced_corank` stay as the independent
per-subset route.

Text format: ``"n=4; edges=1-2,1-3,2-3"`` (edges sorted, smaller endpoint
first).
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, repeat
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

from .caches import Cache
from .errors import DomainError, InternalError, ParseError, bounded_uint, shorten

#: Largest vertex, point or ground-set count a 2^n subset enumeration accepts.
MAX_GROUND = 20
#: Largest vertex count graph_parse accepts; refused before any row is built.
MAX_VERTICES = 1000

T = TypeVar("T")


def bit_indices(row: int) -> Iterator[int]:
    """Indices of the set bits of row, ascending."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def drop_bit(mask: int, i: int) -> int:
    """mask without bit i, the bits above it shifted down one place."""
    low = (1 << i) - 1
    return mask & low | mask >> 1 & ~low


def subset_masks(n: int) -> range:
    """Every subset mask of n elements, ascending.  More than MAX_GROUND
    elements raise DomainError."""
    if n > MAX_GROUND:
        raise DomainError(f"{n} elements exceed the subset budget of {MAX_GROUND}")
    return range(1 << n)


def subsets(items: Sequence[T]) -> Iterator[tuple[int, list[T]]]:
    """Every subset of items as (mask, members), masks ascending, bit i
    standing for items[i] and members in input order.  More than
    MAX_GROUND items raise DomainError on the first next()."""
    for mask in subset_masks(len(items)):
        yield mask, [x for i, x in enumerate(items) if mask >> i & 1]


def subset_counts(stats: Sequence[int]) -> Mapping[tuple[int, int], int]:
    """Histogram {(|U|, stats[U]): count} over the subset masks U, in one
    pass, as a read-only mapping.  Every size is below
    w = len(stats).bit_length(), so the pair is counted as the integer
    stat * w + size.  Every statistic must be nonnegative; a negative one
    raises InternalError."""
    w = len(stats).bit_length()
    keys = Counter(map(add, map(mul, stats, repeat(w)), map(int.bit_count, range(len(stats)))))
    if keys and min(keys) < 0:  # a key is negative iff its statistic is
        raise InternalError(f"negative subset statistic {min(keys) // w}")
    return MappingProxyType({(key % w, key // w): count for key, count in keys.items()})


def _subset_bitsets(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bitsets over the 2^n subset masks of n, bit U standing for the mask
    U: (holding, sized), ``holding[i]`` the set of masks holding element i
    and ``sized[s]`` the set of masks of size s, through
    :func:`subset_masks` and its budget."""
    width = len(subset_masks(n))
    holding = []
    for i in range(n):
        step = 1 << i
        pattern, span = ((1 << step) - 1) << step, 2 * step
        while span < width:  # repeat the block of 2^i out, 2^i in
            pattern |= pattern << span
            span *= 2
        holding.append(pattern)
    sized = [1]
    for i in range(n):  # element i joins: a mask of size s - 1 gains it
        sized = [low | high << (1 << i) for low, high in zip(sized + [0], [0] + sized)]
    return tuple(holding), tuple(sized)


class SubsetBitsets(Cache):
    def stats(self) -> dict[str, object]:
        """The values of n held, the number of bitsets and their bytes by
        sys.getsizeof."""
        bitsets = [b for holding, sized in self.values() for b in holding + sized]
        return {
            "n": sorted(self),
            "bitsets": len(bitsets),
            "bytes": sum(map(sys.getsizeof, bitsets)),
        }


#: The holding and size bitsets of every n a subset table has used.
SUBSET_BITSETS = SubsetBitsets(_subset_bitsets)


def _pfaffian_bits(rows: Sequence[int]) -> int:
    """Bitset of the masks U whose induced adjacency matrix is invertible
    over GF(2).

    For a zero-diagonal symmetric matrix det = Pf (mod 2), so U qualifies
    iff G[U] has an odd number of perfect matchings.  Expanding along the
    lowest vertex v of U, pf(U) = XOR of pf(U - v - w) over the neighbours
    w of v in U, with pf(empty) = 1.  Going down from the top vertex, the
    masks above v that hold w and whose pf(U - v - w) is 1 are one shift of
    the values found so far, so the pass costs one shift per edge.
    """
    holding, _ = SUBSET_BITSETS[len(rows)]
    found = 1  # the empty set; all masks found so far lie above v
    for v in reversed(range(len(rows))):
        odd = 0
        for w in bit_indices(rows[v] >> v + 1 << v + 1):
            odd ^= (found ^ found & holding[w]) << (1 << w)
        found |= odd << (1 << v)
    return found


def _corank_levels(n: int, sources: int) -> tuple[int, ...]:
    """Bitsets of the masks at hypercube distance 0, 1, 2, ... from the
    source bitset, until every mask is reached.  A level's i-flip moves the
    masks holding i down by 2^i and the others up by 2^i."""
    holding, _ = SUBSET_BITSETS[n]
    flips = [(held, 1 << i) for i, held in enumerate(holding)]
    levels, seen = [sources], sources
    while True:
        level, near = levels[-1], 0
        for held, step in flips:
            down = level & held
            near |= down >> step | (level ^ down) << step
        near &= ~seen
        if not near:
            return tuple(levels)
        levels.append(near)
        seen |= near


class SubsetTable:
    """A statistic of every subset of n elements -- the induced corank of a
    graph's vertex subsets, a set system's distance -- kept as level
    bitsets: bit U of ``levels[k]`` is set iff the statistic of U is k.
    Level 0 is the source family (``phi``); the statistic is the hypercube
    distance from it.  ``phi``, the tuple ``distances`` and the histogram
    ``counts`` are read off the levels when first asked for."""

    def __init__(self, n: int, levels: tuple[int, ...]) -> None:
        self.n = n
        self.levels = levels

    @classmethod
    def of_masks(cls, n: int, masks: Iterable[int]) -> "SubsetTable":
        """Distances of the subsets of n elements from one or more masks."""
        flags = bytearray(len(subset_masks(n)))
        for mask in masks:
            flags[mask] = 1
        if not (sources := int(flags[::-1].translate(_DIGITS), 2)):
            raise DomainError(f"no source masks among the subsets of {n} elements")
        return cls(n, _corank_levels(n, sources))

    def _digits(self, level: int, k: int) -> bytes:
        """One byte per mask, highest mask first: k for the masks in the
        level, 0 for the others."""
        return format(level, f"0{len(subset_masks(self.n))}b").encode().translate(_LEVEL_BYTES[k])

    @cached_property
    def phi(self) -> frozenset[int]:
        """The masks of level 0."""
        return frozenset(compress(subset_masks(self.n), self._digits(self.levels[0], 1)[::-1]))

    @cached_property
    def distances(self) -> tuple[int, ...]:
        """The statistic of every subset, indexed by its mask."""
        total = 0
        for k, level in enumerate(self.levels[1:], 1):
            # read little-endian, the digits put k at byte 2^n - 1 - U for
            # each mask U of the level; the levels are disjoint and k <= 20,
            # so the sum carries nowhere, and its big-endian bytes are the
            # statistics in mask order
            total += int.from_bytes(self._digits(level, k), "little")
        return tuple(total.to_bytes(len(subset_masks(self.n)), "big"))

    @cached_property
    def counts(self) -> Mapping[tuple[int, int], int]:
        """Histogram {(|U|, statistic): count} as a read-only mapping, as
        :func:`subset_counts` gives it.  Levels that do not account for
        exactly 2^n masks raise InternalError."""
        _, sized = SUBSET_BITSETS[self.n]
        counts = {}
        for k, level in enumerate(self.levels):
            for s, size_set in enumerate(sized):
                count = (level & size_set).bit_count()
                if count:
                    counts[s, k] = count
        if sum(counts.values()) != len(subset_masks(self.n)):
            raise InternalError(f"subset levels of {self.n} elements do not hold 2^{self.n} masks")
        return MappingProxyType(counts)


_DIGITS = bytes.maketrans(b"\0\1", b"01")
_LEVEL_BYTES = [bytes.maketrans(b"01", bytes((0, k))) for k in range(MAX_GROUND + 1)]


def _check_vertices(g: Graph, vertices: Iterable[int]) -> None:
    for v in vertices:
        if not 1 <= v <= g.n:
            raise DomainError(f"vertex {v} out of range 1..{g.n}")


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 1..n; symmetric bitmask adjacency, no loops."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise DomainError(f"adjacency size {len(self.rows)} != n = {self.n}")
        for i, row in enumerate(self.rows):
            if row < 0 or row >> self.n:
                raise DomainError(f"row {i + 1} has bits outside 1..{self.n}")
            if row >> i & 1:
                raise DomainError(f"loop at vertex {i + 1}")
        for i, row in enumerate(self.rows):
            for j in bit_indices(row):
                if not self.rows[j] >> i & 1:
                    raise DomainError(f"asymmetric adjacency at {min(i, j) + 1},{max(i, j) + 1}")

    @classmethod
    def _raw(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """Adopt rows derived from a valid graph's rows: symmetric, no
        loops, inside 1..n.  Skips the validation of the public constructor."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for a, b in edges:
            if not (1 <= a <= n and 1 <= b <= n):
                raise DomainError(f"edge {a}-{b} out of range 1..{n}")
            if a == b:
                raise DomainError(f"loop at vertex {a}")
            rows[a - 1] |= 1 << (b - 1)
            rows[b - 1] |= 1 << (a - 1)
        return cls(n, tuple(rows))

    def has_edge(self, a: int, b: int) -> bool:
        _check_vertices(self, (a, b))
        return bool(self.rows[a - 1] >> (b - 1) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(i + 1, j + 1) for i, row in enumerate(self.rows) for j in bit_indices(row >> i << i)]

    def neighbors(self, v: int) -> set[int]:
        _check_vertices(self, (v,))
        return {j + 1 for j in bit_indices(self.rows[v - 1])}

    def toggle_edge(self, a: int, b: int) -> "Graph":
        _check_vertices(self, (a, b))
        if a == b:
            raise DomainError(f"cannot toggle a loop at {a}")
        rows = list(self.rows)
        rows[a - 1] ^= 1 << (b - 1)
        rows[b - 1] ^= 1 << (a - 1)
        return Graph._raw(self.n, tuple(rows))

    @cached_property
    def subset_table(self) -> SubsetTable:
        """Induced corank of every vertex subset as level bitsets, from one
        Pfaffian pass and one level pass, shared with the set system of
        :func:`~wsys.dmat.dmat_from_graph`."""
        return SubsetTable(self.n, _corank_levels(self.n, _pfaffian_bits(self.rows)))

    @property
    def nondegenerate(self) -> frozenset[int]:
        """Masks of the vertex subsets inducing a mod-2 nondegenerate subgraph."""
        return self.subset_table.phi

    @property
    def coranks(self) -> tuple[int, ...]:
        """Induced corank of every vertex subset, indexed by its bitmask."""
        return self.subset_table.distances

    @property
    def corank_counts(self) -> Mapping[tuple[int, int], int]:
        """Histogram {(|U|, corank): count} of the vertex subsets."""
        return self.subset_table.counts


# -- text form -------------------------------------------------------------

_GRAPH_RE = re.compile(r"^\s*n\s*=\s*([0-9]+)\s*;\s*edges\s*=\s*(.*?)\s*$")


def graph_parse(text: str) -> Graph:
    match = _GRAPH_RE.match(text)
    if not match:
        raise ParseError(f"malformed graph text: {shorten(text)!r}")
    n = bounded_uint(match.group(1), MAX_VERTICES)
    if n > MAX_VERTICES:
        raise DomainError(f"n exceeds the budget of {MAX_VERTICES} vertices")
    body = match.group(2)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    if body:
        for part in body.split(","):
            piece = part.strip()
            m = re.fullmatch(r"([0-9]+)\s*-\s*([0-9]+)", piece)
            if not m:
                raise ParseError(f"malformed edge {shorten(piece)!r}")
            a, b = bounded_uint(m.group(1), n), bounded_uint(m.group(2), n)
            if not (1 <= a <= n and 1 <= b <= n):
                raise ParseError(f"edge {a}-{b} out of range 1..{n}")
            if a == b:
                raise ParseError(f"loop at vertex {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ParseError(f"duplicate edge {a}-{b}")
            seen.add(key)
            edges.append(key)
    return Graph.from_edges(n, edges)


def graph_format(g: Graph) -> str:
    body = ",".join(f"{a}-{b}" for a, b in g.edges())
    return f"n={g.n}; edges={body}"


# -- GF(2) linear algebra ---------------------------------------------------


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank of a bit-row matrix by Gaussian elimination."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            basis.append(row)
    return len(basis)


def gf2_corank(rows: Sequence[int], n: int) -> int:
    """n - rank of a square n x n bit matrix given as n row masks."""
    if len(rows) != n:
        raise DomainError(f"non-square matrix: {len(rows)} rows, width {n}")
    for i, row in enumerate(rows):
        if row < 0 or row >> n:
            raise DomainError(f"row {i + 1} wider than {n} columns")
    return n - gf2_rank(rows)


def induced_corank(g: Graph, vertices: Iterable[int]) -> int:
    """Corank of the adjacency matrix restricted to a vertex subset,
    eliminating directly on the masked rows (no subgraph object)."""
    vs = sorted(set(vertices))
    _check_vertices(g, vs)
    mask = sum(1 << (v - 1) for v in vs)
    return len(vs) - gf2_rank([g.rows[v - 1] & mask for v in vs])


def is_nondegenerate(g: Graph) -> bool:
    """True iff the adjacency matrix is invertible mod 2 (empty graph: yes)."""
    return gf2_corank(g.rows, g.n) == 0


# -- subgraphs and pivot ----------------------------------------------------


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    vs = sorted(set(vertices))
    _check_vertices(g, vs)
    index = {v - 1: k for k, v in enumerate(vs)}
    mask = sum(1 << (v - 1) for v in vs)
    rows = [sum(1 << index[j] for j in bit_indices(g.rows[v - 1] & mask)) for v in vs]
    return Graph._raw(len(vs), tuple(rows))


def _pivot_rows(rows: list[int], i: int, j: int) -> None:
    """Pivot the rows in place on the edge between vertices i + 1 and j + 1
    (see :func:`graph_pivot`)."""
    near_a = rows[i] & ~(1 << j)
    near_b = rows[j] & ~(1 << i)
    both, union = near_a & near_b, near_a | near_b
    for cls in (both, near_a ^ both, near_b ^ both):
        flip = union ^ cls
        while cls:
            low = cls & -cls
            rows[low.bit_length() - 1] ^= flip
            cls ^= low


def graph_pivot(g: Graph, a: int, b: int) -> Graph:
    """Toggle all edges between the three neighbor classes of the edge ab.

    Vertices outside {a, b} split into: adjacent to both ends, adjacent to a
    only, adjacent to b only, adjacent to neither.  Every edge (present or
    absent) between two *different* classes among the first three is
    toggled; everything else is untouched.  So each vertex of a class
    flips its row by the union of the three classes minus its own class.
    """
    if not g.has_edge(a, b):
        raise DomainError(f"pivot requires edge {a}-{b}")
    rows = list(g.rows)
    _pivot_rows(rows, a - 1, b - 1)
    return Graph._raw(g.n, tuple(rows))


def four_term_images(g: Graph, a: int, b: int) -> tuple[Graph, Graph, Graph]:
    """The three companions of g in the graph 4-term relation at (a, b).

    Returns (g', g~, g~') where g' toggles the edge ab, g~ toggles the edge
    {a, v} for every v adjacent to b other than a, and g~' is g~ with ab
    toggled again.
    """
    _check_vertices(g, (a, b))
    if a == b:
        raise DomainError("4-term images need two distinct vertices")
    a_bit = 1 << (a - 1)
    others = g.rows[b - 1] & ~a_bit
    rows = list(g.rows)
    rows[a - 1] ^= others
    for v in bit_indices(others):
        rows[v] ^= a_bit
    g_tilde = Graph._raw(g.n, tuple(rows))
    return g.toggle_edge(a, b), g_tilde, g_tilde.toggle_edge(a, b)


# -- enumeration and standard graphs ----------------------------------------


def all_graphs(n: int) -> Iterator[Graph]:
    """All labeled simple graphs on n vertices."""
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, (p for i, p in enumerate(pairs) if mask >> i & 1))


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(1, n + 1), 2))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def diamond_graph() -> Graph:
    """K_4 minus one edge."""
    return Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
