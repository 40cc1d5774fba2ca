"""Set systems and delta-matroids.

A set system is a ground set {1..E} together with a nonempty family of
admissible subsets, stored as bitmasks (bit e-1 represents element e).
The systems arising from graphs (admissible = induces a mod-2
nondegenerate subgraph) satisfy the Symmetric Exchange Axiom and are the
delta-matroids this package works with; :func:`check_symmetric_exchange`
verifies the axiom by brute force for anything else.

The distance of every subset is read off a
:class:`~wsys.graphs.SubsetTable` built from phi, or shared with the graph
a system comes from (:func:`dmat_from_graph`).

Text format: ``"E=3; phi={},{1,2},{1,3},{2,3}"`` (subsets sorted by size,
then lexicographically; members ascending).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Union

from . import graphs, perm
from .errors import DomainError, InternalError, ParseError, bounded_uint, is_uint, shorten
from .graphs import MAX_GROUND

Subsetlike = Union[int, Iterable[int]]

#: Most admissible sets check_symmetric_exchange compares pairwise (|phi|^2
#: pairs): 131 sets took 0.02 s and 236 sets 0.05 s (Random(5) density-0.5
#: graphs on 9 and 10 vertices), 256 sets 0.09 s (8 disjoint edges and 4
#: isolated vertices, 20 elements); 2 cores, CPython 3.11, best of 3.
MAX_EXCHANGE_SETS = 256


def set_to_mask(points: Iterable[int], ground: int) -> int:
    mask = 0
    for p in points:
        if not 1 <= p <= ground:
            raise DomainError(f"element {p} out of range 1..{ground}")
        mask |= 1 << (p - 1)
    return mask


def mask_to_set(mask: int) -> tuple[int, ...]:
    return tuple([e + 1 for e in graphs.bit_indices(mask)])


@dataclass(frozen=True)
class DMat:
    """Proper set system: ground set {1..ground}, admissible sets as masks."""

    ground: int
    phi: frozenset[int]

    def __post_init__(self):
        if not 0 <= self.ground <= MAX_GROUND:
            raise DomainError(f"ground size {self.ground} outside 0..{MAX_GROUND}")
        if not self.phi:
            raise DomainError("a proper set system needs at least one admissible set")
        for mask in self.phi:
            if mask < 0 or mask >> self.ground:
                raise DomainError(f"admissible set {mask:#x} outside the ground set")

    def coerce_subset(self, subset: Subsetlike) -> int:
        if isinstance(subset, int):
            if subset < 0 or subset >> self.ground:
                raise DomainError(f"subset mask {subset:#x} outside the ground set")
            return subset
        return set_to_mask(subset, self.ground)

    def is_admissible(self, subset: Subsetlike) -> bool:
        return self.coerce_subset(subset) in self.phi

    def admissible_sorted(self) -> list[int]:
        return sorted(self.phi, key=lambda m: (m.bit_count(), mask_to_set(m)))

    @classmethod
    def _raw(cls, table: graphs.SubsetTable) -> "DMat":
        """Adopt a subset table built within the budget, such as a valid
        graph's: its n as the ground size, its level-0 masks as phi.  Skips
        the validation of the public constructor."""
        d = object.__new__(cls)
        object.__setattr__(d, "ground", table.n)
        object.__setattr__(d, "phi", table.phi)
        object.__setattr__(d, "subset_table", table)
        return d

    @cached_property
    def subset_table(self) -> graphs.SubsetTable:
        """:func:`distance` of every subset as level bitsets: the
        hypercube distance from phi, built once per system."""
        return graphs.SubsetTable.of_masks(self.ground, self.phi)

    @property
    def distances(self) -> tuple[int, ...]:
        """:func:`distance` of every subset, indexed by its bitmask."""
        return self.subset_table.distances

    @property
    def distance_counts(self) -> Mapping[tuple[int, int], int]:
        """Histogram {(|U|, distance): count} of the subsets."""
        return self.subset_table.counts


# -- construction ------------------------------------------------------------


def dmat_from_graph(g: graphs.Graph) -> DMat:
    """Admissible = vertex subsets inducing a mod-2 nondegenerate subgraph.
    The system's distances are the graph's coranks (suite distance-corank),
    so the system shares the graph's subset table."""
    return DMat._raw(g.subset_table)


def dmat_from_chord_diagram(b: perm.Perm) -> DMat:
    """Delta-matroid of a chord diagram; ground set = chords.

    Computed from the intersection graph, and independently cross-checked
    against the face characterization (a chord subset is admissible iff
    the corresponding subdiagram has exactly one face); a mismatch would
    signal a convention bug.
    """
    d = dmat_from_graph(perm.intersection_graph(b))
    by_faces = frozenset(
        mask
        for mask, chosen in graphs.subsets(perm.chords(b))
        if perm.face_count(perm.chord_subdiagram(b, chosen)) == 1
    )
    if d.phi != by_faces:
        raise InternalError(f"graph and face admissibility disagree for {b.img}")
    return d


# -- the axiom ----------------------------------------------------------------


def check_symmetric_exchange(d: DMat) -> bool:
    """Brute-force Symmetric Exchange Axiom: for admissible phi, psi and
    x in their symmetric difference, some y in the difference (y = x
    allowed) keeps phi ^ {x, y} admissible.  Per phi, near[x] is None if
    phi ^ {x} is admissible, else the mask of the y != x with phi ^ {x, y}
    admissible; psi fails at x in phi ^ psi iff near[x] is a mask
    disjoint from phi ^ psi, one bit pass per pair.  A family of more than
    MAX_EXCHANGE_SETS sets is refused before any pair is compared."""
    if len(d.phi) > MAX_EXCHANGE_SETS:
        raise DomainError(f"{len(d.phi)} admissible sets exceed the exchange budget of {MAX_EXCHANGE_SETS}")
    phi, bits = d.phi, [1 << x for x in range(d.ground)]
    for f in phi:
        near = [None if f ^ bx in phi else sum(by for by in bits if by != bx and f ^ bx ^ by in phi) for bx in bits]
        for g in phi:
            diff = f ^ g
            for x in graphs.bit_indices(diff):
                if near[x] is not None and not near[x] & diff:
                    return False
    return True


# -- metrics and duality --------------------------------------------------------


def distance(d: DMat, subset: Subsetlike) -> int:
    """Minimal size of the symmetric difference to an admissible set."""
    mask = d.coerce_subset(subset)
    return min((mask ^ f).bit_count() for f in d.phi)


def partial_dual(d: DMat, subset: Subsetlike) -> DMat:
    """XOR every admissible set with the given subset."""
    mask = d.coerce_subset(subset)
    return DMat(d.ground, frozenset(f ^ mask for f in d.phi))


# -- elements -------------------------------------------------------------------


def _element_bit(d: DMat, e: int) -> int:
    if not 1 <= e <= d.ground:
        raise DomainError(f"element {e} out of range 1..{d.ground}")
    return 1 << (e - 1)


def is_loop(d: DMat, e: int) -> bool:
    """True iff e lies in no admissible set."""
    bit = _element_bit(d, e)
    return all(not f & bit for f in d.phi)


def is_coloop(d: DMat, e: int) -> bool:
    """True iff e lies in every admissible set."""
    bit = _element_bit(d, e)
    return all(f & bit for f in d.phi)


def dmat_delete(d: DMat, e: int) -> DMat:
    """Remove e, keeping the admissible sets avoiding it (renumbered)."""
    bit = _element_bit(d, e)
    if is_coloop(d, e):
        raise DomainError(f"cannot delete the coloop {e}")
    kept = frozenset(graphs.drop_bit(f, e - 1) for f in d.phi if not f & bit)
    return DMat(d.ground - 1, kept)


# -- text form --------------------------------------------------------------------

_DMAT_RE = re.compile(r"^\s*E\s*=\s*([0-9]+)\s*;\s*phi\s*=\s*(.*?)\s*$")


def dmat_parse(text: str) -> DMat:
    match = _DMAT_RE.match(text)
    if not match:
        raise ParseError(f"malformed set-system text: {shorten(text)!r}")
    ground = bounded_uint(match.group(1), graphs.MAX_VERTICES)
    if ground > graphs.MAX_VERTICES:
        raise DomainError(f"E exceeds the budget of {graphs.MAX_VERTICES} elements")
    body = match.group(2)
    if not body:
        raise ParseError("a proper set system needs at least one admissible set")
    masks: set[int] = set()
    for piece in re.findall(r"\{([^{}]*)\}", body):
        members = [s for s in re.split(r"[\s,]+", piece.strip()) if s]
        if not all(is_uint(s) for s in members):
            raise ParseError(f"malformed admissible set {{{shorten(piece)}}}")
        pts = [bounded_uint(s, ground) for s in members]
        for p in pts:
            if not 1 <= p <= ground:
                raise ParseError(f"element {p} out of range 1..{ground}")
        if len(set(pts)) != len(pts):
            raise ParseError(f"repeated element in {{{shorten(piece)}}}")
        mask = set_to_mask(pts, ground)
        if mask in masks:
            raise ParseError(f"duplicate admissible set {{{shorten(piece)}}}")
        masks.add(mask)
    leftover = re.sub(r"\{[^{}]*\}", "", body).replace(",", "").strip()
    if leftover:
        raise ParseError(f"stray text {shorten(leftover)!r} in set-system text")
    return DMat(ground, frozenset(masks))


def dmat_format(d: DMat) -> str:
    """The text of a set system, its sets in the order of
    :meth:`DMat.admissible_sorted`: each set's tuple is built once, sorted
    as it stands and then, stably, by size, and printed."""
    sets = sorted(map(mask_to_set, d.phi))
    sets.sort(key=len)
    blocks = ",".join(["{" + ",".join(map(str, s)) + "}" for s in sets])
    return f"E={d.ground}; phi={blocks}"
