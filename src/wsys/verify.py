"""Executable verification suites for the package's structural identities.

Each suite enumerates a bounded family of inputs and checks one identity
instance by instance.  A suite is a generator: it yields ``ok, label``
once per instance, where ``label`` is the reproducible text encoding of
the input reported if ``ok`` is false, and it may return a list of
notes.  :func:`run_suite` counts the instances, collects the failing
labels, times the run and builds the :class:`VerifySuiteReport`.

Two suites are experiments rather than checks: ``perm-recurrence``
measures which of two candidate restriction conventions makes the
permutation interlace recursion true, and ``positivity-experiment``
scans series expansions for negative coefficients.  Experiments yield
``True`` for every instance and report their findings in ``notes``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from inspect import signature
from random import Random
from typing import Callable, Generator, Iterator

from .algebra import MAX_SERIES_ORDER, Poly, poly_subst
from .dmat import (
    check_symmetric_exchange,
    dmat_delete,
    dmat_from_chord_diagram,
    dmat_from_graph,
    is_coloop,
    is_loop,
    partial_dual,
)
from .errors import DomainError, InternalError, shorten_int
from .glws import feps, feps_direct, gl11_skewchar, interlace_perm, rule_apply, state_value, wgl
from .graphs import (
    Graph,
    all_graphs,
    complete_graph,
    cycle_graph,
    diamond_graph,
    graph_format,
    induced_corank,
    path_graph,
    subsets,
)
from .hopf import eps_independence_check
from .invariants import (
    graph_4t_check,
    interlace_dmat,
    interlace_graph,
    interlace_graph_recursive,
    refined_skew_char_dmat,
    refined_skew_char_graph,
    skew_char,
    two_var_interlace,
)
from .perm import (
    Perm,
    all_chord_diagrams,
    all_perms,
    chord_4t_quadruple,
    chord_subdiagram,
    chords,
    cycle_count,
    face_count,
    interlacing_two_cycle_pairs,
    intersection_graph,
    perm_format,
    perm_pivot,
    subperm,
)


@dataclass
class VerifySuiteReport:
    """Outcome of one suite: counts, failure encodings, wall time, notes."""

    name: str
    instances: int
    failures: list[str]
    seconds: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "instances": self.instances,
            "failures": list(self.failures),
            "seconds": round(self.seconds, 3),
            "notes": list(self.notes),
        }

    def lines(self, max_failures: int = 20) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [
            f"{self.name}: {status} "
            f"({self.instances} instances, {len(self.failures)} failures, {self.seconds:.2f}s)"
        ]
        out.extend(f"  note: {note}" for note in self.notes)
        out.extend(f"  failure: {enc}" for enc in self.failures[:max_failures])
        if len(self.failures) > max_failures:
            out.append(f"  ... {len(self.failures) - max_failures} more failures")
        return out


#: One (ok, label) per instance; the return value, if any, is the notes.
Checks = Generator[tuple[bool, str], None, "list[str] | None"]

SUITES: dict[str, Callable[..., Checks]] = {}

#: Suites that report findings instead of pass/fail verdicts.
EXPERIMENTS = frozenset({"perm-recurrence", "positivity-experiment"})


def _suite(name: str):
    def register(fn):
        SUITES[name] = fn
        return fn

    return register


def suite_names() -> list[str]:
    return list(SUITES)


#: Budgets of max_m, max_chords and max_vertices: 9! = 362 880 permutations,
#: 13!! = 135 135 chord diagrams, 2^15 graphs on 6 vertices.
MAX_VERIFY_M, MAX_VERIFY_CHORDS, MAX_VERIFY_VERTICES = 9, 7, 6

# Count bounds (not the seed): each >= 0 and at most its budget; samples has none.
_COUNT_BOUNDS = {
    "max_m": MAX_VERIFY_M, "max_chords": MAX_VERIFY_CHORDS, "max_vertices": MAX_VERIFY_VERTICES,
    "samples": None, "order": MAX_SERIES_ORDER,
}


def run_suite(name: str, **bounds) -> VerifySuiteReport:
    """Run one suite by name; irrelevant or unset (None) bounds are ignored.
    A count bound below 0 or past its budget is refused before any instance runs."""
    fn = SUITES.get(name)
    if fn is None:
        raise DomainError(f"unknown verification suite {name!r}")
    for key, budget in _COUNT_BOUNDS.items():
        if (value := bounds.get(key)) is not None and value < 0:
            raise DomainError(f"bound {key} must be >= 0, got {shorten_int(value)}")
        if value is not None and budget is not None and value > budget:
            raise DomainError(f"bound {key} = {shorten_int(value)} exceeds the budget of {budget}")
    params = signature(fn).parameters
    kwargs = {k: v for k, v in bounds.items() if v is not None and k in params}
    notes: list[str] = []

    def checks():
        notes.extend((yield from fn(**kwargs)) or [])

    instances, failures = 0, []
    start = time.perf_counter()
    for instances, (ok, label) in enumerate(checks(), start=1):
        if not ok:
            failures.append(label)
    return VerifySuiteReport(name, instances, failures, time.perf_counter() - start, notes)


def run_suites(names: list[str] | None = None, **bounds) -> list[VerifySuiteReport]:
    """Run several suites (all of them by default), in registry order.
    Requested names are checked in the order given."""
    if names is not None:
        for name in names:
            if name not in SUITES:
                raise DomainError(f"unknown verification suite {name!r}")
    return [run_suite(name, **bounds) for name in SUITES if names is None or name in names]


# -- enumeration helpers -------------------------------------------------------


def _perm_range(max_m: int) -> Iterator[Perm]:
    for m in range(max_m + 1):
        yield from all_perms(m)


def _diagram_range(max_chords: int, start: int = 1) -> Iterator[Perm]:
    for n in range(start, max_chords + 1):
        yield from all_chord_diagrams(n)


def _graph_range(max_vertices: int) -> Iterator[Graph]:
    for n in range(max_vertices + 1):
        yield from all_graphs(n)


# -- weight-system suites -------------------------------------------------------


@_suite("tgl-soundness")
def suite_tgl_soundness(max_m: int = 6) -> Checks:
    """wgl equals its recurrence right-hand side at every position l."""
    for p in _perm_range(max_m):
        lhs, text = wgl(p), perm_format(p)
        for l in range(1, p.m):
            yield state_value(rule_apply(p, l)) == lhs, f"{text} @ l={l}"


@_suite("tfe")
def suite_tfe(max_m: int = 7, samples: int = 100, seed: int = 1729) -> Checks:
    """Recurrence route and subset-sum route to the two-parameter family agree."""
    for p in _perm_range(max_m):
        yield feps(p) == feps_direct(p), perm_format(p)
    rand_m = 9
    rng = Random(seed)
    for _ in range(samples):
        img = list(range(1, rand_m + 1))
        rng.shuffle(img)
        p = Perm(tuple(img))
        yield feps(p) == feps_direct(p), perm_format(p)
    return [f"exhaustive for m <= {max_m}, plus {samples} random permutations at m = {rand_m}"]


@_suite("tsr")
def suite_tsr(max_m: int = 7) -> Checks:
    """The substitution C_k -> N^(k-1) collapses wgl to N^(faces - 1)."""
    for p in _perm_range(max_m):
        w = wgl(p)
        binding = {v: Poly.var("N", int(v[1:]) - 1) for v in w.variables() if v.startswith("C")}
        yield poly_subst(w, binding) == Poly.var("N", face_count(p) - 1), perm_format(p)


@_suite("trsc")
def suite_trsc(max_chords: int = 5) -> Checks:
    """The family of a diagram is the refined skew characteristic polynomial
    of its intersection graph at u = 2*eps + N*eps^2, w = N."""
    u_expansion = Poly.const(2) * Poly.var("eps") + Poly.var("N") * Poly.var("eps", 2)
    for b in _diagram_range(max_chords):
        qbar = refined_skew_char_graph(intersection_graph(b))
        yield qbar.subs({"u": u_expansion, "w": Poly.var("N")}) == feps(b), perm_format(b)


@_suite("tis")
def suite_tis(max_chords: int = 5) -> Checks:
    """On chord diagrams the interlace rational function is a polynomial and
    equals the graph interlace polynomial of the intersection graph evaluated
    at x = z^2 - 1."""
    at_z = {"x": Poly.var("z", 2) - Poly.one()}
    for b in _diagram_range(max_chords):
        rf, text = interlace_perm(b), perm_format(b)
        if not rf.is_polynomial():
            yield False, f"{text} @ polynomiality"
            continue
        yield rf.num == interlace_graph(intersection_graph(b)).subs(at_z), text
    return [
        "identity checked: interlace rational function = interlace polynomial at x = z^2 - 1",
        "single-chord diagrams satisfy the same identity; no exception needed",
    ]


# -- 4-term and pivot suites ------------------------------------------------------


@_suite("fourterm-graphs")
def suite_fourterm_graphs(max_vertices: int = 5) -> Checks:
    """skew_char, refined_skew_char and interlace satisfy the graph 4-term
    relation at every ordered vertex pair."""
    named = [
        ("skew-char", cache(skew_char)),
        ("refined-skew-char", cache(refined_skew_char_graph)),
        ("interlace", cache(interlace_graph)),
    ]
    for g in _graph_range(max_vertices):
        text = graph_format(g)
        for a in range(1, g.n + 1):
            for b in range(1, g.n + 1):
                if a == b:
                    continue
                for fname, f in named:
                    yield graph_4t_check(f, g, a, b), f"{text} @ ({a},{b}) {fname}"


@_suite("fourterm-diagrams")
def suite_fourterm_diagrams(max_chords: int = 3) -> Checks:
    """The alternating wgl sum over every chord-diagram 4-term quadruple
    vanishes: wgl(B1) - wgl(B2) = wgl(B3) - wgl(B4)."""
    for b in _diagram_range(max_chords):
        m, text = b.m, perm_format(b)
        for e in range(1, m + 1):
            e2 = e % m + 1
            if b(e) == e2:
                continue  # both ends on one chord: no relation here
            q1, q2, q3, q4 = chord_4t_quadruple(b, e, e2)
            yield wgl(q1) - wgl(q2) == wgl(q3) - wgl(q4), f"{text} @ e={e}"


@_suite("pivot-invariance")
def suite_pivot_invariance(max_m: int = 8) -> Checks:
    """The interlace rational function is invariant under the pivot along
    any pair of interlacing 2-cycles."""
    li = cache(interlace_perm)
    for p in _perm_range(max_m):
        pairs = interlacing_two_cycle_pairs(p)
        if not pairs:
            continue
        base, text = li(p), perm_format(p)
        for a, b in pairs:
            yield li(perm_pivot(p, a, b)) == base, f"{text} @ {a}x{b}"


def _pivot_chord_images(
    x: tuple[int, int], y: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Positions of the 2-cycles x and y inside perm_pivot(p, x, y)."""
    a1, a2 = sorted(x)
    b1, b2 = sorted(y)
    swapped = b1 < a1
    if swapped:
        a1, a2, b1, b2 = b1, b2, a1, a2
    img_first = (a1, a1 + b2 - b1)
    img_second = (a1 + b2 - a2, b2)
    return (img_second, img_first) if swapped else (img_first, img_second)


@_suite("perm-recurrence")
def suite_perm_recurrence(max_chords: int = 3) -> Checks:
    """EXPERIMENT: test candidate readings of the interlace restriction
    recursion L(p) = L(p restricted) + L(pivot(p) restricted) on chord
    diagrams, for every ordered pair (x, y) of interlacing 2-cycles.

    Reading remove-both: both terms drop the four points of both 2-cycles
    (the second term drops their relocated positions from the pivot).
    Reading delete-other: the first term drops x's points, the second
    drops y's relocated points from the pivot -- a naive transliteration
    of the graph recursion L(G) = L(G - a) + L(G^{ab} - b).
    Reading delete-same: the first term drops x's points, the second
    drops x's relocated points from the pivot.  The block swap exchanges
    the two 2-cycles' interlacement roles, so x's relocated copy is the
    analogue of the vertex b deleted after a graph pivot.
    """
    cases = [
        (b, first, second)
        for b in _diagram_range(max_chords, start=2)
        for pa, pb in interlacing_two_cycle_pairs(b)
        for first, second in ((pa, pb), (pb, pa))
    ]
    matches = {"remove-both": 0, "delete-other": 0, "delete-same": 0}
    li = cache(interlace_perm)

    def drop(p: Perm, pts: set[int]) -> Perm:
        return subperm(p, [i for i in range(1, p.m + 1) if i not in pts])

    for b, first, second in cases:
        lhs = li(b)
        piv = perm_pivot(b, first, second)
        first_piv, second_piv = _pivot_chord_images(first, second)
        both_here = set(first) | set(second)
        both_piv = set(first_piv) | set(second_piv)
        head = li(drop(b, set(first)))
        if li(drop(b, both_here)) + li(drop(piv, both_piv)) == lhs:
            matches["remove-both"] += 1
        if head + li(drop(piv, set(second_piv))) == lhs:
            matches["delete-other"] += 1
        if head + li(drop(piv, set(first_piv))) == lhs:
            matches["delete-same"] += 1
        yield True, ""
    notes = [
        f"reading {name} matched {count}/{len(cases)} instances"
        for name, count in matches.items()
    ]
    if cases and matches["delete-same"] == len(cases):
        notes.append(
            "delete-same validates: both terms delete the same 2-cycle,"
            " before the pivot and (tracked through the relabelling) after it"
        )
    return notes


# -- Hopf suite --------------------------------------------------------------------


@_suite("hopf-eps")
def suite_hopf_eps(max_chords: int = 4) -> Checks:
    """Projecting the two-parameter family onto primitives eliminates eps
    on every diagram with at least two chords."""
    for b in _diagram_range(max_chords, start=2):
        try:
            eps_free, _ = eps_independence_check(b)
        except InternalError as exc:
            yield False, f"{perm_format(b)} @ {exc}"
            continue
        yield eps_free, f"{perm_format(b)} @ eps survives the projection"


# -- delta-matroid suites ------------------------------------------------------------


@_suite("dmat-axiom")
def suite_dmat_axiom(max_vertices: int = 5) -> Checks:
    """Set systems of graphs satisfy the Symmetric Exchange Axiom."""
    for g in _graph_range(max_vertices):
        yield check_symmetric_exchange(dmat_from_graph(g)), graph_format(g)


@_suite("distance-corank")
def suite_distance_corank(max_vertices: int = 5) -> Checks:
    """For graph systems, distance to the admissible family equals the GF(2)
    corank of the induced adjacency matrix, subset by subset."""
    for g in _graph_range(max_vertices):
        dist, text = dmat_from_graph(g).distances, graph_format(g)
        for mask, subset in subsets(range(1, g.n + 1)):
            members = ",".join(str(v) for v in subset)
            yield dist[mask] == induced_corank(g, subset), f"{text} @ U={{{members}}}"


@_suite("distance-faces")
def suite_distance_faces(max_chords: int = 5) -> Checks:
    """For chord-diagram systems, distance of a chord subset equals the face
    count of the subdiagram minus one."""
    for b in _diagram_range(max_chords):
        dist, text = dmat_from_chord_diagram(b).distances, perm_format(b)
        ch = chords(b)
        for mask, chosen in subsets(range(1, len(ch) + 1)):
            members = ",".join(str(i) for i in chosen)
            sub = chord_subdiagram(b, [ch[i - 1] for i in chosen])
            yield dist[mask] == face_count(sub) - 1, f"{text} @ U={{{members}}}"


@_suite("gl11-skewchar")
def suite_gl11_skewchar(max_chords: int = 5) -> Checks:
    """The N -> 0, C_k -> k (u/2)^(k-1) specialization on a chord diagram is
    the skew characteristic polynomial of its intersection graph."""
    for b in _diagram_range(max_chords):
        yield gl11_skewchar(b) == skew_char(intersection_graph(b)), perm_format(b)


@_suite("interlace-equivalence")
def suite_interlace_equivalence(max_vertices: int = 5, seed: int = 1729) -> Checks:
    """The recursive interlace polynomial equals the distance subset sum,
    is independent of the edge-choice policy, and matches the refined skew
    characteristic polynomial at u = 1, w = x; known closed values for the
    diamond and triangle graphs are pinned."""
    rng = Random(seed)
    x = Poly.var("x")

    def random_policy(g: Graph):
        es = g.edges()
        return rng.choice(es) if es else None

    for g in _graph_range(max_vertices):
        d, text = dmat_from_graph(g), graph_format(g)
        rec = interlace_graph_recursive(g)
        by_distance = interlace_dmat(d)
        yield rec == by_distance, f"{text} @ distance-sum"
        by_policy = interlace_graph_recursive(g, memo={}, edge_policy=random_policy)
        yield rec == by_policy, f"{text} @ edge-policy"
        at_u_1 = refined_skew_char_dmat(d).subs({"u": Poly.one(), "w": x})
        yield by_distance == at_u_1, f"{text} @ refined-at-u-1"
    yield interlace_graph(diamond_graph()) == 2 * x**2 + 8 * x + 6, "diamond"
    yield interlace_graph(complete_graph(3)) == 4 * x + 4, "K3"
    # paths and cycles past the enumerated graphs, up to 6 vertices; a
    # cycle has at least 3
    pinned = [(f"path-{n}", path_graph(n)) for n in range(max_vertices + 1, 7)]
    pinned += [(f"cycle-{n}", cycle_graph(n)) for n in range(max(max_vertices + 1, 3), 7)]
    for label, g in pinned:
        yield interlace_graph_recursive(g) == interlace_dmat(dmat_from_graph(g)), label


@_suite("abs04")
def suite_abs04(max_vertices: int = 5) -> Checks:
    """Two-variable interlace recurrences (loop, coloop, neither) and the
    monomial correspondence with the refined skew characteristic polynomial."""
    x, y = Poly.var("x"), Poly.var("y")
    loop_factor = Poly.one() + x * y
    coloop_factor = x + y
    for g in _graph_range(max_vertices):
        d, text = dmat_from_graph(g), graph_format(g)
        lbar = two_var_interlace(d)
        for e in range(1, d.ground + 1):
            if is_loop(d, e):
                tag = "loop"
                ok = lbar == loop_factor * two_var_interlace(dmat_delete(d, e))
            elif is_coloop(d, e):
                tag = "coloop"
                dual_rest = dmat_delete(partial_dual(d, 1 << (e - 1)), e)
                ok = lbar == coloop_factor * two_var_interlace(dual_rest)
            else:
                tag = "neither"
                dual_rest = dmat_delete(partial_dual(d, 1 << (e - 1)), e)
                ok = lbar == two_var_interlace(dmat_delete(d, e)) + x * two_var_interlace(
                    dual_rest
                )
            yield ok, f"{text} @ e={e} ({tag})"
        # Qbar(u, w) carries the same data as Lbar(x, y): the coefficient of
        # u^(|E|-a) w^b in the former is the coefficient of x^a y^b in the latter.
        terms: dict = {}
        for mono, coef in lbar.terms.items():
            exps = dict(mono)
            a, bb = exps.get("x", 0), exps.get("y", 0)
            new = []
            if d.ground - a:
                new.append(("u", d.ground - a))
            if bb:
                new.append(("w", bb))
            key = tuple(new)
            terms[key] = terms.get(key, Fraction(0)) + coef
        yield refined_skew_char_dmat(d) == Poly(terms), f"{text} @ qbar-lbar"


@_suite("partial-dual-invariance")
def suite_partial_dual_invariance(
    max_vertices: int = 5, samples: int = 10, seed: int = 1729
) -> Checks:
    """The interlace polynomial of a set system is invariant under partial
    duality with respect to any subset."""
    rng = Random(seed)
    sampled = False
    for g in _graph_range(max_vertices):
        d, text = dmat_from_graph(g), graph_format(g)
        base = interlace_dmat(d)
        n = d.ground
        if n <= 4:
            duals = list(range(1 << n))
        else:
            sampled = True
            singles = [1 << i for i in range(n)]
            extra = sorted({rng.randrange(1 << n) for _ in range(samples)})
            duals = singles + extra
        for mask in duals:
            yield interlace_dmat(partial_dual(d, mask)) == base, f"{text} @ S mask={mask}"
    if sampled:
        return [
            f"exhaustive subsets through 4 elements; singletons plus {samples} "
            f"seeded random subsets beyond"
        ]


@_suite("casimir-N")
def suite_casimir_n(max_m: int = 7) -> Checks:
    """The substitution C_k -> N collapses wgl to N^(cycle count)."""
    for p in _perm_range(max_m):
        w = wgl(p)
        binding = {v: Poly.var("N") for v in w.variables() if v.startswith("C")}
        yield poly_subst(w, binding) == Poly.var("N", cycle_count(p)), perm_format(p)
    return ["checked for all permutations, not only those arising from chord diagrams"]


# -- series experiment ----------------------------------------------------------------


@_suite("positivity-experiment")
def suite_positivity(max_m: int = 7, order: int = 12) -> Checks:
    """EXPERIMENT: expand the interlace rational function of every
    permutation as a power series and look for negative coefficients.

    Findings are split by the presence of fixed points: a fixed point
    contributes a factor 1 + N*eps = -z, so permutations with fixed
    points routinely produce negative coefficients, while every
    fixed-point-free permutation observed so far stays nonnegative.
    """
    neg_fixed: list[str] = []
    neg_free: list[str] = []
    for p in _perm_range(max_m):
        if any(c < 0 for c in interlace_perm(p).series(order)):
            has_fp = any(p(i) == i for i in range(1, p.m + 1))
            (neg_fixed if has_fp else neg_free).append(perm_format(p))
        yield True, ""
    notes = [f"series expanded through z^{order}"]
    if neg_fixed:
        notes.append(
            f"negative coefficients for {len(neg_fixed)} permutations with a "
            f"fixed point; first: {neg_fixed[0]} (a fixed point contributes 1 + N*eps = -z)"
        )
    if neg_free:
        notes.append(
            f"negative coefficients for {len(neg_free)} fixed-point-free "
            f"permutations; first: {neg_free[0]}"
        )
    else:
        notes.append(
            f"all coefficients nonnegative for every fixed-point-free "
            f"permutation with m <= {max_m}"
        )
    return notes
