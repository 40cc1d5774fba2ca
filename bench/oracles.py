"""Reference computations the benchmark checks wsys outputs against.

Nothing here imports wsys.  Permutations are one-line tuples (``img[i-1]``
is the image of point i), graphs are ``(n, rows)`` with one adjacency
bitmask per vertex, and polynomials are plain ``{monomial: coefficient}``
dicts whose monomials are tuples of ``(variable, exponent)`` pairs -- the
same data ``Poly.terms`` holds, read without calling any Poly method.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

# -- permutations --------------------------------------------------------------


def cycle_count(img: tuple[int, ...]) -> int:
    """Number of cycles, fixed points included."""
    seen = [False] * len(img)
    count = 0
    for start in range(len(img)):
        if not seen[start]:
            count += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = img[j] - 1
    return count


def face_count(img: tuple[int, ...]) -> int:
    """Cycles of i -> alpha^-1(i) mod m + 1 (the faces); 1 when m = 0."""
    m = len(img)
    if m == 0:
        return 1
    inv = [0] * m
    for i, j in enumerate(img, start=1):
        inv[j - 1] = i
    return cycle_count(tuple(inv[i] % m + 1 for i in range(m)))


def restrict(img: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The permutation induced on the points whose bits are set in mask:
    each kept point goes to the next kept point along its cycle."""
    kept = [i for i in range(len(img)) if mask >> i & 1]
    index = {v: k for k, v in enumerate(kept)}
    out = []
    for v in kept:
        nxt = img[v] - 1
        while not mask >> nxt & 1:
            nxt = img[nxt] - 1
        out.append(index[nxt] + 1)
    return tuple(out)


def feps_subset_sum(img: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """The two-parameter family by its closed form: the sum over point
    subsets U of N^(c(p) - c(p|U) + f(p|U) - 1) * eps^(m - |U|), returned
    as {(N exponent, eps exponent): coefficient}."""
    m = len(img)
    c_full = cycle_count(img)
    out: Counter = Counter()
    for mask in range(1 << m):
        sub = restrict(img, mask)
        out[(c_full - cycle_count(sub) + face_count(sub) - 1, m - len(sub))] += 1
    return dict(out)


def is_chord_diagram(img: tuple[int, ...]) -> bool:
    return all(img[img[i] - 1] == i + 1 and img[i] != i + 1 for i in range(len(img)))


def crossing_graph(img: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Intersection graph of a chord diagram, chords numbered by their
    smaller endpoint."""
    ch = [(i, img[i - 1]) for i in range(1, len(img) + 1) if i < img[i - 1]]
    rows = [0] * len(ch)
    for a, (a1, a2) in enumerate(ch):
        for b, (b1, b2) in enumerate(ch):
            if a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2:
                rows[a] |= 1 << b
    return len(ch), tuple(rows)


def full_crossing(k: int) -> tuple[int, ...]:
    """The k chords (i, i + k): every pair interlaces."""
    return tuple(list(range(k + 1, 2 * k + 1)) + list(range(1, k + 1)))


def two_cycle_crossings(img: tuple[int, ...]) -> int:
    """Number of unordered pairs of interlacing 2-cycles."""
    tc = [(i, img[i - 1]) for i in range(1, len(img) + 1) if img[i - 1] > i and img[img[i - 1] - 1] == i]
    return sum(
        1
        for x in range(len(tc))
        for y in range(x + 1, len(tc))
        if tc[x][0] < tc[y][0] < tc[x][1] < tc[y][1] or tc[y][0] < tc[x][0] < tc[y][1] < tc[x][1]
    )


# -- graphs over GF(2) -----------------------------------------------------------


def induced_corank(rows: tuple[int, ...], mask: int) -> int:
    """Corank over GF(2) of the adjacency matrix restricted to mask."""
    basis: dict[int, int] = {}  # leading bit -> row
    size = 0
    for v in range(len(rows)):
        if not mask >> v & 1:
            continue
        size += 1
        row = rows[v] & mask
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return size - len(basis)


def corank_histogram(n: int, rows: tuple[int, ...]) -> Counter:
    """{(|U|, corank of U): number of vertex subsets U}."""
    return Counter((mask.bit_count(), induced_corank(rows, mask)) for mask in range(1 << n))


def connected(n: int, rows: tuple[int, ...]) -> bool:
    if n == 0:
        return True
    reached, frontier = 1, 1
    while frontier:
        nxt = 0
        for v in range(n):
            if frontier >> v & 1:
                nxt |= rows[v]
        frontier = nxt & ~reached
        reached |= nxt
    return reached == (1 << n) - 1


def random_graph(rng, n: int, density: float) -> tuple[int, tuple[int, ...]]:
    rows = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return n, tuple(rows)


def edges(n: int, rows: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(a + 1, b + 1) for a in range(n) for b in range(a + 1, n) if rows[a] >> b & 1]


def pivot(n: int, rows: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Graph pivot on the edge ab: toggle every pair of vertices lying in
    two different classes among {adjacent to both, to a only, to b only}."""
    ra, rb = rows[a - 1], rows[b - 1]
    cls = {}
    for v in range(n):
        if v in (a - 1, b - 1):
            continue
        key = (ra >> v & 1, rb >> v & 1)
        if key != (0, 0):
            cls[v] = key
    out = list(rows)
    for u in cls:
        for v in cls:
            if u < v and cls[u] != cls[v]:
                out[u] ^= 1 << v
                out[v] ^= 1 << u
    return tuple(out)


def graph_text(n: int, rows: tuple[int, ...]) -> str:
    return f"n={n}; edges=" + ",".join(f"{a}-{b}" for a, b in edges(n, rows))


def nondegenerate_masks(n: int, rows: tuple[int, ...]) -> frozenset[int]:
    """Vertex subsets, as masks, whose adjacency matrix is invertible over GF(2)."""
    return frozenset(mask for mask in range(1 << n) if induced_corank(rows, mask) == 0)


def dmat_text(n: int, rows: tuple[int, ...]) -> str:
    """Set-system text of the nondegenerate vertex subsets, in the
    documented order: by size, then lexicographically."""
    members = [tuple(v + 1 for v in range(n) if mask >> v & 1) for mask in nondegenerate_masks(n, rows)]
    members.sort(key=lambda s: (len(s), s))
    return f"E={n}; phi=" + ",".join("{" + ",".join(map(str, s)) + "}" for s in members)


# -- polynomials as term dicts -------------------------------------------------------


def evaluate(terms, values) -> Fraction:
    """Value of {monomial: coefficient} with every variable bound in values."""
    total = Fraction(0)
    for mono, coef in terms.items():
        term = Fraction(coef)
        for var, e in mono:
            term *= values[var] ** e
        total += term
    return total


def normalize(terms) -> dict[frozenset, Fraction]:
    """Order-free form of a term dict, for comparing two of them."""
    return {frozenset(mono): Fraction(c) for mono, c in terms.items() if c}


_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?((?:[A-Za-z]+\d*(?:\^\d+)?\*?)*)$")


def parse_poly(text: str) -> dict[tuple, Fraction]:
    """Read the canonical text form ("C3 + C1^2 - N*C2") into a term dict."""
    text = text.strip()
    if text == "0":
        return {}
    pieces = re.split(r" ([+-]) ", text)
    signs = ["+"] + pieces[1::2]
    out: dict[tuple, Fraction] = {}
    for sign, body in zip(signs, pieces[0::2]):
        if body.startswith("-"):
            sign, body = ("-" if sign == "+" else "+"), body[1:]
        match = _TERM_RE.match(body)
        if not match or not body:
            raise ValueError(f"unreadable term {body!r} in {text!r}")
        coef = Fraction(match.group(1) or 1)
        mono = []
        for factor in filter(None, match.group(2).split("*")):
            var, _, exp = factor.partition("^")
            mono.append((var, int(exp or 1)))
        out[tuple(mono)] = -coef if sign == "-" else coef
    return out


def parse_ratfunc(text: str) -> tuple[dict[tuple, Fraction], int]:
    """Read "(num) / (1-z)^d", "(num) / (1-z)" or a bare polynomial."""
    match = re.fullmatch(r"\((.*)\) / \(1-z\)(?:\^(\d+))?", text.strip())
    if not match:
        return parse_poly(text), 0
    return parse_poly(match.group(1)), int(match.group(2) or 1)


def parse_series(text: str, order: int) -> list[Fraction]:
    """Read a series printed as "2z^2+5z^3-z^4" into coefficients 0..order."""
    coeffs = [Fraction(0)] * (order + 1)
    for sign, mag, z, exp in re.findall(r"([+-]?)(\d+(?:/\d+)?)?(z)?(?:\^(\d+))?", text.strip()):
        if mag or z:
            coeffs[int(exp or 1) if z else 0] = Fraction(mag or 1) * (-1 if sign == "-" else 1)
    return coeffs


# -- series --------------------------------------------------------------------------


def _mul_trunc(a: list, b: list, order: int) -> list:
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def interlace_series(feps_terms: dict[tuple[int, int], int], order: int) -> list[int]:
    """Taylor coefficients at z = 0 of the family at N = z^2 - 1,
    eps = 1/(1-z), from {(N exponent, eps exponent): coefficient}."""
    total = [0] * (order + 1)
    for (a, b), c in feps_terms.items():
        n_pow = [1]
        for _ in range(a):
            n_pow = _mul_trunc(n_pow, [-1, 0, 1], order)
        eps_pow = [comb(k + b - 1, k) if b else int(k == 0) for k in range(order + 1)]
        term = _mul_trunc(n_pow, eps_pow, order)
        total = [t + c * x for t, x in zip(total, term)]
    return total


def series_times_denominator(series: list, dpow: int) -> list:
    """The truncated series multiplied by (1-z)^dpow, truncated again."""
    out = list(series)
    for _ in range(dpow):
        out = [c - (out[k - 1] if k else 0) for k, c in enumerate(out)]
    return out


# -- counts ----------------------------------------------------------------------------


def factorial_sum(max_m: int) -> int:
    """Permutations with at most max_m points: sum of m!."""
    return sum(factorial(m) for m in range(max_m + 1))


def double_factorial(n: int) -> int:
    """(2n-1)!!, the number of chord diagrams with n chords (1 when n = 0)."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def graph_count(n: int) -> int:
    """Labelled simple graphs on n vertices: 2^C(n,2)."""
    return 2 ** comb(n, 2)


def interlacing_pair_count(max_m: int) -> int:
    """Pairs of interlacing 2-cycles summed over every permutation with at
    most max_m points, by enumeration."""
    return sum(
        two_cycle_crossings(img)
        for m in range(max_m + 1)
        for img in permutations(range(1, m + 1))
    )
