"""Exact sparse-polynomial and rational-function arithmetic."""

from fractions import Fraction
from math import comb
from random import Random

import pytest

from wsys.algebra import (
    EXP_BITS,
    MAX_SERIES_ORDER,
    MONOMIAL_PARTS,
    SERIES_FRACTIONS,
    SLOT_BITS,
    KroneckerRing,
    PackedRing,
    Poly,
    RatFunc,
    casimir,
    coeffs_to_poly_z,
    int_fold,
    kronecker_width,
    poly_coeffs_z,
    poly_subst,
    packed_fold,
    packed_mul,
    poly_to_string,
    ratfunc_series,
    var_key,
)
from wsys.caches import Cache
from wsys.errors import DomainError, InternalError

N = Poly.var("N")
eps = Poly.var("eps")
z = Poly.var("z")
u = Poly.var("u")
x = Poly.var("x")
C1, C2, C3 = Poly.var("C1"), Poly.var("C2"), Poly.var("C3")


def test_casimir_names():
    assert casimir(1) == "C1"
    assert casimir(12) == "C12"


def test_var_key_total_order():
    names = ["N", "C1", "C2", "C3", "C10", "eps", "z", "u", "v", "w", "x", "y"]
    keys = [var_key(n) for n in names]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # the cache keeps no failures: an unknown name raises on every call
    for _ in range(2):
        with pytest.raises(DomainError):
            var_key("C0")


def test_packed_ring_round_trip_and_arithmetic():
    ring = PackedRing(("N", "C1", "C2", "eps"))
    a = 3 * N**2 * C2 - C1 * eps**5 + Fraction(1, 2)
    b = N * C1 - 2 * C2**3 * eps + 7
    pa, pb = ring.pack(a), ring.pack(b)
    assert ring.poly(pa) == a and ring.poly(pb) == b
    assert ring.poly(packed_mul(pa, pb)) == a * b
    assert ring.poly(packed_mul(pa, ring.pack(Poly.zero()))) == Poly.zero()
    # the last variable has no slot above it, so its exponent is unbounded
    assert ring.poly(ring.pack(eps ** (3 << EXP_BITS))) == eps ** (3 << EXP_BITS)
    with pytest.raises(DomainError):
        ring.pack(N ** (1 << EXP_BITS))
    with pytest.raises(DomainError):
        ring.pack(z)


def test_packed_fold_adds_shifted_signed_terms_in_one_copy():
    # a fold adds signed terms, each times the monomial its shift packs,
    # and leaves its first argument as it was
    ring = PackedRing(("N", "C1", "C2", "eps"))
    a = 3 * N**2 * C2 - C1 * eps**5 + Fraction(1, 2)
    b = N * C1 - 2 * C2**3 * eps + 7
    pa, pb = ring.pack(a), ring.pack(b)
    shift_n = ring.pack(N).popitem()[0]
    copy = dict(pa)
    folded = packed_fold(pa, [(1, 0, pb), (-1, shift_n, pa)])
    assert ring.poly(folded) == a + b - N * a
    assert pa == copy
    assert ring.poly(packed_fold(pa, [(-1, 0, pa)])) == Poly.zero()
    assert packed_fold(pa, []) == pa and packed_fold(pa, []) is not pa


def test_kronecker_ring_round_trip_and_arithmetic():
    # one int per value: sums and products are int ones, and a decode with
    # signed digits gives the Poly back at native widths and past 64 bits
    a = 3 * N**2 * eps - 5 * eps**4 + 7
    b = N * eps - 2 * N**3 + 1
    assert kronecker_width(127) == 8 and kronecker_width(128) == 16 and kronecker_width(1 << 70) == 72
    for width in (8, 16, 32, 64, 72):
        ring = KroneckerRing(("N", "eps"), width, 9)
        pa, pb = ring.pack(a), ring.pack(b)
        shift_n = ring.unit_shift(ring.pack(N))
        folded = int_fold(pa, [(1, 0, pb), (-1, shift_n, pa)])
        for value, want in ((pa, a), (pa * pb, a * b), (folded, a + b - N * a)):
            assert ring.from_digits(ring.digits(value, ring.slots(8), signed=True)) == want, width
        assert ring.unit_shift(ring.pack(N * eps**2)) == width * 11 and ring.unit_shift(pa) is None
    zring = KroneckerRing(("z",), 16, 1)
    assert list(zring.digits(zring.pack(2 * z**3 - 1), zring.slots(3), signed=True)) == [-1, 0, 0, 2]
    # a value past its slots, or negative with unsigned digits, is refused
    with pytest.raises(InternalError):
        zring.digits(zring.pack(z**4), zring.slots(3), signed=True)
    with pytest.raises(InternalError):
        zring.digits(-1, zring.slots(3), signed=False)
    with pytest.raises(DomainError):
        KroneckerRing(("N", "eps"), 8, 5).pack(eps**5)
    with pytest.raises(DomainError):
        zring.pack(Poly.const(Fraction(1, 2)))
    # a ring decodes through the parts of its fixed variables, so a
    # Casimir has no Kronecker ring
    assert zring.from_digits([-1, 0, 0, 2]) == 2 * z**3 - 1 and zring._monos is MONOMIAL_PARTS["z"]
    for names in (("C1",), ("N", "C1")):
        with pytest.raises(DomainError, match="^no Kronecker ring over"):
            KroneckerRing(names, 8, 2)


def test_packed_decode_refuses_a_set_guard_bit():
    ring = PackedRing(("N", "eps"))
    top = (1 << EXP_BITS) - 1
    assert ring.poly({top: 1}) == N**top
    # N^top * N: the exponent carries into N's guard bit
    overflow = packed_mul({top: 1}, {1: 1})
    assert overflow == {1 << EXP_BITS: 1}
    with pytest.raises(InternalError):
        ring.poly(overflow)
    with pytest.raises(InternalError):
        ring.poly({(1 << EXP_BITS) + (2 << SLOT_BITS): 5})


def test_poly_constructors():
    assert Poly.zero().is_zero()
    assert Poly.one() == Poly.const(1)
    assert Poly.const(0).is_zero()
    assert Poly.var("N", 0) == Poly.one()
    assert str(Poly.var("N", 3)) == "N^3"


def test_ring_arithmetic_is_exact():
    p = (N + 1) * (N - 1)
    assert p == N**2 - 1
    assert (N + eps) ** 2 == N**2 + 2 * N * eps + eps**2
    half = Poly.const(Fraction(1, 2))
    assert half + half == Poly.one()
    assert (half * N) * 2 == N


def test_zero_coefficients_are_dropped():
    p = N + eps - N
    assert p == eps
    assert p.variables() == {"eps"}
    assert not (N - N)


def test_integral_coefficients_are_ints():
    # a coefficient is held as an int exactly when it is integral
    assert type(Poly({(): Fraction(4, 2)}).terms[()]) is int
    assert Poly({(): Fraction(4, 2)}).terms[()] == 2
    assert type(Poly.const(Fraction(3, 2)).terms[()]) is Fraction
    half = Poly.const(Fraction(1, 2))
    assert all(type(c) is int for c in ((half + half) * N + half * 2 * eps + half * N + half * N).terms.values())
    assert half * N - (N - half * N) == Poly.zero()
    p = 3 * N**2 * eps - half * eps + 7
    assert (p - p).terms == {}
    assert (p + (-p)).terms == {}


def test_integral_fraction_and_int_coefficients_agree():
    # the public constructor takes either form of an integral coefficient
    as_fractions = Poly({(("N", 2),): Fraction(6, 3), (): Fraction(-5)})
    as_ints = Poly({(("N", 2),): 2, (): -5})
    assert as_fractions == as_ints
    assert hash(as_fractions) == hash(as_ints)
    assert as_fractions.terms == as_ints.terms
    assert str(as_fractions) == str(as_ints) == "-5 + 2*N^2"


def test_pow_and_degree():
    assert (N * eps).total_degree() == 2
    assert (N**0) == Poly.one()
    assert (N + 1) ** 3 == N**3 + 3 * N**2 + 3 * N + 1


def test_coefficient_lookup():
    p = 3 * N**2 * eps - Fraction(1, 2) * eps
    assert p.coefficient({"N": 2, "eps": 1}) == 3
    assert p.coefficient({"eps": 1}) == Fraction(-1, 2)
    assert p.coefficient({"N": 5}) == 0
    assert (p + 7).constant_term() == 7


def test_evaluate():
    p = N**2 - 2 * N * eps
    assert p.evaluate({"N": 3, "eps": Fraction(1, 2)}) == 9 - 3
    with pytest.raises(DomainError):
        p.evaluate({"N": 3})


def test_subs_polynomial():
    p = C2 + C1**2
    q = poly_subst(p, {"C1": N, "C2": N**2 - 1})
    assert q == 2 * N**2 - 1
    assert poly_subst(p, {}) == p
    assert p.subs({"C1": N, "C2": N**2 - 1}) == q


def test_canonical_string_ascending_degree():
    assert str(C3 + C1**2 - N * C2) == "C3 + C1^2 - N*C2"
    assert str(4 * x + 4) == "4 + 4*x"
    assert str(N**2 - eps**2) == "N^2 - eps^2"
    assert str(Poly.zero()) == "0"
    assert str(-N + 1) == "1 - N"
    assert str(Fraction(1, 2) * N) == "1/2*N"
    assert poly_to_string(C3 + C1**2 - N * C2) == str(C3 + C1**2 - N * C2)


def test_string_tie_break_within_degree():
    # within a fixed total degree the later variable's exponent dominates
    p = N * C2 + C1 * C2 + C2**2
    assert str(p) == "N*C2 + C1*C2 + C2^2"


def test_poly_coeffs_z_round_trip():
    p = 2 * z**2 + 5 * z**3
    assert poly_coeffs_z(p) == [0, 0, 2, 5]
    assert coeffs_to_poly_z(poly_coeffs_z(p)) == p
    assert poly_coeffs_z(Poly.zero()) == [0]
    with pytest.raises(DomainError):
        poly_coeffs_z(N + z)


def test_ratfunc_normalization_cancels_common_factors():
    # (1 - z) / (1 - z)^2 reduces to 1 / (1 - z)
    r = RatFunc.make(1 - z, 2)
    assert r.dpow == 1
    assert r.num == Poly.one()
    # polynomials normalize to dpow = 0
    p = (1 - z) ** 2 * (z + 2)
    assert RatFunc.make(p, 2) == RatFunc.from_poly(z + 2)
    assert RatFunc.from_poly(z + 2).is_polynomial()


def test_ratfunc_arithmetic():
    one_minus_z_inv = RatFunc.make(Poly.one(), 1)
    assert one_minus_z_inv + one_minus_z_inv == RatFunc.make(Poly.const(2), 1)
    assert one_minus_z_inv * RatFunc.from_poly(1 - z) == RatFunc.from_poly(1)


def test_ratfunc_series_geometric():
    # 1 / (1 - z) = 1 + z + z^2 + ...
    r = RatFunc.make(Poly.one(), 1)
    assert r.series(5) == [1, 1, 1, 1, 1, 1]
    # 1 / (1 - z)^2 = sum (n + 1) z^n
    r2 = RatFunc.make(Poly.one(), 2)
    assert r2.series(5) == [1, 2, 3, 4, 5, 6]
    assert ratfunc_series(r2, 5) == r2.series(5)
    # polynomial numerator shifts the expansion
    r3 = RatFunc.make(2 * z**2, 1)
    assert r3.series(5) == [0, 0, 2, 2, 2, 2]


def test_series_order_budget():
    # refused before the order + 1 coefficients are allocated
    r = RatFunc.make(Poly.one(), 1)
    assert MAX_SERIES_ORDER == 1000
    assert r.series(MAX_SERIES_ORDER) == [1] * (MAX_SERIES_ORDER + 1)
    for order in (-1, MAX_SERIES_ORDER + 1, 10**18):
        with pytest.raises(DomainError, match=f"^series order must be in 0..1000, got {order}$"):
            r.series(order)
    with pytest.raises(DomainError, match=r"^series order must be in 0..1000, got 99999\.\.\.99999 \(4000 digits\)$"):
        r.series(int("9" * 4000))


def _series_by_binomials(r: RatFunc, order: int) -> list[Fraction]:
    """Reference: the coefficient of z^n is sum_k c_k binom(n - k + d - 1, d - 1)."""
    coeffs = poly_coeffs_z(r.num)
    out = []
    for n in range(order + 1):
        if r.dpow == 0:
            out.append(Fraction(coeffs[n]) if n < len(coeffs) else Fraction(0))
        else:
            total = Fraction(0)
            for k, c in enumerate(coeffs[: n + 1]):
                total += c * comb(n - k + r.dpow - 1, r.dpow - 1)
            out.append(total)
    return out


def test_series_prefix_sums_match_binomial_sums():
    rng = Random(2023)
    for _ in range(300):
        coeffs = [
            rng.choice([0, 1, -1, 3, -7, Fraction(2, 3), Fraction(-5, 2)]) for _ in range(rng.randrange(9))
        ]
        r = RatFunc(coeffs_to_poly_z(coeffs), rng.randrange(13))  # any dpow, unnormalized
        for order in (0, 1, rng.randrange(21), 20):
            got = r.series(order)
            assert got == _series_by_binomials(r, order), (coeffs, r.dpow, order)
            assert all(type(c) is Fraction for c in got)


def test_ratfunc_evaluate():
    r = RatFunc.make(z + 1, 1)
    assert r.evaluate(Fraction(1, 2)) == 3
    assert str(r) == "(1 + z) / (1-z)"
    assert str(RatFunc.from_poly(z + 2)) == "2 + z"


def test_poly_hash_consistency():
    assert hash(N + 1) == hash(1 + N)
    d = {N + 1: "a"}
    assert d[Poly.var("N") + 1] == "a"


def test_from_coeffs_keeps_its_list_out_of_the_value():
    # the coefficient list from_coeffs keeps changes no equality, hash,
    # printed form or series: make, which goes through a Poly, agrees
    rng = Random(27)
    normalized = 0
    for _ in range(200):
        coeffs = [rng.choice([0, 0, 1, -1, 2, -3, 5, 4000, -(10**20)]) for _ in range(rng.randrange(1, 8))]
        for _ in range(rng.randrange(4)):  # some lists need normalizing: times (1-z)
            coeffs = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
        dpow = rng.randrange(6)
        a, b = RatFunc.from_coeffs(list(coeffs), dpow), RatFunc.make(coeffs_to_poly_z(coeffs), dpow)
        normalized += a.dpow < dpow
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b) and str(a) == str(b)
        direct = RatFunc(a.num, a.dpow)  # no list kept: series reads the Poly
        for order in (0, 3, 12):
            assert a.series(order) == b.series(order) == direct.series(order) == _series_by_binomials(a, order)
    assert normalized > 50
    assert repr(RatFunc.from_coeffs([1, 2], 1)) == "RatFunc(num=Poly(1 + 2*z), dpow=1)"


def test_series_is_exact_past_the_fraction_cache():
    SERIES_FRACTIONS.clear()
    big = RatFunc.from_coeffs([10**30, -3, 7 * 10**25], 3)
    assert big.series(9) == _series_by_binomials(big, 9)
    # a full cache stores nothing more; series stays exact
    for c in range(SERIES_FRACTIONS.cap + 10):
        SERIES_FRACTIONS[c]
    assert len(SERIES_FRACTIONS) == SERIES_FRACTIONS.cap
    r = RatFunc.from_coeffs([-5000, 3, 1], 2)
    assert r.series(20) == _series_by_binomials(r, 20)
    assert len(SERIES_FRACTIONS) == SERIES_FRACTIONS.cap
    SERIES_FRACTIONS.clear()


def test_fraction_cache_is_bounded():
    cache = Cache(lambda c: Fraction(c, 3), cap=5)
    assert cache.stats() == {"entries": 0, "cap": 5}
    assert [cache[c] for c in range(8)] == [Fraction(c, 3) for c in range(8)]
    assert cache.stats() == {"entries": 5, "cap": 5} and set(cache) == set(range(5))
    assert cache[2] is cache[2]  # one Fraction per key it holds
    assert cache[7] == Fraction(7, 3) and 7 not in cache  # past the cap: a fresh value
    cache.clear()
    assert cache.stats() == {"entries": 0, "cap": 5}
    # series shares the Fraction of each integer it has seen
    SERIES_FRACTIONS.clear()
    r = RatFunc.from_coeffs([1, 2, 3], 1)
    first, again = r.series(5), r.series(5)
    assert first == again == [1, 3, 6, 6, 6, 6]
    assert all(a is b for a, b in zip(first, again)) and all(type(c) is Fraction for c in first)
    assert SERIES_FRACTIONS.stats() == {"entries": 3, "cap": 4096}
    SERIES_FRACTIONS.clear()
