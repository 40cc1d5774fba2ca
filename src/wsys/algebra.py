"""Exact sparse multivariate polynomial arithmetic over the rationals.

A coefficient is an exact rational, held as an ``int`` when it is integral
and as a ``fractions.Fraction`` otherwise, so integer polynomials (every
``wgl`` value) compute in Python ``int`` throughout.

Variables are named by strings drawn from a fixed alphabet:

* ``"N"`` -- the dimension parameter,
* ``"C1", "C2", ...`` -- the Casimir variables (any positive index),
* ``"eps", "z", "u", "v", "w", "x", "y"`` -- specialization variables.

The fixed total order on variables is ``N < C1 < C2 < ... < eps < z < u <
v < w < x < y``; it determines the canonical ordering of factors inside a
monomial and the canonical ordering of monomials in the printed form (see
:func:`poly_to_string`).

:class:`RatFunc` is a univariate rational function in ``z`` whose
denominator is a power of ``1 - z`` (the only pole the interlace family
ever produces); it is kept normalized so equality is structural.  Its
series are ``Fraction`` lists whose integer entries come from one bounded
:class:`~wsys.caches.Cache`, :data:`SERIES_FRACTIONS`; the variable keys
and the rings' decoded monomials and digit biases are caches too, and so
is each fixed variable's table of monomial parts (:data:`MONOMIAL_PARTS`),
the one that every decode to a Poly in that variable reads.
:func:`subset_poly` turns a (|U|, statistic) histogram into a Poly from
those parts; the subset sums of ``invariants`` and ``glws.feps_direct``
and ``glws.feps_in_v`` share it.

Two working forms serve the recurrence engine in ``glws`` and the subset
convolutions of the Hopf projection in ``hopf``; both convert to
:class:`Poly` once at the end.  Each has the same few operations as
attributes (``one``, ``zero``, ``mul``, ``fold``), so one engine runs in
either:

* :class:`PackedRing`, a ring with a fixed tuple of variables: a value is
  a dict whose monomials are packed exponent vectors in one ``int``.  It
  holds the rings of many variables (``wgl``'s thousand Casimirs), sparse
  values past the Kronecker width classes, gl(1|1) in v = u/2 (integer
  coefficients) and the Hopf projection's generic ``Poly`` values, whose
  coefficients may be rational.
* :class:`KroneckerRing`, integer polynomials in one or two variables: a
  value is one ``int``, the polynomial evaluated at 2^width (Kronecker
  substitution).  Adding is an int add, a unit monomial a shift and a
  product one int multiply; a decode reads every slot at once through
  ``int.to_bytes`` and a ``memoryview`` cast.

The subset logarithm :func:`connected_parts`, the recursion of
:mod:`wsys.hopf` on values held by subset mask, and the pointed terms it
folds (:func:`pointed_terms`, also the terms of the exponential) run in
either ring, so the generic Hopf projection of ``hopf`` and the engine's
own (``glws.engine_projection``) share them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate, compress
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Union

from .caches import Cache
from .errors import DomainError, InternalError, is_uint, shorten_int

# A monomial is a tuple of (variable, exponent) pairs, sorted by the fixed
# variable order, with all exponents positive.  The empty tuple is the
# constant monomial.
Monomial = tuple[tuple[str, int], ...]

Coeflike = Union[int, Fraction]
Polylike = Union["Poly", int, Fraction]

#: Highest order RatFunc.series expands to, refused before any allocation.
MAX_SERIES_ORDER = 1000

_FIXED_VARS = {
    "N": (0, 0),
    "eps": (2, 0),
    "z": (2, 1),
    "u": (2, 2),
    "v": (2, 3),
    "w": (2, 4),
    "x": (2, 5),
    "y": (2, 6),
}


def var_key(name: str) -> tuple[int, int]:
    """Sort key realizing the fixed variable order; the keys met are kept
    in :data:`VAR_KEYS`."""
    if name in _FIXED_VARS:
        return _FIXED_VARS[name]
    if name.startswith("C") and is_uint(name[1:]) and int(name[1:]) >= 1:
        return (1, int(name[1:]))
    raise DomainError(f"unknown variable {name!r}")


#: var_key of each variable name met; an unknown name raises every time.
VAR_KEYS = Cache(var_key)


def _monomial_part(var: str, e: int) -> Monomial:
    return ((var, e),) if e else ()


#: The monomial part var^e of each fixed variable by exponent: ((var, e),),
#: or () at e = 0.  Parts joined in the fixed variable order make a
#: monomial.  A constant mapping: clear() empties a table, never replaces it.
MONOMIAL_PARTS = {var: Cache(partial(_monomial_part, var)) for var in _FIXED_VARS}


def casimir(k: int) -> str:
    """Name of the k-th Casimir variable."""
    if k < 1:
        raise DomainError(f"Casimir index must be >= 1, got {k}")
    return f"C{k}"


def _frac(value: Coeflike) -> Coeflike:
    """Canonical coefficient: an int when integral, else a Fraction."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise DomainError(f"not a rational coefficient: {value!r}")


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[str, int] = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items(), key=lambda it: VAR_KEYS[it[0]]))


class Poly:
    """Immutable sparse polynomial with exact rational coefficients, each an
    int when integral and a Fraction otherwise; zero terms are never stored.
    Public values may be shared objects (the engine returns one object per
    distinct int value), so ``terms`` must never be mutated."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Coeflike] | None = None):
        cleaned: dict[Monomial, Coeflike] = {}
        if terms:
            for mono, coef in terms.items():
                c = _frac(coef)
                if c:
                    cleaned[mono] = c
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _raw(cls, terms: dict[Monomial, Coeflike]) -> "Poly":
        """Adopt a dict the ring operations built: canonical coefficients,
        no zeros.  Skips the validation of the public constructor."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls._raw({(): 1})

    @classmethod
    def const(cls, value: Coeflike) -> "Poly":
        return cls({(): _frac(value)})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "Poly":
        VAR_KEYS[name]  # validates
        if exp < 0:
            raise DomainError(f"negative exponent {exp} for {name}")
        if exp == 0:
            return cls.one()
        return cls._raw({((name, exp),): 1})

    @staticmethod
    def coerce(value: Polylike) -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    # -- ring structure -------------------------------------------------

    def __add__(self, other: Polylike) -> "Poly":
        return self._combine(Poly.coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw({mono: -coef for mono, coef in self.terms.items()})

    def __sub__(self, other: Polylike) -> "Poly":
        return self._combine(Poly.coerce(other), -1)

    def __rsub__(self, other: Polylike) -> "Poly":
        return Poly.coerce(other) - self

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other in one pass over other's terms."""
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            c = terms.get(mono, 0) + sign * coef
            if c:
                terms[mono] = _frac(c)
            else:
                terms.pop(mono, None)
        return Poly._raw(terms)

    def __mul__(self, other: Polylike) -> "Poly":
        other = Poly.coerce(other)
        terms: dict[Monomial, Coeflike] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly._raw({mono: _frac(c) for mono, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Poly":
        if exp < 0:
            raise DomainError(f"negative exponent {exp}")
        result = Poly.one()
        for _ in range(exp):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[str]:
        return {var for mono in self.terms for var, _ in mono}

    def total_degree(self) -> int:
        return max((sum(e for _, e in mono) for mono in self.terms), default=0)

    def coefficient(self, mono: Mapping[str, int]) -> Coeflike:
        key = tuple(
            sorted(((v, e) for v, e in mono.items() if e), key=lambda it: VAR_KEYS[it[0]])
        )
        return self.terms.get(key, 0)

    def constant_term(self) -> Coeflike:
        return self.terms.get((), 0)

    # -- substitution and evaluation --------------------------------------

    def subs(self, bindings: Mapping[str, Polylike]) -> "Poly":
        """Simultaneous substitution; unbound variables pass through."""
        coerced = {name: Poly.coerce(val) for name, val in bindings.items()}
        result = Poly.zero()
        for mono, coef in self.terms.items():
            term = Poly.const(coef)
            for var, e in mono:
                factor = coerced.get(var)
                term = term * (factor ** e if factor is not None else Poly.var(var, e))
            result = result + term
        return result

    def evaluate(self, values: Mapping[str, Coeflike]) -> Fraction:
        """Numeric evaluation; every occurring variable must be bound."""
        total = Fraction(0)
        for mono, coef in self.terms.items():
            prod = coef
            for var, e in mono:
                if var not in values:
                    raise DomainError(f"unbound variable {var!r} in evaluation")
                prod *= _frac(values[var]) ** e
            total += prod
        return total

    # -- printing ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Coeflike]]:
        """Terms in canonical order: ascending total degree, ties broken by
        the exponent vector read from the highest variable down (smaller
        exponent on the highest differing variable comes first)."""
        support = sorted(self.variables(), key=VAR_KEYS.__getitem__, reverse=True)

        def key(item: tuple[Monomial, Coeflike]):
            mono, _ = item
            exps = dict(mono)
            return (
                sum(e for _, e in mono),
                tuple(exps.get(var, 0) for var in support),
            )

        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        return poly_to_string(self)

    def __repr__(self) -> str:
        return f"Poly({poly_to_string(self)})"


def _term_text(mono: Monomial, coef: Coeflike) -> str:
    mag = abs(coef)
    if not mono:
        return str(mag)
    factors = "*".join(f"{var}^{e}" if e > 1 else var for var, e in mono)
    return factors if mag == 1 else f"{mag}*{factors}"


def poly_to_string(p: Poly) -> str:
    """Canonical text form; the interchange format for CLI and golden files."""
    items = p.sorted_terms()
    if not items:
        return "0"
    parts: list[str] = []
    for i, (mono, coef) in enumerate(items):
        text = _term_text(mono, coef)
        if i == 0:
            parts.append(f"-{text}" if coef < 0 else text)
        else:
            parts.append(f" - {text}" if coef < 0 else f" + {text}")
    return "".join(parts)


def poly_subst(p: Poly, bindings: Mapping[str, Polylike]) -> Poly:
    """Module-level alias of :meth:`Poly.subs`."""
    return p.subs(bindings)


def subset_poly(
    counts: Mapping[tuple[int, int], int], mono: Callable[[int, int], Monomial | None]
) -> Poly:
    """Sum over subsets U of the monomial mono(|U|, stat(U)), read from the
    histogram {(|U|, stat): count} of a subset table or of
    :func:`~wsys.graphs.subset_counts` (the statistic is a corank or a
    distance).  The monomial is a concatenation of parts of
    :data:`MONOMIAL_PARTS` in the fixed variable order, and None leaves U
    out.  The result is adopted without validation, which holds because
    every count of a histogram is a positive int.
    """
    terms: dict[Monomial, int] = {}
    for (size, stat), count in counts.items():
        key = mono(size, stat)
        if key is not None:
            terms[key] = terms.get(key, 0) + count
    return Poly._raw(terms)


# -- packed exponent vectors ---------------------------------------------
#
# A packed value is a dict {monomial: coefficient} whose monomial is one
# int: variable i of the ring holds its exponent in bits [i*SLOT_BITS,
# (i+1)*SLOT_BITS), so a product of monomials is one integer add
# (M. Monagan and R. Pearce, "Polynomial division using dynamic arrays,
# heaps, and packed exponent vectors", CASC 2007).  Coefficients follow the
# Poly rule but are canonicalized only by PackedRing.poly; zero
# coefficients are never stored.  A slot has EXP_BITS exponent bits and one
# guard bit above them: an add of two in-range exponents that overflows
# sets the guard bit, and PackedRing.poly refuses it.  The last variable of
# a ring has no slot above it, so its exponent is not bounded: a
# univariate ring is not packed at all.

Packed = dict[int, Coeflike]

EXP_BITS = 10
SLOT_BITS = EXP_BITS + 1
_SLOT_MASK = (1 << SLOT_BITS) - 1


def packed_fold(a: Packed, terms: Iterable[tuple[int, int, Packed]]) -> Packed:
    """a + sum of sign * x^shift * b over the (sign, shift, b) of terms,
    sign 1 or -1 and x^shift the monomial whose packed form is shift, in
    one copy of a."""
    out = dict(a)
    get = out.get
    for sign, shift, b in terms:
        for mono, coef in b.items():
            mono += shift
            c = get(mono, 0) + sign * coef
            if c:
                out[mono] = c
            else:
                del out[mono]
    return out


def packed_mul(a: Packed, b: Packed) -> Packed:
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:  # a monomial: no two products collide
        ((m1, c1),) = a.items()
        return {m1 + m2: c1 * c2 for m2, c2 in b.items()}
    out: Packed = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = m1 + m2
            out[mono] = get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


class PackedRing:
    """A polynomial ring over fixed variables in packed form: variable i has
    slot i.  The names must be distinct and in the fixed variable order
    (not checked here: the check costs milliseconds at import for wgl's
    thousand Casimirs), so a decoded monomial needs no sort.

    Each packed monomial is decoded once; the ring keeps the Monomial
    tuple in the cache ``_monos``, so the Polys it returns share their
    monomials, as values the engine returned straight from its memo did."""

    __slots__ = ("names", "one", "zero", "mul", "fold", "_slot", "_monos")

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.one, self.zero, self.mul, self.fold = {0: 1}, {}, packed_mul, packed_fold
        self._slot = {name: i for i, name in enumerate(names)}
        self._monos = Cache(partial(_packed_monomial, names))

    def pack(self, p: Poly) -> Packed:
        """p in packed form; its variables must be the ring's."""
        top = len(self.names) - 1
        out: Packed = {}
        for mono, coef in p.terms.items():
            key = 0
            for var, e in mono:
                slot = self._slot.get(var)
                if slot is None:
                    raise DomainError(f"variable {var!r} is not in the ring {self.names}")
                if e >> EXP_BITS and slot < top:
                    raise DomainError(f"exponent {e} of {var} exceeds its slot")
                key += e << (slot * SLOT_BITS)
            out[key] = coef
        return out

    def unit_shift(self, value: Packed) -> int | None:
        """The packed monomial of a value that is one monomial with
        coefficient 1 (a fold adds it to every monomial), else None."""
        if len(value) == 1:
            ((mono, coef),) = value.items()
            if coef == 1:
                return mono
        return None

    def poly(self, value: Packed) -> Poly:
        """The Poly of a packed value; InternalError when a guard bit is set."""
        monos = self._monos
        return Poly._raw({monos[key]: _frac(coef) for key, coef in value.items()})


def _packed_monomial(names: tuple[str, ...], key: int) -> Monomial:
    """The Monomial of a packed monomial; InternalError on a set guard bit."""
    top = len(names) - 1
    mono = []
    slot = 0
    while key:
        if slot == top:
            e, key = key, 0
        else:
            e, key = key & _SLOT_MASK, key >> SLOT_BITS
            if e >> EXP_BITS:
                raise InternalError(f"exponent of {names[slot]} overflowed its slot")
        if e:
            mono.append((names[slot], e))
        slot += 1
    return tuple(mono)


def _univariate_poly(parts: Cache, coeffs: list[Coeflike]) -> Poly:
    """The Poly of a coefficient list [c0, c1, ...] in the variable of
    ``parts``, its nonzero terms picked in C."""
    monos = map(parts.__getitem__, range(len(coeffs)))
    return Poly._raw(dict(zip(compress(monos, coeffs), filter(None, coeffs))))


# -- Kronecker integers ---------------------------------------------------
#
# A polynomial with integer coefficients in one or two variables is held
# as its value at x = 2^width, one int (D. Harvey, "Faster polynomial
# multiplication via multipoint Kronecker substitution", J. Symbolic
# Comput. 2009).  Evaluation at 2^width is a ring homomorphism Z[x] -> Z,
# so sums and products of values are exact whatever their coefficients;
# only a decoded value needs its coefficients to fit their slots, which
# the owner of the ring proves from its own bounds.

# struct codes of the native signed ints by bit width (the unsigned code is
# the upper case), read in the native byte order
_NATIVE_INTS = {8: "b", 16: "h", 32: "i", 64: "q"}
_BYTEORDER = sys.byteorder


def kronecker_width(bound: int) -> int:
    """Slot bits for signed coefficients of magnitude at most bound: one
    bit above bound's, rounded up to a native int width (8, 16, 32, 64),
    or to a whole byte past 64 bits."""
    bits = bound.bit_length() + 1
    return next((w for w in _NATIVE_INTS if bits <= w), -(-bits // 8) * 8)


def int_fold(a: int, terms: Iterable[tuple[int, int, int]]) -> int:
    """a + sum of sign * b << shift over the (sign, shift, b) of terms: the
    Kronecker form of :func:`packed_fold`, where a unit monomial is a
    shift."""
    for sign, shift, b in terms:
        if shift:
            b <<= shift
        a = a + b if sign > 0 else a - b
    return a


class KroneckerRing:
    """Integer polynomials in one or two variables, each held as one int:
    the polynomial at x = 2^width.  A univariate monomial v^e sits at slot
    e; in a bivariate ring (outer, inner), in the fixed variable order,
    outer^i inner^j sits at slot i * stride + j, so every inner exponent
    must stay below stride.  The variables are fixed ones, whose parts
    (:data:`MONOMIAL_PARTS`) build the decoded monomials.  A value decodes
    exactly when each coefficient fits its slot: below 2^width for
    unsigned digits, below 2^(width - 1) in magnitude for signed ones.
    Which bound holds is the owner's to prove; every decode of the owner
    checks an identity that a carry between slots breaks."""

    __slots__ = ("names", "width", "stride", "one", "zero", "mul", "fold", "_code", "_monos", "_biases")
    _monos: list[Monomial] | Cache  # the Monomial of each slot made once, or a univariate ring's parts

    def __init__(self, names: tuple[str, ...], width: int, stride: int):
        if not 1 <= len(names) <= 2 or width <= 0 or width % 8 or not MONOMIAL_PARTS.keys() >= set(names):
            raise DomainError(f"no Kronecker ring over {names} with {width}-bit slots")
        self.names, self.width, self.stride = names, width, stride
        self.one, self.zero, self.mul, self.fold = 1, 0, mul, int_fold
        self._code = _NATIVE_INTS.get(width)
        self._monos = [] if len(names) == 2 else MONOMIAL_PARTS[names[0]]
        self._biases = Cache(lambda slots: ((1 << width * slots) - 1) // ((1 << width) - 1) << width - 1)

    def slots(self, degree: int) -> int:
        """The slots of a value whose every exponent is at most degree."""
        return (self.stride + 1) * degree + 1 if len(self.names) == 2 else degree + 1

    def pack(self, p: Poly) -> int:
        """p as one int; its variables must be the ring's, its coefficients
        integers and its inner exponents below the stride."""
        value = 0
        for mono, coef in p.terms.items():
            exps = dict(mono)
            if not isinstance(coef, int) or exps.keys() - set(self.names):
                raise DomainError(f"{p} is not an integer polynomial in {self.names}")
            *outer, inner = (exps.get(var, 0) for var in self.names)
            if outer and inner >= self.stride:
                raise DomainError(f"exponent {inner} of {self.names[1]} exceeds the stride {self.stride}")
            value += coef << self.width * (sum(outer) * self.stride + inner)
        return value

    def unit_shift(self, value: int) -> int | None:
        """The shift of a value that is one monomial with coefficient 1,
        else None."""
        return value.bit_length() - 1 if value > 0 and not value & value - 1 else None

    def digits(self, value: int, slots: int, signed: bool) -> list[int]:
        """The coefficients of a value that fits ``slots`` slots, up to its
        top nonzero slot, read in C: ``to_bytes`` and a ``memoryview`` cast
        (past 64 bits, one ``from_bytes`` per slot).  Signed digits add
        2^(width - 1) to every slot and flip the same bit back, so each
        slot reads as a native signed int.  InternalError when the value
        does not fit the slots (or is negative, for unsigned digits)."""
        width = self.width
        if signed:
            slots = min(slots, abs(value).bit_length() // width + 1)
            bias = self._biases[slots]
            value = value + bias ^ bias
        else:
            slots = min(slots, (value.bit_length() + width - 1) // width)
        size = width >> 3
        try:
            raw = value.to_bytes(size * slots, _BYTEORDER)
        except OverflowError:
            raise InternalError(f"a value does not fit {slots} slots of {width} bits") from None
        if self._code is not None:
            return memoryview(raw).cast(self._code if signed else self._code.upper()).tolist()
        return [int.from_bytes(raw[i : i + size], _BYTEORDER, signed=signed) for i in range(0, len(raw), size)]

    def from_digits(self, digits: list[int]) -> Poly:
        """The Poly of a value's digits, its nonzero slots picked in C from
        the variable's parts, or from the slot list of a bivariate ring."""
        monos = self._monos
        if len(self.names) == 1:
            return _univariate_poly(monos, digits)
        if len(digits) > len(monos):
            outer, inner = map(MONOMIAL_PARTS.__getitem__, self.names)
            for slot in range(len(monos), len(digits)):
                i, j = divmod(slot, self.stride)
                monos.append(outer[i] + inner[j])
        return Poly._raw(dict(zip(compress(monos, digits), filter(None, digits))))


# A value in either ring: a dict of a PackedRing or one int of a KroneckerRing.
Value = Union[Packed, int]
Ring = Union[PackedRing, KroneckerRing]


# -- the subset logarithm -------------------------------------------------


def pointed_terms(p: list[Value], g: list[Value], s: int, sign: int, mul) -> Iterator[tuple[int, int, Value]]:
    """Fold terms sign * p(T) * g(S - T) over the T strictly inside S holding min S."""
    low = s & -s
    rest = s ^ low
    r = rest
    while r:
        r = (r - 1) & rest
        t = low | r
        if p[t]:
            yield sign, 0, mul(p[t], g[s ^ t])


def connected_parts(values: list[Value], ring: Ring) -> list[Value]:
    """The subset logarithm p of values indexed by subset mask, values[0]
    taken as 1: p(S) = values(S) - sum p(T) values(S - T) over the T
    strictly inside S holding min S, each S one fold in the ring."""
    p: list[Value] = [ring.zero]
    fold, mul = ring.fold, ring.mul
    for s in range(1, len(values)):
        p.append(fold(values[s], pointed_terms(p, values, s, -1, mul)))
    return p


# -- univariate helpers (in z) -------------------------------------------


#: The Fraction of each integer series coefficient (RatFunc.series), at most
#: 4096; a Fraction is immutable, so series that share one print the same.
SERIES_FRACTIONS = Cache(Fraction, cap=4096)


def poly_coeffs_z(p: Poly) -> list[Coeflike]:
    """Coefficient list [c0, c1, ...] of a polynomial univariate in z."""
    coeffs: dict[int, Coeflike] = {}
    for mono, coef in p.terms.items():
        if not mono:
            coeffs[0] = coeffs.get(0, 0) + coef
        elif len(mono) == 1 and mono[0][0] == "z":
            deg = mono[0][1]
            coeffs[deg] = coeffs.get(deg, 0) + coef
        else:
            raise DomainError(f"polynomial not univariate in z: {p}")
    top = max(coeffs, default=0)
    return [coeffs.get(i, 0) for i in range(top + 1)]


def coeffs_to_poly_z(coeffs: Iterable[Coeflike]) -> Poly:
    """The Poly c0 + c1 z + ... of a coefficient list, its nonzero terms
    picked in C; only a coefficient that is not an int is canonicalized."""
    coeffs = list(coeffs)
    if not all(map(int.__instancecheck__, coeffs)):
        coeffs = [c if isinstance(c, int) else _frac(c) for c in coeffs]
    return _univariate_poly(MONOMIAL_PARTS["z"], coeffs)


@dataclass(frozen=True)
class RatFunc:
    """num / (1-z)^dpow, normalized: num never divisible by 1-z when dpow > 0.

    A value made by :meth:`from_coeffs` (so also by :meth:`make`, and by
    ``interlace_perm``) keeps its numerator's coefficient list, which
    :meth:`series` reads instead of the Poly.  The list is not a field of
    equality, hash, printing or the constructor: ``RatFunc(num, dpow)``
    builds the same value without it.  ``interlace_perm`` returns one
    object per distinct value, so ``num.terms`` must never be mutated."""

    num: Poly
    dpow: int
    _coeffs: tuple[Coeflike, ...] | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def make(cls, num: Poly, dpow: int) -> "RatFunc":
        return cls.from_coeffs(poly_coeffs_z(num), dpow)  # validates univariate-in-z

    @classmethod
    def from_coeffs(cls, coeffs: list[Coeflike], dpow: int) -> "RatFunc":
        """(c0 + c1 z + ...) / (1-z)^dpow, normalized."""
        if dpow < 0:
            raise DomainError(f"negative denominator power {dpow}")
        if not any(coeffs):
            return cls(Poly.zero(), 0)
        while dpow > 0 and not sum(coeffs):
            # num(1) = 0: divide by (1-z); quotient coefficients are the
            # prefix sums of the dividend's, the last of which is num(1).
            coeffs = list(accumulate(coeffs))
            coeffs.pop()
            dpow -= 1
        r = cls(coeffs_to_poly_z(coeffs), dpow)
        object.__setattr__(r, "_coeffs", tuple(coeffs))
        return r

    @classmethod
    def from_poly(cls, p: Polylike) -> "RatFunc":
        return cls.make(Poly.coerce(p), 0)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        d = max(self.dpow, other.dpow)
        one_minus_z = Poly.one() - Poly.var("z")
        a = self.num * one_minus_z ** (d - self.dpow)
        b = other.num * one_minus_z ** (d - other.dpow)
        return RatFunc.make(a + b, d)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(self.num * other.num, self.dpow + other.dpow)

    def is_polynomial(self) -> bool:
        return self.dpow == 0

    def series(self, order: int) -> list[Fraction]:
        """Taylor coefficients of z^0 .. z^order at z = 0.  Dividing by
        (1-z) takes prefix sums, so the series is dpow running prefix sums
        of the numerator's coefficients, in int for an integer numerator;
        each int's Fraction comes from :data:`SERIES_FRACTIONS`."""
        if not 0 <= order <= MAX_SERIES_ORDER:
            raise DomainError(f"series order must be in 0..{MAX_SERIES_ORDER}, got {shorten_int(order)}")
        coeffs = self._coeffs
        if coeffs is None:
            coeffs = poly_coeffs_z(self.num)
        coeffs = list(coeffs[: order + 1])
        coeffs += [0] * (order + 1 - len(coeffs))
        for _ in range(self.dpow):
            coeffs = list(accumulate(coeffs))
        return list(map(SERIES_FRACTIONS.__getitem__, coeffs))

    def evaluate(self, zval: Coeflike) -> Fraction:
        zval = _frac(zval)
        if zval == 1 and self.dpow > 0:
            raise DomainError("pole at z = 1")
        return self.num.evaluate({"z": zval}) / (1 - zval) ** self.dpow

    def __str__(self) -> str:
        if self.dpow == 0:
            return poly_to_string(self.num)
        denom = "(1-z)" if self.dpow == 1 else f"(1-z)^{self.dpow}"
        return f"({poly_to_string(self.num)}) / {denom}"


def ratfunc_series(r: RatFunc, order: int) -> list[Fraction]:
    """Module-level alias of :meth:`RatFunc.series`."""
    return r.series(order)
