"""Exact coefficient arithmetic: rationals and sparse multivariate Laurent polynomials.

Every identity in this package is checked over the rationals: a scalar is an
int or a `fractions.Fraction`, and a polynomial is a sparse map of integer
numerators over one common denominator.  This module holds the one
arithmetic kernel.  Above it, four functions of `quantum` work on term
maps: `nc_reduce` holds raw accumulators of `_poly_mac` beside its levels
and finishes them itself, `tensor_multiply` and `tensor_reduce` sum into
raw accumulators with `_mac_at` and `_finish_all`, and `_quantised` unpacks
the monomial keys of a bracket table (`_unpack`) to read each monomial as a
word.  No other layer touches a term map or a key.

A variable is a (kind, index) pair.  Group coordinates come in three kinds
(x, y, z) so that identities mixing several group elements stay unambiguous;
density coordinates, named parameters (C, C1..C5, lambda, h, ...) and the
opaque unit ``t`` (standing for a fractional power of a leading jet
coefficient) are further kinds.  Negative exponents are allowed only on
invertible variables: the leading coordinate of an invertible jet and the
opaque units.

Term maps, the layout behind `LaurentPoly.terms` and `LaurentPoly.den`:

  monomial  = sum(exp << (16 * slot))     one int; the constant monomial is 0
  terms     = {monomial: numerator}       int numerators, no zero stored
  den       = int > 0                     one denominator for every term

A polynomial is canonical: gcd(den, every numerator) == 1, and zero is
den == 1 with no terms, so equal polynomials have equal term maps and
denominators.  Every sum of products (a product itself,
`LaurentPoly.sum_of_products`, `Combination.masked_product`, `substitute`,
and the tensor products and rewriting sums of `quantum`) runs through one
multiply-accumulate loop, `_poly_mac`, into a raw accumulator: a
`LaurentPoly` of the same layout whose numerators may share a factor with
its denominator.  No zero numerator is stored, so it is empty exactly when
the sum is zero, and a keyed sum (`_mac_at`) deletes a key as soon as its
sum is empty.  The pair loop multiplies and adds plain ints; when a
product's denominator differs from the accumulator's, both are brought to
their lcm once per call, not per pair.  `_poly_finish` divides out gcd(den, *numerators) in one call when the
sum is complete (the content step of SymPy's `clear_denoms`), and `render`
reduces each term's num/den only as it prints it.

A monomial key packs its exponent vector into one Python int (Monagan and
Pearce's packed exponent vectors), one signed 16-bit field per variable slot,
so that multiplying two monomials is adding two ints.  A variable gets its
slot, in order of first use, when a monomial in it is first built (`var`);
reading a variable that has no slot sees exponent 0.  Every stored exponent
lies in [-2^14, 2^14), so the sum of two fields never carries into the next
one; each key an operation produces is checked against that range once, and
one outside it raises `ExponentOverflow` rather than alias another monomial.
The range is that of a series bound (`series._LIMIT` is `_HALF`), and no
workload builds an exponent above a few hundred; 16-bit fields keep the keys
short, and CPython hashes them with few collisions (a key's hash is its value
modulo 2^61 - 1, so the field offsets modulo 61 decide them).
Single-variable reads (`coefficient`, `coefficients`, `derivative`,
`degree`, `drop_high_degree`) are a shift and a mask, and `linear_part`
reads the fields of several variables with one mask.  Keys are decoded into
((varcode, exp), ...) only where names or order are needed: rendering,
`variables`, invertibility, `substitute` and the grading.  Slot numbers
never reach any output.

Term order is graded-lexicographic on the (kind, index) codes, except that
parameters past the fixed names are ranked by name; it is the order used by
`LaurentPoly.render`, so rendered polynomials are byte-stable whatever order
the variables and parameters were created in.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Mapping


# -- the kernel: arithmetic on raw term maps ---------------------------------


class ExponentOverflow(OverflowError):
    """An exponent left [-2^14, 2^14), the range a monomial key field holds."""


_FIELD = 16
_MASK = (1 << _FIELD) - 1
_HALF = 1 << (_FIELD - 2)      # exponents lie in [-_HALF, _HALF)
_SLOT: dict[int, int] = {}     # variable code -> slot
_SLOT_CODE: list[int] = []     # slot -> variable code
_BIAS = 0                      # _HALF in every slot's field
_TOP = 0                       # the top bit of every slot's field
_new = object.__new__


def _slot(code: int) -> int:
    """The slot of a variable code, assigned on first use."""
    global _BIAS, _TOP
    s = _SLOT.get(code)
    if s is None:
        s = _SLOT[code] = len(_SLOT_CODE)
        _SLOT_CODE.append(code)
        _BIAS |= _HALF << (_FIELD * s)
        _TOP |= 1 << (_FIELD * s + _FIELD - 1)
    return s


def _overflow() -> ExponentOverflow:
    return ExponentOverflow(f"exponent outside [-2^{_FIELD - 2}, 2^{_FIELD - 2})")


def _checked(key: int) -> int:
    """The key, once every field is known to lie in range.  Exact for any
    sum of two in-range keys: adding the bias lifts in-range fields to
    [0, 2^(_FIELD - 1)), and any other field sets its top bit or makes the sum
    negative."""
    b = key + _BIAS
    if b < 0 or b & _TOP:
        raise _overflow()
    return key


def _pack(factors) -> int:
    """The key of a product of (varcode, exp) factors."""
    key = 0
    for code, e in factors:
        if not -_HALF <= e < _HALF:
            raise _overflow()
        key += e << (_FIELD * _slot(code))
    return key


def _unpack(key: int) -> tuple:
    """The ((varcode, exp), ...) factors of a key, sorted by varcode."""
    out = []
    s = 0
    while key:
        e = key & _MASK
        if e > _MASK >> 1:
            e -= 1 << _FIELD
        if e:
            out.append((_SLOT_CODE[s], e))
        key = (key - e) >> _FIELD
        s += 1
    out.sort()
    return tuple(out)


def _poly_add(p, q, sign):
    """p + sign * q over the lcm of their denominators, canonical."""
    den, m = p.den, sign
    if den == q.den:
        out = dict(p.terms)
    else:
        den = lcm(den, q.den)
        mp, m = den // p.den, den // q.den * sign
        out = {k: n * mp for k, n in p.terms.items()}
    for k, n in q.terms.items():
        cur = out.get(k)
        if cur is None:
            out[k] = n * m
        else:
            n = cur + n * m
            if n:
                out[k] = n
            else:
                del out[k]
    return _poly_finish(LaurentPoly(out, den))


def _poly_scale(p, num, den):
    """p * num / den, for a scalar pair with den != 0."""
    if num == 0:
        return _ZERO
    if den < 0:
        num, den = -num, -den
    return _poly_finish(LaurentPoly({k: n * num for k, n in p.terms.items()}, p.den * den))


def _poly_mac(acc, p, q, cap=None):
    """acc += p*q, mutating and returning acc, a raw `LaurentPoly`; with acc
    None, p*q as a fresh raw `LaurentPoly` over p.den * q.den, the one entry
    for a product that starts a sum.

    The numerators of p*q are over p.den * q.den; when that differs from
    acc's denominator, both sides are brought to the lcm once, before the
    pairs, so the pair loop adds plain ints.  A term is deleted as soon as
    its numerator cancels, and a key is range-checked as it enters acc, so a
    pair outside the range raises even if a later pair cancels it.  ``cap``,
    a (shift, limit) pair, keeps out every key whose biased field at that
    shift exceeds limit."""
    pt, qt = p.terms, q.terms
    if len(pt) > len(qt):
        pt, qt = qt, pt
    d = p.den * q.den
    if acc is None:
        acc = _new(LaurentPoly)  # no __init__ frame: this is the hot fresh product
        acc.terms = terms = {}
        acc.den = d
    else:
        terms = acc.terms
        if d != acc.den:
            if not terms:
                acc.den = d
            else:
                den = lcm(acc.den, d)
                if den != acc.den:
                    m = den // acc.den
                    for k in terms:
                        terms[k] *= m
                    acc.den = den
                if den != d:
                    m = den // d
                    pt = {k: n * m for k, n in pt.items()}
    bias, top = _BIAS, _TOP
    for ka, na in pt.items():
        for kb, nb in qt.items():
            k = ka + kb
            cur = terms.get(k)
            if cur is None:
                b = k + bias
                if b < 0 or b & top:
                    raise _overflow()
                if cap is None or b >> cap[0] & _MASK <= cap[1]:
                    terms[k] = na * nb
                continue
            n = cur + na * nb
            if n:
                terms[k] = n
            else:
                del terms[k]
    return acc


def _poly_finish(acc):
    """A raw `LaurentPoly` made canonical, in place: the content its
    numerators share with the denominator is divided out once."""
    den = acc.den
    if den != 1:
        terms = acc.terms
        g = gcd(den, *terms.values())
        if g > 1:
            acc.den = den // g
            for k, n in terms.items():
                terms[k] = n // g
    return acc


def _mac_at(raw, key, p, q, cap):
    """raw[key] += p*q under the cap, in a dict of raw accumulators: a new
    key is kept only if its product is nonzero, and a key whose sum cancels
    is deleted at once, so keys keep their slots by the rule of
    `Combination.add`."""
    acc = raw.get(key)
    if acc is None:
        acc = _poly_mac(None, p, q, cap)
        if acc.terms:
            raw[key] = acc
    elif not _poly_mac(acc, p, q, cap).terms:
        del raw[key]


class VarKind(IntEnum):
    GROUP_X = 0
    GROUP_Y = 1
    GROUP_Z = 2
    DENSITY_X = 3
    PARAM = 4
    AUX_T = 5
    TAG = 6  # a private marker that has no name, so that rendering it raises


# Stride between kinds in the integer variable code; indices from -1 upward.
_STRIDE = 1 << 20
_MIN_INDEX = -1

_KIND_LETTERS = {
    VarKind.GROUP_X: "x",
    VarKind.GROUP_Y: "y",
    VarKind.GROUP_Z: "z",
    VarKind.DENSITY_X: "x",
}

# Well-known parameter names get fixed indices so term order (and therefore
# all rendered output) does not depend on call order.
_PARAM_NAMES = ["lam", "C", "C1", "C2", "C3", "C4", "C5", "h", "mu", "nu"]
_PARAM_INDEX = {name: i for i, name in enumerate(_PARAM_NAMES)}
_FIXED_PARAMS = len(_PARAM_NAMES)
# Render rank of each parameter created past the fixed names: the codes they
# occupy, handed out again in name order (see `param`).
_RENDER_RANK: dict[int, int] = {}
_RENDERED: dict[int, tuple] = {}  # monomial key -> (render order, text), see `_rendered`


class NotInvertible(ValueError):
    """A value that is not a rational times invertible variables was inverted."""


class Frozen:
    """Base of the read-only records: their fields are the parameters of their ``__init__``,
    which stores them in ``__dict__``; records of one class with equal fields are equal and
    hash equal.  Setting or deleting an attribute raises AttributeError."""

    def __init_subclass__(cls):
        init = cls.__init__.__code__
        cls._fields = init.co_varnames[1:init.co_argcount]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self):
        return hash(tuple([getattr(self, f) for f in self._fields]))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Variable(Frozen):
    def __init__(self, kind: VarKind, index: int):
        if index < _MIN_INDEX:
            raise ValueError(f"variable index {index} below minimum {_MIN_INDEX}")
        if index - _MIN_INDEX >= _STRIDE:
            # the code would spill into the next kind (x_{2^20+5} read back as y5)
            raise ValueError(f"variable index {index} above maximum {_STRIDE + _MIN_INDEX - 1}")
        self.__dict__.update(kind=kind, index=index)

    @property
    def invertible(self) -> bool:
        return _code_invertible(self.code)

    @property
    def code(self) -> int:
        return int(self.kind) * _STRIDE + (self.index - _MIN_INDEX)

    @property
    def name(self) -> str:
        if self.kind is VarKind.PARAM:
            return _PARAM_NAMES[self.index] if self.index < len(_PARAM_NAMES) else f"p{self.index}"
        if self.kind is VarKind.AUX_T:
            return "t" if self.index == 0 else f"t{self.index}"
        return f"{_KIND_LETTERS[self.kind]}{self.index}"


def decode(code: int) -> Variable:
    return Variable(VarKind(code // _STRIDE), code % _STRIDE + _MIN_INDEX)


def _code_invertible(code: int) -> bool:
    """The leading coordinate x1, y1, z1 of a jet and the opaque units t."""
    kind, index = code // _STRIDE, code % _STRIDE + _MIN_INDEX
    return (kind <= VarKind.GROUP_Z and index == 1) or kind == VarKind.AUX_T


def param(name: str) -> Variable:
    if name not in _PARAM_INDEX:
        _PARAM_INDEX[name] = len(_PARAM_NAMES)
        _PARAM_NAMES.append(name)
        first = Variable(VarKind.PARAM, _FIXED_PARAMS).code
        for rank, other in enumerate(sorted(_PARAM_NAMES[_FIXED_PARAMS:])):
            _RENDER_RANK[Variable(VarKind.PARAM, _PARAM_INDEX[other]).code] = first + rank
        _RENDERED.clear()  # every cached order holds the old ranks
    return Variable(VarKind.PARAM, _PARAM_INDEX[name])


def _rendered(key: int) -> tuple:
    """The render order of a monomial key and its text, such as ``*x1^2*h``,
    cached until `param` re-ranks the parameters."""
    out = _RENDERED.get(key)
    if out is None:
        factors = sorted(((_RENDER_RANK.get(code, code), e, decode(code).name)
                          for code, e in _unpack(key)))
        order = (sum(e for _, e, _ in factors), tuple((rank, e) for rank, e, _ in factors))
        text = "".join(f"*{name}" if e == 1 else f"*{name}^{e}" for _, e, name in factors)
        out = _RENDERED[key] = (order, text)
    return out


def aux_t(index: int = 0) -> Variable:
    return Variable(VarKind.AUX_T, index)


def _scalar(value) -> tuple[int, int]:
    """An exact scalar, an int or a Fraction, as a reduced (num, den) pair
    with den > 0.  Anything else, a float too, raises TypeError, since a
    float is not the rational it was meant to be."""
    if isinstance(value, int):
        return (int(value), 1)
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator)
    raise TypeError(f"not an exact scalar: {value!r}")


class LaurentPoly:
    """Sparse Laurent polynomial over the rationals: integer numerators over
    one positive common denominator, immutable once canonical.

    A raw accumulator of `_poly_mac` is an instance too, but one that is
    mutated in place and may be non-canonical, so `==` and `hash` give wrong
    answers for it: it is not compared, hashed or shared (each has one
    owner, which hands it on whole) until `_poly_finish` has made it
    canonical."""

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict, den: int):
        # terms and den are kernel values in canonical form (see the module
        # docstring), or a raw accumulator of `_poly_mac`; callers outside
        # this module should use the constructors below.
        self.terms = terms
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def const(value) -> "LaurentPoly":
        if value.__class__ is int:
            return LaurentPoly({0: value}, 1) if value else _ZERO
        num, den = _scalar(value)
        return LaurentPoly({0: num}, den) if num else _ZERO

    @staticmethod
    def var(v: Variable, exp: int = 1) -> "LaurentPoly":
        if exp == 0:
            return _ONE
        if exp < 0 and not v.invertible:
            raise ValueError(f"negative exponent on non-invertible variable {v.name}")
        return LaurentPoly({_pack(((v.code, exp),)): 1}, 1)

    @staticmethod
    def sum_of_products(pairs, start=None) -> "LaurentPoly":
        """start + sum(a * b for a, b in pairs), accumulated raw on a copy of
        the polynomial start (none: zero) and normalised once."""
        acc = LaurentPoly({}, 1) if start is None else LaurentPoly(dict(start.terms), start.den)
        for a, b in pairs:
            _poly_mac(acc, poly(a), poly(b))
        return _poly_finish(acc)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            other = poly(other)
        return _poly_add(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            other = poly(other)
        return _poly_add(self, other, -1)

    def __rsub__(self, other) -> "LaurentPoly":
        return poly(other) - self

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -n for k, n in self.terms.items()}, self.den)

    def __mul__(self, other) -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            num, den = _scalar(other)
            return _poly_scale(self, num, den)
        return _poly_finish(_poly_mac(None, self, other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentPoly":
        num, den = _scalar(other)
        if num == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return _poly_scale(self, den, num)

    def __pow__(self, exp: int) -> "LaurentPoly":
        if exp < 0:
            inv = self.monomial_inverse()
            return inv ** (-exp)
        result = None  # the first power taken is the result itself, not 1 times it
        base = self
        while exp:
            if exp & 1:
                result = base if result is None else result * base
            base = base * base if exp > 1 else base
            exp >>= 1
        return _ONE if result is None else result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        return isinstance(other, LaurentPoly) and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {0}:
            # a constant hashes as the scalar it equals
            return hash(self.constant_term())
        return hash((frozenset(self.terms.items()), self.den))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def monomial_inverse(self) -> "LaurentPoly":
        """1 / self; raises NotInvertible unless self is a rational times units."""
        if len(self.terms) != 1:
            raise NotInvertible(f"not an invertible monomial: {self.render()}")
        key, num = next(iter(self.terms.items()))
        if not all(_code_invertible(code) for code, _ in _unpack(key)):
            raise NotInvertible(f"not an invertible monomial: {self.render()}")
        den = self.den
        if num < 0:
            num, den = -num, -den
        return LaurentPoly({_checked(-key): den}, num)

    def variables(self) -> set[Variable]:
        """The variables of self, each distinct code decoded once."""
        return {decode(code) for code in {code for key in self.terms for code, _ in _unpack(key)}}

    def coefficient(self, v: Variable, exp: int) -> "LaurentPoly":
        """Collect the coefficient of v**exp (the rest of each matching term)."""
        return self.coefficients(v).get(exp, _ZERO)

    def coefficients(self, v: Variable) -> dict:
        """{exp: coefficient of v**exp} over the powers of v that occur."""
        slot = _SLOT.get(v.code)
        if slot is None:
            return {0: self} if self.terms else {}
        shift, bias = _FIELD * slot, _BIAS
        out: dict = {}
        for key, c in self.terms.items():
            e = ((key + bias) >> shift & _MASK) - _HALF
            out.setdefault(e, {})[key - (e << shift)] = c
        return {e: _poly_finish(LaurentPoly(terms, self.den)) for e, terms in out.items()}

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get(0, 0), self.den)

    # -- calculus / substitution -------------------------------------------

    def derivative(self, v: Variable) -> "LaurentPoly":
        slot = _SLOT.get(v.code)
        if slot is None:
            return _ZERO
        shift = _FIELD * slot
        bias, unit = _BIAS, 1 << shift
        out = {}
        # key -> key - unit is one-to-one, so no two terms meet
        for key, num in self.terms.items():
            e = ((key + bias) >> shift & _MASK) - _HALF
            if e:
                if e == -_HALF:
                    raise _overflow()
                out[key - unit] = num * e
        return _poly_finish(LaurentPoly(out, self.den))

    def substitute(self, bindings: Mapping[Variable, "LaurentPoly"]) -> "LaurentPoly":
        """Simultaneously replace variables by polynomials, exactly.

        Raises NotInvertible when a variable occurring with a negative
        exponent is bound to anything but an invertible monomial.

        A term's bound powers are multiplied raw; the last factor (the leftover
        monomial of unbound variables, if any) goes straight into the sum.  Each
        key is range-checked where a product of normalised polynomials checks it.
        """
        by_code = {v.code: poly(p) for v, p in bindings.items()}
        acc = LaurentPoly({}, 1)
        pow_cache: dict[tuple[int, int], LaurentPoly] = {}
        for key, num in self.terms.items():
            powers, leftover = [], key
            for vc, ve in _unpack(key):
                repl = by_code.get(vc)
                if repl is None:
                    continue
                leftover -= ve << (_FIELD * _SLOT[vc])
                ck = (vc, ve)
                powed = pow_cache.get(ck)
                if powed is None:
                    powed = pow_cache[ck] = repl ** ve
                powers.append(powed)
            if leftover or not powers:
                powers.append(LaurentPoly({leftover: 1}, 1))
            factor = LaurentPoly({0: num}, self.den)
            for powed in powers[:-1]:
                factor = _poly_mac(None, factor, powed)
            _poly_mac(acc, factor, powers[-1])
        return _poly_finish(acc)

    def linear_part(self, unit: Variable, others) -> dict:
        """{v: d self/dv at the point unit = 1, others = 0} for v = unit and
        each v in others, nonzero values only; every other variable stays a
        symbol.  Read from the terms of degree <= 1 in others: a term
        unit^e * rest adds e * rest at unit, and unit^e * v * rest adds rest
        at v."""
        bias = _BIAS
        ushift = _FIELD * _SLOT[unit.code] if unit.code in _SLOT else None
        shifts = {_FIELD * _SLOT[v.code]: v for v in others if v.code in _SLOT}
        single = {1 << shift: v for shift, v in shifts.items()}
        mask = sum(_MASK << shift for shift in shifts)
        low, e = bias & mask, 0
        out: dict = {}
        for key, num in self.terms.items():
            b = key + bias
            if ushift is not None:
                e = (b >> ushift & _MASK) - _HALF
                key -= e << ushift
            t = (b & mask) - low  # the fields of others, exponents >= 0
            if not t:
                v, num = unit, num * e
            else:
                v = single.get(t)
                if v is None:
                    continue
                key -= t
            if num:
                terms = out.setdefault(v, {})
                num += terms.get(key, 0)
                if num:
                    terms[key] = num
                else:
                    del terms[key]
        return {v: _poly_finish(LaurentPoly(terms, self.den)) for v, terms in out.items() if terms}

    def degree(self, v: Variable, pick=max) -> float:
        """The highest exponent of v in any term (the lowest with ``pick=min``):
        0 for a nonzero polynomial free of v, and -inf for the zero
        polynomial.  So ``p.drop_high_degree({v.code}, k) is p`` exactly when
        ``p.degree(v) <= k``."""
        if not self.terms:
            return -inf
        slot = _SLOT.get(v.code)
        if slot is None:
            return 0
        shift, bias = _FIELD * slot, _BIAS
        return pick((key + bias) >> shift & _MASK for key in self.terms) - _HALF

    def drop_high_degree(self, codes, max_degree: int) -> "LaurentPoly":
        """Drop terms whose total degree in the given variable codes exceeds
        the bound; self itself when no term is dropped."""
        shifts = [_FIELD * _SLOT[code] for code in codes if code in _SLOT]
        if not shifts:
            return self if max_degree >= 0 or not self.terms else _ZERO
        bias, limit = _BIAS, max_degree + _HALF * len(shifts)
        if len(shifts) == 1:
            shift = shifts[0]
            out = {key: c for key, c in self.terms.items()
                   if (key + bias) >> shift & _MASK <= limit}
        else:
            out = {key: c for key, c in self.terms.items()
                   if sum((key + bias) >> shift & _MASK for shift in shifts) <= limit}
        if len(out) == len(self.terms):
            return self
        return _poly_finish(LaurentPoly(out, self.den))

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical textual form, e.g. ``-1*x1^2 + 1*x1^4`` (used in reports):
        terms in graded-lexicographic order of the variable codes, with
        parameters past the fixed names ranked by name, the factors of each
        monomial in the same order, and each coefficient reduced."""
        if not self.terms:
            return "0"
        den = self.den
        parts = []
        for (_, text), num in sorted((_rendered(key), num) for key, num in self.terms.items()):
            g = gcd(num, den)
            coeff = str(num // g) if g == den else f"{num // g}/{den // g}"
            parts.append(coeff + text)
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.render()})"


_ZERO = LaurentPoly({}, 1)
_ONE = LaurentPoly({0: 1}, 1)


def poly(value) -> LaurentPoly:
    """A polynomial as itself, and an int or Fraction as a constant."""
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.const(value)
    raise TypeError(f"cannot coerce {value!r} to LaurentPoly")


class Combination(dict):
    """A sparse linear combination: a map from keys to nonzero LaurentPoly
    coefficients, in which a missing key reads as zero.

    Series coefficients, free-algebra elements, tensor tables, cochain levels
    and r-matrices are all combinations.  Write through ``add`` (or the
    constructor, which adds item by item), so that no zero is ever stored.
    The dict order is part of the contract, because verifiers that report
    the first offending key iterate it: a key that survives an update keeps
    its slot, a key that cancels is deleted, and a new key is appended.
    """

    __slots__ = ()

    def __init__(self, items=()):
        super().__init__()
        for key, c in items.items() if isinstance(items, Mapping) else items:
            self.add(key, poly(c))

    def __missing__(self, key) -> LaurentPoly:
        return _ZERO

    def add(self, key, c: LaurentPoly) -> None:
        """self[key] += c, in place."""
        cur = self.get(key)
        if cur is None:
            if c.terms:
                self[key] = c
            return
        s = cur + c
        if s.terms:
            self[key] = s
        else:
            del self[key]

    def add_all(self, other: Mapping, scale=None) -> "Combination":
        """self += scale * other, key by key in the order of ``other``; returns self."""
        for key, c in other.items():
            self.add(key, c if scale is None else c * scale)
        return self

    def copy(self) -> "Combination":
        out = Combination()
        dict.update(out, self)
        return out

    def map(self, fn) -> "Combination":
        """A new combination of the nonzero values fn(coefficient), same keys."""
        out = Combination()
        for key, c in self.items():
            v = fn(c)
            if v.terms:
                out[key] = v
        return out

    @staticmethod
    def masked_product(a: Mapping, b: Mapping, top: int) -> "Combination":
        """The bilinear product of two combinations keyed by ints: the sum of
        ca * cb at ka + kb over the pairs whose key sum has no bit of ``top``
        set.  The caller packs its keys so that a set bit marks a pair to
        drop (`series.mul`), so a pair costs one addition and one mask.  Each
        key's sum is accumulated raw (`_mac_at`) and normalised once; a key
        whose sum cancels is deleted at once, so slots follow the rule of
        ``add``."""
        bs = list(b.items())
        raw: dict = {}
        for ka, ca in a.items():
            for kb, cb in bs:
                key = ka + kb
                if not key & top:
                    _mac_at(raw, key, ca, cb, None)
        return _finish_all(raw)

    @staticmethod
    def antisymmetric(pairs) -> "Combination":
        """The antisymmetric table with (i, j) += c and (j, i) -= c for each
        ((i, j), c); repeated pairs are summed, the diagonal skipped."""
        out = Combination()
        for (i, j), c in pairs:
            c = poly(c)
            if i == j or not c.terms:
                continue
            out.add((i, j), c)
            out.add((j, i), -c)
        return out


def _h_cap(order: int) -> tuple:
    """The ``cap`` of `_poly_mac` that keeps out every term of degree in h above order."""
    return (_FIELD * _slot(_H_CODE), order + _HALF)


def _finish_all(raw: dict) -> Combination:
    """The combination of raw accumulators that are all nonzero, in their order."""
    out = Combination()
    for key, acc in raw.items():
        out[key] = _poly_finish(acc)
    return out


def compositions(total: int, parts: int):
    """Ordered tuples of ``parts`` positive integers with the given sum."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# -- the grading used by the quantum layer ----------------------------------

_H_CODE = Variable(VarKind.PARAM, _PARAM_INDEX["h"]).code


def graded_degree_of_key(key, d: int, word_weight: int = 0):
    """Weight of one commutative monomial: x_i has weight i-1, h has weight d,
    parameters weight 0.  Returns None (Undefined) when any other variable
    appears.  ``word_weight`` is added for callers that combine a coefficient
    monomial with a noncommutative word."""
    total = word_weight
    for code, e in _unpack(key):
        kind = code // _STRIDE
        index = code % _STRIDE + _MIN_INDEX
        if code == _H_CODE:
            total += e * d
        elif kind == VarKind.PARAM:
            continue
        elif kind == VarKind.GROUP_X:
            total += e * (index - 1)
        else:
            return None
    return total


def homogeneous_graded_degree(p: LaurentPoly, d: int, word_weight: int = 0):
    """The common graded degree of all terms, or None if mixed/undefined.

    The zero polynomial is homogeneous of every degree; it returns "zero".
    """
    degrees = {graded_degree_of_key(key, d, word_weight) for key in p.terms}
    if not degrees:
        return "zero"
    if len(degrees) == 1:
        return degrees.pop()
    return None


# The x coordinate constructor that the benchmark and the golden records read.

def x_var(i: int) -> Variable:
    return Variable(VarKind.GROUP_X, i)
