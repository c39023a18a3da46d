"""Truncated formal power series in u, v, w with Laurent-polynomial coefficients.

A series carries its own per-variable truncation bounds; mixed-bound
arithmetic truncates to the minimum, so precision loss is always explicit.
All operations are exact on the retained coefficients.

A product packs each exponent tuple into one int, a field per formal
variable as wide as a monomial key's (`coeffpoly._FIELD`), so that testing a
pair of terms against the bounds is one addition and one mask (`mul`).  Every
bound and exponent therefore lies below ``2**(_FIELD - 2)``, the bound of a
key's exponents too (`coeffpoly._HALF`); `make` rejects any other with
`SeriesOverflow`.
"""

from __future__ import annotations

from typing import Mapping

from .coeffpoly import _FIELD, _HALF, Combination, Frozen, LaurentPoly, NotInvertible, poly

FORMAL_VARS = ("u", "v", "w")


class VarMismatch(ValueError):
    pass


class NonUnitConstantTerm(ValueError):
    pass


class NonZeroConstantTerm(ValueError):
    pass


class SeriesOverflow(OverflowError):
    """A bound or exponent past what a packed exponent field holds."""


_MASK = (1 << _FIELD) - 1       # _FIELD bits per formal variable in a packed exponent
_TOP = 1 << (_FIELD - 1)        # the bit a field sets when a pair passes its bound
_LIMIT = _HALF                  # bounds and exponents lie below this


class TruncSeries(Frozen):
    def __init__(self, vars: tuple[str, ...], bounds: tuple[int, ...], coeffs: Combination):
        # coeffs: exponent tuple -> coefficient
        self.__dict__.update(vars=vars, bounds=bounds, coeffs=coeffs)

    def coeff(self, exps) -> LaurentPoly:
        exps = (exps,) if isinstance(exps, int) else tuple(exps)
        if len(exps) != len(self.vars):
            raise VarMismatch(f"exponents {exps} for variables {self.vars}")
        return self.coeffs[exps]

    def constant_coeff(self) -> LaurentPoly:
        return self.coeff((0,) * len(self.vars))

    def is_zero(self) -> bool:
        return not self.coeffs


def make(vars: tuple[str, ...], bounds: tuple[int, ...], coeffs: Mapping) -> TruncSeries:
    vars = tuple(vars)
    if tuple(sorted(vars, key=FORMAL_VARS.index)) != vars:
        raise VarMismatch(f"formal variables out of canonical order: {vars}")
    bounds = _checked_bounds(vars, bounds)
    clean = Combination()
    for exps, c in coeffs.items():
        exps = tuple(exps)
        if len(exps) != len(vars):
            raise VarMismatch(f"exponents {exps} for variables {vars}")
        c = poly(c)
        if c.is_zero():
            continue
        if all(0 <= e <= b for e, b in zip(exps, bounds)):
            clean[exps] = c
        elif min(exps) < 0:
            raise ValueError("negative exponent in series")
        elif max(exps) >= _LIMIT:
            raise SeriesOverflow(f"exponent in {exps} not below {_LIMIT}")
    return TruncSeries(vars, bounds, clean)


def _checked_bounds(vars, bounds) -> tuple:
    bounds = tuple(bounds)
    if len(bounds) != len(vars):
        raise VarMismatch(f"bounds {bounds} for variables {vars}")
    if any(b >= _LIMIT for b in bounds):
        raise SeriesOverflow(f"bound in {bounds} not below {_LIMIT}")
    return bounds


def _within(vars, bounds, coeffs: Combination, *olds) -> TruncSeries:
    """A series of coefficients whose keys `make` checked, each within one of
    the bounds ``olds``; only when a bound shrank are keys past it dropped."""
    if any(b < o for old in olds for b, o in zip(bounds, old)):
        kept = Combination()
        for exps, c in coeffs.items():
            if all(e <= b for e, b in zip(exps, bounds)):
                kept[exps] = c
        coeffs = kept
    return TruncSeries(vars, bounds, coeffs)


def zero(vars, bounds) -> TruncSeries:
    return make(vars, bounds, {})


def const(value, vars, bounds) -> TruncSeries:
    return make(vars, bounds, {(0,) * len(vars): poly(value)})


def lift(s: TruncSeries, vars: tuple[str, ...], bounds: tuple[int, ...],
         names: tuple[str, ...] | None = None) -> TruncSeries:
    """Embed a series into a larger formal-variable space; ``names``, when
    given, are the target variables of the series' own (a u-series lifted
    into the v slot)."""
    positions = []
    for v in s.vars if names is None else names:
        if v not in vars:
            raise VarMismatch(f"cannot lift: {v} not in {vars}")
        positions.append(vars.index(v))
    coeffs = {}
    for exps, c in s.coeffs.items():
        new = [0] * len(vars)
        for p, e in zip(positions, exps):
            new[p] = e
        coeffs[tuple(new)] = c
    return make(vars, bounds, coeffs)


def _common(a: TruncSeries, b: TruncSeries):
    if a.vars != b.vars:
        raise VarMismatch(f"variable sets differ: {a.vars} vs {b.vars}")
    return tuple(min(x, y) for x, y in zip(a.bounds, b.bounds))


def add(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    return _within(a.vars, _common(a, b), a.coeffs.copy().add_all(b.coeffs),
                   a.bounds, b.bounds)


def sub(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    return _within(a.vars, _common(a, b), a.coeffs.copy().add_all(b.coeffs, -1),
                   a.bounds, b.bounds)


def scale(a: TruncSeries, c) -> TruncSeries:
    c = poly(c)
    return TruncSeries(a.vars, a.bounds, a.coeffs.map(lambda p: p * c))


def _pack(exps) -> int:
    key = 0
    for e in reversed(exps):
        key = key << _FIELD | e
    return key


def mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """The truncated product.  Each exponent tuple is packed once, a's with a
    slack of _TOP - 1 - bound in each field, so that a field of the sum of two
    packed keys sets its _TOP bit exactly when the exponents pass the bound.
    Exponents and bounds below _LIMIT never carry into the next field, and a
    negative bound leaves one factor empty, so its slack meets no pair."""
    bounds = _common(a, b)
    slack = top = 0
    for i, bd in enumerate(bounds):
        slack |= (_TOP - 1 - bd) << (_FIELD * i)
        top |= _TOP << (_FIELD * i)
    pa = {_pack(e) + slack: c for e, c in a.coeffs.items()}
    pb = {_pack(e): c for e, c in b.coeffs.items()}
    out = Combination()
    for key, c in Combination.masked_product(pa, pb, top).items():
        key -= slack
        out[tuple(key >> (_FIELD * i) & _MASK for i in range(len(bounds)))] = c
    return TruncSeries(a.vars, bounds, out)


def product(*factors: TruncSeries) -> TruncSeries:
    out = factors[0]
    for f in factors[1:]:
        out = mul(out, f)
    return out


def derivative(a: TruncSeries, var: str) -> TruncSeries:
    if var not in a.vars:
        raise VarMismatch(f"{var} not a variable of the series")
    pos = a.vars.index(var)
    bounds = tuple(b - 1 if i == pos else b for i, b in enumerate(a.bounds))
    # e <= bound gives e - 1 <= bound - 1, and lowering one exponent is one-to-one
    coeffs = Combination()
    for exps, c in a.coeffs.items():
        e = exps[pos]
        if e:
            coeffs[exps[:pos] + (e - 1,) + exps[pos + 1:]] = c * e
    return TruncSeries(a.vars, bounds, coeffs)


def compose(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """Substitute ``inner``, whose constant term must vanish, for the single
    formal variable of ``outer``.  (The extended jet model composes through
    its own Horner loop, `jetgroup.jet_compose`.)"""
    if len(outer.vars) != 1:
        raise VarMismatch("compose expects a univariate outer series")
    c0 = inner.constant_coeff()
    if not c0.is_zero():
        raise NonZeroConstantTerm(f"inner constant term {c0.render()} is not zero")
    return subst(outer, {outer.vars[0]: inner})


def comp_inverse(x: TruncSeries, bound: int) -> TruncSeries:
    """Compositional inverse of a univariate series with zero constant term.

    Solved by forward substitution; the only divisions are by the linear
    coefficient, which must be a nonzero rational or an invertible monomial.
    """
    if len(x.vars) != 1:
        raise VarMismatch("comp_inverse expects a univariate series")
    var = x.vars[0]
    if not x.coeff((0,)).is_zero():
        raise NotInvertible("nonzero constant term")
    c1_inv = x.coeff((1,)).monomial_inverse()
    inv_coeffs = {(1,): c1_inv}
    for j in range(2, bound + 1):
        partial = make((var,), (j,), inv_coeffs)
        # [u^j] of sum_{i>=2} c_i * partial^i depends only on lower inverse coeffs.
        pairs = []
        power = mul(partial, partial)
        for i in range(2, j + 1):
            ci = x.coeff((i,))
            if not ci.is_zero():
                pairs.append((ci, power.coeff((j,))))
            if i < j:
                power = mul(power, partial)
        bj = -(LaurentPoly.sum_of_products(pairs) * c1_inv)
        if not bj.is_zero():
            inv_coeffs[(j,)] = bj
    return make((var,), (bound,), inv_coeffs)


def binomial_power(base: TruncSeries, exponent) -> TruncSeries:
    """(1 + w)**lam as sum of generalized binomial coefficients times w**k.

    ``exponent`` may be a polynomial or a rational; the binomial
    coefficients are polynomials in it.
    """
    if base.constant_coeff() != LaurentPoly.one():
        raise NonUnitConstantTerm("binomial power needs constant term 1")
    lam = poly(exponent)
    w = sub(base, const(1, base.vars, base.bounds))
    out = const(1, base.vars, base.bounds)
    wk = const(1, base.vars, base.bounds)
    binom = LaurentPoly.one()
    for k in range(1, sum(base.bounds) + 1):
        binom = binom * (lam - (k - 1)) / k
        wk = mul(wk, w)
        if wk.is_zero():
            break
        out = add(out, scale(wk, binom))
    return out


def truncate(a: TruncSeries, bounds: tuple[int, ...]) -> TruncSeries:
    return _within(a.vars, _checked_bounds(a.vars, bounds), a.coeffs, a.bounds)


def subst(s: TruncSeries, replacements: Mapping[str, TruncSeries]) -> TruncSeries:
    """Replace every formal variable of ``s`` by a series; all replacement
    series must live in one common variable space.  Each term multiplies
    cached powers of the replacements first and its coefficient last, so
    the products run on the replacements' coefficients alone."""
    repls = [replacements[v] for v in s.vars]
    space = repls[0]
    for r in repls[1:]:
        if r.vars != space.vars:
            raise VarMismatch("replacement series live in different spaces")
    bounds = tuple(min(r.bounds[i] for r in repls) for i in range(len(space.vars)))
    one = const(1, space.vars, bounds)
    caches: list[dict[int, TruncSeries]] = [{1: truncate(r, bounds)} for r in repls]

    def power(i: int, e: int) -> TruncSeries:
        cache = caches[i]
        if e not in cache:
            cache[e] = mul(power(i, e - 1), cache[1])
        return cache[e]

    total = Combination()
    for exps, c in s.coeffs.items():
        powers = [power(i, e) for i, e in enumerate(exps) if e]
        total.add_all((product(*powers) if powers else one).coeffs, c)
    return TruncSeries(space.vars, bounds, total)
