"""Exact-arithmetic layer: ring axioms, substitution, grading, rendering."""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from jetpoisson import coeffpoly
from jetpoisson.coeffpoly import (
    Combination,
    ExponentOverflow,
    LaurentPoly,
    NotInvertible,
    Variable,
    VarKind,
    homogeneous_graded_degree,
    param,
    x_var,
    y_var,
    z_var,
)


def x(i, e=1):
    return LaurentPoly.var(x_var(i), e)


def random_poly(rng, allow_negative=False):
    """Four random terms in x1, x2, x3, each exponent in 0..2 (x1's from -2
    when allow_negative)."""
    total = LaurentPoly.zero()
    for _ in range(4):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        term = LaurentPoly.const(coeff)
        for i in range(1, 4):
            lo = -2 if (allow_negative and i == 1) else 0
            e = rng.randint(lo, 2)
            if e:
                term = term * LaurentPoly.var(x_var(i), e)
        total = total + term
    return total


def test_exact_scalar_is_reduced_rational():
    s = Fraction(6, -4)
    assert (s.numerator, s.denominator) == (-3, 2)
    assert Fraction(0, 7) == 0


def test_cancellation_and_laurent_product():
    assert (x(1) - x(1)).is_zero()
    assert x(1, 2) * x(1, -1) == x(1)


def test_ring_axioms_on_random_polys():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


ORACLE_VARS = (x_var(1), x_var(2), x_var(3))


def random_ref(rng, integer=False):
    """A naive Laurent polynomial in x1^{+-1}, x2, x3: exponent tuple -> Fraction,
    with integer coefficients only when ``integer`` is set."""
    ref = {}
    for _ in range(rng.randint(0, 6)):
        exps = (rng.randint(-2, 2), rng.randint(0, 2), rng.randint(0, 2))
        den = 1 if integer else rng.randint(1, 4)
        ref[exps] = ref.get(exps, 0) + Fraction(rng.randint(-6, 6), den)
    return {e: c for e, c in ref.items() if c}


def from_ref(ref):
    total = LaurentPoly.zero()
    for exps, c in ref.items():
        total = total + LaurentPoly.monomial(c, zip(ORACLE_VARS, exps))
    return total


def assert_canonical(p):
    """Int numerators, none zero, over a positive int denominator that
    shares no factor with all of them; so zero has denominator 1."""
    assert type(p.den) is int and p.den > 0, p.den
    assert all(type(num) is int and num for num in p.terms.values()), p.terms
    assert math.gcd(p.den, *p.terms.values()) == 1, (p.terms, p.den)


def as_ref(p):
    """The reference form of a canonical polynomial."""
    assert_canonical(p)
    codes = [v.code for v in ORACLE_VARS]
    out = {}
    for key, num in p.terms.items():
        factors = coeffpoly._unpack(key)
        exps = dict(factors)
        assert len(exps) == len(factors) and set(exps) <= set(codes) and 0 not in exps.values()
        exps = tuple(exps.get(code, 0) for code in codes)
        assert exps not in out
        out[exps] = Fraction(num, p.den)
    return out


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_derivative(a, pos):
    out = {}
    for e, c in a.items():
        if e[pos]:
            d = e[:pos] + (e[pos] - 1,) + e[pos + 1:]
            out[d] = out.get(d, 0) + c * e[pos]
    return {e: c for e, c in out.items() if c}


def ref_coefficient(a, pos, exp):
    return {e[:pos] + (0,) + e[pos + 1:]: c for e, c in a.items() if e[pos] == exp}


def ref_drop(a, positions, max_degree):
    return {e: c for e, c in a.items() if sum(e[p] for p in positions) <= max_degree}


def ref_pow(a, n):
    """a**n; for n < 0, a must be one term in x1 alone."""
    if n < 0:
        [(e, c)] = a.items()
        assert e[1:] == (0, 0)
        a, n = {(-e[0], 0, 0): 1 / c}, -n
    out = {(0, 0, 0): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_substitute(a, bindings):
    """Replace the variables at the bound positions by reference polys."""
    out = {}
    for e, c in a.items():
        term = {tuple(0 if p in bindings else x for p, x in enumerate(e)): c}
        for pos, repl in bindings.items():
            term = ref_mul(term, ref_pow(repl, e[pos]))
        out = ref_add(out, term)
    return out


def test_kernel_matches_naive_reference():
    rng = random.Random(13)
    # 60 pairs with rational coefficients, then 30 integer-only pairs, whose
    # sums and differences take the kernel's integer add path
    pairs = {False: [], True: []}
    substituted = Counter()  # by whether every variable is bound
    for integer in (False,) * 60 + (True,) * 30:
        ra, rb = random_ref(rng, integer), random_ref(rng, integer)
        a, b = from_ref(ra), from_ref(rb)
        assert as_ref(a) == ra and as_ref(b) == rb
        pairs[integer].append(((a, b), (ra, rb)))
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        scaled = ref_mul(rb, {(0, 0, 0): s} if s else {})
        assert as_ref(LaurentPoly.sum_of_products([(a, b), (b, s), (a, a)])) == \
            ref_add(ref_add(ref_mul(ra, rb), scaled), ref_mul(ra, ra))
        assert as_ref(LaurentPoly.sum_of_products([(a, b), (-a, b)])) == {}
        assert as_ref(a + b) == ref_add(ra, rb)
        assert as_ref(a - b) == ref_add(ra, rb, -1)
        assert as_ref(-a) == ref_add({}, ra, -1)
        assert as_ref(a * b) == ref_mul(ra, rb)
        assert as_ref(a * s) == ref_mul(ra, {(0, 0, 0): s} if s else {})
        if s:
            assert as_ref(a / s) == ref_mul(ra, {(0, 0, 0): 1 / s})
        for pos, v in enumerate(ORACLE_VARS):
            assert as_ref(a.derivative(v)) == ref_derivative(ra, pos)
            for exp in range(-2, 3):
                assert as_ref(a.coefficient(v, exp)) == ref_coefficient(ra, pos, exp)
        for positions in ((0,), (1,), (2,), (1, 2), (0, 1, 2)):
            codes = {ORACLE_VARS[p].code for p in positions}
            for max_degree in range(-2, 4):
                assert as_ref(a.drop_high_degree(codes, max_degree)) == \
                    ref_drop(ra, positions, max_degree)
        for e, c in ra.items():
            term = from_ref({e: c})
            if e[1:] == (0, 0):
                assert as_ref(term.monomial_inverse()) == ref_pow({e: c}, -1)
            else:
                with pytest.raises(NotInvertible):
                    term.monomial_inverse()
        unit = {(rng.choice((-2, -1, 1, 2)), 0, 0): Fraction(rng.randint(1, 5), rng.randint(1, 5))}
        # several variables at once, into polynomials in the same variables;
        # x1 only to a unit, since it occurs with negative exponents
        third = random_ref(rng, integer)
        for bindings in ({0: unit, 1: rb}, {0: unit, 1: rb, 2: third}, {2: third}, {1: ra, 2: rb}):
            got = a.substitute({ORACLE_VARS[p]: from_ref(r) for p, r in bindings.items()})
            assert as_ref(got) == ref_substitute(ra, bindings)
            substituted[len(bindings) == 3] += 1
    # the sum of the products of all pairs, against the naive sum(a * b)
    for group in pairs.values():
        want = {}
        for _, (ra, rb) in group:
            want = ref_add(want, ref_mul(ra, rb))
        assert as_ref(LaurentPoly.sum_of_products(polys for polys, _ in group)) == want
        assert LaurentPoly.sum_of_products(polys for polys, _ in group) == sum(
            (a * b for (a, b), _ in group), LaurentPoly.zero())
    assert substituted == {False: 270, True: 90}
    # sums over denominators 2, 3 and 6 whose total is an integer, through
    # every path that adds over a common denominator: the accumulator and
    # the product are each brought to the lcm, and the sum comes out over 1
    ra = {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(1, 3)}
    rb = {(1, 0, 0): Fraction(1, 3), (0, 1, 0): Fraction(2, 3)}
    rc = {(1, 0, 0): Fraction(1, 6)}
    a, b, c = from_ref(ra), from_ref(rb), from_ref(rc)
    whole = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1)}
    assert ref_add(ref_add(ra, rb), rc) == whole
    x2_third = from_ref({(0, 1, 0): Fraction(1, 3)})
    ones = {k: LaurentPoly.one() for k in range(3)}
    for total in (a + b + c, c + (b + a), a - (-b - c),
                  LaurentPoly.sum_of_products([(a, 1), (b, 1), (c, 1)]),
                  LaurentPoly.sum_of_products([(c, 1), (a, 1), (b, 1)]),
                  Combination.product({0: a, 1: b, 2: c}, ones, lambda ka, kb: ka + kb)[2],
                  Combination.masked_product({0: a, 1: b, 2: c}, ones, 8)[2],
                  (x(1) + 3 * x(3)).substitute({x_var(3): x2_third}),
                  (x(1) * Fraction(1, 2) + x(3)).substitute({x_var(3): x(1) * Fraction(1, 2) + x(2)})):
        assert as_ref(total) == whole and total.den == 1
    # products over 6, 6 and 3 summing to x1*x2, and a key that cancels
    # over 6 beside one that does not
    pairs = [(from_ref({(1, 0, 0): Fraction(1, 2)}), x2_third),
             (from_ref({(1, 0, 0): Fraction(1, 3)}), from_ref({(0, 1, 0): Fraction(1, 2)})),
             (from_ref({(1, 0, 0): Fraction(2, 3)}), x(2))]
    assert as_ref(LaurentPoly.sum_of_products(pairs)) == {(1, 1, 0): Fraction(1)}
    assert as_ref(LaurentPoly.sum_of_products(pairs + [(c, -6 * x(2)), (c, x(3))])) == \
        {(1, 0, 1): Fraction(1, 6)}
    # a content that cancels against den: 2*x1 + 4*x2 over 6 is x1 + 2*x2 over 3
    sixth = Fraction(1, 6)
    for third in ((2 * x(1) + 4 * x(2)) / 6,
                  LaurentPoly.sum_of_products([(x(1), sixth), (x(1), sixth), (x(2), 4 * sixth)]),
                  (x(1) * sixth + x(2) * (3 * sixth)) + (x(1) * sixth + x(2) * sixth),
                  ((x(1, 2) + 4 * x(2) * x(1) + x(3)) * sixth).derivative(x_var(1)),
                  ((2 * x(1) * x(3) + 4 * x(2) * x(3) + x(3, 2)) * sixth).coefficient(x_var(3), 1),
                  ((2 * x(1) + 4 * x(2) + x(3, 3)) * sixth).drop_high_degree({x_var(3).code}, 2)):
        assert as_ref(third) == {(1, 0, 0): Fraction(1, 3), (0, 1, 0): Fraction(2, 3)}
        assert third.den == 3 and sorted(third.terms.values()) == [1, 2]
    # exponents past 2, with unbound variables left over in some terms
    ra = {(1, 3, 4): Fraction(2, 3), (-2, 0, 3): Fraction(5), (0, 4, 0): Fraction(-1, 2)}
    for bindings in ({1: {(1, 1, 0): Fraction(3, 4), (0, 0, 2): Fraction(1)}},
                     {1: {(0, 0, 1): Fraction(-2)}, 2: {(-1, 2, 0): Fraction(1, 3)}}):
        got = from_ref(ra).substitute({ORACLE_VARS[p]: from_ref(r) for p, r in bindings.items()})
        assert as_ref(got) == ref_substitute(ra, bindings)
    # every key of the product of the bound powers is range-checked, also one
    # that a later factor or the leftover would bring back into range
    half = 2**29
    x1_to = {e: LaurentPoly.var(x_var(1), e) for e in (half, -5)}
    term = LaurentPoly.var(x_var(2)) * LaurentPoly.var(x_var(3)) * LaurentPoly.var(y_var(2))
    assert term.substitute({x_var(2): x1_to[half], x_var(3): x1_to[-5],
                            y_var(2): x1_to[half]}) == LaurentPoly.var(x_var(1), 2 * half - 5)
    with pytest.raises(ExponentOverflow):
        term.substitute({x_var(2): x1_to[half], x_var(3): x1_to[half], y_var(2): x1_to[-5]})
    with pytest.raises(ExponentOverflow):
        (term * x(1, -5)).substitute({x_var(2): x1_to[half], x_var(3): x1_to[half]})


def test_degree_is_the_bound_drop_high_degree_keeps():
    h = param("h")
    unused = z_var(78)
    # h is not invertible, so its negative exponents come from a raw key
    h_negative = LaurentPoly({coeffpoly._pack(((h.code, -2), (x_var(1).code, 1))): 1,
                              coeffpoly._pack(((h.code, -1),)): 3}, 1)
    rng = random.Random(29)
    refs = [{}, {(-2, 0, 0): Fraction(1), (-1, 1, 0): Fraction(3)}]
    refs += [random_ref(rng) for _ in range(40)]
    polys = [(from_ref(ra), ra) for ra in refs]
    polys += [(LaurentPoly({}, 1), {}), (h_negative, None), (LaurentPoly.var(h, 3) - 2, None)]
    assert sum(not ra for _, ra in polys if ra is not None) >= 3  # zero polynomials
    for p, ra in polys:
        if ra is not None:
            for pos, v in enumerate(ORACLE_VARS):
                assert p.degree(v) == max((e[pos] for e in ra), default=-math.inf)
                if ra:
                    assert p.degree(v, min) == min(e[pos] for e in ra)
        for v in ORACLE_VARS + (h, unused):
            for k in range(-4, 5):
                assert (p.drop_high_degree({v.code}, k) is p) == (p.degree(v) <= k), (p, v, k)
    assert h_negative.degree(h) == -1 and h_negative.degree(unused) == 0
    assert h_negative.degree(h, min) == -2 and (LaurentPoly.var(h, 3) - 2).degree(h, min) == 0
    assert LaurentPoly.var(h, 3).degree(h) == 3 and LaurentPoly.zero().degree(unused) == -math.inf
    assert unused.code not in coeffpoly._SLOT


def test_exponents_outside_the_key_range_raise():
    top = 2**30
    square = x(1)
    for _ in range(29):
        square = square * square
    assert square == x(1, 2**29)
    overflowing = [
        lambda: x(1, top),
        lambda: x(1) ** top,
        lambda: square * square,
        lambda: x(1, -top).monomial_inverse(),
        lambda: x(1, -top).derivative(x_var(1)),
        lambda: x(2, top // 2) * x(3) * x(2, top // 2),
        # a term pair out of range raises even when a later pair cancels it
        lambda: LaurentPoly.sum_of_products([(x(1, top // 2), x(1, top // 2)),
                                             (x(1, top // 2), -x(1, top // 2))]),
        # and even when the h cap would drop it
        lambda: Combination.product({0: x(1, top // 2) * LaurentPoly.var(param("h"))},
                                    {0: x(1, top // 2)}, lambda ka, kb: 0, -1),
    ]
    for make in overflowing:
        with pytest.raises(ExponentOverflow):
            make()
    assert issubclass(ExponentOverflow, OverflowError)
    # the ends of the range stay exact
    assert x(1, top - 1) * x(1, -(top - 1)) == 1
    assert x(1, -top).render() == f"1*x1^{-top}"
    assert x(1) ** -top == x(1, -top)
    assert x(1, top - 1).derivative(x_var(1)) == (top - 1) * x(1, top - 2)


def test_reads_of_an_unused_variable_see_exponent_zero():
    unused = z_var(77)
    p = x(1, -1) * x(2) + 3
    assert p.coefficient(unused, 0) == p and p.coefficient(unused, 1) == 0
    assert p.derivative(unused) == 0
    assert p.drop_high_degree({unused.code}, 0) == p
    assert p.drop_high_degree({unused.code}, -1) == 0
    assert p.drop_high_degree({unused.code, x_var(2).code}, 0) == 3
    assert p.substitute({unused: x(3)}) == p
    assert unused.code not in coeffpoly._SLOT  # a read assigns no slot


def test_scalar_parts_are_checked():
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.const((4, 0))
    with pytest.raises(ZeroDivisionError):
        x(2) / (1, 0)
    for bad in ((1, 2.0), ("1", 2), (1, 2, 3)):
        with pytest.raises(TypeError):
            LaurentPoly.const(bad)
    assert LaurentPoly.const((6, -4)) == Fraction(-3, 2)
    assert x(2) / (3, 2) == Fraction(2, 3) * x(2)
    # every scalar operand of * and / takes the same check: a float is not
    # the rational it was meant to be (0.1 is 3602879701896397/2^55), so it
    # is refused like any other inexact or unknown scalar, and a (num, den)
    # pair works with both
    for bad in (0.1, 0.5, 2.0, "2", (1, 2.0), (1, 2, 3), [1, 2]):
        with pytest.raises(TypeError):
            x(1) * bad
        with pytest.raises(TypeError):
            bad * x(1)
        with pytest.raises(TypeError):
            x(1) / bad
    half = LaurentPoly.const(Fraction(1, 2)) * x(1)
    assert x(1) * (1, 2) == (1, 2) * x(1) == x(1) / 2 == x(1) / (2, 1) == half
    assert x(1) * (6, -4) == x(1) / (-2, 3) == Fraction(-3, 2) * x(1)
    assert (x(1) * (3, 6)).render() == "1/2*x1" and (x(1) / (4, 6)).render() == "3/2*x1"
    assert (x(1) * (0, 5)).is_zero()
    with pytest.raises(ZeroDivisionError):
        x(1) * (1, 0)
    with pytest.raises(ZeroDivisionError):
        x(1) / (0, 3)


def test_hash_agrees_with_equality():
    for value in (0, 3, Fraction(-5, 7)):
        p = LaurentPoly.const(value)
        assert p == value and hash(p) == hash(value)
        assert {p: 1}.get(value) == 1 and {value: 1}.get(p) == 1
    assert {x(1) - x(1): "zero"}.get(0) == "zero"
    assert hash(x(1) + 1) == hash(1 + x(1))
    # a constant that reaches an integer over a denominator is that integer
    whole = LaurentPoly.const(Fraction(1, 2)) * 2
    assert whole == 1 and hash(whole) == hash(1) == hash(LaurentPoly.one())
    assert whole.terms == {0: 1} and whole.den == 1
    # polynomials that differ only in the denominator hash apart
    assert len({hash(x(1) / k) for k in range(1, 9)}) == 8


def test_slot_order_never_reaches_output():
    # two interpreters give the variables their key slots in opposite orders
    script = (
        "import sys\n"
        "from jetpoisson.coeffpoly import LaurentPoly, aux_t, density_var, param, x_var, z_var\n"
        "made = {'z9': lambda: z_var(9), 't': aux_t, 'x4': lambda: density_var(4),\n"
        "        'zeta': lambda: param('zeta'), 'x1': lambda: x_var(1)}\n"
        "v = {name: LaurentPoly.var(made[name]()) for name in sys.argv[1:]}\n"
        "p = (v['z9'] + 2 * v['x1']) * (v['t'] - v['zeta']) * v['x4']\n"
        "print(p.render())\n"
        "print((p * p).render())\n"
        "print((v['x1'] ** -2 * v['t'] ** 3 + v['zeta'] * v['z9']).render())\n"
        "print(sorted(str(u) for u in p.variables()))\n"
        "from jetpoisson.cli import main\n"
        "sys.exit(main(['verify', 'all', '--n', '3']))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    names = ["z9", "t", "x4", "zeta", "x1"]
    runs = [
        subprocess.run([sys.executable, "-c", script, *order], capture_output=True,
                       env=env, timeout=600)
        for order in (names, names[::-1])
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith(b"-2*x1*x4*zeta + 2*x1*x4*t + -1*z9*x4*zeta + 1*z9*x4*t\n")


def test_substitute_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(15):
        a, b = random_poly(rng), random_poly(rng)
        bindings = {
            x_var(1): LaurentPoly.const(Fraction(3, 2)),
            x_var(2): x(3) + 1,
        }
        assert (a * b).substitute(bindings) == a.substitute(bindings) * b.substitute(bindings)
        assert (a + b).substitute(bindings) == a.substitute(bindings) + b.substitute(bindings)


def test_substitute_examples():
    p = -x(1, 2) + x(1, 4)
    assert p.substitute({x_var(1): LaurentPoly.one()}).is_zero()
    q = x(2) * (x(1, 3) - 2 * x(1))
    assert q.substitute({x_var(2): LaurentPoly.zero()}).is_zero()
    cube = x(1, -3)
    assert cube.substitute({x_var(1): LaurentPoly.const(2)}) == LaurentPoly.const(Fraction(1, 8))


def test_substitute_singular_on_bad_binding():
    p = x(1, -1)
    with pytest.raises(NotInvertible):
        p.substitute({x_var(1): LaurentPoly.zero()})
    with pytest.raises(NotInvertible):
        p.substitute({x_var(1): x(2) + 1})


def test_negative_exponent_rejected_on_plain_variable():
    with pytest.raises(ValueError):
        LaurentPoly.var(x_var(2), -1)


def test_graded_degree_values():
    assert homogeneous_graded_degree(x(3) * x(4), 2) == 5
    h = LaurentPoly.var(param("h"))
    assert homogeneous_graded_degree(h * x(2) * x(1, 3), 2) == 3
    assert homogeneous_graded_degree(h * h * x(2) * x(1), 2) == 5
    # parameters weigh nothing; other kinds are undefined
    assert homogeneous_graded_degree(LaurentPoly.var(param("C")) * x(2), 1) == 1
    assert homogeneous_graded_degree(LaurentPoly.var(y_var(2)), 1) is None


def test_homogeneous_graded_degree():
    h = LaurentPoly.var(param("h"))
    p = 3 * x(2, 2) * x(1, 2) - 4 * x(2, 2)
    assert homogeneous_graded_degree(p, 2) == 2
    assert homogeneous_graded_degree(p + h, 2) == 2  # h itself weighs d
    assert homogeneous_graded_degree(p + h * x(2), 2) is None
    assert homogeneous_graded_degree(LaurentPoly.zero(), 2) == "zero"


def test_render_canonical_order():
    p = x(1, 4) - x(1, 2)
    assert p.render() == "-1*x1^2 + 1*x1^4"
    q = LaurentPoly.const(Fraction(3, 2)) * x(2) - x(1)
    assert q.render() == "-1*x1 + 3/2*x2"
    assert LaurentPoly.zero().render() == "0"


def test_render_orders_parameters_by_name_whatever_their_creation_order():
    script = (
        "import sys\n"
        "from jetpoisson.coeffpoly import LaurentPoly, param\n"
        "for name in sys.argv[1:]:\n"
        "    param(name)\n"
        "z, a = (LaurentPoly.var(param(name)) for name in ('zeta', 'alpha'))\n"
        "print((z + a).render())\n"
        "print((z * a * LaurentPoly.var(param('h'))).render())\n"
        "# a parameter that sorts first re-ranks the others: no order cached\n"
        "# before it may be compared with one made after it\n"
        "aaa = LaurentPoly.var(param('aaa'))\n"
        "print((z * a * LaurentPoly.var(param('h')) + aaa * z * LaurentPoly.var(param('h'))).render())\n"
        "print((aaa + a + z).render())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = [
        subprocess.run([sys.executable, "-c", script, *order], capture_output=True,
                       env=env, check=True, timeout=120).stdout
        for order in (("zeta", "alpha"), ("alpha", "zeta"), ("aaa", "zeta", "alpha"))
    ]
    assert outputs[0] == outputs[1] == outputs[2] == (
        b"1*alpha + 1*zeta\n1*h*alpha*zeta\n1*h*aaa*zeta + 1*h*alpha*zeta\n1*aaa + 1*alpha + 1*zeta\n")


def test_variable_identity_and_invertibility():
    assert Variable(VarKind.GROUP_X, 1).invertible
    assert not Variable(VarKind.GROUP_X, 2).invertible
    assert Variable(VarKind.AUX_T, 0).invertible
    assert Variable(VarKind.GROUP_X, 1) == Variable(VarKind.GROUP_X, 1)
    assert Variable(VarKind.GROUP_X, 1) != Variable(VarKind.GROUP_Y, 1)


def test_variable_index_beyond_its_kind_rejected():
    top = 2**20 - 2  # the largest index whose code stays inside its kind
    assert LaurentPoly.var(x_var(top)).render() == f"1*x{top}"
    for index in (top + 1, 2**20 + 5):
        with pytest.raises(ValueError):
            x_var(index)


def test_combination_accumulates_in_place():
    c = Combination()
    assert c[(9,)] == LaurentPoly.zero() and (9,) not in c
    for key, value in (("a", x(1)), ("b", x(2)), ("z", LaurentPoly.zero()), ("d", x(3))):
        c.add(key, value)
    assert list(c) == ["a", "b", "d"]
    c.add("a", x(2))
    assert list(c) == ["a", "b", "d"] and c["a"] == x(1) + x(2)
    c.add("b", -x(2))
    assert list(c) == ["a", "d"]
    c.add("b", x(4))
    assert list(c) == ["a", "d", "b"]
    assert Combination({"p": 0, "q": x(1) - x(1), "r": 2}) == {"r": 2}
    assert isinstance(c.copy(), Combination) and c.copy().add_all(c, -1) == {}
    assert c.map(lambda v: v - x(3)) == {"a": x(1) + x(2) - x(3), "b": x(4) - x(3)}

    # antisymmetric sums repeated pairs and skips the diagonal
    t = Combination.antisymmetric([((1, 2), 1), ((2, 2), 5), ((1, 2), x(1)), ((3, 0), 0)])
    assert t == {(1, 2): x(1) + 1, (2, 1): -x(1) - 1}

    # product joins keys and skips pairs joined to None; a scale is folded
    # into a factor first
    a = Combination({(1,): x(1), (2,): 1})
    b = Combination({(3,): x(2), (): 1})
    assert Combination.product(a, b, lambda ka, kb: ka + kb) == {
        (1, 3): x(1) * x(2), (1,): x(1), (2, 3): x(2), (2,): 1}
    odd = Combination.product(a.map(lambda v: v * 2), b, lambda ka, kb: None if kb else ka)
    assert odd == {(1,): 2 * x(1), (2,): 2}


def _per_pair_product(a, b, join, h_order, seen, scale=None):
    """The bilinear product as a loop over pairs: each product (times scale)
    is h-truncated and added into the table at once.  Counts into ``seen``
    the keys that cancel, the cancelled keys that come back and the terms
    the truncation drops."""
    from jetpoisson.quantum import h_truncate_poly

    out, gone = Combination(), set()
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = join(ka, kb)
            if key is None:
                continue
            c = ca * cb if scale is None else scale * (ca * cb)
            if h_order is not None:
                kept = h_truncate_poly(c, h_order)
                seen["capped"] += len(c.terms) - len(kept.terms)
                c = kept
            had = key in out
            out.add(key, c)
            if had and key not in out:
                seen["cancelled"] += 1
                gone.add(key)
            elif not had and key in out and key in gone:
                seen["reappeared"] += 1
    return out


def test_product_matches_the_per_pair_loop():
    h = LaurentPoly.var(param("h"))
    rational = [1, -1, x(1), -x(1), h, -h, x(1) - h, Fraction(1, 2) * h * h,
                Fraction(-1, 3) * x(2), h ** 3, x(1) * h - Fraction(2, 5)]
    integer = [1, -1, 2, x(1), -x(1), h, -h, x(1) - h, h * h, -(h ** 3), x(2) + 3 * h]

    def join(ka, kb):
        # few output keys, so joins collide; some pairs join to None
        return None if (ka * kb) % 7 == 6 else (ka + kb) % 4

    rng = random.Random(41)
    seen = Counter()
    cases = 0
    for pool in (rational, integer):
        pool = [LaurentPoly.const(c) if isinstance(c, int) else c for c in pool]
        for _ in range(150):
            a, b = (Combination((rng.randrange(6), rng.choice(pool))
                                for _ in range(rng.randint(2, 9))) for _ in range(2))
            for h_order in (None, 0, 2, 4):
                want = _per_pair_product(a, b, join, h_order, seen)
                assert list(Combination.product(a, b, join, h_order).items()) == list(want.items())
                cases += 1
            # a scalar folded into the left factor first, as tensor_reduce does
            c = rng.choice(pool) * rng.choice(pool)
            left = {k: c * v for k, v in a.items()}
            want = _per_pair_product(a, b, join, 2, seen, scale=c)
            assert list(Combination.product(left, b, join, 2).items()) == list(want.items())
    assert cases == 1200
    # observed 121 / 62 / 12,778; the floors keep the sample from thinning out
    assert seen["cancelled"] >= 110 and seen["reappeared"] >= 55 and seen["capped"] >= 12000, seen


def test_power_and_division():
    p = x(1) + 1
    assert p ** 3 == p * p * p
    assert p ** 0 == LaurentPoly.one()
    assert (x(1, 2) * 6) / 3 == 2 * x(1, 2)
    assert x(1) ** -2 == x(1, -2)


@pytest.mark.parametrize("value, terms, den", [
    (5, {0: 5}, 1), (-7, {0: -7}, 1), (2 ** 100, {0: 2 ** 100}, 1), (0, {}, 1),
    (True, {0: 1}, 1), (False, {}, 1),
    (Fraction(6, 4), {0: 3}, 2), (Fraction(-3), {0: -3}, 1), (Fraction(0), {}, 1),
    ((6, -4), {0: -3}, 2), ((4, 2), {0: 2}, 1), ((0, 5), {}, 1),
], ids=["int", "negative-int", "big-int", "zero", "true", "false", "fraction",
        "integral-fraction", "zero-fraction", "pair", "reducible-pair", "zero-pair"])
def test_const_builds_reduced_int_terms(value, terms, den):
    """An int is stored as its own numerator over 1 without a Fraction;
    bool, Fraction and (num, den) are reduced to a numerator over a positive
    denominator; zero in any form is the shared zero."""
    p = LaurentPoly.const(value)
    assert p.terms == terms and p.den == den
    assert all(type(num) is int for num in p.terms.values()) and type(p.den) is int
    if not terms:
        assert p is LaurentPoly.zero()
    assert p == Fraction(*value) if isinstance(value, tuple) else p == value


def test_coefficients_split_by_the_powers_of_a_variable():
    rng = random.Random(61)
    lam = LaurentPoly.var(param("lam"))
    for _ in range(20):
        p = random_poly(rng, allow_negative=True) * (lam + 2) + random_poly(rng) * lam ** 3
        for v in (x_var(1), x_var(2), param("lam")):
            parts = p.coefficients(v)
            assert set(parts) == {e for e in range(-4, 9) if p.coefficient(v, e)}
            for e, part in parts.items():
                assert part == p.coefficient(v, e) and part.degree(v) == 0
            assert sum((part * LaurentPoly.var(v, e) for e, part in parts.items()),
                       LaurentPoly.zero()) == p
    p = x(1, -1) * x(2) + 3
    assert p.coefficients(z_var(78)) == {0: p}
    assert LaurentPoly.zero().coefficients(x_var(1)) == {}
