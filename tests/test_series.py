"""Truncated series: product, composition and substitution through cached
powers of the inner series, reversion, binomial powers."""

import functools
import random
from collections import Counter
from fractions import Fraction

import pytest

from jetpoisson import density as dn
from jetpoisson import jetgroup as jg
from jetpoisson import poissonlie as pl
from jetpoisson import series as ts
from jetpoisson.coeffpoly import Combination, LaurentPoly, Variable, VarKind, param, x_var


def xs(n, letter_var=x_var):
    return ts.make(("u",), (n,), {(i,): LaurentPoly.var(letter_var(i)) for i in range(1, n + 1)})


def test_product_basics():
    x = xs(3)
    assert ts.mul(x, ts.zero(("u",), (3,))).is_zero()
    u = ts.make(("u",), (3,), {(1,): 1})
    assert ts.mul(u, u).coeffs == {(2,): LaurentPoly.one()}


def test_product_lowest_terms_of_derivative_pair():
    # x'(u) x'(v) begins with x1^2 + 2 x1 x2 (u + v)
    n = 3
    space, bounds = ("u", "v"), (n, n)
    xp_u = ts.lift(ts.derivative(xs(n + 1), "u"), space, bounds)
    x_v = ts.make(("v",), (n + 1,), {(i,): LaurentPoly.var(x_var(i)) for i in range(1, n + 2)})
    xp_v = ts.lift(ts.derivative(x_v, "v"), space, bounds)
    prod = ts.mul(xp_u, xp_v)
    x1, x2 = LaurentPoly.var(x_var(1)), LaurentPoly.var(x_var(2))
    assert prod.coeff((0, 0)) == x1 * x1
    assert prod.coeff((1, 0)) == 2 * x1 * x2
    assert prod.coeff((0, 1)) == 2 * x1 * x2


def test_compose_identity_and_known_coefficients():
    x = xs(3)
    u = ts.make(("u",), (3,), {(1,): 1})
    assert ts.compose(x, u).coeffs == x.coeffs
    y1, y2, y3 = (LaurentPoly.var(Variable(VarKind.GROUP_Y, i)) for i in range(1, 4))
    y = ts.make(("u",), (3,), {(1,): y1, (2,): y2, (3,): y3})
    z = ts.compose(x, y)
    x1, x2, x3 = (LaurentPoly.var(x_var(i)) for i in range(1, 4))
    assert z.coeff((2,)) == x1 * y2 + x2 * y1 ** 2
    assert z.coeff((3,)) == x1 * y3 + 2 * x2 * y1 * y2 + x3 * y1 ** 3


def test_compose_rejects_plain_constant_term():
    outer = xs(3)
    inner = ts.make(("u",), (3,), {(0,): LaurentPoly.one(), (1,): LaurentPoly.one()})
    with pytest.raises(ts.NonZeroConstantTerm):
        ts.compose(outer, inner)
    # the nilpotent degree-0 coordinates too: the extended model composes in jetgroup
    x0, y0, x1 = (LaurentPoly.var(v) for v in (x_var(0), Variable(VarKind.GROUP_Y, 0), x_var(1)))
    for c0 in (x1, x0 * x1, x0 * y0):
        with pytest.raises(ts.NonZeroConstantTerm):
            ts.compose(outer, ts.make(("u",), (3,), {(0,): c0, (1,): 1}))


def test_compose_associativity_symbolic():
    n = 6
    a, b, c = (xs(n, functools.partial(Variable, kind))
               for kind in (VarKind.GROUP_X, VarKind.GROUP_Y, VarKind.GROUP_Z))
    left = ts.compose(ts.compose(a, b), c)
    right = ts.compose(a, ts.compose(b, c))
    assert left.coeffs == right.coeffs


def test_chain_rule():
    n = 5
    a, b = xs(n), xs(n, functools.partial(Variable, VarKind.GROUP_Y))
    lhs = ts.derivative(ts.compose(a, b), "u")
    rhs = ts.mul(ts.truncate(ts.compose(ts.derivative(a, "u"), b), (n - 1,)),
                 ts.truncate(ts.derivative(b, "u"), (n - 1,)))
    assert lhs.coeffs == rhs.coeffs


def test_derivative_examples():
    x = xs(3)
    d = ts.derivative(x, "u")
    x1, x2, x3 = (LaurentPoly.var(x_var(i)) for i in range(1, 4))
    assert d.coeff((0,)) == x1 and d.coeff((1,)) == 2 * x2 and d.coeff((2,)) == 3 * x3
    # d/du of u v (u - v) = v (2u - v)
    phi = ts.make(("u", "v"), (3, 3), {(2, 1): LaurentPoly.one(), (1, 2): -LaurentPoly.one()})
    dphi = ts.derivative(phi, "u")
    assert dphi.coeff((1, 1)) == LaurentPoly.const(2)
    assert dphi.coeff((0, 2)) == LaurentPoly.const(-1)


def test_comp_inverse_is_two_sided_and_matches_forward_substitution():
    # oracle first: the defining property under composition, then the closed
    # forms obtained from it by hand
    x = xs(5)
    inv = ts.comp_inverse(x, 5)
    u = ts.make(("u",), (5,), {(1,): 1})
    assert ts.compose(x, inv).coeffs == u.coeffs
    assert ts.compose(inv, x).coeffs == u.coeffs
    x1, x2, x3 = (LaurentPoly.var(x_var(i)) for i in range(1, 4))
    two = ts.comp_inverse(ts.make(("u",), (2,), {(1,): x1, (2,): x2}), 2)
    assert two.coeff((1,)) == x1 ** -1
    assert two.coeff((2,)) == -(x2 * x1 ** -3)
    three = ts.comp_inverse(ts.make(("u",), (3,), {(1,): x1, (2,): x2, (3,): x3}), 3)
    assert three.coeff((3,)) == (2 * x2 ** 2 - x1 * x3) * x1 ** -5


def test_comp_inverse_requires_unit_linear_coefficient():
    bad = ts.make(("u",), (3,), {(1,): LaurentPoly.var(x_var(2))})
    with pytest.raises(ts.NotInvertible):
        ts.comp_inverse(bad, 3)
    with pytest.raises(ts.NotInvertible):
        ts.comp_inverse(ts.make(("u",), (3,), {(2,): LaurentPoly.one()}), 3)


def test_binomial_power_coefficients():
    lam = LaurentPoly.var(param("lam"))
    w = ts.make(("u",), (4,), {(1,): LaurentPoly.var(x_var(2))})
    base = ts.add(ts.const(1, ("u",), (4,)), w)
    p = ts.binomial_power(base, lam)
    x2 = LaurentPoly.var(x_var(2))
    assert p.coeff((1,)) == lam * x2
    assert p.coeff((2,)) == lam * (lam - 1) / 2 * x2 ** 2
    one = ts.binomial_power(ts.const(1, ("u",), (4,)), lam)
    assert one.coeffs == ts.const(1, ("u",), (4,)).coeffs
    with pytest.raises(ts.NonUnitConstantTerm):
        ts.binomial_power(w, lam)


def test_mixed_bounds_take_minimum():
    a = ts.make(("u",), (5,), {(5,): LaurentPoly.one(), (1,): LaurentPoly.one()})
    b = ts.make(("u",), (2,), {(1,): LaurentPoly.one()})
    assert ts.mul(a, b).bounds == (2,)
    with pytest.raises(ts.VarMismatch):
        ts.mul(a, ts.make(("v",), (2,), {}))


def test_mismatched_lengths_are_rejected():
    # (1,) and (1, 0) would both render as u^1
    with pytest.raises(ts.VarMismatch):
        ts.make(("u", "v"), (3, 3), {(1,): 1, (1, 0): 2})
    with pytest.raises(ts.VarMismatch):
        ts.make(("u",), (3, 4), {(1,): 1})
    with pytest.raises(ts.VarMismatch):
        ts.zero(("u", "v"), (3,))
    s = ts.make(("u", "v"), (3, 3), {(1, 0): 2})
    assert s.coeff((1, 0)) == LaurentPoly.const(2)
    for exps in ((1,), 1, (1, 0, 0)):
        with pytest.raises(ts.VarMismatch):
            s.coeff(exps)
    assert ts.make(("u",), (3,), {(1,): 1}).coeff(1) == LaurentPoly.one()


def test_bounds_and_exponents_past_the_packed_field_are_rejected():
    limit = ts._LIMIT
    assert ts.make(("u",), (limit - 1,), {(limit - 1,): 1}).coeff(limit - 1) == LaurentPoly.one()
    with pytest.raises(ts.SeriesOverflow):
        ts.make(("u",), (limit,), {})
    with pytest.raises(ts.SeriesOverflow):
        ts.zero(("u", "v"), (2, limit))
    # an exponent that would pass the field is an error, not a truncation
    with pytest.raises(ts.SeriesOverflow):
        ts.make(("u", "v"), (2, 2), {(0, limit): 1})
    with pytest.raises(ValueError):
        ts.make(("u",), (2,), {(-1,): 1})
    # below the field an exponent past the bound is truncated, as before
    assert ts.make(("u",), (2,), {(3,): 1, (1,): 1}).coeffs == {(1,): LaurentPoly.one()}
    # negative bounds keep nothing and need no field
    assert ts.make(("u",), (-2,), {(0,): 1}).is_zero()


def _all_pairs_product(a, b, seen):
    """The product as a loop over all pairs of terms: exponents joined into
    a tuple, the pair dropped when a sum passes the common bound, the
    product added into the table at once.  Counts into ``seen`` the pairs
    dropped, the keys that cancel and the cancelled keys that come back."""
    bounds = tuple(min(x, y) for x, y in zip(a.bounds, b.bounds))
    out, gone = Combination(), set()
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            if any(e > bd for e, bd in zip(exps, bounds)):
                seen["pruned"] += 1
                continue
            had = exps in out
            out.add(exps, ca * cb)
            if had and exps not in out:
                seen["cancelled"] += 1
                gone.add(exps)
            elif not had and exps in gone:
                seen["reappeared"] += 1
    return bounds, out


def test_mul_matches_the_all_pairs_product():
    x1, x2 = LaurentPoly.var(x_var(1)), LaurentPoly.var(x_var(2))
    rational = [1, -1, Fraction(1, 2), Fraction(-2, 3), x1 - Fraction(1, 3),
                Fraction(-2, 3) * x2, x1 * x2]
    integer = [1, -1, 2, x1 + 1, x2 - x1, -x2, x1 * x2]
    units = [1, -1]  # equal products, so that a cancelled key comes back
    rng = random.Random(29)
    seen = Counter()
    cases = 0

    def series(space, pool):
        bounds = tuple(rng.choice((0, 1, 2, 3, 4)) for _ in space)
        terms = {tuple(rng.randint(0, bd) for bd in bounds): rng.choice(pool)
                 for _ in range(rng.randint(2, 10))}
        s = ts.make(space, bounds, terms)
        if rng.random() < 0.1:
            # d/du of a bound-0 variable leaves bound -1
            s = ts.derivative(ts.make(space, (0,) + bounds[1:], terms), space[0])
        return s

    for pool in (rational, integer, units):
        for nvars in (1, 2, 3):
            space = ts.FORMAL_VARS[:nvars]
            for _ in range(50):
                a, b = series(space, pool), series(space, pool)
                if rng.random() < 0.5:
                    # a(u) * a(-u): its odd coefficients cancel pair by pair
                    b = ts.make(space, b.bounds, {e: c * (-1) ** sum(e)
                                                  for e, c in a.coeffs.items()})
                bounds, want = _all_pairs_product(a, b, seen)
                got = ts.mul(a, b)
                assert got.bounds == bounds
                assert list(got.coeffs.items()) == list(want.items()), (a, b)
                seen["negative"] += min(bounds) < 0
                cases += 1
    assert cases == 450
    # observed 3,080 / 159 / 24 / 93; the floors keep the sample from thinning out
    assert (seen["pruned"] >= 2800 and seen["cancelled"] >= 140 and seen["reappeared"] >= 20
            and seen["negative"] >= 80), seen


def test_sums_truncations_and_derivatives_match_make():
    # add, sub, truncate and derivative build on keys `make` already checked;
    # they must equal `make` run again on the same coefficients, key order too
    x1 = LaurentPoly.var(x_var(1))
    pool = [1, -1, Fraction(1, 2), x1 - Fraction(1, 3), Fraction(-2, 3) * x1]
    rng = random.Random(31)
    seen = Counter()

    def series(space):
        bounds = tuple(rng.choice((-1, 0, 1, 2, 3, 4)) for _ in space)
        terms = {tuple(rng.randint(0, 4) for _ in space): rng.choice(pool)
                 for _ in range(rng.randint(0, 8))}
        return ts.make(space, bounds, terms)

    def same(got, want):
        assert got.bounds == want.bounds and got.vars == want.vars
        assert list(got.coeffs.items()) == list(want.coeffs.items())

    for nvars in (1, 2, 3):
        space = ts.FORMAL_VARS[:nvars]
        for _ in range(60):
            a, b = series(space), series(space)
            if rng.random() < 0.3:
                b = ts.scale(a, rng.choice((-1, 2)))  # a - b or a + b cancels keys
            bounds = tuple(min(p, q) for p, q in zip(a.bounds, b.bounds))
            inside = {e for e in set(a.coeffs) | set(b.coeffs)
                      if all(p <= bd for p, bd in zip(e, bounds))}
            seen["pruned"] += len(inside) < len(set(a.coeffs) | set(b.coeffs))
            for op, scale in ((ts.add, None), (ts.sub, -1)):
                got = op(a, b)
                same(got, ts.make(space, bounds, a.coeffs.copy().add_all(b.coeffs, scale)))
                seen["cancelled"] += len(got.coeffs) < len(inside)
            cut = tuple(bd + rng.randint(-2, 1) for bd in a.bounds)
            same(ts.truncate(a, cut), ts.make(space, cut, a.coeffs))
            seen["truncated"] += len(ts.truncate(a, cut).coeffs) < len(a.coeffs)
            for var in space:
                pos = space.index(var)
                lowered = {e[:pos] + (e[pos] - 1,) + e[pos + 1:]: c * e[pos]
                           for e, c in a.coeffs.items() if e[pos]}
                same(ts.derivative(a, var), ts.make(
                    space, tuple(bd - (i == pos) for i, bd in enumerate(a.bounds)), lowered))
    # observed 65 / 21 / 45
    assert seen["pruned"] >= 58 and seen["cancelled"] >= 18 and seen["truncated"] >= 40, seen
    # the bounds handed to truncate are still checked
    s = ts.make(("u", "v"), (3, 3), {(1, 2): 1})
    with pytest.raises(ts.VarMismatch):
        ts.truncate(s, (2,))
    with pytest.raises(ts.SeriesOverflow):
        ts.truncate(s, (2, ts._LIMIT))


def _horner_compose(outer, inner):
    """The composition as a Horner loop: from the top outer degree down,
    multiply by the inner series and add the next outer coefficient."""
    degree = max((e[0] for e in outer.coeffs), default=0)
    out = ts.zero(inner.vars, inner.bounds)
    for i in range(degree, -1, -1):
        out = ts.mul(out, inner)
        ci = outer.coeff((i,))
        if not ci.is_zero():
            out = ts.add(out, ts.const(ci, inner.vars, inner.bounds))
    return out


def _coefficient_first_subst(s, replacements):
    """The substitution with each term started as its coefficient and
    multiplied by the cached powers of the replacements one at a time."""
    repls = [replacements[v] for v in s.vars]
    space = repls[0].vars
    bounds = tuple(min(r.bounds[i] for r in repls) for i in range(len(space)))
    caches = [{0: ts.const(1, space, bounds), 1: ts.truncate(r, bounds)} for r in repls]

    def power(i, e):
        if e not in caches[i]:
            caches[i][e] = ts.mul(power(i, e - 1), caches[i][1])
        return caches[i][e]

    total = Combination()
    for exps, c in s.coeffs.items():
        term = ts.const(c, space, bounds)
        for i, e in enumerate(exps):
            if e:
                term = ts.mul(term, power(i, e))
        total.add_all(term.coeffs)
    return ts.TruncSeries(space, bounds, total)


def _density_term_one(table, y_u, y_v, K):
    """Term 1 of the density action as a loop over the stored table: each
    entry w_kl times y(u)^k y(v)^l - y(u)^l y(v)^k."""
    space, bounds = ("u", "v"), (K, K)
    cache_u, cache_v = {0: ts.const(1, space, bounds)}, {0: ts.const(1, space, bounds)}

    def ypw(cache, base, k):
        if k not in cache:
            cache[k] = ts.mul(ypw(cache, base, k - 1), base)
        return cache[k]

    t1 = Combination()
    for (k, l), w in table.items():
        if k <= K and l <= K:
            t1.add_all(ts.sub(ts.mul(ypw(cache_u, y_u, k), ypw(cache_v, y_v, l)),
                              ts.mul(ypw(cache_u, y_u, l), ypw(cache_v, y_v, k))).coeffs, w)
    return ts.TruncSeries(space, bounds, t1)


def test_compose_and_subst_match_the_parent_loops():
    x0, x1, x2 = (LaurentPoly.var(x_var(i)) for i in range(3))
    y0 = LaurentPoly.var(Variable(VarKind.GROUP_Y, 0))
    rational = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]
    symbolic = [x1, -x2, x1 * x2 - Fraction(1, 3), LaurentPoly.var(param("lam")) + 1]
    nilpotent = [x0, -y0, x0 * y0, x0 + Fraction(2, 3) * y0, x0 * x0]
    rng = random.Random(47)
    seen = Counter()

    def same(got, want):
        assert (got.vars, got.bounds, dict(got.coeffs)) == (want.vars, want.bounds,
                                                             dict(want.coeffs))

    def univariate(bound, pool, constant=None):
        terms = {(e,): rng.choice(pool) for e in rng.sample(range(bound + 1),
                                                            rng.randint(1, bound + 1))}
        if constant is not None:
            terms[(0,)] = constant
        return ts.make(("u",), (bound,), terms)

    # univariate outers, above and below the inner bound
    for name, pool in (("rational", rational), ("symbolic", symbolic)):
        for _ in range(60):
            outer = univariate(rng.randint(0, 7), pool)
            c0 = rng.choice(nilpotent) if rng.random() < 0.3 else 0
            inner = univariate(rng.randint(1, 5), pool + symbolic, constant=c0)
            # compose rejects a nilpotent constant term; subst sums it all the same
            composed = ts.subst(outer, {"u": inner}) if c0 else ts.compose(outer, inner)
            same(composed, _horner_compose(outer, inner))
            same(ts.subst(outer, {"u": inner}), _coefficient_first_subst(outer, {"u": inner}))
            seen[name] += 1
            seen["above" if outer.bounds[0] > inner.bounds[0] else "below"] += 1
            seen["nilpotent"] += c0 != 0
            seen["constant"] += (0,) in outer.coeffs
            seen["power"] += max(e for e, in outer.coeffs) >= 2

    # bivariate phi tables evaluated at a jet, as in build_omega
    lam = LaurentPoly.var(param("lam"))
    phis = [pl.phi_power_family(d) for d in (1, 2, 3)] + [pl.phi_linear()] + [
        pl.phi_extended_family(d, value, 8) for d in (2, 3) for value in (Fraction(1, 2), lam)]
    space = ("u", "v")
    for phi in phis:
        for n in (3, 5, 7):
            start = phi.min_index
            x = jg.symbolic_jet(n, "x", start, nilpotency=2 if start == 0 else None)
            repl = {"u": ts.lift(x.to_series(), space, (n, n)),
                    "v": ts.lift(x.to_series(), space, (n, n), names=("v",))}
            table = phi.as_series("u", "v", space, (n, n))
            same(ts.subst(table, repl), _coefficient_first_subst(table, repl))
            seen["phi"] += 1

    # the density term-1 table evaluated along the jet, as in verify_density_action
    for phi, weight in ((pl.phi_power_family(1), "lam"),
                        (pl.phi_power_family(2), Fraction(1, 2))):
        for K in (1, 2, 3):
            omega = dn.build_omega_density(phi, weight, K + 1)
            y = jg.symbolic_jet(K + 2, "y").to_series(bound=K)
            repl = {"u": ts.lift(y, space, (K, K)),
                    "v": ts.lift(y, space, (K, K), names=("v",))}
            table = ts.make(space, (K, K), Combination.antisymmetric(omega.omega.items()))
            want = _density_term_one(omega.omega, repl["u"], repl["v"], K)
            same(ts.subst(table, repl), want)
            same(_coefficient_first_subst(table, repl), want)
            # the action builds this table itself; without its antisymmetric half it fails
            assert dn.verify_density_action(phi, weight, K, omega).passed
            seen["density"] += 1

    # observed 63 / 57 above / below, 46 nilpotent, 78 with a constant term and
    # 79 with a power of 2 or more; the floors keep the sample from thinning out
    floors = {"rational": 60, "symbolic": 60, "above": 55, "below": 50, "nilpotent": 40,
              "constant": 70, "power": 70, "phi": 24, "density": 6}
    assert all(seen[key] >= floor for key, floor in floors.items()), seen
