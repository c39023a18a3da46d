"""Bracket tables from generating functions and their defining identities.

The three finite bracket tables asserted here (quadratic family at n=5,
linear family at n=4, cubic family at n=5) are frozen from two independent
constructions that agree monomial for monomial: the contraction of invariant
frames (`build_omega`) and the closed component formula.  Three entries of the
published versions of these tables disagree with their own defining
formula; the frozen values below are the internally consistent ones
(the multiplicativity, Jacobi and quantum-compatibility checks all single
them out).  See the printed-variant tests at the bottom.
"""

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from jetpoisson import bialgebra as ba
from jetpoisson import jetgroup as jg
from jetpoisson import poissonlie as pl
from jetpoisson import series as ts
from jetpoisson.coeffpoly import Combination, LaurentPoly, Variable, VarKind, param, x_var


def X(i, e=1):
    return LaurentPoly.var(x_var(i), e)


# bracket tables, written out entry by entry
TABLE_D2_N5 = {
    (1, 2): LaurentPoly.zero(),
    (1, 3): -X(1, 2) + X(1, 4),
    (2, 3): X(2) * (X(1, 3) - 2 * X(1)),
    (1, 4): X(2) * (3 * X(1, 3) - 2 * X(1)),
    (2, 4): X(2, 2) * (3 * X(1, 2) - 4),          # printed variant shows x1^3
    (3, 4): X(4) * (4 * X(1) - X(1, 3)) + X(3) * X(2) * (3 * X(1, 2) - 6),
    (1, 5): X(3) * (3 * X(1, 3) - 3 * X(1)) + 3 * X(2, 2) * X(1, 2),
    (2, 5): 3 * X(2, 3) * X(1) + X(3) * X(2) * (3 * X(1, 2) - 6),
    (3, 5): X(5) * (5 * X(1) - X(1, 3)) + X(3, 2) * (3 * X(1, 2) - 9)
            + 3 * X(3) * X(2, 2) * X(1),
    (4, 5): X(5) * X(2) * (10 - 3 * X(1, 2)) + X(4) * X(3) * (3 * X(1, 2) - 12)
            + 3 * X(4) * X(2, 2) * X(1),
}

TABLE_D1_N4 = {
    (1, 2): X(1, 3) - X(1, 2),
    (1, 3): 2 * X(2) * (X(1, 2) - X(1)),
    (2, 3): (3 * X(1) - X(1, 2)) * X(3) + X(2, 2) * (2 * X(1) - 4),
    (1, 4): X(3) * (2 * X(1, 2) - 3 * X(1)) + X(2, 2) * X(1),
    (2, 4): X(4) * (4 * X(1) - X(1, 2)) + X(3) * X(2) * (2 * X(1) - 6)
            + X(2, 3),                            # printed variant omits x2^3
    (3, 4): X(4) * X(2) * (8 - 2 * X(1)) + X(3) * X(2, 2) + X(3, 2) * (2 * X(1) - 9),
}

TABLE_D3_N5 = {
    (1, 2): LaurentPoly.zero(),
    (1, 3): LaurentPoly.zero(),
    (2, 3): LaurentPoly.zero(),
    (1, 4): X(1, 5) - X(1, 2),
    (2, 4): X(2) * (X(1, 4) - 2 * X(1)),
    (3, 4): X(3) * (X(1, 4) - 3 * X(1)),
    (1, 5): X(2) * (4 * X(1, 4) - 2 * X(1)),
    (2, 5): X(2, 2) * (4 * X(1, 3) - 4),          # printed variant shows x1^4
    (3, 5): X(3) * X(2) * (4 * X(1, 3) - 6),
    (4, 5): X(4) * X(2) * (4 * X(1, 3) - 8) + X(5) * (5 * X(1) - X(1, 4)),
}


@pytest.mark.parametrize("d,n,table", [(2, 5, TABLE_D2_N5), (1, 4, TABLE_D1_N4),
                                       (3, 5, TABLE_D3_N5)])
def test_bracket_tables_both_paths(d, n, table):
    contracted = pl.build_omega(pl.phi_power_family(d), n)
    closed_path = pl.omega_power_closed_form(d, n)
    for (i, j), expect in table.items():
        assert contracted.bracket(i, j) == expect, (i, j)
        assert closed_path.bracket(i, j) == expect, (i, j)


def _series_omega(phi, n, start_index, coord_letter):
    """The table of Omega = phi(u,v) x'(u) x'(v) - phi(x(u), x(v)) read off the
    series product and substitution, the construction `build_omega` replaced:
    the second term substitutes x(u) into phi's whole finite table, which
    x_0 reaches at every power."""
    kind = jg.LETTER_KINDS[coord_letter]
    space, bounds = ("u", "v"), (n, n)
    hi = n if start_index == 1 else n + 1
    coords = {(i,): LaurentPoly.var(Variable(kind, i)) for i in range(start_index, hi + 1)}
    x_u, x_v = ts.make(("u",), (hi,), coords), ts.make(("v",), (hi,), coords)
    first = ts.product(phi.as_series("u", "v", space, bounds),
                       ts.lift(ts.derivative(x_u, "u"), space, bounds),
                       ts.lift(ts.derivative(x_v, "v"), space, bounds))
    top = max(map(max, phi.table), default=0)
    second = ts.subst(phi.as_series("u", "v", space, (top, top)),
                      {"u": ts.lift(ts.truncate(x_u, (n,)), space, bounds),
                       "v": ts.lift(ts.truncate(x_v, (n,)), space, bounds)})
    omega = ts.sub(first, second)
    return Combination(((i, j), omega.coeff((i, j)))
                       for i in range(start_index, n + 1) for j in range(i + 1, n + 1))


def _random_table(rng, start, top):
    """A finitely supported phi from indices start..top, one to four rows."""
    entries = {}
    for _ in range(rng.randint(1, 4)):
        m, k = rng.sample(range(start, top + 1), 2)
        entries[m, k] = Fraction(rng.randint(1, 3) * rng.choice((-1, 1)), rng.randint(1, 2))
    return pl.phi_from_table(entries, start, top, exact=True)


def test_contraction_equals_the_series_route():
    # keys, key order and values, over the catalog and random finite tables on
    # both models, in x and y, with indices above n
    lam = LaurentPoly.var(param("lam"))
    cases = [(pl.phi_power_family(d), n, 1, "x") for d in (1, 2, 3, 5) for n in (6, 10, 14)]
    cases += [(pl.phi_power_family(d), n, 1, "x") for d in (1, 2) for n in (16, 20)]
    cases += [(pl.phi_extended_family(d, value, 11), 10, 1, letter) for d in (2, 3)
              for value in (lam, Fraction(1, 3)) for letter in "xy"]
    cases += [(pl.phi_linear(), n, 0, "x") for n in (4, 6, 8)]
    cases += [(pl.phi_from_table({(1, 2): 1, (1, 3): 1}, 1, 4, exact=True), n, 1, "x")
              for n in (3, 6)]
    rng = random.Random(31)
    cases += [(_random_table(rng, start, 8), rng.randint(2, 7), start, rng.choice("xy"))
              for start in (0, 1) for _ in range(30)]
    for phi, n, start, letter in cases:
        got = pl.build_omega(phi, n, start, letter)
        want = _series_omega(phi, n, start, letter)
        assert list(got.omega.items()) == list(want.items()), (phi.provenance, n, start, letter)
        assert got.coord_kind is jg.LETTER_KINDS[letter]


def test_extended_tables_do_not_depend_on_the_truncation():
    # {x_0, x_1} of phi = (u - v) + (u^5 - v^5) is x1 - x1^2 + 5 x0^4 x1 at
    # every n: x(u)^5 has the constant x0^5, so the u^5 row reaches (0, 1)
    phi = pl.phi_from_table({(1, 0): 1, (5, 0): 1}, 0, 5, exact=True)
    X0 = LaurentPoly.var(Variable(VarKind.GROUP_X, 0))
    for n in (2, 4, 6):
        assert pl.build_omega(phi, n, 0).bracket(0, 1) == X(1) - X(1, 2) + 5 * X0 ** 4 * X(1)
    rng = random.Random(7)
    for _ in range(20):
        phi = _random_table(rng, 0, 8)
        big = pl.build_omega(phi, 7, 0)
        for n in (2, 4):
            small = pl.build_omega(phi, n, 0)
            assert small.omega == {ij: w for ij, w in big.omega.items() if max(ij) <= n}


def test_sklyanin_tables_are_multiplicative():
    # Omega is sum lam_mn (X_m X_n - R_m R_n), the Sklyanin bracket of the
    # r-matrix lam, multiplicative whatever lam is: Lu-Weinstein and the
    # congruence pass it on the origin-fixing model, the nilpotent quotient's
    # congruence on the extended one
    rng = random.Random(64)
    for _ in range(24):
        n = rng.randint(2, 7)
        omega = pl.build_omega(_random_table(rng, 1, 9), n)
        assert pl._lu_weinstein(omega, n) is not None, omega.phi.table
        assert pl._verify_mult_origin_fixing(omega, n).passed, omega.phi.table
    tables = [_random_table(rng, 0, 7) for _ in range(12)]
    # x0^59 enters every entry: the check cuts each entry to x_0-degree 2 before
    # it substitutes the product jet, whose x_0 coordinate has several terms
    tables.append(pl.phi_from_table({(1, 0): 1, (60, 0): 1}, 0, 60, exact=True))
    for phi in tables:
        n = rng.randint(2, 3)
        omega = pl.build_omega(phi, n + 1, 0)
        assert pl.verify_multiplicativity(omega, n).passed, omega.phi.table


def test_phi_indices_past_the_series_limit_are_rejected():
    with pytest.raises(ts.SeriesOverflow):
        pl.phi_power_family(ts._LIMIT - 1)
    with pytest.raises(ts.SeriesOverflow):
        pl.phi_from_table({(ts._LIMIT, 1): 1}, 1, ts._LIMIT, exact=True)
    assert (ts._LIMIT - 1, 1) in pl.phi_power_family(ts._LIMIT - 2).table


def test_brackets_vanish_at_identity():
    at_e = {x_var(i): (LaurentPoly.one() if i == 1 else LaurentPoly.zero())
            for i in range(1, 7)}
    for d in (1, 2, 3):
        omega = pl.build_omega(pl.phi_power_family(d), 6)
        assert all(w.substitute(at_e).is_zero() for w in omega.omega.values())


def test_projection_compatibility_of_tables():
    # the level-m table is the upper-left block of the level-n table
    big = pl.build_omega(pl.phi_power_family(2), 6)
    small = pl.build_omega(pl.phi_power_family(2), 4)
    for i in range(1, 5):
        for j in range(1, 5):
            assert big.bracket(i, j) == small.bracket(i, j)


def test_divisibility_and_degree_guards():
    with pytest.raises(pl.DivisibilityViolation):
        pl.build_omega(pl.phi_linear(), 3, 1)
    lam = LaurentPoly.var(param("lam"))
    with pytest.raises(pl.DegreeBoundTooSmall):
        pl.build_omega(pl.phi_extended_family(2, lam, 4), 5)


def test_full_pipeline_for_solutions_divisible_by_uv():
    # every generating function that solves the functional equation and is
    # divisible by uv must produce a table passing both defining identities
    lam = Fraction(1, 3)
    candidates = [pl.phi_power_family(1), pl.phi_power_family(2),
                  pl.phi_extended_family(2, lam, 9)]
    for phi in candidates:
        assert pl.verify_phi_equation(phi, 7).passed
        for n in (4, 6):
            omega = pl.build_omega(phi, n)
            assert pl.verify_jacobi(omega).passed, (phi.provenance, n)
            assert pl.verify_multiplicativity(omega).passed, (phi.provenance, n)


def test_jacobi_families_and_negative_control():
    for d in range(1, 6):
        omega = pl.build_omega(pl.phi_power_family(d), 6)
        assert pl.verify_jacobi(omega).passed, d
    zero = pl.PoissonStructure(4, 1, {})
    assert pl.verify_jacobi(zero).passed
    bad = pl.build_omega(pl.phi_power_family(2), 5).perturbed(1, 3, X(1))
    report = pl.verify_jacobi(bad)
    assert not report.passed
    # the first triple whose residual sees the perturbed pair: the delta term
    # is  -x1 * d(omega_25)/dx_3 = -x1 x2 (3 x1^2 - 6)
    assert report.witness["indices"] == [1, 2, 5]
    assert report.witness["residual"] == (6 * X(1) * X(2) - 3 * X(1, 3) * X(2)).render()


def _per_triple_jacobi(omega, check_max=None):
    """Jacobi as a loop that differentiates the three brackets of every
    triple afresh, each in the orientation the cyclic sum names."""
    from itertools import combinations

    from jetpoisson import report as rep

    top = omega.n if check_max is None else min(check_max, omega.n)
    checked = skipped = 0
    params = {"n": omega.n, "start": omega.start_index, "check_max": top}
    for (j, k, l) in combinations(range(omega.start_index, top + 1), 3):
        ok, pairs = True, []
        for a, (b, c) in ((j, (k, l)), (k, (l, j)), (l, (j, k))):
            target = omega.bracket(b, c)
            for v in target.variables():
                if v.kind != omega.coord_kind:
                    continue
                dv = target.derivative(v)
                if dv.is_zero() or v.index == a:
                    continue
                if max(v.index, a) > omega.n:
                    ok = False
                    break
                pairs.append((omega.bracket(v.index, a), dv))
            if not ok:
                break
        if not ok:
            skipped += 1
            continue
        checked += 1
        residual = LaurentPoly.sum_of_products(pairs)
        if not residual.is_zero():
            return rep.failed("jacobi", (j, k, l), residual.render(),
                              **params, checked=checked, skipped=skipped)
    return rep.passed("jacobi", **params, checked=checked, skipped=skipped)


def test_jacobi_matches_the_per_triple_loop():
    cases = [(pl.build_omega(pl.phi_power_family(d), n), None)
             for d in (1, 2, 3) for n in (5, 6, 7)]
    cases.append((pl.build_omega(pl.phi_power_family(2), 7), 5))
    # extended-model tables reach one index past the block: boundary triples skip
    quadratic = pl.phi_from_table({(1, 0): 1, (2, 0): Fraction(1, 2), (2, 1): 1}, 0, 2,
                                  exact=True)
    for phi in (pl.phi_linear(), quadratic):
        for n in (4, 5, 6):
            cases += [(pl.build_omega(phi, n, 0), None), (pl.build_omega(phi, n, 0), 3)]
    rng = random.Random(13)
    for _ in range(12):
        d, n = rng.randint(1, 3), rng.randint(5, 7)
        i = rng.randint(1, n - 1)
        bad = pl.build_omega(pl.phi_power_family(d), n).perturbed(
            i, rng.randint(i + 1, n), X(rng.randint(1, n)))
        cases.append((bad, None))
    for i, j, k in ((0, 2, 3), (1, 3, 1), (2, 4, 5)):
        cases.append((pl.build_omega(pl.phi_linear(), 5, 0).perturbed(i, j, X(k)), None))
    outcomes = Counter()
    for omega, check_max in cases:
        want = _per_triple_jacobi(omega, check_max).to_dict()
        assert pl.verify_jacobi(omega, check_max).to_dict() == want, \
            (omega.phi.provenance, omega.n, check_max)
        outcomes[want["status"]] += 1
        outcomes["skipped"] += want["params"]["skipped"]
    # observed 16 passes, 21 failures and 33 skipped triples
    assert outcomes["pass"] >= 15 and outcomes["fail"] >= 20 and outcomes["skipped"] >= 30, outcomes


def test_multiplicativity_families_and_identity_substitution():
    omega = pl.build_omega(pl.phi_power_family(2), 5)
    assert pl.verify_multiplicativity(omega).passed
    # substituting the identity for the second factor leaves the bracket alone
    x = jg.symbolic_jet(5, "x")
    e = jg.jet_identity(5)
    z = jg.jet_compose(x, e)
    assert all(z.coord(i) == x.coord(i) for i in range(1, 6))


def test_multiplicativity_negative_control():
    bad = pl.build_omega(pl.phi_power_family(2), 4).perturbed(1, 3, X(1))
    report = pl.verify_multiplicativity(bad)
    assert not report.passed and report.witness is not None


def test_multiplicativity_at_rational_scaling_jets():
    # instance check of the product identity at x(u) = c u, y(u) = u / c
    y_var = functools.partial(Variable, VarKind.GROUP_Y)
    omega = pl.build_omega(pl.phi_power_family(1), 4)
    n, c = 4, Fraction(3, 2)
    xs = jg.symbolic_jet(n, "x")
    ys = jg.symbolic_jet(n, "y")
    zs = jg.jet_compose(xs, ys)
    point = {x_var(1): LaurentPoly.const(c), y_var(1): LaurentPoly.const(1 / c)}
    for k in range(2, n + 1):
        point[x_var(k)] = LaurentPoly.zero()
        point[y_var(k)] = LaurentPoly.zero()
    omega_y = {p: w.substitute({x_var(k): LaurentPoly.var(y_var(k))
                                for k in range(1, n + 1)})
               for p, w in omega.omega.items()}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = omega.bracket(i, j).substitute(
                {x_var(k): zs.coord(k).substitute(point) for k in range(1, n + 1)})
            rhs = LaurentPoly.zero()
            for (k, l), w in omega.omega.items():
                for table, var in ((w, x_var), (omega_y[(k, l)], y_var)):
                    dik = zs.coord(i).derivative(var(k)).substitute(point)
                    dil = zs.coord(i).derivative(var(l)).substitute(point)
                    djk = zs.coord(j).derivative(var(k)).substitute(point)
                    djl = zs.coord(j).derivative(var(l)).substitute(point)
                    rhs = rhs + table.substitute(point) * (dik * djl - dil * djk)
            assert lhs == rhs, (i, j)


def test_extended_model_linear_structure():
    omega = pl.build_omega(pl.phi_linear(), 4, 0)
    # the quadratic component formula, with the two boundary terms at index 0
    for i in range(0, 5):
        for j in range(i + 1, 5):
            expect = (X(i) * X(j + 1) * (i * (j + 1))
                      - X(i + 1) * X(j) * ((i + 1) * j))
            if i == 0:
                expect = expect + X(j)
            assert omega.bracket(i, j) == expect, (i, j)
    assert omega.bracket(0, 1) == X(1) - X(1, 2)
    assert omega.bracket(0, 2) == X(2) - 2 * X(1) * X(2)
    assert omega.bracket(1, 2) == 3 * X(1) * X(3) - 4 * X(2, 2)
    assert pl.verify_jacobi(omega, check_max=3).passed
    assert pl.verify_multiplicativity(omega).passed


def test_inversion_anti_poisson():
    for d, n in ((1, 3), (1, 4), (2, 3), (2, 4)):
        omega = pl.build_omega(pl.phi_power_family(d), n)
        assert pl.verify_inversion_antipoisson(omega).passed, (d, n)
    bad = pl.build_omega(pl.phi_power_family(1), 3).perturbed(1, 2, X(1, 3))
    assert not pl.verify_inversion_antipoisson(bad).passed


def test_inversion_vanishes_at_identity():
    omega = pl.build_omega(pl.phi_power_family(1), 3)
    x = jg.symbolic_jet(3, "x")
    xb = jg.jet_inverse(x)
    at_e = {x_var(i): (LaurentPoly.one() if i == 1 else LaurentPoly.zero())
            for i in range(1, 4)}
    for (i, j), w in omega.omega.items():
        both = w.substitute({x_var(k): xb.coord(k) for k in range(1, 4)})
        assert both.substitute(at_e).is_zero()
        assert w.substitute(at_e).is_zero()


def test_perturbed_below_the_diagonal_and_on_it():
    omega = pl.build_omega(pl.phi_power_family(1), 5)
    # {x4, x2} += x1 is {x2, x4} -= x1, stored where bracket() reads it
    below = omega.perturbed(4, 2, X(1))
    assert below.omega == omega.perturbed(2, 4, -X(1)).omega
    assert all(i < j for i, j in below.omega)
    assert below.bracket(4, 2) == omega.bracket(4, 2) + X(1)
    assert below.phi is omega.phi
    jacobi, mult = pl.verify_jacobi(below), pl.verify_multiplicativity(below)
    assert not jacobi.passed and not mult.passed
    above = omega.perturbed(2, 4, -X(1))
    assert jacobi.to_dict() == pl.verify_jacobi(above).to_dict()
    assert mult.to_dict() == pl.verify_multiplicativity(above).to_dict()
    with pytest.raises(ValueError):
        omega.perturbed(3, 3, X(1))


# The three Jacobian checks as loops over the stored table, one 2x2 minor
# J_ik J_jl - J_il J_jk per entry (k, l) and pair (i, j).


def _minor_loop_origin_fixing(omega, check_max=None):
    from jetpoisson import report as rep

    n = omega.n if check_max is None else min(check_max, omega.n)
    z = jg.jet_compose(jg.symbolic_jet(n, "x"), jg.symbolic_jet(n, "y"))
    y = jg.symbolic_jet(n, "y")
    to_y = {Variable(omega.coord_kind, i): y.coord(i) for i in range(1, n + 1)}
    to_z = {Variable(omega.coord_kind, i): z.coord(i) for i in range(1, n + 1)}
    omega_y = {pair: p.substitute(to_y) for pair, p in omega.omega.items()}
    dzx = Combination(((i, k), z.coord(i).derivative(Variable(VarKind.GROUP_X, k)))
                      for i in range(1, n + 1) for k in range(1, i + 1))
    dzy = Combination(((i, k), z.coord(i).derivative(Variable(VarKind.GROUP_Y, k)))
                      for i in range(1, n + 1) for k in range(1, i + 1))
    params = {"n": n, "start": 1}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = omega.bracket(i, j).substitute(to_z)
            rhs = LaurentPoly.sum_of_products(
                pair for (k, l), w in omega.omega.items() if l <= n
                for pair in ((w, dzx[(i, k)] * dzx[(j, l)] - dzx[(i, l)] * dzx[(j, k)]),
                             (omega_y[(k, l)],
                              dzy[(i, k)] * dzy[(j, l)] - dzy[(i, l)] * dzy[(j, k)])))
            residual = lhs - rhs
            if not residual.is_zero():
                return rep.failed("multiplicativity", (i, j), residual.render(), **params)
    return rep.passed("multiplicativity", **params)


def _minor_loop_extended(omega, check_max=None):
    from jetpoisson import report as rep

    K = omega.n if check_max is None else min(check_max, omega.n)
    m, M = 2, 3
    wide = pl.build_omega(omega.phi, K + M, 0)
    x = jg.symbolic_jet(K + M + 1, "x", 0, nilpotency=M)
    y = jg.symbolic_jet(K + 1, "y", 0, nilpotency=M)
    z = jg.jet_compose(x, y)
    to_y = {Variable(wide.coord_kind, i): y.coord(i) for i in range(0, K + 2)}
    to_z = {Variable(wide.coord_kind, i): z.coord(i) for i in range(0, K + 2)}
    params = {"n": K, "start": 0, "nilpotency": m}

    def d(i, kind, k):
        return z.coord(i).derivative(Variable(kind, k))

    for i in range(0, K + 1):
        for j in range(i + 1, K + 1):
            rhs = LaurentPoly.zero()
            for (k, l), w in wide.omega.items():
                for kind, table in ((VarKind.GROUP_X, w), (VarKind.GROUP_Y, None)):
                    minor = d(i, kind, k) * d(j, kind, l) - d(i, kind, l) * d(j, kind, k)
                    if not minor.is_zero():
                        rhs = rhs + (w.substitute(to_y) if table is None else table) * minor
            residual = jg.nilpotent_reduce(wide.bracket(i, j).substitute(to_z) - rhs, m)
            if not residual.is_zero():
                return rep.failed("multiplicativity", (i, j), residual.render(), **params)
    return rep.passed("multiplicativity", **params)


def _minor_loop_inversion(omega):
    from jetpoisson import report as rep

    n = omega.n
    xbar = jg.jet_inverse(jg.symbolic_jet(n, "x"))
    to_inv = {Variable(omega.coord_kind, i): xbar.coord(i) for i in range(1, n + 1)}
    dinv = {(a, k): xbar.coord(a).derivative(Variable(VarKind.GROUP_X, k))
            for a in range(1, n + 1) for k in range(1, n + 1)}
    params = {"n": n, "start": 1}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            lhs = omega.bracket(a, b).substitute(to_inv)
            rhs = LaurentPoly.sum_of_products(
                (w, dinv[(a, k)] * dinv[(b, l)] - dinv[(a, l)] * dinv[(b, k)])
                for (k, l), w in omega.omega.items())
            residual = lhs + rhs
            if not residual.is_zero():
                return rep.failed("inversion-anti-poisson", (a, b), residual.render(), **params)
    return rep.passed("inversion-anti-poisson", **params)


def test_jacobian_checks_match_the_minor_loops():
    rng = random.Random(41)

    def perturb(omega):
        i, j = rng.sample(range(omega.start_index, omega.n + 1), 2)
        return omega.perturbed(i, j, X(rng.randint(1, omega.n)) * rng.choice((1, Fraction(-2, 3))))

    mult, extended, inversion = [], [], []
    for d in (1, 2, 3):
        for n in (3, 4, 5, 6, 7):
            omega = pl.build_omega(pl.phi_power_family(d), n)
            if n >= 4:
                mult += [(omega, None), (omega, n - 2)]
            if n <= 5:
                inversion += [omega, perturb(omega)]
    for _ in range(10):
        omega = pl.build_omega(pl.phi_power_family(rng.randint(1, 3)), rng.randint(4, 6))
        mult.append((perturb(omega), rng.choice((None, omega.n - 1))))
    quadratic = pl.phi_from_table({(1, 0): 1, (2, 0): Fraction(1, 2), (2, 1): 1}, 0, 2,
                                  exact=True)
    for phi in (pl.phi_linear(), quadratic):
        for n in (3, 4, 5):
            extended += [(pl.build_omega(phi, n, 0), None), (pl.build_omega(phi, n, 0), 2)]
    # every antisymmetric generating function passes the extended check; a
    # table with one entry whose mirror image is missing does not
    for _ in range(6):
        table = Combination.antisymmetric([((rng.randint(1, 3), 0), rng.choice((1, -2)))])
        table.add((rng.randint(0, 2), rng.randint(0, 2)), LaurentPoly.const(Fraction(1, 3)))
        phi = pl.PhiFunction(0, table, None, "lopsided")
        extended.append((pl.build_omega(phi, rng.randint(3, 4), 0), None))
    outcomes = Counter()
    for omega, check_max in mult:
        want = _minor_loop_origin_fixing(omega, check_max).to_dict()
        assert pl.verify_multiplicativity(omega, check_max=check_max).to_dict() == want, \
            (omega.phi.provenance, omega.n, check_max)
        outcomes["mult", want["status"]] += 1
    for omega, check_max in extended:
        want = _minor_loop_extended(omega, check_max).to_dict()
        got = pl.verify_multiplicativity(omega, check_max=check_max).to_dict()
        assert got == want, (omega.phi.provenance, omega.n, check_max)
        outcomes["extended", want["status"]] += 1
    for omega in inversion:
        want = _minor_loop_inversion(omega).to_dict()
        assert pl.verify_inversion_antipoisson(omega).to_dict() == want, \
            (omega.phi.provenance, omega.n)
        outcomes["inversion", want["status"]] += 1
    # observed 25 / 9, 12 / 6 and 9 / 9 passes / failures
    floors = {("mult", "pass"): 23, ("mult", "fail"): 8, ("extended", "pass"): 11,
              ("extended", "fail"): 5, ("inversion", "pass"): 8, ("inversion", "fail"): 8}
    assert all(outcomes[key] >= floor for key, floor in floors.items()), outcomes



def test_extended_multiplicativity_reads_the_given_table():
    # a corrupted entry inside the block fails multiplicativity, as it fails Jacobi
    bad = pl.build_omega(pl.phi_linear(), 4, 0).perturbed(1, 3, X(2))
    assert not pl.verify_jacobi(bad, check_max=3).passed
    assert pl.verify_multiplicativity(bad).to_dict() == {
        "check": "multiplicativity", "params": {"n": 4, "nilpotency": 2, "start": 0},
        "status": "fail", "witness": {"indices": [0, 2], "residual": "-3*x2*y0^2*y1^2"}}
    # an extended-model entry inside the block is exact at its truncation, so on
    # the catalog tables the reports are those of the loops that read phi alone
    lam = LaurentPoly.var(param("lam"))
    cases = [(pl.build_omega(pl.phi_linear(), n + 1, 0), n, _minor_loop_extended)
             for n in (2, 3, 4)]
    for d in (2, 3):
        for value in (Fraction(1, 2), lam):
            omega = pl.build_omega(pl.phi_extended_family(d, value, 13), 4)
            cases.append((omega, None, _minor_loop_origin_fixing))
    for omega, check_max, loop in cases:
        want = loop(omega, check_max=check_max).to_dict()
        assert want["status"] == "pass"
        assert pl.verify_multiplicativity(omega, check_max=check_max).to_dict() == want


def test_tables_in_y_coordinates_are_the_x_tables_renamed():
    """A table built in y coordinates is the x table with its coordinates
    renamed: its multiplicativity record is the x table's, and on the
    origin-fixing model so is its inversion record, passing or failing."""
    def Y(i):
        return LaurentPoly.var(Variable(VarKind.GROUP_Y, i))

    statuses = Counter()
    for d in (1, 2):
        for n in (3, 5):
            x_table, y_table = (pl.build_omega(pl.phi_power_family(d), n, coord_letter=letter)
                                for letter in "xy")
            assert pl.verify_jacobi(y_table).to_dict() == pl.verify_jacobi(x_table).to_dict()
            for x_table, y_table in ((x_table, y_table),
                                     (x_table.perturbed(2, 3, X(2)), y_table.perturbed(2, 3, Y(2)))):
                for verify in (pl.verify_multiplicativity, pl.verify_inversion_antipoisson):
                    want = verify(x_table).to_dict()
                    assert verify(y_table).to_dict() == want, (d, n, verify.__name__)
                    statuses[want["status"]] += 1
    for check_max in (3, 4):
        x_table, y_table = (pl.build_omega(pl.phi_linear(), check_max + 1, 0, coord_letter=letter)
                            for letter in "xy")
        for x_table, y_table in ((x_table, y_table),
                                 (x_table.perturbed(1, 3, X(2)), y_table.perturbed(1, 3, Y(2)))):
            want = pl.verify_multiplicativity(x_table, check_max).to_dict()
            assert pl.verify_multiplicativity(y_table, check_max).to_dict() == want, check_max
            statuses[want["status"]] += 1
    assert statuses == {"pass": 10, "fail": 10}, statuses


# the perturbations of the benchmark's negative controls: {x_i, x_j} += x_k on
# the u v (u^d - v^d) table at n = 5
BENCH_PERTURBATIONS = [(d, i, j, k) for d in (1, 2, 3)
                       for (i, j) in itertools.combinations(range(1, 6), 2) for k in (1, 2)]


def test_lu_weinstein_criterion_agrees_with_the_congruence():
    lam = LaurentPoly.var(param("lam"))
    cases = [pl.build_omega(pl.phi_power_family(d), n) for d in range(1, 6) for n in range(2, 11)]
    cases += [pl.build_omega(pl.phi_extended_family(d, value, 9), 8)
              for d in (2, 3) for value in (lam, Fraction(2, 3))]
    cases += [pl.build_omega(pl.phi_power_family(d), 5).perturbed(i, j, X(k))
              for d, i, j, k in BENCH_PERTURBATIONS]
    six = pl.build_omega(pl.phi_power_family(1), 6)
    cases += [six.perturbed(i, j, delta) for i, j, delta in (
        (1, 2, X(1)), (3, 6, X(1)),       # nonzero at e
        (2, 5, X(1) * X(6)),              # zero at e: only the Lie derivatives see it
        (2, 4, lam), (1, 3, X(7)),        # a parameter, a coordinate above n
        (2, 3, LaurentPoly.var(Variable(VarKind.GROUP_Y, 2))),
        # x1^2 d5^d6 = X_5^X_6 is left-invariant, so only the test of pi(e) sees it
        (5, 6, X(1, 2)),
        # L_X1 and L_X2 kill both s = (x1 x3 - x2^2) / x1^4, which is zero at e, and
        # the right-invariant x1^11 d5^d6, so only X_3 sees their product
        (5, 6, (X(1) * X(3) - X(2, 2)) * X(1, 7)))]
    outcomes = Counter()
    for omega in cases:
        congruence = pl._verify_mult_origin_fixing(omega, omega.n)
        lin = pl._lu_weinstein(omega, omega.n)
        criterion = lin is not None
        assert criterion == congruence.passed, (omega.phi.provenance, omega.n)
        # what the criterion certified is the table's linear part at e
        assert lin is None or lin == pl.linear_part(omega, omega.n)
        assert pl.verify_multiplicativity(omega).to_dict() == congruence.to_dict()
        outcomes[criterion] += 1
    assert outcomes == {True: 49, False: 68}, outcomes
    # a truncation at or below 1 has no pair: the vacuous pass records stay
    for check_max in (0, 1):
        assert pl.verify_multiplicativity(six, check_max).to_dict() == {
            "check": "multiplicativity", "params": {"n": check_max, "start": 1},
            "status": "pass", "witness": None}


def test_passing_tables_skip_the_congruence(monkeypatch):
    # the criterion runs its n-coordinate congruences J b J^T; the 2n-coordinate
    # congruence of multiplicativity runs only for a table the criterion fails
    congruence = pl._congruence_check
    criterion_runs = Counter()

    def no_multiplicativity_congruence(name, *args, **kwargs):
        if name == "multiplicativity":
            raise AssertionError("reached the 2n-coordinate congruence")
        criterion_runs[name] += 1
        return congruence(name, *args, **kwargs)

    monkeypatch.setattr(pl, "_congruence_check", no_multiplicativity_congruence)
    for d in (1, 2, 3):
        for n in (8, 10):
            assert pl.verify_multiplicativity(pl.build_omega(pl.phi_power_family(d), n)).passed
    assert criterion_runs == {"lu-weinstein": 18}
    bad = pl.build_omega(pl.phi_power_family(2), 5).perturbed(2, 4, X(2))
    with pytest.raises(AssertionError, match="2n-coordinate"):
        pl.verify_multiplicativity(bad)


def _plus(*tables):
    """The entrywise sum of origin-fixing tables of one size."""
    omega = Combination()
    for table in tables:
        for ij, w in table.omega.items():
            omega.add(ij, w)
    return pl.PoissonStructure(tables[0].n, 1, omega)


def _scaled(table, factor, kind=VarKind.GROUP_X):
    return pl.PoissonStructure(table.n, 1, {ij: w * factor for ij, w in table.omega.items()},
                               kind)


def test_drinfeld_criterion_agrees_with_the_triple_scan():
    lam = LaurentPoly.var(param("lam"))
    cases = [(pl.build_omega(pl.phi_power_family(d), n), None)
             for d in range(1, 6) for n in range(3, 11)]
    cases += [(pl.build_omega(pl.phi_extended_family(d, value, 9), 8), None)
              for d in (2, 3) for value in (lam, Fraction(2, 3))]
    # multiplicative but not Poisson: only the co-Jacobi step rejects these
    cojacobi_only = [_plus(*(pl.build_omega(pl.phi_power_family(d), 6) for d in pair))
                     for pair in ((1, 2), (1, 3), (2, 3))]
    invalid = pl.phi_from_table({(1, 2): 1, (1, 3): 1}, 1, 4, exact=True)
    cojacobi_only.append(pl.build_omega(invalid, 6))
    cases += [(omega, None) for omega in cojacobi_only]
    # zero linear part at e, so co-Jacobi holds: only Lu-Weinstein rejects these
    six = pl.build_omega(pl.phi_power_family(1), 6)
    cases += [(six.perturbed(2, 5, X(2) * X(3)), None), (six.perturbed(1, 4, X(2, 2)), None)]
    cases += [(pl.build_omega(pl.phi_power_family(d), 6).perturbed(i, j, X(k)), None)
              for d, i, j, k in BENCH_PERTURBATIONS]
    seven = pl.build_omega(pl.phi_power_family(2), 7)
    cases += [(seven, check_max) for check_max in (0, 1, 2, 3, 5)]
    cases += [(seven.perturbed(2, 4, X(2)), check_max) for check_max in (3, 5)]

    def verdicts(omega, check_max):
        """Drinfeld's, Lu-Weinstein's and the scan's verdicts, once the
        records of Jacobi and multiplicativity equal their direct checks'."""
        top = omega.n if check_max is None else check_max
        want = _per_triple_jacobi(omega, check_max).to_dict()
        assert pl.verify_jacobi(omega, check_max).to_dict() == want, (omega.n, check_max)
        assert pl.verify_multiplicativity(omega, check_max).to_dict() == \
            pl._verify_mult_origin_fixing(omega, top).to_dict(), (omega.n, check_max)
        lin = pl._lu_weinstein(omega, top)
        return lin is not None and pl._drinfeld(lin, top), lin is not None, want["status"] == "pass"

    outcomes = Counter()
    for omega, check_max in cases:
        criterion, multiplicative, poisson = verdicts(omega, check_max)
        assert criterion == poisson, (omega.n, check_max)
        outcomes[criterion, multiplicative] += 1
    assert outcomes == {(True, True): 50, (False, True): 4, (False, False): 63}, outcomes
    # tables in a coordinate outside x_1..x_n, or written in another kind, are
    # not bivectors of the n-jet group: read by Lu-Weinstein, the stray
    # variable would count as a constant, so it leaves them to the direct checks
    y2, y3 = (LaurentPoly.var(Variable(VarKind.GROUP_Y, k)) for k in (2, 3))
    for omega, check_max in ((_scaled(six, X(7)), None), (_scaled(six, X(6)), 5),
                             (_scaled(six, X(0)), None),
                             (_scaled(six, y2 * y3, VarKind.GROUP_Y), None)):
        assert verdicts(omega, check_max)[:2] == (False, False), (omega.n, check_max)


def test_passing_tables_skip_the_jacobi_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("reached the triple scan")

    monkeypatch.setattr(pl, "_jacobi_scan", no_scan)
    for d in (1, 2, 3):
        for n in (8, 10):
            report = pl.verify_jacobi(pl.build_omega(pl.phi_power_family(d), n))
            assert report.passed and report.params["checked"] == math.comb(n, 3), (d, n)
            assert report.params["skipped"] == 0
    bad = pl.build_omega(pl.phi_power_family(2), 6).perturbed(2, 4, X(2))
    with pytest.raises(AssertionError, match="triple scan"):
        pl.verify_jacobi(bad)


def test_linear_part_is_the_derivative_at_e():
    lam = LaurentPoly.var(param("lam"))
    six = pl.build_omega(pl.phi_power_family(1), 6)
    cases = [pl.build_omega(pl.phi_power_family(d), n) for d in (1, 2, 3) for n in (2, 5, 8)]
    cases += [pl.build_omega(pl.phi_extended_family(3, lam, 8), 7),
              six.perturbed(1, 2, X(1) - lam * X(1, 3) * X(2) + X(1, -2) * X(4)),
              six.perturbed(2, 5, X(2) * X(3) + X(7) * X(3)),
              six.perturbed(3, 4, X(1) * X(6) - X(6))]
    for omega in cases:
        for n in (omega.n, omega.n - 1):
            at_e = {x_var(m): LaurentPoly.one() if m == 1 else LaurentPoly.zero()
                    for m in range(1, n + 1)}
            want = {ij: {m: c for m in range(1, n + 1)
                         if (c := w.derivative(x_var(m)).substitute(at_e))}
                    for ij, w in omega.omega.items() if max(ij) <= n}
            assert pl.linear_part(omega, n) == want, (omega.n, n)
    # lam stays a symbol: {x1, x5} of the extended family d=3 is
    # lam (x1^2 - x1^6) + (2 x1 - 4 x1^4) x2, so d_1 is -4 lam at e and d_2 is -2
    assert pl.linear_part(cases[9], 7)[1, 5] == {1: -4 * lam, 2: LaurentPoly.const(-2)}


# -- the functional equation on generating functions -------------------------


def test_phi_equation_power_families():
    for d in range(1, 6):
        assert pl.verify_phi_equation(pl.phi_power_family(d), 8).passed, d


def test_phi_equation_extended_families_symbolic():
    lam = LaurentPoly.var(param("lam"))
    for d in (2, 3):
        phi = pl.phi_extended_family(d, lam, 13)
        assert pl.verify_phi_equation(phi, 12).passed, d


def test_phi_equation_antisymmetry_of_residual_series():
    phi = pl.phi_from_table({(1, 2): 1, (1, 4): 3}, 1, 5, exact=True)
    series = pl.phi_equation_series(phi, 6)
    for (k, n, r), c in series.coeffs.items():
        swapped = series.coeff((n, k, r))
        assert swapped == -c


def test_phi_equation_negative_control_hits_first_quadric():
    bad = pl.phi_from_table({(1, 2): 1, (1, 3): 1}, 1, 4, exact=True)
    report = pl.verify_phi_equation(bad, 6)
    assert not report.passed
    assert report.witness["indices"] == [1, 2, 3]
    assert report.witness["residual"] == "-1"  # -lam12*lam13 at the witness


def test_phi_equation_rejects_bounds_that_compare_nothing():
    # coefficients sit at three distinct exponents >= min_index, so this
    # invalid table, which fails from degree 3 on, passed vacuously below it
    bad = pl.phi_from_table({(1, 2): 1, (1, 3): 1}, 1, 4, exact=True)
    for dcheck in (1, 2):
        with pytest.raises(pl.DegreeBoundTooSmall):
            pl.verify_phi_equation(bad, dcheck)
    assert pl.verify_phi_equation(bad, 3).witness["indices"] == [1, 2, 3]
    # a table from index 0 has its first coefficient at degree 2
    bad0 = pl.phi_from_table({(0, 1): 1, (0, 2): 1}, 0, 4, exact=True)
    with pytest.raises(pl.DegreeBoundTooSmall):
        pl.verify_phi_equation(bad0, 1)
    assert pl.verify_phi_equation(bad0, 2).witness["indices"] == [0, 1, 2]


def _quadric_residual(phi, k, n, r):
    """Direct evaluation of one coefficient equation of the quadric system
    equivalent to the functional equation; an independent cross-check of
    phi_equation_series."""
    total = LaurentPoly.zero()
    top = max(k, n, r) + 1
    for s in range(min(0, phi.min_index), top + 1):
        term = (
            (phi.coeff(k - s + 1, n) + phi.coeff(k, n - s + 1)) * phi.coeff(r, s)
            + (phi.coeff(n - s + 1, r) + phi.coeff(n, r - s + 1)) * phi.coeff(k, s)
            + (phi.coeff(r - s + 1, k) + phi.coeff(r, k - s + 1)) * phi.coeff(n, s)
        )
        total = total + term * s
    return total


def test_phi_equation_series_matches_quadric_evaluation():
    rng = random.Random(3)
    entries = {(m, n): Fraction(rng.randint(-2, 2)) for m in range(1, 5)
               for n in range(m + 1, 6)}
    phi = pl.phi_from_table(entries, 1, 6, exact=True)
    series = pl.phi_equation_series(phi, 7)
    # the series coefficient at (k, n, r) equals the quadric expression
    for k in range(1, 5):
        for n in range(k + 1, 6):
            for r in range(n + 1, 7):
                got = series.coeff((k, n, r))
                assert got == _quadric_residual(phi, k, n, r), (k, n, r)


def _three_product_phi_equation(phi, bound):
    """The phi equation as three products, one per cyclic term."""
    space = ("u", "v", "w")
    B1 = bound + 1
    box = (bound,) * 3

    def pair(a, b):
        return phi.as_series(a, b, space, (B1, B1, B1))

    def d(series, var):
        return ts.truncate(ts.derivative(series, var), box)

    total = ts.zero(space, box)
    for (a, b, c) in (("w", "u", "v"), ("u", "v", "w"), ("v", "w", "u")):
        inner = ts.add(d(pair(a, b), b), d(pair(a, c), c))
        total = ts.add(total, ts.mul(ts.truncate(pair(b, c), box), inner))
    return total


def _random_phi(rng):
    """A table built directly, from index 0 or 1, with rational or symbolic
    entries, antisymmetric or not (diagonal entries included), complete."""
    lo = rng.choice((0, 1))
    top = rng.randint(lo + 2, 5)
    a = LaurentPoly.var(param("a"))
    values = (LaurentPoly.one(), LaurentPoly.const(-2), LaurentPoly.const(Fraction(1, 3)), a, a - 1)
    table = Combination()
    for _ in range(rng.randint(1, 6)):
        m, n = rng.randint(lo, top), rng.randint(lo, top)
        c = rng.choice(values)
        table.add((m, n), c)
        if rng.random() < 0.5:
            table.add((n, m), -c)
    return pl.PhiFunction(lo, table, None, "random"), rng.randint(lo + 2, 6)


def test_phi_equation_series_matches_three_products():
    """One product relabelled cyclically gives every coefficient of the three
    products, also for tables that are not antisymmetric."""
    lam = LaurentPoly.var(param("lam"))
    cases = [(pl.phi_power_family(d), bound) for d in range(1, 6) for bound in (3, d + 2, 8)]
    cases += [(pl.phi_extended_family(d, value, 8), 7) for d in (2, 3)
              for value in (lam, Fraction(2, 3))]
    cases.append((pl.phi_from_table({(1, 2): 1, (1, 3): 1}, 1, 4, exact=True), 6))
    free = {n: LaurentPoly.var(param(f"a{n}")) for n in range(2, 8)}
    cases.append((ba.classify_g0_branch(free, 6), 5))
    rng = random.Random(13)
    cases += [_random_phi(rng) for _ in range(60)]
    failing = 0
    for phi, bound in cases:
        want = _three_product_phi_equation(phi, bound)
        assert pl.phi_equation_series(phi, bound) == want, (phi, bound)
        failing += not want.is_zero()
    # the sample keeps nonzero residuals, where a lost or wrong relabelling shows
    assert failing >= 40, failing


def test_functional_equation_quadric_list():
    # with a fully symbolic table the residual coefficients reproduce the
    # whole low-degree quadric list, each up to the recorded scalar
    L = {}
    for m in range(1, 6):
        for n in range(m + 1, 7):
            L[(m, n)] = LaurentPoly.var(param(f"l{m}{n}"))
    phi = pl.phi_from_table(L, 1, 7, exact=True)
    series = pl.phi_equation_series(phi, 6)
    l = lambda m, n: LaurentPoly.var(param(f"l{m}{n}"))
    quadrics = {
        (1, 2, 3): (-1, l(1, 2) * l(1, 3)),
        (1, 2, 4): (-1, l(1, 2) * (2 * l(1, 4) + l(2, 3))),
        (1, 3, 4): (-1, l(1, 3) * (l(1, 4) + l(2, 3))),
        (2, 3, 4): (1, 3 * l(1, 4) * l(2, 3) - l(2, 3) ** 2
                    - 4 * l(1, 3) * l(2, 4) + 5 * l(1, 2) * l(3, 4)),
        (1, 2, 5): (-1, l(1, 2) * (3 * l(1, 5) + 2 * l(2, 4))),
        (1, 3, 5): (-2, l(1, 3) * l(1, 5) + l(1, 4) * l(2, 3) + l(1, 2) * l(3, 4)),
        (2, 3, 5): (1, 3 * l(1, 5) * l(2, 3) - 2 * l(2, 3) * l(2, 4)
                    - 5 * l(1, 3) * l(2, 5) + 6 * l(1, 2) * l(3, 5)),
        (1, 4, 5): (1, -l(1, 4) * l(1, 5) - 2 * l(1, 4) * l(2, 4)
                    + l(1, 3) * l(2, 5) - l(1, 2) * l(3, 5)),
        (2, 4, 5): (1, 4 * l(1, 5) * l(2, 4) - 2 * l(2, 4) ** 2
                    - 5 * l(1, 4) * l(2, 5) + l(2, 3) * l(2, 5)
                    + 7 * l(1, 2) * l(4, 5)),
        (3, 4, 5): (1, 5 * l(1, 5) * l(3, 4) - 2 * l(2, 4) * l(3, 4)
                    - 6 * l(1, 4) * l(3, 5) + l(2, 3) * l(3, 5)
                    + 7 * l(1, 3) * l(4, 5)),
    }
    for exps, (scale, quadric) in quadrics.items():
        assert series.coeff(exps) == quadric * scale, exps


def test_extended_family_coefficients():
    lam = LaurentPoly.var(param("lam"))
    for d in (2, 3):
        phi = pl.phi_extended_family(d, lam, 12)
        assert phi.coeff(1, d + 1) == LaurentPoly.one()
        for n in range(d + 1, 12):
            assert phi.coeff(1, n) == lam ** (n - d - 1)
        assert phi.coeff(2, d + 1) == -(lam / (d - 1))
        assert phi.coeff(d + 1, 1) == -LaurentPoly.one()
    zero_lam = pl.phi_extended_family(2, 0, 8)
    assert zero_lam.coeff(1, 3) == LaurentPoly.one()
    assert zero_lam.coeff(1, 4).is_zero()


def _extended_family_by_series(d, lam, degree):
    """The extended family as the product its closed form sums: the
    numerator times the geometric series of 1/(1 - lam u) and 1/(1 - lam v),
    over d - 1, cut at the degree box."""
    lam = pl.weight(lam)
    space, bounds = ("u", "v"), (degree, degree)
    geom_u = ts.make(space, bounds, {(k, 0): lam ** k for k in range(degree + 1)})
    geom_v = ts.make(space, bounds, {(0, k): lam ** k for k in range(degree + 1)})
    numerator = Combination.antisymmetric([((1, d + 1), d - 1), ((d + 1, 2), lam * d)])
    series = ts.scale(ts.product(ts.make(space, bounds, numerator), geom_u, geom_v),
                      Fraction(1, d - 1))
    upper = ((mn, c) for mn, c in series.coeffs.items() if mn[0] < mn[1])
    return pl.PhiFunction(1, Combination.antisymmetric(upper), degree, f"extended d={d}")


def test_extended_family_matches_its_series_expansion():
    # the same table, with its entries in the same order, for every box
    for lam in (LaurentPoly.var(param("lam")), Fraction(1, 2), Fraction(-3, 7), 0, "mu"):
        for d in range(2, 6):
            for degree in range(1, 18):
                phi = pl.phi_extended_family(d, lam, degree)
                expected = _extended_family_by_series(d, lam, degree)
                assert phi == expected and list(phi.table) == list(expected.table), (lam, d, degree)


def test_phi_linear_and_exponential_tables():
    lin = pl.phi_linear()
    assert lin.coeff(1, 0) == LaurentPoly.one()
    assert lin.coeff(0, 1) == -LaurentPoly.one()
    lam = LaurentPoly.var(param("lam"))
    ex = pl.phi_exponential(lam, 8)
    for k in range(1, 7):
        fact = 1
        for q in range(2, k + 1):
            fact *= q
        assert ex.coeff(k, 0) == lam ** k / fact
    assert pl.verify_phi_equation(lin, 6).passed
    assert pl.verify_phi_equation(ex, 6).passed


def test_power_family_antisymmetry():
    phi = pl.phi_power_family(3)
    assert phi.coeff(4, 1) == LaurentPoly.one()
    assert phi.coeff(1, 4) == -LaurentPoly.one()
    for (m, n) in phi.table:
        assert phi.coeff(m, n) == -phi.coeff(n, m)
