"""Jet groups: group law coefficients, inverse, fields, projections, the
extended (origin-moving) model with nilpotent degree-0 coordinates."""

from fractions import Fraction

import pytest

from jetpoisson import jetgroup as jg
from jetpoisson import series as ts
from jetpoisson.coeffpoly import LaurentPoly, Variable, VarKind, x_var


def V(var):
    return LaurentPoly.var(var)


def test_group_law_printed_coefficients():
    x = jg.symbolic_jet(4, "x")
    y = jg.symbolic_jet(4, "y")
    z = jg.jet_compose(x, y)
    x1, x2, x3, x4 = (V(x_var(i)) for i in range(1, 5))
    y1, y2, y3, y4 = (V(Variable(VarKind.GROUP_Y, i)) for i in range(1, 5))
    assert z.coord(1) == x1 * y1
    assert z.coord(2) == x1 * y2 + x2 * y1 ** 2
    assert z.coord(3) == x1 * y3 + 2 * x2 * y1 * y2 + x3 * y1 ** 3
    assert z.coord(4) == (x1 * y4 + x2 * (y2 ** 2 + 2 * y1 * y3)
                          + 3 * x3 * y1 ** 2 * y2 + x4 * y1 ** 4)


def test_associativity_fully_symbolic_n6():
    n = 6
    x, y, z = (jg.symbolic_jet(n, letter) for letter in "xyz")
    lhs = jg.jet_compose(jg.jet_compose(x, y), z)
    rhs = jg.jet_compose(x, jg.jet_compose(y, z))
    for i in range(1, n + 1):
        assert lhs.coord(i) == rhs.coord(i)


def test_identity_is_two_sided():
    for n in (3, 5):
        e = jg.jet_identity(n)
        assert [e.coord(i) for i in e.indices()] == [LaurentPoly.one()] + [
            LaurentPoly.zero()
        ] * (n - 1)
        x = jg.symbolic_jet(n, "x")
        assert all(jg.jet_compose(x, e).coord(i) == x.coord(i) for i in range(1, n + 1))
        assert all(jg.jet_compose(e, x).coord(i) == x.coord(i) for i in range(1, n + 1))
        ee = jg.jet_compose(e, e)
        assert all(ee.coord(i) == e.coord(i) for i in range(1, n + 1))


def test_inverse_defining_property_and_closed_forms():
    e2 = jg.jet_identity(2)
    two = jg.jet_inverse(jg.symbolic_jet(2, "x"))
    x1, x2 = V(x_var(1)), V(x_var(2))
    assert two.coord(1) == x1 ** -1
    assert two.coord(2) == -(x2 * x1 ** -3)
    x = jg.symbolic_jet(5, "x")
    xb = jg.jet_inverse(x)
    e = jg.jet_identity(5)
    assert all(jg.jet_compose(x, xb).coord(i) == e.coord(i) for i in range(1, 6))
    assert all(jg.jet_compose(xb, x).coord(i) == e.coord(i) for i in range(1, 6))
    assert all(jg.jet_inverse(e).coord(i) == e.coord(i) for i in range(1, 6))


def test_inverse_requires_unit_leading_coefficient():
    with pytest.raises(jg.NotInvertible):
        jg.jet_inverse(jg.make_jet([LaurentPoly.var(x_var(2)), LaurentPoly.one()]))


def test_left_invariant_fields_components():
    X1 = jg.left_invariant_field(1, 3)
    assert {i: c.render() for i, c in sorted(X1.items())} == {
        1: "1*x1", 2: "2*x2", 3: "3*x3"}
    X3 = jg.left_invariant_field(3, 3)
    assert {i: c.render() for i, c in X3.items()} == {3: "1*x1"}


def test_field_bracket_table_at_truncation_8():
    n = 8
    fields = {k: jg.left_invariant_field(k, n) for k in range(1, n + 1)}
    for a in range(1, 7):
        for b in range(1, 7):
            got = jg.vf_commutator(fields[a], fields[b])
            expect = jg.left_invariant_field(a + b - 1, n).map(lambda c: c * (a - b))
            assert got == expect, (a, b)


def test_witt_bracket_after_index_shift():
    # with shifted labels k -> k-1 the bracket constants become (a - b) e_{a+b}
    n = 8
    for a in range(0, 5):
        for b in range(0, 5):
            got = jg.vf_commutator(jg.left_invariant_field(a + 1, n),
                                   jg.left_invariant_field(b + 1, n))
            expect = jg.left_invariant_field(a + b + 1, n).map(lambda c: c * (a - b))
            assert got == expect


def test_right_invariant_fields_are_the_powers_of_the_jet():
    # R_m^i = [u^i] x(u)^m, against repeated series products, on both models
    # and in y coordinates; on the origin-fixing model R_m is zero past m = n
    for start, letter, n in ((1, "x", 6), (1, "y", 4), (0, "x", 4)):
        x = jg.symbolic_jet(n, letter, start, nilpotency=None if start else n)
        fields = jg.right_invariant_fields(n + 3, n, jg.LETTER_KINDS[letter], start)
        power = ts.const(1, ("u",), (n,))
        for m in range(n + 4):
            want = {i: c for (i,), c in power.coeffs.items()}
            assert fields.get(m, {}) == want, (start, letter, m)
            power = ts.mul(power, x.to_series())
    assert sorted(jg.right_invariant_fields(9, 4, VarKind.GROUP_X, 1)) == [0, 1, 2, 3, 4]


def test_right_invariant_fields_commute_with_the_left_invariant_ones():
    # [X_a, R_b] = 0, and [R_a, R_b] = (b - a) R_{a+b-1}: the right-invariant
    # fields of the same algebra, with the opposite sign of the bracket
    n = 7
    R = jg.right_invariant_fields(n, n, VarKind.GROUP_X, 1)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            assert not jg.vf_commutator(jg.left_invariant_field(a, n), R[b]), (a, b)
            expect = R.get(a + b - 1, {})
            assert jg.vf_commutator(R[a], R[b]) == {
                i: c * (b - a) for i, c in expect.items() if a != b}, (a, b)


def test_left_translation_tangent_matrix():
    # d z_n / d y_m at the identity jet equals (n - m + 1) x_{n-m+1}
    n = 5
    x = jg.symbolic_jet(n, "x")
    y = jg.symbolic_jet(n, "y")
    z = jg.jet_compose(x, y)
    at_e = {Variable(VarKind.GROUP_Y, i): (LaurentPoly.one() if i == 1 else LaurentPoly.zero())
            for i in range(1, n + 1)}
    for nn in range(1, n + 1):
        for m in range(1, n + 1):
            got = z.coord(nn).derivative(Variable(VarKind.GROUP_Y, m)).substitute(at_e)
            k = nn - m + 1
            expect = V(x_var(k)) * k if 1 <= k <= n else LaurentPoly.zero()
            assert got == expect


def test_projection_is_homomorphism():
    x = jg.symbolic_jet(5, "x")
    y = jg.symbolic_jet(5, "y")
    left = jg.jet_project(jg.jet_compose(x, y), 3)
    right = jg.jet_compose(jg.jet_project(x, 3), jg.jet_project(y, 3))
    assert all(left.coord(i) == right.coord(i) for i in range(1, 4))
    assert jg.jet_project(x, 3).n == 3
    e = jg.jet_identity(5)
    assert all(jg.jet_project(e, 3).coord(i) == jg.jet_identity(3).coord(i)
               for i in range(1, 4))


def test_rational_jets_compose_numerically():
    a = jg.make_jet([Fraction(2), Fraction(1, 3), Fraction(0)])
    b = jg.make_jet([Fraction(1, 2), Fraction(1), Fraction(-1)])
    z = jg.jet_compose(a, b)
    # x(y(u)) with x = 2u + u^2/3, y = u/2 + u^2 - u^3
    assert z.coord(1) == LaurentPoly.const(Fraction(1))
    assert z.coord(2) == LaurentPoly.const(Fraction(2) + Fraction(1, 12))
    assert z.coord(3) == LaurentPoly.const(Fraction(-2) + Fraction(1, 3))


# -- the extended model ------------------------------------------------------


def test_extended_identity():
    def identity(n):
        return jg.make_jet([0, 1] + [0] * (n - 1), 0, 2)

    e = identity(3)
    assert [e.coord(i) for i in range(4)] == [
        LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.zero()]
    x = jg.symbolic_jet(6, "x", 0, nilpotency=2)
    xe = jg.jet_compose(x, identity(4))
    assert all(xe.coord(i) == x.coord(i) for i in range(xe.n + 1))
    ex = jg.jet_compose(identity(8), x)
    assert all(ex.coord(i) == x.coord(i) for i in range(ex.n + 1))


def test_extended_constant_coordinate_formula():
    # the degree-0 output coordinate is sum_i x_i y_0^i, cut by nilpotency
    m = 2
    x = jg.symbolic_jet(4, "x", 0, nilpotency=m)
    y = jg.symbolic_jet(2, "y", 0, nilpotency=m)
    z = jg.jet_compose(x, y)
    y0 = V(Variable(VarKind.GROUP_Y, 0))
    expect = (V(Variable(VarKind.GROUP_X, 0)) + V(x_var(1)) * y0
              + V(x_var(2)) * y0 ** 2)
    assert z.coord(0) == expect


@pytest.mark.parametrize("n,m", [(3, 2), (4, 3)])
def test_extended_associativity(n, m):
    xx = jg.symbolic_jet(n + 2 * m, "x", 0, m)
    yy = jg.symbolic_jet(n + 2 * m, "y", 0, m)
    zz = jg.symbolic_jet(n + 2 * m, "z", 0, m)
    lhs = jg.jet_compose(jg.jet_compose(xx, yy), zz)
    rhs = jg.jet_compose(xx, jg.jet_compose(yy, zz))
    top = min(lhs.n, rhs.n)
    assert top >= n
    for i in range(top + 1):
        assert lhs.coord(i) == rhs.coord(i), i


def test_extended_needs_nilpotency_order():
    with pytest.raises(jg.ShapeMismatch):
        jg.make_jet([0, 1, 0], 0)
    with pytest.raises(jg.ShapeMismatch):
        jg.jet_compose(jg.symbolic_jet(3, "x", 0, 2), jg.symbolic_jet(3, "y", 0, 3))
    with pytest.raises(jg.ShapeMismatch):
        jg.jet_compose(jg.symbolic_jet(3, "x"), jg.symbolic_jet(3, "y", 0, 2))
