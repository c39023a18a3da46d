"""Weight-lambda densities: the action, its bracket tables, and the exact
compatibility identity."""

from fractions import Fraction

import pytest

from jetpoisson import density as dn
from jetpoisson import jetgroup as jg
from jetpoisson import poissonlie as pl
from jetpoisson import series as ts
from jetpoisson.coeffpoly import LaurentPoly, Variable, VarKind, aux_t, param


def D(i):
    return LaurentPoly.var(Variable(VarKind.DENSITY_X, i))


def test_identity_acts_trivially():
    x = dn.symbolic_density(3, "lam")
    e = jg.jet_identity(5)
    out = dn.density_act(e, x, LaurentPoly.one())
    assert all(out.coord(i) == x.coord(i) for i in range(4))


def test_weight_zero_action_is_plain_composition():
    x = dn.symbolic_density(3, 0)
    y = jg.symbolic_jet(5, "y")
    out = dn.density_act(y, x)
    z = ts.compose(x.to_series(bound=3), y.to_series(bound=3))
    assert all(out.coord(i) == z.coeff((i,)) for i in range(4))


def test_action_coordinates_carry_one_unit_each():
    x = dn.symbolic_density(2, "lam")
    y = jg.symbolic_jet(4, "y")
    t = LaurentPoly.var(aux_t(0))
    out = dn.density_act(y, x, t)
    for i in range(out.n + 1):
        assert out.coord(i).coefficient(aux_t(0), 1) * t == out.coord(i)


def test_action_composes_contravariantly():
    x = dn.symbolic_density(3, "lam")
    y = jg.symbolic_jet(5, "y")
    z = jg.symbolic_jet(7, "z")
    t_y = LaurentPoly.var(aux_t(1))
    t_z = LaurentPoly.var(aux_t(2))
    twice = dn.density_act(z, dn.density_act(y, x, t_y), t_z)
    once = dn.density_act(jg.jet_compose(y, z), x, t_y * t_z)
    top = min(twice.n, once.n)
    assert top == 3
    for i in range(top + 1):
        assert twice.coord(i) == once.coord(i), i


def test_action_requires_invertible_jet():
    x = dn.symbolic_density(2, "lam")
    with pytest.raises(jg.NotInvertible):
        dn.density_act(jg.symbolic_jet(3, "y", 0, 2), x)
    bad = jg.make_jet([LaurentPoly.var(Variable(VarKind.GROUP_Y, 2)), LaurentPoly.one()])
    with pytest.raises(jg.NotInvertible):
        dn.density_act(bad, x)


def test_bracket_table_weight_zero_is_pullback_form():
    # at weight 0 only the first assembled term survives
    omega = dn.build_omega_density(pl.phi_power_family(1), 0, 3)
    phi = pl.phi_power_family(1)
    space, bounds = ("u", "v"), (3, 3)
    coords = {i: D(i) for i in range(5)}
    x_u = ts.make(("u",), (4,), {(i,): c for i, c in coords.items()})
    x_v = ts.make(("v",), (4,), {(i,): c for i, c in coords.items()})
    direct = ts.product(
        phi.as_series("u", "v", space, bounds),
        ts.lift(ts.derivative(x_u, "u"), space, bounds),
        ts.lift(ts.derivative(x_v, "v"), space, bounds),
    )
    for (i, j), w in omega.omega.items():
        assert w == direct.coeff((i, j))


def test_bracket_table_of_constant_density_is_zero_at_weight_zero():
    omega = dn.build_omega_density(pl.phi_power_family(1), 0, 3)
    point = {Variable(VarKind.DENSITY_X, 0): LaurentPoly.one()}
    point.update({Variable(VarKind.DENSITY_X, i): LaurentPoly.zero() for i in range(1, 5)})
    assert all(w.substitute(point).is_zero() for w in omega.omega.values())


def test_bracket_entries_dual_path():
    # hand expansion of the four generating terms at low indices for the
    # linear monomial family (phi = u^2 v - u v^2, derivatives 2uv - v^2,
    # u^2 - 2uv, 2u - 2v), frozen here as a second construction path
    phi = pl.phi_power_family(1)
    lam = LaurentPoly.var(param("lam"))
    omega = dn.build_omega_density(phi, "lam", 3)
    x0, x1, x2 = D(0), D(1), D(2)
    assert omega.bracket(0, 1) == -2 * lam * lam * x0 * x0
    assert omega.bracket(0, 2) == -lam * x0 * x1 - 2 * lam * lam * x0 * x1
    assert omega.bracket(1, 2) == (-x1 * x1 + lam * (4 * x0 * x2 - 3 * x1 * x1)
                                   + lam * lam * (2 * x0 * x2 - 2 * x1 * x1))


def test_lambda_polynomiality_degree_two():
    lam_code = param("lam").code
    for d in (1, 2):
        omega = dn.build_omega_density(pl.phi_power_family(d), "lam", 4)
        assert all(w.drop_high_degree({lam_code}, 2) == w for w in omega.omega.values())


def test_density_action_identity_symbolic_and_rational():
    assert dn.verify_density_action(pl.phi_power_family(1), "lam", 3).passed
    assert dn.verify_density_action(pl.phi_power_family(2), Fraction(1, 2), 3).passed


def test_density_action_negative_control():
    phi = pl.phi_power_family(1)
    good = dn.build_omega_density(phi, "lam", 4)
    bad = good.perturbed(0, 1, D(0))
    report = dn.verify_density_action(phi, "lam", 3, omega_dens=bad)
    assert not report.passed
    assert report.witness is not None


def test_density_jacobi_symbolic_rational_and_weight_zero():
    assert dn.verify_density_jacobi(pl.phi_power_family(1), "lam", 3).passed
    assert dn.verify_density_jacobi(pl.phi_power_family(2), Fraction(1, 2), 3).passed
    for d in (1, 2, 3):
        assert dn.verify_density_jacobi(pl.phi_power_family(d), 0, 3).passed, d


def test_density_jacobi_negative_control():
    phi = pl.phi_power_family(1)
    bad = dn.build_omega_density(phi, "lam", 4).perturbed(0, 1, D(1))
    report = dn.verify_density_jacobi(phi, "lam", 3, omega_dens=bad)
    assert not report.passed
    assert len(report.witness["indices"]) == 3
