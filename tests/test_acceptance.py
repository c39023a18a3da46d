"""Acceptance suite: one test per criterion, every check exact (tolerance 0).

Each test prints a single pass/fail line (visible with ``pytest -s`` or when
this file is run directly).  Two entries of the published tables are internally
inconsistent with the formulas that define them; the affected criteria assert
the internally consistent values, and the strict-xfail tests at the bottom
keep the conflicting printed values on record.  Details sit next to the
assertions and in the decisions log outside the package.
"""

import sys
import time
from fractions import Fraction

import pytest

import golden_cases
from jetpoisson import bialgebra as ba
from jetpoisson import density as dn
from jetpoisson import jetgroup as jg
from jetpoisson import poissonlie as pl
from jetpoisson import quantum as qt
from jetpoisson.coeffpoly import LaurentPoly, Variable, VarKind, param, x_var

from test_poissonlie import TABLE_D1_N4, TABLE_D2_N5, TABLE_D3_N5


def _report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{status}] {label}{suffix}", file=sys.stderr)
    assert ok, f"criterion {number}: {label}{suffix}"


def test_criterion_01_group_law():
    t0 = time.time()
    n = 6
    x, y, z = (jg.symbolic_jet(n, letter) for letter in "xyz")
    lhs = jg.jet_compose(jg.jet_compose(x, y), z)
    rhs = jg.jet_compose(x, jg.jet_compose(y, z))
    ok = all(lhs.coord(i) == rhs.coord(i) for i in range(1, n + 1))
    zc = jg.jet_compose(jg.symbolic_jet(4, "x"), jg.symbolic_jet(4, "y"))
    X = lambda i: LaurentPoly.var(x_var(i))
    Y = lambda i: LaurentPoly.var(Variable(VarKind.GROUP_Y, i))
    ok = ok and zc.coord(1) == X(1) * Y(1)
    ok = ok and zc.coord(2) == X(1) * Y(2) + X(2) * Y(1) ** 2
    ok = ok and zc.coord(3) == X(1) * Y(3) + 2 * X(2) * Y(1) * Y(2) + X(3) * Y(1) ** 3
    ok = ok and zc.coord(4) == (X(1) * Y(4) + X(2) * (Y(2) ** 2 + 2 * Y(1) * Y(3))
                                + 3 * X(3) * Y(1) ** 2 * Y(2) + X(4) * Y(1) ** 4)
    _report(1, "group law: associativity at n=6 and the printed low coordinates",
            ok, f"{time.time() - t0:.2f}s")


def test_criterion_02_vector_fields():
    n = 8
    ok = True
    for a in range(1, 7):
        for b in range(1, 7):
            got = jg.vf_commutator(jg.left_invariant_field(a, n),
                                   jg.left_invariant_field(b, n))
            ok = ok and got == jg.left_invariant_field(a + b - 1, n).map(lambda c: c * (a - b))
    _report(2, "left-invariant fields: bracket table at truncation 8", ok)


def test_criterion_03_bracket_tables():
    ok = True
    for d, n, table in ((2, 5, TABLE_D2_N5), (1, 4, TABLE_D1_N4), (3, 5, TABLE_D3_N5)):
        series_path = pl.build_omega(pl.phi_power_family(d), n)
        closed_path = pl.omega_power_closed_form(d, n)
        for (i, j), expect in table.items():
            ok = ok and series_path.bracket(i, j) == expect
            ok = ok and closed_path.bracket(i, j) == expect
    _report(3, "bracket tables for d=2 (10), d=1 (6), d=3 (10), both paths", ok,
            "two printed entries corrected; see printed-variant records")


def test_criterion_04_phi_equation():
    t0 = time.time()
    ok = all(pl.verify_phi_equation(pl.phi_power_family(d), 8).passed
             for d in range(1, 6))
    lam = LaurentPoly.var(param("lam"))
    for d in (2, 3):
        phi = pl.phi_extended_family(d, lam, 13)
        ok = ok and pl.verify_phi_equation(phi, 12).passed
    bad = pl.phi_from_table({(1, 2): 1, (1, 3): 1}, 1, 4, exact=True)
    r = pl.verify_phi_equation(bad, 6)
    ok = ok and not r.passed and r.witness["indices"] == [1, 2, 3]
    ok = ok and r.witness["residual"] == "-1"
    from test_poissonlie import test_functional_equation_quadric_list
    test_functional_equation_quadric_list()  # the full low-degree quadric list
    _report(4, "functional equation: monomial d<=5, deformed d=2,3 at degree 12, "
               "quadric list as residual coefficients", ok, f"{time.time() - t0:.2f}s")


def test_criterion_05_poisson_lie_axioms():
    ok = True
    for d, n in ((2, 5), (1, 4), (3, 5)):
        omega = pl.build_omega(pl.phi_power_family(d), n)
        ok = ok and pl.verify_jacobi(omega).passed
        ok = ok and pl.verify_multiplicativity(omega).passed
    linear = pl.build_omega(pl.phi_linear(), 4, 0)
    ok = ok and pl.verify_jacobi(linear, check_max=3).passed
    ok = ok and pl.verify_multiplicativity(linear, check_max=3).passed
    for d, n in ((1, 3), (1, 4), (2, 3), (2, 4)):
        omega = pl.build_omega(pl.phi_power_family(d), n)
        ok = ok and pl.verify_inversion_antipoisson(omega).passed
    _report(5, "Jacobi + multiplicativity for the three tables and the extended "
               "linear structure; anti-Poisson inversion for d<=2, n<=4", ok)


def test_criterion_06_witt_recursion():
    seq = ba.witt_a_sequence(7)
    printed = [Fraction(1), Fraction(3), Fraction(5), Fraction(64, 9), Fraction(28, 3)]
    ok = seq[:5] == printed
    # The recursion determines the last value as 1049/90; the printed list's
    # 451/45 contradicts the recursion and the redundancy relations (see
    # test_witt_a_sequence_consistency_relations and the decisions log).
    ok = ok and seq[5] == Fraction(1049, 90)
    _report(6, "diagonal-recursion values a2..a6 as printed, a7 per the recursion",
            ok, "printed a7=451/45 is inconsistent; kept on record as xfail")


def test_criterion_07_classification_pipeline():
    mu = LaurentPoly.var(param("mu"))
    table = ba.classify_branch_d(2, {4: mu}, 9)
    ok = table.coeff(1, 5) == mu * mu and table.coeff(2, 3) == -mu
    lam = LaurentPoly.var(param("lam"))
    geo = {n: lam ** (n - 3) for n in [4] + list(range(6, 16))}
    spec = ba.classify_branch_d(2, geo, 15)
    phi = pl.phi_extended_family(2, lam, 13)
    ok = ok and all(spec.coeff(m, n) == phi.coeff(m, n)
                    for m in range(1, 14) for n in range(1, 14))
    free = {n: LaurentPoly.var(param(f"a{n}")) for n in range(2, 7)}
    g0 = ba.classify_g0_branch(free, 5)
    a2, a3, a4, a5 = (LaurentPoly.var(param(f"a{n}")) for n in range(2, 6))
    ok = ok and g0.coeff(1, 2) == (2 * a2 * a2 - 3 * a3) / 2
    ok = ok and g0.coeff(1, 3) == (2 * a2 * a3 - 4 * a4) / 3
    ok = ok and g0.coeff(1, 4) == (2 * a2 * a2 * a3 - 9 * a3 * a3
                                   + 20 * a2 * a4 - 30 * a5) / 24
    _report(7, "branch classifier: forced entries, geometric specialization at "
               "degree 12, extended-branch first-row formulas", ok)


def test_criterion_08_r_matrix_layer():
    t0 = time.time()
    ok = True
    for d in range(1, 6):
        r = ba.r_from_phi(pl.phi_power_family(d))
        cochain = ba.coboundary(r, 16)
        ok = ok and ba.verify_cocycle(cochain, 8).passed
        ok = ok and ba.verify_cojacobi(cochain, 8).passed
        ok = ok and ba.verify_cybe(r, 8).passed
    for d in (1, 2, 3):
        omega = pl.build_omega(pl.phi_power_family(d), 6)
        ok = ok and ba.beta_correspondence(omega, pl.phi_power_family(d)).passed
    # stated monomial family, matched with sign +1 for our phi orientation
    for d in (1, 2):
        fam = ba.family_jet_monomial(d, 8)
        cb = ba.coboundary(ba.r_from_phi(pl.phi_power_family(d)), 8)
        ok = ok and all(cb.entry(n, i, j) == fam.entry(n, i, j)
                        for n in range(0, 9) for i in range(0, 12) for j in range(0, 12))
    famW = ba.family_witt_linear(8)
    cbW = ba.coboundary(ba.r_from_phi(pl.phi_linear()), 8)
    ok = ok and all(cbW.entry(n, i, j) == famW.entry(n, i, j)
                    for n in range(-1, 9) for i in range(-1, 10) for j in range(-1, 10))
    first, second = ba.sl2_pair()
    for cochain in (first, second):
        ok = ok and ba.verify_cocycle(cochain, 1).passed
        ok = ok and ba.verify_cojacobi(cochain, 1).passed
    ok = ok and first.entry(0, 0, -1) == 1 and second.entry(-1, 1, -1) == 1
    _report(8, "r-matrix layer: coboundary/cocycle/co-Jacobi/CYBE at N=8 for "
               "d<=5, tangent correspondence d<=3 n<=6, stated families", ok,
            f"{time.time() - t0:.2f}s; monomial-family sign +1 recorded")


def test_criterion_09_density_layer():
    t0 = time.time()
    ok = dn.verify_density_action(pl.phi_power_family(1), "lam", 3).passed
    ok = ok and dn.verify_density_jacobi(pl.phi_power_family(1), "lam", 3).passed
    ok = ok and dn.verify_density_action(pl.phi_power_family(2), Fraction(1, 2), 3).passed
    ok = ok and dn.verify_density_jacobi(pl.phi_power_family(2), Fraction(1, 2), 3).passed
    elapsed = time.time() - t0
    _report(9, "density layer: action compatibility and Jacobi, symbolic and "
               "rational weight", ok and elapsed < 120, f"{elapsed:.2f}s")


def test_criterion_10_quantum_layer():
    t0 = time.time()
    ok = True
    R2 = qt.relation_set_catalog("R2")
    R3 = qt.relation_set_catalog("R3")
    R1 = qt.relation_set_catalog("R1")
    ok = ok and qt.pbw_overlap_check(R2).passed
    ok = ok and qt.pbw_overlap_check(R3).passed
    # The verbatim linear set resolves its overlaps only on the section
    # C5 = 2 C3^2 + 36 C3 + 4 C4 - 38; the unconstrained report records that,
    # and the sectioned catalog entry passes (the literal all-symbolic pass
    # stays on record as xfail below).
    r1_report = qt.pbw_overlap_check(R1)
    ok = ok and not r1_report.passed and r1_report.witness["indices"] == [2, 3, 4]
    ok = ok and qt.pbw_overlap_check(qt.relation_set_catalog("R1_pbw")).passed
    bad = qt.relation_set_catalog("R2_ansatz", {"C1": 1, "C2": "symbolic", "C3": 0})
    good = qt.relation_set_catalog("R2_ansatz", {"C1": 0, "C2": "symbolic", "C3": 0})
    ok = ok and not qt.pbw_overlap_check(bad, triples=[(2, 3, 4)]).passed
    ok = ok and qt.pbw_overlap_check(good, triples=[(2, 3, 4)]).passed
    for R in (R2, R3, R1):
        ok = ok and qt.verify_delta_homomorphism(R).passed
        ok = ok and qt.verify_counit_coassoc(R).passed
        ok = ok and qt.verify_grading(R).passed
    for R, d, n in ((R2, 2, 5), (R3, 3, 5), (R1, 1, 4)):
        omega = pl.build_omega(pl.phi_power_family(d), n)
        ok = ok and qt.verify_quasiclassical(R, omega).passed
    elapsed = time.time() - t0
    _report(10, "quantum layer: confluence, ansatz constraint, comultiplication, "
                "counit, grading, quasiclassical limits", ok and elapsed < 300,
            f"{elapsed:.2f}s; linear-set confluence constraint recorded")


def test_criterion_11_negative_controls():
    ok = True
    for name in sorted(golden_cases.CASES):
        expected = (golden_cases.GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        ok = ok and golden_cases.render(name) == expected
    _report(11, "negative controls: every verifier pinned to its golden witness",
            ok, f"{len(golden_cases.CASES)} cases")


# -- printed values that contradict their own defining formulas ---------------


@pytest.mark.xfail(strict=True,
                   reason="printed a7=451/45 contradicts the stated recursion; "
                          "the recursion (verified against the cocycle system) "
                          "gives 1049/90")
def test_printed_a7_value():
    assert ba.witt_a_sequence(7)[5] == Fraction(451, 45)


@pytest.mark.xfail(strict=True,
                   reason="the verbatim linear relation set is confluent only on "
                          "the section C5 = 2 C3^2 + 36 C3 + 4 C4 - 38")
def test_printed_linear_set_confluent_for_free_parameters():
    assert qt.pbw_overlap_check(qt.relation_set_catalog("R1")).passed


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
