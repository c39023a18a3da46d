"""Documented perturbed inputs, one per verifier, with golden report files.

Each case builds a deliberately corrupted input, runs the verifier and emits
the JSON report; the committed files under tests/golden/ pin the witness
indices and rendered residuals byte for byte.  Regenerate with

    python3 tests/golden_cases.py

or compare every case with its file, writing nothing, with

    python3 tests/golden_cases.py --check

which exits 1 and names each file that differs (or is missing).
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jetpoisson import bialgebra as ba
from jetpoisson import density as dn
from jetpoisson import poissonlie as pl
from jetpoisson import quantum as qt
from jetpoisson import report as rep
from jetpoisson.coeffpoly import LaurentPoly, Variable, VarKind, x_var

GOLDEN_DIR = Path(__file__).parent / "golden"


def _x(i, e=1):
    return LaurentPoly.var(x_var(i), e)


def case_jacobi():
    bad = pl.build_omega(pl.phi_power_family(2), 5).perturbed(1, 3, _x(1))
    return pl.verify_jacobi(bad)


def case_multiplicativity():
    bad = pl.build_omega(pl.phi_power_family(2), 4).perturbed(1, 3, _x(1))
    return pl.verify_multiplicativity(bad)


def case_phi_equation():
    bad = pl.phi_from_table({(1, 2): 1, (1, 3): 1}, 1, 4, exact=True,
                            provenance="invalid-table")
    return pl.verify_phi_equation(bad, 6)


def case_inversion():
    bad = pl.build_omega(pl.phi_power_family(1), 3).perturbed(1, 2, _x(1, 3))
    return pl.verify_inversion_antipoisson(bad)


def case_cocycle():
    cochain = ba.coboundary(ba.r_from_phi(pl.phi_power_family(1)), 12)
    alpha = {n: dict(t) for n, t in cochain.alpha.items()}
    alpha[3][(2, 5)] = alpha[3].get((2, 5), LaurentPoly.zero()) + LaurentPoly.one()
    alpha[3][(5, 2)] = alpha[3].get((5, 2), LaurentPoly.zero()) - LaurentPoly.one()
    return ba.verify_cocycle(ba.WedgeCochain(0, alpha, 12), 8)


def case_cojacobi():
    alpha = {0: {(1, 2): LaurentPoly.one(), (2, 1): -LaurentPoly.one()},
             1: {(0, 1): LaurentPoly.one(), (1, 0): -LaurentPoly.one()},
             2: {(0, 2): LaurentPoly.one(), (2, 0): -LaurentPoly.one()}}
    return ba.verify_cojacobi(ba.WedgeCochain(0, alpha, 2), 2)


def case_cybe():
    rng = random.Random(1)
    entries = {(i, j): Fraction(rng.randint(-3, 3)) for i in range(0, 3)
               for j in range(i + 1, 4)}
    return ba.verify_cybe(ba.rmatrix_from_entries(entries, 0), 6)


def case_rr_invariance():
    rng = random.Random(9)
    entries = {(i, j): Fraction(rng.randint(-3, 3)) for i in range(0, 3)
               for j in range(i + 1, 4)}
    return ba.verify_rr_invariance(ba.rmatrix_from_entries(entries, 0), 5)


def case_beta_correspondence():
    omega = pl.build_omega(pl.phi_power_family(1), 4)
    return ba.beta_correspondence(omega, pl.phi_power_family(2))


def case_density_action():
    phi = pl.phi_power_family(1)
    bad = dn.build_omega_density(phi, "lam", 4).perturbed(
        0, 1, LaurentPoly.var(Variable(VarKind.DENSITY_X, 0)))
    return dn.verify_density_action(phi, "lam", 3, omega_dens=bad)


def case_density_jacobi():
    phi = pl.phi_power_family(1)
    bad = dn.build_omega_density(phi, "lam", 4).perturbed(
        0, 1, LaurentPoly.var(Variable(VarKind.DENSITY_X, 1)))
    return dn.verify_density_jacobi(phi, "lam", 3, omega_dens=bad)


def case_pbw_overlap():
    bad = qt.relation_set_catalog("R2_ansatz", {"C1": 1, "C2": "symbolic", "C3": 0})
    return qt.pbw_overlap_check(bad, triples=[(2, 3, 4)])


def case_pbw_overlap_linear_set():
    # the shipped-verbatim linear set: the report records the constraint the
    # printed three-parameter family needs for confluence
    return qt.pbw_overlap_check(qt.relation_set_catalog("R1"))


def case_delta_homomorphism():
    # printed variant of the quadratic set's (2,4) tail (x1 exponent 3)
    R2 = qt.relation_set_catalog("R2", {"C": 0})
    h = LaurentPoly.var(qt.H)
    tails = dict(R2.tails)
    tails[(2, 4)] = qt.nc_make(5, R2.h_order, {(2, 2, 1, 1, 1): 3 * h, (2, 2): -4 * h})
    printed = qt.make_relation_set("R2-printed", 2, 5, R2.h_order, tails)
    return qt.verify_delta_homomorphism(printed)


def case_quasiclassical():
    # printed variant of the cubic set's (2,5) tail (x1 exponent 4)
    R3 = qt.relation_set_catalog("R3")
    h = LaurentPoly.var(qt.H)
    tails = dict(R3.tails)
    tails[(2, 5)] = qt.nc_make(5, R3.h_order, {(2, 2, 1, 1, 1, 1): 4 * h, (2, 2): -4 * h})
    printed = qt.make_relation_set("R3-printed", 3, 5, R3.h_order, tails)
    return qt.verify_quasiclassical(printed, pl.build_omega(pl.phi_power_family(3), 5))


def case_grading():
    h = LaurentPoly.var(qt.H)
    tails = {(1, 2): qt.nc_make(2, 4, {(1, 1): h})}
    return qt.verify_grading(qt.make_relation_set("bad-grading", 2, 2, 4, tails))


def case_counit():
    h = LaurentPoly.var(qt.H)
    tails = {(1, 2): qt.nc_make(2, 4, {(1, 1): h})}
    return qt.verify_counit_coassoc(qt.make_relation_set("bad-counit", 2, 2, 4, tails))


CASES = {
    "jacobi": case_jacobi,
    "multiplicativity": case_multiplicativity,
    "phi_equation": case_phi_equation,
    "inversion": case_inversion,
    "cocycle": case_cocycle,
    "cojacobi": case_cojacobi,
    "cybe": case_cybe,
    "rr_invariance": case_rr_invariance,
    "beta_correspondence": case_beta_correspondence,
    "density_action": case_density_action,
    "density_jacobi": case_density_jacobi,
    "pbw_overlap": case_pbw_overlap,
    "pbw_overlap_linear_set": case_pbw_overlap_linear_set,
    "delta_homomorphism": case_delta_homomorphism,
    "quasiclassical": case_quasiclassical,
    "grading": case_grading,
    "counit": case_counit,
}


def render(name: str) -> str:
    return rep.emit_report([CASES[name]()], "json")


def write_all():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CASES):
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(render(name), encoding="utf-8")
        print("wrote", path)


def check_all() -> list[Path]:
    """The golden files whose committed text differs from a fresh render."""
    stale = []
    for name in sorted(CASES):
        path = GOLDEN_DIR / f"{name}.json"
        if not path.is_file() or path.read_text(encoding="utf-8") != render(name):
            stale.append(path)
    return stale


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        stale = check_all()
        for path in stale:
            print("differs:", path)
        sys.exit(1 if stale else 0)
    if sys.argv[1:]:
        print("usage: golden_cases.py [--check]", file=sys.stderr)
        sys.exit(2)
    write_all()
