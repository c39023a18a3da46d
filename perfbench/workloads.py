"""The benchmark's three workloads, each a list of named checks made from a seed.

A check is a pair ``(id, thunk)``.  The thunk calls the public functions of
``jetpoisson`` and returns ``(status, payload)``: the record's status (or the
CLI exit status) and the text the reference digest is taken over.  For a
verification record the payload is its JSON form, which holds the check name,
params, status, witness indices and rendered residual; for a CLI run it is the
captured stdout.  Inputs depend on the seed only, never on elapsed time.

Why each workload exists, and which layer metric should move which
end-to-end metric, is written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from jetpoisson import cli
from jetpoisson import density as dn
from jetpoisson import jetgroup as jg
from jetpoisson import poissonlie as pl
from jetpoisson import quantum as qt
from jetpoisson import report as rep
from jetpoisson.coeffpoly import LaurentPoly, Variable, VarKind, param, x_var

HERE = Path(__file__).resolve().parent
WORDS_FILE = HERE / "words.json"

SIZES = ("full", "tiny")

# -- shared helpers ----------------------------------------------------------


def _record(report: rep.VerificationReport, extra: str = ""):
    return report.status, json.dumps(report.to_dict()) + extra


def _x(i: int, e: int = 1) -> LaurentPoly:
    return LaurentPoly.var(x_var(i), e)


def _first_difference(check: str, n: int, a: jg.JetElement, b: jg.JetElement):
    for i in range(1, n + 1):
        diff = a.coord(i) - b.coord(i)
        if not diff.is_zero():
            return rep.failed(check, (i,), diff.render(), n=n)
    return rep.passed(check, n=n)


# -- jet-poisson ---------------------------------------------------------------
#
# Kernel-bound: products of large multivariate polynomials.  No rewriting and
# no cochains.  Every construction runs at two truncations so that growth
# exponents show.

JET_SIZES = {
    "full": {"group": (8, 10), "omega": (8, 10), "phi": (12, 16), "density": (3, 4)},
    "tiny": {"group": (3, 4), "omega": (4, 5), "phi": (6, 8), "density": (2, 3)},
}

# Negative controls: omega_d with x_k added to the (i, j) entry, checked by
# Jacobi at n=6 and multiplicativity at n=5.  Each seed draws a few of them,
# so the early-exit path is timed beside the full scans.
PERTURBATIONS = [
    (d, i, j, k)
    for d in (1, 2, 3)
    for (i, j) in itertools.combinations(range(1, 6), 2)
    for k in (1, 2)
]
PERTURBATIONS_PER_SEED = 4


def _group_associativity(n):
    x, y, z = (jg.symbolic_jet(n, letter) for letter in "xyz")
    lhs = jg.jet_compose(jg.jet_compose(x, y), z)
    rhs = jg.jet_compose(x, jg.jet_compose(y, z))
    return _record(_first_difference("group-associativity", n, lhs, rhs))


def _group_inverse(n):
    x = jg.symbolic_jet(n, "x")
    xb = jg.jet_inverse(x)
    e = jg.jet_identity(n)
    report = _first_difference("group-inverse-right", n, jg.jet_compose(x, xb), e)
    if report.passed:
        report = _first_difference("group-inverse-left", n, jg.jet_compose(xb, x), e)
    return _record(report)


def _jacobi(d, n):
    return _record(pl.verify_jacobi(pl.build_omega(pl.phi_power_family(d), n)))


def _multiplicativity(d, n):
    return _record(pl.verify_multiplicativity(pl.build_omega(pl.phi_power_family(d), n)))


def _phi_extended(d, degree):
    lam = LaurentPoly.var(param("lam"))
    return _record(pl.verify_phi_equation(pl.phi_extended_family(d, lam, degree + 1), degree))


def _density_action(n):
    return _record(dn.verify_density_action(pl.phi_power_family(1), "lam", n))


def _density_jacobi(n):
    return _record(dn.verify_density_jacobi(pl.phi_power_family(1), "lam", n))


def _invalid_phi_table():
    bad = pl.phi_from_table({(1, 2): 1, (1, 3): 1}, 1, 4, exact=True,
                            provenance="invalid-table")
    return _record(pl.verify_phi_equation(bad, 6))


def _perturbed_density(check, coord):
    phi = pl.phi_power_family(1)
    bad = dn.build_omega_density(phi, "lam", 4).perturbed(
        0, 1, LaurentPoly.var(Variable(VarKind.DENSITY_X, coord)))
    if check == "action":
        return _record(dn.verify_density_action(phi, "lam", 3, omega_dens=bad))
    return _record(dn.verify_density_jacobi(phi, "lam", 3, omega_dens=bad))


def _perturbed_jacobi(d, i, j, k):
    bad = pl.build_omega(pl.phi_power_family(d), 6).perturbed(i, j, _x(k))
    return _record(pl.verify_jacobi(bad))


def _perturbed_multiplicativity(d, i, j, k):
    bad = pl.build_omega(pl.phi_power_family(d), 5).perturbed(i, j, _x(k))
    return _record(pl.verify_multiplicativity(bad))


def perturbation_checks(p):
    d, i, j, k = p
    tag = f"d{d}/({i},{j})+x{k}"
    return [
        (f"neg/jacobi/{tag}/n6", functools.partial(_perturbed_jacobi, *p)),
        (f"neg/multiplicativity/{tag}/n5", functools.partial(_perturbed_multiplicativity, *p)),
    ]


def jet_poisson_fixed(size):
    s = JET_SIZES[size]
    out = []
    for n in s["group"]:
        out.append((f"group-associativity/n{n}", functools.partial(_group_associativity, n)))
        out.append((f"group-inverse/n{n}", functools.partial(_group_inverse, n)))
    for d in (1, 2, 3):
        for n in s["omega"]:
            out.append((f"jacobi/d{d}/n{n}", functools.partial(_jacobi, d, n)))
            out.append((f"multiplicativity/d{d}/n{n}", functools.partial(_multiplicativity, d, n)))
    for d in (2, 3):
        for degree in s["phi"]:
            out.append((f"phi-equation/extended/d{d}/deg{degree}",
                        functools.partial(_phi_extended, d, degree)))
    for n in s["density"]:
        out.append((f"density-action/n{n}", functools.partial(_density_action, n)))
        out.append((f"density-jacobi/n{n}", functools.partial(_density_jacobi, n)))
    out.append(("neg/phi-equation/invalid-table", _invalid_phi_table))
    out.append(("neg/density-action/(0,1)+x0", functools.partial(_perturbed_density, "action", 0)))
    out.append(("neg/density-jacobi/(0,1)+x1", functools.partial(_perturbed_density, "jacobi", 1)))
    return out


def jet_poisson(seed, size):
    rng = random.Random(seed)
    picks = rng.sample(PERTURBATIONS, PERTURBATIONS_PER_SEED)
    return jet_poisson_fixed(size) + [c for p in picks for c in perturbation_checks(p)]


# -- quantum-rewrite -----------------------------------------------------------
#
# Bound by the nc_reduce scheduler; its kernel products are tiny.  Seeded words
# of length 4-5 are reduced leftmost and under a random site order, and both
# normal forms must agree.  Word weight (sum of g-1 over the letters) is capped
# at 10: above that a single word can take seconds to tens of seconds, and the
# pass time would depend on which words a seed happens to draw.

# The two R2 variants the seeded words are reduced in.
WORD_SETS = ("R2-C2/3", "R2-Csym")
TINY_WORD_BUCKET_STRIDE = 30


@functools.cache
def relation_set(name):
    if name == "R2-C2/3":
        return qt.relation_set_catalog("R2", {"C": Fraction(2, 3)})
    if name == "R2-Csym":
        return qt.relation_set_catalog("R2")
    return qt.relation_set_catalog(name)


def word_order_rng(word: str) -> random.Random:
    """The random site order of one word is seeded by the word itself, so a
    word's cost does not depend on the seed that drew it."""
    return random.Random(word)


def reduce_word(set_name, word: str):
    R = relation_set(set_name)
    letters = tuple(int(g) for g in word.split())
    element = qt.nc_word(R.n_gens, R.h_order, letters)
    leftmost = qt.nc_reduce(element, R)
    shuffled = qt.nc_reduce(element, R, word_order_rng(word))
    diff = qt.nc_sub(leftmost, shuffled)
    params = {"set": set_name, "word": word}
    if diff.is_zero():
        report = rep.passed("word-reduction", **params)
    else:
        first = min(diff.terms, key=lambda w: (len(w), w))
        report = rep.failed("word-reduction", first, diff.terms[first].render(), **params)
    return _record(report, "\n" + leftmost.render())


def word_check(set_name, word):
    return (f"word/{set_name}/{word}", functools.partial(reduce_word, set_name, word))


@functools.cache
def word_buckets():
    """Pool words grouped by reduction cost; made by make_reference.py."""
    return json.loads(WORDS_FILE.read_text(encoding="utf-8"))["buckets"]


def _structure(check, set_name):
    fn = {
        "pbw-overlap": qt.pbw_overlap_check,
        "delta-homomorphism": qt.verify_delta_homomorphism,
        "counit-coassoc": qt.verify_counit_coassoc,
        "grading": qt.verify_grading,
    }[check]
    return _record(fn(relation_set(set_name)))


def _r2_printed_delta():
    # the printed variant of the quadratic set's (2,4) tail (x1 exponent 3)
    R2 = qt.relation_set_catalog("R2", {"C": 0})
    h = LaurentPoly.var(qt.H)
    tails = dict(R2.tails)
    tails[(2, 4)] = qt.nc_make(5, R2.h_order, {(2, 2, 1, 1, 1): 3 * h, (2, 2): -4 * h})
    printed = qt.make_relation_set("R2-printed", 2, 5, R2.h_order, tails)
    return _record(qt.verify_delta_homomorphism(printed))


def _bad_two_generator(check):
    h = LaurentPoly.var(qt.H)
    tails = {(1, 2): qt.nc_make(2, 4, {(1, 1): h})}
    R = qt.make_relation_set(f"bad-{check}", 2, 2, 4, tails)
    if check == "grading":
        return _record(qt.verify_grading(R))
    return _record(qt.verify_counit_coassoc(R))


def quantum_fixed():
    out = []
    for set_name in ("R1_pbw", "R2-C2/3", "R2-Csym", "R3"):
        for check in ("pbw-overlap", "delta-homomorphism", "counit-coassoc", "grading"):
            out.append((f"{check}/{set_name}", functools.partial(_structure, check, set_name)))
    # verbatim R1 is not confluent: its overlap check must fail with the
    # recorded constraint
    out.append(("neg/pbw-overlap/R1", functools.partial(_structure, "pbw-overlap", "R1")))
    out.append(("neg/delta-homomorphism/R2-printed", _r2_printed_delta))
    out.append(("neg/grading/bad", functools.partial(_bad_two_generator, "grading")))
    out.append(("neg/counit-coassoc/bad", functools.partial(_bad_two_generator, "counit")))
    return out


def quantum_rewrite(seed, size):
    rng = random.Random(seed)
    buckets = word_buckets()
    if size == "tiny":
        buckets = buckets[::TINY_WORD_BUCKET_STRIDE]
    words = [rng.choice(bucket) for bucket in buckets]
    return quantum_fixed() + [word_check(s, w) for s in WORD_SETS for w in words]


# -- cli-suites ----------------------------------------------------------------
#
# The path users run: cli.main in-process with stdout captured.  The commands
# are fixed, so the seed picks nothing here; every pass is a fresh interpreter
# and pays the same first-call costs a `jetpoisson verify` user pays.

CLI_COMMANDS = {
    "full": [
        "verify all --n 7",
        "verify quantum --set R1",  # negative control: exits 1
        "verify quantum --set R1_pbw",
        "verify quantum --set R3",
        "verify poisson --phi extended",
        "verify poisson --phi linear",
    ],
    "tiny": [
        "verify all --n 3",
        "verify quantum --set R1",
    ],
}


def _cli(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(command.split())
    return f"exit {status}", out.getvalue()


def cli_suites(seed, size):
    return [(f"cli/{c}", functools.partial(_cli, c)) for c in CLI_COMMANDS[size]]


WORKLOADS = {
    "jet-poisson": jet_poisson,
    "quantum-rewrite": quantum_rewrite,
    "cli-suites": cli_suites,
}


def every_check():
    """Every check any seed or size can produce, for the reference file."""
    seen = dict(quantum_fixed())
    for size in SIZES:
        seen.update(jet_poisson_fixed(size) + cli_suites(0, size))
    for p in PERTURBATIONS:
        seen.update(perturbation_checks(p))
    for bucket in word_buckets():
        for word in bucket:
            for set_name in WORD_SETS:
                cid, thunk = word_check(set_name, word)
                seen[cid] = thunk
    return seen
