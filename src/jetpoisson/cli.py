"""Command-line entry point: named verification suites with deterministic reports.

Usage:
  jetpoisson verify <suite> [options]

Suites: group, poisson, phi, bialgebra, cybe, classify, density, quantum, all.
A suite is a list of library checks: the CLI only parses the options, runs
the checks, combines finished records into two composite ones and prints.
Reports are emitted as JSON (default) or text, one record per check.  The
exit status is 0 when every record passed, 1 when a record failed, 2 on bad
input and 3 when the run ran out of memory; 2 and 3 print one ``error:``
line instead of a report.  Bad input is a malformed or out-of-range value,
an unknown --phi family, a phi table row that repeats another or is not the
negative of its mirror, an option the suite never reads, an --out path that
cannot be written (checked before any suite runs), or an input whose
exponents overflow a series or monomial field: a monomial exponent outside
[-2^14, 2^14), which the symbolic jet inverse (x1^-(2n-1) at u^n) would
reach only at --n above 8192.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import bialgebra as ba
from . import density as dn
from . import jetgroup as jg
from . import poissonlie as pl
from . import quantum as qt
from . import report as rep
from . import series as ts
from .coeffpoly import ExponentOverflow


class ConfigError(ValueError):
    pass


_PARAMS = ("C", "C1", "C2", "C3", "C4", "C5")  # the relation-set catalog's options


def _value(text: str, name: str):
    """Rational or "symbolic" parameter values from the command line."""
    if text == "symbolic":
        return pl.weight(name)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for {name}: {text!r}") from exc


def _phi_from_args(args) -> pl.PhiFunction:
    if args.phi == "power":
        return pl.phi_power_family(args.d)
    if args.phi == "extended":
        lam = _value(args.lam, "lam")
        try:
            return pl.phi_extended_family(args.d, lam, args.degree or 13)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if args.phi == "linear":
        return pl.phi_linear()
    if args.phi.startswith("table:"):
        try:
            with open(args.phi[6:], "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read phi table: {exc}") from exc
        # a row sets lam_mn and lam_nm = -lam_mn; a row for (n, m) as well
        # must be that negation, and is then not added a second time
        entries, rows = {}, {}
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                m, n, value = line.split()
                m, n, value = int(m), int(n), Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad phi table row {line!r}") from exc
            if m == n:
                raise ConfigError(f"phi table row {line!r} is on the diagonal")
            if (m, n) in rows:
                raise ConfigError(f"phi table row {line!r} repeats row {rows[(m, n)]!r}")
            if (n, m) not in rows:
                entries[(m, n)] = value
            elif entries[(n, m)] != -value:
                raise ConfigError(
                    f"phi table row {line!r} is not the negative of row {rows[(n, m)]!r}")
            rows[(m, n)] = line
        if not entries:
            raise ConfigError("phi table has no rows")
        min_index = min(i for pair in entries for i in pair)
        deg = max(max(pair) for pair in entries)
        phi = pl.phi_from_table(entries, min_index, deg, exact=True, provenance="table")
        if not phi.table:
            raise ConfigError("phi table antisymmetrises to zero")
        return phi
    raise ConfigError(f"unknown phi family {args.phi!r}")


def suite_group(args) -> list[rep.VerificationReport]:
    return jg.verify_group_laws(args.n)


def suite_poisson(args) -> list[rep.VerificationReport]:
    phi = _phi_from_args(args)
    start = 0 if phi.min_index == 0 else 1
    # extended-model tables reference one coordinate past any finite block,
    # so build one index wider and restrict the checks
    omega = pl.build_omega(phi, args.n + (1 if start == 0 else 0), start)
    records = pl.verify_bracket_match(omega, args.d) if args.phi == "power" else []
    records.extend([
        pl.verify_jacobi(omega, check_max=args.n),
        pl.verify_multiplicativity(omega, check_max=args.n),
    ])
    if omega.start_index == 1 and args.n <= 4:
        records.append(pl.verify_inversion_antipoisson(omega))
    return records


def suite_phi(args) -> list[rep.VerificationReport]:
    records = [pl.verify_phi_equation(pl.phi_power_family(d), args.degree or 8) for d in range(1, 6)]
    for d in (2, 3):
        phi = pl.phi_extended_family(d, "lam", (args.degree or 12) + 1)
        records.append(pl.verify_phi_equation(phi, args.degree or 12))
    bad = pl.phi_from_table({(1, 2): 1, (1, 3): 1}, 1, 4, exact=True, provenance="invalid-table")
    # passes when the check fails; an uncaught table fails at the degree checked, residual zero
    r = pl.verify_phi_equation(bad, 6)
    records.append(rep.passed("phi-equation-negative-control", witness=str(tuple(r.witness["indices"])))
                   if r.status == "fail"
                   else rep.failed("phi-equation-negative-control", (6,), pl.weight(0).render()))
    return records


def suite_bialgebra(args) -> list[rep.VerificationReport]:
    records = [ba.verify_witt_a_sequence()]
    for d in range(1, 6):
        r = ba.r_from_phi(pl.phi_power_family(d))
        cb = ba.coboundary(r, args.n + 10)
        records.append(ba.verify_cocycle(cb, args.n))
        records.append(ba.verify_cojacobi(cb, args.n))
    fam = ba.family_witt_linear(args.n)
    records.append(ba.verify_cocycle(fam, args.n))
    for tag, cochain in zip(("sl2-first", "sl2-second"), ba.sl2_pair()):
        # one record per cochain, carrying the witness of its first failing part
        parts = (ba.verify_cocycle(cochain, 1), ba.verify_cojacobi(cochain, 1))
        bad = next((r for r in parts if not r.passed), None)
        records.append(rep.passed(tag) if bad is None else rep.failed(
            tag, bad.witness["indices"], bad.witness["residual"], part=bad.check))
    for d in (1, 2, 3):
        omega = pl.build_omega(pl.phi_power_family(d), min(args.n, 6))
        records.append(ba.beta_correspondence(omega, pl.phi_power_family(d)))
    return records


def suite_cybe(args) -> list[rep.VerificationReport]:
    records = []
    for d in range(1, 6):
        r = ba.r_from_phi(pl.phi_power_family(d))
        records.append(ba.verify_cybe(r, args.n))
        records.append(ba.verify_rr_invariance(r, min(args.n, 6)))
    return records


def suite_classify(args) -> list[rep.VerificationReport]:
    return ba.verify_classifiers()


def suite_density(args) -> list[rep.VerificationReport]:
    return [
        dn.verify_density_action(pl.phi_power_family(1), "lam", min(args.n, 3)),
        dn.verify_density_jacobi(pl.phi_power_family(1), "lam", min(args.n, 3)),
        dn.verify_density_action(pl.phi_power_family(2), Fraction(1, 2), min(args.n, 3)),
        dn.verify_density_jacobi(pl.phi_power_family(2), Fraction(1, 2), min(args.n, 3)),
    ]


def _catalog_args(args) -> tuple[str, dict]:
    """The relation set and the catalog options given; "symbolic" stays a
    word, since the catalog names the symbol (--C feeds C3 of R2_ansatz)."""
    return args.set.replace("-", "_"), {
        name: value if value == "symbolic" else _value(value, name)
        for name in _PARAMS if (value := getattr(args, name)) is not None}


def suite_quantum(args) -> list[rep.VerificationReport]:
    R = qt.relation_set_catalog(*_catalog_args(args), args.h_order)
    records = [
        qt.pbw_overlap_check(R),
        qt.verify_delta_homomorphism(R),
        qt.verify_counit_coassoc(R),
        qt.verify_grading(R),
    ]
    omega = pl.build_omega(pl.phi_power_family(R.d), R.n_gens)
    records.append(qt.verify_quasiclassical(R, omega))
    return records


SUITES = {
    "group": suite_group,
    "poisson": suite_poisson,
    "phi": suite_phi,
    "bialgebra": suite_bialgebra,
    "cybe": suite_cybe,
    "classify": suite_classify,
    "density": suite_density,
    "quantum": suite_quantum,
}


# The options each suite reads besides --format and --out; poisson also reads
# those of its --phi family, and all reads every one of them.
_READS = {
    "group": {"n"},
    "poisson": {"n", "phi"},
    "phi": {"degree"},
    "bialgebra": {"n"},
    "cybe": {"n"},
    "classify": set(),
    "density": {"n"},
    "quantum": {"set", "h_order", *_PARAMS},
}
_PHI_READS = {"power": {"d"}, "extended": {"d", "lam", "degree"}, "linear": set()}


def reads(args) -> set:
    """The options the suite of args reads."""
    if args.suite == "all":
        return set().union(*_READS.values(), *_PHI_READS.values())
    if args.suite == "poisson":
        return _READS["poisson"] | _PHI_READS.get(args.phi, set())
    return _READS[args.suite]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors print one ``error:`` line, exit status 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


class _Given(argparse.Action):
    """Store the value and note the option in ``given``, dest -> flag."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {**namespace.given, self.dest: option_string}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jetpoisson")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification suite", epilog=(
        "exit status: 0 every record passed, 1 a record failed, 2 bad input (a monomial "
        "exponent outside [-2^14, 2^14) too), 3 out of memory"))
    verify.set_defaults(given={})
    verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    verify.add_argument("--n", type=int, default=5, action=_Given)
    verify.add_argument("--d", type=int, default=2, action=_Given)
    verify.add_argument("--lambda", dest="lam", default="symbolic", action=_Given,
                        help='rational value or "symbolic"')
    verify.add_argument("--h-order", type=int, default=None, action=_Given)
    verify.add_argument("--set", default="R2", action=_Given,
                        choices=["R1", "R2", "R3", "R2-ansatz", "R2_ansatz", "R1_pbw", "R1-pbw"])
    for name in _PARAMS:
        verify.add_argument(f"--{name}", default=None, action=_Given,
                            help='rational value or "symbolic"')
    verify.add_argument("--phi", default="power", action=_Given,
                        help="power | extended | linear | table:<file>")
    verify.add_argument("--degree", type=int, default=None, action=_Given)
    verify.add_argument("--format", choices=["json", "text"], default="json")
    verify.add_argument("--out", default=None)
    return parser


def check_args(args) -> None:
    """Reject, before any suite runs, an unknown --phi family, an option the
    suite never reads, an integer option outside [1, 2^14), the limit of a
    series bound, a value not rational or "symbolic", a catalog parameter the
    set does not read or given twice, and an unwritable --out; creates no file."""
    if "phi" in reads(args) and args.phi not in _PHI_READS and not args.phi.startswith("table:"):
        raise ConfigError(f"unknown phi family {args.phi!r}")
    unused = sorted(flag for dest, flag in args.given.items() if dest not in reads(args))
    if unused:
        raise ConfigError(f"unused options for {args.suite}: {' '.join(unused)}")
    for flag, value in (("n", args.n), ("d", args.d), ("h-order", args.h_order),
                        ("degree", args.degree)):
        if value is not None and not 1 <= value < ts._LIMIT:
            raise ConfigError(f"--{flag} must lie in [1, {ts._LIMIT})")
    for name in ("lam",) + _PARAMS:
        if getattr(args, name) is not None:
            _value(getattr(args, name), name)
    if args.out:
        parent = os.path.dirname(args.out) or "."
        if os.path.isdir(args.out) or not (
                os.access(args.out, os.W_OK) if os.path.exists(args.out)
                else os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
            raise ConfigError(f"cannot write report: {args.out}")
    if "set" in reads(args):
        qt.catalog_params(*_catalog_args(args))


def run_suite(args) -> tuple[int, list[rep.VerificationReport]]:
    if args.suite == "all":
        records = []
        for suite in SUITES.values():
            records.extend(suite(args))
    else:
        records = SUITES[args.suite](args)
    status = 0 if all(r.passed for r in records) else 1
    return status, records


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_args(args)
        status, records = run_suite(args)
    except (ConfigError, pl.DegreeBoundTooSmall, pl.DivisibilityViolation,
            qt.UnknownParameters, ts.SeriesOverflow, ExponentOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    payload = rep.emit_report(records, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
