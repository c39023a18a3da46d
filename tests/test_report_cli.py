"""Report schema, golden negative controls, and the command-line surface."""

import argparse
import ast
import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import golden_cases
from jetpoisson import bialgebra as ba
from jetpoisson import cli
from jetpoisson import jetgroup as jg
from jetpoisson import poissonlie as pl
from jetpoisson import quantum as qt
from jetpoisson import report as rep
from jetpoisson import series as ts
from jetpoisson.cli import SUITES, build_parser, main, run_suite, suite_bialgebra
from jetpoisson.coeffpoly import Combination, LaurentPoly, x_var

GOLDEN = Path(__file__).parent / "golden"


def test_emit_empty_list():
    assert rep.emit_report([], "json") == "[]\n"


def test_json_round_trip():
    records = [
        rep.passed("demo", n=3),
        rep.failed("demo2", (1, 2), "1*x1", n=4, d=2),
    ]
    assert json.loads(rep.emit_report(records, "json")) == [r.to_dict() for r in records]


def test_text_format_one_line_per_record():
    records = [rep.passed("alpha", n=1), rep.failed("beta", (0,), "r", m=2)]
    text = rep.emit_report(records, "text")
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("PASS alpha")
    assert "witness=(0,)" in lines[1]


def test_first_failure_takes_a_text_residual_as_it_is():
    assert rep.first_failure("t", [((1,), ""), ((2,), "")], {"n": 1}).to_dict() == {
        "check": "t", "params": {"n": 1}, "status": "pass", "witness": None}
    cases = [((1,), ""), ((2,), "tables differ at (2, 3)"), ((3,), "not reached")]
    assert rep.first_failure("t", cases, {"n": 1}).to_dict() == {
        "check": "t", "params": {"n": 1}, "status": "fail",
        "witness": {"indices": [2], "residual": "tables differ at (2, 3)"}}


def test_first_failure_keeps_the_order_of_mixed_cases():
    x = LaurentPoly.var(x_var(1))
    cases = [((1,), LaurentPoly.zero()), ((2,), ""), ((3,), x - x), ((4,), 2 * x),
             ((5,), "later text")]
    assert rep.first_failure("t", cases, {}).witness == {"indices": [4], "residual": "2*x1"}
    cases[3:4] = []
    assert rep.first_failure("t", cases, {}).witness == {"indices": [5], "residual": "later text"}


@pytest.mark.parametrize("name", sorted(golden_cases.CASES))
def test_golden_negative_controls(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert golden_cases.render(name) == expected
    record = json.loads(expected)[0]
    assert record["status"] == "fail"
    assert record["witness"]["indices"]


def test_golden_check_names_each_differing_file(tmp_path, monkeypatch):
    for path in GOLDEN.glob("*.json"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "cybe.json").write_text("[]\n", encoding="utf-8")
    (tmp_path / "counit.json").unlink()
    monkeypatch.setattr(golden_cases, "GOLDEN_DIR", tmp_path)
    assert golden_cases.check_all() == [tmp_path / "counit.json", tmp_path / "cybe.json"]


def test_field_bracket_reports_the_first_broken_pair(monkeypatch):
    commutator = jg.vf_commutator
    seen = []

    def broken_commutator(a, b):
        # called with (X_a, X_b); X_k's lowest component is at index k
        pair = (min(a), min(b))
        seen.append(pair)
        got = commutator(a, b)
        return got.map(lambda c: c * 2) if pair in ((2, 3), (3, 1)) else got

    monkeypatch.setattr(jg, "vf_commutator", broken_commutator)
    records = jg.verify_group_laws(4)
    [record] = [r for r in records if r.check == "field-bracket"]
    assert record.witness["indices"] == [2, 3]
    assert seen[-1] == (2, 3)  # no bracket is computed after the first failure


def _last_coordinate_plus_one(jet):
    return jg.make_jet(jet.coords[:-1] + (jet.coords[-1] + 1,))


def _break_counit(extra):
    """Delta(x_2) with the terms of ``extra`` added."""
    delta = qt.delta_generator
    return lambda i: delta(i).add_all(Combination(extra)) if i == 2 else delta(i)


# (record, command, module, name, broken function of the original one,
#  expected witness); the first seven are the records that failed with a
#  fixed phrase before, the last three the coproduct laws of counit-coassoc
BROKEN_CHECKS = [
    ("group-identity", "verify group --n 4", jg, "jet_identity",
     lambda identity: lambda n: jg.make_jet([1, 1] + [0] * (n - 2)),
     ([2], "1*x1")),
    ("group-inverse", "verify group --n 4", jg, "jet_inverse",
     lambda inverse: lambda x: _last_coordinate_plus_one(inverse(x)),
     ([4], "1*x1")),
    ("field-bracket", "verify group --n 4", jg, "vf_commutator",
     lambda commutator: lambda a, b: (commutator(a, b).map(lambda c: c * 2)
                                      if (min(a), min(b)) == (2, 3) else commutator(a, b)),
     ([2, 3], "-1*x1")),
    ("projection-homomorphism", "verify group --n 5", jg, "jet_project",
     lambda project: lambda x, m: _last_coordinate_plus_one(project(x, m)),
     ([3], "1 + -1*x1 + -1*y1^3")),
    ("phi-equation-negative-control", "verify phi --degree 3", pl, "verify_phi_equation",
     lambda verify: lambda phi, d: (rep.passed("phi-equation") if phi.provenance == "invalid-table"
                                    else verify(phi, d)),
     ([6], "0")),
    ("witt-a-sequence", "verify bialgebra --n 3", ba, "witt_a_sequence",
     lambda witt: lambda N: [a + (k == 2) for k, a in enumerate(witt(N))],
     ([4], "1")),
    ("branch-d-geometric-specialization", "verify classify", pl, "phi_extended_family",
     lambda family: lambda d, lam, degree: family(d, lam * 2, degree),
     ([1, 4], "-1*lam")),
    ("counit-coassoc", "verify quantum --set R3", qt, "delta_generator",
     lambda delta: _break_counit({((), (2,)): 1}), ([2], "(1) x2")),
    ("counit-coassoc", "verify quantum --set R3", qt, "delta_generator",
     lambda delta: _break_counit({((2,), ()): -1}), ([2], "(-1) x2")),
    ("counit-coassoc", "verify quantum --set R3", qt, "delta_generator",
     lambda delta: _break_counit({((2,), (2,)): 1}), ([2], "(-1) x2 (x) x1 (x) x2")),
]


@pytest.mark.parametrize("check, command, module, name, broken, witness", BROKEN_CHECKS,
                         ids=[f"{case[0]}-{k}" for k, case in enumerate(BROKEN_CHECKS)])
def test_a_broken_check_names_its_first_residual(monkeypatch, check, command, module, name,
                                                 broken, witness):
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    args = build_parser().parse_args(command.split())
    [record] = [r for r in SUITES[args.suite](args) if r.check == check]
    indices, residual = witness
    assert record.status == "fail"
    assert record.witness == {"indices": indices, "residual": residual}


def test_group_inverse_checks_the_left_inverse(monkeypatch):
    inverse, compose, inverses = jg.jet_inverse, jg.jet_compose, []

    def recorded_inverse(x):
        inverses.append(inverse(x))
        return inverses[-1]

    def left_inverse_broken(a, b):  # only the composition with the inverse on the left
        return _last_coordinate_plus_one(compose(a, b)) if any(a is xb for xb in inverses) \
            else compose(a, b)

    monkeypatch.setattr(jg, "jet_inverse", recorded_inverse)
    monkeypatch.setattr(jg, "jet_compose", left_inverse_broken)
    records = {r.check: r for r in jg.verify_group_laws(4)}
    assert records.pop("group-inverse").witness == {"indices": [4], "residual": "1"}
    assert all(r.passed for r in records.values())


def test_group_suite_composes_each_jet_once(monkeypatch):
    compose, calls = jg.jet_compose, []
    monkeypatch.setattr(jg, "jet_compose", lambda a, b: calls.append((a, b)) or compose(a, b))
    counts = []
    for n in (6, 7):
        calls.clear()
        jg.verify_group_laws(n)
        counts.append(len(calls))
    # four for associativity, two each for identity and inverse, one for the projection
    assert counts == [9, 9]


def test_group_suite_builds_each_left_invariant_field_once(monkeypatch):
    field, calls = jg.left_invariant_field, []
    monkeypatch.setattr(jg, "left_invariant_field", lambda k, n: calls.append(k) or field(k, n))
    for n in (6, 7):
        calls.clear()
        jg.verify_group_laws(n)
        assert calls == list(range(1, 12))  # X_1 .. X_{2 top - 1}, top = 6


def _record(check, params, indices, residual):
    return {"check": check, "params": params, "status": "fail",
            "witness": {"indices": indices, "residual": residual}}


# (verifier, its inputs, built before the patch, module, name, broken function
#  of the original one, the whole record): the failure branches that no golden
#  file pins, each record as the verifiers printed it before they yielded cases
BROKEN_BRANCHES = [
    (qt.verify_quasiclassical,
     lambda: (qt.relation_set_catalog("R3"), pl.build_omega(pl.phi_power_family(3), 5)),
     qt, "commutator_normal_form",
     lambda normal_form: lambda R, i, j: qt.nc_sub(normal_form(R, i, j),
                                                   qt.nc_word(R.n_gens, R.h_order, (1, 1))),
     _record("quasiclassical", {"n": 5, "set": "R3"}, [1, 2], "h-free part -1*x1^2")),
    (ba.verify_rr_invariance, lambda: (ba.r_from_phi(pl.phi_power_family(1)), 4),
     ba, "cybe_residual",
     lambda cybe: lambda r, n, j, l: cybe(r, n, j, l) + ((n, j, l) == (1, 2, 3)),
     _record("rr-invariance", {"N": 4, "max_m": 2, "min_index": 0, "rr_is_zero": True},
             [0, 1, 2, 3], "action 0 vs -(n+j+l)*cybe -6")),
    (ba.verify_rr_invariance, lambda: (ba.r_from_phi(pl.phi_power_family(1)), 4),
     ba, "adjoint_action",
     lambda action: lambda T, m, lo: (action(T, m, lo).add_all({(1, 2, 3): LaurentPoly.one()})
                                      if m == 2 else action(T, m, lo)),
     _record("rr-invariance", {"N": 4, "max_m": 2, "min_index": 0, "rr_is_zero": True},
             [2, 1, 2, 3], "1")),
    (ba.beta_correspondence,
     lambda: (pl.build_omega(pl.phi_power_family(1), 3), pl.phi_power_family(1)),
     ts, "derivative", lambda derivative: lambda s, v: ts.scale(derivative(s, v), 2),
     _record("beta-correspondence", {"n": 3, "provenance": "power d=1"}, [1, 1, 2], "-3")),
    (qt.verify_counit_coassoc, lambda: (qt.relation_set_catalog("R3"),),
     qt, "delta_generator", lambda delta: _break_counit({((2,), (2,)): 1}),
     _record("counit-coassoc", {"set": "R3"}, [2], "(-1) x2 (x) x1 (x) x2")),
]


@pytest.mark.parametrize("verify, inputs, module, name, broken, record", BROKEN_BRANCHES,
                         ids=[f"{case[0].__name__}-{case[3]}" for case in BROKEN_BRANCHES])
def test_a_failure_branch_keeps_its_record(monkeypatch, verify, inputs, module, name, broken,
                                           record):
    args = inputs()
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    assert verify(*args).to_dict() == record


def _is_phrase(node) -> bool:
    """A non-empty string constant, or a conditional with one as a branch."""
    if isinstance(node, ast.IfExp):
        return _is_phrase(node.body) or _is_phrase(node.orelse)
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value != ""


def placeholder_witnesses(sources: dict) -> list[str]:
    """``file:line`` of each ``failed`` call in sources, a {name: source text}
    map, whose residual (the third argument) is a string constant, and of each
    yielded or generated (indices, residual) pair whose residual is, or may
    be, a non-empty string constant: a fixed phrase where the record promises the
    rendered residual or the witness text of the failing case."""
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and "failed" in (getattr(node.func, "attr", None),
                                                           getattr(node.func, "id", None)):
                residual = node.args[2:3] + [k.value for k in node.keywords if k.arg == "residual"]
                if any(isinstance(a, ast.Constant) and isinstance(a.value, str) for a in residual):
                    found.append(f"{name}:{node.lineno}")
            case = (node.value if isinstance(node, ast.Yield)
                    else node.elt if isinstance(node, (ast.GeneratorExp, ast.ListComp)) else None)
            if isinstance(case, ast.Tuple) and len(case.elts) == 2 and _is_phrase(case.elts[1]):
                found.append(f"{name}:{node.lineno}")
    return found


def _package_sources(names=None) -> dict:
    src = Path(__file__).resolve().parent.parent / "src" / "jetpoisson"
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py"))
            if names is None or path.name in names}


def test_no_failed_record_has_a_fixed_phrase_for_a_residual():
    assert placeholder_witnesses(_package_sources()) == []


def test_the_scan_finds_placeholder_witnesses():
    source = ('rep.failed("a", (0,), "law broken", n=1)\n'
              'failed("b", (0,), residual="tables differ")\n'
              'rep.failed("c", (0,), residual.render())\n'
              'rep.failed("d", (0,), f"({c.render()}) {word}")\n'
              'yield (i, j), "law broken"\n'
              'cases = (((k,), "tables differ") for k in range(3))\n'
              'cases = [((k,), "tables differ") for k in range(3)]\n'
              'yield (i, j), ""\n'
              'yield (i, j), "" if ok else f"term {c.render()}"\n'
              'cases = (((k,), p - q) for k in range(3))\n'
              'yield (i, j), "" if ok else "law broken"\n')
    assert placeholder_witnesses({"m.py": source}) == ["m.py:1", "m.py:2", "m.py:5", "m.py:6",
                                                       "m.py:7", "m.py:11"]


# the library's modules: every record they return is made by report.first_failure
LIBRARY = ("bialgebra.py", "quantum.py", "poissonlie.py", "density.py", "series.py",
           "jetgroup.py", "coeffpoly.py")


def record_calls(sources: dict) -> list[str]:
    """``file:line`` of each call of ``failed`` or ``passed`` in sources, a
    {name: source text} map: a record made by hand, beside first_failure."""
    return [f"{name}:{node.lineno}" for name, text in sources.items()
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Call)
            and {getattr(node.func, "attr", None), getattr(node.func, "id", None)}
            & {"failed", "passed"}]


def test_no_library_verifier_makes_its_own_record():
    assert record_calls(_package_sources(LIBRARY)) == []


def test_the_scan_finds_records_made_by_hand():
    source = ('return rep.failed("a", (0,), residual.render(), n=1)\n'
              'return passed("b")\n'
              'return rep.first_failure("c", cases(), params)\n'
              'ok = report.passed\n')
    assert record_calls({"m.py": source}) == ["m.py:1", "m.py:2"]


def cli_computations(source: str) -> list[str]:
    """``line: what`` for each call of ``first_failure`` and each import of
    ``LaurentPoly`` in the source of a CLI module: a residual computed there
    and not in the library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "first_failure" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)):
            found.append((node.lineno, "first_failure"))
        if isinstance(node, ast.ImportFrom) and any(a.name == "LaurentPoly" for a in node.names):
            found.append((node.lineno, "LaurentPoly"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_the_cli_computes_no_residual():
    # every check lives in the library; the CLI runs checks and combines records
    assert cli_computations(_package_sources(["cli.py"])["cli.py"]) == []


def test_the_scan_finds_residuals_computed_in_the_cli():
    source = ('from .coeffpoly import ExponentOverflow, LaurentPoly\n'
              'records.append(rep.first_failure("a", cases(), {}))\n'
              'from jetpoisson.coeffpoly import LaurentPoly as P\n'
              'from .report import first_failure\n'
              'record = first_failure("b", [], {})\n'
              'record = rep.passed("c")\n')
    assert cli_computations(source) == ["1: LaurentPoly", "2: first_failure", "3: LaurentPoly",
                                        "5: first_failure"]


def test_failing_sl2_record_carries_the_witness(monkeypatch):
    args = build_parser().parse_args(["verify", "bialgebra", "--n", "3"])
    records = suite_bialgebra(args)
    for tag in ("sl2-first", "sl2-second"):
        [record] = [r for r in records if r.check == tag]
        assert record.to_dict() == {"check": tag, "params": {}, "status": "pass", "witness": None}
    cojacobi = ba.verify_cojacobi

    def failing_at_1(alpha, N):
        report = cojacobi(alpha, N)
        return rep.failed("cojacobi", (1, -1, 0, 1), "7", **report.params) if N == 1 else report

    monkeypatch.setattr(ba, "verify_cojacobi", failing_at_1)
    records = suite_bialgebra(args)
    for tag in ("sl2-first", "sl2-second"):
        [record] = [r for r in records if r.check == tag]
        assert record.to_dict() == {"check": tag, "params": {"part": "cojacobi"}, "status": "fail",
                                    "witness": {"indices": [1, -1, 0, 1], "residual": "7"}}
    assert all(r.passed for r in records if not r.check.startswith("sl2"))


def test_cli_pass_and_exit_status(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "group", "--n", "4", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert all(r["status"] == "pass" for r in data)


def test_cli_quantum_r1_records_constraint(tmp_path):
    out = tmp_path / "r1.json"
    code = main(["verify", "quantum", "--set", "R1", "--out", str(out)])
    assert code == 1  # the verbatim linear set fails its overlap check
    data = json.loads(out.read_text())
    by_check = {r["check"]: r for r in data}
    assert by_check["pbw-overlap"]["status"] == "fail"
    assert by_check["delta-homomorphism"]["status"] == "pass"
    assert by_check["quasiclassical"]["status"] == "pass"
    code = main(["verify", "quantum", "--set", "R1_pbw", "--out", str(out)])
    assert code == 0


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert main(["verify", "poisson", "--d", "2", "--n", "4",
                     "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


# every suite, at n=3 where it reads n, plus the quantum suite on two more
# relation sets so that state carried over from one set to another would show
SUITE_COMMANDS = [f"verify {name} --n 3" if "n" in cli._READS[name] else f"verify {name}"
                  for name in sorted(SUITES)] + [
    "verify quantum --set R3", "verify quantum --set R1_pbw"]


@functools.cache
def _outputs_in_fresh_interpreters():
    """Exit status and stdout of each command, each in its own interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = {}
    for command in SUITE_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "jetpoisson.cli", *command.split()],
                              capture_output=True, text=True, env=env, timeout=600)
        outputs[command] = (proc.returncode, proc.stdout)
    return outputs


def _output_in_process(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(command.split())
    return status, out.getvalue()


@pytest.mark.parametrize("seed", [0, 1])
def test_cli_report_does_not_depend_on_what_ran_before(seed):
    # each command runs twice in one process, in a seeded order, and must
    # print what it prints in a fresh interpreter
    fresh = _outputs_in_fresh_interpreters()
    assert all(status != 2 for status, _ in fresh.values())
    runs = SUITE_COMMANDS * 2
    for command in random.Random(seed).sample(runs, len(runs)):
        assert _output_in_process(command) == fresh[command], command


def test_cli_config_errors(capsys):
    assert main(["verify", "poisson", "--n", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "nosuch"])


@pytest.mark.parametrize("argv", [
    "verify poisson --n 0",
    "verify quantum --C foo",
    "verify poisson --phi table:{missing}",
    "verify poisson --phi table:{empty}",
    "verify poisson --phi extended --d 1",
    "verify phi --degree -2",
    "verify poisson --phi extended --degree 0",
    "verify phi --degree 1",
    "verify phi --degree 2",
    "verify all --degree 2",
    "verify poisson --phi extended --lambda 1/0",
    "verify quantum --C 1/0",
    "verify poisson --phi table:{zero_row}",
    "verify group --out {missing}/x.json",
    "verify poisson --n 3 --d 16383",
    "verify phi --degree 16383",
    "verify poisson --phi table:{diagonal}",
    "verify poisson --phi table:{cancelling}",
    "verify density --lambda 1/2",
    "verify phi --phi extended",
    "verify group --set R1",
    "verify poisson --phi linear --d 3",
    "verify all --lambda 1/0",
    "verify poisson --phi table:{repeated}",
    "verify poisson --phi table:{mirror_conflict}",
    "verify poisson --phi table:{mirror_repeated}",
    "verify poisson --phi exp",
    "verify all --phi exp",
    "verify quantum --set R2_ansatz --C 1 --C3 2",
    "verify poisson --degree 5",
], ids=["n-zero", "bad-rational", "missing-table", "empty-table", "extended-d1",
        "degree-negative", "degree-zero", "phi-degree-1", "phi-degree-2", "all-degree-2",
        "lambda-zero-denominator", "C-zero-denominator", "table-zero-denominator",
        "out-missing-directory", "series-exponent-overflow", "series-bound-overflow",
        "table-diagonal-row", "table-antisymmetrises-to-zero", "density-unused-lambda",
        "phi-unused-phi", "group-unused-set", "linear-unused-d", "all-unread-lambda",
        "table-repeated-row", "table-mirror-not-negated", "table-mirror-then-repeat",
        "poisson-unknown-family", "all-unknown-family", "ansatz-C3-given-twice",
        "power-unused-degree"])
def test_cli_bad_input_exits_2(argv, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no rows\n", encoding="utf-8")
    zero_row = tmp_path / "zero_row.txt"
    zero_row.write_text("2 1 1\n1 2 1/0\n", encoding="utf-8")
    diagonal = tmp_path / "diagonal.txt"
    diagonal.write_text("2 1 1\n1 1 3\n", encoding="utf-8")
    cancelling = tmp_path / "cancelling.txt"
    cancelling.write_text("2 1 1\n1 2 1\n", encoding="utf-8")
    tables = {}
    for name, rows in (("repeated", "2 1 1\n2 1 5\n"), ("mirror_conflict", "2 1 1\n1 2 2\n"),
                       ("mirror_repeated", "2 1 1\n1 2 -1\n1 2 -1\n")):
        tables[name] = tmp_path / f"{name}.txt"
        tables[name].write_text(rows, encoding="utf-8")
    code = main(argv.format(missing=tmp_path / "missing.txt", empty=empty, zero_row=zero_row,
                            diagonal=diagonal, cancelling=cancelling, **tables).split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    if argv in _UNUSED:
        assert captured.err == f"error: unused options for poisson: {_UNUSED[argv]}\n"


# the power and linear families read no --degree, and linear no --d
_UNUSED = {"verify poisson --phi linear --d 3": "--d", "verify poisson --degree 5": "--degree"}


def _exit_status(argv):
    """main's return value, or the status it exits with on a parse error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_BAD_NUMBERS = ["0", "-1", "1/0", str(2 ** 31), "x"]
# every numeric option with each suite that reads it; 0, -1 and 2^31 are
# values a rational parameter may take (verify quantum --C 0), so those get
# only the malformed ones
_NUMERIC_RUNS = (
    [(f"verify {suite} --n {{}}", v) for suite in ("group", "poisson", "bialgebra", "cybe",
                                                     "density", "all") for v in _BAD_NUMBERS]
    + [(f"verify {suite} --d {{}}", v) for suite in ("poisson", "all") for v in _BAD_NUMBERS]
    + [(f"verify {suite} --h-order {{}}", v) for suite in ("quantum", "all") for v in _BAD_NUMBERS]
    + [(f"verify {suite} --degree {{}}", v)
       for suite in ("phi", "poisson --phi extended", "all") for v in _BAD_NUMBERS]
    # an option the suite does not read is rejected whatever its value
    + [("verify poisson --degree {}", v) for v in _BAD_NUMBERS]
    + [(f"verify {suite} {flag} {{}}", v)
       for flag, suite in [("--lambda", "poisson --phi extended"), ("--C", "quantum"),
                           ("--C1", "quantum --set R2_ansatz"), ("--C2", "quantum --set R2_ansatz"),
                           ("--C3", "quantum --set R1"), ("--C4", "quantum --set R1"),
                           ("--C5", "quantum --set R1")] + [
           (flag, "all") for flag in ("--lambda", "--C", "--C1", "--C2", "--C3", "--C4", "--C5")]
       for v in ("1/0", "x")]
    # a one-row phi table with the value as its first index or as its entry:
    # index 0 is the extended model, and -1 or 2^31 are possible entries
    + [(f"verify {suite} --phi table:{{}}", row) for suite in ("poisson", "all")
       for row in ("2 1 0", "-1 1 1", "2 1 1/0", f"{2 ** 31} 1 1", "2 1 x")])


@pytest.mark.parametrize("command,value", _NUMERIC_RUNS)
def test_cli_numeric_options_reject_bad_values(command, value, tmp_path, capsys):
    if "table:" in command:
        table = tmp_path / "phi.txt"
        table.write_text(value + "\n", encoding="utf-8")
        value = str(table)
    assert _exit_status(command.format(value).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_cli_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    """A suite that runs out of memory gives one error line and exit 3, not
    a traceback with exit 1, and writes no report."""
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli.SUITES, "phi", exhausted)
    out = tmp_path / "report.json"
    for argv in (["verify", "phi"], ["verify", "all", "--n", "3", "--out", str(out)]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"
    assert not out.exists()


def test_cli_checks_out_before_any_suite_runs(tmp_path, monkeypatch, capsys):
    def no_suite(args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    assert main(["verify", "all", "--n", "7", "--out", str(tmp_path / "none" / "x.json")]) == 2
    assert main(["verify", "group", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write report")
    # a catalog parameter that the chosen relation set does not read, or one given twice
    for argv, err in (("all --n 7 --C1 2", "unused parameters: ['C1']"),
                      ("all --n 3 --set R1 --C 1", "unused parameters: ['C']"),
                      ("quantum --set R2 --C1 2 --C5 1", "unused parameters: ['C1', 'C5']"),
                      ("quantum --set R3 --C 2", "unused parameters: ['C']"),
                      ("quantum --set R1-pbw --C5 symbolic", "unused parameters: ['C5']"),
                      ("quantum --set R2_ansatz --C 1 --C3 2",
                       "parameter C3 given twice, as C3 and as C")):
        assert main(["verify", *argv.split()]) == 2, argv
        assert capsys.readouterr().err == f"error: {err}\n", argv
    monkeypatch.undo()
    # a run that fails after the check neither creates nor truncates the report
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report", encoding="utf-8")
    for out in (kept, tmp_path / "new.json"):
        code = main(["verify", "poisson", "--phi", f"table:{tmp_path / 'missing.txt'}",
                     "--out", str(out)])
        assert code == 2
    assert kept.read_text(encoding="utf-8") == "earlier report"
    assert not (tmp_path / "new.json").exists()


class _Reads(argparse.Namespace):
    """A namespace that records every option a suite reads."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_seen").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", [
    "group --n 2", "poisson --n 2", "poisson --n 2 --phi extended", "poisson --n 2 --phi linear",
    "poisson --n 2 --phi table:{table}", "phi --degree 4",
    "bialgebra --n 2", "cybe --n 2", "classify", "density --n 2", "quantum --set R3"])
def test_cli_reads_table_names_what_each_suite_reads(argv, tmp_path):
    table = tmp_path / "phi.txt"
    table.write_text("2 1 1\n", encoding="utf-8")
    args = build_parser().parse_args(["verify", *argv.format(table=table).split()])
    recorded = _Reads(_seen=set(), **vars(args))
    SUITES[args.suite](recorded)
    assert recorded._seen - {"suite"} == cli.reads(args)


def test_cli_phi_table_file(tmp_path):
    table = tmp_path / "phi.txt"
    table.write_text("# monomial family d=1\n2 1 1\n1 2 -1\n", encoding="utf-8")
    args = build_parser().parse_args(
        ["verify", "poisson", "--phi", f"table:{table}", "--n", "4"])
    status, records = run_suite(args)
    assert status == 0
    assert any(r.check == "jacobi" and r.passed for r in records)


def test_cli_phi_table_mirror_row_sets_the_entry_once(tmp_path):
    def table(rows):
        path = tmp_path / "phi.txt"
        path.write_text(rows, encoding="utf-8")
        args = build_parser().parse_args(["verify", "poisson", "--phi", f"table:{path}"])
        return cli._phi_from_args(args).table

    alone = table("2 1 1\n")
    assert alone == {(2, 1): LaurentPoly.one(), (1, 2): -LaurentPoly.one()}
    assert table("# monomial family d=1\n2 1 1\n1 2 -1\n") == alone


def test_cli_bad_phi_rows_and_families_are_named(tmp_path, capsys):
    path = tmp_path / "phi.txt"
    for rows, message in (("2 1 1\n2 1 5\n", "row '2 1 5' repeats row '2 1 1'"),
                          ("2 1 1\n1 2 2\n", "row '1 2 2' is not the negative of row '2 1 1'")):
        path.write_text(rows, encoding="utf-8")
        assert main(["verify", "poisson", "--phi", f"table:{path}"]) == 2
        assert message in capsys.readouterr().err
    assert main(["verify", "poisson", "--phi", "exp", "--lambda", "2"]) == 2
    assert capsys.readouterr().err == "error: unknown phi family 'exp'\n"


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jetpoisson.cli", "verify", "phi", "--format", "text"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0
    assert "phi-equation" in proc.stdout


def test_importing_the_cli_loads_no_dataclasses():
    """``dataclasses`` and the modules it loads (inspect, ast, dis, tokenize)
    cost every run about 25 ms of set-up; nothing else in a run needs them."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    script = (f"import sys\nsys.path.insert(0, {src!r})\nimport jetpoisson.cli\n"
              f"print(sorted({heavy!r} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", script],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_batch_tag_never_reaches_a_report(monkeypatch, capsys):
    """quantum.tensor_reduce tags the words it reduces together with a
    variable that has no name, so rendering it raises.  Given a name here,
    the name shows in no report of ``verify all`` and in no golden case."""
    from jetpoisson import coeffpoly
    from jetpoisson import quantum as qt

    with pytest.raises(KeyError):
        LaurentPoly.var(qt._TAG).render()
    monkeypatch.setitem(coeffpoly._KIND_LETTERS, coeffpoly.VarKind.TAG, "TAGGED")
    assert LaurentPoly.var(qt._TAG).render() == "1*TAGGED0"
    assert main(["verify", "all", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "delta-homomorphism" in out and "TAGGED" not in out
    for name in sorted(golden_cases.CASES):
        assert "TAGGED" not in golden_cases.render(name), name
