"""Report schema, golden negative controls, and the command-line surface."""

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
from jetpoisson import jetgroup as jg
from jetpoisson import report as rep
from jetpoisson.cli import SUITES, build_parser, main, run_suite, suite_bialgebra, suite_group

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
    scale = jg.vf_scale
    seen = []

    def broken_scale(field, c):
        # called with (X_{a+b-1}, a-b); X_k's lowest component is at index k
        if not field.components:
            return scale(field, c)
        k = min(field.components)
        pair = ((k + 1 + c) // 2, (k + 1 - c) // 2)
        seen.append(pair)
        return scale(field, c + 1 if pair in ((2, 3), (3, 1)) else c)

    monkeypatch.setattr(jg, "vf_scale", broken_scale)
    records = suite_group(build_parser().parse_args(["verify", "group", "--n", "4"]))
    [record] = [r for r in records if r.check == "field-bracket"]
    assert record.witness["indices"] == [2, 3]
    assert seen[-1] == (2, 3)  # no bracket is computed after the first failure


def test_failing_sl2_record_carries_the_witness(monkeypatch):
    from jetpoisson import bialgebra as ba

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


# every suite at n=3, plus the quantum suite on two more relation sets so that
# state carried over from one set to another would show
SUITE_COMMANDS = [f"verify {name} --n 3" for name in sorted(SUITES)] + [
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
], ids=["n-zero", "bad-rational", "missing-table", "empty-table", "extended-d1",
        "degree-negative", "degree-zero", "phi-degree-1", "phi-degree-2", "all-degree-2",
        "lambda-zero-denominator", "C-zero-denominator", "table-zero-denominator",
        "out-missing-directory"])
def test_cli_bad_input_exits_2(argv, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no rows\n", encoding="utf-8")
    zero_row = tmp_path / "zero_row.txt"
    zero_row.write_text("2 1 1\n1 2 1/0\n", encoding="utf-8")
    code = main(argv.format(missing=tmp_path / "missing.txt", empty=empty,
                            zero_row=zero_row).split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_cli_phi_table_file(tmp_path):
    table = tmp_path / "phi.txt"
    table.write_text("# monomial family d=1\n2 1 1\n1 2 -1\n", encoding="utf-8")
    args = build_parser().parse_args(
        ["verify", "poisson", "--phi", f"table:{table}", "--n", "4"])
    status, records = run_suite(args)
    assert status == 0
    assert any(r.check == "jacobi" and r.passed for r in records)


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jetpoisson.cli", "verify", "phi", "--format", "text"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0
    assert "phi-equation" in proc.stdout
