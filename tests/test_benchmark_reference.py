"""Tier-1 replay of the benchmark's reference records.

The benchmark checks every record it runs against ``perfbench/reference.json``,
but it runs outside this suite.  This test imports the benchmark's workloads
and replays, in process, the records that cover every report path the CLI
prints: the ``cli_suites`` commands at both sizes, the fixed quantum checks
(the structure checks on the shipped relation sets and their negative
controls) and every perturbed bracket table.  Each status and payload digest
must equal the reference; a failure names every check id that differs.  It
reads benchmark data and changes none.
"""

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import one_pass  # noqa: E402
import workloads  # noqa: E402


def _replayed_checks():
    checks = []
    for size in workloads.SIZES:
        checks += workloads.cli_suites(0, size)
    checks += workloads.quantum_fixed()
    for p in workloads.PERTURBATIONS:
        checks += workloads.perturbation_checks(p)
    return checks


def test_replayed_records_match_the_reference():
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    checks = _replayed_checks()
    assert len(checks) == 8 + 20 + 120
    differing = [
        cid for cid, status, payload in one_pass.run_checks(checks)
        if reference.get(cid) != [status, one_pass.digest(payload)]
    ]
    assert not differing, f"records differ from perfbench/reference.json: {differing}"
