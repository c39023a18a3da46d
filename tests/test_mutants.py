"""Every entry of tests/mutants.py still applies to the code it mutates.

The mutation runner itself is slow and runs outside this suite
(``python3 tests/mutants.py``); this test keeps its table in step with the
code: each original text occurs exactly once in its file, the mutant differs
from it, and each test the entry names is defined in its test file.
"""

import ast
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parent.parent


def test_mutant_names_are_unique():
    names = [m["name"] for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m["name"])
def test_mutant_applies_once_and_names_existing_tests(mutant):
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert text.count(mutant["original"]) == 1
    assert mutant["mutant"] != mutant["original"]
    assert set(mutant) - {"equivalent"} == {"name", "file", "original", "mutant", "tests"}
    assert mutant["tests"]
    for test_id in mutant["tests"]:
        path, name = test_id.split("::")
        name = name.split("[")[0]
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert name in defined, test_id
