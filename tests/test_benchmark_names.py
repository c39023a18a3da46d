"""The names of jetpoisson that the benchmark and the golden-file script use.

The benchmark in ``perfbench/`` runs outside this suite, so a name it reads
that the package no longer has would show only at benchmark time.  This test
reads those files with ``ast`` and looks up each such name in the package.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "golden_cases.py"]


def _module_aliases(tree):
    """{local name: module path} for the jetpoisson modules a file imports,
    and the (module path, name) pairs it imports from them."""
    aliases, imported = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("jetpoisson"):
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jetpoisson"):
            for a in node.names:
                path = f"{node.module}.{a.name}"
                try:
                    importlib.import_module(path)
                    aliases[a.asname or a.name] = path
                except ModuleNotFoundError:
                    imported.append((node.module, a.name))
    return aliases, imported


def _chain(node):
    """The dotted names of an attribute chain on a plain name, e.g.
    ['quantum', 'RelationSet', 'tail'], or None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + names[::-1]


def _uses(path):
    """Each (module path, attribute path) the file reads from jetpoisson."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, uses = _module_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _chain(node)
            if chain and chain[0] in aliases:
                uses.append((aliases[chain[0]], ".".join(chain[1:])))
        # {module: ["name", ...]} tables and (module, "name") keys, as in tracing.py
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Name) and key.id in aliases:
                    uses += [(aliases[key.id], v.value)
                             for names in ast.walk(value) if isinstance(names, ast.List)
                             for v in names.elts if isinstance(v, ast.Constant)]
        if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and isinstance(node.elts[0], ast.Name) and node.elts[0].id in aliases
                and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)):
            uses.append((aliases[node.elts[0].id], node.elts[1].value))
    return uses


def test_every_jetpoisson_name_the_benchmark_uses_exists():
    seen = set()
    missing = []
    for path in FILES:
        for module, attrs in _uses(path):
            seen.add((module, attrs))
            obj = importlib.import_module(module)
            for attr in attrs.split("."):
                if not hasattr(obj, attr):
                    missing.append(f"{path.name}: {module}.{attrs}")
                    break
                obj = getattr(obj, attr)
    assert not missing, missing
    # a sample of what the files use, so that a parser that finds nothing fails
    for use in [("jetpoisson", "BACKEND"), ("jetpoisson.quantum", "nc_make"),
                ("jetpoisson.quantum", "RelationSet.tail"), ("jetpoisson.series", "compose"),
                ("jetpoisson.density", "verify_density_action"),
                ("jetpoisson.cli", "run_suite"), ("jetpoisson.poissonlie", "verify_jacobi")]:
        assert use in seen, use
