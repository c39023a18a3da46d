"""No function, class or method of the package, the benchmark or the tests
is defined without a use.

An AST scan of ``src/jetpoisson``, ``perfbench/*.py`` and ``tests/*.py``.  A
top-level function or class counts as used when its name appears as a name
or as an attribute anywhere outside its own definition; a method of a
top-level class, when its name appears as an attribute outside its own
definition.  Code held in a string counts as code: a script that a test
runs in a subprocess, or a name that is looked up by its text.  Exempt are
the names that something other than this code calls: dunder methods,
pytest's tests and fixtures, and the hooks of argparse.
"""

import ast
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = [path for pattern in ("src/jetpoisson/*.py", "perfbench/*.py", "tests/*.py")
         for path in sorted(ROOT.glob(pattern))]
HOOKS = {"error"}  # argparse.ArgumentParser.error, overridden by cli._Parser


def _uses(node) -> tuple[Counter, Counter]:
    """How often each name occurs as a name and as an attribute under node,
    in its code and in the strings of it that parse as code."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = ast.parse(sub.value)
            except (SyntaxError, ValueError):
                continue
            n, a = _uses(code)
            names += n
            attrs += a
    return names, attrs


def _exempt(node, path: Path) -> bool:
    if node.name.startswith("__") and node.name.endswith("__") or node.name in HOOKS:
        return True
    return path.name.startswith("test_") and (
        node.name.startswith("test_")
        or any("fixture" in ast.unparse(d) for d in node.decorator_list))


def unused_definitions(sources: dict) -> list[str]:
    """``file:Name`` or ``file:Class.method`` for each unused definition in
    sources, a {path: source text} map scanned as one program."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _uses(tree)
        names += n
        attrs += a
    unused = []
    for path, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(top, top.name, False)]
            if isinstance(top, ast.ClassDef):
                members += [(item, f"{top.name}.{item.name}", True) for item in top.body
                            if isinstance(item, ast.FunctionDef)]
            for node, label, is_method in members:
                if _exempt(node, Path(path)):
                    continue
                own_names, own_attrs = _uses(node)
                used = attrs[node.name] > own_attrs[node.name] or (
                    not is_method and names[node.name] > own_names[node.name])
                if not used:
                    unused.append(f"{Path(path).name}:{label}")
    return unused


def test_every_definition_is_used():
    unused = unused_definitions({str(path): path.read_text(encoding="utf-8") for path in FILES})
    assert not unused, unused


def test_the_scan_finds_unused_definitions():
    source = '''
class Table:
    def used(self):
        return self.used

    def unused(self):
        return 0

    def __len__(self):
        return 0


def unused_function():
    return unused_function()


def called():
    return Table().used()


called()
'''
    assert unused_definitions({"tests/module.py": source}) == [
        "module.py:Table.unused", "module.py:unused_function"]
