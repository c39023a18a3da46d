"""No function, class or method of the package, the benchmark or the tests
is defined without a use, and no parameter has a default that every call
leaves in place.

An AST scan of ``src/jetpoisson``, ``perfbench/*.py`` and ``tests/*.py``.  A
top-level function or class counts as used when its name appears as a name
or as an attribute anywhere outside its own definition; a method of a
top-level class, when its name appears as an attribute outside its own
definition.  Code held in a string counts as code: a script that a test
runs in a subprocess, or a name that is looked up by its text.  Exempt are
the names that something other than this code calls: dunder methods,
pytest's tests and fixtures, and the hooks of argparse.

A parameter with a default, of a top-level function or a method of the
package, the benchmark or the tests, or a defaulted field of one of their
``@dataclass`` classes, counts as passed when some call of a callable of its
name passes it, by position or by keyword.  A class call is a call of its
``__init__`` (for a dataclass, of its fields in order), and
``functools.partial(f, ...)`` is a call of ``f``; a call with ``*args`` or
``**kwargs`` passes every parameter.  Calls are matched by name alone, so a
call of one of two methods of the same name counts for both.  Dunder methods
other than ``__init__`` are exempt.

A raw sum is accumulated and cancelled key by key in one place per layer:
no function of the package but ``coeffpoly._mac_at`` and
``quantum.nc_reduce`` deletes an entry in the branch of a test that reads
``_poly_mac(...).terms``, and each of those two does it once.
"""

import ast
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = [path for pattern in ("src/jetpoisson/*.py", "perfbench/*.py", "tests/*.py")
         for path in sorted(ROOT.glob(pattern))]
HOOKS = {"error"}  # argparse.ArgumentParser.error, overridden by cli._Parser


def _code(sub):
    """The tree of the code a string constant holds, else None."""
    if not (isinstance(sub, ast.Constant) and isinstance(sub.value, str)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return ast.parse(sub.value)
    except (SyntaxError, ValueError):
        return None


def _uses(node) -> tuple[Counter, Counter]:
    """How often each name occurs as a name and as an attribute under node,
    in its code and in the strings of it that parse as code."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
        elif (code := _code(sub)) is not None:
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


def _callee(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(node) -> dict:
    """Callee name -> the calls of it under node, each as (number of
    positional arguments, keyword names), None for a call with * or **."""
    calls: dict = {}
    for sub in ast.walk(node):
        if (code := _code(sub)) is not None:
            for name, found in _calls(code).items():
                calls.setdefault(name, []).extend(found)
        if not isinstance(sub, ast.Call):
            continue
        name, args = _callee(sub.func), sub.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        star = any(isinstance(a, ast.Starred) for a in args) or any(
            k.arg is None for k in sub.keywords)
        calls.setdefault(name, []).append(
            None if star else (len(args), {k.arg for k in sub.keywords}))
    return calls


def _defaults(tree):
    """(label, callee name, [(parameter, position)]) for each top-level
    function, method and dataclass; the position counts the arguments a
    call passes, so a method's self has none, and is None for keyword-only."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, _parameters(node, 0)
        if not isinstance(node, ast.ClassDef):
            continue
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            yield node.name, node.name, [(f.target.id, pos) for pos, f in enumerate(fields)
                                         if f.value is not None]
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                static = any("staticmethod" in ast.unparse(d) for d in item.decorator_list)
                name = node.name if item.name == "__init__" else item.name
                yield f"{node.name}.{item.name}", name, _parameters(item, 0 if static else 1)


def _parameters(func, skip: int) -> list:
    if func.name.startswith("__") and func.name.endswith("__") and func.name != "__init__":
        return []
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    return [(arg.arg, pos - skip) for pos, arg in enumerate(positional) if pos >= first] + [
        (arg.arg, None) for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults)
        if default is not None]


def unpassed_parameters(sources: dict) -> list[str]:
    """``file:function(parameter)`` for each parameter with a default that
    no call passes, in sources, a {path: source text} map scanned as one
    program."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    calls: dict = {}
    for tree in trees.values():
        for name, found in _calls(tree).items():
            calls.setdefault(name, []).extend(found)
    unpassed = []
    for path, tree in trees.items():
        for label, name, params in _defaults(tree):
            for param, pos in params:
                if not any(call is None or param in call[1] or pos is not None and pos < call[0]
                           for call in calls.get(name, ())):
                    unpassed.append(f"{Path(path).name}:{label}({param})")
    return unpassed


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


def test_every_default_is_overridden_by_some_call():
    unpassed = unpassed_parameters({str(path): path.read_text(encoding="utf-8")
                                    for path in FILES})
    assert not unpassed, unpassed


def test_the_scan_finds_unpassed_parameters():
    source = '''
import functools
from dataclasses import dataclass


@dataclass
class Row:
    key: int
    tag: str = ""
    note: str = ""


class Table:
    def get(self, key, default=None, strict=False):
        return default

    def __call__(self, value=None):
        return value


def build(n, scale=1, *, name="t", label=""):
    return Row(n, "x")


def spread(a=0, b=0):
    return a + b


Table().get(1, 2)
build(1, label="y")
functools.partial(build, 2, 3)()
spread(*[1, 2])
'''
    helper = "def helper(x=1):\n    return x\n"
    assert unpassed_parameters({"src/module.py": source, "tests/test_module.py": helper}) == [
        "module.py:Row(note)", "module.py:Table.get(strict)", "module.py:build(name)",
        "test_module.py:helper(x)"]


def _reads_mac_terms(test) -> bool:
    return any(isinstance(sub, ast.Attribute) and sub.attr == "terms"
               and isinstance(sub.value, ast.Call) and _callee(sub.value.func) == "_poly_mac"
               for sub in ast.walk(test))


def cancelling_blocks(sources: dict) -> list[str]:
    """``file:function`` or ``file:Class.method``, once per ``if`` in it whose
    test reads ``_poly_mac(...).terms`` and whose branch deletes, in sources,
    a {path: source text} map; nested functions count for the one they are in."""
    found = []
    for path, text in sources.items():
        for top in ast.parse(text).body:
            if isinstance(top, ast.FunctionDef):
                functions = [(top.name, top)]
            elif isinstance(top, ast.ClassDef):
                functions = [(f"{top.name}.{item.name}", item) for item in top.body
                             if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for label, func in functions:
                for sub in ast.walk(func):
                    if isinstance(sub, ast.If) and _reads_mac_terms(sub.test) and any(
                            isinstance(d, ast.Delete) for stmt in sub.body for d in ast.walk(stmt)):
                        found.append(f"{Path(path).name}:{label}")
    return sorted(found)


def test_raw_sums_cancel_only_in_mac_at_and_nc_reduce():
    sources = {str(path): path.read_text(encoding="utf-8")
               for path in sorted(ROOT.glob("src/jetpoisson/*.py"))}
    assert cancelling_blocks(sources) == ["coeffpoly.py:_mac_at", "quantum.py:nc_reduce"]


def test_the_scan_finds_cancelling_blocks():
    source = '''
def total(raw, key, p, q):
    acc = raw.get(key)
    if acc is None:
        raw[key] = _poly_mac(None, p, q)
    elif not _poly_mac(acc, p, q).terms:
        del raw[key]


class Table:
    def merge(self, key, p, q):
        def step():
            if not kernel._poly_mac(self.raw[key], p, q, None).terms:
                del self.raw[key]
        step()

    def keep(self, key, p, q):
        if _poly_mac(self.raw[key], p, q).terms:
            return
        self.raw.pop(key)


def finish(raw, key):
    if not raw[key].terms:
        del raw[key]
'''
    assert cancelling_blocks({"src/module.py": source}) == ["module.py:Table.merge",
                                                            "module.py:total"]
