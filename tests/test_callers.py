"""Every function, class, method and default of the program has a caller in the program.

An AST scan lists each top-level def and class of ``src/wfano`` (without
``__init__.py``) and each non-dunder method of those classes.  A def or class
must be named, as a variable or an attribute, somewhere in ``src/wfano`` or
in ``perfbench/*.py``; a method must be named there as an attribute
(``obj.name``), since a bare variable of the same name calls something else.
An attribute that the benchmark's trace ``SITES`` wraps counts as named.
Re-exports in ``__init__.py`` do not count, so code that only the tests call
fails here: move it into the tests or delete it.

A class must also be built there: called (constructed) or raised.  Naming
it in an annotation, an ``isinstance`` or an ``except`` builds nothing, so a
class that only the tests construct fails here.

A last scan asks the same of every defaulted parameter of a ``src/wfano``
function: some call in ``src/wfano`` or ``perfbench/*.py`` passes it, by
keyword or by position.  A default that no caller overrides is a constant.
"""

import ast
from pathlib import Path

from test_bench_sites import traced_sites

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "wfano").glob("*.py") if p.name != "__init__.py")
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

#: names kept without a caller in the program, each with its reason
ALLOWED = {
    "verify": "SmithForm.verify proves the left transform exists; the tests run it",
}

#: function.parameter kept without a caller that passes it, each with its reason
ALLOWED_DEFAULTS = {
    "main.argv": "the console script calls cli.main() with no arguments, so argparse reads sys.argv",
}


def parse(paths):
    return [ast.parse(p.read_text(encoding="utf-8")) for p in paths]


def defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}"


def test_every_definition_has_a_caller():
    variables, attributes = set(), {attr for _, attr, _ in traced_sites()} | ALLOWED.keys()
    for tree in parse(CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                variables.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unused = [
        name
        for tree in parse(SOURCES)
        for name in defined(tree)
        if name.rpartition(".")[2] not in (attributes if "." in name else variables | attributes)
    ]
    assert not unused, f"no caller in src/wfano or perfbench: {unused}"


def test_every_class_is_built_by_the_program():
    built = set()
    for tree in parse(CALLERS):
        for node in ast.walk(tree):
            # a raise of a call is a call, which the walk reaches too
            target = node.func if isinstance(node, ast.Call) else node.exc if isinstance(node, ast.Raise) else None
            if isinstance(target, (ast.Name, ast.Attribute)):
                built.add(target.id if isinstance(target, ast.Name) else target.attr)
    unbuilt = [
        node.name
        for tree in parse(SOURCES)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name not in built
    ]
    assert not unbuilt, f"no call or raise in src/wfano or perfbench builds these classes: {unbuilt}"


def defaulted(tree):
    """(function, parameter, position in a call) of each defaulted parameter;
    the position is None for a keyword-only one, and a method's call passes
    no self."""
    methods = {
        id(item)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in getattr(item, "decorator_list", ()))
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for pos in range(first, len(positional)):
                yield node.name, positional[pos].arg, pos - (id(node) in methods)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def passes(call, parameter, pos):
    """The call fills the parameter by keyword or by position; a **kwargs
    fills every keyword, and a *args every position from its own on."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    return pos is not None and any(
        i == pos or (isinstance(arg, ast.Starred) and i < pos) for i, arg in enumerate(call.args)
    )


def test_every_default_is_passed_by_a_caller():
    calls = {}
    for tree in parse(CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    never = [
        f"{function}.{parameter}"
        for tree in parse(SOURCES)
        for function, parameter, pos in defaulted(tree)
        if f"{function}.{parameter}" not in ALLOWED_DEFAULTS
        and not any(passes(call, parameter, pos) for call in calls.get(function, ()))
    ]
    assert not never, f"no call in src/wfano or perfbench passes these defaulted parameters: {never}"
