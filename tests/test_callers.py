"""Every function, class and method of the program has a caller in the program.

An AST scan lists each top-level def and class of ``src/wfano`` (without
``__init__.py``) and each non-dunder method of those classes.  Each must be
named, as a variable or an attribute, somewhere in ``src/wfano`` or in
``perfbench/*.py``, or be an attribute that the benchmark's trace ``SITES``
wraps.  Re-exports in ``__init__.py`` do not count, so code that only the
tests call fails here: move it into the tests or delete it.
"""

import ast
from pathlib import Path

from test_bench_sites import traced_sites

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "wfano").glob("*.py") if p.name != "__init__.py")

#: names kept without a caller in the program, each with its reason
ALLOWED = {
    "verify": "SmithForm.verify proves the left transform exists; the tests run it",
}


def defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}"


def named(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_has_a_caller():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES]
    used = {attr for _, attr, _ in traced_sites()} | ALLOWED.keys()
    for tree in trees + [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "perfbench").glob("*.py")]:
        used.update(named(tree))
    unused = sorted(name for tree in trees for name in defined(tree) if name.rpartition(".")[2] not in used)
    assert not unused, f"no caller in src/wfano or perfbench: {unused}"
