"""The traced benchmark run patches program attributes by name; keep them.

``perfbench/tracing.py`` lists in ``SITES`` each (module, attribute) it wraps,
and the benchmark worker reads ``membership.representable``'s cache counters.
A refactor that renames or drops one of these breaks the traced run without
failing any other test.  The file is parsed, not imported, so nothing is
written next to it.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_sites():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SITES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SITES in {TRACING}")


def test_traced_sites_resolve():
    sites = traced_sites()
    assert ("wfano.symalg", "rational_roots", "exactmath.rational_roots") in sites
    for module, attr, _ in sites:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"


def test_representable_cache_counters():
    from wfano import membership

    assert callable(membership.representable.cache_info)
    assert callable(membership.representable.cache_clear)
