"""The traced benchmark run patches program attributes by name; keep them.

``perfbench/tracing.py`` lists in ``SITES`` each (module, attribute) it wraps,
and the benchmark worker reads ``membership.representable``'s cache counters.
A refactor that renames or drops one of these, or stops calling one, breaks
the traced run without failing any other test.  The file is parsed, not imported, so nothing is
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


def test_certificate_reaches_the_traced_reduce_sites(monkeypatch):
    # the traced reduce run reports symalg.sample_s, normalize_s and
    # max_coeff_bits from these three wrapped names; a certificate that
    # stopped calling one through wfano.symmetry would read 0 there silently
    from wfano import symmetry

    watched = {
        attr for module, attr, name in traced_sites()
        if module == "wfano.symmetry"
        and name in ("symalg.sample_family_member", "symalg.normalize", "exactmath.rational_roots")
    }
    assert watched == {"sample_family_member", "normalize", "rational_roots"}
    calls = dict.fromkeys(watched, 0)
    results = []

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            result = fn(*args, **kwargs)
            if attr == "normalize":
                results.append(result)
            return result

        return wrapper

    for attr in watched:
        monkeypatch.setattr(symmetry, attr, counting(attr, getattr(symmetry, attr)))
    symmetry.certify_trivial_automorphisms(19, 0)
    assert all(calls.values()), calls
    # the tracer reads the coefficient sizes off the reduced polynomial's terms
    bits = [max(c.numerator.bit_length(), c.denominator.bit_length()) for g, _ in results for c in g.terms.values()]
    assert bits and max(bits) > 0


def test_member_check_reaches_the_traced_gcd_site(monkeypatch):
    # the traced member run reports exactmath.poly_gcd_calls and _s from this
    # wrapped name; edge checks that stopped calling it through wfano.exactmath
    # would read 0 there silently
    from wfano import exactmath, symalg
    from wfano.wspace import weight_system

    assert ("wfano.exactmath", "poly_gcd", "exactmath.poly_gcd") in traced_sites()
    calls = []
    poly_gcd = exactmath.poly_gcd

    def counting(a, b):
        calls.append(1)
        return poly_gcd(a, b)

    monkeypatch.setattr(exactmath, "poly_gcd", counting)
    f = symalg.sample_general_member(weight_system(3, 4, 5, 6, 7, 12), seed=0)
    assert symalg.quasismooth_member(f).status == "quasismooth"
    assert calls
