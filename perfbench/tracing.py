"""Span tracing from outside the program, and the per-layer metrics.

Wrappers go around the public functions of wfano (and sympy.groebner) at the
name each caller binds, e.g. ``wfano.catalog.terminal_general``, which the
search loop looks up in its own module.  Each call records a span
[name, start, end, parent span, operation id]; spans stay in memory and are
written as JSON when the run ends.  A span's self time is its duration minus
the time its child spans cover.

The traced run is its own command; it runs one round untraced and one round
traced, each in a fresh process, and reports the difference as the tracing
overhead:

    python3 perfbench/tracing.py --workload member --seed 0

which is the same as ``python3 perfbench/run.py ... --trace 1``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

#: (module, attribute, span name) for every wrapped function
SITES = (
    ("wfano.catalog", "classify", "catalog.classify"),
    ("wfano.membership", "hypersurface_well_formed", "membership.hypersurface_well_formed"),
    ("wfano.catalog", "terminal_general", "singular.terminal_general"),
    ("wfano.membership", "quasismooth_general", "membership.quasismooth_general"),
    ("wfano.catalog", "membership_report", "catalog.membership_report"),
    ("wfano.catalog", "singular_points_general", "catalog.singular_points_general"),
    ("wfano.catalog", "render_markdown", "catalog.render_markdown"),
    ("wfano.irrational", "decide", "irrational.decide"),
    ("wfano.symmetry", "certify_trivial_automorphisms", "symmetry.certify_trivial_automorphisms"),
    ("wfano.symmetry", "sample_family_member", "symalg.sample_family_member"),
    ("wfano.symmetry", "normalize", "symalg.normalize"),
    ("wfano.symalg", "substitute", "symalg.substitute"),
    ("wfano.symmetry", "diagonal_symmetry_group", "symmetry.diagonal_symmetry_group"),
    ("wfano.symmetry", "has_diagonal_involution", "symmetry.has_diagonal_involution"),
    ("wfano.symmetry", "smith_normal_form", "exactmath.smith_normal_form"),
    ("wfano.symmetry", "rational_roots", "exactmath.rational_roots"),
    ("wfano.symalg", "rational_roots", "exactmath.rational_roots"),
    ("wfano.symmetry", "pgl2_set_stabilizer", "symmetry.pgl2_set_stabilizer"),
    ("wfano.symalg", "quasismooth_member", "symalg.quasismooth_member"),
    ("wfano.symalg", "partial_derivative", "symalg.partial_derivative"),
    ("wfano.exactmath", "poly_gcd", "exactmath.poly_gcd"),
    ("sympy", "groebner", "sympy.groebner"),
)

#: per-layer metric -> (unit, better); run.py and BENCHMARK.json use this order
PER_LAYER = {
    "catalog.classify_s": ("s", "lower"),
    "catalog.search_self_s": ("s", "lower"),
    "membership.hypersurface_well_formed_calls": ("count", "lower"),
    "singular.terminal_general_calls": ("count", "lower"),
    "membership.quasismooth_general_calls": ("count", "lower"),
    "catalog.accepted": ("count", "higher"),
    "catalog.accept_ratio": ("ratio", "higher"),
    "membership.hypersurface_well_formed_s": ("s", "lower"),
    "singular.terminal_general_s": ("s", "lower"),
    "membership.quasismooth_general_s": ("s", "lower"),
    "membership.representable_calls": ("count", "lower"),
    "membership.representable_hit_ratio": ("ratio", "higher"),
    "catalog.records_s": ("s", "lower"),
    "irrational.decide_s": ("s", "lower"),
    "catalog.render_s": ("s", "lower"),
    "symalg.sample_s": ("s", "lower"),
    "symalg.normalize_s": ("s", "lower"),
    "symalg.substitute_calls": ("count", "lower"),
    "symalg.substitute_s": ("s", "lower"),
    "symalg.genericity_retries": ("count", "lower"),
    "symalg.max_coeff_bits": ("bits", "lower"),
    "symalg.reduced_terms": ("count", "lower"),
    "symmetry.group_s": ("s", "lower"),
    "exactmath.smith_normal_form_calls": ("count", "lower"),
    "exactmath.smith_normal_form_s": ("s", "lower"),
    "exactmath.rational_roots_calls": ("count", "lower"),
    "exactmath.rational_roots_s": ("s", "lower"),
    "symmetry.stabilizer_s": ("s", "lower"),
    "symalg.partials_s": ("s", "lower"),
    "exactmath.poly_gcd_calls": ("count", "lower"),
    "exactmath.poly_gcd_s": ("s", "lower"),
    "sympy.groebner_calls": ("count", "lower"),
    "sympy.groebner_s": ("s", "lower"),
    "symalg.member_self_s": ("s", "lower"),
    "sympy.import_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Records spans around wrapped functions; install() and restore() patch
    and unpatch the module attributes in SITES."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.max_coeff_bits = 0
        self.reduced_terms = 0

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_normalize(self, result) -> None:
        g, _ = result
        self.reduced_terms += len(g.terms)
        for c in g.terms.values():
            self.max_coeff_bits = max(
                self.max_coeff_bits, c.numerator.bit_length(), c.denominator.bit_length()
            )

    def install(self, modules: set[str]) -> None:
        for mod_name, attr, name in SITES:
            if mod_name not in modules:
                continue
            module = sys.modules[mod_name]
            original = getattr(module, attr)
            observe = self._observe_normalize if name == "symalg.normalize" else None
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, observe))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh
            )


def layer_metrics(spans: list[list], extra: dict) -> dict[str, float]:
    """Per-layer metrics from the spans, plus counters observed outside them."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    # the search funnel: predicate calls made by classify itself, not by the
    # record building or the per-septuple verdict operations
    funnel_calls: dict[str, int] = defaultdict(int)
    funnel_total: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] += 1
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
        if s[3] is not None and spans[s[3]][0] == "catalog.classify":
            funnel_calls[name] += 1
            funnel_total[name] += dur[i]

    hwf = "membership.hypersurface_well_formed"
    accepted = funnel_calls["catalog.membership_report"]
    rep_calls = extra["representable_calls"]
    return {
        "catalog.classify_s": total["catalog.classify"],
        "catalog.search_self_s": self_time["catalog.classify"],
        "membership.hypersurface_well_formed_calls": funnel_calls[hwf],
        "singular.terminal_general_calls": funnel_calls["singular.terminal_general"],
        "membership.quasismooth_general_calls": funnel_calls["membership.quasismooth_general"],
        "catalog.accepted": accepted,
        "catalog.accept_ratio": accepted / funnel_calls[hwf] if funnel_calls[hwf] else 0.0,
        "membership.hypersurface_well_formed_s": funnel_total[hwf],
        "singular.terminal_general_s": funnel_total["singular.terminal_general"],
        "membership.quasismooth_general_s": funnel_total["membership.quasismooth_general"],
        "membership.representable_calls": rep_calls,
        "membership.representable_hit_ratio": (
            extra["representable_hits"] / rep_calls if rep_calls else 0.0
        ),
        "catalog.records_s": funnel_total["catalog.membership_report"]
        + funnel_total["catalog.singular_points_general"],
        "irrational.decide_s": total["irrational.decide"],
        "catalog.render_s": total["catalog.render_markdown"],
        "symalg.sample_s": total["symalg.sample_family_member"],
        "symalg.normalize_s": total["symalg.normalize"],
        "symalg.substitute_calls": calls["symalg.substitute"],
        "symalg.substitute_s": total["symalg.substitute"],
        "symalg.genericity_retries": calls["symalg.sample_family_member"]
        - calls["symmetry.certify_trivial_automorphisms"],
        "symalg.max_coeff_bits": extra["max_coeff_bits"],
        "symalg.reduced_terms": extra["reduced_terms"],
        "symmetry.group_s": total["symmetry.diagonal_symmetry_group"]
        + total["symmetry.has_diagonal_involution"],
        "exactmath.smith_normal_form_calls": calls["exactmath.smith_normal_form"],
        "exactmath.smith_normal_form_s": total["exactmath.smith_normal_form"],
        "exactmath.rational_roots_calls": calls["exactmath.rational_roots"],
        "exactmath.rational_roots_s": total["exactmath.rational_roots"],
        "symmetry.stabilizer_s": total["symmetry.pgl2_set_stabilizer"],
        "symalg.partials_s": total["symalg.partial_derivative"],
        "exactmath.poly_gcd_calls": calls["exactmath.poly_gcd"],
        "exactmath.poly_gcd_s": total["exactmath.poly_gcd"],
        "sympy.groebner_calls": calls["sympy.groebner"],
        "sympy.groebner_s": total["sympy.groebner"],
        "symalg.member_self_s": self_time["symalg.quasismooth_member"],
        "sympy.import_s": extra["sympy_import_s"],
    }


if __name__ == "__main__":
    import run

    sys.exit(run.main(sys.argv[1:] + ["--trace", "1"]))
