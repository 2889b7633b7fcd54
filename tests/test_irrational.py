from collections import Counter
from itertools import combinations_with_replacement

import pytest

from wfano.catalog import EXCEPTIONAL_EIGHT, FAMILY_LABELS, FamilyRecord
from wfano.irrational import RULE_CITATIONS, decide, top_variable_degree
from wfano.membership import membership_report, rejection
from wfano.singular import singular_points_general
from wfano.symalg import sample_general_member
from wfano.wspace import WeightSystem, weight_system

from conftest import box_records, polynomial


def make_record(*sept):
    ws = weight_system(*sept)
    return FamilyRecord(
        ws=ws,
        membership=membership_report(ws),
        basket=singular_points_general(ws),
        paper_number=FAMILY_LABELS.get(ws.septuple),
    )


def test_exceptional_family_verdicts():
    v = decide(make_record(1, 7, 8, 9, 12, 36))
    assert v.values == {3}
    assert v.general_only
    tags = [t for t, _ in v.justification]
    assert "super-rigid-bir-equals-aut" in tags
    assert "aut-trivial-certificate" in tags


def test_quartic_verdict():
    v = decide(make_record(1, 1, 1, 1, 1, 4))
    assert v.values == {3} and v.general_only
    tags = [t for t, _ in v.justification]
    assert "irrational-quartic" in tags
    assert "aut-trivial-smooth-quartic" in tags


def test_normal_form_route_families():
    for sept in ((1, 1, 2, 3, 3, 9), (1, 1, 3, 4, 4, 12), (1, 2, 3, 5, 5, 15), (1, 1, 1, 2, 2, 6)):
        v = decide(make_record(*sept))
        assert v.values == {2}
        assert not v.general_only
        assert any(t == "cubic-normal-form-two-to-one" for t, _ in v.justification)


def test_generic_index_one_projection():
    v = decide(make_record(1, 1, 1, 1, 2, 5))
    assert v.values == {2}
    assert any(t == "projection-two-to-one" for t, _ in v.justification)


def test_index_two_and_higher():
    for sept in ((1, 1, 1, 1, 1, 3), (1, 1, 1, 1, 1, 2), (1, 1, 1, 2, 3, 6)):
        v = decide(make_record(*sept))
        assert v.values == {1, 2}
        assert not v.general_only


def test_decide_never_returns_rational_alone(default_catalog):
    for record in box_records(default_catalog[0], 5, 25):
        v = decide(record)
        assert v.values != {1}
        assert all(tag in RULE_CITATIONS for tag, _ in v.justification)
        if 1 not in v.values:
            assert any(t.startswith("irrational") for t, _ in v.justification)


def test_decide_rejects_non_catalog_input():
    ws = weight_system(1, 1, 1, 1, 4, 7)
    rec = FamilyRecord(
        ws=ws,
        membership=membership_report(ws),
        basket=None,  # type: ignore[arg-type]
        paper_number=None,
    )
    with pytest.raises(ValueError):
        decide(rec)


def test_decide_raises_exactly_when_no_route_fits():
    # every family with weights <= 7 and d > a5 that passes the membership
    # predicates, terminal or not, against the routes read off the full top degree
    fits = Counter()
    for a in combinations_with_replacement(range(1, 8), 5):
        for ws in (WeightSystem(a, d) for d in range(a[4] + 1, sum(a)) if rejection(a, d) is None):
            record = FamilyRecord(ws, membership_report(ws), None, None)  # type: ignore[arg-type]
            k, d = top_variable_degree(ws), ws.degree
            normal_form = d == 3 * a[4] and a[3] == a[4]
            if ws.index >= 2:
                fit = k <= 2 or normal_form
            else:
                fit = ws.septuple in EXCEPTIONAL_EIGHT or k == 2 and d < 3 * a[4] or normal_form
            fits[fit, ws.index >= 2, d == 3 * a[4]] += 1
            if fit:
                decide(record)
            else:
                with pytest.raises(RuntimeError, match=rf"degree {k}\)?$"):
                    decide(record)
    # both sides of each route, and index >= 2 at d = 3 * a5 without the normal form
    assert fits[False, True, True] and fits[False, False, False] and fits[True, True, False] and fits[True, False, False]


def test_top_variable_degree():
    assert top_variable_degree(weight_system(1, 1, 1, 1, 1, 4)) == 4
    assert top_variable_degree(weight_system(1, 1, 1, 1, 2, 5)) == 2
    assert top_variable_degree(weight_system(1, 2, 3, 3, 4, 12)) == 3


def test_rule_citation_table_is_total():
    for tag, citation in RULE_CITATIONS.items():
        assert isinstance(tag, str) and citation


def test_top_variable_degree_on_seed_zero_members(default_catalog):
    # decide reads every route from the support alone; on the seed-0 member
    # of each family, w has exactly the degree top_variable_degree gives, with
    # a nonzero coefficient, so dropping w is a projection of that degree
    records, _ = default_catalog
    index_one, higher = Counter(), Counter()
    for record in records:
        ws = record.ws
        k = top_variable_degree(ws)
        f = sample_general_member(ws, 0)
        assert max(m[4] for m in f.terms) == k, record.septuple
        assert any(c for m, c in f.terms.items() if m[4] == k), record.septuple
        verdict = decide(record)
        if ws.index == 1:
            index_one[verdict.justification[-1][0]] += 1
            continue
        higher[k] += 1
        if k == 1:
            # f = w*g + h with g and h free of w and both nonzero: the
            # projection is birational, so the member is rational; the
            # verdict stays {1, 2}
            a5 = ws.weights[4]
            g = polynomial(ws, ws.degree - a5, {(*m[:4], 0): c for m, c in f.terms.items() if m[4] == 1})
            h = polynomial(ws, ws.degree, {m: c for m, c in f.terms.items() if m[4] == 0})
            assert not g.is_zero() and not h.is_zero(), record.septuple
            assert dict(f.terms) == {**{(*m[:4], 1): c for m, c in g.terms.items()}, **h.terms}
            assert verdict.values == {1, 2}
    assert index_one == {
        "projection-two-to-one": 83,
        "cubic-normal-form-two-to-one": 4,
        "aut-trivial-certificate": 7,
        "aut-trivial-smooth-quartic": 1,
    }
    assert higher == {1: 16, 2: 18, 3: 1}


def test_index_one_below_three_a5_has_top_degree_two():
    # the lemma behind decide's index-1 route: every weight tuple up to 12 at
    # index 1 with d < 3*a5 that passes the membership predicates has w^2 *
    # x_j or w^2 and no w^3
    seen = 0
    for a in combinations_with_replacement(range(1, 13), 5):
        d = sum(a) - 1
        if a[4] < d < 3 * a[4] and rejection(a, d) is None:
            assert top_variable_degree(WeightSystem(a, d)) == 2, a
            seen += 1
    assert seen
