import random
from itertools import combinations, combinations_with_replacement
from math import gcd

import numpy as np
import pytest

from wfano.catalog import SearchBounds
from wfano.membership import rejection
from wfano.singular import (
    QuotientSingularity,
    singular_points_general,
    terminal_general,
    terminal_type,
)
from wfano.wspace import count_monomials, weight_system

from conftest import box_pairs, covered, reid_tai_terminal


def test_reid_tai_examples():
    assert reid_tai_terminal(QuotientSingularity(2, (1, 1, 1)))
    assert not reid_tai_terminal(QuotientSingularity(3, (1, 1, 1)))  # age exactly 1 at k=1
    assert reid_tai_terminal(QuotientSingularity(3, (1, 1, 2)))  # sums 4/3 and 5/3


def test_quotient_singularity_validation():
    with pytest.raises(ValueError):
        QuotientSingularity(4, (1, 2, 3))  # gcd(2,4) > 1: not an isolated type
    with pytest.raises(ValueError):
        QuotientSingularity(3, (0, 1, 2))


def test_classical_terminal_series():
    # 1/r(1, a, r-a) is terminal for every coprime a
    for r in range(2, 61):
        for a in range(1, r):
            if gcd(a, r) == 1:
                assert reid_tai_terminal(QuotientSingularity(r, (1, a, r - a)))


def test_terminal_lemma():
    # Morrison-Stevens: an isolated 1/r(w1, w2, w3) is terminal iff two of
    # the weights sum to r; terminal_type, the program's one terminality
    # rule, agrees with the Reid-Tai oracle on every isolated type
    # (conftest.reid_tai_terminal on one numpy array per r: row k - 1 holds
    # sum((k * w_i) mod r) of every type)
    checked = 0
    for r in range(2, 61):
        units = [w for w in range(1, r) if gcd(w, r) == 1]
        types = list(combinations_with_replacement(units, 3))
        w, k = np.array(types, dtype=np.int32).T, np.arange(1, r, dtype=np.int32)[:, None]
        reid_tai = (k * w[0] % r + k * w[1] % r + k * w[2] % r > r).all(axis=0)
        if r <= 20:
            assert reid_tai.tolist() == [reid_tai_terminal(QuotientSingularity(r, wts)) for wts in types]
        lemma = np.array([terminal_type(r, wts) for wts in types])
        assert (lemma == reid_tai).all(), (r, types[int(np.argmax(lemma != reid_tai))])
        checked += len(types)
    assert checked == 197_909
    # a residue that shares a factor with r, 0 included, is refused
    assert not terminal_type(4, (1, 3, 0)) and not terminal_type(4, (2, 1, 3)) and not terminal_type(6, (1, 5, 3))


def test_reid_tai_generator_change_invariance():
    rng = random.Random(43)
    cases = 0
    while cases < 1000:
        r = rng.randint(2, 40)
        wts = tuple(rng.randint(1, r - 1) for _ in range(3))
        if any(gcd(w, r) != 1 for w in wts):
            continue
        q = QuotientSingularity(r, wts)
        base = reid_tai_terminal(q)
        perm = QuotientSingularity(r, (wts[2], wts[0], wts[1]))
        assert reid_tai_terminal(perm) == base
        c = rng.randint(1, r - 1)
        if gcd(c, r) == 1:
            scaled = QuotientSingularity(r, tuple((c * w) % r for w in wts))
            assert reid_tai_terminal(scaled) == base
        cases += 1


def test_basket_family_9():
    # three 1/3(1,1,2) points on the (t,w) edge, plus one half-point at the z vertex
    ws = weight_system(1, 1, 2, 3, 3, 9)
    basket = singular_points_general(ws)
    assert sorted(basket.to_strings()) == ["1 x 1/2(1,1,1)", "3 x 1/3(1,1,2)"]
    edge = next(p for p in basket.points if "edge" in p.location)
    assert edge.count == 3 and edge.singularity == QuotientSingularity(3, (1, 1, 2))
    assert not basket.non_isolated
    assert terminal_general(ws)


def test_basket_family_19():
    ws = weight_system(1, 2, 3, 3, 4, 12)
    basket = singular_points_general(ws)
    assert sorted(basket.to_strings()) == ["3 x 1/2(1,1,1)", "4 x 1/3(1,1,2)"]
    assert all(reid_tai_terminal(p.singularity) for p in basket.points)
    assert terminal_general(ws)


def test_smooth_quartic_has_empty_basket():
    basket = singular_points_general(weight_system(1, 1, 1, 1, 1, 4))
    assert not basket.points and not basket.non_isolated


def test_non_terminal_example():
    # (1,1,1,1,3) with d=4 passes membership but its 1/3(1,1,1) vertex fails Reid-Tai
    ws = weight_system(1, 1, 1, 1, 3, 4)
    from wfano.membership import membership_report

    assert membership_report(ws).accepted
    assert not terminal_general(ws)


def test_contained_edge_is_non_isolated():
    # (1,1,1,2,2) with d=5: no monomials on the (t,w) edge, so X contains it
    ws = weight_system(1, 1, 1, 2, 2, 5)
    from wfano.membership import membership_report

    assert membership_report(ws).accepted
    basket = singular_points_general(ws)
    assert basket.non_isolated
    assert not terminal_general(ws)


def test_rejects_non_quasismooth_input():
    with pytest.raises(ValueError):
        singular_points_general(weight_system(1, 1, 1, 1, 4, 7))


def test_uncovered_vertex_has_no_type():
    # (1,1,1,1,4) with d = 7: no other weight is 7 = 3 mod 4, so no monomial
    # w^m * x_j has degree 7 and the w vertex has no local type
    with pytest.raises(ValueError, match="vertex w is not covered"):
        terminal_general(weight_system(1, 1, 1, 1, 4, 7))


def test_catalog_baskets_all_classical_form(default_catalog):
    # every basket point of the catalog is 1/r(1,a,r-a) up to generator
    # change: two local weights sum to 0 mod r, which no change of generator
    # alters (1/7(1,2,4), say, has no such pair)
    records, _ = default_catalog
    points = [p.singularity for r in records for p in r.basket.points]
    assert len(points) == 316
    for q in points:
        r, (w1, w2, w3) = q.order, q.local_weights
        assert (w1 + w2) % r == 0 or (w1 + w3) % r == 0 or (w2 + w3) % r == 0, str(q)
        assert reid_tai_terminal(q)


def partner_types(a, d):
    """Per vertex P_i on X (a_i >= 2 not dividing d), the set over every
    partner j (a monomial x_i^m * x_j of degree d) of the sorted residues
    mod a_i of the three weights other than a_i and a_j."""
    return {
        i: {
            tuple(sorted(a[k] % a[i] for k in range(5) if k not in (i, j)))
            for j in range(5)
            if j != i and d - a[j] >= a[i] and (d - a[j]) % a[i] == 0
        }
        for i in range(5)
        if a[i] > 1 and d % a[i]
    }


def test_every_vertex_partner_gives_one_type(default_catalog):
    # the basket takes each vertex type from one partner j; every partner has
    # a_j = d (mod a_i), so all of them must give the same residues
    records, _ = default_catalog
    for record in records:
        a, d = record.ws.weights, record.ws.degree
        types = partner_types(a, d)
        assert all(len(t) == 1 for t in types.values()), record.septuple
        vertices = {p.location: p.singularity.local_weights for p in record.basket.points}
        expected = {f"vertex {'xyztw'[i]}": t.pop() for i, t in types.items()}
        assert {k: v for k, v in vertices.items() if k.startswith("vertex")} == expected, record.septuple
    checked = 0
    for a, d in box_pairs(SearchBounds(max_weight=13, max_degree=30), (1, 6)):
        if covered(a, d):
            # a covered pair's a1 and a2 vertices may have no partner at all
            assert all(len(t) <= 1 for t in partner_types(a, d).values()), (a, d)
            checked += 1
    assert checked > 1000


def test_gcd_strata_have_two_monomials_past_well_formedness():
    # the lemma _singular_strata relies on (catalog's docstring): once every
    # vertex is covered and X is well-formed, three weights with a common
    # factor carry at least two monomials of degree d
    pairs = strata = 0
    for a, d in box_pairs(SearchBounds(max_weight=12, max_degree=60), (1, 60)):
        if rejection(a, d) not in (None, "quasismoothness"):
            continue
        pairs += 1
        for wts in combinations(a, 3):
            if gcd(*wts) > 1:
                strata += 1
                assert count_monomials(wts, d) >= 2, (a, d, wts)
    assert (pairs, strata) == (4602, 2063)
