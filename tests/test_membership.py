import random
from itertools import combinations

import pytest

from wfano.membership import (
    hypersurface_well_formed,
    is_linear_cone,
    membership_report,
    quasismooth_general,
    rejection,
)
from wfano.wspace import enumerate_monomials, weight_system


def brute_quasismooth(ws):
    """Oracle: check the subset criterion directly on enumerated monomials."""
    mons = enumerate_monomials(ws, ws.degree)
    for r in range(1, 6):
        for subset in combinations(range(5), r):
            inside = [m for m in mons if all(m[i] == 0 for i in range(5) if i not in subset)]
            if inside:
                continue
            outside_hits = set()
            for m in mons:
                out = [i for i in range(5) if i not in subset and m[i] > 0]
                if len(out) == 1 and m[out[0]] == 1:
                    outside_hits.add(out[0])
            if len(outside_hits) < r:
                return False
    return True


def test_linear_cone():
    assert is_linear_cone(weight_system(1, 1, 1, 1, 4, 4))
    assert not is_linear_cone(weight_system(1, 1, 1, 1, 1, 4))
    assert not is_linear_cone(weight_system(1, 2, 3, 3, 4, 12))


def test_quasismooth_examples():
    assert quasismooth_general(weight_system(1, 1, 1, 1, 1, 4))[0]
    assert quasismooth_general(weight_system(1, 1, 2, 3, 3, 9))[0]
    # smallest lexicographic index-1 failure with weights <= 6: the top vertex
    # of (1,1,1,1,4), d=7 admits no monomial w^m * x_j
    ok, failing = quasismooth_general(weight_system(1, 1, 1, 1, 4, 7))
    assert not ok
    assert any(s == (4,) for s, _ in failing)


def test_quasismooth_rejects_cones():
    with pytest.raises(ValueError):
        quasismooth_general(weight_system(1, 1, 1, 1, 4, 4))


def test_quasismooth_against_brute_oracle():
    rng = random.Random(31)
    checked = 0
    for _ in range(400):
        weights = tuple(sorted(rng.randint(1, 6) for _ in range(5)))
        d = sum(weights) - rng.randint(1, 3)
        if d < 2 or d in weights:
            continue
        ws = weight_system(*weights, d)
        assert quasismooth_general(ws)[0] == brute_quasismooth(ws)
        checked += 1
    assert checked > 200


def test_quasismooth_invariant_under_weight_permutation():
    # permuting equal weights never changes the verdict; for sorted input the
    # check is that re-sorting any multiset gives a well-defined answer
    rng = random.Random(37)
    for _ in range(100):
        weights = sorted(rng.randint(1, 5) for _ in range(5))
        d = sum(weights) - 1
        if d in weights:
            continue
        ws = weight_system(*weights, d)
        verdict = quasismooth_general(ws)[0]
        assert verdict == brute_quasismooth(ws)


def test_condition_a_monotone_under_supersets():
    from wfano.membership import representable

    rng = random.Random(41)
    for _ in range(300):
        weights = tuple(sorted(rng.randint(1, 6) for _ in range(5)))
        d = rng.randint(2, 30)
        for r in range(1, 5):
            for subset in combinations(range(5), r):
                wts = tuple(sorted(weights[i] for i in subset))
                if representable(wts, d):
                    for sup in combinations(range(5), min(r + 1, 5)):
                        if set(subset) <= set(sup):
                            sup_w = tuple(sorted(weights[i] for i in sup))
                            assert representable(sup_w, d)


def test_hypersurface_well_formed():
    assert hypersurface_well_formed(weight_system(1, 1, 1, 1, 1, 4))
    assert hypersurface_well_formed(weight_system(1, 7, 8, 9, 12, 36))
    # (1,1,2,2,2) with d=7: the (2,2,2) stratum has gcd 2 and no degree-7
    # monomial, so the general member contains it
    assert not hypersurface_well_formed(weight_system(1, 1, 2, 2, 2, 7))


def test_membership_report_accepted_families():
    for sept in ((1, 1, 1, 1, 1, 4), (1, 2, 3, 3, 4, 12), (1, 1, 2, 3, 3, 9)):
        rep = membership_report(weight_system(*sept))
        assert rep.accepted
        assert not rep.failing_strata
        d = rep.to_dict()
        assert d["quasismoothGeneral"] and not d["linearCone"]


def test_membership_report_failing_strata_nonempty_on_failure():
    rep = membership_report(weight_system(1, 1, 1, 1, 4, 7))
    assert not rep.quasismooth_general
    assert rep.failing_strata


def test_rejection_fano_index_is_the_first_stage():
    assert rejection((1, 1, 1, 1, 1), 9) == "Fano index"
    assert rejection((1, 1, 1, 1, 1), 5) == "Fano index"
    # index -2, and the w vertex is not covered either
    assert rejection((1, 1, 1, 1, 4), 10) == "Fano index"
    assert rejection((1, 1, 1, 1, 4), 7) == "vertex coverage"
    assert rejection((1, 1, 1, 1, 4), 4) == "linear cone"
    assert rejection((1, 1, 1, 1, 1), 4) is None
    # the predicates themselves accept the index -4 quintic's weights
    assert membership_report(weight_system(1, 1, 1, 1, 1, 9)).accepted
