import random
import re
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import (
    count_hypersurface_well_formed,
    count_quasismooth_general,
    count_top_variable_degree,
    counted_representable,
    covers,
)
from wfano.irrational import top_variable_degree
from wfano.membership import (
    hypersurface_well_formed,
    is_linear_cone,
    membership_report,
    quasismooth_general,
    rejection,
    representable,
)
from wfano.singular import terminal_general
from wfano.wspace import WeightSystem, enumerate_monomials, weight_system, wps_well_formed


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


def reference_stages(a, d):
    """The documented chain, each predicate called on its own in naming order:
    the stage ``rejection`` names without and with ``terminal_general``."""
    if sum(a) <= d:
        return "Fano index", "Fano index"
    if d in a:
        return "linear cone", "linear cone"
    if not all(covers(a, d, i) for i in range(5)):
        return "vertex coverage", "vertex coverage"
    ws = WeightSystem(a, d)
    if not wps_well_formed(ws):
        return "well-formedness", "well-formedness"
    if not hypersurface_well_formed(ws):
        return "hypersurface well-formedness", "hypersurface well-formedness"
    last = None if quasismooth_general(ws)[0] else "quasismoothness"
    return last, (last if terminal_general(ws) else "terminality")


def test_rejection_names_the_documented_stage():
    # every sorted weight 5-tuple with weights <= 8 and every d from 1 to a1 + ... + a5
    for a in combinations_with_replacement(range(1, 9), 5):
        for d in range(1, sum(a) + 1):
            assert (rejection(a, d), rejection(a, d, terminal_general)) == reference_stages(a, d), (a, d)


def test_well_formed_quasismooth_implies_hypersurface_well_formed():
    # a 3-variable stratum has only 2 outside variables, so quasismoothness
    # passes it only through a pure degree-d monomial, which is what
    # hypersurface well-formedness asks of each triple sharing a factor; over
    # weights <= 10 and a5 < d <= a1 + ... + a5 (d <= a5 at weights <= 8 above)
    for a in combinations_with_replacement(range(1, 11), 5):
        if wps_well_formed(WeightSystem(a, 1)):
            for ws in (WeightSystem(a, d) for d in range(a[4] + 1, sum(a) + 1)):
                assert hypersurface_well_formed(ws) or not quasismooth_general(ws)[0], ws


def test_membership_report_flags_are_the_predicates():
    # every sorted weight 5-tuple with weights <= 6 and every d from 1 to a1 + ... + a5
    for a in combinations_with_replacement(range(1, 7), 5):
        for ws in (WeightSystem(a, d) for d in range(1, sum(a) + 1)):
            report = membership_report(ws)
            qs = not report.linear_cone and quasismooth_general(ws)[0]
            assert (report.wps_well_formed, report.hypersurface_well_formed, report.quasismooth_general) == (
                wps_well_formed(ws), hypersurface_well_formed(ws), qs), ws


def assert_table_predicates_match_count_oracles(pairs, representable=representable):
    """The table-based predicates equal their count-based oracles
    (``conftest``), failing strata and reason texts included."""
    for a, d in pairs:
        ws = WeightSystem(a, d)
        assert hypersurface_well_formed(ws) == count_hypersurface_well_formed(ws, representable), ws
        assert top_variable_degree(ws) == count_top_variable_degree(ws, representable), ws
        if d not in a:
            assert quasismooth_general(ws) == count_quasismooth_general(ws, representable), ws


def test_table_predicates_on_a_box():
    # every 0 < d < a1 + ... + a5 with weights <= 6, d < a5 included, where
    # the witness degrees d - a_j go negative
    assert_table_predicates_match_count_oracles(
        (a, d) for a in combinations_with_replacement(range(1, 7), 5) for d in range(1, sum(a))
    )


def test_counted_representable_answers_as_count_monomials():
    # every subset of each weight tuple with weights <= 5, every target up to
    # the index-1 degree, and the negative witness targets
    for a in combinations_with_replacement(range(1, 6), 5):
        top = sum(a) - 1
        counted = counted_representable(a, top)
        for r in range(1, 6):
            for wts in combinations(a, r):
                assert all(counted(wts, t) == representable(wts, t) for t in range(-5, top + 1)), (a, wts)


@pytest.mark.parametrize("septuple", [
    (1, 1, 1, 1, 100000000, 100000001),
    (2, 3, 5, 3000000, 5000000, 8000000),
    (1, 1, 1, 1, 10000000, 10000001),
])
def test_table_predicates_refuse_as_count_oracles(septuple):
    # a degree too large for count_monomials is refused with the text of the
    # oracle's first question, whose size the text names through its bits;
    # in the last septuple only w misses d, yet the refusal names size 2
    ws = weight_system(*septuple)
    for table_based, oracle in (
        (quasismooth_general, count_quasismooth_general),
        (hypersurface_well_formed, count_hypersurface_well_formed),
        (top_variable_degree, count_top_variable_degree),
    ):
        try:
            expected = oracle(ws)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                table_based(ws)
        else:
            assert table_based(ws) == expected


@pytest.mark.slow
def test_table_predicates_on_a_large_box():
    # the 405,786 pairs with a_i <= (8, 11, 13, 15, 17) and a5 < d < a1 + ... + a5
    bounds = (8, 11, 13, 15, 17)
    weights = [a for a in combinations_with_replacement(range(1, 18), 5) if all(map(int.__le__, a, bounds))]
    assert sum(sum(a) - a[4] - 1 for a in weights) == 405_786
    for a in weights:
        # every question on these pairs has a target below sum(a)
        pairs = ((a, d) for d in range(a[4] + 1, sum(a)))
        assert_table_predicates_match_count_oracles(pairs, counted_representable(a, sum(a) - 1))
