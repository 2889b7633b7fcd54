import json
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import gcd

import pytest

from wfano import catalog
from wfano.catalog import (
    FAMILY_LABELS,
    INDEX_RANGE,
    SearchBounds,
    _candidates,
    catalog_json,
    classify,
    load_catalog,
    render_markdown,
    save_catalog,
)
from wfano.membership import membership_report, rejection
from wfano.singular import (
    BasketPoint,
    QuotientSingularity,
    _singular_strata,
    singular_points_general,
    terminal_general,
)
from wfano.wspace import WeightSystem, count_monomials, wps_well_formed

from conftest import box_pairs, covered, covers, reid_tai_terminal


@pytest.fixture(scope="module")
def small_catalog():
    # weights <= 5, degrees <= 25 already contains the first dozen families
    return classify(SearchBounds(max_weight=5, max_degree=25))


def test_small_search_contains_known_families(small_catalog):
    septs = {r.septuple for r in small_catalog}
    assert (1, 1, 1, 1, 1, 4, 1) in septs
    assert (1, 1, 1, 2, 2, 6, 1) in septs
    assert (1, 1, 2, 3, 3, 9, 1) in septs
    assert (1, 2, 3, 3, 4, 12, 1) in septs
    assert (1, 1, 1, 1, 1, 2, 3) in septs  # quadric
    assert (1, 1, 1, 1, 1, 3, 2) in septs  # cubic
    assert (1, 2, 3, 4, 5, 6, 9) in septs  # top of the small-weight index range


def test_small_search_excludes_rejects(small_catalog):
    septs = {r.septuple for r in small_catalog}
    assert (1, 1, 1, 1, 4, 4, 3) not in septs  # linear cone
    assert (1, 1, 1, 1, 3, 4, 3) not in septs  # non-terminal vertex
    assert (1, 1, 2, 2, 2, 7, 1) not in septs  # not well formed as a hypersurface


def test_records_sorted_and_consistent(small_catalog):
    keys = [(r.ws.index, r.ws.degree, r.ws.weights) for r in small_catalog]
    assert keys == sorted(keys)
    assert len(set(r.septuple for r in small_catalog)) == len(small_catalog)
    for r in small_catalog:
        assert r.ws.index == sum(r.ws.weights) - r.ws.degree
        assert r.membership.accepted
        assert not r.basket.non_isolated


def test_paper_numbers_assigned(small_catalog):
    by_sept = {r.septuple: r for r in small_catalog}
    assert by_sept[(1, 1, 1, 1, 1, 4, 1)].paper_number == 1
    assert by_sept[(1, 1, 2, 3, 3, 9, 1)].paper_number == 9
    assert by_sept[(1, 1, 1, 1, 1, 2, 3)].paper_number == 104
    assert by_sept[(1, 1, 1, 2, 2, 6, 1)].paper_number is None


def test_catalog_round_trip(tmp_path, small_catalog):
    path = tmp_path / "catalog.json"
    save_catalog(small_catalog, str(path))
    loaded = load_catalog(str(path))
    assert [r.septuple for r in loaded] == [r.septuple for r in small_catalog]
    assert [r.paper_number for r in loaded] == [r.paper_number for r in small_catalog]
    # re-save is byte identical
    path2 = tmp_path / "catalog2.json"
    save_catalog(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_catalog_schema_version_checked(tmp_path, small_catalog):
    path = tmp_path / "catalog.json"
    payload = json.loads(catalog_json(small_catalog))
    payload["schemaVersion"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_catalog(str(path))


def test_integers_serialized_as_strings(small_catalog):
    payload = json.loads(catalog_json(small_catalog))
    sept = payload["records"][0]["septuple"]
    assert all(isinstance(v, str) for v in sept)


def test_markdown_report(small_catalog):
    md = render_markdown(small_catalog[:5])
    lines = md.strip().splitlines()
    assert lines[0].startswith("| № | a1 ")
    assert len(lines) == 7
    assert "| 1 | 1 | 1 | 1 | 1 | 1 | 4 | 1 |" in md


def test_parallel_classify_matches_serial():
    bounds = SearchBounds(max_weight=10, max_degree=24)
    assert catalog_json(classify(bounds, jobs=2)) == catalog_json(classify(bounds, jobs=1))


@pytest.mark.parametrize("cpus, workers", [(64, 5), (2, 2)])
def test_classify_pool_is_bounded(monkeypatch, small_catalog, cpus, workers):
    # the pool forks all its workers at the first submit, so --jobs 10000
    # must get no more than one per a1 task (5 here) and per CPU
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(catalog, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(catalog.os, "cpu_count", lambda: cpus)
    records = classify(SearchBounds(max_weight=5, max_degree=25), jobs=10_000)
    assert requested == [workers]
    assert catalog_json(records) == catalog_json(small_catalog)


def test_family_labels_match_weights():
    from wfano.wspace import weight_system

    for sept, number in FAMILY_LABELS.items():
        ws = weight_system(*sept)
        assert ws.index == sept[6]
        assert number >= 1


def _terminal_lemma(a, d):
    """P5 is off X, or a5 is the sum of two of the weights other than a5 and
    c = d mod a5 (the terminal lemma of the singular module docstring)."""
    c = d % a[4]
    if not c:
        return True
    rest = list(a[:4])
    rest.remove(c)
    return a[4] in {x + y for x, y in combinations(rest, 2)}


def _partner_type(a, d, i):
    """The local weights of the vertex P_i, from the first x_j with a
    monomial x_i^m * x_j of degree d, or None when there is no such x_j."""
    j = next((j for j in range(5) if j != i and d - a[j] >= a[i] and (d - a[j]) % a[i] == 0), None)
    return None if j is None else tuple(a[k] % a[i] for k in range(5) if k not in (i, j))


def _vertex_lemma(a, d, i):
    """P_i is off X, or its local weights are prime to a_i and two of them
    sum to a_i (the terminal lemma at P_i)."""
    ai = a[i]
    if ai == 1 or d % ai == 0:
        return True
    wts = _partner_type(a, d, i)
    return all(gcd(w, ai) == 1 for w in wts) and ai in {x + y for x, y in combinations(wts, 2)}


def _edge_type(a, d, i, j):
    """The weight gcd q of the edge P_iP_j and the other three weights mod
    q, or q = 1 when X meets the edge at its vertices only: q = 1, or at most
    one monomial x_i^p * x_j^s of degree d."""
    q = gcd(a[i], a[j])
    if q == 1 or sum((d - p * a[i]) % a[j] == 0 for p in range(d // a[i] + 1)) < 2:
        return 1, ()
    return q, [a[k] % q for k in range(5) if k not in (i, j)]


def _edge_lemma(a, d, i, j):
    """X meets the edge P_iP_j at its vertices only, or its type (see
    ``_edge_type``) is prime to q and two of its weights sum to q (the
    terminal lemma on the edge)."""
    q, wts = _edge_type(a, d, i, j)
    return q == 1 or all(gcd(w, q) == 1 for w in wts) and q in {x + y for x, y in combinations(wts, 2)}


def _p4p5_edge(a, d):
    """False iff a4 = a5 = n divides d and n is neither 1 nor the sum of two
    of a1, a2, a3: X meets the edge P4P5 in d/n points of type 1/n(a1, a2,
    a3), and these fail the terminal lemma (whose coprimality part is left
    to coprime threes)."""
    n = a[4]
    return a[3] != n or d % n != 0 or n in {1, a[0] + a[1], a[0] + a[2], a[1] + a[2]}


def generator_failure(a, d):
    """The first condition of the search generator that (a, d) fails, or None.

    In the generator's order: a3 <= 24 (the Kawamata bound, see
    ``test_kawamata_caps_a3``), the a5 vertex (d = k*a5 + c, and no linear
    cone), a5 <= 24 when P5 lies on X (c > 0; a point of index a5), the
    terminal lemma at P5, the terminal lemma on the edge P4P5 when a4 = a5
    divides d, the a4, a3, a2 and a1 vertices, every three weights coprime,
    the terminal lemma at every vertex and on every edge."""
    if a[2] > 24:
        return "Kawamata a3"
    if not (d > a[4] and covers(a, d, 4)):
        return "a5 vertex"
    if d % a[4] and a[4] > 24:
        return "Kawamata P5"
    if not _terminal_lemma(a, d):
        return "P5 lemma"
    if not _p4p5_edge(a, d):
        return "P4P5 edge"
    for i, name in ((3, "a4 vertex"), (2, "a3 vertex"), (1, "a2 vertex"), (0, "a1 vertex")):
        if not covers(a, d, i):
            return name
    if any(gcd(*t) > 1 for t in combinations(a, 3)):
        return "coprime threes"
    if not all(_vertex_lemma(a, d, i) for i in range(5)):
        return "terminal vertices"
    if not all(_edge_lemma(a, d, i, j) for i, j in combinations(range(5), 2)):
        return "terminal edges"
    return None


def _brute_force(bounds, index_range):
    """Reference walk over every sorted 5-tuple and every index in the box.

    Returns each pair (weights, d) with the first generator condition it
    fails (``generator_failure``), the covered pairs (see
    ``conftest.covered``), and the pairs that the public predicates accept."""
    failures, covered_pairs, kept = {}, set(), set()
    for a, d in box_pairs(bounds, index_range):
        failures[a, d] = generator_failure(a, d)
        if covered(a, d):
            covered_pairs.add((a, d))
        ws = WeightSystem(a, d)
        if membership_report(ws).accepted and terminal_general(ws):
            kept.add((a, d))
    return failures, covered_pairs, kept


def _vertex_may_be_terminal(a, d, i):
    """P_i is off X, or its type is isolated and terminal by Reid--Tai; the
    type is taken as in ``_partner_type``, so P_i must be covered."""
    ai = a[i]
    if ai == 1 or d % ai == 0:
        return True
    wts = _partner_type(a, d, i)
    return all(gcd(w, ai) == 1 for w in wts) and reid_tai_terminal(QuotientSingularity(ai, tuple(sorted(wts))))


#: the generator's last conditions, by the name generator_failure gives
#: each, and the catalog function that tests it
TERMINAL_POINTS = {"terminal vertices": "_terminal_vertices", "terminal edges": "_terminal_edges"}


def _edge_may_be_terminal(a, d, i, j):
    """X meets the edge P_iP_j at its vertices only, or its type is isolated
    and terminal by Reid--Tai; the type is taken as in ``_edge_type``."""
    q, wts = _edge_type(a, d, i, j)
    return q == 1 or all(gcd(w, q) == 1 for w in wts) and reid_tai_terminal(QuotientSingularity(q, tuple(sorted(wts))))


def _without(monkeypatch, bounds, *conditions):
    """The generator's pairs with the named conditions of TERMINAL_POINTS
    switched off."""
    for name in conditions:
        monkeypatch.setattr(catalog, TERMINAL_POINTS[name], lambda a, d: True)
    pairs = list(_candidates(1, bounds.max_weight + 1, bounds))
    monkeypatch.undo()
    return pairs


@pytest.mark.parametrize(
    "bounds, index_range, count",
    [
        (SearchBounds(max_weight=7, max_degree=21), INDEX_RANGE, 66),
        (SearchBounds(max_weight=10, max_degree=26), (2, 4), 14),
        (SearchBounds(max_weight=13, max_degree=30), (1, 6), 91),
        # max_degree > 5 * max_weight: the divisor table is cut at 5 * max_weight
        (SearchBounds(max_weight=6, max_degree=40), INDEX_RANGE, 47),
    ],
    ids=["default-index-range", "index-2-to-4", "index-1-to-6", "degree-past-five-weights"],
)
def test_constraint_search_matches_brute_force(monkeypatch, bounds, index_range, count):
    # the search always walks INDEX_RANGE; a box with a narrower index window
    # compares the generator's pairs of those indices
    def in_window(a, d):
        return index_range[0] <= sum(a) - d <= index_range[1]

    candidates = [p for p in _candidates(1, bounds.max_weight + 1, bounds) if in_window(*p)]
    failures, covered_pairs, kept = _brute_force(bounds, index_range)
    # each candidate once, and exactly the pairs that fail no generator condition
    assert len(candidates) == len(set(candidates)) == count
    assert set(candidates) == {p for p, f in failures.items() if f is None}
    # without its last condition, or its last two, exactly the pairs that
    # fail no other one
    for off in (("terminal edges",), tuple(TERMINAL_POINTS)):
        earlier = [p for p in _without(monkeypatch, bounds, *off) if in_window(*p)]
        assert set(earlier) == {p for p, f in failures.items() if f is None or f in off}
    # past the vertices, coprime threes is the rule that X is well-formed and
    # three weights with a common factor carry exactly one degree-d monomial
    for (a, d), f in failures.items():
        if f is None or f == "coprime threes" or f in TERMINAL_POINTS:
            one = all(count_monomials(t, d) == 1 for t in combinations(a, 3) if gcd(*t) > 1)
            assert (f != "coprime threes") == (wps_well_formed(WeightSystem(a, d)) and one), (a, d)
    # the terminal lemma drops no covered pair whose P_i or P_iP_j Reid--Tai
    # may accept, at any vertex or edge, so the later predicates see every
    # pair that can be accepted
    for a, d in covered_pairs:
        for i in range(5):
            if covers(a, d, i) and _vertex_may_be_terminal(a, d, i):
                assert _vertex_lemma(a, d, i), (a, d, i)
                assert i < 4 or _terminal_lemma(a, d), (a, d)
        for i, j in combinations(range(5), 2):
            if _edge_may_be_terminal(a, d, i, j):
                assert _edge_lemma(a, d, i, j), (a, d, i, j)
                assert (i, j) != (3, 4) or _p4p5_edge(a, d), (a, d)
    found = {(r.ws.weights, r.ws.degree) for r in classify(bounds) if in_window(r.ws.weights, r.ws.degree)}
    assert found == kept
    # the short-circuit terminality agrees with the full basket wherever the
    # chain reaches it, quasismooth or not
    reached = 0
    for a, d in covered_pairs:
        reason = rejection(a, d)
        if reason not in (None, "quasismoothness"):
            continue
        ws = WeightSystem(a, d)
        entries = list(_singular_strata(ws))
        points = [e for e in entries if isinstance(e, BasketPoint)]
        full = len(points) == len(entries) and all(reid_tai_terminal(p.singularity) for p in points)
        assert terminal_general(ws) == full, ws
        if reason is None:
            basket = singular_points_general(ws)
            assert full == (
                not basket.non_isolated
                and all(reid_tai_terminal(p.singularity) for p in basket.points)
            )
        reached += 1
    assert reached > len(earlier)


def test_generator_funnel_at_default_bounds(default_catalog):
    # the generator tests the chain's first five stages itself: every
    # candidate reaches terminality (a terminality test that rejects
    # everything stops the chain there), and the candidates are the records
    bounds = SearchBounds()
    candidates = list(_candidates(1, bounds.max_weight + 1, bounds))
    assert len(set(candidates)) == len(candidates) == 130
    reasons = {rejection(a, d, lambda ws: False) for a, d in candidates}
    assert reasons == {"terminality"}
    records, _ = default_catalog
    assert set(candidates) == {(r.ws.weights, r.ws.degree) for r in records}


def test_p5_on_x_takes_two_shapes(monkeypatch):
    # with P5 on X and its lemma met, d = k*a5 + c with c > 0 has index at
    # most (3-k)*a5 (``_top_pairs``), so the generator visits only k <= 2
    # there, even with an index window reaching below 1
    monkeypatch.setattr(catalog, "INDEX_RANGE", (-40, 15))
    bounds = SearchBounds(max_weight=10, max_degree=40)
    shapes = {(d // a[4], d % a[4] > 0) for a, d in _candidates(1, bounds.max_weight + 1, bounds)}
    assert shapes == {(2, False), (3, False), (4, False), (1, True), (2, True)}


def test_terminal_edges_against_the_edge_lemma():
    # on every weight tuple and degree of a small box, covered or not: an
    # edge that X meets at its vertices only, by one monomial (1,1,1,3,6 at
    # d = 3) or none, is never tested
    pairs = [(a, d) for a in combinations_with_replacement(range(1, 7), 5) for d in range(2, 31)]
    for a, d in pairs:
        lemma = all(_edge_lemma(a, d, i, j) for i, j in combinations(range(5), 2))
        assert catalog._terminal_edges(a, d) == lemma, (a, d)
    assert catalog._terminal_edges((1, 1, 1, 3, 6), 3) and not catalog._terminal_edges((1, 1, 1, 3, 6), 6)


def test_vertex_condition_drops_only_terminality_rejects(monkeypatch, default_catalog):
    # the terminal lemma at every vertex and on every edge drops 1,943 of the
    # 2,073 pairs that the other conditions allow (1,877 at a vertex, 66 more
    # on an edge), the Kawamata caps drop 348 more of the 2,421 pairs allowed
    # without them, and the chain rejects each at terminality
    bounds = SearchBounds()
    earlier = _without(monkeypatch, bounds, *TERMINAL_POINTS)
    dropped = set(earlier) - set(_candidates(1, bounds.max_weight + 1, bounds))
    assert (len(earlier), len(dropped)) == (2_073, 1_943)
    reasons = Counter(generator_failure(a, d) for a, d in dropped)
    assert reasons == {"terminal vertices": 1_877, "terminal edges": 66}
    monkeypatch.setattr(catalog, "MAX_POINT_INDEX", bounds.max_weight)
    capped = set(_without(monkeypatch, bounds, *TERMINAL_POINTS)) - set(earlier)
    assert len(capped) == 348
    reasons = Counter(generator_failure(a, d) for a, d in capped)
    assert reasons == {"Kawamata P5": 195, "Kawamata a3": 153}
    for a, d in dropped | capped:
        assert rejection(a, d, terminal_general) == "terminality", (a, d)
    # and every record of the catalog passes every generator condition
    records, _ = default_catalog
    assert all(generator_failure(r.ws.weights, r.ws.degree) is None for r in records)


def test_kawamata_caps_the_point_index():
    # a terminal point of index r adds r - 1/r to a basket whose sum stays
    # below 24, so one point of index 25 breaks it
    assert catalog.MAX_POINT_INDEX == max(r for r in range(1, 100) if r - Fraction(1, r) < 24) == 24


def test_kawamata_caps_a3():
    # step 5 of the module docstring's proof: with a3, a4, a5 >= 25 dividing
    # d = k*a5, a4 = m*g and a3 = n*h with 2 <= m, n dividing k, and g*h | a5,
    # the index a1 + a2 + a3 + a4 - (k-1)*a5 >= 1 with a1 + a2 <= 2*a3 would
    # need 3*n*h + m*g > (k-1)*g*h, which no g, h <= 200 meet
    for k in (2, 3, 4):
        factors = [m for m in range(2, k + 1) if k % m == 0]
        for m, n in product(factors, repeat=2):
            for g, h in product(range(-(-25 // m), 201), range(-(-25 // n), 201)):
                assert 3 * n * h + m * g <= (k - 1) * g * h, (k, m, n, g, h)


def test_kawamata_caps_the_generator(monkeypatch):
    # at the CLI cap no triple past a3 = 24 is visited, and no pair with P5
    # on X (c > 0) has a5 > 24
    triples, top_pairs = set(), catalog._top_pairs

    def spying(a1, a2, a3, bounds, divisors):
        triples.add((a1, a2, a3))
        for a4, a5, d in top_pairs(a1, a2, a3, bounds, divisors):
            assert d % a5 == 0 or a5 <= 24, (a1, a2, a3, a4, a5, d)
            yield a4, a5, d

    monkeypatch.setattr(catalog, "_top_pairs", spying)
    bounds = SearchBounds(max_weight=200, max_degree=1000)
    assert len(list(_candidates(1, bounds.max_weight + 1, bounds))) == 130
    assert max(a3 for _, _, a3 in triples) == 24


def test_degree_bound_past_five_weights_changes_nothing():
    # d < 5 * a5 <= 50 for weights up to 10, so a degree bound of 10^6 finds
    # the (10, 50) catalog, with a divisor table of 5 * max_weight entries
    wide = classify(SearchBounds(max_weight=10, max_degree=10**6))
    assert catalog_json(wide) == catalog_json(classify(SearchBounds(max_weight=10, max_degree=50)))


def test_larger_box_finds_the_default_catalog(monkeypatch, default_catalog):
    # at the CLI cap (200, 1000) the generator yields exactly the records,
    # once each, and they are the default catalog's
    yielded, generate = [], catalog._candidates

    def recording(lo, hi, bounds):
        for pair in generate(lo, hi, bounds):
            yielded.append(pair)
            yield pair

    monkeypatch.setattr(catalog, "_candidates", recording)
    records = classify(SearchBounds(max_weight=200, max_degree=1000))
    assert catalog_json(records) == catalog_json(default_catalog[0])
    assert sorted(yielded) == sorted((r.ws.weights, r.ws.degree) for r in records)


def test_load_catalog_rejects_non_member(tmp_path, small_catalog):
    payload = json.loads(catalog_json(small_catalog))
    # (1,1,1,1,3) with d = 4 passes membership but its 1/3(1,1,1) point is not terminal
    payload["records"][0]["septuple"] = ["1", "1", "1", "1", "3", "4", "3"]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="terminality"):
        load_catalog(str(path))
