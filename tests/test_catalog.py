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
    QuotientSingularity,
    singular_locus,
    singular_points_general,
    terminal_general,
)
from wfano.wspace import WeightSystem, count_monomials, wps_well_formed

from conftest import box_pairs, box_records, covered, covered_box_pairs, covers, reid_tai_terminal


@pytest.fixture(scope="module")
def small_catalog(default_catalog):
    # weights <= 5, degrees <= 25 already contains the first dozen families
    return box_records(default_catalog[0], 5, 25)


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


def _sums_to(r, residues):
    """Two of the residues mod r sum to r: the sum part of the terminal lemma
    for a point of index r (a residue 0 never takes part)."""
    return r in {x % r + y % r for x, y in combinations(residues, 2)}


def _p4_lemma(a, d):
    """P5 is on X, or the sum part of the terminal lemma holds where the P4
    lemma reads it: at P4 when P4 lies on X (a point of index a4, with the
    type of ``_partner_type``, so P4 must be covered); else on the edge P4P5,
    which X meets off its vertices in points of type 1/g(a1, a2, a3), g =
    gcd(a4, a5) (``test_p4p5_edge_meets_x``)."""
    a4, a5 = a[3], a[4]
    if d % a5:
        return True
    if d % a4:
        return _sums_to(a4, _partner_type(a, d, 3))
    g = gcd(a4, a5)
    return g == 1 or _sums_to(g, a[:3])


#: the search generator's conditions in its order, each a name and a test
#: that (a, d) passes it; a test may assume the ones before it hold, except
#: those of BOUNDS
CONDITIONS = (
    ("Kawamata a3", lambda a, d: a[2] <= 24),  # see test_kawamata_caps_a3
    ("Suzuki index", lambda a, d: sum(a) - d <= 19),
    # d = k*a5 + c, and no linear cone
    ("a5 vertex", lambda a, d: d > a[4] and covers(a, d, 4)),
    # P5 on X (c > 0) is a point of index a5
    ("Kawamata P5", lambda a, d: d % a[4] == 0 or a[4] <= 24),
    ("P5 lemma", _terminal_lemma),
    ("a4 vertex", lambda a, d: covers(a, d, 3)),
    # P5 off X: P4 on X is a point of index a4, and P4 off X gives points
    # of index gcd(a4, a5) on P4P5
    ("Kawamata P4", lambda a, d: d % a[4] or d % a[3] == 0 or a[3] <= 24),
    ("Kawamata P4P5", lambda a, d: d % a[4] or d % a[3] or gcd(a[3], a[4]) <= 24),
    ("P4 lemma", _p4_lemma),
    ("a3 vertex", lambda a, d: covers(a, d, 2)),
    ("a2 vertex", lambda a, d: covers(a, d, 1)),
    ("a1 vertex", lambda a, d: covers(a, d, 0)),
    ("coprime threes", lambda a, d: all(gcd(*t) == 1 for t in combinations(a, 3))),
    ("terminal vertices", lambda a, d: all(_vertex_lemma(a, d, i) for i in range(5))),
    ("terminal edges", lambda a, d: all(_edge_lemma(a, d, i, j) for i, j in combinations(range(5), 2))),
)

#: the conditions that only the terminal lemma, the Kawamata bound or
#: Suzuki's index bound give, before the vertices
BOUNDS = ("Kawamata a3", "Suzuki index", "Kawamata P5", "P5 lemma", "Kawamata P4", "Kawamata P4P5", "P4 lemma")


def generator_failure(a, d, skipping=()):
    """The first condition of CONDITIONS, other than those named in
    skipping, that (a, d) fails, or None."""
    return next((name for name, passes in CONDITIONS if name not in skipping and not passes(a, d)), None)


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


@pytest.fixture(scope="module")
def generated():
    """The generator's pairs, with no box, keyed by the conditions of
    TERMINAL_POINTS switched off: none, the last, or both."""
    pairs = {}
    for off in ((), ("terminal edges",), tuple(TERMINAL_POINTS)):
        with pytest.MonkeyPatch.context() as mp:
            for name in off:
                mp.setattr(catalog, TERMINAL_POINTS[name], lambda a, d: True)
            pairs[off] = list(_candidates(1, catalog.MAX_POINT_INDEX + 1))
    return pairs


def _in_box(pairs, bounds, index_range):
    """The pairs with a5 and d in bounds and index in the window."""
    imin, imax = index_range
    return [(a, d) for a, d in pairs if a[4] <= bounds.max_weight and d <= bounds.max_degree and imin <= sum(a) - d <= imax]


@pytest.mark.parametrize(
    "bounds, index_range, count",
    [
        (SearchBounds(max_weight=7, max_degree=21), INDEX_RANGE, 66),
        (SearchBounds(max_weight=10, max_degree=26), (2, 4), 14),
        (SearchBounds(max_weight=13, max_degree=30), (1, 6), 91),
        # no d past 5 * a5, and indices past Suzuki's 19
        (SearchBounds(max_weight=6, max_degree=40), (1, 30), 47),
    ],
    ids=["default-index-range", "index-2-to-4", "index-1-to-6", "degree-past-five-weights"],
)
def test_constraint_search_matches_brute_force(generated, bounds, index_range, count):
    # the generator walks no box; within each box and index window its
    # pairs are those of the brute-force walk
    candidates = _in_box(generated[()], bounds, index_range)
    failures, covered_pairs, kept = _brute_force(bounds, index_range)
    # each candidate once, and exactly the pairs that fail no generator condition
    assert len(candidates) == len(set(candidates)) == count
    assert set(candidates) == {p for p, f in failures.items() if f is None}
    # without its last condition, or its last two, exactly the pairs that
    # fail no other one
    for off in (("terminal edges",), tuple(TERMINAL_POINTS)):
        earlier = _in_box(generated[off], bounds, index_range)
        assert set(earlier) == {p for p, f in failures.items() if f is None or f in off}
    # the chain rejects every pair that a bound drops
    for (a, d), f in failures.items():
        if f in BOUNDS:
            assert rejection(a, d, terminal_general) is not None, (a, d, f)
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
        # with P5 off X, the P4 lemma reads P4 when it lies on X, else P4P5
        if d % a[4] == 0 and (_vertex_may_be_terminal(a, d, 3) if d % a[3] else _edge_may_be_terminal(a, d, 3, 4)):
            assert _p4_lemma(a, d), (a, d)
    found = set(_in_box([(r.ws.weights, r.ws.degree) for r in classify(bounds)], bounds, index_range))
    assert found == kept
    # the terminality stage agrees with Reid--Tai on the basket wherever the
    # chain reaches it, quasismooth or not, and the basket is the one
    # singular_points_general returns
    reached = 0
    for a, d in covered_pairs:
        reason = rejection(a, d)
        if reason not in (None, "quasismoothness"):
            continue
        ws = WeightSystem(a, d)
        basket = singular_locus(ws)
        full = not basket.non_isolated and all(reid_tai_terminal(p.singularity) for p in basket.points)
        assert terminal_general(ws) == full, ws
        if reason is None:
            assert singular_points_general(ws) == basket
        reached += 1
    assert reached > len(earlier)


def test_generator_funnel_at_default_bounds(generated, default_catalog):
    # the generator tests the chain's first five stages itself: every
    # candidate reaches terminality (a terminality test that rejects
    # everything stops the chain there), and the candidates are the records
    candidates = generated[()]
    assert len(set(candidates)) == len(candidates) == 130
    reasons = {rejection(a, d, lambda ws: False) for a, d in candidates}
    assert reasons == {"terminality"}
    records, _ = default_catalog
    assert set(candidates) == {(r.ws.weights, r.ws.degree) for r in records}


def test_p5_on_x_takes_two_shapes(generated):
    # with P5 on X and its lemma met, d = k*a5 + c with c > 0 has index at
    # most (3-k)*a5 (``_top_pairs``), here on a box walked down to index -40;
    # so the generator visits only k <= 2 there
    for a, d in box_pairs(SearchBounds(max_weight=9, max_degree=40), (-40, 15)):
        if d % a[4] and d > a[4] and covers(a, d, 4) and _terminal_lemma(a, d):
            assert sum(a) - d <= (3 - d // a[4]) * a[4], (a, d)
    shapes = {(d // a[4], d % a[4] > 0) for a, d in generated[tuple(TERMINAL_POINTS)]}
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


def test_vertex_condition_drops_only_terminality_rejects(generated, default_catalog):
    # the terminal lemma at every vertex and on every edge drops 1,007 of the
    # 1,137 pairs that the other conditions allow (953 at a vertex, 54 more
    # on an edge), and the chain rejects each at terminality; no pair the
    # generator yields fails another condition
    earlier = generated[tuple(TERMINAL_POINTS)]
    dropped = set(earlier) - set(generated[()])
    assert (len(earlier), len(dropped)) == (1_137, 1_007)
    reasons = Counter(generator_failure(a, d) for a, d in earlier)
    assert reasons == {None: 130, "terminal vertices": 953, "terminal edges": 54}
    for a, d in dropped:
        assert rejection(a, d, terminal_general) == "terminality", (a, d)
    # and every record of the catalog passes every generator condition
    records, _ = default_catalog
    assert all(generator_failure(r.ws.weights, r.ws.degree) is None for r in records)


def test_bounds_drop_only_terminality_rejects(generated):
    # on every covered pair of the box (26, 78) with index 1..24, each bound
    # passed by at least 2: without the terminal lemma the generator yields
    # exactly the pairs that fail no other condition, and each pair that a
    # bound of BOUNDS drops, and no other condition but the terminal lemma
    # would, is rejected by the chain at terminality (the P5 lemma, with
    # 10,991 such pairs here, is left to the brute-force boxes)
    bounds, index_range = SearchBounds(max_weight=26, max_degree=78), (1, 24)
    dropped, kept = Counter(), set()
    for a, d in covered_box_pairs(bounds, index_range):
        f = generator_failure(a, d)
        if f is None or f in TERMINAL_POINTS:
            kept.add((a, d))
        elif f in BOUNDS and f != "P5 lemma" and generator_failure(a, d, BOUNDS) in (None, *TERMINAL_POINTS):
            dropped[f] += 1
            assert rejection(a, d, terminal_general) == "terminality", (a, d, f)
    assert set(_in_box(generated[tuple(TERMINAL_POINTS)], bounds, index_range)) == kept
    assert dropped == {
        "Kawamata a3": 16, "Suzuki index": 3_368, "Kawamata P5": 2_329, "Kawamata P4": 15,
        "Kawamata P4P5": 38, "P4 lemma": 904,
    }


def test_kawamata_caps_the_point_index():
    # a terminal point of index r adds r - 1/r to a basket whose sum stays
    # below 24, so one point of index 25 breaks it: the cap of a3, of a5 and
    # a4 at a vertex on X, and of gcd(a4, a5) on the edge P4P5
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


def test_kawamata_caps_the_generator(generated):
    # each top pair (a4, a5, d) of each triple a1 <= a2 <= a3 <= 24 with no
    # common factor comes once and meets every condition on a5 and a4 (those
    # of CONDITIONS before the a3 vertex); the top pairs reach a5 = 24 with
    # P5 on X, a4 = 24 with P4 on X and P5 off X, gcd(a4, a5) = 24 with both
    # off X, and index 19 (Suzuki)
    top = catalog.MAX_POINT_INDEX
    triples = [t for t in combinations_with_replacement(range(1, top + 1), 3) if gcd(*t) == 1]
    tops = [((*t, a4, a5), d) for t in triples for a4, a5, d in catalog._top_pairs(*t)]
    later = ("a3 vertex", "a2 vertex", "a1 vertex", "coprime threes", *TERMINAL_POINTS)
    assert [(a, d) for a, d in tops if generator_failure(a, d, later)] == []
    assert max(a[4] for a, d in tops if d % a[4]) == 24
    assert max(a[3] for a, d in tops if d % a[4] == 0 and d % a[3]) == 24
    assert max(gcd(a[3], a[4]) for a, d in tops if d % a[4] == 0 and d % a[3] == 0) == 24
    assert max(sum(a) - d for a, d in tops) == INDEX_RANGE[1] == 19
    assert len(set(tops)) == len(tops) == 25_877
    # and the walk visits no a3 past 24: without the terminal lemma a3 reaches 23
    assert max(a[2] for a, _ in generated[tuple(TERMINAL_POINTS)]) == 23


def test_p4_lemma_on_x():
    # the last step of the P4 lemma with P4 on X (module docstring), for every
    # a1 <= a2 <= a3 <= a4 <= 16, k and delta mod a4: P4 is covered and its
    # type passes the lemma's sum exactly when k*delta = a_i (mod a4), a_i <
    # a4, and a4 = a_j + a_l or a4 | k*a_w + a_i with delta = -a_w, w in j, l;
    # or a4 | (k-1)*delta and a4 is a sum of two of a1, a2, a3
    for *low, a4 in combinations_with_replacement(range(1, 17), 4):
        a1, a2, a3 = low
        for k, delta in product((2, 3, 4), range(a4)):
            a, d = (a1, a2, a3, a4, a4 + delta), k * (a4 + delta)
            if d % a4 == 0:
                continue
            lemma = covers(a, d, 3) and _sums_to(a4, _partner_type(a, d, 3))
            routes = (a4 in (a1 + a2, a1 + a3, a2 + a3) and (k - 1) * delta % a4 == 0) or any(
                i < a4 and (k * delta - i) % a4 == 0 and (
                    a4 == j + l or any(w < a4 and (k * w + i) % a4 == 0 and (delta + w) % a4 == 0 for w in (j, l))
                )
                for i, j, l in ((a1, a2, a3), (a2, a1, a3), (a3, a1, a2))
            )
            assert lemma == routes, (a, d)


def test_p4_lemma_off_x():
    # the last steps of the P4 lemma with P4 off X: a4 | k*delta exactly when
    # a4 = m*g with g = gcd(a4, delta), m | k and delta/g prime to m; and
    # for m = 1, g = a4 >= a3 passes the lemma's sum exactly when it is a sum
    # of two of a1, a2, a3
    for k, a4, delta in product((2, 3, 4), range(1, 97), range(72)):
        g = gcd(a4, delta)
        assert (k * delta % a4 == 0) == (k % (a4 // g) == 0 and gcd(delta // g, a4 // g) == 1), (k, a4, delta)
    for a in combinations_with_replacement(range(1, 25), 3):
        for g in range(a[2], 49):
            assert _sums_to(g, a) == (g in (a[0] + a[1], a[0] + a[2], a[1] + a[2])), (a, g)


def test_p4p5_edge_meets_x():
    # P5 and P4 off X: with a4 = m*g, a5 = n*g, gcd(m, n) = 1 and m | k, the
    # edge carries the k/m + 1 >= 2 monomials x4^(n*i) * x5^(k - m*i) of
    # degree d = k*a5, so X meets it off its vertices, in points of index g
    for k in (2, 3, 4):
        for m, g, t in product([m for m in range(1, k + 1) if k % m == 0], range(1, 31), range(12)):
            if gcd(m, t) == 1 and (t or m == 1):
                a4, a5 = m * g, (m + t) * g
                assert count_monomials((a4, a5), k * a5) == k // m + 1 >= 2, (k, m, g, t)


def test_generator_tables():
    # each table against its definition, over every delta the index window
    # can reach: (k-1)*delta <= s3 - 1 < 3*24
    width = 3 * catalog.MAX_POINT_INDEX
    deltas = range(width)
    for n, bits in enumerate(catalog._DIVISORS):
        assert [m for m in range(1, 25) if bits >> m & 1] == [m for m in range(1, 25) if n % m == 0]
    for n in range(1, width + 1):
        assert [t for t in deltas if catalog._REPUNIT[n] >> t & 1] == [t for t in deltas if t % n == 0]
    for k, a4 in product(range(1, 5), range(1, 25)):
        for b, bits in enumerate(catalog._SOLVE[k][a4]):
            assert [t for t in deltas if bits >> t & 1] == [t for t in deltas if (k * t - b) % a4 == 0]
    for k, factors in catalog._FACTORS.items():
        assert [m for m, _ in factors] == [m for m in range(1, k + 1) if k % m == 0]
        for (m, p), g in product(factors, range(1, 25)):
            bits = catalog._REPUNIT[g] & ~catalog._REPUNIT[p * g]
            assert [t for t in deltas if bits >> t & 1] == [t for t in deltas if t % g == 0 and gcd(t // g, m) == 1]


def test_degree_bound_past_five_weights_changes_nothing():
    # d < 5 * a5 <= 50 for weights up to 10, so a degree bound of 10^6 finds
    # the (10, 50) catalog
    wide = classify(SearchBounds(max_weight=10, max_degree=10**6))
    assert catalog_json(wide) == catalog_json(classify(SearchBounds(max_weight=10, max_degree=50)))


def test_larger_box_finds_the_default_catalog(monkeypatch, default_catalog):
    # the walk reads no box: at the CLI cap (200, 1000) it yields exactly the
    # records, once each, and they are the default catalog's
    yielded, generate = [], catalog._candidates

    def recording(lo, hi):
        for pair in generate(lo, hi):
            yielded.append(pair)
            yield pair

    monkeypatch.setattr(catalog, "_candidates", recording)
    records = classify(SearchBounds(max_weight=200, max_degree=1000))
    assert catalog_json(records) == catalog_json(default_catalog[0])
    assert sorted(yielded) == sorted((r.ws.weights, r.ws.degree) for r in records)


@pytest.fixture(scope="module")
def cap_catalog():
    """The catalog at the CLI cap (200, 1000)."""
    return classify(SearchBounds(max_weight=200, max_degree=1000))


@pytest.mark.parametrize(
    "max_weight, max_degree",
    [(2, 8), (5, 25), (7, 21), (10, 24), (13, 30), (20, 200), (32, 66), (33, 65), (33, 66), (80, 240)],
)
def test_each_box_is_the_cap_catalog_filtered(cap_catalog, max_weight, max_degree):
    # the records of a box are those of the CLI cap with a5 <= max_weight and
    # d <= max_degree, in the same order; the largest a5 and d of the
    # classification, 33 and 66, sit on the edges of four of these boxes
    inside = box_records(cap_catalog, max_weight, max_degree)
    assert catalog_json(classify(SearchBounds(max_weight, max_degree))) == catalog_json(inside)


def test_load_catalog_rejects_non_member(tmp_path, small_catalog):
    payload = json.loads(catalog_json(small_catalog))
    # (1,1,1,1,3) with d = 4 passes membership but its 1/3(1,1,1) point is not terminal
    payload["records"][0]["septuple"] = ["1", "1", "1", "1", "3", "4", "3"]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="terminality"):
        load_catalog(str(path))
