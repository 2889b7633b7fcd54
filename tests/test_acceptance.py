"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines.  Two reference statements are wrong, and the suite checks the correct
values together with the evidence for them:

- criterion 3: the d >= 3*a5 sublist of the index-1 catalog outside the
  exceptional eight has four members, not three.  The added member is
  X_6 in P(1,1,1,2,2) (Iano-Fletcher's family No. 4); the test checks its
  membership and basket against hand-derived values.
- criterion 4: the transcribed monomial lists for families 19 and 28 each
  omit one monomial (x^2*y*w^2 and x^3*z^4).  The orbit-tangent rank oracle
  below shows that the verbatim lists cannot be the reduced support of a
  general member, while the corrected lists pass.
"""

import random
from fractions import Fraction

import pytest

from wfano.catalog import (
    EXCEPTIONAL_EIGHT,
    SearchBounds,
    catalog_json,
    classify,
)
from wfano.irrational import decide
from wfano.singular import QuotientSingularity
from wfano.symalg import (
    REFERENCE_TABLES,
    SliceSplit,
    Substitution,
    T,
    W,
    builtin_plan,
    family_weight_system,
    normalize,
    reference_support,
    sample_family_member,
    sample_general_member,
    substitute,
)
from wfano.symmetry import (
    certify_trivial_automorphisms,
    has_diagonal_involution,
    pgl2_set_stabilizer,
    p1_point,
    signs_from_witness,
)
from wfano.wspace import (
    NVARS,
    enumerate_monomials,
    format_monomial,
    parse_monomial,
    parse_monomial_set,
    weight_system,
)

from conftest import polynomial, reid_tai_terminal, scaled
from normal_form import cubic_normal_form
from test_exactmath import verify_smith_form

SYMMETRY_FAMILIES = (19, 28, 39, 49, 59, 66, 84)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_classification_counts(default_catalog):
    records, elapsed = default_catalog
    total = len(records)
    index_one = sum(1 for r in records if r.ws.index == 1)
    enlarged = classify(SearchBounds(max_weight=50, max_degree=150))
    # the enlarged box finds no new family, so its catalog is the default one
    stable = catalog_json(enlarged) == catalog_json(records)
    ok = index_one == 95 and total == 130 and elapsed < 300 and stable
    report(
        "1 (classification counts)",
        ok,
        f"I=1: {index_one}/95, total: {total}/130, search {elapsed:.1f}s, "
        f"enlarged bounds stable: {stable}",
    )
    assert index_one == 95
    assert total == 130
    assert elapsed < 300
    assert stable


def test_criterion_2_named_septuples(default_catalog):
    records, _ = default_catalog
    by_sept = {r.septuple: r for r in records}
    named = {
        1: (1, 1, 1, 1, 1, 4, 1),
        9: (1, 1, 2, 3, 3, 9, 1),
        17: (1, 1, 3, 4, 4, 12, 1),
        19: (1, 2, 3, 3, 4, 12, 1),
        27: (1, 2, 3, 5, 5, 15, 1),
        28: (1, 3, 3, 4, 5, 15, 1),
        39: (1, 3, 4, 5, 6, 18, 1),
        49: (1, 3, 5, 6, 7, 21, 1),
        59: (1, 3, 6, 7, 8, 24, 1),
        66: (1, 5, 6, 7, 9, 27, 1),
        84: (1, 7, 8, 9, 12, 36, 1),
    }
    missing = [n for n, sept in named.items() if sept not in by_sept]
    mislabeled = [
        n
        for n, sept in named.items()
        if sept in by_sept and by_sept[sept].paper_number != n
    ]
    ok = not missing and not mislabeled
    report("2 (named septuples)", ok, f"missing: {missing}, mislabeled: {mislabeled}")
    assert ok


def test_criterion_3_projection_trichotomy(default_catalog):
    records, _ = default_catalog
    # the families that decide sends through the binary-cubic normal form
    special = [
        r for r in records if any(tag == "cubic-normal-form-two-to-one" for tag, _ in decide(r).justification)
    ]
    septs = sorted(r.septuple for r in special)
    all_normal_form = all(
        r.ws.degree == 3 * r.ws.weights[4] and r.ws.weights[3] == r.ws.weights[4]
        for r in special
    )
    # The reference statement says three families; it misses X_6 in
    # P(1,1,1,2,2) (Iano-Fletcher's No. 4), which belongs to the catalog:
    # every four weights are coprime and every three include a 1, so it is
    # well-formed; the Fermat member x^6+y^6+z^6+t^3+w^3 has partials
    # x^5, y^5, z^5, t^2, w^2 with no common zero off the origin, so it is
    # quasismooth; its only singularities are the 3 points where the cubic
    # in (t, w) meets the index-2 line x = y = z = 0, each 1/2(1,1,1), which is
    # terminal (age 3/2 > 1); and d = 6 = 3*a5 with a4 = a5.
    expected = [
        (1, 1, 1, 2, 2, 6, 1),
        (1, 1, 2, 3, 3, 9, 1),
        (1, 1, 3, 4, 4, 12, 1),
        (1, 2, 3, 5, 5, 15, 1),
    ]
    no4 = next((r for r in special if r.septuple == expected[0]), None)
    no4_ok = (
        no4 is not None
        and no4.membership.accepted
        and no4.basket.to_strings() == ["3 x 1/2(1,1,1)"]
        and all(reid_tai_terminal(p.singularity) for p in no4.basket.points)
    )
    ok = septs == expected and all_normal_form and no4_ok
    report(
        "3 (projection trichotomy)",
        ok,
        f"found {len(special)} families on the cubic normal form route: {septs}; "
        f"all satisfy d = 3*a5 and a4 = a5: {all_normal_form}; "
        f"X_6 in P(1,1,1,2,2) accepted with basket 3 x 1/2(1,1,1): {no4_ok}",
    )
    assert septs == expected
    assert all_normal_form
    assert no4_ok, f"X_6 in P(1,1,1,2,2): {no4 and no4.basket.to_strings()}"


def _exact_rank(rows):
    """Rank over Q of sparse rows {column: integer}, by Gaussian elimination."""
    pivots = {}
    for row in rows:
        v = {k: Fraction(c) for k, c in row.items() if c}
        for col in sorted(pivots):
            c = v.get(col)
            if c:
                for k, b in pivots[col].items():
                    x = v.get(k, 0) - c * b
                    if x:
                        v[k] = x
                    else:
                        v.pop(k, None)
        if v:
            lead = min(v)
            pivots[lead] = {k: x / v[lead] for k, x in v.items()}
    return len(pivots)


def orbit_tangent_rank(family, table):
    """Rank of T_g(G.g) + span(table) at a seeded random g in span(table).

    G is the group of graded coordinate changes; its tangent space at g is
    spanned by h * dg/dx_i with h running over the monomials of degree a_i.
    If a general member can be reduced to support inside ``table``, the map
    G x span(table) -> V_d is dominant, so at a general g the rank equals
    dim V_d, the number of degree-d monomials.  Returns (rank, dim V_d).

    Full rank at any one g proves full generic rank.  A deficit at g is a
    Schwartz-Zippel certificate: each maximal minor has degree <= dim V_d in
    the coefficients of g, which are drawn from [1, 10^6], so a generically
    full-rank table shows a deficit with probability <= dim V_d / 10^6.
    """
    ws = family_weight_system(family)
    a, d = ws.weights, ws.degree
    rng = random.Random(0)
    g = {m: rng.randint(1, 10**6) for m in sorted(table)}
    column = {m: k for k, m in enumerate(enumerate_monomials(ws, d))}
    rows = [{column[m]: 1} for m in table]
    for i in range(NVARS):
        for h in enumerate_monomials(ws, a[i]):
            row = {}
            for m, c in g.items():
                if m[i]:
                    k = column[tuple(m[j] - (j == i) + h[j] for j in range(NVARS))]
                    row[k] = row.get(k, 0) + c * m[i]
            rows.append(row)
    return _exact_rank(rows), len(column)


@pytest.mark.parametrize("family", SYMMETRY_FAMILIES)
def test_criterion_4_golden_monomial_tables(family):
    g, _ = normalize(sample_family_member(family, seed=0), builtin_plan(family))
    corrected = reference_support(family)
    got = {format_monomial(m) for m in g.support}
    want = {format_monomial(m) for m in corrected}
    extra = sorted(got - want)
    missing = sorted(want - got)
    # The transcribed lists for families 19 and 28 omit x^2*y*w^2 and
    # x^3*z^4; reference_support restores them.  The oracle shows that each
    # verbatim list is one dimension short of reaching a general member, so
    # it cannot be the reduced support, while every corrected list reaches
    # full rank.  Rank alone does not name the missing monomial; the exact
    # comparison with the normalized support above does.
    rank, dim = orbit_tangent_rank(family, corrected)
    verbatim_rank, _ = orbit_tangent_rank(family, parse_monomial_set(REFERENCE_TABLES[family]))
    deficit = dim - verbatim_rank
    expected_deficit = 1 if family in (19, 28) else 0
    ok = got == want and rank == dim and deficit == expected_deficit
    match = "exact match" if got == want else (
        f"support minus table: {extra}, table minus support: {missing}"
    )
    report(
        f"4 (golden table, family {family})",
        ok,
        f"{match}; tangent rank {rank}/{dim} corrected, {verbatim_rank}/{dim} verbatim",
    )
    assert got == want, f"family {family}: +{extra} -{missing}"
    assert rank == dim
    assert deficit == expected_deficit


@pytest.mark.parametrize("family", SYMMETRY_FAMILIES)
def test_criterion_5_normalization_postconditions(family):
    plan = builtin_plan(family)
    g, _ = normalize(sample_family_member(family, seed=0), builtin_plan(family))
    bad_alive = [
        format_monomial(m) for m in plan.eliminated() if g.terms.get(m, 0) != 0
    ]
    square_layer = [format_monomial(m) for m in g.terms if m[4] == 2 and family != 19]
    pivots = {
        19: ("w*y^4",),
        28: ("z*t^3", "y^4*z", "y*t^3", "w^3"),
        39: ("y*t^3", "z^3*w", "w^3"),
        49: ("y*t^3", "y^5*t", "x*z^4", "w^3"),
        59: ("y*t^3", "y^6*z", "w^3"),
        66: ("z*t^3", "y^4*t", "w^3"),
        84: ("y^4*z", "t^4", "w^3"),
    }[family]
    dead_pivots = [p for p in pivots if g.terms.get(parse_monomial(p), 0) == 0]
    ok = not bad_alive and not square_layer and not dead_pivots
    report(
        f"5 (postconditions, family {family})",
        ok,
        f"surviving eliminations: {bad_alive}, stray square layer: {square_layer}, "
        f"dead pivots: {dead_pivots}",
    )
    assert ok


def test_criterion_6_automorphism_certificates():
    failures = []
    for family in SYMMETRY_FAMILIES:
        cert = certify_trivial_automorphisms(family, seed=0)
        if not cert.trivial:
            failures.append(family)
        if family == 19 and (cert.stabilizer_order != 1 or len(cert.point_set) != 6):
            failures.append((family, "six-point stabilizer"))
        if family == 28 and (cert.stabilizer_order != 1 or len(cert.point_set) != 5):
            failures.append((family, "five-point stabilizer"))
    # the quartics invariant under (t, w) -> (-t, -w): even total (t, w)-degree
    ws = weight_system(1, 1, 1, 1, 1, 4)
    support = frozenset(m for m in enumerate_monomials(ws, 4) if (m[3] + m[4]) % 2 == 0)
    invol, witness = has_diagonal_involution(support, ws)
    signs = signs_from_witness(witness) if witness else None
    if not (invol and signs == (1, 1, 1, -1, -1)):
        failures.append("involution template")
    ok = not failures
    report("6 (automorphism certificates)", ok, f"failures: {failures or 'none'}")
    assert ok


def test_criterion_7_singularity_checks(default_catalog):
    records, _ = default_catalog
    bad = []
    for r in records:
        if r.basket.non_isolated:
            bad.append((r.septuple, "non-isolated"))
        for p in r.basket.points:
            if not reid_tai_terminal(p.singularity):
                bad.append((r.septuple, str(p)))
    normal_form_ok = True
    for family in (9, 17, 27):
        ws = sample_family_member(family, seed=0).ws
        nf = cubic_normal_form(sample_family_member(family, seed=0))
        g = nf.polynomial
        for tval, wval in ((0, 1), (1, 0), (1, 1)):
            val = sum(
                c * tval ** m[3] * wval ** m[4]
                for m, c in g.terms.items()
                if m[0] == m[1] == m[2] == 0
            )
            if val != 0:
                normal_form_ok = False
        rec = next(r for r in records if r.septuple[:6] == ws.septuple[:6])
        a = ws.weights
        expected = QuotientSingularity(
            a[4], tuple(sorted((1 % a[4], a[1] % a[4], a[2] % a[4])))
        )
        edge = [p for p in rec.basket.points if p.location == "edge tw"]
        if not (len(edge) == 1 and edge[0].count == 3 and edge[0].singularity == expected):
            normal_form_ok = False
    ok = not bad and normal_form_ok
    report(
        "7 (singularity checks)",
        ok,
        f"non-terminal basket entries: {bad or 'none'}; "
        f"three marked points of type 1/a5(1,a2,a3): {normal_form_ok}",
    )
    assert ok


def test_cubic_normal_form_leaves_every_member_quadratic_in_w(default_catalog):
    # every family that decide may read off d = 3*a5 and a4 = a5: the four of
    # index 1 on the normal-form route and the cubic threefold of index 2
    records, _ = default_catalog
    families = [r.ws for r in records if r.ws.degree == 3 * r.ws.weights[4] and r.ws.weights[3] == r.ws.weights[4]]
    assert sorted(ws.septuple for ws in families) == [
        (1, 1, 1, 1, 1, 3, 2), (1, 1, 1, 2, 2, 6, 1), (1, 1, 2, 3, 3, 9, 1),
        (1, 1, 3, 4, 4, 12, 1), (1, 2, 3, 5, 5, 15, 1),
    ]
    for ws in families:
        nf = cubic_normal_form(sample_general_member(ws, 0, (SliceSplit((T, W)),)))
        assert max(m[4] for m in nf.polynomial.terms) == 2, ws


def test_criterion_8_verdict_table(default_catalog):
    records, _ = default_catalog
    wrong = []
    for r in records:
        v = decide(r)
        if r.ws.index >= 2:
            if v.values != {1, 2}:
                wrong.append((r.septuple, sorted(v.values)))
        elif r.septuple in EXCEPTIONAL_EIGHT:
            if v.values != {3} or not v.general_only:
                wrong.append((r.septuple, sorted(v.values)))
        else:
            if v.values != {2}:
                wrong.append((r.septuple, sorted(v.values)))
    three = [r.septuple for r in records if decide(r).values == {3}]
    counts_ok = (
        len(three) == 8
        and sum(1 for r in records if r.ws.index == 1 and decide(r).values == {2}) == 87
        and sum(1 for r in records if r.ws.index >= 2) == 35
    )
    ok = not wrong and counts_ok
    report(
        "8 (verdict table)",
        ok,
        f"mismatches: {wrong or 'none'}; partition sizes 8/87/35: {counts_ok}",
    )
    assert ok


def test_criterion_9_property_suites():
    from wfano.exactmath import smith_normal_form
    from wfano.wspace import count_monomials, enumerate_monomials

    failures = []

    # substitution invertibility and grade preservation, 1000 cases
    rng = random.Random(101)
    ws = weight_system(1, 2, 3, 3, 4, 12)
    mons = enumerate_monomials(ws, 12)
    for _ in range(1000):
        terms = {m: Fraction(rng.randint(1, 9)) for m in mons if rng.random() < 0.25}
        f = polynomial(ws, 12, terms)
        var = rng.randrange(5)
        tail_terms = {
            m: Fraction(rng.randint(-4, 4))
            for m in enumerate_monomials(ws, ws.weights[var])
            if m[var] == 0 and rng.random() < 0.5
        }
        s = Substitution(var, polynomial(ws, ws.weights[var], {k: v for k, v in tail_terms.items() if v}))
        g = substitute(f, s)
        if g.grade != 12 or substitute(g, Substitution(s.target, scaled(s.tail, -1))).terms != f.terms:
            failures.append("substitution")
            break

    # Smith normal form divisor chains, 1000 cases
    rng = random.Random(102)
    for _ in range(1000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        if not verify_smith_form(smith_normal_form(a), a):
            failures.append("smith")
            break

    # Reid-Tai generator-change invariance, 1000 cases
    rng = random.Random(103)
    from math import gcd

    done = 0
    while done < 1000:
        r = rng.randint(2, 40)
        wts = tuple(rng.randint(1, r - 1) for _ in range(3))
        if any(gcd(w, r) != 1 for w in wts):
            continue
        c = rng.randint(1, r - 1)
        if gcd(c, r) != 1:
            continue
        q1 = QuotientSingularity(r, wts)
        q2 = QuotientSingularity(r, tuple((c * w) % r for w in wts))
        if reid_tai_terminal(q1) != reid_tai_terminal(q2):
            failures.append("reid-tai")
            break
        done += 1

    # stabilizer group axioms, 1000 random point sets
    rng = random.Random(104)
    done = 0
    while done < 1000:
        n = rng.randint(3, 4)
        vals = set()
        while len(vals) < n:
            vals.add(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
        maps = pgl2_set_stabilizer([p1_point(v) for v in vals])
        mats = {m.matrix for m in maps}
        for m in maps:
            if m.inverse().matrix not in mats:
                failures.append("stabilizer-inverse")
            for other in maps:
                if m.compose(other).matrix not in mats:
                    failures.append("stabilizer-closure")
        done += 1

    # enumeration vs generating function, 1000 cases
    rng = random.Random(105)
    for _ in range(1000):
        weights = tuple(sorted(rng.randint(1, 9) for _ in range(5)))
        k = rng.randint(0, 25)
        ws_i = weight_system(*weights, max(sum(weights) - 1, 1))
        coeffs = [1] + [0] * k
        for a in weights:
            out = [0] * (k + 1)
            for i, c in enumerate(coeffs):
                if c:
                    j = i
                    while j <= k:
                        out[j] += c
                        j += a
            coeffs = out
        if count_monomials(ws_i.weights, k) != coeffs[k]:
            failures.append("counting")
            break

    ok = not failures
    report("9 (property suites)", ok, f"failing suites: {sorted(set(failures)) or 'none'}")
    assert ok
