import hashlib
import json
import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd
from operator import mul

import pytest

from wfano import symmetry
from wfano.exactmath import adjugate, mat_mul, smith_normal_form, triple_matrix
from wfano.symalg import REFERENCE_TABLES, GenericityError, builtin_plan, normalize, reference_support, sample_family_member
from wfano.symmetry import (
    certify_trivial_automorphisms,
    diagonal_symmetry_group,
    has_diagonal_involution,
    moebius_map,
    p1_point,
    pgl2_set_stabilizer,
    signs_from_witness,
)
from wfano.wspace import enumerate_monomials, parse_monomial_set, weight_system

SYMMETRY_FAMILIES = (19, 28, 39, 49, 59, 66, 84)


def test_full_quartic_support_is_rigid():
    ws = weight_system(1, 1, 1, 1, 1, 4)
    support = frozenset(enumerate_monomials(ws, 4))
    group = diagonal_symmetry_group(support, ws)
    assert group.free_rank == 1
    assert group.torsion == ()
    assert group.induced_trivial


def test_fermat_quartic_torsion():
    ws = weight_system(1, 1, 1, 1, 1, 4)
    support = parse_monomial_set("x^4, y^4, z^4, t^4, w^4")
    group = diagonal_symmetry_group(support, ws)
    assert group.free_rank == 1
    assert group.torsion == (4, 4, 4, 4)
    assert len(group.torsion_generators) == 4


def test_single_monomial_support_degenerate():
    ws = weight_system(1, 1, 1, 1, 1, 4)
    group = diagonal_symmetry_group(parse_monomial_set("x^4"), ws)
    assert group.free_rank == 5
    invol, witness = has_diagonal_involution(parse_monomial_set("x^4"), ws)
    assert invol and witness is not None


def test_mixed_grades_rejected():
    ws = weight_system(1, 1, 1, 1, 1, 4)
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError, match="mixed grades"):
            diagonal_symmetry_group(parse_monomial_set("x^4, x"), ws)


def test_answers_are_kept_per_support_and_weights():
    # the full quartic support has the sign vector (1, 1, 1, 1, 1): the
    # torus's own under weights 1, not under (1, 1, 1, 1, 2); and {x^4, w^4}
    # has one grade under weights 1 only
    ones, heavy = weight_system(1, 1, 1, 1, 1, 4), weight_system(1, 1, 1, 1, 2, 4)
    support = frozenset(enumerate_monomials(ones, 4))
    assert len(support) == 70
    expected = {ones: (False, None), heavy: (True, (1, 1, 1, 1, 1))}
    for order in ((ones, heavy), (heavy, ones)):
        has_diagonal_involution.cache_clear()
        assert [has_diagonal_involution(support, ws) for ws in order] == [expected[ws] for ws in order]
    pair = parse_monomial_set("x^4, w^4")
    assert diagonal_symmetry_group(pair, ones).torsion == (4,)
    with pytest.raises(ValueError, match="mixed grades"):
        diagonal_symmetry_group(pair, heavy)


def test_each_reduced_support_takes_one_smith_form(monkeypatch):
    # family 84 reduces to its reference support at seeds 0-9
    calls = []

    def spy(rows):
        calls.append(rows)
        return smith_normal_form(rows)
    monkeypatch.setattr(symmetry, "smith_normal_form", spy)
    diagonal_symmetry_group.cache_clear()
    has_diagonal_involution.cache_clear()
    certs = [certify_trivial_automorphisms(84, seed) for seed in range(10)]
    assert len(calls) == 1
    assert {c.support for c in certs} == {reference_support(84)}
    assert all(c.group is certs[0].group for c in certs)


@pytest.mark.parametrize("family", SYMMETRY_FAMILIES)
def test_reference_supports_are_rigid(family):
    from wfano.symalg import family_weight_system

    ws = family_weight_system(family)
    for support in (reference_support(family), parse_monomial_set(REFERENCE_TABLES[family])):
        group = diagonal_symmetry_group(support, ws)
        assert group.induced_trivial
        invol, _ = has_diagonal_involution(support, ws)
        assert not invol


def test_involution_template():
    # the quartics invariant under (t, w) -> (-t, -w): even total (t, w)-degree,
    # h4(x,y,z) + t^2 a2 + t w b2 + w^2 c2 + g4(t,w)
    ws = weight_system(1, 1, 1, 1, 1, 4)
    support = frozenset(m for m in enumerate_monomials(ws, 4) if (m[3] + m[4]) % 2 == 0)
    assert len(support) == 38
    invol, witness = has_diagonal_involution(support, ws)
    assert invol
    assert signs_from_witness(witness) == (1, 1, 1, -1, -1)


def test_weighted_torus_signs_are_not_involutions():
    # with every weight even, (-1, ..., -1) is i^2 in the weighted torus, and
    # for (2, 2, 2, 2, 4) so is (-1, -1, -1, -1, 1): the torus's sign vectors
    # are 0 and (a / gcd(a)) mod 2
    for ws in (weight_system(2, 2, 2, 2, 2, 10), weight_system(2, 2, 2, 2, 4, 8)):
        support = frozenset(enumerate_monomials(ws, ws.degree))
        assert has_diagonal_involution(support, ws) == (False, None)
    # w -> -w is not in the torus, and a support even in w keeps it
    ws = weight_system(2, 2, 2, 2, 2, 10)
    support = frozenset(m for m in enumerate_monomials(ws, 10) if m[4] % 2 == 0)
    invol, witness = has_diagonal_involution(support, ws)
    assert invol
    assert signs_from_witness(witness) == (1, 1, 1, 1, -1)


def test_adding_monomials_shrinks_the_group():
    ws = weight_system(1, 1, 1, 1, 1, 4)
    support = set(parse_monomial_set("x^4, y^4, z^4, t^4, w^4"))
    base = diagonal_symmetry_group(frozenset(support), ws)
    rng = random.Random(13)
    pool = [m for m in enumerate_monomials(ws, 4) if m not in support]
    rng.shuffle(pool)
    prev_order = base
    for extra in pool[:12]:
        support.add(extra)
        group = diagonal_symmetry_group(frozenset(support), ws)
        assert group.free_rank <= prev_order.free_rank
        assert len(group.torsion) <= len(prev_order.torsion) or all(
            a <= b for a, b in zip(reversed(group.torsion), reversed(prev_order.torsion))
        )
        prev_order = group


def test_weight_vector_pairs_to_zero_with_differences():
    ws = weight_system(1, 2, 3, 3, 4, 12)
    support = sorted(enumerate_monomials(ws, 12))
    base = support[0]
    for m in support[1:]:
        assert sum((a - b) * w for a, b, w in zip(m, base, ws.weights)) == 0


def test_lattice_equivalent_monomial_leaves_group_unchanged():
    # y^4 - x^4 = -2 * (x^2*y^2 - x^4) already lies in the difference lattice
    # of {x^4, x^2*y^2}, so adding y^4 changes nothing; x*y^3 is off-lattice
    # and strictly shrinks the group
    ws = weight_system(1, 1, 1, 1, 1, 4)
    sparse = diagonal_symmetry_group(parse_monomial_set("x^4, x^2*y^2"), ws)
    coset = diagonal_symmetry_group(parse_monomial_set("x^4, x^2*y^2, y^4"), ws)
    assert (sparse.free_rank, sparse.torsion) == (coset.free_rank, coset.torsion)
    off = diagonal_symmetry_group(parse_monomial_set("x^4, x^2*y^2, x*y^3"), ws)
    assert (off.free_rank, off.torsion) != (sparse.free_rank, sparse.torsion)


def test_stabilizer_of_three_points():
    maps = pgl2_set_stabilizer([p1_point(0), p1_point(1), p1_point("inf")])
    assert len(maps) == 6  # all permutations of three points


def test_stabilizer_of_harmonic_four():
    pts = [p1_point(0), p1_point(1), p1_point(-1), p1_point("inf")]
    maps = pgl2_set_stabilizer(pts)
    assert len(maps) >= 4
    negation = moebius_map(((1, 0), (0, -1)))
    assert any(m.matrix == negation.matrix for m in maps)
    assert len(maps) == 8  # the harmonic quadruple has the dihedral stabilizer


def test_stabilizer_of_generic_five_points_is_trivial():
    rng = random.Random(17)
    for _ in range(5):
        while True:
            vals = {Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(5)}
            if len(vals) == 5:
                break
        maps = pgl2_set_stabilizer([p1_point(v) for v in vals])
        assert len(maps) == 1 and maps[0].matrix == ((1, 0), (0, 1))


def test_stabilizer_rejects_small_or_repeated_sets():
    with pytest.raises(ValueError):
        pgl2_set_stabilizer([p1_point(0), p1_point(1)])
    with pytest.raises(ValueError):
        pgl2_set_stabilizer([p1_point(0), p1_point(0), p1_point(1)])


def test_stabilizer_conjugation_covariance():
    rng = random.Random(29)
    base_pts = [p1_point(v) for v in (0, 1, -1, "inf")]
    base = pgl2_set_stabilizer(base_pts)
    for _ in range(20):
        while True:
            a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
            if a * d - b * c != 0:
                break
        g = moebius_map(((a, b), (c, d)))
        moved = [g(p) for p in base_pts]
        conj = pgl2_set_stabilizer(moved)
        assert len(conj) == len(base)


def test_stabilizer_group_axioms_randomized():
    rng = random.Random(53)
    cases = 0
    while cases < 1000:
        n = rng.randint(3, 5)
        vals = set()
        while len(vals) < n:
            vals.add(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
        maps = pgl2_set_stabilizer([p1_point(v) for v in vals])
        mats = {m.matrix for m in maps}
        for m in maps:
            assert m.inverse().matrix in mats
            for other in maps:
                assert m.compose(other).matrix in mats
        cases += len(maps) * len(maps) or 1


def stabilizer_oracle(pts):
    """The matrices of every map that sends the base triple to an ordered
    triple of the set and preserves it, each map built and tested, with no
    cross-ratio test: the reference for pgl2_set_stabilizer."""
    from_base = adjugate(triple_matrix(pts[:3]))
    point_set = set(pts)
    found = set()
    for triple in permutations(pts, 3):
        m = moebius_map(mat_mul(triple_matrix(triple), from_base))
        if all(m(p) in point_set for p in pts):
            found.add(m.matrix)
    return sorted(found)


SYMMETRIC_SETS = [((0, 1, "inf"), 6), ((0, "inf", 1, -1), 8), ((-1, 0, Fraction(1, 2), 1, 2, "inf"), 12)]


@pytest.mark.parametrize("values, order", SYMMETRIC_SETS)
def test_stabilizer_matches_oracle_on_symmetric_sets(values, order):
    pts = [p1_point(v) for v in values]
    for shift in range(len(pts)):  # every point once in the base triple
        moved = pts[shift:] + pts[:shift]
        maps = pgl2_set_stabilizer(moved)
        assert len(maps) == order
        assert [m.matrix for m in maps] == stabilizer_oracle(moved)


def test_stabilizer_matches_oracle_on_random_sets():
    # random rational sets of 3-12 points, and Moebius images of the
    # symmetric sets with extra points, whose stabilizers are not trivial
    rng = random.Random(61)
    orders = []
    for case in range(240):
        if case % 3:
            n, vals = rng.randint(3, 12), set()
            while len(vals) < n:
                vals.add(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
            pts = [p1_point(v) for v in vals]
        else:
            values, _ = rng.choice(SYMMETRIC_SETS)
            # det = +-7a - bc is not 0, as |b|, |c| <= 5
            g = moebius_map(((rng.randint(1, 5), rng.randint(-5, 5)), (rng.randint(-5, 5), rng.choice((-7, 7)))))
            pts = list(dict.fromkeys([g(p1_point(v)) for v in values] + [p1_point(rng.randint(-3, 3))]))
            rng.shuffle(pts)
        maps = pgl2_set_stabilizer(pts)
        assert [m.matrix for m in maps] == stabilizer_oracle(pts)
        orders.append(len(maps))
    assert {1, 2, 4, 6, 8, 12} <= set(orders)


def involution_oracle(support, ws):
    """The 32 sign vectors as tuples, in lexicographic order, against the
    mod-2 difference rows: the reference for has_diagonal_involution."""
    base = min(support)
    rows = {tuple((x - y) % 2 for x, y in zip(m, base)) for m in support}
    g = gcd(*ws.weights)
    torus = ((0,) * 5, tuple(a // g % 2 for a in ws.weights))
    for v in product((0, 1), repeat=5):
        if v not in torus and all(sum(map(mul, r, v)) % 2 == 0 for r in rows):
            return True, v
    return False, None


def test_involution_matches_oracle_on_random_supports():
    # random supports, some kept inside one class of a sign vector so that
    # an involution exists; the even-weight systems have a torus sign vector
    # besides 0, (1, 1, 1, 1, 1) or (1, 1, 1, 1, 0) or (1, 0, 0, 1, 1)
    rng = random.Random(67)
    systems = [weight_system(*s) for s in ((1, 1, 1, 1, 1, 4), (1, 1, 2, 2, 3, 6), (2, 2, 2, 2, 2, 10),
                                          (2, 2, 2, 2, 4, 8), (2, 4, 4, 6, 6, 12))]
    answers = []
    for _ in range(600):
        ws = rng.choice(systems)
        mons = enumerate_monomials(ws, ws.degree)
        if rng.random() < 0.5:
            v, c = rng.randrange(32), rng.randrange(2)
            mons = [m for m in mons if sum(e * (v >> (4 - i) & 1) for i, e in enumerate(m)) % 2 == c] or mons
        support = frozenset(rng.sample(mons, rng.randint(1, min(12, len(mons)))))
        answer = has_diagonal_involution(support, ws)
        assert answer == involution_oracle(support, ws)
        answers.append(answer)
    assert len({w for _, w in answers}) > 10 and (False, None) in answers


@pytest.mark.parametrize("family", SYMMETRY_FAMILIES)
def test_certificates(family):
    cert = certify_trivial_automorphisms(family, seed=0)
    assert cert.trivial
    assert cert.group.induced_trivial
    assert not cert.has_involution
    if family in (19, 28):
        expected_points = 6 if family == 19 else 5
        assert len(cert.point_set) == expected_points
        assert cert.stabilizer_order == 1
    else:
        assert cert.point_set is None
    payload = json.dumps(cert.to_dict(), indent=1, sort_keys=True) + "\n"
    assert '"trivial": true' in payload


def test_certificates_of_the_benchmark_draws_are_pinned():
    # the 280 certificates of the benchmark's reduce workload (seeds 0-39),
    # or the repr of the error a degenerate draw raises, in family-then-seed
    # order; over seeds 0-59 the same digest reads 235be9db...f007
    texts = []
    for family in SYMMETRY_FAMILIES:
        for seed in range(40):
            try:
                cert = certify_trivial_automorphisms(family, seed)
                texts.append(json.dumps(cert.to_dict(), indent=1, sort_keys=True) + "\n")
            except GenericityError as exc:
                texts.append(repr(exc))
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == "47c34ddf355cda57e7bd746c2243848051fdf83615cd277cedadadb6abf71f12"


def test_certificate_support_matches_pipeline():
    cert = certify_trivial_automorphisms(84, seed=0)
    g, _ = normalize(sample_family_member(84, seed=0), builtin_plan(84))
    assert cert.support == g.support == reference_support(84)


@pytest.mark.parametrize("failures", [0, 3, 7, 8])
def test_certificate_resamples_degenerate_draws(monkeypatch, failures):
    # the first `failures` draws are degenerate; the certificate uses the next
    # seed and names it, and after eight degenerate draws it gives up
    seeds = []

    def draw(family, seed):
        seeds.append(seed)
        if len(seeds) <= failures:
            raise GenericityError(f"degenerate draw {seed}")
        return sample_family_member(family, seed=seed)

    monkeypatch.setattr(symmetry, "sample_family_member", draw)
    if failures == 8:
        with pytest.raises(GenericityError, match="sampling stage failed for family 84: degenerate draw 12"):
            certify_trivial_automorphisms(84, seed=5)
        assert seeds == list(range(5, 13))
        return
    cert = certify_trivial_automorphisms(84, seed=5)
    assert seeds == list(range(5, 6 + failures))
    assert cert.checks[0] == f"sampled general member (seed {5 + failures}) and reduced it"
    assert cert.trivial
