import random
from fractions import Fraction

import pytest

from wfano import symmetry
from wfano.symalg import GenericityError, builtin_plan, normalize, reference_support, sample_family_member
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
    with pytest.raises(ValueError):
        diagonal_symmetry_group(parse_monomial_set("x^4, x"), ws)


@pytest.mark.parametrize("family", SYMMETRY_FAMILIES)
def test_reference_supports_are_rigid(family):
    from wfano.symalg import family_weight_system

    ws = family_weight_system(family)
    for corrected in (True, False):
        support = reference_support(family, corrected=corrected)
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
        assert len(maps) == 1 and maps[0].is_identity


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
    payload = cert.to_json()
    assert '"trivial": true' in payload


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
