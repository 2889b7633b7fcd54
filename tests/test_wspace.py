import random
from itertools import combinations_with_replacement, product
from operator import mul

import pytest

from wfano.membership import representable
from wfano.wspace import (
    count_monomials,
    enumerate_monomials,
    format_monomial,
    parse_monomial,
    semigroup_table,
    weight_system,
    weighted_degree,
    wps_well_formed,
)


def brute_monomials(weights, k):
    """Independent oracle: plain cartesian scan over bounded exponents."""
    out = set()
    ranges = [range(k // w + 1) for w in weights]
    for e in product(*ranges):
        if sum(a * b for a, b in zip(e, weights)) == k:
            out.add(e)
    return out


def series_count(weights, k):
    """Generating-function oracle: coefficient of q^k in prod 1/(1-q^a)."""
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
    return coeffs[k]


def test_weight_system_validation():
    with pytest.raises(ValueError):
        weight_system(2, 1, 3, 3, 4, 12)  # unsorted
    with pytest.raises(ValueError):
        weight_system(1, 2, 3, 3, 4, 12, 2)  # wrong index
    ws = weight_system(1, 2, 3, 3, 4, 12)
    assert ws.index == 1
    assert ws.septuple == (1, 2, 3, 3, 4, 12, 1)


def test_enumerate_plain_quartic():
    ws = weight_system(1, 1, 1, 1, 1, 4)
    mons = enumerate_monomials(ws, 4)
    assert len(mons) == 70  # stars and bars C(8,4)
    assert mons == sorted(mons)


def test_enumerate_against_brute_oracle():
    ws = weight_system(1, 2, 3, 3, 4, 12)
    mons = enumerate_monomials(ws, 12)
    assert set(mons) == brute_monomials(ws.weights, 12)
    for name in ("w^3", "z*t^3", "y^6", "x^12"):
        assert parse_monomial(name) in mons


@pytest.mark.parametrize(
    "weights", [(2, 3, 4, 5, 7), (2, 2, 4, 6, 6), (3, 4, 5, 6, 7), (2, 4, 6, 9, 9), (4, 6, 6, 10, 15)]
)
def test_enumerate_against_brute_oracle_when_weights_share_factors(weights):
    # the walk steps each exponent through the residues the smaller weights allow
    ws = weight_system(*weights, sum(weights) - 1)
    for k in range(31):
        mons = enumerate_monomials(ws, k)
        assert mons == sorted(brute_monomials(weights, k))
        assert len(mons) == count_monomials(weights, k)


def test_enumerate_family_84_row():
    ws = weight_system(1, 7, 8, 9, 12, 36)
    mons = set(enumerate_monomials(ws, 36))
    for name in ("w^3", "t^4", "z^3*w"):
        assert parse_monomial(name) in mons


def test_every_monomial_has_the_right_degree():
    ws = weight_system(1, 3, 5, 6, 7, 21)
    for m in enumerate_monomials(ws, 21):
        assert weighted_degree(m, ws) == 21


def test_single_variable_monomials_present():
    ws = weight_system(1, 2, 3, 3, 4, 12)
    for i, a in enumerate(ws.weights):
        mons = enumerate_monomials(ws, a)
        unit = tuple(1 if j == i else 0 for j in range(5))
        assert unit in mons


@pytest.mark.parametrize("weights, k", [((6, 6, 6, 6, 7), 276), ((2, 4, 6, 8, 9), 222), ((12, 18, 24, 30, 31), 1338)])
def test_enumeration_at_scale(weights, k):
    # about 40,000 monomials each, sorted once each, all of degree k
    mons = enumerate_monomials(weight_system(*weights, k), k)
    assert 40_000 <= len(mons) == count_monomials(weights, k) <= 42_000
    assert all(m < n for m, n in zip(mons, mons[1:]))
    assert {sum(map(mul, m, weights)) for m in mons} == {k}


def test_count_matches_enumeration_and_series():
    ws = weight_system(1, 3, 5, 6, 7, 21)
    assert count_monomials(ws.weights, 21) == len(enumerate_monomials(ws, 21)) == 66
    assert count_monomials(ws.weights, 0) == 1
    rng = random.Random(5)
    for _ in range(1000):
        weights = tuple(sorted(rng.randint(1, 9) for _ in range(5)))
        k = rng.randint(0, 30)
        ws = weight_system(*weights, max(sum(weights) - 1, 1))
        assert count_monomials(ws.weights, k) == series_count(weights, k)


def test_count_on_catalog_style_degrees():
    for sept in ((1, 1, 1, 1, 1, 4), (1, 2, 3, 3, 4, 12), (1, 7, 8, 9, 12, 36)):
        ws = weight_system(*sept)
        for k in range(0, 2 * ws.degree + 1, max(1, ws.degree // 3)):
            assert count_monomials(ws.weights, k) == series_count(ws.weights, k)


def test_count_on_strata_and_edges():
    # the 1-, 2- and 3-weight tuples of coordinate strata, edges and vertices
    rng = random.Random(9)
    for _ in range(600):
        weights = tuple(sorted(rng.randint(1, 12) for _ in range(rng.randint(1, 3))))
        k = rng.randint(0, 60)
        expected = series_count(weights, k)
        assert count_monomials(weights, k) == expected
        if k <= 30:
            assert len(brute_monomials(weights, k)) == expected
    # the largest slot holds C(k+n-1, n-1) exactly: all weights 1
    assert count_monomials((1, 1, 1), 200) == 201 * 202 // 2
    assert count_monomials((1,), 0) == count_monomials((7,), 14) == 1
    assert count_monomials((7,), 13) == count_monomials((4, 6), 9) == 0
    with pytest.raises(ValueError):
        count_monomials((2, 3), -1)
    with pytest.raises(ValueError):
        count_monomials((0, 3), 6)
    # a huge degree is refused before its series is built
    with pytest.raises(ValueError, match="bits"):
        count_monomials((1, 1, 1, 1, 1), 10**9)


def test_wps_well_formed():
    assert wps_well_formed(weight_system(1, 1, 1, 1, 1, 4))
    assert wps_well_formed(weight_system(1, 2, 3, 3, 4, 12))
    assert not wps_well_formed(weight_system(1, 2, 2, 4, 4, 12))


def test_monomial_text_round_trip():
    ws = weight_system(1, 2, 3, 3, 4, 12)
    for m in enumerate_monomials(ws, 12):
        assert parse_monomial(format_monomial(m)) == m
    assert format_monomial((0, 0, 0, 0, 0)) == "1"
    assert parse_monomial("x^2*y*w") == (2, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        parse_monomial("x^2*q")


def test_semigroup_table_against_representable():
    # every bit at the index-1 degree of each weight system with weights <= 5
    for a in combinations_with_replacement(range(1, 6), 5):
        d = sum(a) - 1
        table = semigroup_table(a, d)
        assert table[0] == 1
        for mask in range(1, 32):
            wts = tuple(w for i, w in enumerate(a) if mask >> i & 1)
            assert table[mask] == sum(representable(wts, t) << t for t in range(d + 1)), (a, mask)
            # a subset's sums are sums of every superset
            assert all(table[mask] & ~table[sup] == 0 for sup in range(32) if mask & ~sup == 0)


def test_semigroup_table_refuses_past_one_degree_limit():
    # a table of five weights holds (d + 1) * 2^5 bits, within MAX_SERIES_BITS
    # up to d = 524,287; past it every table is refused, with a text of d alone;
    # below, every t but 1 is a sum of 2, 3, 5, 7 and 11
    assert semigroup_table((2, 3, 5, 7, 11), 524_287)[-1] == (1 << 524_288) - 1 - 0b10
    for weights in ((), (1,), (2, 3, 5, 7, 11)):
        with pytest.raises(ValueError, match="^semigroup_table: degree 524288 needs 16777248 bits, over 16777216$"):
            semigroup_table(weights, 524_288)
