import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from wfano import exactmath
from wfano.exactmath import (
    MAX_ROOT_COEFF_BITS,
    SmithForm,
    common_interior_degree,
    mat_det,
    mat_mul,
    rank_mod_p,
    rational_roots,
    smith_normal_form,
    triple_matrix,
    univariate_rational_roots,
)
from wfano.symalg import reference_support


def from_roots(roots, lead=1):
    """Ascending coefficients of lead * prod(s - rho)."""
    poly = [Fraction(lead)]
    for rho in roots:
        nxt = [Fraction(0)] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k + 1] += c
            nxt[k] -= rho * c
        poly = nxt
    return poly


def test_triple_matrix_sends_the_standard_triple():
    rng = random.Random(3)
    for _ in range(200):
        points = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
        cross = [p[0] * q[1] - p[1] * q[0] for p, q in combinations(points, 2)]
        if 0 in cross:
            with pytest.raises(ValueError, match="coincident points in triple"):
                triple_matrix(points)
            continue
        m = triple_matrix(points)
        for (u, v), (p, q) in zip(((1, 0), (0, 1), (1, 1)), points):
            image = [row[0] * u + row[1] * v for row in m]
            assert image[0] * q == image[1] * p and image != [0, 0]


def test_smith_normal_form_trivial_cases():
    z = smith_normal_form([[0, 0], [0, 0]])
    assert z.diagonal == (0, 0)
    assert z.verify([[0, 0], [0, 0]])
    i3 = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert i3.diagonal == (1, 1, 1)


def test_smith_normal_form_hand_checked():
    # [[2,0],[0,4]] is already diagonal; [[2,4],[4,2]] row-reduces to (2, 6)
    assert smith_normal_form([[2, 0], [0, 4]]).diagonal == (2, 4)
    s = smith_normal_form([[2, 4], [4, 2]])
    assert s.diagonal == (2, 6)
    assert s.verify([[2, 4], [4, 2]])


def test_smith_form_verify_rejects_forgeries():
    a = [[2, 4], [4, 2]]
    right = smith_normal_form(a).right
    # wrong diagonals: column 0 of A * R is 2 * u_0 with u_0 primitive
    assert not SmithForm((1, 12), right).verify(a)
    assert not SmithForm((4, 3), right).verify(a)
    assert not SmithForm((2,), right).verify(a)
    # non-unimodular right transform; everything else would pass
    assert SmithForm((2,), ((1,),)).verify([[2]])
    assert not SmithForm((2,), ((2,),)).verify([[1]])
    # non-primitive columns: no unimodular L maps 2 to 1
    assert not SmithForm((1,), ((1,),)).verify([[2]])
    # each column primitive, but together they span an index-2 lattice
    assert not SmithForm((1, 1), ((1, 0), (0, 1))).verify([[1, 1], [1, -1]])
    assert smith_normal_form([[1, 1], [1, -1]]).diagonal == (1, 2)
    # a column past the rank that is not zero
    assert not SmithForm((1,), ((1, 0), (0, 1))).verify([[1, 1]])


def test_smith_form_verify_rejects_scaled_divisors():
    rng = random.Random(13)
    for _ in range(100):
        a = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]]
        a += [[rng.randint(-9, 9) for _ in range(len(a[0]))] for _ in range(rng.randint(0, 4))]
        s = smith_normal_form(a)
        for k, d in enumerate(s.diagonal):
            if d:
                forged = s.diagonal[:k] + (2 * d,) + s.diagonal[k + 1 :]
                assert not SmithForm(forged, s.right).verify(a)


def _minor_gcd(matrix, k):
    rows = range(len(matrix))
    cols = range(len(matrix[0]))
    g = 0
    for ri in combinations(rows, k):
        for ci in combinations(cols, k):
            sub = [[matrix[i][j] for j in ci] for i in ri]
            g = __import__("math").gcd(g, abs(mat_det(sub)))
    return g


def test_smith_normal_form_randomized_with_minor_oracle():
    # d1*...*dk equals the gcd of all k x k minors (checked for k <= rank)
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        s = smith_normal_form(a)
        assert s.verify(a)
        prod = 1
        for k, d in enumerate([d for d in s.diagonal if d], start=1):
            prod *= d
            assert prod == _minor_gcd(a, k)


def test_smith_normal_form_randomized_chain_large():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        s = smith_normal_form(a)
        assert s.verify(a)


def _smith_cases():
    """Seeded matrices of 0-8 rows and 1-6 columns (zero rows and columns,
    entries scaled by 2 or 6 so that pivots are not units and the offender
    restart runs), then the difference rows of the seven reduced supports."""
    rng = random.Random(24)
    cases = []
    for _ in range(300):
        rows, cols = rng.randint(0, 8), rng.randint(1, 6)
        scale = rng.choice((1, 1, 2, 6))
        a = [[scale * rng.choice((0, 0, rng.randint(-4, 4), rng.randint(-40, 40))) for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.3:
            a[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in a:
                row[j] = 0
        cases.append(a)
    for family in (19, 28, 39, 49, 59, 66, 84):
        base, *others = sorted(reference_support(family))
        cases.append([[x - y for x, y in zip(m, base)] for m in others])
    return cases


def test_smith_normal_form_output_is_pinned():
    # the whole output, diagonal and right transform (which sets the torsion
    # generators autgroup prints), as the textbook elimination gave it: a
    # faster elimination must take the same pivots
    forms = [smith_normal_form(a) for a in _smith_cases()]
    payload = json.dumps([[s.diagonal, s.right] for s in forms]).encode()
    assert hashlib.sha256(payload).hexdigest() == "5fa32dafc6e48dda0a57c498833e736860f079a2b7e79ea6f5af776ef27eef11"
    assert all(s.verify(a) for s, a in zip(forms, _smith_cases()))


def test_common_interior_degree():
    # entry i multiplies u^(n-i) v^i: a leading zero is a factor v, vanishing
    # at [1:0], and a trailing zero a factor u, vanishing at [0:1]
    split = from_roots((1, 2))  # (v - u)(v - 2u)
    # one form: the degree of its core, with the zero ends on both sides cut off
    assert common_interior_degree([[0, 0, *split, 0]]) == 2
    assert common_interior_degree([[0, 5, 0]]) == 0
    # shared interior roots, with multiplicity and over the algebraic closure
    assert common_interior_degree([[0, *split], [*split, 0, 0]]) == 2
    assert common_interior_degree([from_roots((1, 1, 2)), [0, *from_roots((1, 1, 3))]]) == 2
    # (v^2 - 2u^2)(v - u) and (v^2 - 2u^2)(v + u)
    assert common_interior_degree([[2, -2, -1, 1], [-2, -2, 1, 1]]) == 2
    # u*v*(v - u) and u*v*(v - 2u) share only [1:0] and [0:1]; v^2 and u^2*v only [1:0]
    assert common_interior_degree([[0, *from_roots((1,)), 0], [0, *from_roots((2,)), 0]]) == 0
    assert common_interior_degree([[0, 0, 1], [0, 1, 0, 0]]) == 0
    # every two of three forms share a root, all three none
    assert common_interior_degree([from_roots((1, 2)), from_roots((2, 3)), from_roots((1, 3))]) == 0


def test_rational_roots_rejects_zero_and_empty_forms():
    for form in [(0, 0, 0), ()]:
        with pytest.raises(ValueError):
            rational_roots(form)


def test_rational_roots_of_split_form():
    # (v - u)(v - 2u)(v + 3u): roots at v/u = 1, 2, -3
    roots = rational_roots(from_roots((1, 2, -3)))
    assert roots == [(1, -3), (1, 1), (1, 2)]


def test_rational_roots_includes_coordinate_points():
    # u * v * (v - u): roots at [1:0], [0:1], [1:1]
    roots = rational_roots([0, -1, 1, 0])
    assert set(roots) == {(1, 0), (0, 1), (1, 1)}


def test_univariate_rational_roots_from_known_roots():
    # repeated roots, a root at 0, rational leading coefficients and an
    # irreducible quadratic factor that contributes no rational root
    rng = random.Random(29)
    for _ in range(200):
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
        poly = from_roots(roots, lead=Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        if rng.random() < 0.3:
            poly = [2 * a - b for a, b in zip(poly + [0, 0], [0, 0] + poly)]  # times 2 - s^2
        assert univariate_rational_roots(poly) == sorted(set(roots))
        assert univariate_rational_roots([-c for c in poly] + [0, 0]) == sorted(set(roots))


def test_univariate_rational_roots_edge_cases():
    assert univariate_rational_roots([5]) == []
    assert univariate_rational_roots([0, 0, 3]) == [0]
    assert univariate_rational_roots([1, 0, 1]) == []
    assert univariate_rational_roots([Fraction(-1, 4), 0, 1]) == [Fraction(-1, 2), Fraction(1, 2)]
    with pytest.raises(ValueError):
        univariate_rational_roots([0, 0])


def brute_force_roots(poly):
    """Roots among every +-p/q, p | a_lo and q | a_n found by trial, each
    evaluated in Fraction (plus 0 when a_0 = 0)."""
    den = 1
    for c in poly:
        den = den * c.denominator // gcd(den, c.denominator)
    ic = [int(c * den) for c in poly]
    while not ic[-1]:
        ic.pop()
    lo = next(i for i, c in enumerate(ic) if c)
    roots = {Fraction(0)} if lo else set()
    ps = [p for p in range(1, abs(ic[lo]) + 1) if ic[lo] % p == 0]
    qs = [q for q in range(1, abs(ic[-1]) + 1) if ic[-1] % q == 0]
    for p in ps:
        for q in qs:
            for s in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * s**i for i, c in enumerate(poly)) == 0:
                    roots.add(s)
    return sorted(roots)


def test_univariate_rational_roots_against_brute_force():
    # zero roots, repeated roots, and end coefficients sharing factors, so
    # that many candidate pairs p, q are not coprime
    rng = random.Random(37)
    for _ in range(300):
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        roots += roots[: rng.randint(0, 2)]
        poly = from_roots(roots, lead=rng.choice((1, 2, 6, 12)))
        if rng.random() < 0.5:  # a factor without rational roots: s^2 + k
            k = rng.randint(1, 6)
            poly = [k * a + b for a, b in zip(poly + [0, 0], [0, 0] + poly)]
        assert univariate_rational_roots(poly) == brute_force_roots(poly), poly


def unfiltered_rational_roots(coefficients):
    """The root finder before the f(1), f(-1) filter: every coprime candidate
    +-p/q is evaluated in full, and Fractions of every input are cleared."""
    coeffs = [Fraction(c) for c in coefficients]
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ic = [int(c * den) for c in coeffs]
    while ic and ic[-1] == 0:
        ic.pop()
    roots = set()
    lo = 0
    while ic[lo] == 0:
        lo += 1
    if lo:
        roots.add(Fraction(0))
    ic = ic[lo:]
    if len(ic) > 1:
        cont = gcd(*ic)
        ic = [c // cont for c in ic]
        n = len(ic) - 1
        qs = exactmath._divisors(abs(ic[-1]))
        for p in exactmath._divisors(abs(ic[0])):
            for q in qs:
                if gcd(p, q) == 1:
                    for s in (p, -p):
                        if sum(c * s**i * q ** (n - i) for i, c in enumerate(ic)) == 0:
                            roots.add(Fraction(s, q))
    return sorted(roots)


def test_univariate_rational_roots_filter_against_unfiltered_loop():
    # planted roots 0, +-1 and p/q with q > 1, repeated, times a content and
    # a factor s^2 + k without rational roots, given as ints or as Fractions
    rng = random.Random(41)
    kinds = {"zero": 0, "one": 0, "minus-one": 0, "q>1": 0, "repeated": 0, "content": 0, "fraction": 0}
    for _ in range(2400):
        roots = [rng.choice((0, 1, -1, Fraction(rng.randint(-9, 9), rng.randint(2, 6)))) for _ in range(rng.randint(0, 4))]
        roots += roots[: rng.randint(0, 2)]
        poly = from_roots(roots, lead=rng.randint(1, 12) * rng.choice((1, -1)))
        if rng.random() < 0.4:
            k = rng.randint(1, 5)
            poly = [k * a + b for a, b in zip(poly + [0, 0], [0, 0] + poly)]
        content = rng.choice((1, 1, 2, 6, 35))
        ints = [int(c * content * lcm_of_denominators(poly)) for c in poly]
        given = [Fraction(c, 12) for c in ints] if rng.random() < 0.3 else ints
        expected = unfiltered_rational_roots(given)
        assert univariate_rational_roots(given) == expected, given
        assert expected == sorted(set(roots)), given
        kinds["zero"] += 0 in roots
        kinds["one"] += 1 in roots
        kinds["minus-one"] += -1 in roots
        kinds["q>1"] += any(Fraction(r).denominator > 1 for r in roots)
        kinds["repeated"] += len(set(roots)) < len(roots)
        kinds["content"] += content > 1
        kinds["fraction"] += given is not ints
    assert min(kinds.values()) >= 300, kinds


def lcm_of_denominators(poly):
    den = 1
    for c in poly:
        den = den * c.denominator // gcd(den, c.denominator)
    return den


def test_univariate_rational_roots_refuses_long_end_coefficients():
    prime41, prime20 = 1099511627791, 524309  # primes of 41 and 20 bits
    assert prime41.bit_length() == MAX_ROOT_COEFF_BITS + 1
    for poly in ([-prime41, 1], [1, 0, prime41], [prime41, 0, 3, 5]):
        with pytest.raises(ValueError, match="41 bits"):
            univariate_rational_roots(poly)
    assert univariate_rational_roots([-prime20, 1]) == [prime20]
    assert univariate_rational_roots([-1, 0, 0, prime20]) == []
    assert univariate_rational_roots([-1, prime20, 0]) == [Fraction(1, prime20)]
    # the content is cleared before the limit applies
    assert univariate_rational_roots([-3 * prime41, prime41]) == [3]


def test_rational_roots_order_against_known_roots():
    # finite roots [1 : rho] in increasing rho, [1 : 0] among them, [0 : 1] last
    rng = random.Random(31)
    for _ in range(200):
        finite = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 4))]
        poly = from_roots(finite, lead=rng.choice((-3, 1, 2)))
        at_u0 = rng.random() < 0.5  # a factor u vanishes at [0 : 1]
        form = poly + [0] * at_u0
        expected = [(rho.denominator, rho.numerator) for rho in sorted(set(finite))]
        assert rational_roots(form) == expected + [(0, 1)] * at_u0


def test_rational_arithmetic_is_exact():
    rng = random.Random(19)
    for _ in range(1000):
        p = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        r = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert (p + r) - r == p


def test_mat_mul_and_det_agree_with_float_oracle():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


def reference_rank_mod_p(matrix, p):
    """Gaussian elimination over F_p on Python integers."""
    rows = [[v % p for v in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_rank_matrix(rng, n, m, r, p):
    """An n x m integer matrix of rank at most r modulo p (a product n x r by r x m)."""
    left = [[rng.randrange(p) for _ in range(r)] for _ in range(n)]
    right = [[rng.randrange(p) for _ in range(m)] for _ in range(r)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


@pytest.mark.parametrize("p", [32003, 31991, 32009])
def test_rank_mod_p_low_rank_against_reference(p):
    # shapes fall on both sides of WHOLE_COLUMNS and cross the 64-row blocks
    rng = random.Random(p)
    for n, m, r in [(100, 70, 45), (70, 100, 33), (97, 97, 96), (65, 40, 40), (33, 65, 1)]:
        matrix = random_rank_matrix(rng, n, m, r, p)
        assert rank_mod_p(matrix, p) == reference_rank_mod_p(matrix, p)


def test_rank_mod_p_rectangular_and_signed():
    p = 32003
    rng = random.Random(7)
    for n, m in [(150, 20), (20, 150), (1, 40), (40, 1), (64, 33)]:
        matrix = [[rng.randint(-10**6, 10**6) for _ in range(m)] for _ in range(n)]
        assert rank_mod_p(matrix, p) == reference_rank_mod_p(matrix, p) == min(n, m)
    # multiples of p vanish: a full-rank integer matrix can be deficient mod p
    assert rank_mod_p([[p, 0], [0, 1]], p) == 1
    assert rank_mod_p([[1, 2], [3, 6 + p]], p) == 1


def test_rank_mod_p_sparse_needs_row_swaps():
    # most pivots are not on the diagonal, so rows swap inside the panels
    p = 32003
    rng = random.Random(13)
    for n, m, density in [(100, 90, 0.04), (90, 100, 0.02), (70, 70, 0.08)]:
        matrix = [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]
        assert rank_mod_p(matrix, p) == reference_rank_mod_p(matrix, p)


def test_rank_mod_p_zero_columns():
    p = 32003
    rng = random.Random(11)
    matrix = random_rank_matrix(rng, 80, 90, 50, p)
    for row in matrix:
        for c in (0, 1, 31, 32, 33, 63, 89):
            row[c] = 0
    assert rank_mod_p(matrix, p) == reference_rank_mod_p(matrix, p)
    assert rank_mod_p([[0] * 40] * 70, p) == 0
    assert rank_mod_p([[] for _ in range(3)], p) == 0


def test_rank_mod_p_works_in_place_on_float64():
    import numpy as np

    p = 32003
    matrix = random_rank_matrix(random.Random(3), 90, 90, 60, p)
    array = np.array(matrix, dtype=np.int64).astype(np.float64)  # entries below 2^52
    assert rank_mod_p(array, p) == 60
    assert not np.array_equal(array, np.array(matrix, dtype=np.float64))  # eliminated


@pytest.mark.parametrize(
    "whole_columns, panel", [(0, 64), (1 << 20, 64), (0, 4)], ids=["0", "1048576", "0-panel4"]
)
def test_rank_mod_p_panels_and_whole_elimination_agree(monkeypatch, whole_columns, panel):
    # the cases above fall on either side of WHOLE_COLUMNS; here every case
    # runs in panels (0), of 64 or 4 columns, or whole (1 << 20)
    monkeypatch.setattr(exactmath, "WHOLE_COLUMNS", whole_columns)
    monkeypatch.setattr(exactmath, "PANEL", panel)
    p = 32003
    rng = random.Random(17)
    shapes = [(100, 70, 45), (70, 100, 33), (97, 97, 96), (33, 65, 1)]
    cases = [random_rank_matrix(rng, n, m, r, p) for n, m, r in shapes]
    cases.append([[rng.randrange(1, p) if rng.random() < 0.04 else 0 for _ in range(90)] for _ in range(100)])
    cases.append([[rng.randint(-(10**6), 10**6) for _ in range(20)] for _ in range(150)])
    zero_columns = random_rank_matrix(rng, 80, 90, 50, p)
    for row in zero_columns:
        for c in (0, 1, 31, 32, 33, 63, 89):
            row[c] = 0
    cases.append(zero_columns)
    for matrix in cases:
        assert rank_mod_p(matrix, p) == reference_rank_mod_p(matrix, p)


@pytest.fixture(scope="module")
def panel_cases():
    """(matrix, rank) pairs at p = 32003 whose columns span several 64-column
    panels, with the rank from the reference elimination."""
    import numpy as np

    p = 32003
    rng = np.random.default_rng(31)

    def low_rank(n, m, r):
        return rng.integers(0, p, (n, r)) @ rng.integers(0, p, (r, m))

    # rank below the column count: some panels hold columns without a pivot
    matrices = [low_rank(150, 200, 130), low_rank(300, 130, 129)]
    # columns 64-159 are zero, so the panel of columns 64-127 has no pivot at all
    zero_block = low_rank(120, 260, 100)
    zero_block[:, 64:160] = 0
    matrices.append(zero_block)
    # full rank 40 = rows, reached at column 40 of the first panel
    matrices.append(low_rank(40, 200, 40))
    # sparse: most pivots lie off the diagonal, so each panel takes its pivot
    # rows out of order, and the rows it leaves carry into the next panels
    for density in (0.01, 0.02, 0.04):
        matrices.append(rng.integers(1, p, (200, 200)) * (rng.random((200, 200)) < density))
    # products of sparse factors: the rows a panel leaves come out of order,
    # some of them a block of consecutive rows that add_product must not take
    # for a view
    for _ in range(40):
        n, m = rng.integers(10, 70), rng.integers(97, 160)
        r = rng.integers(1, n + 1)
        left = rng.integers(0, p, (n, r)) * (rng.random((n, r)) < 0.1)
        matrices.append(left @ (rng.integers(0, p, (r, m)) * (rng.random((r, m)) < 0.3)))
    return [(m.tolist(), reference_rank_mod_p(m.tolist(), p)) for m in matrices]


@pytest.mark.parametrize(
    "whole_columns, panel", [(0, 64), (0, 4), (1 << 20, 64)], ids=["panel64", "panel4", "whole"]
)
def test_rank_mod_p_across_64_column_panels(monkeypatch, panel_cases, whole_columns, panel):
    monkeypatch.setattr(exactmath, "WHOLE_COLUMNS", whole_columns)
    monkeypatch.setattr(exactmath, "PANEL", panel)
    ranks = [rank for _, rank in panel_cases]
    assert ranks[:4] == [130, 129, 100, 40]
    assert 0 < ranks[4] < ranks[5] < ranks[6] <= 200
    for matrix, rank in panel_cases:
        assert rank_mod_p(matrix, 32003) == rank


def test_rank_mod_p_refuses_inexact_input():
    with pytest.raises(ValueError, match="past exact float64"):
        rank_mod_p([[1]], (1 << 31) - 1)  # 64 * (p-1)^2 is past 2^52
    # one column is one panel: p + 2 * 64 * (p-1)^2 passes 2^52 between these primes
    with pytest.raises(ValueError, match="past exact float64"):
        rank_mod_p([[1]], 5931649)
    assert rank_mod_p([[1]], 5931641) == 1
    with pytest.raises(ValueError, match="past exact float64"):
        rank_mod_p([[float(1 << 53)]], 32003)
