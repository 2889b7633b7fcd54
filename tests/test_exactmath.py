import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from wfano import exactmath
from wfano.exactmath import (
    MAX_ROOT_COEFF_BITS,
    SmithForm,
    common_interior_degree,
    mat_det,
    mat_mul,
    poly_gcd,
    rank_mod_p,
    rational_roots,
    smith_normal_form,
    triple_matrix,
    univariate_rational_roots,
)
from wfano.symalg import partial_derivative, reference_support, sample_general_member, slice_numerators

from conftest import scaled


def _primitive(vectors: list[list[int]]) -> bool:
    """Do the integer vectors have maximal minors of gcd 1, i.e. extend to a
    basis of the integer lattice?  Euclid's algorithm on the unused
    coordinates of each vector in turn, applied to the later vectors too,
    keeps that gcd and leaves one nonzero coordinate, which must be +-1."""
    vs = [list(v) for v in vectors]
    free = set(range(len(vs[0]))) if vs else set()
    for k, v in enumerate(vs):
        while len(support := sorted((j for j in free if v[j]), key=lambda j: abs(v[j]))) > 1:
            p = support[0]
            for j in support[1:]:
                q = v[j] // v[p]
                for w in vs[k:]:
                    w[j] -= q * w[p]
        if not support or abs(v[support[0]]) != 1:
            return False
        free.remove(support[0])
    return True


def verify_smith_form(s: SmithForm, original) -> bool:
    """Is s.right unimodular, with L * A * R = D for some unimodular L?  L
    exists iff the columns of A * R past the rank r are zero and column k < r
    is d_k * u_k, where u_0, ..., u_{r-1} extend to a basis (L inverts it)."""
    rows = len(original)
    cols = len(original[0]) if rows else 0
    nz = [d for d in s.diagonal if d]
    r = len(nz)
    shaped = list(s.diagonal) == nz + [0] * (min(rows, cols) - r) and all(d > 0 for d in nz)
    if not shaped or len(s.right) != cols or abs(mat_det(s.right)) != 1:
        return False
    prod = mat_mul(original, s.right)
    columns = [[row[k] for row in prod] for k in range(cols)]
    if any(any(c) for c in columns[r:]) or any(x % d for d, c in zip(nz, columns) for x in c):
        return False
    chain = all(nz[i + 1] % nz[i] == 0 for i in range(r - 1))
    return chain and _primitive([[x // d for x in c] for d, c in zip(nz, columns)])

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


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
    assert verify_smith_form(z, [[0, 0], [0, 0]])
    i3 = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert i3.diagonal == (1, 1, 1)


def test_smith_normal_form_hand_checked():
    # [[2,0],[0,4]] is already diagonal; [[2,4],[4,2]] row-reduces to (2, 6)
    assert smith_normal_form([[2, 0], [0, 4]]).diagonal == (2, 4)
    s = smith_normal_form([[2, 4], [4, 2]])
    assert s.diagonal == (2, 6)
    assert verify_smith_form(s, [[2, 4], [4, 2]])


def test_smith_form_verify_rejects_forgeries():
    a = [[2, 4], [4, 2]]
    right = smith_normal_form(a).right
    # wrong diagonals: column 0 of A * R is 2 * u_0 with u_0 primitive
    assert not verify_smith_form(SmithForm((1, 12), right), a)
    assert not verify_smith_form(SmithForm((4, 3), right), a)
    assert not verify_smith_form(SmithForm((2,), right), a)
    # non-unimodular right transform; everything else would pass
    assert verify_smith_form(SmithForm((2,), ((1,),)), [[2]])
    assert not verify_smith_form(SmithForm((2,), ((2,),)), [[1]])
    # non-primitive columns: no unimodular L maps 2 to 1
    assert not verify_smith_form(SmithForm((1,), ((1,),)), [[2]])
    # each column primitive, but together they span an index-2 lattice
    assert not verify_smith_form(SmithForm((1, 1), ((1, 0), (0, 1))), [[1, 1], [1, -1]])
    assert smith_normal_form([[1, 1], [1, -1]]).diagonal == (1, 2)
    # a column past the rank that is not zero
    assert not verify_smith_form(SmithForm((1,), ((1, 0), (0, 1))), [[1, 1]])


def test_smith_form_verify_rejects_scaled_divisors():
    rng = random.Random(13)
    for _ in range(100):
        a = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]]
        a += [[rng.randint(-9, 9) for _ in range(len(a[0]))] for _ in range(rng.randint(0, 4))]
        s = smith_normal_form(a)
        for k, d in enumerate(s.diagonal):
            if d:
                forged = s.diagonal[:k] + (2 * d,) + s.diagonal[k + 1 :]
                assert not verify_smith_form(SmithForm(forged, s.right), a)


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
        assert verify_smith_form(s, a)
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
        assert verify_smith_form(s, a)


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
    assert all(verify_smith_form(s, a) for s, a in zip(forms, _smith_cases()))


def test_common_interior_degree():
    # entry i multiplies u^(n-i) v^i: a leading zero is a factor v, vanishing
    # at [1:0], and a trailing zero a factor u, vanishing at [0:1]; the
    # coefficients are integers, as the member's edge slices are

    def from_int_roots(roots):
        return [int(c) for c in from_roots(roots)]

    split = from_int_roots((1, 2))  # (v - u)(v - 2u)
    # one form: the degree of its core, with the zero ends on both sides cut off
    assert common_interior_degree([[0, 0, *split, 0]]) == 2
    assert common_interior_degree([[0, 5, 0]]) == 0
    # shared interior roots, with multiplicity and over the algebraic closure
    assert common_interior_degree([[0, *split], [*split, 0, 0]]) == 2
    assert common_interior_degree([from_int_roots((1, 1, 2)), [0, *from_int_roots((1, 1, 3))]]) == 2
    # (v^2 - 2u^2)(v - u) and (v^2 - 2u^2)(v + u)
    assert common_interior_degree([[2, -2, -1, 1], [-2, -2, 1, 1]]) == 2
    # u*v*(v - u) and u*v*(v - 2u) share only [1:0] and [0:1]; v^2 and u^2*v only [1:0]
    assert common_interior_degree([[0, *from_int_roots((1,)), 0], [0, *from_int_roots((2,)), 0]]) == 0
    assert common_interior_degree([[0, 0, 1], [0, 1, 0, 0]]) == 0
    # every two of three forms share a root, all three none
    assert common_interior_degree([from_int_roots((1, 2)), from_int_roots((2, 3)), from_int_roots((1, 3))]) == 0


def fraction_poly_rem(a, b):
    """The remainder of a divided by b over Q (trimmed; b has a nonzero lead)."""
    a = a[:]
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - len(b)
        c = a[-1] / b[-1]
        for i, bc in enumerate(b):
            a[i + k] -= c * bc
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def fraction_poly_gcd(a, b):
    """Monic gcd over Q by Euclid on Fractions: the oracle of ``poly_gcd``."""
    pa, pb = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while pb:
        pa, pb = pb, fraction_poly_rem(pa, pb)
    return [c / pa[-1] for c in pa]


def core(form):
    """A binary form without its zero end coefficients."""
    nonzero = [i for i, c in enumerate(form) if c]
    return list(form[nonzero[0] : nonzero[-1] + 1])


def reference_common_interior_degree(forms):
    """``common_interior_degree`` by the Fraction Euclid, core by core."""
    g = []
    for b in forms:
        g = fraction_poly_gcd(g, core(b)) if g else core(b)
        if len(g) <= 1:
            return 0
    return len(g) - 1


def assert_gcd_matches_the_oracle(a, b):
    g = poly_gcd(a, b)
    assert g[-1] > 0 and gcd(*g) == 1 and all(isinstance(c, int) for c in g)
    oracle = fraction_poly_gcd(a, b)
    assert [Fraction(c, g[-1]) for c in g] == oracle
    return oracle


def test_poly_gcd_against_the_fraction_euclid():
    # binary forms with planted common factors (rational roots, repeated
    # roots, quadratics that are often irreducible) and Fraction or integer
    # entries; each form is also padded with zero ends for
    # common_interior_degree, which must cut them off
    rng = random.Random(37)

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def factor():
        if rng.random() < 0.3:
            return [rng.randint(1, 9), rng.randint(-5, 5), rng.randint(1, 9)]
        root = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 6))
        return from_roots((root,), lead=rng.randint(1, 7))

    for case in range(400):
        shared = [1]
        for _ in range(rng.randint(0, 3)):
            shared = mul(shared, factor())
        forms = []
        for _ in range(rng.randint(2, 4)):
            f = shared
            for _ in range(rng.randint(0, 3)):
                f = mul(f, factor())
            scale = rng.choice([-3, -1, 1, 2, Fraction(1, 5)])
            f = [c * scale for c in f]
            if case % 2:
                den = lcm_of_denominators(f)
                f = [int(c * den) for c in f]
            forms.append(f)
        degree = reference_common_interior_degree(forms)
        assert degree >= len(shared) - 1
        integer = [[int(c * lcm_of_denominators(f)) for c in f] for f in forms]
        padded = [[0] * rng.randint(0, 2) + f + [0] * rng.randint(0, 2) for f in integer]
        assert common_interior_degree(padded) == degree
        for a, b in combinations(integer, 2):
            assert_gcd_matches_the_oracle(a, b)
            assert_gcd_matches_the_oracle(b, a)
    # constants, and a gcd that is one of the inputs
    assert poly_gcd([6], [2, 4]) == poly_gcd([2, 4], [-3]) == [1]
    assert poly_gcd([-2, 0, 2], [3, -3]) == [-1, 1]
    assert poly_gcd([4, 0, -4], [6, 6]) == [1, 1]


def edge_forms(f):
    """The nonzero slices, on each coordinate edge, of the partials of f's
    primitive integer multiple: the forms ``quasismooth_member`` checks."""
    primitive = scaled(f, Fraction(f.den, gcd(*f.num.values())))
    partials = [partial_derivative(primitive, k) for k in range(5)]
    for pair in combinations(range(5), 2):
        yield [form for g in partials if any(form := slice_numerators(g, pair))]


def test_poly_gcd_on_the_member_edges(default_catalog):
    # every edge of the 26 benchmark members and of the seed-0 catalog members
    records, _ = default_catalog
    members = [f for _, _, f in workloads.member_inputs(quick=False)]
    members += [sample_general_member(r.ws, seed=0) for r in records]
    assert len(members) == 156
    edges = [forms for f in members for forms in edge_forms(f)]
    assert len(edges) == 1560 and all(len(forms) >= 2 for forms in edges)
    for forms in edges:
        # the oracle's fold, as reference_common_interior_degree makes it,
        # checking the first gcd on the way
        first, second, *rest = map(core, forms)
        oracle = assert_gcd_matches_the_oracle(first, second)
        for c in rest:
            if len(oracle) <= 1:
                break
            oracle = fraction_poly_gcd(oracle, c)
        assert common_interior_degree(forms) == len(oracle) - 1


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


#: the largest prime that rank_mod_p admits, (64 * (p-1)^2 + p) * (p-1) < 2^52,
#: and the next prime
LARGEST_PRIME, NEXT_PRIME = 41281, 41299


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


def test_whole_elimination_swaps_rows_and_keeps_multipliers_exact():
    # at most WHOLE_COLUMNS columns, so rank_mod_p eliminates whole; a zero
    # diagonal entry in column 0 makes it search the rows below and swap.
    # The low rank shows a wrong multiplier as a rank too high, and at
    # LARGEST_PRIME a scaled pivot row left unreduced, times a residue,
    # would pass 2^53
    assert exactmath.WHOLE_COLUMNS >= 64
    for p in (32003, LARGEST_PRIME):
        rng = random.Random(p)
        for n, m, r in [(40, 40, 30), (64, 64, 50), (70, 30, 20), (20, 64, 12)]:
            matrix = random_rank_matrix(rng, n, m, r, p)
            matrix[0][0] = 0
            matrix[1:] = rng.sample(matrix[1:], n - 1)
            rank = reference_rank_mod_p(matrix, p)
            assert r <= rank <= r + 1
            assert rank_mod_p(matrix, p) == rank


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
    import numpy as np

    # (PANEL * (p-1)^2 + p) * (p-1) passes 2^52 between LARGEST_PRIME and
    # NEXT_PRIME, at any width
    for p in (NEXT_PRIME, 65521, 5931641, (1 << 31) - 1):
        with pytest.raises(ValueError, match="past exact float64"):
            rank_mod_p([[1]], p)
    assert rank_mod_p([[1]], LARGEST_PRIME) == 1
    assert rank_mod_p([[LARGEST_PRIME - 1] * 3] * 2, LARGEST_PRIME) == 1
    # a panel's trailing entry collects one sum per panel, so the width
    # bounds them as well: p + panels * PANEL * (p-1)^2 < 2^52
    with pytest.raises(ValueError, match="past exact float64"):
        rank_mod_p(np.zeros((0, 64 * 41296)), LARGEST_PRIME)
    with pytest.raises(ValueError, match="past exact float64"):
        rank_mod_p([[float(1 << 53)]], 32003)


@pytest.mark.parametrize("whole_columns", [1 << 20, 0], ids=["whole", "panels"])
def test_rank_mod_p_worst_case_magnitudes_at_the_largest_prime(monkeypatch, whole_columns):
    # M = L U with 1 on L's diagonal and 2 below it, and U of rank r with
    # (p-1)/2 on its diagonal and (p+1)/2 above it.  Every multiplier and
    # every entry of a pivot row scaled by the pivot's inverse p-2 is then
    # p-1, so each product subtracted is (p-1)^2 and the sums only grow.
    # Without the whole elimination's reduction every PANEL pivots, a scaled
    # pivot row passes 2^53 after about 130 pivots, and the inverse is odd,
    # so those products are not all even and lose their last bit
    import numpy as np

    monkeypatch.setattr(exactmath, "WHOLE_COLUMNS", whole_columns)
    p, n, r = LARGEST_PRIME, 200, 180
    lower = 2 * np.tril(np.ones((n, n), dtype=np.int64), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(np.full((n, n), (p + 1) // 2), 1)
    np.fill_diagonal(upper, (p - 1) // 2)
    upper[r:] = 0
    assert pow((p - 1) // 2, -1, p) == p - 2
    matrix = (lower @ upper % p).tolist()
    assert rank_mod_p(matrix, p) == reference_rank_mod_p(matrix, p) == r


@pytest.mark.parametrize("pairs", [(5, 64, 100), (30, 63, 110)])
def test_rank_mod_p_searches_when_the_update_zeroes_the_diagonal(monkeypatch, pairs):
    # M is L U with rows k and k+1 swapped for each k of pairs, where
    # L[k+1, k] = 0.  M[k, k] is nonzero, but the first k pivots make the
    # diagonal entry of column k zero, since M's leading (k+1)-minor
    # vanishes and its k-minor does not: the pivot is then found below and
    # rows swap, after the update within a panel or, where k starts one
    # (64, and 100 in 4-column panels), the update of the panels before.
    # M has full column rank, so a column skipped in place of the search
    # shows as a rank too low
    import numpy as np

    p, n, m = 32003, 140, 120
    rng = np.random.default_rng(sum(pairs))
    lower = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(1, p, (n, m)))
    for k in pairs:
        lower[k + 1, k] = 0
    matrix = lower @ upper % p
    for k in pairs:
        matrix[[k, k + 1]] = matrix[[k + 1, k]]
    matrix = matrix.tolist()
    for k in pairs:
        assert matrix[k][k]
        leading = [row[: k + 1] for row in matrix[: k + 1]]
        assert reference_rank_mod_p([row[:k] for row in leading[:k]], p) == reference_rank_mod_p(leading, p) == k
    assert reference_rank_mod_p(matrix, p) == m
    for whole_columns, panel in [(0, 64), (0, 4), (1 << 20, 64)]:
        monkeypatch.setattr(exactmath, "WHOLE_COLUMNS", whole_columns)
        monkeypatch.setattr(exactmath, "PANEL", panel)
        assert rank_mod_p(matrix, p) == m


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "set"])
def test_openblas_runs_on_the_calling_thread(preset):
    # conftest loaded numpy in this process, so a fresh one imports wfano
    # first, as a user or a spawned worker does
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import os, sys, wfano; from wfano import exactmath; "
        "assert exactmath.rank_mod_p([[1, 2], [3, 4]], 7) == 2 and 'numpy' in sys.modules; "
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    threads, value = result.stdout.split()
    if preset:
        assert value == preset  # a value the user set is kept
    else:
        assert (threads, value) == ("1", "1")


def mutual_reachability(successors):
    """The strongly connected components as sets, by a search from every vertex."""
    reach = []
    for v in range(len(successors)):
        seen, todo = {v}, [v]
        while todo:
            for w in successors[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    return {frozenset(w for w in reach[v] if v in reach[w]) for v in range(len(successors))}


def random_digraph(rng, kind, n):
    """Successor lists of a seeded digraph on n vertices, self-loops at random."""
    edges = set()
    order = rng.sample(range(n), n)  # the vertices relabelled at random
    if kind == "cycle":
        edges.update(zip(order, order[1:] + order[:1]))
    elif kind == "nested":
        # a path with back edges over random intervals: cycles inside cycles,
        # merged where their intervals overlap
        edges.update(zip(order, order[1:]))
        for _ in range(rng.randint(1, n // 3 + 1)):
            a = rng.randrange(n)
            b = rng.randrange(a, min(n, a + rng.randint(1, n)))
            edges.add((order[b], order[a]))
    else:  # a DAG of cycles: groups in a random order, edges between them only forward
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 8))))
        groups = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        for g in groups:
            edges.update(zip(g, g[1:] + g[:1]))
            edges.update((rng.choice(g), rng.choice(g)) for _ in range(rng.randint(0, len(g))))
        for _ in range(rng.randint(0, 2 * n)):
            a, b = sorted(rng.sample(range(len(groups)), 2)) if len(groups) > 1 else (0, 0)
            edges.add((rng.choice(groups[a]), rng.choice(groups[b])))
    edges.update((v, v) for v in range(n) if rng.random() < 0.5)
    successors = [[] for _ in range(n)]
    for v, w in sorted(edges, key=lambda e: rng.random()):
        successors[v].append(w)
    return successors


def test_strong_components_against_mutual_reachability():
    rng = random.Random(1972)
    for case in range(300):
        kind = ("cycle", "nested", "dag")[case % 3]
        successors = random_digraph(rng, kind, rng.randint(1, 40))
        components = exactmath.strong_components(successors)
        assert {frozenset(c) for c in components} == mutual_reachability(successors), (case, kind)
        assert all(c == sorted(c) for c in components)
        assert sorted(v for c in components for v in c) == list(range(len(successors)))
        # reverse topological order: every edge leads into its own component or an earlier one
        position = {v: k for k, c in enumerate(components) for v in c}
        assert all(position[w] <= position[v] for v, ws in enumerate(successors) for w in ws), (case, kind)
        if kind == "cycle":
            assert len(components) == 1


def test_strong_components_of_long_paths_and_cycles():
    # thousands of vertices deep: the search keeps its own stack
    n = 5000
    path = [[v + 1] for v in range(n - 1)] + [[]]
    assert exactmath.strong_components(path) == [[v] for v in reversed(range(n))]
    assert exactmath.strong_components(path[:-1] + [[0]]) == [list(range(n))]
    assert exactmath.strong_components([]) == []


def zero_free_case(rng, sizes, plant=None):
    """A seeded sparse n x n matrix mod 32003 with a zero-free diagonal whose
    components are groups of the given sizes (each a cycle with chords, the
    vertices relabelled), with entries between groups in one direction only.
    ``plant`` "pair" makes the first group of size 2 [[1, 1], [1, 1]];
    "rows" makes two rows of the first group of size at least 4 equal, with
    [[1, 1], [1, 1]] on their two diagonal slots, so that group's block is singular."""
    import numpy as np

    p = 32003
    n = sum(sizes)
    order = rng.permutation(n)
    groups = np.split(order, np.cumsum(sizes)[:-1])
    a = np.zeros((n, n), dtype=np.int64)
    for g in groups:
        a[g, g] = rng.integers(1, p, len(g))
        if len(g) > 1:
            a[g, np.roll(g, -1)] = rng.integers(1, p, len(g))
            chords = rng.integers(0, len(g), (len(g), 2))
            a[g[chords[:, 0]], g[chords[:, 1]]] = rng.integers(1, p, len(g))
    for _ in range(2 * n):
        i, j = np.sort(rng.choice(len(groups), 2, replace=len(groups) == 1))
        a[rng.choice(groups[j]), rng.choice(groups[i])] = rng.integers(1, p)
    if plant == "pair":
        u, v = next(g for g in groups if len(g) == 2)
        a[np.ix_([u, v], [u, v])] = 1
    elif plant == "rows":
        g = next(g for g in groups if len(g) >= 4)
        u, v = g[:2]
        a[u, g[2]] = a[u, g[2]] or 1  # carries the cycle's edge from v on
        a[v] = a[u]
        a[np.ix_([u, v], [u, v])] = 1
    return a, groups


@pytest.mark.parametrize("whole_columns", [96, 0])
def test_diagonal_blocks_against_the_whole_square(monkeypatch, whole_columns):
    import numpy as np

    monkeypatch.setattr(exactmath, "WHOLE_COLUMNS", whole_columns)
    p = 32003
    rng = np.random.default_rng(1978)
    outcomes = []
    for case in range(60):
        plant = (None, "pair", "rows")[case % 3]
        if whole_columns:  # past WHOLE_COLUMNS, so the square is decomposed
            sizes = [2, 60, 1, 1, 4, 45, 3, 1]
        else:
            sizes = list(rng.integers(1, 9, rng.integers(3, 9))) + [2, 5]
        a, groups = zero_free_case(rng, rng.permutation(sizes), plant)
        n = len(a)
        rows, cols = np.nonzero(a)
        # each row's entries together, the rows in a shuffled order, as the
        # Macaulay rows of several partials interleave
        place = np.random.default_rng(case).permutation(n)
        shuffled = np.argsort(place[rows], kind="stable")
        entries = [(rows[shuffled], cols[shuffled], a[rows, cols][shuffled].astype(np.float64))]
        blocks = list(exactmath.diagonal_blocks(n, entries))
        # the blocks are the components past size 1, in reverse topological
        # order, each the submatrix on its vertices in ascending order
        components = [sorted(g.tolist()) for g in groups if len(g) > 1]
        taken = [next(c for c in components if len(c) == len(b) and (a[np.ix_(c, c)] == b).all()) for b in blocks]
        assert sorted(taken) == sorted(components), case
        position = {v: k for k, c in enumerate(taken) for v in c}
        assert all(position[c] <= position[r] for r, c in zip(rows, cols) if r in position and c in position)
        full = all(rank_mod_p(b, p) == len(b) for b in blocks)
        assert full == (rank_mod_p(a, p) == n), case
        if plant:
            assert not full, case
        outcomes.append(full)
    assert outcomes.count(True) == 20


def test_diagonal_blocks_refuse_a_row_split_in_two_runs():
    import numpy as np

    n = 100
    rows, cols = np.arange(n), np.arange(n)
    tail = (np.array([0]), np.array([1]), np.array([1.0]))
    assert list(exactmath.diagonal_blocks(n, [(rows[1:], cols[1:], 1.0), (rows[:1], cols[:1], 1.0), tail])) == []
    with pytest.raises(ValueError, match="consecutive"):
        list(exactmath.diagonal_blocks(n, [(rows, cols, 1.0), tail]))


def test_diagonal_blocks_yield_a_small_square_whole():
    import numpy as np

    a = np.diag(np.arange(1.0, 97.0))
    a[0, 95] = 5.0
    rows, cols = np.nonzero(a)
    [square] = exactmath.diagonal_blocks(96, [(rows, cols, a[rows, cols])])
    assert (square == a).all()
    assert exactmath.WHOLE_COLUMNS == 96
