import hashlib
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from math import comb, gcd, prod
from pathlib import Path

import pytest

from wfano import symalg
from wfano.exactmath import rank_mod_p, rational_roots
from wfano.symalg import (
    MACAULAY_PRIMES,
    MAX_MACAULAY_COLUMNS,
    GenericityError,
    GradedPolynomial,
    MacaulayCheck,
    NormalizationPlan,
    PlanOrderError,
    REFERENCE_TABLES,
    ShiftPass,
    SliceSplit,
    Substitution,
    builtin_plan,
    family_weight_system,
    format_polynomial,
    normalize,
    partial_derivative,
    quasismooth_member,
    reference_support,
    sample_family_member,
    sample_general_member,
    slice_numerators,
    substitute,
)
from wfano.symalg import _canonical_rational_root, _macaulay_rank, _solve_linear, _substitute_ints
from wfano.symalg import _pack, _unpack, _width
from wfano.symalg import _CHECKS
from wfano.wspace import (
    count_monomials, enumerate_monomials, format_monomial, parse_monomial, parse_monomial_set, weight_system,
)

from conftest import parse_polynomial, polynomial, scaled
from normal_form import apply_pair_map, cubic_normal_form

SYMMETRY_FAMILIES = (19, 28, 39, 49, 59, 66, 84)


def random_polynomial(ws, grade, rng, density=0.5):
    terms = {}
    for m in enumerate_monomials(ws, grade):
        if rng.random() < density:
            c = rng.randint(-9, 9)
            if c:
                terms[m] = Fraction(c)
    return polynomial(ws, grade, terms)


def random_substitution(ws, rng):
    var = rng.randrange(5)
    tail_terms = {}
    for m in enumerate_monomials(ws, ws.weights[var]):
        if m[var] == 0 and rng.random() < 0.6:
            c = rng.randint(-4, 4)
            if c:
                tail_terms[m] = Fraction(c)
    return Substitution(var, polynomial(ws, ws.weights[var], tail_terms))


def test_substitution_validation():
    ws = weight_system(1, 2, 3, 3, 4, 12)
    with pytest.raises(ValueError):
        Substitution(4, polynomial(ws, 3, {parse_monomial("z"): Fraction(1)}))
    with pytest.raises(ValueError):
        # tail must not involve the target variable
        Substitution(3, polynomial(ws, 3, {parse_monomial("t"): Fraction(1)}))


def test_substitute_identity_and_grade():
    ws = weight_system(1, 2, 3, 3, 4, 12)
    rng = random.Random(2)
    f = random_polynomial(ws, 12, rng)
    ident = Substitution(4, polynomial(ws, 4, {}))
    assert substitute(f, ident) is f
    assert _substitute_ints(f.num, f.den, 4, ident.tail) == (f.num, f.den)


def test_substitute_invertible_randomized():
    # 1000 cases of grade preservation plus exact inversion
    rng = random.Random(6)
    ws = weight_system(1, 2, 3, 3, 4, 12)
    for _ in range(1000):
        f = random_polynomial(ws, 12, rng, density=0.3)
        s = random_substitution(ws, rng)
        g = substitute(f, s)
        assert g.grade == 12
        assert substitute(g, Substitution(s.target, scaled(s.tail, -1))).terms == f.terms


def fraction_substitute(f, sub):
    """x_j -> x_j + tail by the binomial theorem, every step in Fraction."""
    j, zero = sub.target, (0,) * 5
    tail_powers = [{zero: Fraction(1)}]
    for _ in range(max((m[j] for m in f.terms), default=0)):
        nxt = {}
        for ma, ca in tail_powers[-1].items():
            for mb, cb in sub.tail.terms.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                nxt[m] = nxt.get(m, Fraction(0)) + ca * cb
        tail_powers.append(nxt)
    out = {}
    for m, c in f.terms.items():
        e = m[j]
        for i in range(e + 1):  # comb(e, i) * x_j^(e - i) * tail^i
            for mt, ct in tail_powers[i].items():
                key = tuple(a + b for a, b in zip(m, mt))
                key = key[:j] + (key[j] - i,) + key[j + 1 :]
                out[key] = out.get(key, Fraction(0)) + c * comb(e, i) * ct
    return {m: v for m, v in out.items() if v}


@pytest.mark.parametrize("family", (19, 39, 66, 84))
def test_substitute_against_fraction_expansion(family):
    # rational members and multi-term tails with denominators
    rng = random.Random(family)
    f = sample_family_member(family, seed=3)
    ws = f.ws
    for _ in range(25):
        g = scaled(f, Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 9)))
        g = polynomial(ws, g.grade, {m: c / rng.randint(1, 5) for m, c in g.terms.items()})
        var = rng.randrange(5)
        tail = {
            m: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12))
            for m in enumerate_monomials(ws, ws.weights[var])
            if m[var] == 0 and rng.random() < 0.7
        }
        s = Substitution(var, polynomial(ws, ws.weights[var], tail))
        out = substitute(g, s)
        assert out.terms == fraction_substitute(g, s)
        assert all(type(c) is Fraction for c in out.terms.values())
        assert substitute(out, Substitution(s.target, scaled(s.tail, -1))) == g


def unpacked(num, ws):
    """Packed integer numerators keyed by exponent tuples again."""
    return {_unpack(m, _width(ws.degree)): v for m, v in num.items()}


def test_substitute_cancellation_stores_no_zero():
    # t -> t - 3/4*x^3 on 2/3*t*z^3 + 1/2*x^3*z^3 cancels the x^3*z^3 term
    ws = weight_system(1, 2, 3, 3, 4, 12)
    f = parse_polynomial("2/3*t*z^3 + 1/2*x^3*z^3", ws, 12)
    sub = Substitution(3, polynomial(ws, 3, {parse_monomial("x^3"): Fraction(-3, 4)}))
    assert substitute(f, sub).terms == {parse_monomial("t*z^3"): Fraction(2, 3)}
    num, den = _substitute_ints(f.num, f.den, 3, sub.tail)
    assert (unpacked(num, ws), den) == ({parse_monomial("t*z^3"): 2}, 3)


def test_substitute_rational_tail_on_integer_member():
    # a tail with denominator q > 1 on a member with integer coefficients
    f = sample_family_member(39, seed=1)
    assert all(c.denominator == 1 for c in f.terms.values())
    ws = f.ws
    tail = {parse_monomial("x*y"): Fraction(5, 6), parse_monomial("x^4"): Fraction(-7, 4)}
    s = Substitution(2, polynomial(ws, ws.weights[2], tail))
    num, den = _substitute_ints(f.num, f.den, 2, s.tail)
    assert den > 1 and gcd(den, *num.values()) == 1
    assert {m: Fraction(v, den) for m, v in unpacked(num, ws).items()} == fraction_substitute(f, s)
    assert substitute(f, s).terms == fraction_substitute(f, s)


def test_substitute_sparse_grade_300_against_fraction_expansion():
    # exponents past 255 need wider fields than a byte: 2^10 > 2 * 300
    ws = weight_system(1, 1, 2, 3, 5, 300)
    f = parse_polynomial("x^300 + 2/3*x^285*t^5 - 5/4*y^270*z^3*t^8 + 7*x*y^2*z^6*t^5*w^54", ws, 300)
    s = Substitution(3, parse_polynomial("1/2*x^3 - 2/3*x*z + 5/7*y^3", ws, 3))
    expected = fraction_substitute(f, s)
    assert max(map(max, expected)) == 300 and len(expected) > 100
    num, den = _substitute_ints(f.num, f.den, 3, s.tail)
    assert {m: Fraction(v, den) for m, v in unpacked(num, ws).items()} == expected
    assert substitute(substitute(f, s), Substitution(s.target, scaled(s.tail, -1))) == f


@pytest.mark.parametrize("grade", [1, 12, 127, 128, 300])
def test_packed_keys_round_trip_at_the_grade_width(grade):
    w = _width(grade)
    assert 2 ** (w - 1) <= 2 * grade < 2**w
    monomials = enumerate_monomials(weight_system(1, 17, 19, 23, 29, grade), grade)
    monomials += [tuple(grade if k == v else 0 for k in range(5)) for v in range(5)]
    assert [_unpack(_pack(m, w), w) for m in monomials] == monomials


def test_packed_keys_of_signed_digits_are_distinct():
    # the kernel's keys have digits in [-grade, grade]: at grade 3, 7 values
    # fit 3-bit fields, and 2-bit fields would merge some vectors
    vectors = list(product(range(-3, 4), repeat=5))
    assert len({_pack(v, _width(3)) for v in vectors}) == len(vectors)
    assert len({_pack(v, 2) for v in vectors}) < len(vectors)
    # packing is linear, so a product of monomials is a sum of keys
    assert _pack((3, -1, 0, 2, 0), 3) + _pack((-3, 1, 0, 0, 1), 3) == _pack((0, 0, 0, 2, 1), 3)


def test_a_grade_past_the_keys_is_refused():
    ws = weight_system(1, 1, 1, 1, 1, 4)
    with pytest.raises(ValueError, match="grade-5 form is past the packed keys of degree 4"):
        parse_polynomial("x^5", ws, 5)


@pytest.mark.parametrize("family", SYMMETRY_FAMILIES)
def test_normalize_replays_with_fraction_substitution(family):
    # the integer plan agrees with replaying its substitutions in Fraction
    for seed in (0, 1, 2, 3, 4, 35):
        f = sample_family_member(family, seed=seed)
        g, applied = normalize(f, builtin_plan(family))
        h = f
        for sub in applied:
            h = polynomial(f.ws, f.grade, fraction_substitute(h, sub))
        assert h.terms == g.terms, seed
        assert all(type(c) is Fraction for c in g.terms.values())


def test_substitute_kills_square_layer():
    # w -> w - g/3 on w^3 + w^2*g clears the w^2 coefficient
    ws = weight_system(1, 1, 2, 3, 3, 9)
    tail = polynomial(ws, 3, {parse_monomial("t"): Fraction(-2, 3)})
    f = parse_polynomial("w^3 + 2*w^2*t", ws, 9)
    out = substitute(f, Substitution(4, tail))
    assert all(m[4] != 2 for m in out.terms)


def test_specific_elimination_family_39_style():
    # t^3*y + t^3*x^3 over (1,3,4,5,6): y -> y - x^3 removes t^3*x^3
    ws = weight_system(1, 3, 4, 5, 6, 18)
    f = parse_polynomial("t^3*y + t^3*x^3", ws, 18)
    sub = Substitution(1, polynomial(ws, 3, {parse_monomial("x^3"): Fraction(-1)}))
    out = substitute(f, sub)
    assert out.terms.get(parse_monomial("t^3*x^3"), 0) == 0
    assert out.terms.get(parse_monomial("t^3*y"), 0) == 1


def test_sampler_full_support_and_determinism():
    ws = weight_system(1, 1, 1, 1, 1, 4)
    f = sample_general_member(ws, seed=0)
    assert len(f.terms) == 70
    g = sample_general_member(ws, seed=0)
    assert f.terms == g.terms
    h = sample_general_member(ws, seed=1)
    assert h.terms != f.terms


def test_sampled_members_of_the_catalog_are_pinned(default_catalog):
    # the text of the seed-0 and seed-1 members of the 130 catalog families
    records, _ = default_catalog
    texts = [format_polynomial(sample_general_member(r.ws, seed)) for r in records for seed in (0, 1)]
    assert len(texts) == 260
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "bfc343a3efbbd832a79f62dd9eb2faf87f67f5af6282db6427da345aa06e0e36"


def test_polynomial_stores_one_integer_form():
    ws = weight_system(1, 2, 3, 3, 4, 12)
    f = parse_polynomial("2/3*t*z^3 - 1/2*x^3*z^3 + 5*w^3", ws, 12)
    w = _width(12)
    assert f.den == 6
    assert f.num == {_pack(parse_monomial("t*z^3"), w): 4, _pack(parse_monomial("x^3*z^3"), w): -3,
                     _pack(parse_monomial("w^3"), w): 30}
    # ints and Fractions of equal value give one form; the view is built on demand
    g = polynomial(ws, 12, {parse_monomial("w^3"): 5, parse_monomial("t*z^3"): Fraction(2, 3),
                                  parse_monomial("x^3*z^3"): Fraction(-1, 2)})
    assert g == f and "terms" not in g.__dict__
    assert g.terms == {parse_monomial("w^3"): 5, parse_monomial("t*z^3"): Fraction(2, 3),
                       parse_monomial("x^3*z^3"): Fraction(-1, 2)}
    assert "terms" in g.__dict__ and g.support == frozenset(g.terms)
    with pytest.raises(TypeError):
        g.terms[parse_monomial("w^3")] = Fraction(1)  # a read-only view
    # a pickled polynomial carries the integer form only, and comes back equal
    back = pickle.loads(pickle.dumps(g))
    assert back == g and "terms" not in back.__dict__


def key(text):
    """The packed key of a monomial over weight_system(1, 2, 3, 3, 4, 12)."""
    return _pack(parse_monomial(text), _width(12))


@pytest.mark.parametrize(
    "grade,num,den,message",
    [
        (12, {key("w^3"): 0}, 1, "zero coefficient"),
        (12, {key("w^2"): 1}, 1, "w\\^2 has degree 8, not 12"),
        (12, {-1: 1}, 1, "has degree"),  # a key with a negative digit
        (12, {1 << 5 * _width(12): 1}, 1, "has degree 0, not 12"),  # a sixth digit
        (12, {key("w^3"): 1}, 0, "denominator 0"),
        (12, {key("w^3"): 1}, -2, "denominator -2"),
        (12, {key("w^3"): 4, key("t^4"): 6}, 4, "denominator 4"),  # gcd 2
        (13, {}, 1, "grade-13 form is past the packed keys of degree 12"),
    ],
    ids=["zero", "grade", "negative-digit", "past-the-digits", "den-zero", "den-negative", "gcd", "past-the-degree"],
)
def test_integer_form_is_checked(grade, num, den, message):
    with pytest.raises(ValueError, match=message):
        GradedPolynomial(weight_system(1, 2, 3, 3, 4, 12), grade, num, den)


def test_construction_refuses_an_exponent_past_the_key_width():
    # x^19 has degree 19; packed in 4-bit fields it would read as x^3*y
    ws = weight_system(1, 1, 1, 1, 1, 4)
    with pytest.raises(ValueError, match="has degree 19, not 4"):
        polynomial(ws, 4, {(19, 0, 0, 0, 0): Fraction(1)})


def test_sampler_split_slices_family_19():
    f = sample_family_member(19, seed=0)
    assert len(f.terms) == 65  # full support
    quartic = slice_numerators(f, (2, 3))
    assert len(rational_roots(quartic)) == 4
    cubic = slice_numerators(f, (1, 4))  # the (y, w) slice, cubic in (w : y^2)
    assert len(rational_roots(cubic)) == 3


@pytest.mark.parametrize(
    "ws,check,reason",
    [
        # without the (y, w) split the pure (y^2, w) cubic, whose root is the
        # shift constant, has no rational root: the sampler raises, not re-seeds
        (family_weight_system(19), _CHECKS[19][2], "the shift cubic has no rational root"),
        # 20 distinct nonzero roots do not fit in -9..9
        (weight_system(1, 1, 1, 1, 1, 20), SliceSplit((0, 1)), "21 slice monomials, not 2 to 19"),
    ],
    ids=["no-shift-root", "too-many-roots"],
)
def test_sampler_names_a_check_it_cannot_meet(ws, check, reason):
    with pytest.raises(GenericityError, match=re.escape(f"{check.describe()}: {reason}")):
        sample_general_member(ws, seed=0, checks=(check,))


@pytest.mark.parametrize("family", SYMMETRY_FAMILIES)
def test_normalized_support_matches_reference(family):
    g, subs = normalize(sample_family_member(family, seed=0), builtin_plan(family))
    assert g.support == reference_support(family)
    assert subs  # audit trail present


@pytest.mark.parametrize("family", SYMMETRY_FAMILIES)
def test_plan_eliminations_and_pivots(family):
    plan = builtin_plan(family)
    g, _ = normalize(sample_family_member(family, seed=0), plan)
    for target in plan.eliminated():
        assert g.terms.get(target, 0) == 0, format_monomial(target)
    # the named pivots stay alive
    pivots = {
        19: ("w*y^4", "z*t^3", "z^3*t"),
        28: ("z*t^3", "y*t^3", "y^4*z", "w^3"),
        39: ("y*t^3", "z^3*w", "w^3"),
        49: ("y*t^3", "y^5*t", "x*z^4", "w^3"),
        59: ("y*t^3", "y^6*z", "w^3"),
        66: ("z*t^3", "y^4*t", "w^3"),
        84: ("y^4*z", "t^4", "w^3"),
    }[family]
    for name in pivots:
        assert g.terms.get(parse_monomial(name), 0) != 0, name


def test_reference_tables_transcription_deltas():
    # the verbatim transcriptions differ from the reduced supports by exactly
    # one provably uneliminable monomial for families 19 and 28, nothing else
    for family in SYMMETRY_FAMILIES:
        verbatim = parse_monomial_set(REFERENCE_TABLES[family])
        corrected = reference_support(family)
        delta = corrected ^ verbatim
        if family == 19:
            assert delta == {parse_monomial("x^2*y*w^2")}
        elif family == 28:
            assert delta == {parse_monomial("x^3*z^4")}
        else:
            assert not delta


def test_builtin_plan_is_parsed_once_per_family():
    assert builtin_plan(19) is builtin_plan(19)
    for number, message in ((1, "no built-in plan for family 1"), (7, "unknown family number 7")):
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(ValueError, match=message):
                builtin_plan(number)


def test_normalize_idempotent():
    plan = builtin_plan(39)
    g, _ = normalize(sample_family_member(39, seed=0), plan)
    g2, subs = normalize(g, plan)
    assert g2.terms == g.terms
    assert all(s.is_identity for s in subs)


def test_normalize_rejects_wrong_weight_system():
    plan = builtin_plan(39)
    f = sample_family_member(49, seed=0)
    with pytest.raises(ValueError):
        normalize(f, plan)


def test_normalize_genericity_error_names_the_monomial():
    # a member without the w^3 pivot makes the depress pass fail
    ws = family_weight_system(39)
    f = sample_family_member(39, seed=0)
    terms = dict(f.terms)
    terms.pop(parse_monomial("w^3"))
    broken = polynomial(ws, 18, terms)
    with pytest.raises(GenericityError, match="w\\^3"):
        normalize(broken, builtin_plan(39))


def test_normalize_level_zero_cubic_without_rational_root():
    # the (y, t) slice of a family-49 member set to y^7 + t*y^5 + t^3*y: the
    # step t: y^2>y^7 must solve c^3 + c + 1 = 0, which has no rational root
    ws = family_weight_system(49)
    terms = dict(sample_family_member(49, seed=0).terms)
    terms.update({parse_monomial(m): 1 for m in ("y^7", "t*y^5", "t^3*y")})
    terms.pop(parse_monomial("t^2*y^3"))
    with pytest.raises(GenericityError, match=r"cannot eliminate y\^7 .* no rational solution") as excinfo:
        normalize(polynomial(ws, 21, terms), builtin_plan(49))
    assert type(excinfo.value) is GenericityError


def _shift_t_plan(family, *steps):
    """A one-pass plan shifting t, on family 39 (weights 1,3,4,5,6; d = 18)
    or 19 (weights 1,2,3,3,4; d = 12)."""
    ws = family_weight_system(family)
    shift = ShiftPass(3, tuple((parse_monomial(a), parse_monomial(b)) for a, b in steps))
    return NormalizationPlan(ws=ws, passes=(shift,))


@pytest.mark.parametrize(
    "family,steps,message",
    [
        # the template x*z sits above the x-degree-0 target
        (39, (("x*z", "t^3*y"),), "template x-degree exceeds its target"),
        # two x^1 conversions fall back onto level 2
        (39, (("x*z", "x^2*z^4"),), "level 2 is not affine"),
        # level-3 constants (template x-degree 2) reach the level-2 target
        (39, (("x^2*y", "t^2*y^2*x^2"), ("x^2*y", "x^3*y^5")), "level-3 constants could pollute level 2"),
        # the template t is the shifted variable itself
        (39, (("t", "t^3*y"),), "is not a shift by a monomial free of t"),
        # a target of degree 9, which no member has: a claimed identity step
        (19, (("z", "z^3"),), r"template z and target z\^3 have degrees \(3, 9\), not \(3, 12\)"),
        # a template of degree 6 for t of weight 3: once blamed on the draw
        (19, (("z^2", "z^4"),), r"template z\^2 and target z\^4 have degrees \(6, 12\), not \(3, 12\)"),
    ],
    ids=[
        "template-above-target",
        "non-affine-level",
        "level-reaches-earlier",
        "template-is-its-variable",
        "target-wrong-degree",
        "template-wrong-weight",
    ],
)
def test_normalize_rejects_bad_plans(family, steps, message):
    f = sample_family_member(family, seed=0)
    with pytest.raises(ValueError, match=message) as excinfo:
        normalize(f, _shift_t_plan(family, *steps))
    assert not isinstance(excinfo.value, GenericityError)


def test_normalize_singular_level_solve():
    # one template for two level-1 targets: the two columns of the solve agree
    plan = _shift_t_plan(39, ("x*z", "t^2*y*z*x"), ("x*z", "x*z^3*t"))
    targets = r"x\*y\*z\*t\^2, x\*z\^3\*t"
    with pytest.raises(GenericityError, match=f"level solve is singular for targets {targets}"):
        normalize(sample_family_member(39, seed=0), plan)


def test_normalize_final_check_names_what_a_wrong_constant_leaves(monkeypatch):
    # each level solve one off in its first constant: the one verification
    # at the end names the targets left, the first one of level 1 among them
    solve = _solve_linear

    def wrong(columns, rhs):
        (first, *rest), det = solve(columns, rhs)
        return [first + det, *rest], det

    monkeypatch.setattr(symalg, "_solve_linear", wrong)
    with pytest.raises(PlanOrderError, match=r"still present: .*x\*y\^4\*z"):
        normalize(sample_family_member(19, seed=0), builtin_plan(19))


def leibniz_det(rows):
    """The determinant as a signed sum over permutations, independent of ``mat_det``."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def test_solve_linear_solves_or_reports_singular():
    rng = random.Random(11)
    singular = 0
    for k in range(1, 5):
        for _ in range(200):
            # small entries, so that some systems are singular
            columns = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            rhs = [rng.randint(-20, 20) for _ in range(k)]
            numerators, det = _solve_linear(columns, rhs)
            assert det == leibniz_det(columns), columns
            if det == 0:
                assert numerators == [], columns
                singular += 1
                continue
            # x_j = numerators[j] / det solves the system
            assert all(
                sum(n * col[i] for n, col in zip(numerators, columns)) == rhs[i] * det for i in range(k)
            ), columns
    assert singular > 0
    assert _solve_linear([[3, -1, 2], [3, -1, 2], [1, 0, 5]], [1, 2, 3]) == ([], 0)  # a repeated column
    assert _solve_linear([[4, 1], [0, 0]], [1, 2]) == ([], 0)  # a zero column


def test_stratum_restriction_family_19():
    f = sample_family_member(19, seed=0)
    form = slice_numerators(f, (2, 3))
    assert len(form) == 5
    assert len(rational_roots(form)) == 4  # four distinct points


def test_slice_form_of_an_empty_slice_is_the_empty_form():
    f = sample_general_member(weight_system(1, 2, 3, 3, 4, 12), seed=0)
    # d f / d x has degree 11, and no monomial in y, w (weights 2, 4) is odd
    assert slice_numerators(partial_derivative(f, 0), (1, 4)) == ()
    assert slice_numerators(f, (1, 4), parse_monomial("x")) == ()
    assert len(slice_numerators(f, (1, 4))) == 4


def test_stratum_restriction_family_28():
    f = sample_family_member(28, seed=0)
    form = slice_numerators(f, (1, 2))
    assert len(form) == 6
    assert len(rational_roots(form)) == 5  # five distinct points


def test_cubic_normal_form_rejects_non_split():
    # w^3 + t^3 has one rational and two complex roots: no rational transform
    ws = weight_system(1, 1, 2, 3, 3, 9)
    f = parse_polynomial("w^3 + t^3 + x^9", ws, 9)
    with pytest.raises(GenericityError, match="split"):
        cubic_normal_form(f)


def test_cubic_normal_form_rejects_repeated_root():
    ws = weight_system(1, 1, 2, 3, 3, 9)
    f = parse_polynomial("w^3 + x^9", ws, 9)
    with pytest.raises(GenericityError):
        cubic_normal_form(f)


def test_cubic_normal_form_split_cubic():
    # (w - t)(w - 2t)(w - 3t) moves to exactly w*t*(w - t)
    ws = weight_system(1, 1, 2, 3, 3, 9)
    f = parse_polynomial("w^3 - 6*w^2*t + 11*w*t^2 - 6*t^3 + x^9", ws, 9)
    g = cubic_normal_form(f).polynomial
    assert slice_numerators(g, (3, 4)) == (0, -g.den, g.den, 0)


@pytest.mark.parametrize("family", (9, 17, 27))
def test_cubic_normal_form_on_projection_families(family):
    f = sample_family_member(family, seed=0)
    nf = cubic_normal_form(f)
    g = nf.polynomial
    # the three marked points lie on the hypersurface
    for tval, wval in ((0, 1), (1, 0), (1, 1)):
        val = sum(
            c * tval ** m[3] * wval ** m[4]
            for m, c in g.terms.items()
            if m[0] == m[1] == m[2] == 0
        )
        assert val == 0
    # exact round trip through the inverse change
    m = nf.pair_matrix
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    minv = ((m[1][1] / det, -m[0][1] / det), (-m[1][0] / det, m[0][0] / det))
    back = apply_pair_map(scaled(g, nf.scale), 3, 4, minv)
    assert back.terms == f.terms


def test_polynomial_text_round_trip():
    ws = weight_system(1, 2, 3, 3, 4, 12)
    rng = random.Random(8)
    for _ in range(50):
        f = random_polynomial(ws, 12, rng, density=0.2)
        assert parse_polynomial(format_polynomial(f), ws, 12).terms == f.terms
    f = parse_polynomial("-3/2*x^2*y*w^2 + w^3", ws, 12)
    assert f.terms[parse_monomial("x^2*y*w^2")] == Fraction(-3, 2)
    assert format_polynomial(polynomial(ws, 12, {})) == "0"
    assert format_polynomial(polynomial(ws, 0, {(0, 0, 0, 0, 0): Fraction(-3, 2)})) == "-3/2"


QUARTIC = weight_system(1, 1, 1, 1, 1, 4)


def quartic(text):
    return parse_polynomial(text, QUARTIC, 4)


def test_quasismooth_member_fermat():
    verdict = quasismooth_member(quartic("x^4 + y^4 + z^4 + t^4 + w^4"))
    assert verdict.status == "quasismooth"
    # sigma = 5 * (4 - 2) = 10; x^11 in J proves quasismoothness on P^4
    assert verdict.sigma == 10
    assert verdict.checks == (MacaulayCheck(degree=11, columns=1365, rank=1365, prime=32003),)


def test_quasismooth_member_cone_with_witness():
    verdict = quasismooth_member(quartic("x^4 + y^4 + z^4 + t^4"))
    assert verdict.status == "singular"
    assert verdict.witness == "[0:0:0:0:1]"
    assert verdict.checks == ()


def test_quasismooth_member_sampled_quartic():
    ws = weight_system(1, 1, 1, 1, 1, 4)
    verdict = quasismooth_member(sample_general_member(ws, seed=0))
    assert verdict.status == "quasismooth"
    assert [(c.degree, c.columns, c.rank) for c in verdict.checks] == [(11, 1365, 1365)]


def test_quasismooth_member_is_tristate():
    ws = weight_system(1, 1, 1, 1, 1, 4)
    verdict = quasismooth_member(sample_general_member(ws, seed=0))
    with pytest.raises(TypeError):
        bool(verdict)


def test_quasismooth_member_tries_the_next_prime():
    # d/dx vanishes modulo 32003, so the certificate comes from 31991
    verdict = quasismooth_member(quartic("32003*x^4 + y^4 + z^4 + t^4 + w^4"))
    assert verdict.status == "quasismooth"
    assert verdict.checks == (MacaulayCheck(degree=11, columns=1365, rank=1365, prime=31991),)


def test_quasismooth_member_deficient_at_every_prime_is_indeterminate():
    # smooth over Q, but d/dx vanishes modulo every prime of the ladder:
    # no certificate, so never "quasismooth"
    scale = 1
    for p in MACAULAY_PRIMES:
        scale *= p
    verdict = quasismooth_member(quartic(f"{scale}*x^4 + y^4 + z^4 + t^4 + w^4"))
    assert verdict.status == "indeterminate"
    (check,) = verdict.checks
    # mod p, J = (y^3, z^3, t^3, w^3) misses the 3^4 monomials of degree 11
    # with y, z, t and w all below the cube
    assert check.rank == 1365 - 81 and check.columns == 1365
    assert check.prime == MACAULAY_PRIMES[-1]


@pytest.fixture
def rank_spy(monkeypatch):
    """In call order, the shape of each matrix that ``_macaulay_rank`` ranks
    and ("rng", seed) for each random generator it makes."""
    import numpy as np

    calls = []
    generator = np.random.default_rng

    def spy(matrix, p):
        calls.append(matrix.shape)
        return rank_mod_p(matrix, p)

    def default_rng(seed):
        calls.append(("rng", seed))
        return generator(seed)

    monkeypatch.setattr(symalg, "rank_mod_p", spy)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return calls


def test_quasismooth_member_off_axis_singular_point_is_indeterminate(rank_spy):
    # (x^2 - x*y)^2 + (y^2 - y*z)^2 + (z^2 - z*x)^2 + t^4 + w^4 is singular at
    # [1:1:1:0:0], on no coordinate axis or edge: the exact checks pass it and
    # no degree can have full rank
    f = quartic(
        "x^4 - 2*x^3*y + x^2*y^2 + y^4 - 2*y^3*z + y^2*z^2 + z^4 - 2*z^3*x + z^2*x^2 + t^4 + w^4"
    )
    point = (1, 1, 1, 0, 0)
    for k in range(5):
        terms = partial_derivative(f, k).terms.items()
        assert sum(c * prod(v**e for v, e in zip(point, m)) for m, c in terms) == 0
    verdict = quasismooth_member(f)
    assert verdict.status == "indeterminate"
    assert verdict.witness is None
    # pins a rank-deficient elimination of 1365 columns, in 64-column panels
    assert verdict.checks == (MacaulayCheck(degree=11, columns=1365, rank=1356, prime=32009),)
    # every column has a chosen row, and at each prime the first diagonal
    # block of the square, 31 x 31, is deficient: the random rows then join
    # the whole (n + EXTRA_ROWS) x n matrix, built afresh
    assert rank_spy == [(31, 31), ("rng", 0), (1373, 1365)] * len(MACAULAY_PRIMES)


def test_quasismooth_member_builds_no_terms_view(monkeypatch):
    # the check reads numerators and packed keys: neither the member nor a
    # partial builds its monomial -> Fraction view
    made = []

    def recording(f, var):
        made.append(partial_derivative(f, var))
        return made[-1]

    monkeypatch.setattr(symalg, "partial_derivative", recording)
    f = sample_general_member(weight_system(1, 2, 3, 4, 5, 10), seed=1)
    assert quasismooth_member(f).status == "quasismooth"
    assert len(made) == 5 and all("terms" not in g.__dict__ for g in (f, *made))


def test_quasismooth_member_refuses_oversized_matrices():
    # the octic on P^4 has sigma = 30: the degree-31 matrix would have 52,360 columns
    octic = parse_polynomial("x^8 + y^8 + z^8 + t^8 + w^8", weight_system(1, 1, 1, 1, 1, 8), 8)
    verdict = quasismooth_member(octic)
    assert verdict.status == "indeterminate"
    assert "more than the limit of 4096" in verdict.detail
    assert verdict.sigma == 30 and verdict.checks == ()


def test_quasismooth_member_imports_no_sympy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; import wfano; "
        "assert 'numpy' not in sys.modules and 'sympy' not in sys.modules, 'import'; "
        "from wfano.symalg import GradedPolynomial, _pack, _width, quasismooth_member; "
        "from wfano.wspace import parse_monomial, weight_system; "
        "ws = weight_system(1, 1, 1, 1, 1, 2); "
        "f = GradedPolynomial(ws, 2, {_pack(parse_monomial(v + '^2'), _width(2)): 1 for v in 'xyztw'}, 1); "
        "assert quasismooth_member(f).status == 'quasismooth'; "
        "assert 'sympy' not in sys.modules, 'check'"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_pickled_member_is_checked_in_a_fresh_interpreter():
    # the path of a spawned worker: the member arrives pickled, its ``terms``
    # never built, in a process whose _grade_monomials registry is empty
    f = sample_general_member(weight_system(1, 1, 1, 2, 3, 6), seed=1)
    assert "terms" not in f.__dict__
    data = pickle.dumps(f)
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import pickle, sys; from wfano.symalg import quasismooth_member; "
        "print(repr(quasismooth_member(pickle.load(sys.stdin.buffer))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], input=data, env=env, capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr.decode()
    verdict = quasismooth_member(f)
    assert verdict.status == "quasismooth"
    assert result.stdout.decode() == repr(verdict) + "\n"


def test_canonical_rational_root_rules():
    def canonical(*coeffs):
        return _canonical_rational_root({k: Fraction(c) for k, c in enumerate(coeffs) if c})

    assert canonical(-2, 1, 2, -1) == 1  # roots 1, -1, 2: smallest |root|, positive first
    assert canonical(-2, 1, 1) == 1  # roots 1, -2
    assert canonical(2, 3, 1) == -1  # roots -1, -2
    assert canonical(Fraction(-1, 4), 0, 1) == Fraction(1, 2)
    assert canonical(0, -3, 1) == 0  # a root at 0 beats 3
    assert canonical(0, 0, 5) == 0
    assert _canonical_rational_root({}) == 0  # the target is already absent
    assert canonical(7) is None  # a nonzero constant: the target is unreachable
    assert canonical(-2, 0, 1) is None  # no rational root


def test_quasismooth_member_family_19():
    verdict = quasismooth_member(sample_family_member(19, seed=0))
    assert verdict.status == "quasismooth"
    assert verdict.sigma == 34
    # 36 is a multiple of every weight of P(1,2,3,3,4), so degree 35 is skipped
    assert [(c.degree, c.columns) for c in verdict.checks] == [(36, 1870)]
    assert all(c.rank == c.columns for c in verdict.checks)


def test_macaulay_rank_of_a_covered_nonsingular_square(rank_spy):
    # every column has a chosen row and the square is nonsingular: each of its
    # diagonal blocks past 1 x 1 is ranked once, and no random row is drawn
    verdict = quasismooth_member(sample_general_member(weight_system(1, 2, 3, 4, 5, 10), seed=1))
    assert verdict.checks == (MacaulayCheck(degree=24, columns=333, rank=333, prime=32003),)
    assert rank_spy == [(s, s) for s in (167, 10, 3, 12, 12, 3, 3, 3, 3, 3, 3, 3)]


def test_macaulay_rank_of_the_quartic_square_ranks_its_blocks(rank_spy):
    # the quartic's 1365 x 1365 square: its largest diagonal block has 1020
    # columns, and no random row is drawn
    verdict = quasismooth_member(sample_general_member(weight_system(1, 1, 1, 1, 1, 4), seed=1))
    assert verdict.checks == (MacaulayCheck(degree=11, columns=1365, rank=1365, prime=32003),)
    assert all(len(shape) == 2 and shape[0] == shape[1] > 1 for shape in rank_spy)
    assert max(shape[1] for shape in rank_spy) == 1020
    assert sum(shape[1] for shape in rank_spy) < 1365


def test_quasismooth_member_fills_uncovered_columns_with_random_rows(monkeypatch, rank_spy):
    # no chosen pure power divides 9 of the columns at degree 30, at seeds 0
    # and 1; only the random combinations of A's rows in those slots make the
    # rank full.  With a column uncovered the square is skipped: one
    # (n + EXTRA_ROWS) x n rank
    ranked = []

    def spy(matrix, p):
        n = matrix.shape[1]
        # chosen rows hold coefficients mod p, random rows unreduced sums
        ranked.append((matrix.shape, int((matrix[:n] >= p).any(axis=1).sum())))
        return rank_mod_p(matrix, p)

    monkeypatch.setattr(symalg, "rank_mod_p", spy)
    for seed in (0, 1):
        verdict = quasismooth_member(sample_general_member(weight_system(2, 3, 4, 5, 7, 14), seed=seed))
        assert verdict.status == "quasismooth"
        assert [(c.degree, c.columns) for c in verdict.checks] == [(30, 130)]
        assert all(c.rank == c.columns and c.prime == 32003 for c in verdict.checks)
    assert ranked == [((138, 130), 9)] * 2
    assert rank_spy == [("rng", 0)] * 2


def candidate_degrees(ws):
    """The least multiple of each weight above sigma = sum(d - 2 a_i)."""
    sigma = sum(ws.degree - 2 * a for a in ws.weights)
    return sorted({(max(sigma, 0) // a + 1) * a for a in ws.weights})


def certified_variables(ws, degrees):
    """The variables x_i with a_i | k for one of the degrees k: full rank
    there puts a power of x_i in the Jacobian ideal."""
    return [i for i, a in enumerate(ws.weights) if any(k % a == 0 for k in degrees)]


def macaulay_rank(f, k, p):
    """``_macaulay_rank`` of f's partials in degree k, as ``quasismooth_member`` calls it."""
    primitive = scaled(f, Fraction(f.den, gcd(*f.num.values())))
    return _macaulay_rank([partial_derivative(primitive, j) for j in range(5)], k, p)


@pytest.mark.parametrize("ws", [weight_system(1, 2, 3, 4, 5, 10), weight_system(2, 3, 4, 5, 7, 14)], ids=str)
def test_quasismooth_member_skipped_degrees_have_full_rank(ws):
    # the certificate that checks every candidate degree is the oracle: each
    # degree the verdict skipped still has full rank
    f = sample_general_member(ws, seed=1)
    verdict = quasismooth_member(f)
    assert verdict.status == "quasismooth"
    checked = [c.degree for c in verdict.checks]
    assert len(certified_variables(ws, checked)) >= 3
    skipped = sorted(set(candidate_degrees(ws)) - set(checked))
    assert skipped
    for k in skipped:
        assert macaulay_rank(f, k, 32003) == count_monomials(ws.weights, k), k


def test_quasismooth_member_skipped_degree_cannot_hide_a_singular_point():
    # the cubic of SINGULAR_CUBIC in x, y, z of weight 2, plus t^2 + w^2: singular
    # at [1:1:1:0:0], off every coordinate edge.  Degrees 8 and 9 both have 24
    # columns; 8 certifies x, y, z and is checked, and 9 is skipped, though it
    # has full rank: t and w lie in J, and every monomial of odd degree has one
    # of them as a factor.  The verdict stays "indeterminate".
    ws = weight_system(2, 2, 2, 3, 3, 6)
    f = parse_polynomial("x^2*y + x^2*z + x*y^2 + y^2*z + x*z^2 + y*z^2 - 6*x*y*z + t^2 + w^2", ws, 6)
    verdict = quasismooth_member(f)
    assert verdict.status == "indeterminate"
    (check,) = verdict.checks
    assert check.degree == 8 and check.rank < check.columns
    assert macaulay_rank(f, 9, 32003) == count_monomials(ws.weights, 9)


def test_quasismooth_member_edge_of_the_uncertified_variables():
    # in P(1,1,1,2,2) the certificate of a smooth quartic checks degree 7 only,
    # which leaves t and w uncertified; a singular point inside their edge is
    # found by the exact edge check
    ws = weight_system(1, 1, 1, 2, 2, 4)
    verdict = quasismooth_member(parse_polynomial("x^4 + y^4 + z^4 + t^2 + w^2", ws, 4))
    assert verdict.status == "quasismooth"
    assert certified_variables(ws, [c.degree for c in verdict.checks]) == [0, 1, 2]
    verdict = quasismooth_member(parse_polynomial("x^4 + y^4 + z^4 + t^2 - 2*t*w + w^2", ws, 4))
    assert verdict.status == "singular"
    assert verdict.detail == "common interior root on edge tw: gcd degree 1"
    assert verdict.checks == ()


def full_macaulay_rank(f, k, p):
    """Rank mod p of every row mu * d_j f of the degree-k Macaulay matrix,
    with f's denominators and content cleared, built term by term."""
    scale = Fraction(f.den, gcd(*f.num.values()))
    columns = {m: c for c, m in enumerate(enumerate_monomials(f.ws, k))}
    rows = []
    for j in range(5):
        g = partial_derivative(f, j)
        if not g.terms or g.grade > k:
            continue
        for mu in enumerate_monomials(f.ws, k - g.grade):
            row = [0] * len(columns)
            for m, c in g.terms.items():
                row[columns[tuple(a + b for a, b in zip(mu, m))]] = int(c * scale) % p
            rows.append(row)
    return rank_mod_p(rows, p), len(columns)


# (x-y)^2*z + (y-z)^2*x + (z-x)^2*y + t^3 + w^3: singular at [1:1:1:0:0],
# on no coordinate axis or edge, so its one matrix (degree 6, 210 columns)
# is deficient
SINGULAR_CUBIC = parse_polynomial(
    "x^2*y + x^2*z + x*y^2 + y^2*z + x*z^2 + y*z^2 - 6*x*y*z + t^3 + w^3", weight_system(1, 1, 1, 1, 1, 3), 3
)


@pytest.mark.parametrize(
    "f, full_rank",
    [
        (sample_general_member(weight_system(1, 2, 3, 3, 5, 6), seed=1), True),
        (sample_general_member(weight_system(3, 4, 5, 6, 7, 12), seed=1), True),
        (sample_general_member(weight_system(2, 3, 4, 5, 7, 10), seed=1), True),
        (SINGULAR_CUBIC, False),
    ],
    ids=["X6(1,2,3,3,5)", "X12(3,4,5,6,7)", "X10(2,3,4,5,7)", "singular-cubic"],
)
def test_macaulay_rank_against_the_whole_matrix(f, full_rank):
    for k in candidate_degrees(f.ws):
        for p in MACAULAY_PRIMES:
            full, columns = full_macaulay_rank(f, k, p)
            assert (full == columns) == full_rank
            rank = macaulay_rank(f, k, p)
            assert rank == full if full_rank else rank <= full


@pytest.mark.slow
def test_quasismooth_member_certifies_every_family_under_the_cap(default_catalog):
    records, _ = default_catalog
    certified = 0
    for record in records:
        ws = record.ws
        fitting = [k for k in candidate_degrees(ws) if count_monomials(ws.weights, k) <= MAX_MACAULAY_COLUMNS]
        verdict = quasismooth_member(sample_general_member(ws, seed=0))
        if len(certified_variables(ws, fitting)) < 3:
            # no choice of degrees under the cap covers three variables
            assert verdict.status == "indeterminate" and verdict.checks == (), ws.septuple
            continue
        assert verdict.status == "quasismooth", ws.septuple
        checked = [c.degree for c in verdict.checks]
        assert set(checked) <= set(fitting), ws.septuple
        assert len(certified_variables(ws, checked)) >= 3, ws.septuple
        assert all(c.rank == c.columns and c.prime == 32003 for c in verdict.checks), ws.septuple
        certified += 1
    assert certified == 98


def test_default_checks_cover_all_plan_families():
    for family in SYMMETRY_FAMILIES + (1, 9, 17, 27):
        for c in _CHECKS[family]:
            assert c.describe()
    assert [c.describe() for c in _CHECKS[19]] == [
        "slice 1*(z,t) splits over Q with distinct designated roots",
        "slice 1*(y,w) splits over Q with distinct designated roots",
        "slice y^3*(z,t) splits over Q after the w-shift",
    ]


def test_restriction_commutes_with_disjoint_substitution():
    # substitutions not touching the stratum variables leave the restriction
    # unchanged whenever their templates vanish on the stratum
    rng = random.Random(71)
    ws = weight_system(1, 2, 3, 3, 4, 12)
    for _ in range(200):
        f = random_polynomial(ws, 12, rng, density=0.3)
        # w -> w + c*x*z has a template meeting the (z,t) stratum; use x^2 on y
        tail = polynomial(ws, 2, {parse_monomial("x^2"): Fraction(rng.randint(1, 5))})
        s = Substitution(1, tail)
        g = substitute(f, s)
        # the same binary form: the numerators over f.den and over g.den agree
        assert [v * g.den for v in slice_numerators(f, (2, 3))] == [v * f.den for v in slice_numerators(g, (2, 3))]
