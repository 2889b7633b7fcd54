"""Sparse quasihomogeneous polynomial algebra and coordinate normalization.

Polynomials carry exact rational coefficients on weighted monomials of a fixed
grade, stored as integer numerators over one denominator.  On top of the
arithmetic sit the pieces needed to put a general member of a named family
into its reduced shape: seeded sampling with designated rational root
structure, triangular coordinate substitutions solved pass by pass, the
built-in reduction plans as a text table, and a member-level quasismoothness
check that returns its Jacobian-criterion certificate (Macaulay-matrix ranks
modulo a prime).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, gcd, lcm
from types import MappingProxyType
from typing import Sequence

from .catalog import FAMILY_LABELS
from .exactmath import (
    EXACT_BOUND,
    common_interior_degree,
    mat_det,
    rank_mod_p,
    rational_roots,  # unused here; perfbench/tracing.py wraps this name
    univariate_rational_roots,
)
from .wspace import (
    NVARS,
    VARIABLES,
    Monomial,
    WeightSystem,
    count_monomials,
    enumerate_monomials,
    format_monomial,
    parse_monomial,
    parse_monomial_set,
    weight_system,
    weighted_degree,
)


class GenericityError(ValueError):
    """A required genericity condition failed (named pivot or predicate)."""


class PlanOrderError(RuntimeError):
    """A later pass re-introduced a monomial an earlier pass eliminated."""


# ---------------------------------------------------------------------------
# polynomial core


@dataclass(frozen=True)
class GradedPolynomial:
    """Quasihomogeneous polynomial: finite map monomial -> nonzero rational.

    The coefficients are stored once, as integer numerators ``num`` over one
    denominator ``den`` > 0 with gcd(den, *num) = 1, keyed by the packed
    monomials of ``_width(ws.degree)``, so the grade is at most ws.degree.
    ``terms`` is the map monomial -> Fraction, a read-only view built on
    first access.
    """

    ws: WeightSystem
    grade: int
    num: dict[int, int]
    den: int

    def __post_init__(self) -> None:
        ws, grade, num, den = self.ws, self.grade, self.num, self.den
        if grade > ws.degree:
            raise ValueError(f"a grade-{grade} form is past the packed keys of degree {ws.degree}")
        if not all(num.values()):
            raise ValueError("GradedPolynomial: zero coefficient stored")
        w, known = _width(ws.degree), _grade_monomials(ws, grade)
        for k in num.keys() - known.keys():
            m = _unpack(k, w)
            if weighted_degree(m, ws) != grade or _pack(m, w) != k:
                raise ValueError(f"GradedPolynomial: {format_monomial(m)} has degree {weighted_degree(m, ws)}, not {grade}")
            known[k] = m
        if den <= 0 or gcd(den, *num.values()) != 1:
            raise ValueError(f"GradedPolynomial: denominator {den} is not positive and prime to the numerators")

    def __reduce__(self):  # pickle the fields alone: the cached ``terms`` view does not pickle
        return GradedPolynomial, (self.ws, self.grade, self.num, self.den)

    @cached_property
    def terms(self) -> MappingProxyType:
        return MappingProxyType({m: Fraction(v, self.den) for m, v in zip(self.monomials(), self.num.values())})

    def monomials(self) -> list[Monomial]:
        """The monomials of the terms, in the order of ``num``."""
        return list(map(_grade_monomials(self.ws, self.grade).__getitem__, self.num))

    @property
    def support(self) -> frozenset[Monomial]:
        return frozenset(self.monomials())

    def is_zero(self) -> bool:
        return not self.num

    def __str__(self) -> str:
        return format_polynomial(self)


#: integer numerators over one positive denominator, keyed by the packed
#: monomials of ``_width(ws.degree)``: what a GradedPolynomial stores, and what
#: the kernels pass between the steps of ``normalize``
IntegerForm = tuple[dict[int, int], int]


def _reduced(num: dict[int, int], den: int) -> IntegerForm:
    """num / den (den != 0) over a positive denominator, with gcd 1."""
    g = gcd(den, *num.values()) * (-1 if den < 0 else 1)
    return ({m: v // g for m, v in num.items()}, den // g) if g != 1 else (num, den)


def format_polynomial(f: GradedPolynomial) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for m in sorted(f.terms):
        c = f.terms[m]
        mono = format_monomial(m)
        if mono == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


def _width(grade: int) -> int:
    """Bits per exponent in the packed keys of monomials of grade <= ``grade``:
    (e_1, ..., e_5) packs to sum_k e_k * 2^(w*k), linearly, so a product of
    monomials is one add.  The kernels' keys have digits in [-grade, grade]
    (exponents, and in ``_substitute_ints`` the x_j digit of (T/x_j)^i, in
    [-E, 0] with a_j * E <= grade), so two keys differ by digits of size at
    most 2 * grade < 2^w, and a nonzero such difference cannot pack to 0 (its
    lowest nonzero digit would be a multiple of 2^w): keys stay distinct.
    A nonnegative digit reads back with one shift and one mask."""
    return (2 * grade).bit_length()


def _pack(m: Sequence[int], w: int) -> int:
    key = 0
    for e in reversed(m):
        key = (key << w) + e
    return key


def _unpack(key: int, w: int) -> Monomial:
    mask = (1 << w) - 1
    return tuple([key >> w * k & mask for k in range(NVARS)])  # type: ignore[return-value]


@cache
def _grade_monomials(ws: WeightSystem, grade: int) -> dict[int, Monomial]:
    """Packed key -> monomial for the keys of one grade that the
    ``GradedPolynomial`` constructor has checked so far: each key is unpacked and checked once."""
    return {}


@cache
def _member_keys(ws: WeightSystem) -> list[int]:
    """The packed monomials of degree d, in the order of ``enumerate_monomials``."""
    return [_pack(m, _width(ws.degree)) for m in enumerate_monomials(ws, ws.degree)]


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two packed monomial -> coefficient maps (int or Fraction),
    zeros dropped."""
    terms: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            v = terms.get(m, 0) + ca * cb
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
    return terms


def partial_derivative(f: GradedPolynomial, var: int) -> GradedPolynomial:
    w = _width(f.ws.degree)
    shift, mask = w * var, (1 << w) - 1
    num = {m - (1 << shift): c * e for m, c in f.num.items() if (e := m >> shift & mask)}
    return GradedPolynomial(f.ws, f.grade - f.ws.weights[var], *_reduced(num, f.den))


# ---------------------------------------------------------------------------
# substitutions


@dataclass(frozen=True)
class Substitution:
    """Triangular substitution x_j -> x_j + tail, tail free of x_j.

    The tail has the grade of x_j, so the substitution preserves gradings, and
    triangularity makes the inverse simply x_j -> x_j - tail.
    """

    target: int
    tail: GradedPolynomial  # the added part; may be zero (identity substitution)

    def __post_init__(self) -> None:
        if self.tail.grade != self.tail.ws.weights[self.target]:
            raise ValueError("Substitution: tail grade must equal the target weight")
        w = _width(self.tail.ws.degree)
        if any(m >> w * self.target & (1 << w) - 1 for m in self.tail.num):
            raise ValueError("Substitution: tail must not involve the target variable")

    @property
    def is_identity(self) -> bool:
        return self.tail.is_zero()

    def describe(self) -> str:
        v = VARIABLES[self.target]
        if self.is_identity:
            return f"{v} -> {v}"
        return f"{v} -> {v} + ({format_polynomial(self.tail)})"


def substitute(f: GradedPolynomial, sub: Substitution) -> GradedPolynomial:
    """Exact expansion of f after x_j -> x_j + tail (see ``_substitute_ints``)."""
    if sub.tail.ws.septuple != f.ws.septuple:
        raise ValueError("substitute: weight system mismatch")
    if sub.is_identity:
        return f
    return GradedPolynomial(f.ws, f.grade, *_substitute_ints(f.num, f.den, sub.target, sub.tail))


def _substitute_ints(num: dict[int, int], den: int, j: int, tail: GradedPolynomial) -> IntegerForm:
    """num/den after x_j -> x_j + tail, reduced to gcd 1.  With tail = T/q and E
    the top power of x_j, F_m * x^m becomes F_m * q^(E-m_j) * (q*x_j + T)^m_j
    over den * q^E: the output starts as num * q^E, and the rest is added.
    New monomials keep f's degree, since ``Substitution`` gives T x_j's grade."""
    w = _width(tail.ws.degree)
    shift, mask = w * j, (1 << w) - 1
    q = tail.den
    # (q*x_j + T)^e / x_j^e is the e-th power of q + T/x_j
    repl = {0: q} | {m - (1 << shift): c for m, c in tail.num.items()}
    exps = [m >> shift & mask for m in num]
    max_e = max(exps, default=0)
    powers: list[dict[int, int]] = [{0: 1}]
    for _ in range(max_e):
        powers.append(_mul_terms(powers[-1], repl))
    rests = [[(mm, cc) for mm, cc in p.items() if mm] for p in powers]  # all but q^e
    top = q**max_e
    out = {m: c * top for m, c in num.items()} if top != 1 else dict(num)
    for (m, c), e in zip(num.items(), exps):
        scale = c * q ** (max_e - e)
        for mm, cc in rests[e]:
            key = m + mm
            v = out.get(key, 0) + scale * cc
            if v:
                out[key] = v
            else:
                del out[key]
    return _reduced(out, den * top)


# ---------------------------------------------------------------------------
# slices


def slice_exponents(ws: WeightSystem, pair: tuple[int, int], cofactor: Monomial, grade: int) -> list[Monomial]:
    """Monomials cofactor * x_i^a * x_j^b of the given grade, ordered by rising b."""
    i, j = pair
    base = weighted_degree(cofactor, ws)
    rem = grade - base
    out = []
    if rem >= 0:
        for b in range(rem // ws.weights[j] + 1):
            r = rem - b * ws.weights[j]
            if r % ws.weights[i] == 0:
                m = list(cofactor)
                m[i] += r // ws.weights[i]
                m[j] += b
                out.append(tuple(m))
    return out  # type: ignore[return-value]


def slice_numerators(f: GradedPolynomial, pair: tuple[int, int], cofactor: Monomial | None = None) -> tuple[int, ...]:
    """The coefficients of f along a pair slice times f.den: a binary form
    (``exactmath.BinaryForm``) in integers, with the roots of f's own.  Entry k
    belongs to the k-th monomial of the slice in rising x_j order (for equal
    weights, the usual binary form on the pair); an empty slice gives ``()``."""
    cof = cofactor if cofactor is not None else (0,) * NVARS
    w = _width(f.ws.degree)
    return tuple(f.num.get(_pack(m, w), 0) for m in slice_exponents(f.ws, pair, cof, f.grade))


# ---------------------------------------------------------------------------
# seeded sampling with designated genericity structure


@dataclass(frozen=True)
class SliceSplit:
    """Require a pair slice to split into distinct rational root factors.

    The sampler overwrites the slice coefficients with a scaled product
    prod_r (V - rho_r U) over distinct nonzero integer roots, one shared root
    pool per variable pair, so slices on the same pair get pairwise distinct
    roots.  With a ``shift`` (variable s, template text mu), the slice must
    split after the cube-root shift x_s -> x_s + c * mu (c the canonical root
    of the pure (mu, x_s)-slice cubic), which adds c times the down-shifted
    slice to this one: the sampler draws (split form) - c * (pollution).
    """

    pair: tuple[int, int]
    cofactor: str = "1"  # monomial text, e.g. "y^3"
    shift: tuple[int, str] | None = None

    def describe(self) -> str:
        i, j = self.pair
        text = f"slice {self.cofactor}*({VARIABLES[i]},{VARIABLES[j]}) splits over Q "
        if self.shift is None:
            return text + "with distinct designated roots"
        return text + f"after the {VARIABLES[self.shift[0]]}-shift"


def _draw_nonzero(rng: random.Random) -> int:
    v = 0
    while v == 0:
        v = rng.randint(-9, 9)
    return v


def _expand_roots(roots: Sequence[int]) -> list[int]:
    """Coefficients of prod_r (V - rho_r U) by rising V-power."""
    coeffs = [1]
    for rho in roots:
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c  # times V
            nxt[k] += c * (-rho)  # times -rho*U
        coeffs = nxt
    return coeffs


def sample_general_member(
    ws: WeightSystem, seed: int = 0, checks: Sequence[SliceSplit] = ()
) -> GradedPolynomial:
    """Seeded member of the family with full monomial support.

    Coefficients are nonzero small integers drawn from one random stream per
    seed.  SliceSplit checks overwrite designated pair slices with products of
    distinct rational linear factors, which is what makes the reduction plans
    and point-set certificates solvable over the rationals.  A check that
    cannot be met raises GenericityError (``_draw_slice``).
    """
    rng = random.Random(seed * 1000003)
    terms = {m: _draw_nonzero(rng) for m in _member_keys(ws)}
    pools: dict[tuple[int, int], list[int]] = {}
    for check in checks:
        _draw_slice(rng, ws, terms, pools, check)
    # over the least common denominator, the gcd is 1: some numerator is prime to each prime of it
    den = lcm(*(c.denominator for c in terms.values()))
    return GradedPolynomial(ws, ws.degree, {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den)


def _draw_slice(
    rng: random.Random,
    ws: WeightSystem,
    terms: dict[int, Fraction | int],
    pools: dict[tuple[int, int], list[int]],
    check: SliceSplit,
) -> None:
    """Overwrite a slice of terms (keyed by packed monomials) with a form that
    splits, after the check's shift if it has one.

    The roots extend the pair's pool by fresh distinct nonzero integers; the
    form is a nonzero multiple of their product.  The shift constant is the
    canonical rational root of the pure (template, shift-variable) cubic,
    which the sampler can predict: it is the elimination polynomial of the
    template's pure power, whose coefficients were already drawn (possibly
    split).  The slice is then drawn as (split form) minus (constant) times
    the shift's c^1 pollution of each slice monomial, so the reduced member's
    slice is the split form.  Without a shift the pollution is 0.  When a
    coefficient of the product or of the drawn slice is 0, the slice's roots
    are redrawn, at most 10,000 times.
    """
    w = _width(ws.degree)
    mons = slice_exponents(ws, check.pair, parse_monomial(check.cofactor), ws.degree)
    pool = pools.setdefault(check.pair, [])
    start = len(pool)
    if not 2 <= len(mons) <= 19 - start:  # the new roots are distinct, nonzero and in -9..9
        raise GenericityError(f"{check.describe()}: {len(mons)} slice monomials, not 2 to {19 - start}")
    pollution = [0] * len(mons)
    if check.shift is not None:
        s, mu = check.shift[0], parse_monomial(check.shift[1])
        pure = tuple(a * (ws.degree // weighted_degree(mu, ws)) for a in mu)
        cubic, *polluted = _elimination_polynomial(terms, w, s, mu, [pure, *mons])
        c1 = _canonical_rational_root(cubic)
        if c1 is None:
            raise GenericityError(f"{check.describe()}: the shift cubic has no rational root")
        pollution = [c1 * poly.get(1, 0) for poly in polluted]
    for _ in range(10_000):
        while len(pool) < start + len(mons) - 1:
            cand = rng.randint(-9, 9)
            if cand != 0 and cand not in pool:
                pool.append(cand)
        coeffs = _expand_roots(pool[start:])
        if all(coeffs):
            scale = _draw_nonzero(rng)
            adjusted = [c * scale - e for c, e in zip(coeffs, pollution)]
            if all(adjusted):
                terms.update(zip([_pack(m, w) for m in mons], adjusted))
                return
        del pool[start:]
    raise GenericityError(f"{check.describe()}: no slice in 10000 root draws")


# ---------------------------------------------------------------------------
# normalization plans


@dataclass(frozen=True)
class ShiftPass:
    """One variable substitution x_j -> x_j + sum_k c_k * template_k.

    The constants are solved sequentially: each (template, target) step picks
    the canonical rational root of the univariate coefficient polynomial of
    the target monomial.  A step whose target already has coefficient zero
    solves to the identity.
    """

    variable: int
    steps: tuple[tuple[Monomial, Monomial], ...]  # (template, monomial to eliminate)

    def describe(self) -> str:
        v = VARIABLES[self.variable]
        tpl = " + ".join("*" + format_monomial(t) for t, _ in self.steps)
        kills = ", ".join(format_monomial(m) for _, m in self.steps)
        return f"{v} -> {v} + {tpl}  (eliminates {kills})"


@dataclass(frozen=True)
class DepressPass:
    """Remove the squares layer of a variable appearing as a pure cube.

    For d = 3*a_j the shift x_j -> x_j - (squares layer)/(3*[x_j^3]) clears
    every monomial with x_j-exponent exactly 2; the pure cube is the pivot.
    """

    variable: int = 4

    def describe(self) -> str:
        v = VARIABLES[self.variable]
        return f"{v} -> {v} - (coefficient of {v}^2)/(3*[{v}^3])  (clears the {v}^2 layer)"


PlanPass = ShiftPass | DepressPass


@dataclass(frozen=True)
class NormalizationPlan:
    ws: WeightSystem
    passes: tuple[PlanPass, ...]

    def eliminated(self) -> list[Monomial]:
        out = []
        for p in self.passes:
            if isinstance(p, ShiftPass):
                out.extend(m for _, m in p.steps)
        return out

    def describe(self) -> list[str]:
        return [p.describe() for p in self.passes]


def _elimination_polynomial(
    terms: dict[int, Fraction | int], w: int, var: int, template: Monomial, targets: Sequence[Monomial]
) -> list[dict[int, Fraction | int]]:
    """Coefficient of each target in f(x_var -> x_var + c*template), as poly in
    c, for f's terms keyed by the packed monomials of width w.

    The c^i part of a target t comes from the one monomial t + i*(x_var -
    template), times binomial(its x_var-degree, i); the walk adds the packed
    step up to the last i with no negative exponent.  There is no last i for
    the template x_var or 1, which is no shift by a monomial free of x_var (a
    ValueError).
    """
    step = [-b for b in template]
    step[var] += 1
    if min(step) >= 0:
        raise ValueError(
            f"{VARIABLES[var]} -> {VARIABLES[var]} + c*{format_monomial(template)} "
            f"is not a shift by a monomial free of {VARIABLES[var]}"
        )
    packed_step = _pack(step, w)
    out: list[dict[int, Fraction]] = []
    for t in targets:
        poly = {}
        m = _pack(t, w)
        for i in range(min(e // -s for e, s in zip(t, step) if s < 0) + 1):
            c = terms.get(m, 0) * comb(t[var] + i * step[var], i)
            if c:
                poly[i] = c
            m += packed_step
        out.append(poly)
    return out


def _canonical_rational_root(poly: dict[int, Fraction | int]) -> Fraction | None:
    """Deterministic rational root choice: smallest |root|, positive first."""
    if not poly:
        return Fraction(0)
    deg = max(poly)
    if deg == 0:
        return None  # nonzero constant: target unreachable
    roots = univariate_rational_roots([poly.get(k, 0) for k in range(deg + 1)])
    return min(roots, key=lambda r: (abs(r), r < 0), default=None)


def _shift(f: IntegerForm, ws: WeightSystem, var: int, num: dict, den: int) -> tuple[IntegerForm, Substitution]:
    """f after x_var -> x_var + num/den (packed keys), with the substitution for the audit."""
    sub = Substitution(var, GradedPolynomial(ws, ws.weights[var], *_reduced(num, den)))
    return _substitute_ints(*f, var, sub.tail), sub


def _apply_depress(f: IntegerForm, ws: WeightSystem, p: DepressPass) -> tuple[IntegerForm, Substitution]:
    num, j, w = f[0], p.variable, _width(ws.degree)
    shift, mask = w * j, (1 << w) - 1
    pivot = num.get(3 << shift, 0)
    if pivot == 0:
        raise GenericityError(f"depress pass: pivot {VARIABLES[j]}^3 has zero coefficient")
    layer = {m - (2 << shift): -c for m, c in num.items() if m >> shift & mask == 2}
    return _shift(f, ws, j, layer, 3 * pivot)


def _solve_step_univariate(
    f: IntegerForm, ws: WeightSystem, var: int, template: Monomial, target: Monomial
) -> tuple[IntegerForm, Substitution]:
    """Kill one target with one constant by exact univariate root extraction."""
    (poly,) = _elimination_polynomial(f[0], _width(ws.degree), var, template, [target])
    root = _canonical_rational_root(poly)
    if root is None:
        raise GenericityError(
            f"cannot eliminate {format_monomial(target)} via "
            f"{VARIABLES[var]} -> {VARIABLES[var]} + c*{format_monomial(template)}: "
            "no rational solution (genericity/pivot failure)"
        )
    tail = {_pack(template, _width(ws.degree)): root.numerator} if root else {}
    return _shift(f, ws, var, tail, root.denominator)


def _apply_level(
    f: IntegerForm, ws: WeightSystem, steps: list[tuple[int, Monomial, Monomial]]
) -> tuple[IntegerForm, list[Substitution]]:
    """Jointly kill one x-level's targets by an exact linear solve.

    The plan validation guarantees every two template x-degrees in the level
    sum to more than the target level, so multiple conversions land strictly
    above it and the map constants -> target coefficients is affine: its base
    is f's own target coefficients and column i the c^1 coefficient of step i,
    both read from f's numerators (scaling by den leaves the solution alone).
    """
    w = _width(ws.degree)
    targets = [target for (_, _, target) in steps]
    columns = [
        [poly.get(1, 0) for poly in _elimination_polynomial(f[0], w, var, template, targets)]
        for var, template, _ in steps
    ]
    numerators, det = _solve_linear(columns, [-f[0].get(_pack(t, w), 0) for t in targets])
    if det == 0:
        raise GenericityError(
            "level solve is singular for targets " + ", ".join(format_monomial(t) for t in targets)
        )
    subs = []
    for (var, template, _), c in zip(steps, numerators):
        f, sub = _shift(f, ws, var, {_pack(template, w): c} if c else {}, det)
        subs.append(sub)
    return f, subs


def _solve_linear(columns: list[list[int]], rhs: list[int]) -> tuple[list[int], int]:
    """Solve sum_j x_j * columns[j] = rhs exactly by Cramer's rule: the
    numerators x_j * det, and det, which is 0 when singular.  A matrix and its
    transpose have one determinant, so the columns serve as the rows of
    ``mat_det``."""
    det = mat_det(columns)
    if det == 0:
        return [], 0
    return [mat_det(columns[:j] + [rhs] + columns[j + 1 :]) for j in range(len(columns))], det


def normalize(
    f: GradedPolynomial, plan: NormalizationPlan
) -> tuple[GradedPolynomial, list[Substitution]]:
    """Apply the plan's eliminations, ordered by the x-degree filtration.

    Substituting x_v -> x_v + c * template only changes coefficients of
    monomials whose x-degree is at least that of the template, so the solve is
    triangular in the x-degree of the eliminated monomials: the x-degree-0
    steps (shears and root-moving shifts, solved by exact univariate root
    extraction) run first in plan order, then the targets of each higher
    x-level are one exact joint linear solve.  The validation below checks the
    two facts this ordering relies on: within a level no product of two
    template degrees can fall back onto the level (affine residual), and no
    constant of a later level can reach down to an earlier one.  Every
    elimination of every pass is verified once, together, at the end.

    Returns the reduced polynomial plus the applied substitutions for audit.
    """
    if plan.ws.septuple != f.ws.septuple:
        raise ValueError("normalize: plan and polynomial weight systems differ")
    depress: list[DepressPass] = []
    levels: dict[int, list[tuple[int, Monomial, Monomial]]] = {}
    for p in plan.passes:
        if isinstance(p, DepressPass):
            depress.append(p)
            continue
        for template, target in p.steps:
            want = (f.ws.weights[p.variable], f.grade)
            got = (weighted_degree(template, f.ws), weighted_degree(target, f.ws))
            if got != want:
                raise ValueError(
                    f"normalize: template {format_monomial(template)} and target "
                    f"{format_monomial(target)} have degrees {got}, not {want}"
                )
            lvl = target[0]  # the x-degree
            if template[0] > lvl:
                raise ValueError(
                    "normalize: template x-degree exceeds its target "
                    f"({format_monomial(template)} -> {format_monomial(target)})"
                )
            levels.setdefault(lvl, []).append((p.variable, template, target))
    ordered = sorted(levels.keys() - {0})
    for pos, lvl in enumerate(ordered):
        degrees = [t[0] for (_, t, _) in levels[lvl]]
        if min(a + b for a in degrees for b in degrees) <= lvl:
            raise ValueError(
                f"normalize: level {lvl} is not affine (template degrees {degrees})"
            )
        for earlier in ordered[:pos]:
            if min(degrees) <= earlier:
                raise ValueError(
                    f"normalize: level-{lvl} constants could pollute level {earlier}"
                )

    applied: list[Substitution] = []
    g = f.num, f.den
    for p in depress:
        g, sub = _apply_depress(g, f.ws, p)
        applied.append(sub)
    for var, template, target in levels.get(0, []):
        g, sub = _solve_step_univariate(g, f.ws, var, template, target)
        applied.append(sub)
    for lvl in ordered:
        g, subs = _apply_level(g, f.ws, levels[lvl])
        applied.extend(subs)
    num, w = g[0], _width(f.ws.degree)
    mask = (1 << w) - 1
    stale = [m for m in plan.eliminated() if num.get(_pack(m, w), 0) != 0]
    for p in depress:
        stale.extend(_unpack(m, w) for m in num if m >> w * p.variable & mask == 2)
    if stale:
        raise PlanOrderError(
            "eliminations did not close; still present: "
            + ", ".join(format_monomial(m) for m in stale)
        )
    return GradedPolynomial(f.ws, f.grade, *g), applied


# ---------------------------------------------------------------------------
# built-in reductions for the named families

X, Y, Z, T, W = 0, 1, 2, 3, 4

#: Sampling requirements that make each family's reduction and certificates
#: solvable over the rationals.  The keys are the families with a sampler: the
#: eight exceptional ones and the three of the binary-cubic normal form.
_CHECKS: dict[int, tuple[SliceSplit, ...]] = {
    1: (), 39: (), 66: (), 84: (),
    9: (SliceSplit((T, W)),), 17: (SliceSplit((T, W)),), 27: (SliceSplit((T, W)),),
    19: (SliceSplit((Z, T)), SliceSplit((Y, W)), SliceSplit((Z, T), "y^3", (W, "y^2"))),
    28: (SliceSplit((Y, Z)),), 49: (SliceSplit((Y, T)),), 59: (SliceSplit((Y, Z)),),
}

#: The reduction plans of the seven symmetry-route families, one pass per
#: string: "depress w" is a DepressPass, "t: z>z^4, ..." a ShiftPass of t by
#: (template>target) steps.  Pass order matters: equal-weight shears that move
#: designated rational roots to the coordinate points run before the
#: upper-triangular shifts, and each shift pass is ordered so every solve is
#: reachable from live pivots.
_PLANS: dict[int, tuple[str, ...]] = {
    # the first two passes move two roots of the pure (z,t) quartic to the coordinate points
    19: ("t: z>z^4",
         "z: t>t^4",
         "w: y^2>y^6, y*x^2>y^5*x^2, x*z>y^4*x*z, x*t>y^4*x*t",
         "y: x^2>w*y^3*x^2",
         "z: x*y>t^3*x*y, x^3>t^3*x^3",
         "t: x*y>z^3*x*y, x^3>z^3*x^3"),
    # the two passes after the depression do the same for the pure (y,z) quintic
    28: ("depress w",
         "z: y>y^5",
         "y: z>z^5",
         "z: x^3>y^4*x^3",
         "y: x^3>t^3*x^3",
         "t: z*x>t^2*z^2*x, y*x>t^2*z*y*x, x^4>t^2*z*x^4"),
    39: ("depress w",
         "y: x^3>t^3*x^3",
         "t: x*z>t^2*y*z*x, x^2*y>t^2*y^2*x^2, x^5>t^2*y*x^5",
         "z: x*y>z^2*w*y*x, x^4>z^2*w*x^4"),
    49: ("depress w",
         "y: x^3>t^3*x^3",
         "t: y^2>y^7, x*z>y^5*x*z, x^3*y>y^6*x^3, x^6>y^5*x^6",
         "z: x^2*y>z^3*x^3*y, x^5>z^3*x^6"),
    59: ("depress w",
         "y: x^3>t^3*x^3",
         "t: x*y^2>t^2*y^3*x, x*z>t^2*y*x*z, x^7>t^2*y*x^7",
         "z: y^2>y^8, y*x^3>y^7*x^3, x^6>y^6*x^6"),
    66: ("depress w",
         "z: x*y>t^3*x*y, x^6>t^3*x^6",
         "t: x*z>y^4*x*z, x^2*y>y^5*x^2, x^7>y^4*x^7",
         "y: x^5>y^3*t*x^5"),
    84: ("depress w",
         "z: x*y>y^5*x, x^8>y^4*x^8",
         "y: x^7>y^3*z*x^7",
         "t: x*z>t^3*x*z, x^2*y>t^3*x^2*y, x^9>t^3*x^9"),
}


def _parse_pass(text: str) -> PlanPass:
    if text.startswith("depress "):
        return DepressPass(VARIABLES.index(text.split()[1]))
    var, steps = text.split(":")
    pairs = (tuple(map(parse_monomial, step.split(">"))) for step in steps.split(","))
    return ShiftPass(VARIABLES.index(var), tuple(pairs))  # type: ignore[arg-type]


def family_weight_system(number: int) -> WeightSystem:
    """The weight system of a family with a sampler."""
    if number not in _CHECKS:
        raise ValueError(f"unknown family number {number}")
    (septuple,) = (s for s, n in FAMILY_LABELS.items() if n == number)
    return weight_system(*septuple)


@cache
def builtin_plan(number: int) -> NormalizationPlan:
    """The reduction plan for one of the seven symmetry-route families."""
    ws = family_weight_system(number)
    if number not in _PLANS:
        raise ValueError(f"no built-in plan for family {number}")
    return NormalizationPlan(ws=ws, passes=tuple(map(_parse_pass, _PLANS[number])))


def sample_family_member(number: int, seed: int = 0) -> GradedPolynomial:
    return sample_general_member(family_weight_system(number), seed=seed, checks=_CHECKS[number])


# ---------------------------------------------------------------------------
# reference monomial tables

#: Transcribed reference lists of the reduced supports for the seven
#: symmetry-route families.
REFERENCE_TABLES: dict[int, str] = {
    19: (
        "w^3, z*t^3, z^2*t^2, z^3*t, y*t^2*w, y*z*t*w, y*z^2*w, y^2*w^2, y^3*t^2, "
        "y^3*z*t, y^3*z^2, y^4*w, x*y*z*t^2, x*y*z^2*t, x*y^2*t*w, x*y^2*z*w, "
        "x*z*w^2, x*t*w^2, x^2*t^2*w, x^2*z*t*w, x^2*z^2*w, x^2*y^2*t^2, "
        "x^2*y^2*z*t, x^2*y^2*z^2, x^3*z*t^2, x^3*z^2*t, x^3*y*t*w, x^3*y*z*w, "
        "x^3*y^3*t, x^3*y^3*z, x^4*y*t^2, x^4*y*z*t, x^4*y*z^2, x^4*y^2*w, "
        "x^4*y^4, x^4*w^2, x^5*t*w, x^5*z*w, x^5*y^2*t, x^5*y^2*z, x^6*t^2, "
        "x^6*z*t, x^6*z^2, x^6*y*w, x^6*y^3, x^7*y*t, x^7*y*z, x^8*w, x^8*y^2, "
        "x^9*t, x^9*z, x^10*y, x^12"
    ),
    28: (
        "w^3, z*t^3, z^2*t*w, y*t^3, y*z*t*w, y*z^4, y^2*t*w, y^2*z^3, y^3*z^2, "
        "y^4*z, x*z^3*w, x*y*z^2*w, x*y^2*t^2, x*y^2*z*w, x*y^3*w, x^2*t^2*w, "
        "x^2*z^3*t, x^2*y*z^2*t, x^2*y^2*z*t, x^2*y^3*t, x^3*z*t*w, x^3*y*t*w, "
        "x^3*y*z^3, x^3*y^2*z^2, x^3*y^3*z, x^4*z^2*w, x^4*y*t^2, x^4*y*z*w, "
        "x^4*y^2*w, x^5*z^2*t, x^5*y*z*t, x^5*y^2*t, x^6*t*w, x^6*z^3, x^6*y*z^2, "
        "x^6*y^2*z, x^6*y^3, x^7*t^2, x^7*z*w, x^7*y*w, x^8*z*t, x^8*y*t, "
        "x^9*z^2, x^9*y*z, x^9*y^2, x^10*w, x^11*t, x^12*z, x^12*y, x^15"
    ),
    39: (
        "w^3, z^2*t^2, z^3*w, y*t^3, y*z*t*w, y^2*z^3, y^3*z*t, y^4*w, y^6, "
        "x*z^3*t, x*y^2*t*w, x*y^3*z^2, x*y^4*t, x^2*t^2*w, x^2*z^4, x^2*y*z^2*t, "
        "x^2*y^2*z*w, x^2*y^4*z, x^3*z*t*w, x^3*y*z^3, x^3*y^2*z*t, x^3*y^3*w, "
        "x^3*y^5, x^4*z*t^2, x^4*y*t*w, x^4*y^2*z^2, x^4*y^3*t, x^5*z^2*t, "
        "x^5*y*z*w, x^5*y^3*z, x^6*z^3, x^6*y*z*t, x^6*y^2*w, x^6*y^4, x^7*t*w, "
        "x^7*y*z^2, x^7*y^2*t, x^8*t^2, x^8*z*w, x^8*y^2*z, x^9*z*t, x^9*y*w, "
        "x^9*y^3, x^10*z^2, x^10*y*t, x^11*y*z, x^12*w, x^12*y^2, x^13*t, "
        "x^14*z, x^15*y, x^18"
    ),
    49: (
        "w^3, z^3*t, y*t^3, y*z*t*w, y^2*z^3, y^3*t^2, y^3*z*w, y^5*t, x*z^4, "
        "x*y*z*t^2, x*y*z^2*w, x*y^3*z*t, x^2*t^2*w, x^2*y*z^2*t, x^2*y^2*t*w, "
        "x^2*y^3*z^2, x^2*y^4*w, x^3*z*t*w, x^3*y^2*t^2, x^3*y^2*z*w, x^3*y^4*t, "
        "x^4*z*t^2, x^4*z^2*w, x^4*y^2*z*t, x^4*y^4*z, x^5*z^2*t, x^5*y*t*w, "
        "x^5*y^2*z^2, x^5*y^3*w, x^6*y*t^2, x^6*y*z*w, x^6*y^3*t, x^7*y*z*t, "
        "x^7*y^3*z, x^8*t*w, x^8*y*z^2, x^8*y^2*w, x^9*t^2, x^9*z*w, x^9*y^2*t, "
        "x^9*y^4, x^10*z*t, x^10*y^2*z, x^11*z^2, x^11*y*w, x^12*y*t, x^12*y^3, "
        "x^13*y*z, x^14*w, x^15*t, x^15*y^2, x^16*z, x^18*y, x^21"
    ),
    59: (
        "w^3, z^4, y*t^3, y*z*t*w, y^2*z^3, y^3*t*w, y^4*z^2, y^6*z, x*y*z^2*w, "
        "x*y^3*z*w, x*y^5*w, x^2*t^2*w, x^2*y*z^2*t, x^2*y^3*z*t, x^2*y^5*t, "
        "x^3*z*t*w, x^3*y*z^3, x^3*y^2*t*w, x^3*y^3*z^2, x^3*y^5*z, x^4*z*t^2, "
        "x^4*z^2*w, x^4*y^2*t^2, x^4*y^2*z*w, x^4*y^4*w, x^5*z^2*t, x^5*y^2*z*t, "
        "x^5*y^4*t, x^6*z^3, x^6*y*t*w, x^6*y^2*z^2, x^6*y^4*z, x^7*y*z*w, "
        "x^7*y^3*w, x^8*y*z*t, x^8*y^3*t, x^9*t*w, x^9*y*z^2, x^9*y^3*z, "
        "x^9*y^5, x^10*t^2, x^10*z*w, x^10*y^2*w, x^11*z*t, x^11*y^2*t, "
        "x^12*z^2, x^12*y^2*z, x^12*y^4, x^13*y*w, x^14*y*t, x^15*y*z, x^15*y^3, "
        "x^16*w, x^17*t, x^18*z, x^18*y^2, x^21*y, x^24"
    ),
    66: (
        "w^3, z*t^3, z^3*w, y*z*t*w, y^3*z^2, y^4*t, x*z^2*t^2, x*y*z^2*w, "
        "x*y^2*t*w, x^2*z^3*t, x^2*y*z*t^2, x^2*y^2*z*w, x^3*z^4, x^3*y*z^2*t, "
        "x^3*y^2*t^2, x^3*y^3*w, x^4*t^2*w, x^4*y*z^3, x^4*y^2*z*t, x^5*z*t*w, "
        "x^5*y^2*z^2, x^6*z^2*w, x^6*y*t*w, x^6*y^3*z, x^7*z*t^2, x^7*y*z*w, "
        "x^8*z^2*t, x^8*y*t^2, x^8*y^2*w, x^9*z^3, x^9*y*z*t, x^10*y*z^2, "
        "x^10*y^2*t, x^11*t*w, x^11*y^2*z, x^12*z*w, x^12*y^3, x^13*t^2, "
        "x^13*y*w, x^14*z*t, x^15*z^2, x^15*y*t, x^16*y*z, x^17*y^2, x^18*w, "
        "x^20*t, x^21*z, x^22*y, x^27"
    ),
    84: (
        "w^3, t^4, z^3*w, y*z*t*w, y^4*z, x*y*z^2*w, x*y^2*t*w, x^2*z^2*t^2, "
        "x^2*y^2*z*w, x^3*z^3*t, x^3*y*z*t^2, x^3*y^3*w, x^4*z^4, x^4*y*z^2*t, "
        "x^4*y^2*t^2, x^5*y*z^3, x^5*y^2*z*t, x^6*t^2*w, x^6*y^2*z^2, x^6*y^3*t, "
        "x^7*z*t*w, x^8*z^2*w, x^8*y*t*w, x^9*y*z*w, x^10*z*t^2, x^10*y^2*w, "
        "x^11*z^2*t, x^11*y*t^2, x^12*z^3, x^12*y*z*t, x^13*y*z^2, x^13*y^2*t, "
        "x^14*y^2*z, x^15*t*w, x^15*y^3, x^16*z*w, x^17*y*w, x^18*t^2, "
        "x^19*z*t, x^20*z^2, x^20*y*t, x^21*y*z, x^22*y^2, x^24*w, x^27*t, "
        "x^28*z, x^29*y, x^36"
    ),
}

#: Monomials missing from the transcribed reference lists, which the reduced
#: support of a general member contains.  Acceptance criterion 4 checks each
#: one: the orbit-tangent rank of the verbatim list falls one short of the
#: number of degree-d monomials, the corrected list reaches it, and the
#: normalized support equals the corrected list.
REFERENCE_TABLE_ERRATA: dict[int, str] = {
    19: "x^2*y*w^2",
    28: "x^3*z^4",
}


def reference_support(number: int) -> frozenset[Monomial]:
    """Reference reduced support for a symmetry-route family: the transcribed
    list (``REFERENCE_TABLES``) with its provable omissions restored."""
    if number not in REFERENCE_TABLES:
        raise ValueError(f"no reference table for family {number}")
    support = set(parse_monomial_set(REFERENCE_TABLES[number]))
    if number in REFERENCE_TABLE_ERRATA:
        support.add(parse_monomial(REFERENCE_TABLE_ERRATA[number]))
    return frozenset(support)


# ---------------------------------------------------------------------------
# member-level quasismoothness


@dataclass(frozen=True)
class MacaulayCheck:
    """One degree of the Jacobian certificate: the rank modulo ``prime`` of
    rows chosen from the degree-``degree`` Macaulay matrix, which has
    ``columns`` columns.  It proves that the degree is full when rank == columns."""

    degree: int
    columns: int
    rank: int
    prime: int


@dataclass(frozen=True)
class MemberVerdict:
    status: str  # "quasismooth" | "singular" | "indeterminate"
    witness: str | None = None
    detail: str = ""
    #: the Jacobian certificate, set once the axis and edge checks pass
    sigma: int | None = None
    checks: tuple[MacaulayCheck, ...] = ()

    def __bool__(self) -> bool:
        raise TypeError("MemberVerdict is tri-state; compare .status explicitly")


#: primes tried in turn for each Macaulay matrix; 64 * (p-1)^2 < 2^52
MACAULAY_PRIMES = (32003, 31991, 32009)
#: the most columns a checked Macaulay matrix may have: its chosen rows form a
#: dense float64 square (128 MiB at the limit); a member whose candidate
#: degrees cover three variables only with a larger one gets "indeterminate"
MAX_MACAULAY_COLUMNS = 4096
#: random rows of the Macaulay matrix added to the chosen rows when a column
#: has no chosen row or the chosen square is singular; a nonsingular square
#: needs none
EXTRA_ROWS = 8
#: products summed by one bincount while those random rows are built (2 MiB
#: per temporary)
MIX_ENTRIES = 1 << 18


def quasismooth_member(f: GradedPolynomial) -> MemberVerdict:
    """Check a specific member for quasismoothness, with a certificate.

    Coordinate axes and edges are decided exactly over the rationals (f's
    terms x_i^e and x_i^e * x_k, and binary-form gcds on the edges); they are the
    one source of "singular" verdicts.  The rest is the Jacobian criterion
    (Macaulay 1916; Lazard 1983): f of degree d in weights a_1..a_5 is
    quasismooth iff its Jacobian ideal J contains every monomial of degree
    greater than sigma = sum(d - 2 a_i).  Full column rank of the degree-k
    Macaulay matrix A of J (rows: monomial times partial, with f's
    denominators and content cleared; columns: the degree-k monomials) shows
    that x_i^(k/a_i) lies in J for every a_i dividing k.  With a power of
    each of three variables in J, every common zero of the partials lies on
    the coordinate edge of the other two, where the exact checks found none
    but the origin.  So the candidate degrees are the least multiples of
    each a_i above sigma, and the certificate checks only some of them:
    among the subsets that cover three variables and stay within
    MAX_MACAULAY_COLUMNS, the one with the least sum of squared column
    counts, the first in ``combinations`` order over ascending degrees on a
    tie.  If no subset fits, the verdict is "indeterminate" at once.

    The rank is taken modulo a prime, of Macaulay's choice of one row of A
    per column, and only if that square leaves a column without a row or is
    singular, of those rows plus a few seeded random combinations of A's rows
    (``_macaulay_rank``): all lie in A's row space, and a nonzero minor mod p
    is nonzero over the integers, so their full rank mod p is a proof.  A
    degree that stays deficient at every prime of MACAULAY_PRIMES proves
    nothing: the verdict is then "indeterminate", never "quasismooth", and
    its certificate ends with that degree.  The edge gcds are exact over Q
    (``common_interior_degree``, on integer coefficients).
    """
    from itertools import combinations

    monomials = f.monomials()
    for i in range(NVARS):
        # a partial holds a pure power of x_i only from a term x_i^e or x_i^e * x_k
        # of f; by the Euler relation, P_i is singular iff no partial does
        if all(sum(m) - m[i] > 1 for m in monomials):
            point = ":".join("1" if k == i else "0" for k in range(NVARS))
            return MemberVerdict(status="singular", witness=f"[{point}]", detail=f"axis {VARIABLES[i]}")
    # the partials of f's primitive integer multiple (f is nonzero, as its axes passed)
    content = gcd(*f.num.values())
    primitive = GradedPolynomial(f.ws, f.grade, {m: c // content for m, c in f.num.items()}, 1)
    partials = [partial_derivative(primitive, k) for k in range(NVARS)]
    for pair in combinations(range(NVARS), 2):
        verdict = _check_edge(partials, pair)
        if verdict is not None:
            return verdict

    weights = f.ws.weights
    sigma = sum(f.grade - 2 * a for a in weights)
    # for sigma < 0 the variables themselves (degree a_i > sigma) must lie in J
    degrees = sorted({(max(sigma, 0) // a + 1) * a for a in weights})
    columns = {k: count_monomials(weights, k) for k in degrees}
    covering = [
        chosen
        for r in range(1, len(degrees) + 1)
        for chosen in combinations(degrees, r)
        if sum(any(k % a == 0 for k in chosen) for a in weights) >= NVARS - 2
        and all(columns[k] <= MAX_MACAULAY_COLUMNS for k in chosen)
    ]
    if not covering:
        return MemberVerdict(
            status="indeterminate",
            detail=f"Macaulay matrices of degrees {degrees} have {list(columns.values())} "
            f"columns: every choice covering {NVARS - 2} variables needs one with more "
            f"than the limit of {MAX_MACAULAY_COLUMNS}",
            sigma=sigma,
        )
    checks = []
    for k in min(covering, key=lambda chosen: sum(columns[k] ** 2 for k in chosen)):
        for p in MACAULAY_PRIMES:
            rank = _macaulay_rank(partials, k, p)
            if rank == columns[k]:
                break
        checks.append(MacaulayCheck(degree=k, columns=columns[k], rank=rank, prime=p))
        if rank < columns[k]:
            return MemberVerdict(
                status="indeterminate",
                detail=f"Macaulay matrix of degree {k} has rank {rank} < {columns[k]} "
                f"modulo each of {MACAULAY_PRIMES}",
                sigma=sigma,
                checks=tuple(checks),
            )
    return MemberVerdict(status="quasismooth", sigma=sigma, checks=tuple(checks))


def _check_edge(partials: list[GradedPolynomial], pair: tuple[int, int]) -> MemberVerdict | None:
    i, j = pair
    forms = [form for g in partials if any(form := slice_numerators(g, pair))]
    # never empty: the axis checks passed, so the partial holding a pure power
    # of x_i has a nonzero slice here
    degree = common_interior_degree(forms)
    if degree:
        return MemberVerdict(
            status="singular",
            detail=f"common interior root on edge {VARIABLES[i]}{VARIABLES[j]}: gcd degree {degree}",
        )
    return None


def _macaulay_rank(partials: list[GradedPolynomial], k: int, p: int) -> int:
    """Rank mod p of chosen rows of A, the degree-k Macaulay matrix of the
    integer partials: one row per column, then, if needed, EXTRA_ROWS random
    ones.

    The choice is Macaulay's (1902; Lazard 1983).  Each variable x_i gets a
    pure power x_i^e that is a term, nonzero mod p, of a partial d_j f that
    no other variable has taken: the variables with the fewest such terms
    choose first, each the smallest e, then the first partial.  Power by
    power, each column m still without a row that x_i^e divides gets the row
    (m / x_i^e) * d_j f at m's own index, so the coefficient of x_i^e sits on
    the diagonal; rows of distinct partials, or of distinct quotients, are
    distinct.

    When every column has a row, the n x n square of them is ranked alone, and
    full rank ends the check with no random row drawn.  Otherwise, a column
    left without a row or a singular square, an (n + EXTRA_ROWS) x n matrix
    is built afresh, since ``rank_mod_p`` eliminated the square in place: the
    chosen rows again, and in the free slots and the EXTRA_ROWS more, seeded
    random combinations of all rows of A; its rank is returned.  Every row
    lies in A's row space, so full rank mod p still proves that A has full
    rank.
    """
    import numpy as np

    ws = partials[0].ws
    base = k + 1  # exponents are at most k, so keys add without carries
    if base**NVARS >= 1 << 63:
        raise ValueError(f"Macaulay degree {k} is past int64 monomial keys")
    place = base ** np.arange(NVARS - 1, -1, -1, dtype=np.int64)

    def exponents(monomials) -> "np.ndarray":
        return np.array(monomials, dtype=np.int64).reshape(-1, NVARS)

    columns = exponents(enumerate_monomials(ws, k))
    column_keys = columns @ place  # ascending, as the monomials are
    n = len(column_keys)
    by_grade = {d: exponents(enumerate_monomials(ws, k - d)) @ place for d in {g.grade for g in partials} if d <= k}
    row_sets = []  # per partial: term keys, coefficients mod p, multipliers, {i: e} of its pure powers
    for g in partials:
        if g.num and g.grade <= k:
            coefficients = [c % p for c in g.num.values()]
            monomials = g.monomials()
            pure = {m.index(e): e for m, c in zip(monomials, coefficients) if c and 0 < (e := max(m)) == sum(m)}
            term_keys = exponents(monomials) @ place
            row_sets.append((term_keys, np.array(coefficients, dtype=np.float64), by_grade[g.grade], pure))
    rows = sum(len(multipliers) for _, _, multipliers, _ in row_sets)
    if rows * (p - 1) ** 2 >= EXACT_BOUND:
        raise ValueError(f"Macaulay matrix of {rows} rows is past exact float64")

    options = [[(pure[i], s) for s, (*_, pure) in enumerate(row_sets) if i in pure] for i in range(NVARS)]
    chosen = []  # (row indices, column indices, values) of the chosen rows
    free = np.ones(n, dtype=bool)
    used = set()
    for i in sorted(range(NVARS), key=lambda i: len(options[i])):
        fresh = [option for option in options[i] if option[1] not in used]
        if not fresh:
            continue  # the columns that no other power divides take random rows
        e, s = min(fresh)
        used.add(s)
        term_keys, values, _, _ = row_sets[s]
        owners = np.flatnonzero(free & (columns[:, i] >= e))
        quotients = column_keys[owners] - e * place[i]
        chosen.append((owners[:, None], np.searchsorted(column_keys, quotients[:, None] + term_keys), values))
        free[owners] = False

    def with_chosen_rows(shape) -> "np.ndarray":
        matrix = np.zeros(shape)
        for owners, cols, values in chosen:
            matrix[owners, cols] = values
        return matrix

    if not free.any():
        # exactly n x n, so that the square allocates only what it ranks
        if rank_mod_p(with_chosen_rows((n, n)), p) == n:
            return n
    # rank_mod_p eliminated the square in place, so the rows are written again
    matrix = with_chosen_rows((n + EXTRA_ROWS, n))
    # the random rows, summed exactly in float64 (the row check above bounds them)
    spare = np.concatenate([np.flatnonzero(free), np.arange(n, n + EXTRA_ROWS)])
    offsets = np.arange(len(spare))[:, None, None] * n
    mixed = np.zeros(len(spare) * n)
    rng = np.random.default_rng(0)  # fixed, so the certificate repeats
    for term_keys, values, multipliers, _ in row_sets:
        step = max(1, MIX_ENTRIES // (len(spare) * len(term_keys)))
        for chunk in np.split(multipliers, range(step, len(multipliers), step)):
            cols = np.searchsorted(column_keys, chunk[:, None] + term_keys)
            mix = rng.integers(0, p, size=(len(spare), len(chunk), 1)).astype(np.float64)
            mixed += np.bincount((offsets + cols).ravel(), (mix * values).ravel(), minlength=mixed.size)
    matrix[spare] = mixed.reshape(len(spare), n)
    return rank_mod_p(matrix, p)
