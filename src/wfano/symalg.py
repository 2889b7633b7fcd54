"""Sparse quasihomogeneous polynomial algebra and coordinate normalization.

Polynomials carry exact rational coefficients on weighted monomials of a fixed
grade.  On top of the arithmetic sit the pieces needed to put a general member
of a named family into its reduced shape: seeded sampling with designated
rational root structure, triangular coordinate substitutions solved pass by
pass, the built-in reduction plans as a text table, the binary-cubic
normal form, and a member-level quasismoothness check that returns its
Jacobian-criterion certificate (Macaulay-matrix ranks modulo a prime).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add
from typing import Sequence

from .catalog import FAMILY_LABELS
from .exactmath import (
    EXACT_BOUND,
    common_interior_degree,
    rank_mod_p,
    rational_roots,
    squarefree_and_root_count,
    triple_matrix,
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
    """Quasihomogeneous polynomial: finite map monomial -> nonzero rational."""

    ws: WeightSystem
    grade: int
    terms: dict[Monomial, Fraction]

    def __post_init__(self) -> None:
        for m, c in self.terms.items():
            if c == 0:
                raise ValueError("GradedPolynomial: zero coefficient stored")
            if weighted_degree(m, self.ws) != self.grade:
                raise ValueError(
                    f"GradedPolynomial: {format_monomial(m)} has degree "
                    f"{weighted_degree(m, self.ws)}, not {self.grade}"
                )

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    @property
    def support(self) -> frozenset[Monomial]:
        return frozenset(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c: Fraction | int) -> "GradedPolynomial":
        c = Fraction(c)
        if c == 0:
            return GradedPolynomial(self.ws, self.grade, {})
        return GradedPolynomial(self.ws, self.grade, {m: v * c for m, v in self.terms.items()})

    def __str__(self) -> str:
        return format_polynomial(self)


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


def parse_polynomial(text: str, ws: WeightSystem, grade: int) -> GradedPolynomial:
    """Parse the text form emitted by format_polynomial ("-3/2*x^2*y*w + w^3")."""
    terms: dict[Monomial, Fraction] = {}
    text = text.replace("- ", "+ -").replace(" ", "")
    if text in ("", "0"):
        return GradedPolynomial(ws, grade, {})
    for chunk in text.split("+"):
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign, chunk = Fraction(-1), chunk[1:]
        factors = chunk.split("*")
        coeff = sign
        mono_parts = []
        for fct in factors:
            if fct and (fct[0].isdigit() or "/" in fct):
                coeff *= Fraction(fct)
            else:
                mono_parts.append(fct)
        m = parse_monomial("*".join(mono_parts)) if mono_parts else (0, 0, 0, 0, 0)
        terms[m] = terms.get(m, Fraction(0)) + coeff
    return GradedPolynomial(ws, grade, {m: c for m, c in terms.items() if c != 0})


def _mul_terms(a: dict, b: dict, terms: dict | None = None) -> dict:
    """Product of two monomial -> coefficient maps (int or Fraction), added
    into ``terms`` (a new map by default), zeros dropped."""
    terms = {} if terms is None else terms
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            v = terms.get(m, 0) + ca * cb
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
    return terms


def partial_derivative(f: GradedPolynomial, var: int) -> GradedPolynomial:
    terms: dict[Monomial, Fraction] = {}
    for m, c in f.terms.items():
        if m[var]:
            mm = list(m)
            mm[var] -= 1
            terms[tuple(mm)] = c * m[var]
    return GradedPolynomial(f.ws, f.grade - f.ws.weights[var], terms)


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
        for m in self.tail.terms:
            if m[self.target]:
                raise ValueError("Substitution: tail must not involve the target variable")

    @property
    def is_identity(self) -> bool:
        return self.tail.is_zero()

    def inverse(self) -> "Substitution":
        return Substitution(self.target, self.tail.scale(-1))

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
    num, den = _substitute_ints(*_integers(f), sub.target, sub.tail)
    return GradedPolynomial(f.ws, f.grade, {m: Fraction(v, den) for m, v in num.items()})


IntegerForm = tuple[dict[Monomial, int], int]  # integer numerators over one positive denominator


def _integers(f: GradedPolynomial) -> IntegerForm:
    """f as an integer form with gcd(den, *num) = 1."""
    den = lcm(*(c.denominator for c in f.terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}, den


def _substitute_ints(num: dict[Monomial, int], den: int, j: int, tail: GradedPolynomial) -> IntegerForm:
    """num/den after x_j -> x_j + tail, reduced to gcd 1.  With tail = T/q and E
    the top power of x_j, F_m * x^m becomes F_m * q^(E-m_j) * (q*x_j + T)^m_j
    over den * q^E: the output starts as num * q^E, and the rest is added."""
    q = lcm(*(c.denominator for c in tail.terms.values()))
    # (q*x_j + T)^e / x_j^e is the e-th power of q + T/x_j
    repl = {_unit(None): q} | {
        tuple(a - (k == j) for k, a in enumerate(m)): c.numerator * (q // c.denominator)
        for m, c in tail.terms.items()
    }
    max_e = max((m[j] for m in num), default=0)
    powers: list[dict[Monomial, int]] = [{_unit(None): 1}]
    for _ in range(max_e):
        powers.append(_mul_terms(powers[-1], repl))
    rests = [[(mm, cc) for mm, cc in p.items() if any(mm)] for p in powers]  # all but q^e
    top = q**max_e
    out = {m: c * top for m, c in num.items()} if top != 1 else dict(num)
    for m, c in num.items():
        scale = c * q ** (max_e - m[j])
        for mm, cc in rests[m[j]]:
            key = tuple(map(add, m, mm))
            v = out.get(key, 0) + scale * cc
            if v:
                out[key] = v
            else:
                del out[key]
    # the degree check of GradedPolynomial, on the monomials num did not have
    new = {m: out[m] for m in out.keys() - num.keys()}
    GradedPolynomial(tail.ws, weighted_degree(next(iter(num), _unit(None)), tail.ws), new)
    den *= top
    g = gcd(den, *out.values())
    return ({m: v // g for m, v in out.items()}, den // g) if g != 1 else (out, den)


def _unit(var: int | None) -> Monomial:
    e = [0, 0, 0, 0, 0]
    if var is not None:
        e[var] = 1
    return tuple(e)  # type: ignore[return-value]


def apply_pair_map(
    f: GradedPolynomial, i: int, j: int, matrix: Sequence[Sequence[Fraction | int]]
) -> GradedPolynomial:
    """Invertible linear change on two equal-weight variables.

    Substitutes x_i -> m00*x_i + m01*x_j and x_j -> m10*x_i + m11*x_j.
    """
    ws = f.ws
    if ws.weights[i] != ws.weights[j]:
        raise ValueError("apply_pair_map: variables must have equal weights")
    m00, m01 = Fraction(matrix[0][0]), Fraction(matrix[0][1])
    m10, m11 = Fraction(matrix[1][0]), Fraction(matrix[1][1])
    if m00 * m11 - m01 * m10 == 0:
        raise ValueError("apply_pair_map: singular matrix")
    powers = []  # per variable, the powers of its image
    for var, image in ((i, (m00, m01)), (j, (m10, m11))):
        linear = {k: v for k, v in zip((_unit(i), _unit(j)), image) if v}
        powers.append([{_unit(None): Fraction(1)}])
        for _ in range(max((m[var] for m in f.terms), default=0)):
            powers[-1].append(_mul_terms(powers[-1][-1], linear))
    out: dict[Monomial, Fraction] = {}
    for m, c in f.terms.items():
        rest = list(m)
        rest[i] = rest[j] = 0
        _mul_terms({tuple(rest): c}, _mul_terms(powers[0][m[i]], powers[1][m[j]]), out)
    return GradedPolynomial(ws, f.grade, out)


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


def slice_form(f: GradedPolynomial, pair: tuple[int, int], cofactor: Monomial | None = None) -> tuple[Fraction, ...]:
    """The coefficients of f along a pair slice, as a binary form
    (``exactmath.BinaryForm``).

    Entry k of the form corresponds to the k-th monomial of the slice in rising
    x_j order; for equal weights this is the usual binary form on the pair.
    """
    cof = cofactor if cofactor is not None else _unit(None)
    mons = slice_exponents(f.ws, pair, cof, f.grade)
    if not mons:
        raise ValueError("slice_form: empty slice")
    return tuple(f.coefficient(m) for m in mons)


# ---------------------------------------------------------------------------
# seeded sampling with designated genericity structure


@dataclass(frozen=True)
class SliceSplit:
    """Require a pair slice to split into distinct rational root factors.

    The sampler overwrites the slice coefficients with a scaled product
    prod_r (V - rho_r U) over distinct nonzero integer roots, one shared root
    pool per variable pair, so slices on the same pair get pairwise distinct
    roots.
    """

    pair: tuple[int, int]
    cofactor: str = "1"  # monomial text, e.g. "y^3"

    def describe(self) -> str:
        i, j = self.pair
        return (
            f"slice {self.cofactor}*({VARIABLES[i]},{VARIABLES[j]}) splits over Q "
            "with distinct designated roots"
        )


@dataclass(frozen=True)
class SliceSplitAfterShift:
    """Require a pair slice to split after the cube-root shift of a variable.

    The shift x_s -> x_s + c * mu (c the canonical root of the pure
    (mu, x_s)-slice cubic) adds c times the down-shifted slice to the target
    slice; the sampler draws the target slice as (split form) - c * (pollution)
    so the slice of the reduced member splits over the rationals.
    """

    pair: tuple[int, int]
    cofactor: str
    shift_variable: int
    shift_template: str  # monomial text, e.g. "y^2"

    def describe(self) -> str:
        i, j = self.pair
        return (
            f"slice {self.cofactor}*({VARIABLES[i]},{VARIABLES[j]}) splits over Q "
            f"after the {VARIABLES[self.shift_variable]}-shift"
        )


GenericityCheck = SliceSplit | SliceSplitAfterShift


def _draw_nonzero(rng: random.Random) -> int:
    v = 0
    while v == 0:
        v = rng.randint(-9, 9)
    return v


def _expand_roots(roots: Sequence[int]) -> list[Fraction]:
    """Coefficients of prod_r (V - rho_r U) by rising V-power."""
    coeffs = [Fraction(1)]
    for rho in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c  # times V
            nxt[k] += c * (-rho)  # times -rho*U
        coeffs = nxt
    return coeffs


def _draw_split_slice(rng: random.Random, n: int, pool: list[int]) -> list[Fraction] | None:
    """Extend the pair's root pool by n fresh distinct nonzero integers and
    return the (all-nonzero) expansion coefficients, or None when stuck."""
    start = len(pool)
    for _ in range(200):
        while len(pool) < start + n:
            cand = rng.randint(-9, 9)
            if cand != 0 and cand not in pool:
                pool.append(cand)
        coeffs = _expand_roots(pool[start:])
        if all(c != 0 for c in coeffs):
            c0 = Fraction(_draw_nonzero(rng))
            return [c * c0 for c in coeffs]
        del pool[start:]  # a symmetric function vanished: redraw these roots
    return None


def sample_general_member(
    ws: WeightSystem, seed: int = 0, checks: Sequence[GenericityCheck] = ()
) -> GradedPolynomial:
    """Seeded member of the family with full monomial support.

    Coefficients are nonzero small integers drawn deterministically from the
    seed.  SliceSplit checks overwrite designated pair slices with products of
    distinct rational linear factors, which is what makes the reduction plans
    and point-set certificates solvable over the rationals.  The member is
    redrawn (bounded retries) until every check can be met.
    """
    monomials = enumerate_monomials(ws, ws.degree)
    for attempt in range(64):
        rng = random.Random(seed * 1000003 + attempt)
        terms = {m: Fraction(_draw_nonzero(rng)) for m in monomials}
        pools: dict[tuple[int, int], list[int]] = {}
        for check in checks:
            if isinstance(check, SliceSplitAfterShift):
                if not _draw_compensated_slice(rng, ws, terms, pools, check):
                    break
                continue
            mons = slice_exponents(ws, check.pair, parse_monomial(check.cofactor), ws.degree)
            if len(mons) < 2:
                raise GenericityError(f"degenerate slice for {check.describe()}")
            coeffs = _draw_split_slice(rng, len(mons) - 1, pools.setdefault(check.pair, []))
            if coeffs is None:
                break
            terms.update(zip(mons, coeffs))
        else:
            return GradedPolynomial(ws, ws.degree, terms)
    raise GenericityError(
        f"sample_general_member: retry budget exhausted for {ws} with checks "
        f"{[c.describe() for c in checks]}"
    )


def _draw_compensated_slice(
    rng: random.Random,
    ws: WeightSystem,
    terms: dict[Monomial, Fraction],
    pools: dict[tuple[int, int], list[int]],
    check: SliceSplitAfterShift,
) -> bool:
    """Draw a slice so that it splits after the designated cube-root shift.

    The shift constant is the canonical rational root of the pure
    (template, shift-variable) cubic, which the sampler can predict: it is the
    elimination polynomial of the template's pure power, whose coefficients
    were already drawn (possibly split).  The slice is then drawn as (split
    form) minus (constant) times the shift's c^1 pollution of each slice
    monomial, so the reduced member's slice is the split form.
    """
    s = check.shift_variable
    mu = parse_monomial(check.shift_template)
    mons = slice_exponents(ws, check.pair, parse_monomial(check.cofactor), ws.degree)
    if len(mons) < 2:
        raise GenericityError(f"degenerate slice for {check.describe()}")
    pure = tuple(a * (ws.degree // weighted_degree(mu, ws)) for a in mu)
    cubic, *polluted = _elimination_polynomial(terms, s, mu, [pure, *mons])
    c1 = _canonical_rational_root(cubic)
    if c1 is None:
        return False
    pool = pools.setdefault(check.pair, [])
    for _ in range(50):
        coeffs = _draw_split_slice(rng, len(mons) - 1, pool)
        if coeffs is None:
            return False
        adjusted = [c - c1 * poly.get(1, 0) for c, poly in zip(coeffs, polluted)]
        if all(c != 0 for c in adjusted):
            for m, c in zip(mons, adjusted):
                terms[m] = c
            return True
        del pool[len(pool) - (len(mons) - 1) :]
    return False


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
    terms: dict[Monomial, Fraction | int], var: int, template: Monomial, targets: Sequence[Monomial]
) -> list[dict[int, Fraction | int]]:
    """Coefficient of each target in f(x_var -> x_var + c*template), as poly in c.

    The c^i part of a target t comes from the one monomial t + i*(x_var -
    template), times binomial(its x_var-degree, i); the walk over i stops at
    the first negative exponent.  It would never stop for the template x_var
    or 1, which is no shift by a monomial free of x_var (a ValueError).
    """
    step = [-b for b in template]
    step[var] += 1
    if min(step) >= 0:
        raise ValueError(
            f"{VARIABLES[var]} -> {VARIABLES[var]} + c*{format_monomial(template)} "
            f"is not a shift by a monomial free of {VARIABLES[var]}"
        )
    out: list[dict[int, Fraction]] = []
    for t in targets:
        poly = {}
        m = t
        i = 0
        while min(m) >= 0:
            c = terms.get(m, 0) * comb(m[var], i)
            if c:
                poly[i] = c
            i += 1
            m = tuple(map(add, m, step))
        out.append(poly)
    return out


def _canonical_rational_root(poly: dict[int, Fraction | int]) -> Fraction | None:
    """Deterministic rational root choice: smallest |root|, positive first."""
    if not poly:
        return Fraction(0)
    deg = max(poly)
    if deg == 0:
        return None  # nonzero constant: target unreachable
    roots = univariate_rational_roots([poly.get(k, Fraction(0)) for k in range(deg + 1)])
    return min(roots, key=lambda r: (abs(r), r < 0), default=None)


def _apply_depress(f: IntegerForm, ws: WeightSystem, p: DepressPass) -> tuple[IntegerForm, Substitution]:
    num, j = f[0], p.variable
    cube: Monomial = tuple(3 if k == j else 0 for k in range(NVARS))  # type: ignore[assignment]
    pivot = num.get(cube, 0)
    if pivot == 0:
        raise GenericityError(
            f"depress pass: pivot {format_monomial(cube)} has zero coefficient"
        )
    tail = {m[:j] + (0,) + m[j + 1 :]: Fraction(-c, 3 * pivot) for m, c in num.items() if m[j] == 2}
    sub = Substitution(j, GradedPolynomial(ws, ws.weights[j], tail))
    return _substitute_ints(*f, j, sub.tail), sub


def _solve_step_univariate(
    f: IntegerForm, ws: WeightSystem, var: int, template: Monomial, target: Monomial
) -> tuple[IntegerForm, Substitution]:
    """Kill one target with one constant by exact univariate root extraction."""
    root = _canonical_rational_root(_elimination_polynomial(f[0], var, template, [target])[0])
    if root is None:
        raise GenericityError(
            f"cannot eliminate {format_monomial(target)} via "
            f"{VARIABLES[var]} -> {VARIABLES[var]} + c*{format_monomial(template)}: "
            "no rational solution (genericity/pivot failure)"
        )
    sub = Substitution(var, GradedPolynomial(ws, ws.weights[var], {template: root} if root else {}))
    g = _substitute_ints(*f, var, sub.tail)
    if g[0].get(target, 0) != 0:
        raise GenericityError(
            f"elimination of {format_monomial(target)} did not close (bad root)"
        )
    return g, sub


def _apply_level(
    f: IntegerForm, ws: WeightSystem, steps: list[tuple[int, Monomial, Monomial]]
) -> tuple[IntegerForm, list[Substitution]]:
    """Jointly kill one x-level's targets by an exact linear solve.

    The plan validation guarantees every two template x-degrees in the level
    sum to more than the target level, so multiple conversions land strictly
    above it and the map constants -> target coefficients is affine: its base
    is f's own target coefficients and column i the c^1 coefficient of step i,
    both read from f's numerators (scaling by den leaves the solution alone).
    The solution is verified on the actual substitution.
    """
    num, den = f
    targets = [target for (_, _, target) in steps]
    columns = [
        [poly.get(1, 0) for poly in _elimination_polynomial(num, var, template, targets)]
        for var, template, _ in steps
    ]
    solution = _solve_linear(columns, [-num.get(t, 0) for t in targets])
    if solution is None:
        raise GenericityError(
            "level solve is singular for targets " + ", ".join(format_monomial(t) for t in targets)
        )
    subs = []
    for (var, template, _), c in zip(steps, solution):
        subs.append(Substitution(var, GradedPolynomial(ws, ws.weights[var], {template: c} if c else {})))
        num, den = _substitute_ints(num, den, var, subs[-1].tail)
    if any(num.get(t, 0) != 0 for t in targets):
        raise PlanOrderError(
            "joint level solve failed to close; the plan violates the x-degree "
            "filtration for targets "
            + ", ".join(format_monomial(t) for t in targets)
        )
    return (num, den), subs


def _solve_linear(columns: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] = rhs exactly; None when singular."""
    k = len(rhs)
    aug = [[columns[j][i] for j in range(k)] + [rhs[i]] for i in range(k)]
    for col in range(k):
        pivot_row = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = Fraction(1, aug[col][col])
        aug[col] = [v * inv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][k] for i in range(k)]


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
    elimination of every pass is re-verified simultaneously at the end.

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
    g = _integers(f)
    for p in depress:
        g, sub = _apply_depress(g, f.ws, p)
        applied.append(sub)
    for var, template, target in levels.get(0, []):
        g, sub = _solve_step_univariate(g, f.ws, var, template, target)
        applied.append(sub)
    for lvl in ordered:
        g, subs = _apply_level(g, f.ws, levels[lvl])
        applied.extend(subs)
    num, den = g

    stale = [m for m in plan.eliminated() if num.get(m, 0) != 0]
    for p in depress:
        stale.extend(m for m in num if m[p.variable] == 2)
    if stale:
        raise PlanOrderError(
            "eliminations did not close; still present: "
            + ", ".join(format_monomial(m) for m in stale)
        )
    return GradedPolynomial(f.ws, f.grade, {m: Fraction(v, den) for m, v in num.items()}), applied


# ---------------------------------------------------------------------------
# built-in reductions for the named families

X, Y, Z, T, W = 0, 1, 2, 3, 4

#: Sampling requirements that make each family's reduction and certificates
#: solvable over the rationals.  The keys are the families with a sampler: the
#: eight exceptional ones and the three of the binary-cubic normal form.
_CHECKS: dict[int, tuple[GenericityCheck, ...]] = {
    1: (), 39: (), 66: (), 84: (),
    9: (SliceSplit((T, W)),), 17: (SliceSplit((T, W)),), 27: (SliceSplit((T, W)),),
    19: (SliceSplit((Z, T)), SliceSplit((Y, W)), SliceSplitAfterShift((Z, T), "y^3", W, "y^2")),
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


def builtin_plan(number: int) -> NormalizationPlan:
    """The reduction plan for one of the seven symmetry-route families."""
    ws = family_weight_system(number)
    if number not in _PLANS:
        raise ValueError(f"no built-in plan for family {number}")
    return NormalizationPlan(ws=ws, passes=tuple(map(_parse_pass, _PLANS[number])))


def default_genericity_checks(number: int) -> tuple[GenericityCheck, ...]:
    if number not in _CHECKS:
        raise ValueError(f"no default checks for family {number}")
    return _CHECKS[number]


def sample_family_member(number: int, seed: int = 0) -> GradedPolynomial:
    return sample_general_member(
        family_weight_system(number), seed=seed, checks=default_genericity_checks(number)
    )


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


def reference_support(number: int, corrected: bool = True) -> frozenset[Monomial]:
    """Reference reduced support for a symmetry-route family.

    With corrected=True the provable omissions in the transcribed lists are
    restored; corrected=False returns the verbatim transcription.
    """
    if number not in REFERENCE_TABLES:
        raise ValueError(f"no reference table for family {number}")
    support = set(parse_monomial_set(REFERENCE_TABLES[number]))
    if corrected and number in REFERENCE_TABLE_ERRATA:
        support.add(parse_monomial(REFERENCE_TABLE_ERRATA[number]))
    return frozenset(support)


# ---------------------------------------------------------------------------
# binary-cubic normal form (d = 3*a5, a4 = a5)


@dataclass(frozen=True)
class CubicNormalForm:
    polynomial: GradedPolynomial
    pair_matrix: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    scale: Fraction  # the whole equation was divided by this


def cubic_normal_form(f: GradedPolynomial) -> CubicNormalForm:
    """Linear change in (t, w) making the pure (t, w) part exactly w*t*(w - t).

    Needs the pure (t, w) cubic to have three distinct rational roots (the
    designated-root sampling provides them); the three roots are moved to the
    points [t:w] = [0:1], [1:0], [1:1] and the equation is rescaled.
    """
    ws = f.ws
    a = ws.weights
    if f.grade != 3 * a[4] or a[3] != a[4]:
        raise ValueError("cubic_normal_form: needs d = 3*a5 and a4 = a5")
    cubic = slice_form(f, (T, W))
    if not any(cubic):
        raise GenericityError("cubic_normal_form: pure (t,w) part vanishes")
    squarefree, nroots = squarefree_and_root_count(cubic)
    if not squarefree:
        raise GenericityError("cubic_normal_form: (t,w) cubic has a repeated root")
    roots = rational_roots(cubic)
    if len(roots) < 3:
        raise GenericityError(
            "cubic_normal_form: (t,w) cubic does not split over the rationals "
            f"(found {len(roots)} rational roots of {nroots})"
        )
    r1, r2, r3 = roots[:3]
    # send [1:0], [0:1], [1:1] to r2, r1, r3 by the matrix with columns
    # lambda*r2 and mu*r1, where lambda*r2 + mu*r1 = r3
    det = r2[0] * r1[1] - r2[1] * r1[0]
    matrix = tuple(tuple(Fraction(x, det) for x in row) for row in triple_matrix((r2, r1, r3)))
    g = apply_pair_map(f, T, W, matrix)
    # after the move the cubic is c * t*w*(w - t); read c off the t*w^2 slot
    m_tw2: Monomial = (0, 0, 0, 1, 2)
    c = g.coefficient(m_tw2)
    if c == 0:
        raise GenericityError("cubic_normal_form: degenerate root configuration")
    g = g.scale(Fraction(1) / c)
    check = slice_form(g, (T, W))
    # slots by rising w-power: t^3, t^2 w, t w^2, w^3 must read 0, -1, 1, 0
    if check != (0, -1, 1, 0):
        raise RuntimeError("cubic_normal_form: normal form check failed")
    return CubicNormalForm(polynomial=g, pair_matrix=matrix, scale=c)


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


#: primes tried in turn for each Macaulay matrix; 32 * (p-1)^2 < 2^52
MACAULAY_PRIMES = (32003, 31991, 32009)
#: the most columns a checked Macaulay matrix may have: its chosen rows form a
#: dense float64 square (128 MiB at the limit); a member whose candidate
#: degrees cover three variables only with a larger one gets "indeterminate"
MAX_MACAULAY_COLUMNS = 4096
#: random rows of the Macaulay matrix added to the chosen square, for the
#: columns a chosen row could not cover or a choice that is singular
EXTRA_ROWS = 8
#: products summed by one bincount while the random rows are built (2 MiB per temporary)
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
    per column plus a few seeded random combinations of A's rows
    (``_macaulay_rank``): all lie in A's row space, and a nonzero minor mod p
    is nonzero over the integers, so their full rank mod p is a proof.  A
    degree that stays deficient at every prime of MACAULAY_PRIMES proves
    nothing: the verdict is then "indeterminate", never "quasismooth", and
    its certificate ends with that degree.
    """
    from itertools import combinations

    partials = [partial_derivative(f, k) for k in range(NVARS)]

    for i in range(NVARS):
        # a partial holds a pure power of x_i only from a term x_i^e or x_i^e * x_k
        # of f; by the Euler relation, P_i is singular iff no partial does
        if all(sum(m) - m[i] > 1 for m in f.terms):
            point = ":".join("1" if k == i else "0" for k in range(NVARS))
            return MemberVerdict(status="singular", witness=f"[{point}]", detail=f"axis {VARIABLES[i]}")
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
    num, den = _integers(f)
    scale = Fraction(den, gcd(*num.values()))
    checks = []
    for k in min(covering, key=lambda chosen: sum(columns[k] ** 2 for k in chosen)):
        for p in MACAULAY_PRIMES:
            rank = _macaulay_rank(partials, scale, k, p)
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
    forms = []
    for g in partials:
        try:
            form = slice_form(g, pair)
        except ValueError:
            continue  # no monomial of this grade on the edge
        if any(form):
            forms.append(form)
    # never empty: the axis checks passed, so the partial holding a pure power
    # of x_i has a nonzero slice here
    degree = common_interior_degree(forms)
    if degree:
        return MemberVerdict(
            status="singular",
            witness=None,
            detail=f"common interior root on edge {VARIABLES[i]}{VARIABLES[j]}: gcd degree {degree}",
        )
    return None


def _macaulay_rank(partials: list[GradedPolynomial], scale: Fraction, k: int, p: int) -> int:
    """Rank mod p of chosen rows of A, the degree-k Macaulay matrix of the
    partials times scale: one row per column, plus EXTRA_ROWS random ones.

    The choice is Macaulay's (1902; Lazard 1983).  Each variable x_i gets a
    pure power x_i^e that is a term, nonzero mod p, of a partial d_j f that
    no other variable has taken: the variables with the fewest such terms
    choose first, each the smallest e, then the first partial.  Power by
    power, each column m still without a row that x_i^e divides gets the row
    (m / x_i^e) * d_j f at m's own index, so the coefficient of x_i^e sits on
    the diagonal; rows of distinct partials, or of distinct quotients, are
    distinct.  The columns left without a row, and EXTRA_ROWS more, take
    seeded random combinations of all rows of A.  Every row lies in A's row
    space, so full rank mod p still proves that A has full rank.
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
    row_sets = []  # per partial: term keys, coefficients mod p, multipliers, {i: e} of its pure powers
    for g in partials:
        if g.terms and g.grade <= k:
            # scale clears every denominator, so the floor division is exact
            coefficients = [
                c.numerator * scale.numerator // (c.denominator * scale.denominator) % p for c in g.terms.values()
            ]
            pure = {m.index(e): e for m, c in zip(g.terms, coefficients) if c and 0 < (e := max(m)) == sum(m)}
            term_keys = exponents(list(g.terms)) @ place
            multipliers = exponents(enumerate_monomials(ws, k - g.grade)) @ place  # ascending
            row_sets.append((term_keys, np.array(coefficients, dtype=np.float64), multipliers, pure))
    rows = sum(len(multipliers) for _, _, multipliers, _ in row_sets)
    if rows * (p - 1) ** 2 >= EXACT_BOUND:
        raise ValueError(f"Macaulay matrix of {rows} rows is past exact float64")

    options = [[(pure[i], s) for s, (*_, pure) in enumerate(row_sets) if i in pure] for i in range(NVARS)]
    matrix = np.zeros((n + EXTRA_ROWS, n))
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
        matrix[owners[:, None], np.searchsorted(column_keys, quotients[:, None] + term_keys)] = values
        free[owners] = False

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
