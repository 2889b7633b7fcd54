"""Diagonal symmetry groups, involution detection, and line stabilizers.

The group of diagonal coordinate scalings preserving a polynomial up to scalar
depends only on its support: it is the character group of Z^5 / L, where L is
the lattice generated by pairwise exponent differences.  Its free rank and
torsion are read off a Smith normal form.  The weighted one-parameter scaling
always survives, so "trivial" means free rank 1 and no torsion.  The group and
the involution answer are computed once per (support, weights), the support a
frozenset; the results are immutable, so every caller may share them.

Stabilizers of finite point sets on the projective line are enumerated exactly
over the rationals by sending a base triple to every ordered triple of targets
and testing set preservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import permutations
from math import gcd
from operator import and_, lshift, mul
from typing import Sequence

from .exactmath import adjugate, mat_mul, rational_roots, smith_normal_form, triple_matrix
from .symalg import (
    GenericityError,
    builtin_plan,
    normalize,
    sample_family_member,
    slice_numerators,
)
from .wspace import (
    Monomial,
    NVARS,
    WeightSystem,
    format_monomial,
    parse_monomial,
)


@dataclass(frozen=True)
class DiagonalSymmetryGroup:
    """Free rank and torsion of the diagonal-scaling symmetry group.

    torsion_generators holds one rational exponent vector q per torsion factor:
    the scaling x_k -> exp(2*pi*i*q_k) * x_k generates that factor, and every
    support difference pairs integrally with q (checked on construction).
    """

    free_rank: int
    torsion: tuple[int, ...]
    torsion_generators: tuple[tuple[Fraction, ...], ...] = ()

    @property
    def induced_trivial(self) -> bool:
        return self.free_rank == 1 and not self.torsion

    def to_dict(self) -> dict:
        return {
            "freeRank": self.free_rank,
            "torsion": list(self.torsion),
            "inducedTrivial": self.induced_trivial,
            "torsionGenerators": [[str(q) for q in g] for g in self.torsion_generators],
        }


@cache
def diagonal_symmetry_group(support: frozenset[Monomial], ws: WeightSystem) -> DiagonalSymmetryGroup:
    """Diagonal scalings fixing every ratio of support monomials.

    The support must be a nonempty frozenset of a single grade.  Free rank is
    always at least 1 (the weighted scaling); torsion factors come with
    explicit root-of-unity generator vectors.  Computed once per (support,
    weights) and shared, as the group is frozen; a refused support raises on
    every call.
    """
    if not support:
        raise ValueError("diagonal_symmetry_group: empty support")
    base, *others = sorted(support)
    rows = [[x - y for x, y in zip(m, base)] for m in others]
    if any(sum(map(mul, r, ws.weights)) for r in rows):
        raise ValueError("diagonal_symmetry_group: mixed grades in support")
    snf = smith_normal_form(rows)
    rank = sum(1 for d in snf.diagonal if d)
    torsion = tuple(d for d in snf.diagonal if d > 1)
    # Character generators: with U A V = D, the transformed lattice is spanned
    # by d_k * e_k, so the character with exponent vector (column k of V)/d_k
    # pairs integrally with every difference and has order exactly d_k (the
    # column is primitive because V is unimodular).
    generators = []
    for k, d in enumerate(snf.diagonal):
        if d > 1:
            column = [row[k] for row in snf.right]
            if any(sum(map(mul, column, row)) % d for row in rows):
                raise RuntimeError("torsion generator fails integrality check")
            generators.append(tuple(Fraction(c, d) for c in column))
    return DiagonalSymmetryGroup(NVARS - rank, torsion, tuple(generators))


def _sign_bits(exponents: Sequence[int]) -> int:
    """The exponents mod 2 as the bits of an int, coordinate 0 the highest."""
    return sum(map(lshift, map(and_, exponents, (1,) * NVARS), range(NVARS - 1, -1, -1)))


@cache
def has_diagonal_involution(support: frozenset[Monomial], ws: WeightSystem) -> tuple[bool, tuple[int, ...] | None]:
    """Is there a sign-vector symmetry beyond the weighted scaling torus?

    Any order-2 element of the symmetry group modulo the torus is represented
    by a sign vector, i.e. a vector v of F_2^5 with row . v = 0 mod 2 for every
    exponent difference row.  The torus's own sign vectors are 0 and
    (a / g) mod 2 with g = gcd(a): lambda^(a_i) = +-1 for every i forces
    lambda^(2g) = 1.  Rows (differences from any one monomial: all span the
    same space) and vectors are 5-bit ints, so row . v is the parity of
    row & v and counting v up tests the 32 vectors in lexicographic order.
    The answer is yes iff one besides the torus's passes, and the first such
    is the witness, as a +-1 vector encoded by its sign pattern.  Computed
    once per (support, weights), the support a nonempty frozenset.
    """
    if not support:
        raise ValueError("has_diagonal_involution: empty support")
    masks = {_sign_bits(m) for m in support}
    base = masks.pop()
    rows = {m ^ base for m in masks}
    g = gcd(*ws.weights)
    torus = _sign_bits([a // g for a in ws.weights])
    for v in range(1, 1 << NVARS):
        if v != torus and not any((r & v).bit_count() & 1 for r in rows):
            return True, tuple(map(int, f"{v:0{NVARS}b}"))
    return False, None


def signs_from_witness(witness: tuple[int, ...]) -> tuple[int, ...]:
    """Translate an F_2 log-vector into the +-1 scaling it represents."""
    return tuple(-1 if b else 1 for b in witness)


# ---------------------------------------------------------------------------
# stabilizers of point sets on the projective line

#: a point [p : q] on the line, primitive pair, or INFINITY
P1Point = tuple[int, int]

INFINITY: P1Point = (0, 1)

#: the most points pgl2_set_stabilizer takes: it tries n(n-1)(n-2) ordered
#: triples, each by cross-ratios against up to n points (on a 2-core host
#: 0.03-0.06 s at 32 small points, 0.3 s at 32 of 100 digits, 0.6 s at 80)
MAX_STABILIZER_POINTS = 32


def p1_point(value: Fraction | int | str) -> P1Point:
    """Normalize a rational number (or 'inf') to a primitive [p : q] pair.

    Convention: the point [p : q] is the value q/p, i.e. the pair is (1, v)
    for a finite rational v and (0, 1) for infinity, matching the root pairs
    produced by the binary-form machinery.
    """
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity", "oo"):
        return INFINITY
    v = Fraction(value)
    return (v.denominator, v.numerator)


@dataclass(frozen=True)
class MoebiusMap:
    """Fractional-linear map by a primitive integer matrix, canonical sign."""

    matrix: tuple[tuple[int, int], tuple[int, int]]

    def __call__(self, point: P1Point) -> P1Point:
        (a, b), (c, d) = self.matrix
        # [p : q] -> matrix action on the (u, v) coordinates of [u : v]
        p, q = point
        u, v = a * p + b * q, c * p + d * q
        return _normalize_pair(u, v)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        return moebius_map(mat_mul(self.matrix, other.matrix))

    def inverse(self) -> "MoebiusMap":
        return moebius_map(adjugate(self.matrix))

    def describe(self) -> str:
        def lin(p: int, q: int) -> str:
            terms = (("+-"[c < 0] if abs(c) == 1 else f"{c:+d}") + x for c, x in ((p, "u"), (q, "v")) if c)
            return "".join(terms).lstrip("+") or "0"

        (a, b), (c, d) = self.matrix
        return f"[u:v] -> [{lin(a, b)} : {lin(c, d)}]"


def _canonical(*values: int) -> tuple[int, ...]:
    """Integers, not all zero, divided by their gcd and signed so that the
    first nonzero one is positive: the canonical form of a point or a map."""
    g = gcd(*values)
    if next(filter(None, values)) < 0:
        g = -g
    return tuple([x // g for x in values])


def _normalize_pair(u: int, v: int) -> P1Point:
    if u == 0 and v == 0:
        raise ValueError("degenerate projective point")
    return _canonical(u, v)  # type: ignore[return-value]


def moebius_map(matrix: Sequence[Sequence[int]]) -> MoebiusMap:
    (a, b), (c, d) = matrix
    if a * d - b * c == 0:
        raise ValueError("moebius_map: singular matrix")
    a, b, c, d = _canonical(a, b, c, d)
    return MoebiusMap(((a, b), (c, d)))


def pgl2_set_stabilizer(points: list[P1Point]) -> list[MoebiusMap]:
    """All fractional-linear maps permuting a set of 3 to MAX_STABILIZER_POINTS points.

    Built by mapping a fixed base triple to every ordered triple of targets
    and keeping the maps that preserve the set; closure under composition and
    inverses is verified before returning.  A map sending the base triple to
    (a, b, c) keeps the cross-ratio CR(a, b, c; y) = det(a, c) det(b, y) :
    det(a, y) det(b, c), so a target triple is skipped before its map is built
    once a point y outside it has a CR that no point outside the base has.
    """
    pts = [_normalize_pair(*p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("pgl2_set_stabilizer: points must be distinct")
    if len(pts) < 3:
        raise ValueError("pgl2_set_stabilizer: fewer than 3 points has infinite stabilizer")
    if len(pts) > MAX_STABILIZER_POINTS:
        raise ValueError(
            f"pgl2_set_stabilizer: {len(pts)} points, more than the limit of {MAX_STABILIZER_POINTS}"
        )
    det = [[p * v - q * u for u, v in pts] for p, q in pts]

    def cross_ratio(i: int, j: int, k: int, t: int) -> tuple[int, ...]:
        return _canonical(det[i][k] * det[j][t], det[i][t] * det[j][k])

    base_ratios = {cross_ratio(0, 1, 2, t) for t in range(3, len(pts))}
    # the map sending the base triple pts[:3] to [1:0], [0:1], [1:1] (up to scale)
    from_base = adjugate(triple_matrix(pts[:3]))
    point_set = set(pts)
    found: dict[tuple[tuple[int, int], tuple[int, int]], MoebiusMap] = {}
    for i, j, k in permutations(range(len(pts)), 3):
        if any(cross_ratio(i, j, k, t) not in base_ratios for t in range(len(pts)) if t not in (i, j, k)):
            continue
        # distinct target triples give distinct maps, as the base triple is distinct
        m = moebius_map(mat_mul(triple_matrix((pts[i], pts[j], pts[k])), from_base))
        if all(m(p) in point_set for p in pts):
            found[m.matrix] = m
    maps = list(found.values())
    for m in maps:
        if m.inverse().matrix not in found:
            raise RuntimeError("stabilizer not closed under inverse")
        for n in maps:
            if m.compose(n).matrix not in found:
                raise RuntimeError("stabilizer not closed under composition")
    maps.sort(key=lambda m: m.matrix)
    return maps


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class AutomorphismCertificate:
    family: int
    seed: int
    support: frozenset[Monomial]
    group: DiagonalSymmetryGroup
    has_involution: bool
    point_set: tuple[P1Point, ...] | None
    stabilizer_order: int | None
    checks: tuple[str, ...]

    @property
    def trivial(self) -> bool:
        ok = self.group.induced_trivial and not self.has_involution
        if self.point_set is not None:
            ok = ok and self.stabilizer_order == 1
        return ok

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "seed": self.seed,
            "support": [format_monomial(m) for m in sorted(self.support)],
            "diagonalGroup": self.group.to_dict(),
            "hasInvolution": self.has_involution,
            "pointSet": [list(p) for p in self.point_set] if self.point_set else None,
            "stabilizerOrder": self.stabilizer_order,
            "checks": list(self.checks),
            "trivial": self.trivial,
        }


#: slice data for the line argument: family -> (pair, extra cofactor slices)
_LINE_SLICES: dict[int, tuple[tuple[int, int], tuple[str, ...]]] = {
    19: ((2, 3), ("1", "y^3")),  # quartic on x=y=w=0 plus the y^3 coefficient conic
    28: ((1, 2), ("1",)),  # quintic on x=t=w=0
}


def certify_trivial_automorphisms(family: int, seed: int = 0) -> AutomorphismCertificate:
    """Machine-checkable certificate that the reduced member admits only the torus.

    Stages: (i) sample and reduce a general member, (ii) for the two families
    with a residual equal-weight 2x2 block, extract the designated point set on
    the invariant line and verify its stabilizer is trivial, (iii) verify the
    diagonal symmetry group of the reduced support is exactly the weighted
    scaling torus, with no sign involution.
    """
    plan = builtin_plan(family)
    checks: list[str] = []
    last_error: Exception | None = None
    for attempt in range(8):
        try:
            f = sample_family_member(family, seed=seed + attempt)
            g, _ = normalize(f, plan)
            break
        except GenericityError as exc:  # resample on degenerate draws
            last_error = exc
    else:
        raise GenericityError(f"certify: sampling stage failed for family {family}: {last_error}")
    checks.append(f"sampled general member (seed {seed + attempt}) and reduced it")
    support = g.support
    group = diagonal_symmetry_group(support, plan.ws)
    invol, witness = has_diagonal_involution(support, plan.ws)
    checks.append(
        f"diagonal group of the reduced support: free rank {group.free_rank}, "
        f"torsion {list(group.torsion)}"
    )
    point_set: tuple[P1Point, ...] | None = None
    stab_order: int | None = None
    if family in _LINE_SLICES:
        pair, cofactors = _LINE_SLICES[family]
        pts = [p for cof in cofactors for p in rational_roots(slice_numerators(g, pair, parse_monomial(cof)))]
        if len(set(pts)) != len(pts):
            raise GenericityError(f"certify: designated points collide for family {family}")
        stab = pgl2_set_stabilizer(pts)
        point_set = tuple(pts)
        stab_order = len(stab)
        checks.append(
            f"invariant-line point set of size {len(pts)} has stabilizer of order {stab_order}"
        )
    return AutomorphismCertificate(
        family=family,
        seed=seed,
        support=support,
        group=group,
        has_involution=invol,
        point_set=point_set,
        stabilizer_order=stab_order,
        checks=tuple(checks),
    )
