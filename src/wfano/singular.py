"""Singular points of the general member and terminality.

The general member is quasismooth, so it is singular exactly where the ambient
space is: at coordinate vertices it passes through, and along coordinate
strata whose weights share a factor.  Each isolated singular point is a cyclic
quotient singularity, and the terminal lemma decides terminality: 1/r(w1, w2,
w3), each wi in [1, r-1], is terminal iff every wi is prime to r and two of
them sum to r (Morrison--Stevens, *Terminal quotient singularities in
dimensions three and four*, 1984; Reid, *Young person's guide to canonical
singularities*, 1987).  Any positive-dimensional singular locus rules
terminality out immediately, since terminal 3-fold singularities are isolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .membership import StratumSelector, format_stratum, rejection
from .wspace import NVARS, VARIABLES, WeightSystem, count_monomials

#: the variable triples of the 2-dimensional strata, and each edge (i, j) with the three variables off it
_TRIPLES = tuple(combinations(range(NVARS), 3))
_EDGES = tuple((i, j, tuple(k for k in range(NVARS) if k not in (i, j))) for i, j in combinations(range(NVARS), 2))


@dataclass(frozen=True)
class QuotientSingularity:
    """Isolated cyclic quotient type 1/r(w1, w2, w3), local weights in [1, r-1]."""

    order: int
    local_weights: tuple[int, int, int]

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError("QuotientSingularity: order must be >= 2")
        for w in self.local_weights:
            if not 1 <= w < self.order:
                raise ValueError("QuotientSingularity: local weights must lie in [1, r-1]")
            if gcd(w, self.order) != 1:
                raise ValueError(
                    "QuotientSingularity: weights must be coprime to the order "
                    "(non-isolated types are tracked separately)"
                )

    def __str__(self) -> str:
        return f"1/{self.order}({','.join(str(w) for w in self.local_weights)})"


@dataclass(frozen=True)
class BasketPoint:
    location: str
    count: int
    singularity: QuotientSingularity

    def __str__(self) -> str:
        return f"{self.count} x {self.singularity} at {self.location}"


@dataclass(frozen=True)
class SingularityBasket:
    points: tuple[BasketPoint, ...]
    non_isolated: tuple[tuple[StratumSelector, str], ...]

    @property
    def terminal(self) -> bool:
        """Isolated singular points only, each terminal by the terminal lemma."""
        types = (p.singularity for p in self.points)
        return not self.non_isolated and all(terminal_type(q.order, q.local_weights) for q in types)

    def to_strings(self) -> list[str]:
        return [f"{p.count} x {p.singularity}" for p in self.points]


def terminal_type(r: int, weights: tuple[int, ...]) -> bool:
    """The terminal lemma (module docstring) for 1/r(x, y, z), given by
    residues in [0, r-1]; a residue 0 shares the factor r, so it fails."""
    x, y, z = weights
    return gcd(x * y * z, r) == 1 and r in (x + y, x + z, y + z)


def vertex_type(a: tuple[int, ...], d: int, i: int) -> tuple[int, ...] | None:
    """The local weights of the vertex P_i (a_i >= 2 not dividing d): the
    other four weights mod a_i, in order, less one copy of d mod a_i.  Every
    x_j with a monomial x_i^m * x_j of degree d has a_j = d (mod a_i), so all
    give this type.  None when no other weight is d mod a_i: P_i is not
    covered, once d exceeds every weight (as past vertex coverage)."""
    ai = a[i]
    wts = [a[k] % ai for k in range(NVARS) if k != i]
    if d % ai not in wts:
        return None
    wts.remove(d % ai)
    return tuple(wts)


def _singular_locus(ws: WeightSystem) -> SingularityBasket:
    """The basket of a general member, in one walk of its singular locus:
    2-dimensional strata, then vertices, then edges."""
    a, d = ws.weights, ws.degree
    points: list[BasketPoint] = []
    non_isolated: list[tuple[StratumSelector, str]] = []

    # 2-dimensional singular strata: X meets them in a curve of singular points
    # unless the restricted equation is a single monomial.  Both callers have
    # passed vertex coverage and well-formedness, and then such a stratum
    # always has at least two monomials (the lemma in ``catalog``'s docstring).
    for i, j, k in _TRIPLES:
        q = gcd(a[i], a[j], a[k])
        if q > 1:
            non_isolated.append(((i, j, k), f"X meets the gcd-{q} stratum in a curve of singular points"))

    # vertices
    for i in range(NVARS):
        ai = a[i]
        if ai == 1 or d % ai == 0:
            continue  # smooth point, or vertex off X (pure power present)
        wts = vertex_type(a, d, i)
        if wts is None:
            raise ValueError(f"{ws}: vertex {VARIABLES[i]} is not covered, so X is not quasismooth")
        # one gcd over the product; a weight reduced to 0 makes it gcd(ai, 0) = ai >= 2
        if gcd(ai, wts[0] * wts[1] * wts[2]) != 1:
            non_isolated.append(((i,), f"vertex type 1/{ai}{wts} has a non-coprime weight"))
            continue
        sing = QuotientSingularity(ai, tuple(sorted(wts)))  # type: ignore[arg-type]
        points.append(BasketPoint(f"vertex {VARIABLES[i]}", 1, sing))

    # edges
    for i, j, off in _EDGES:
        q = gcd(a[i], a[j])
        if q <= 1:
            continue
        n = count_monomials((a[i], a[j]), d)
        if n == 0:
            non_isolated.append(((i, j), f"edge with weight gcd {q} lies inside X"))
            continue
        if n == 1:
            continue
        wts = (a[off[0]] % q, a[off[1]] % q, a[off[2]] % q)
        if gcd(q, wts[0] * wts[1] * wts[2]) != 1:
            non_isolated.append(((i, j), f"edge type 1/{q}{wts} has a non-coprime weight"))
            continue
        sing = QuotientSingularity(q, tuple(sorted(wts)))  # type: ignore[arg-type]
        points.append(BasketPoint(f"edge {VARIABLES[i]}{VARIABLES[j]}", n - 1, sing))

    return SingularityBasket(points=tuple(points), non_isolated=tuple(non_isolated))


def singular_points_general(ws: WeightSystem) -> SingularityBasket:
    """Locate the singular points of a general member and their quotient types.

    Vertices: a coordinate point P_i with a_i >= 2 lies on X iff a_i does not
    divide d; its local type is 1/a_i of ``vertex_type``.  Edges with weight gcd q >= 2 meet
    X in (#edge monomials - 1) points of transverse type 1/q(other three
    weights mod q), or lie inside X when there are no edge monomials.  Any configuration with a
    positive-dimensional singular locus (contained edge, reduced local weight
    0 or sharing a factor with the order, or a 3-variable stratum with weight
    gcd > 1 meeting X in a curve) is recorded in non_isolated.

    Raises ValueError when ws fails the membership predicates (the chain
    ``membership.rejection``), where singularity types are undefined; then walks the strata once.
    """
    reason = rejection(ws.weights, ws.degree)
    if reason is not None:
        raise ValueError(
            f"singular_points_general: {ws} fails the membership predicates "
            f"({reason}); singularity types are undefined"
        )
    return _singular_locus(ws)


def terminal_general(ws: WeightSystem) -> bool:
    """True iff the general member has only terminal singularities.

    This is the terminality stage of ``membership.rejection``: it assumes the
    earlier stages passed (every vertex covered, where an uncovered one raises
    ValueError; no singular stratum inside X) and does not check them again.
    It reads the basket's ``terminal`` off the walk of ``singular_points_general``,
    run without its membership guard, so ws need not be quasismooth.
    """
    return _singular_locus(ws).terminal


def format_non_isolated(entries: tuple[tuple[StratumSelector, str], ...]) -> list[str]:
    return [f"{format_stratum(s)}: {reason}" for s, reason in entries]
