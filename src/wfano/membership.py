"""Defining predicates of a hypersurface family.

Well-formedness of the hypersurface, linear-cone exclusion, and the
combinatorial quasismoothness test for the general member.  "General member"
is treated purely combinatorially: the support is all monomials of degree d,
so every predicate here is a statement about which weighted monomials exist.
Each predicate call reads those facts off ``wspace.semigroup_table`` bitsets built for it alone,
over the weights that can change its answer: for quasismoothness, the live ones (a_i not dividing d).

Ambient well-formedness and quasismoothness imply hypersurface well-formedness: a 3-variable
stratum has two outside variables, so quasismoothness passes it only through a pure degree-d
monomial, all that hypersurface well-formedness adds for a triple with a common factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Callable

from .wspace import NVARS, VARIABLES, WeightSystem, count_monomials, semigroup_table, wps_well_formed

#: a coordinate stratum, as a sorted tuple of variable indices
StratumSelector = tuple[int, ...]

#: (stratum, its table mask, the variables outside it), by size, then lexicographic
_STRATA = [
    (s, sum(1 << i for i in s), [j for j in range(NVARS) if j not in s])
    for r in range(1, NVARS + 1)
    for s in combinations(range(NVARS), r)
]

#: for each set of live variables (a bit mask), the strata of ``_STRATA`` inside it, in order, each mask
#: compressed to a table over the live variables alone: x_i's bit is the number of live variables below it
_LIVE_STRATA = [
    [(s, sum(1 << (live & (1 << i) - 1).bit_count() for i in s), out)
     for s, mask, out in _STRATA if mask & live == mask]
    for live in range(1 << NVARS)
]


def format_stratum(s: StratumSelector) -> str:
    return "{" + ",".join(VARIABLES[i] for i in s) + "}"


@dataclass(frozen=True)
class MembershipReport:
    ws: WeightSystem
    wps_well_formed: bool
    hypersurface_well_formed: bool
    linear_cone: bool
    quasismooth_general: bool
    failing_strata: tuple[tuple[StratumSelector, str], ...] = field(default_factory=tuple)

    @property
    def accepted(self) -> bool:
        return (
            self.wps_well_formed
            and self.hypersurface_well_formed
            and not self.linear_cone
            and self.quasismooth_general
        )

    def to_dict(self) -> dict:
        return {
            "wpsWellFormed": self.wps_well_formed,
            "hypersurfaceWellFormed": self.hypersurface_well_formed,
            "linearCone": self.linear_cone,
            "quasismoothGeneral": self.quasismooth_general,
            "failingStrata": [
                {"stratum": format_stratum(s), "reason": r} for s, r in self.failing_strata
            ],
        }


@lru_cache(maxsize=1 << 20)
def representable(weights: tuple[int, ...], target: int) -> bool:
    """Does target = sum e_i * weights_i admit a nonnegative integer solution?  The tests' oracle."""
    return target >= 0 and count_monomials(weights, target) > 0


def is_linear_cone(ws: WeightSystem) -> bool:
    """True iff d equals some weight, i.e. a variable appears linearly on its own."""
    return ws.degree in ws.weights


def quasismooth_general(ws: WeightSystem) -> tuple[bool, list[tuple[StratumSelector, str]]]:
    """Quasismoothness of the general degree-d member.

    For every nonempty subset S of the variables, either (a) some monomial of
    degree d uses only variables of S, or (b) there are |S| monomials of the
    form (monomial in S) * x_j with pairwise distinct outside variables x_j.
    Since there are only 5 - |S| outside variables, (b) can only help subsets
    of size 1 or 2; larger subsets need a pure monomial.

    An S holding an x_i with a_i | d passes by (a) through x_i^(d/a_i), so only
    the subsets of the live variables (a_i not dividing d) are tested, over a
    table of their weights; witnesses still range over every outside variable.

    Returns (verdict, failing strata with reasons).
    """
    if is_linear_cone(ws):
        raise ValueError("quasismooth_general: linear cones are excluded upstream")
    a, d = ws.weights, ws.degree
    live = [i for i in range(NVARS) if d % a[i]]
    table = semigroup_table([a[i] for i in live], d, range(1, NVARS + 1))
    failing: list[tuple[StratumSelector, str]] = []
    for subset, mask, outside in _LIVE_STRATA[sum(1 << i for i in live)]:
        b = table[mask]
        if b >> d & 1:
            continue
        witnesses = 0
        for j in outside:
            if d >= a[j] and b >> d - a[j] & 1:
                witnesses += 1
        if witnesses < len(subset):
            failing.append((subset, f"no pure degree-{d} monomial and only {witnesses} of the "
                            f"required {len(subset)} outside variables admit one"))
    return not failing, failing


def hypersurface_well_formed(ws: WeightSystem) -> bool:
    """Ambient well-formedness plus codimension >= 2 contact with the singular locus.

    A two-dimensional singular stratum of the ambient space (a 3-variable
    stratum whose weights share a factor) would lie inside the general member
    exactly when no degree-d monomial uses only its variables; that is the one
    configuration that violates well-formedness of the hypersurface.
    """
    if not wps_well_formed(ws):
        return False
    d = ws.degree  # each triple with a common factor, in the order of combinations; [-1] is all three
    return all(semigroup_table(wts, d, (3,), chain=True)[-1] >> d & 1 for wts in combinations(ws.weights, 3) if gcd(*wts) > 1)


def membership_report(ws: WeightSystem) -> MembershipReport:
    """Evaluate all defining predicates of the family; hypersurface well-formedness only where quasismoothness fails."""
    cone = is_linear_cone(ws)
    if cone:
        qs, failing = False, []
    else:
        qs, failing = quasismooth_general(ws)
    wps = wps_well_formed(ws)
    return MembershipReport(
        ws=ws,
        wps_well_formed=wps,
        hypersurface_well_formed=wps if qs else hypersurface_well_formed(ws),
        linear_cone=cone,
        quasismooth_general=qs,
        failing_strata=tuple(failing),
    )


def rejection(
    weights: tuple[int, ...],
    degree: int,
    terminal: Callable[[WeightSystem], bool] | None = None,
) -> str | None:
    """The membership predicates as one chain.

    Returns the name of the first predicate the family (weights, degree)
    fails, or None when it passes all of them.  The naming order is: Fano index >= 1,
    linear cone, vertex coverage (for each x_i a pure power x_i^(d/a_i) or a
    monomial x_i^m * x_j, m >= 1, which quasismoothness implies), ambient and
    hypersurface well-formedness, then ``terminal(ws)`` when a terminality
    test is given, and quasismoothness last.  Without ``terminal``, None at
    index >= 1 means exactly ``membership_report(ws).accepted``.  The first
    three stages run on the plain integers, so a family they reject never
    builds a WeightSystem.  Quasismoothness is evaluated right after ambient
    well-formedness, and hypersurface well-formedness, which it implies (module
    docstring), only where it fails or refuses d; a refusal is raised after ``terminal``,
    so its text is that of the first table in naming order to refuse.
    """
    a, d = weights, degree
    if sum(a) <= d:
        return "Fano index"
    if d in a:
        return "linear cone"
    for ai in a:
        if d % ai:
            # x_j = x_i itself never qualifies, since a_i does not divide d
            for aj in a:
                if d - aj >= ai and (d - aj) % ai == 0:
                    break
            else:
                return "vertex coverage"
    ws = WeightSystem(a, d)
    if not wps_well_formed(ws):
        return "well-formedness"
    try:
        qs, refused = quasismooth_general(ws)[0], None
    except ValueError as exc:
        qs, refused = False, exc
    if not qs and not hypersurface_well_formed(ws):
        return "hypersurface well-formedness"
    if terminal is not None and not terminal(ws):
        return "terminality"
    if refused is not None:
        raise refused
    return None if qs else "quasismoothness"
