"""Degree-of-irrationality decision engine.

Assigns to each catalog family the value (or value set) of the degree of
irrationality of its members, with a machine-readable justification chain.
The three routes for index 1 are distinguished by verified monomial-exponent
facts: elimination of the top variable is 2-to-1 when its degree in the
defining polynomial is 2 (d < 3*a5), the binary-cubic normal form gives a
2-to-1 map when d = 3*a5 and a4 = a5, and the eight exceptional families run
through the automorphism-triviality certificate instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import EXCEPTIONAL_EIGHT, FamilyRecord
from .wspace import WeightSystem, semigroup_table

#: rule tag -> citation or verification note
RULE_CITATIONS: dict[str, str] = {
    "irrational-index-one": (
        "irrationality of every quasismooth index-1 member: Iskovskikh (1980); "
        "Corti-Pukhlikov-Reid (2000); Cheltsov-Park (2017)"
    ),
    "irrational-quartic": "Iskovskikh-Manin (1971)",
    "projection-two-to-one": (
        "verified here: the defining polynomial has degree 2 in the top-weight "
        "variable, so dropping that coordinate is generically 2-to-1"
    ),
    "cubic-normal-form-two-to-one": (
        "verified here: d = 3*a5 with a4 = a5, so after the binary-cubic normal "
        "form the polynomial is quadratic in the top variable and the projection "
        "is generically 2-to-1"
    ),
    "index-two-projection": (
        "for index >= 2 the projection dropping the top coordinate is birational "
        "or generically 2-to-1 (verified: top-variable degree <= 2, or d = 3*a5 "
        "with a4 = a5 and the binary-cubic normal form applies)"
    ),
    "super-rigid-bir-equals-aut": (
        "birational super-rigidity, hence Bir = Aut: Cheltsov-Park (2017)"
    ),
    "bir-equals-aut-quartic": "Iskovskikh-Manin (1971)",
    "aut-trivial-certificate": (
        "computed here: diagonal symmetry group of the reduced support is the "
        "weighted torus and the designated line stabilizer is trivial, so no "
        "biregular involution exists"
    ),
    "aut-trivial-smooth-quartic": "Matsumura-Monsky (1964)",
    "projection-bound-three": (
        "verified here: projection from a singular point (or a point of the "
        "quartic) has degree 3, so the degree of irrationality is at most 3"
    ),
}


@dataclass(frozen=True)
class IrrationalityVerdict:
    values: frozenset[int]
    general_only: bool
    justification: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.values or not self.values <= {1, 2, 3}:
            raise ValueError("IrrationalityVerdict: values must be a nonempty subset of {1,2,3}")
        if 1 not in self.values and not any(
            tag.startswith("irrational") for tag, _ in self.justification
        ):
            raise ValueError("IrrationalityVerdict: excluding 1 needs an irrationality tag")

    def to_dict(self) -> dict:
        return {
            "values": sorted(self.values),
            "generalOnly": self.general_only,
            "justification": [
                {"rule": tag, "citation": cite} for tag, cite in self.justification
            ],
        }


def _rule(tag: str) -> tuple[str, str]:
    return tag, RULE_CITATIONS[tag]


def top_variable_degree(ws: WeightSystem) -> int:
    """Largest e such that w^e times a monomial in the other variables has degree d.

    Reads the last entry of the chain {x}, {x,y}, {x,y,z}, {x,y,z,t} of
    ``semigroup_table``; d is refused as by its size-4 series."""
    a, d = ws.weights, ws.degree
    xyzt = semigroup_table(a[:4], d, (4,), chain=True)[-1]
    return max((e for e in range(d // a[4] + 1) if xyzt >> d - e * a[4] & 1), default=0)


def decide(record: FamilyRecord) -> IrrationalityVerdict:
    """The main verdict: d(X) as a value or value set, with justification.

    Index >= 2: {1, 2}.  Index 1: {2} except on the eight exceptional
    families, where the general member has d(X) = 3.  Index 1 and d < 3*a5
    give top-variable degree 2: d - a5 = a1 + a2 + a3 + a4 - 1 > a4, so
    vertex coverage puts w^2 * x_j or w^2 in the support.
    """
    ws = record.ws
    if not record.membership.accepted:
        raise ValueError(f"decide: {ws} is not an accepted catalog family")
    a, d = ws.weights, ws.degree
    normal_form = d == 3 * a[4] and a[3] == a[4]
    index = ws.index
    if index >= 2:
        # the top-variable degree k has k * a5 <= d, so k > 2 needs d >= 3 * a5
        if d >= 3 * a[4] and not normal_form and (k := top_variable_degree(ws)) > 2:
            raise RuntimeError(f"index >= 2 family {ws} with top-variable degree {k}")
        return IrrationalityVerdict(
            values=frozenset({1, 2}),
            general_only=False,
            justification=(_rule("index-two-projection"),),
        )
    if index != 1:
        raise ValueError("decide: catalog families have index >= 1")
    sept = ws.septuple
    if sept in EXCEPTIONAL_EIGHT:
        if sept == (1, 1, 1, 1, 1, 4, 1):
            chain = (
                _rule("irrational-quartic"),
                _rule("projection-bound-three"),
                _rule("bir-equals-aut-quartic"),
                _rule("aut-trivial-smooth-quartic"),
            )
        else:
            chain = (
                _rule("irrational-index-one"),
                _rule("projection-bound-three"),
                _rule("super-rigid-bir-equals-aut"),
                _rule("aut-trivial-certificate"),
            )
        return IrrationalityVerdict(
            values=frozenset({3}), general_only=True, justification=chain
        )
    if d < 3 * a[4]:
        route = _rule("projection-two-to-one")
    elif normal_form:
        route = _rule("cubic-normal-form-two-to-one")
    else:
        raise RuntimeError(f"index-1 family {ws} fits no projection route (top degree {top_variable_degree(ws)})")
    return IrrationalityVerdict(
        values=frozenset({2}),
        general_only=False,
        justification=(_rule("irrational-index-one"), route),
    )
