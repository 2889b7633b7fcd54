"""Bounded search reproducing the classification, plus catalog persistence.

The search derives its candidates from the vertex conditions instead of
walking every weight tuple and index.  By Iano-Fletcher, *Working with
weighted complete intersections* (2000), Thm 8.1, the general X_d in
P(a1, ..., a5) is quasismooth only if for every i some monomial x_i^m or
x_i^m * x_j has degree d.  The Fano index is at least 1, so d < 5*a5: the a5
condition makes d = k*a5 + c with 1 <= k <= 4 and c in {0, a1, a2, a3, a4},
and the a4 condition asks a4 to divide d - e for some e in {0, a1, a2, a3,
a5}.

A vertex P_i with a_i > 1 not dividing d lies on X, with local type 1/a_i
of ``singular.vertex_type``, and is terminal only if it passes the terminal
lemma of ``singular`` (``terminal_type``): weights prime to a_i, two of
them summing to a_i.  When c > 0, P5 lies on X with local weights the three
weights other than a5 and c, each below a5 (a weight equal to a5 leaves P5
non-isolated), so P5 can be terminal only if a5 is the sum of two of them.

The lemma holds on the edges too (``singular``'s edge rule).  An edge P_iP_j
with q = gcd(a_i, a_j) > 1 has stabilizer order q off its vertices, where f
is a binary form of degree d in x_i, x_j.  With n >= 2 monomials it vanishes
at n - 1 points off the vertices, each of type 1/q(the other three weights
mod q), which must pass the lemma; one monomial x_i^p * x_j^s vanishes at the
vertices only.  So a4 = a5 = n dividing d = k*n, with k + 1 monomials
x4^i * x5^(k-i), needs n = 1 or n the sum of two of a1, a2, a3.

One more condition is cheap once all five weights are fixed: every three
weights are coprime.  Three weights with a common factor q > 1 span a
surface of quotient singularities, and X needs exactly one monomial of
degree d in their variables: with none, X contains the surface and is not
well-formed (Iano-Fletcher 2000, section 6); with two or more, X meets it in
a curve of singular points, and terminal 3-fold singularities are isolated
(Reid 1987).  Exactly one never happens once every vertex is covered and
every four weights are coprime.  With q | d, each of the three vertices is
covered by a monomial x_i^m or x_i^m * x_j in those three variables alone
(an outside x_j would need q | a_j, a fourth weight sharing q), and one such
monomial covers at most two of them; with q not dividing d there is none.

Kawamata (*Boundedness of Q-Fano threefolds*, 1992), with Reid's plurigenus
formula (1987), gives a terminal Q-Fano 3-fold a basket with sum (r - 1/r)
below 24, so no point of index r >= 25 (``MAX_POINT_INDEX``).  When c > 0,
P5 lies on X as a point of index a5, so a5 <= 24.  And a3 <= 24: else P3, P4
and P5 are off X, so a3, a4 and a5 divide d, c = 0 and d = k*a5 with k in
{2, 3, 4}.  With g = gcd(a4, a5), h = gcd(a3, a5), a4 = m*g and a3 = n*h, m
and n divide k, and coprime threes make g, h coprime, so g*h | a5.  If m = 1,
X meets P4P5 (k + 1 monomials) in k points of index a4 >= 25, so m >= 2, and
n >= 2 likewise on P3P5.  An index >= 1 with a1 + a2 <= 2*a3 then needs
3*n*h + m*g > (k-1)*g*h, which fails: for k = 2, g, h >= 13 and g*h - 6*h -
2*g >= 11*g - 78 > 0; for k = 3, g, h >= 9 and 15*g - 81 > 0; for k = 4,
m, n in {2, 4}, g, h >= 7 and 17*g - 84 > 0.

For each a1 <= a2 <= a3 <= 24 with no common factor, ``_top_pairs`` solves
the a5 and a4 vertex conditions and the terminal lemma at P5 and on P4P5 in
closed form: at most three values of a5 <= 24 when c > 0, divisors of a few
small integers otherwise.  ``_candidates`` then tests the a3, a2 and a1
vertices, the coprime threes and the terminal lemma at every vertex and
edge.  No accepted family fails these conditions or the caps, so the
candidates are a superset of the accepted families, each once, and pass the
first five stages of the chain below: at (40, 120), (80, 240), (120, 600)
and the CLI cap (200, 1000) they are exactly the 130 accepted families.

Every candidate then goes through the predicate chain
``membership.rejection``: linear cone, vertex coverage, ambient and
hypersurface well-formedness, terminality of the general member, and
quasismoothness.  With the default bounds the search returns 95 families of
index 1 and 130 in total.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Iterable, Iterator, Sequence

from .membership import MembershipReport, membership_report, rejection
from .singular import SingularityBasket, singular_points_general, terminal_general, terminal_type, vertex_type
from .wspace import WeightSystem, count_monomials

SCHEMA_VERSION = 1

#: septuple -> label, for the families the source classification literature
#: numbers explicitly; all other records carry no label.
FAMILY_LABELS: dict[tuple[int, ...], int] = {
    (1, 1, 1, 1, 1, 4, 1): 1,
    (1, 1, 1, 1, 3, 6, 1): 3,
    (1, 1, 2, 3, 3, 9, 1): 9,
    (1, 1, 3, 4, 4, 12, 1): 17,
    (1, 2, 3, 3, 4, 12, 1): 19,
    (1, 2, 3, 5, 5, 15, 1): 27,
    (1, 3, 3, 4, 5, 15, 1): 28,
    (1, 3, 4, 5, 6, 18, 1): 39,
    (1, 3, 5, 6, 7, 21, 1): 49,
    (1, 3, 6, 7, 8, 24, 1): 59,
    (1, 5, 6, 7, 9, 27, 1): 66,
    (1, 7, 8, 9, 12, 36, 1): 84,
    (1, 1, 1, 1, 1, 3, 2): 96,
    (1, 1, 1, 2, 3, 6, 2): 98,
    (1, 1, 1, 1, 1, 2, 3): 104,
}

#: the eight index-1 families whose general member has trivial automorphisms
EXCEPTIONAL_EIGHT: tuple[tuple[int, ...], ...] = tuple(
    s for s, n in FAMILY_LABELS.items() if n in (1, 19, 28, 39, 49, 59, 66, 84)
)


#: the Fano indices the search walks; the largest index in the
#: classification is 13
INDEX_RANGE = (1, 15)

#: the largest index r of a point on a terminal Fano 3-fold: the basket has
#: sum (r - 1/r) < 24 (Kawamata 1992 with Reid 1987)
MAX_POINT_INDEX = 24


@dataclass(frozen=True)
class SearchBounds:
    """Search box.  Defaults comfortably contain the known extremes of the
    classification (weights up to 33, degrees up to 66)."""

    max_weight: int = 40
    max_degree: int = 120

    def __post_init__(self) -> None:
        if self.max_weight < 1 or self.max_degree < 1:
            raise ValueError("SearchBounds: bounds must be positive")


@dataclass(frozen=True)
class FamilyRecord:
    ws: WeightSystem
    membership: MembershipReport
    basket: SingularityBasket
    paper_number: int | None = None

    @property
    def septuple(self) -> tuple[int, ...]:
        return self.ws.septuple

    def to_dict(self) -> dict:
        return {
            "septuple": [str(v) for v in self.septuple],
            "index": str(self.ws.index),
            "flags": self.membership.to_dict(),
            "basket": self.basket.to_strings(),
            "paperNumber": self.paper_number,
        }


def family_record(ws: WeightSystem) -> FamilyRecord:
    """The record of an accepted family, labelled from ``FAMILY_LABELS``."""
    return FamilyRecord(
        ws, membership_report(ws), singular_points_general(ws), FAMILY_LABELS.get(ws.septuple)
    )


def _top_pairs(
    a1: int, a2: int, a3: int, bounds: SearchBounds, divisors: list[int]
) -> Iterator[tuple[int, int, int]]:
    """Each (a4, a5, d) in bounds with a3 <= a4 <= a5 that the vertex
    conditions of a5 and a4 allow, and whose P5 and P4P5 can be terminal, once.

    The a5 vertex puts d = k*a5 + c with 1 <= k <= 4 and c < a5 one of 0, a1,
    a2, a3, a4 (d < 5*a5 since the index is positive; c = a5 would be
    (k+1)*a5 + 0).  The a4 vertex needs a4 | d - e for some e in 0, a1, a2,
    a3, a5.  When c > 0, P5 lies on X, a point of index a5 <= 24 (Kawamata),
    with local weights the three weights other than a5 and c, each below a5;
    it is terminal only if a5 is the sum of two of them (the terminal lemma
    of ``singular``).  That a5 (x + y >= a4 or a4 + x > y, x and y the low
    weights but c; a_i + a_j > a_l if c = a4) is at least half of s3 + a4 -
    c, so the index s3 + a4 - c - (k-1)*a5 is at most (3-k)*a5, and k <= 2.
    When c = 0, a4 = a5 must pass the edge P4P5 (module docstring).  Each
    branch below solves these conditions for one shape of (k, c); the last,
    c = a4, reads a4 off the divisor bitmask.
    """
    max_w, max_d = bounds.max_weight, bounds.max_degree
    max_p5 = min(max_w, MAX_POINT_INDEX)  # the index of P5 when it lies on X
    imin, imax = INDEX_RANGE
    s3 = a1 + a2 + a3
    sums = 2 | 1 << a1 + a2 | 1 << a1 + a3 | 1 << a2 + a3  # bit n: a4 = a5 = n passes P4P5
    for c in {0, a1, a2, a3}:
        lo4 = max(a3, c + 1)
        if c:
            # for c < a4, P5 has local weights x, y (the low weights but c) and a4
            others = [a1, a2, a3]
            others.remove(c)
            x, y = others
            # ascending and once each, as the breaks below need
            deltas = (x,) if x == y else (x, y)
            # k = 1: the index s3 + a4 - c fixes a4, and the a4 vertex needs
            # a4 | a5 + c - e
            top = min(max_p5, max_d - c)
            for a4 in range(max(lo4, imin - s3 + c), min(top, imax - s3 + c) + 1):
                for a5 in {x + y, a4 + x, a4 + y}:
                    d = a5 + c
                    if a4 <= a5 <= top and (
                        d % a4 == 0 or (d - a1) % a4 == 0 or (d - a2) % a4 == 0
                        or (d - a3) % a4 == 0
                    ):
                        yield a4, a5, d
        # k >= 2, c < a4: with a5 = a4 + delta the index is
        # s3 - c - (k-1)*delta - (k-2)*a4, and a4 divides k*delta + c - e
        # (e < a4) or (k-1)*delta + c (e = a5); for c > 0 delta is x or y,
        # or else a5 = x + y
        for k in (2,) if c else (2, 3, 4):
            top = min(max_p5 if c else max_w, (max_d - c) // k)
            if not c:
                # below this delta the index would exceed imax for every a4 <= max_w
                deltas = range(max(0, s3 - imax - (k - 2) * max_w), top - lo4 + 1)
            for delta in deltas:
                rest = s3 - c - (k - 1) * delta
                hi = top - delta
                if k == 2:
                    if rest < imin:
                        break
                    if rest > imax:
                        continue
                    lo = lo4
                else:
                    lo = -(-(rest - imax) // (k - 2))
                    if lo < lo4:
                        lo = lo4
                    h = (rest - imin) // (k - 2)
                    if h < hi:
                        hi = h
                if hi < lo4:
                    break
                if lo > hi:
                    continue
                v = k * delta + c
                fits = (
                    divisors[v] | divisors[abs(v - a1)] | divisors[abs(v - a2)]
                    | divisors[abs(v - a3)] | divisors[v - delta]
                ) & (2 << hi) - (1 << lo)
                if not delta:
                    fits &= sums
                while fits:
                    bit = fits & -fits
                    fits ^= bit
                    a4 = bit.bit_length() - 1
                    yield a4, a4 + delta, k * (a4 + delta) + c
            if c and x + y <= max_p5 and k * (x + y) + c <= max_d:
                # d is fixed, so the index fixes a4; a4 = y or x is delta = x
                # or y above
                a5, d = x + y, k * (x + y) + c
                for a4 in range(max(lo4, imin + d - a5 - s3), min(a5, imax + d - a5 - s3) + 1):
                    if a4 != x and a4 != y and (
                        d % a4 == 0 or (d - a1) % a4 == 0 or (d - a2) % a4 == 0
                        or (d - a3) % a4 == 0 or (d - a5) % a4 == 0
                    ):
                        yield a4, a5, d

    # c = a4 < a5, where P5 has local weights a1, a2, a3: the index is
    # s3 - (k-1)*a5, and a4 divides k*a5 - e (e < a4) or (k-1)*a5 (e = a5)
    for a5 in {a1 + a2, a1 + a3, a2 + a3}:
        for k in (1, 2):
            v = k * a5
            if a3 < a5 <= max_p5 and v + a3 <= max_d and imin <= s3 - v + a5 <= imax:
                lo, hi = a3, min(a5 - 1, max_d - v)
                if lo > hi:
                    continue
                fits = divisors[v] | divisors[v - a1] | divisors[v - a2] | divisors[v - a3] | divisors[v - a5]
                fits &= (2 << hi) - (1 << lo)
                while fits:
                    bit = fits & -fits
                    fits ^= bit
                    a4 = bit.bit_length() - 1
                    yield a4, a5, v + a4


def _terminal_vertices(a: tuple[int, ...], d: int) -> bool:
    """Every vertex P_i on X passes the terminal lemma; its local weights
    exist, since the generator covers every vertex."""
    for i, ai in enumerate(a):
        if ai > 1 and d % ai and not terminal_type(ai, vertex_type(a, d, i)):
            return False
    return True


def _terminal_edges(a: tuple[int, ...], d: int) -> bool:
    """Every edge P_iP_j with q = gcd(a_i, a_j) > 1 that X meets off its
    vertices (two or more monomials of degree d) passes the terminal lemma."""
    return all(
        terminal_type(q, tuple(a[k] % q for k in range(5) if k != i and k != j))
        for (i, ai), (j, aj) in combinations(enumerate(a), 2)
        if (q := gcd(ai, aj)) > 1 and count_monomials((ai, aj), d) >= 2
    )


def _candidates(lo: int, hi: int, bounds: SearchBounds) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each (weights, d) with a1 in [lo, hi) that the generator's conditions
    allow, exactly once: a3 <= 24 and a5 <= 24 when P5 lies on X (Kawamata),
    every vertex covered, every three weights coprime, and every vertex and
    edge point on X terminal by the terminal lemma.  No accepted family fails
    one of them, so the candidates are a superset of the accepted families,
    and each passes the first five stages of ``membership.rejection``; the
    chain alone decides acceptance."""
    max_w, max_d = bounds.max_weight, bounds.max_degree
    max_sum = max_d + INDEX_RANGE[1]
    # bit m of divisors[n] is set iff m <= max_w divides n; _top_pairs reads n <= min(max_d, 5 * max_w)
    divisors = [0] * (min(max_d, 5 * max_w) + 1)
    for m in range(1, max_w + 1):
        for n in range(0, len(divisors), m):
            divisors[n] |= 1 << m
    max_w3 = min(max_w, MAX_POINT_INDEX)  # a3 <= 24: module docstring
    for a1 in range(lo, hi):
        for a2 in range(a1, max_w3 + 1):
            if a1 + 4 * a2 > max_sum:
                break
            g12 = gcd(a1, a2)
            for a3 in range(a2, max_w3 + 1):
                if a1 + a2 + 3 * a3 > max_sum:
                    break
                if gcd(g12, a3) > 1:
                    continue
                pairs, product = g12 * gcd(a1, a3) * gcd(a2, a3), a1 * a2 * a3
                for a4, a5, d in _top_pairs(a1, a2, a3, bounds, divisors):
                    # the a3, a2 and a1 vertices: a_i | d - e for an e in 0
                    # and the other weights (d > a5, so d - e > 0)
                    if d % a3 and (d - a1) % a3 and (d - a2) % a3 and (d - a4) % a3 and (d - a5) % a3:
                        continue
                    if d % a2 and (d - a1) % a2 and (d - a3) % a2 and (d - a4) % a2 and (d - a5) % a2:
                        continue
                    if d % a1 and (d - a2) % a1 and (d - a3) % a1 and (d - a4) % a1 and (d - a5) % a1:
                        continue
                    # every three weights coprime: each gcd(a_i, a_j) with
                    # i < j <= 3 is prime to a4 and a5, and gcd(a4, a5) to
                    # a1, a2 and a3
                    if gcd(pairs, a4 * a5) > 1 or gcd(product, a4, a5) > 1:
                        continue
                    a = (a1, a2, a3, a4, a5)
                    if _terminal_vertices(a, d) and _terminal_edges(a, d):
                        yield a, d


def _search_chunk(args: tuple[int, int, SearchBounds]) -> list[tuple[tuple[int, ...], int]]:
    """All accepted (weights, d) with a1 in [lo, hi)."""
    lo, hi, bounds = args
    return [
        (a, d)
        for a, d in _candidates(lo, hi, bounds)
        if rejection(a, d, terminal_general) is None
    ]


def _order(ws: WeightSystem) -> tuple:
    """The key of ``classify``'s output order."""
    return ws.index, ws.degree, ws.weights


def classify(bounds: SearchBounds | None = None, jobs: int = 1) -> list[FamilyRecord]:
    """Septuples within bounds passing all predicates, as full records.

    Output is sorted by (index, degree, weights) and is identical for any
    ``jobs`` value; ``jobs > 1`` maps one task per a1 across at most one
    process per task and per CPU (the pool forks all its workers at once).
    """
    bounds = bounds or SearchBounds()
    top = min(bounds.max_weight, MAX_POINT_INDEX, (bounds.max_degree + INDEX_RANGE[1]) // 5) + 1
    workers = min(jobs, top - 1, os.cpu_count() or 1)
    if workers <= 1:
        raw = _search_chunk((1, top, bounds))
    else:
        raw = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_search_chunk, [(a1, a1 + 1, bounds) for a1 in range(1, top)]):
                raw.extend(part)
    records = [family_record(WeightSystem(a, d)) for a, d in raw]
    records.sort(key=lambda r: _order(r.ws))
    return records


# ---------------------------------------------------------------------------
# persistence


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def catalog_json(records: Sequence[FamilyRecord]) -> str:
    return _canonical_json(
        {"schemaVersion": SCHEMA_VERSION, "records": [r.to_dict() for r in records]}
    )


def save_catalog(records: Sequence[FamilyRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(catalog_json(records))


def load_catalog(path: str) -> list[FamilyRecord]:
    """Load and revalidate a catalog file.

    Every septuple must pass the search's predicate chain again, terminality
    included, and carry the label ``family_record`` gives it; records are
    rebuilt from their septuples (membership and basket are recomputed) and
    must come once each in ``classify``'s order, so a loaded catalog is
    structurally identical to a fresh one.  A malformed file raises ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("load_catalog: expected a JSON object")
    version = payload.get("schemaVersion")
    if version != SCHEMA_VERSION:
        raise ValueError(f"load_catalog: unsupported schemaVersion {version!r}")
    entries = payload.get("records")
    if not isinstance(entries, list):
        raise ValueError("load_catalog: 'records' must be a list")
    records = []
    for entry in entries:
        try:
            values = entry["septuple"]
            # int() would truncate a float, read a bool as 0 or 1 and a string digit by digit
            integers = isinstance(values, list) and all(type(v) in (int, str) for v in values)
            sept = tuple(map(int, values)) if integers else ()
        except (KeyError, TypeError, ValueError):
            sept = ()
        if len(sept) != 7:
            raise ValueError(f"load_catalog: record {entry!r} needs a septuple of 7 integers")
        ws = WeightSystem(sept[:5], sept[5])
        if ws.index != sept[6]:
            raise ValueError(f"load_catalog: inconsistent septuple {sept}")
        if records and _order(ws) <= _order(records[-1].ws):
            raise ValueError(f"load_catalog: {sept} repeats a record or breaks classify's order")
        reason = rejection(ws.weights, ws.degree, terminal_general)
        if reason is not None:
            raise ValueError(f"load_catalog: {sept} fails {reason}")
        record = family_record(ws)
        if entry.get("paperNumber") != record.paper_number:
            raise ValueError(
                f"load_catalog: {sept} has paperNumber {entry.get('paperNumber')!r},"
                f" expected {record.paper_number!r}"
            )
        records.append(record)
    return records


def render_markdown(records: Iterable[FamilyRecord]) -> str:
    """Classification table in the standard layout."""
    lines = [
        "| № | a1 | a2 | a3 | a4 | a5 | d | I | basket |",
        "|---|----|----|----|----|----|---|---|--------|",
    ]
    for r in records:
        label = str(r.paper_number) if r.paper_number is not None else ""
        basket = "; ".join(r.basket.to_strings()) or "smooth"
        cells = [label, *map(str, r.ws.weights), str(r.ws.degree), str(r.ws.index), basket]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
