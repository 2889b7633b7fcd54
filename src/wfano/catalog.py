"""Bounded search reproducing the classification, plus catalog persistence.

The search derives its candidates from the vertex conditions instead of
walking every weight tuple and index.  By Iano-Fletcher, *Working with
weighted complete intersections* (2000), Thm 8.1, the general X_d in
P(a1, ..., a5) is quasismooth only if for every i some monomial x_i^m or
x_i^m * x_j has degree d.  The Fano index is at least 1, so d < 5*a5: the a5
condition makes d = k*a5 + c with 1 <= k <= 4 and c in {0, a1, a2, a3, a4},
and the a4 condition asks a4 to divide d - e for some e in {0, a1, a2, a3,
a5}.

When c > 0 the vertex P5 lies on X, and its local type is 1/a5 of the three
weights other than a5 and c.  A 3-fold cyclic quotient 1/r(w1, w2, w3) with
every wi coprime to r is terminal iff two of the wi sum to 0 mod r
(Morrison--Stevens, *Terminal quotient singularities in dimensions three
and four*, 1984; Reid, *Young person's guide to canonical singularities*,
1987).  Those three weights lie below a5 (a weight equal to a5 leaves P5
non-isolated), so P5 can be terminal only if a5 is the sum of two of them.

For each a1 <= a2 <= a3, ``_top_pairs`` solves these conditions for (a4, a5,
d) in closed form: at most three values of a5 when c > 0, divisors of a few
small integers otherwise.  A congruence test for the a3 vertex follows.
Every pair the generator drops fails the a5 vertex, the a4 vertex, the a3
vertex or the terminality of P5, so the candidates are a superset of the
accepted families, each once; they are not every pair that passes the
vertex checks.

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
from typing import Iterable, Iterator, Sequence

from .membership import MembershipReport, membership_report, rejection
from .singular import SingularityBasket, singular_points_general, terminal_general
from .wspace import WeightSystem

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


@dataclass(frozen=True)
class SearchBounds:
    """Search box.  Defaults comfortably contain the known extremes of the
    classification (weights up to 33, degrees up to 66, Fano index up to 13)."""

    max_weight: int = 40
    max_degree: int = 120
    index_range: tuple[int, int] = (1, 15)

    def __post_init__(self) -> None:
        if self.max_weight < 1 or self.max_degree < 1:
            raise ValueError("SearchBounds: bounds must be positive")
        lo, hi = self.index_range
        if lo < 1 or hi < lo:
            raise ValueError("SearchBounds: bad index range")


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


def _dividing(lo: int, hi: int, values: Sequence[int], divisors: list[list[int]]) -> Iterable[int]:
    """The integers in [lo, hi] that divide one of values (all of them if a
    value is 0); divisors[n] lists the divisors of n in descending order."""
    if 0 in values:
        return range(lo, hi + 1)
    found = set()
    for v in values:
        for m in divisors[abs(v)]:
            if m < lo:
                break
            if m <= hi:
                found.add(m)
    return found


def _top_pairs(
    a1: int, a2: int, a3: int, bounds: SearchBounds, divisors: list[list[int]]
) -> Iterator[tuple[int, int, int]]:
    """Each (a4, a5, d) in bounds with a3 <= a4 <= a5 that the vertex
    conditions of a5 and a4 allow and whose point P5 can be terminal, once.

    The a5 vertex puts d = k*a5 + c with 1 <= k <= 4 and c < a5 one of 0, a1,
    a2, a3, a4 (d < 5*a5 since the index is positive; c = a5 would be
    (k+1)*a5 + 0).  The a4 vertex needs a4 | d - e for some e in 0, a1, a2,
    a3, a5.  When c > 0, P5 lies on X with local weights the three weights
    other than a5 and c, each below a5; it is terminal only if a5 is the sum
    of two of them (the terminal lemma in the module docstring).  Each
    branch below solves all three conditions for one shape of (k, c); the
    c = 0 branches (P5 off X) solve the first two.
    """
    max_w, max_d = bounds.max_weight, bounds.max_degree
    imin, imax = bounds.index_range
    s3 = a1 + a2 + a3
    low = (0, a1, a2, a3)
    # a5 candidates when c = a4, where P5 has local weights a1, a2, a3
    sums = {a1 + a2, a1 + a3, a2 + a3}

    # k = 1, c = a4 < a5: the index is s3 and x4*x5 covers the a4 vertex
    if imin <= s3 <= imax:
        for a5 in sums:
            if a5 <= max_w:
                for a4 in range(a3, min(a5, max_d - a5 + 1)):
                    yield a4, a5, a5 + a4

    for c in set(low):
        lo4 = max(a3, c + 1)
        if c:
            # for c < a4, P5 has local weights x, y (the low weights but c) and a4
            others = [a1, a2, a3]
            others.remove(c)
            x, y = others
            # k = 1: the index s3 + a4 - c fixes a4, and the a4 vertex needs
            # a4 | a5 + c - e
            top = min(max_w, max_d - c)
            for index in range(max(imin, s3 + 1), imax + 1):
                a4 = index - s3 + c
                if a4 > max_w:
                    break
                if a4 >= a3:
                    for a5 in {x + y, a4 + x, a4 + y}:
                        if a4 <= a5 <= top and any((a5 + c - e) % a4 == 0 for e in low):
                            yield a4, a5, a5 + c
        # k >= 2, c < a4: with a5 = a4 + delta the index is
        # s3 - c - (k-1)*delta - (k-2)*a4, and a4 divides k*delta + c - e
        # (e < a4) or (k-1)*delta + c (e = a5); for c > 0 delta is x or y,
        # or else a5 = x + y
        for k in (2, 3, 4):
            # below this delta the index would exceed imax for every a4 <= max_w
            first = max(0, s3 - c - imax - (k - 2) * max_w)
            if c:
                # ascending (x <= y) and once each, as the breaks below need
                deltas = [v for v in dict.fromkeys((x, y)) if v >= first]
            else:
                deltas = range(first, max_w - lo4 + 1)
            for delta in deltas:
                rest = s3 - c - (k - 1) * delta
                if k == 2:
                    if rest < imin:
                        break
                    lo, hi = lo4, max_w
                else:
                    lo = max(lo4, -(-(rest - imax) // (k - 2)))
                    hi = (rest - imin) // (k - 2)
                hi = min(hi, max_w - delta, (max_d - c) // k - delta)
                if hi < lo4:
                    break
                if lo > hi:
                    continue
                values = [k * delta + c - e for e in low] + [(k - 1) * delta + c]
                for a4 in _dividing(lo, hi, values, divisors):
                    yield a4, a4 + delta, k * (a4 + delta) + c
            if c and x + y <= max_w and k * (x + y) + c <= max_d:
                # d is fixed, so the index fixes a4; a4 = y or x is delta = x
                # or y above
                a5, d = x + y, k * (x + y) + c
                for a4 in range(max(lo4, imin + d - a5 - s3), min(a5, imax + d - a5 - s3) + 1):
                    if a4 not in (x, y) and any((d - e) % a4 == 0 for e in (*low, a5)):
                        yield a4, a5, d

    # k >= 2, c = a4 < a5: the index is s3 - (k-1)*a5, and a4 divides
    # k*a5 - e (e < a4) or (k-1)*a5 (e = a5)
    for k in (2, 3, 4):
        for a5 in sums:
            if a3 < a5 <= max_w and k * a5 + a3 <= max_d and imin <= s3 - (k - 1) * a5 <= imax:
                values = [k * a5 - e for e in low] + [(k - 1) * a5]
                for a4 in _dividing(a3, min(a5 - 1, max_d - k * a5), values, divisors):
                    yield a4, a5, k * a5 + a4


def _candidates(lo: int, hi: int, bounds: SearchBounds) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each (weights, d) with a1 in [lo, hi) whose a5, a4 and a3 vertices can
    be covered and whose P5 can be terminal, exactly once; a superset of the
    accepted families."""
    max_w, max_d = bounds.max_weight, bounds.max_degree
    max_sum = max_d + bounds.index_range[1]
    # every divisibility test in _top_pairs is on an integer of size <= max(max_d, max_w)
    size = max(max_d, max_w) + 1
    divisors: list[list[int]] = [[] for _ in range(size)]
    for m in range(size - 1, 0, -1):
        for n in range(m, size, m):
            divisors[n].append(m)
    for a1 in range(lo, hi):
        for a2 in range(a1, max_w + 1):
            if a1 + 4 * a2 > max_sum:
                break
            for a3 in range(a2, max_w + 1):
                if a1 + a2 + 3 * a3 > max_sum:
                    break
                for a4, a5, d in _top_pairs(a1, a2, a3, bounds, divisors):
                    # the a3 vertex needs a3 | d - e for an e in 0, a1, a2, a4, a5;
                    # most pairs fail it, so test it before building a tuple
                    if d % a3 and (d - a1) % a3 and (d - a2) % a3 and (d - a4) % a3 and (d - a5) % a3:
                        continue
                    yield (a1, a2, a3, a4, a5), d


def _search_chunk(args: tuple[int, int, SearchBounds]) -> list[tuple[tuple[int, ...], int]]:
    """All accepted (weights, d) with a1 in [lo, hi)."""
    lo, hi, bounds = args
    return [
        (a, d)
        for a, d in _candidates(lo, hi, bounds)
        if rejection(a, d, terminal_general) is None
    ]


def classify(bounds: SearchBounds | None = None, jobs: int = 1) -> list[FamilyRecord]:
    """Septuples within bounds passing all predicates, as full records.

    Output is sorted by (index, degree, weights) and is identical for any
    ``jobs`` value; ``jobs > 1`` maps one task per a1 across at most one
    process per task and per CPU (the pool forks all its workers at once).
    """
    bounds = bounds or SearchBounds()
    top = min(bounds.max_weight, (bounds.max_degree + bounds.index_range[1]) // 5) + 1
    workers = min(jobs, top - 1, os.cpu_count() or 1)
    if workers <= 1:
        raw = _search_chunk((1, top, bounds))
    else:
        raw = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_search_chunk, [(a1, a1 + 1, bounds) for a1 in range(1, top)]):
                raw.extend(part)
    records = [family_record(WeightSystem(a, d)) for a, d in raw]
    records.sort(key=lambda r: (r.ws.index, r.ws.degree, r.ws.weights))
    return records


def projection_exceptional(records: Sequence[FamilyRecord]) -> list[FamilyRecord]:
    """Index-1 records not handled by the symmetry route with d >= 3*a5.

    These are exactly the families requiring the binary-cubic normal form:
    every returned record has d = 3*a5 and a4 = a5.
    """
    out = []
    for r in records:
        if r.ws.index != 1:
            raise ValueError("projection_exceptional: expects index-1 records")
        if r.septuple in EXCEPTIONAL_EIGHT:
            continue
        if r.ws.degree >= 3 * r.ws.weights[4]:
            out.append(r)
    return out


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
    rebuilt from their septuples (membership and basket are recomputed) so a
    loaded catalog is structurally identical to a fresh one.  A malformed file
    raises ValueError.
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
            sept = tuple(int(v) for v in entry["septuple"])
        except (KeyError, TypeError, ValueError):
            sept = ()
        if len(sept) != 7:
            raise ValueError(f"load_catalog: record {entry!r} needs a septuple of 7 integers")
        ws = WeightSystem(sept[:5], sept[5])
        if ws.index != sept[6]:
            raise ValueError(f"load_catalog: inconsistent septuple {sept}")
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
