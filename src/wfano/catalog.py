"""The search reproducing the classification, plus catalog persistence.

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
vertices only.

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
P5 lies on X as a point of index a5, so a5 <= 24.

The P4 lemma bounds the last shape, P5 off X: c = 0, d = k*a5 with k in {2,
3, 4}, a5 = a4 + delta and index s3 - (k-2)*a4 - (k-1)*delta, s3 = a1 + a2 +
a3.  If P4 lies on X (a4 not dividing d), it is a point of index a4 <= 24,
covered by x4^m * x_j, of type the residues mod a4 less d = k*delta.  With
j = 5, a4 | (k-1)*delta and the type (a1, a2, a3) passes the lemma's sum
only if a4 is one of a1+a2, a1+a3, a2+a3 (a weight a4 has residue 0).  With
j = i <= 3, k*delta = a_i (mod a4), a_i < a4, and the type (a_j, a_l, delta)
needs a4 = a_j + a_l or delta = -a_w (mod a4) for a w in {j, l} with a_w <
a4, so that a4 | k*a_w + a_i.  If P4 is off X (a4 | k*delta), write g =
gcd(a4, a5), a4 = m*g and a5 = n*g: then m | k, delta = g*t with t = n - m
prime to m, and P4P5 carries the k/m + 1 >= 2 monomials x4^(n*i) *
x5^(k-m*i) of degree d, so X meets it off its vertices in points of type
1/g(a1, a2, a3): g <= 24, and g = 1 or g divides a sum a_x + a_y but not a_x.
For m = 1 (a4 | a5), g = a4 >= a3 makes a4 one of 1, a1+a2, a1+a3, a2+a3.

And a3 <= 24: else P3, P4 and P5 are off X, so c = 0, a4 = m*g as above
with m >= 2 (as g <= 24 < a4 for m = 1), and likewise a3 = n*h with h =
gcd(a3, a5) and 2 <= n | k; coprime threes make g, h coprime, so g*h | a5.
An index >= 1 with a1 + a2 <= 2*a3 then needs 3*n*h + m*g > (k-1)*g*h,
which fails: for k = 2, g, h >= 13 and g*h - 6*h - 2*g >= 11*g - 78 > 0; for
k = 3, g, h >= 9 and 15*g - 81 > 0; for k = 4, m, n in {2, 4}, g, h >= 7
and 17*g - 84 > 0.

Suzuki (*On Fano indices of Q-Fano 3-folds*, 2004) bounds by 19 the Fano
index of a Q-factorial terminal Q-Fano 3-fold of Picard rank 1.  X has
quotient singularities, so it is Q-factorial, and as a quasismooth
well-formed 3-fold it has Cl X = Z * O_X(1) (Grothendieck-Lefschetz for
weighted hypersurfaces: Dolgachev, *Weighted projective varieties*, 1982);
with K_X = O_X(d - sum a), its Fano index is sum a - d <= 19 (``INDEX_RANGE``).

So the walk is finite and reads no box.  For each a1 <= a2 <= a3 <= 24 with
no common factor, ``_top_pairs`` solves the vertex conditions and lemmas of
a5 and a4 in closed form, with each a4's deltas as residue classes cut by
the index window when c = 0.  ``_candidates`` then tests the other vertices,
the coprime threes and the terminal lemma at every vertex and edge.  No
accepted family fails a condition or bound, and the candidates are exactly
the 130 accepted families (a5 <= 33, d <= 66); ``classify`` keeps its box's.

Every candidate then goes through the predicate chain
``membership.rejection``: linear cone, vertex coverage, ambient and
hypersurface well-formedness, terminality of the general member, and
quasismoothness: 95 families of index 1 and 130 in total.
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


#: the Fano indices the search walks (Suzuki 2004; module docstring)
INDEX_RANGE = (1, 19)

#: the largest index r of a point on a terminal Fano 3-fold: the basket has
#: sum (r - 1/r) < 24 (Kawamata 1992 with Reid 1987)
MAX_POINT_INDEX = 24

#: bit m of _DIVISORS[n] is set iff m <= 24 divides n, for n <= 5*24
_DIVISORS = [sum(1 << m for m in range(1, MAX_POINT_INDEX + 1) if n % m == 0) for n in range(5 * MAX_POINT_INDEX + 1)]
#: bit delta of _REPUNIT[n] is set iff n | delta, for delta < 3*24 (> a5 - a4 when c = 0)
_REPUNIT = [0] + [((1 << n * -(-3 * MAX_POINT_INDEX // n)) - 1) // ((1 << n) - 1) for n in range(1, 3 * MAX_POINT_INDEX + 1)]
#: bit delta of _SOLVE[k][a4][b] is set iff k*delta = b (mod a4), for a4 <= 24
_SOLVE = {k: [[0] * a4 for a4 in range(MAX_POINT_INDEX + 1)] for k in range(1, 5)}
for _k, _a4, _t in ((k, a4, t) for k in range(1, 5) for a4 in range(1, MAX_POINT_INDEX + 1) for t in range(a4)):
    _SOLVE[_k][_a4][_k * _t % _a4] |= _REPUNIT[_a4] << _t
#: each m | k with the least prime p of m (0 for m = 1), so t prime to m is t prime to p
_FACTORS = {2: ((1, 0), (2, 2)), 3: ((1, 0), (3, 3)), 4: ((1, 0), (2, 2), (4, 2))}


@dataclass(frozen=True)
class SearchBounds:
    """The box of ``classify``'s output, which the search itself never
    reads: it keeps the families with a5 <= max_weight and d <= max_degree.
    The defaults hold all 130 (weights up to 33, degrees up to 66)."""

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


def _top_pairs(a1: int, a2: int, a3: int) -> Iterator[tuple[int, int, int]]:
    """Each (a4, a5, d) with a3 <= a4 <= a5 and index in ``INDEX_RANGE`` that
    the vertex conditions of a5 and a4 allow, and whose P5, P4 and P4P5 can be
    terminal, once (module docstring).  When c > 0, a5 is the sum of two of
    the local weights of P5 (x + y >= a4 or a4 + x > y, x and y the low
    weights but c; a_i + a_j > a_l if c = a4), at least half of s3 + a4 - c,
    so the index s3 + a4 - c - (k-1)*a5 is at most (3-k)*a5, and k <= 2.
    """
    imin, imax = INDEX_RANGE
    s3 = a1 + a2 + a3
    for c in {a1, a2, a3}:
        # c < a4: P5 has local weights x, y (the low weights but c) and a4
        x, y = (a2, a3) if c == a1 else (a1, a3) if c == a2 else (a1, a2)
        lo4 = max(a3, c + 1)
        # k = 1 has index s3 - c + a4 >= s3 - c + lo4
        for k in (1, 2) if s3 - c + lo4 <= imax else (2,):
            # a5 = a4 + delta, delta in x, y: the index is s3 - c - (k-1)*delta - (k-2)*a4,
            # and a4 | k*delta + c - e (e < a4) or (k-1)*delta + c (e = a5)
            for delta in {x, y}:
                rest = s3 - c - (k - 1) * delta
                lo, hi = (max(lo4, imin - rest), imax - rest) if k == 1 else (lo4, MAX_POINT_INDEX if imin <= rest <= imax else 0)
                hi, v = min(hi, MAX_POINT_INDEX - delta), k * delta + c
                fits = _DIVISORS[v] | _DIVISORS[abs(v - a1)] | _DIVISORS[abs(v - a2)] | _DIVISORS[abs(v - a3)]
                fits = (fits | _DIVISORS[v - delta]) & (2 << hi) - (1 << lo) if lo <= hi else 0
                while fits:
                    bit = fits & -fits
                    fits ^= bit
                    a4 = bit.bit_length() - 1
                    yield a4, a4 + delta, k * (a4 + delta) + c
            # a5 = x + y: the index s3 + a4 - c - (k-1)*a5 bounds a4; a4 = y or x is delta = x or y
            a5 = x + y
            d, rest = k * a5 + c, s3 - c - (k - 1) * a5
            lo, hi = max(lo4, imin - rest), min(a5, imax - rest)
            if a5 <= MAX_POINT_INDEX and lo <= hi:
                fits = _DIVISORS[d] | _DIVISORS[d - a1] | _DIVISORS[d - a2] | _DIVISORS[d - a3] | _DIVISORS[d - a5]
                fits &= (2 << hi) - (1 << lo) & ~(1 << x | 1 << y)
                while fits:
                    bit = fits & -fits
                    fits ^= bit
                    yield bit.bit_length() - 1, a5, d

    # c = a4 < a5, where P5 has local weights a1, a2, a3: the index is
    # s3 - (k-1)*a5, and a4 divides k*a5 - e (e < a4) or (k-1)*a5 (e = a5)
    for a5 in {a1 + a2, a1 + a3, a2 + a3}:
        for k in (1, 2):
            v = k * a5
            if a3 < a5 <= MAX_POINT_INDEX and imin <= s3 - v + a5 <= imax:
                fits = _DIVISORS[v] | _DIVISORS[v - a1] | _DIVISORS[v - a2] | _DIVISORS[v - a3] | _DIVISORS[v - a5]
                fits &= (1 << a5) - (1 << a3)
                while fits:
                    bit = fits & -fits
                    fits ^= bit
                    a4 = bit.bit_length() - 1
                    yield a4, a5, v + a4

    # c = 0: d = k*a5 with a5 = a4 + delta and index s3 - (k-2)*a4 - (k-1)*delta;
    # g is 1, or g <= 24 passes the lemma's sum on P4P5 (g | a_x + a_y, not a_x)
    edge = 2 | (_DIVISORS[a1 + a2] | _DIVISORS[a1 + a3]) & ~_DIVISORS[a1] | _DIVISORS[a2 + a3] & ~_DIVISORS[a2]
    gs = [g for g in range(1, MAX_POINT_INDEX + 1) if edge >> g & 1]
    for k in (2, 3, 4):
        # the largest a4 whose index can reach imin (a4 = m*g <= 2*24 for k = 2)
        top = (s3 - imin) // (k - 2) if k > 2 else 2 * MAX_POINT_INDEX
        if top < a3:
            break
        solve, below, cap = _SOLVE[k], _SOLVE[k - 1], min(top, MAX_POINT_INDEX)
        # P4 on X, a4 <= 24: the deltas of each a4, by the partner x_j of P4
        on: dict[int, int] = {}
        for i, j, l in ((a1, a2, a3), (a2, a1, a3), (a3, a1, a2)):
            a4 = j + l
            if a3 <= a4 <= cap:
                # x5 (a4 | (k-1)*delta, a4 not | k*delta), or x_i with a4 = a_j + a_l
                on[a4] = on.get(a4, 0) | below[a4][0] & ~solve[a4][0] | (solve[a4][i] if i < a4 else 0)
            for w in (j, l):
                # x_i with delta = -a_w (mod a4), so a4 | k*a_w + a_i
                lo = a3 + 1 if i == a3 or w == a3 else a3
                fits = _DIVISORS[k * w + i] >> lo << lo & (2 << cap) - 1
                while fits:
                    bit = fits & -fits
                    fits ^= bit
                    a4 = bit.bit_length() - 1
                    on[a4] = on.get(a4, 0) | _REPUNIT[a4] << a4 - w
        shapes = list(on.items())
        # P4 off X: a4 = m*g with m | k, and delta = g*t with t prime to m
        for m, p in _FACTORS[k]:
            for g in gs:
                if m * g > top:
                    break
                if m * g >= a3:
                    shapes.append((m * g, _REPUNIT[g] & ~_REPUNIT[p * g]))
        # the deltas of the index window: a4 <= top keeps its hi >= 0, and lo <= hi + 1
        for a4, deltas in shapes:
            rest = s3 - (k - 2) * a4
            fits = deltas & (2 << (rest - imin) // (k - 1)) - (1 << max(0, -((imax - rest) // (k - 1))))
            while fits:
                bit = fits & -fits
                fits ^= bit
                a5 = a4 + bit.bit_length() - 1
                yield a4, a5, k * a5


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


def _candidates(lo: int, hi: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each (weights, d) with a1 in [lo, hi) that the generator's conditions
    (module docstring) allow, once: a superset of the accepted families, each
    passing the first five stages of ``membership.rejection``."""
    for a1 in range(lo, hi):
        for a2 in range(a1, MAX_POINT_INDEX + 1):
            g12 = gcd(a1, a2)
            for a3 in range(a2, MAX_POINT_INDEX + 1):
                if gcd(g12, a3) > 1:
                    continue
                pairs, product = g12 * gcd(a1, a3) * gcd(a2, a3), a1 * a2 * a3
                for a4, a5, d in _top_pairs(a1, a2, a3):
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
    """All accepted (weights, d) in bounds with a1 in [lo, hi)."""
    lo, hi, bounds = args
    return [
        (a, d)
        for a, d in _candidates(lo, hi)
        if a[4] <= bounds.max_weight and d <= bounds.max_degree and rejection(a, d, terminal_general) is None
    ]


def _order(ws: WeightSystem) -> tuple:
    """The key of ``classify``'s output order."""
    return ws.index, ws.degree, ws.weights


def classify(bounds: SearchBounds | None = None, jobs: int = 1) -> list[FamilyRecord]:
    """The accepted families with a5 <= max_weight and d <= max_degree, as
    full records: the box filters the search's candidates before the chain.

    Output is sorted by (index, degree, weights) and is identical for any
    ``jobs`` value; ``jobs > 1`` maps one task per a1 across at most one
    process per task and per CPU (the pool forks all its workers at once).
    """
    bounds = bounds or SearchBounds()
    top = min(bounds.max_weight, MAX_POINT_INDEX) + 1  # a1 <= a3 <= 24, and a1 <= a5 filters whole tasks
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
