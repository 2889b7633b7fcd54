"""Correctness checks of the benchmark's outputs.

Every check works on what the program hands back (catalog JSON, verdicts,
reduced supports, certificates, member verdicts) and compares it with data or
arithmetic of the benchmark's own: the paper's labelled septuples and verdict
table, the Kawamata bound, orbifold Riemann-Roch against a Hilbert-series
count, and the Jacobian criterion.  Each function returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import prod

#: septuples (a1..a5, d, I) the paper numbers, with their numbers
LABELLED = {
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

#: the index-1 families with d(X) = 3 in the paper's table
EXCEPTIONAL = {s for s, n in LABELLED.items() if n in (1, 19, 28, 39, 49, 59, 66, 84)}

_BASKET = re.compile(r"^(\d+) x 1/(\d+)\((\d+),(\d+),(\d+)\)$")


def septuple(record: dict) -> tuple[int, ...]:
    return tuple(int(v) for v in record["septuple"])


def parse_basket(entry: str) -> tuple[int, int, tuple[int, int, int]]:
    """'2 x 1/3(1,1,2)' -> (2, 3, (1, 1, 2))."""
    m = _BASKET.match(entry)
    if not m:
        raise ValueError(f"unreadable basket entry {entry!r}")
    n, r, *w = map(int, m.groups())
    return n, r, tuple(w)  # type: ignore[return-value]


def kawamata_problems(record: dict) -> list[str]:
    """Sum over the basket of (r - 1/r) must stay below 24 (Kawamata 1992)."""
    total = Fraction(0)
    for entry in record["basket"]:
        n, r, _ = parse_basket(entry)
        total += n * (r - Fraction(1, r))
    if total >= 24:
        return [f"{septuple(record)}: Kawamata sum {total} >= 24"]
    return []


def _terminal_b(r: int, w: tuple[int, int, int]) -> int:
    """b with 1/r(w) = 1/r(1, -1, b) after a change of generator."""
    for i in range(3):
        for j in range(3):
            if i != j and (w[i] + w[j]) % r == 0:
                k = 3 - i - j
                return w[k] * pow(w[i], -1, r) % r
    raise ValueError(f"1/{r}{w} is not of terminal type 1/r(1,-1,b)")


def hilbert_counts(weights: tuple[int, ...], top: int) -> list[int]:
    """Number of monomials of each degree 0..top in the given weights."""
    counts = [1] + [0] * top
    for a in weights:
        for v in range(a, top + 1):
            counts[v] += counts[v - a]
    return counts


def riemann_roch_problems(record: dict, nmax: int = 24) -> list[str]:
    """Orbifold Riemann-Roch for index 1 (Reid 1987; Altinok-Brown-Reid 2002).

    h0(-nK) = n(n+1)(2n+1)/12 * d/prod(a) + (2n+1) - l(n+1), where
    l(n+1) = sum over the basket 1/r(1,-1,b) of sum_{j=1..n} bj(r-bj)/2r (bj
    taken mod r).  The left side is the Hilbert series of the hypersurface.
    """
    s = septuple(record)
    a, d = s[:5], s[5]
    if s[6] != 1:
        return []
    basket = []
    for entry in record["basket"]:
        n, r, w = parse_basket(entry)
        basket += [(r, _terminal_b(r, w))] * n
    counts = hilbert_counts(a, nmax)
    degree = Fraction(d, prod(a))
    for n in range(1, nmax + 1):
        lhs = counts[n] - (counts[n - d] if n >= d else 0)
        corr = sum(
            Fraction((b * j % r) * (r - b * j % r), 2 * r) for r, b in basket for j in range(1, n + 1)
        )
        rhs = Fraction(n * (n + 1) * (2 * n + 1), 12) * degree + (2 * n + 1) - corr
        if lhs != rhs:
            return [f"{s}: Riemann-Roch fails at n={n}: h0 = {lhs}, formula gives {rhs}"]
    return []


def catalog_problems(text: str, full: bool) -> list[str]:
    """Counts, labels, Kawamata and Riemann-Roch on a catalog JSON text.

    With full=False (a reduced search box) only the labelled septuples inside
    the box are required, and the counts are not checked.
    """
    records = json.loads(text)["records"]
    problems = []
    by_sept = {septuple(r): r for r in records}
    if full:
        n1 = sum(1 for s in by_sept if s[6] == 1)
        if (n1, len(records)) != (95, 130):
            problems.append(f"{n1} index-1 families and {len(records)} in all, not 95 and 130")
    for s, number in LABELLED.items():
        rec = by_sept.get(s)
        if rec is None:
            if full:
                problems.append(f"labelled septuple {s} (No. {number}) missing")
        elif rec["paperNumber"] != number:
            problems.append(f"{s} carries No. {rec['paperNumber']}, not {number}")
    for rec in records:
        problems += kawamata_problems(rec)
        problems += riemann_roch_problems(rec)
    return problems


def same_catalog(reference: str, other: str, what: str) -> list[str]:
    if reference == other:
        return []
    a = json.loads(reference)["records"]
    b = json.loads(other)["records"]
    return [f"{what} differs from the jobs=1 catalog ({len(b)} records vs {len(a)})"]


def verdict_problems(verdicts: dict[tuple[int, ...], set[int]]) -> list[str]:
    """The paper's table: {3} on the exceptional eight, {2} on the other
    index-1 families, {1,2} for index >= 2."""
    problems = []
    for s, values in verdicts.items():
        if s[6] >= 2:
            want = {1, 2}
        elif s in EXCEPTIONAL:
            want = {3}
        else:
            want = {2}
        if set(values) != want:
            problems.append(f"{s}: verdict {sorted(values)}, paper says {sorted(want)}")
    return problems


#: the known degenerate draws of `reduce`, (family, seed) -> (the reference
#: monomials the reduction cancels, line stabilizer order): the sampled member
#: is special, so a coefficient of the generic table cancels during reduction,
#: or the point set on the invariant line has extra symmetry (28/35)
KNOWN_DEGENERATE = {
    (19, 35): (frozenset({(0, 3, 1, 1, 0)}), 1),
    (28, 35): (frozenset(), 2),
    (49, 7): (frozenset({(0, 3, 0, 2, 0)}), None),
    (59, 21): (frozenset({(0, 2, 3, 0, 0)}), None),
    (59, 28): (frozenset({(0, 2, 3, 0, 0)}), None),
    (59, 31): (frozenset({(0, 3, 0, 1, 1), (1, 3, 1, 0, 1)}), None),
    (59, 32): (frozenset({(0, 3, 0, 1, 1)}), None),
    (59, 33): (frozenset({(1, 1, 2, 0, 1)}), None),
    (66, 26): (frozenset({(1, 2, 0, 1, 1)}), None),
    (66, 27): (frozenset({(1, 2, 0, 1, 1)}), None),
    (84, 24): (frozenset({(1, 2, 0, 1, 1)}), None),
}


def reduce_outcome(
    family: int,
    seed: int,
    support: frozenset,
    reference: frozenset,
    eliminated: list,
    free_rank: int,
    torsion: tuple[int, ...],
    involution: bool,
    stabilizer_order: int | None,
) -> tuple[str, list[str]]:
    """Classify one certificate as 'ok', 'degenerate' or 'wrong'.

    'degenerate' is the known sampling fault, allowed only on the draws of
    KNOWN_DEGENERATE and only in exactly the form listed there.  A degenerate
    outcome on any other draw, a listed draw that comes back otherwise, and
    anything else that disagrees with the reference is 'wrong', with its
    problems listed.
    """
    draw = f"family {family} seed {seed}"
    problems = []
    stale = [m for m in eliminated if m in support]
    if stale:
        problems.append(f"{draw}: eliminated monomials present: {sorted(stale)}")
    if free_rank != 1 or torsion or involution:
        problems.append(
            f"{draw}: diagonal group rank {free_rank}, torsion {list(torsion)}, involution {involution}"
        )
    if family in (19, 28) and stabilizer_order is None:
        problems.append(f"{draw}: no line stabilizer computed")
    if support - reference:
        problems.append(f"{draw}: support has {len(support - reference)} monomials outside the reference table")
    lost = reference - support
    known = KNOWN_DEGENERATE.get((family, seed))
    if known is None:
        if lost:
            problems.append(f"{draw}: reduction lost {sorted(lost)}, and it is not a known degenerate draw")
        if stabilizer_order not in (None, 1):
            problems.append(f"{draw}: line stabilizer of order {stabilizer_order}, not 1")
    elif (lost, stabilizer_order) != known:
        problems.append(
            f"{draw}: known degenerate draw came back losing {sorted(lost)} with stabilizer "
            f"{stabilizer_order}, not losing {sorted(known[0])} with stabilizer {known[1]}"
        )
    if problems:
        return "wrong", problems
    return ("ok" if known is None else "degenerate"), []


def _parse_witness(witness: str) -> tuple[list[int], int | None]:
    """'[0:0:1:0:0]' -> ([0,0,1,0,0], None); '[1:2:3:0:0] mod 7' -> (..., 7)."""
    m = re.match(r"^\[([-\d:]+)\](?: mod (\d+))?$", witness.strip())
    if not m:
        raise ValueError(f"unreadable witness {witness!r}")
    point = [int(v) for v in m.group(1).split(":")]
    return point, (int(m.group(2)) if m.group(2) else None)


def partials_vanish(terms: dict, witness: str) -> bool:
    """Every partial of f is zero at the witness point (exactly, or mod p)."""
    point, p = _parse_witness(witness)
    for v in range(5):
        total = Fraction(0)
        for m, c in terms.items():
            if not m[v]:
                continue
            term = Fraction(c) * m[v]
            for k, e in enumerate(m):
                term *= point[k] ** (e - (k == v))
            total += term
        if p is None:
            if total != 0:
                return False
        elif total.numerator * pow(total.denominator, -1, p) % p:
            return False
    return True


def member_problems(name: str, terms: dict, status: str, witness: str | None, cert: dict) -> list[str]:
    """A member verdict against the Jacobian-criterion certificate.

    A member the certificate proves quasismooth must get that verdict; any
    other (singular, indeterminate) is wrong.  Without such a certificate a
    "singular" verdict is accepted, and its witness, if any, must annihilate
    every partial.
    """
    if cert["quasismooth"]:
        if status != "quasismooth":
            return [f"{name}: {status!r}, but the Jacobian criterion proves it quasismooth"]
        return []
    if status == "quasismooth":
        return [f"{name}: 'quasismooth', but the Macaulay matrix is rank deficient"]
    if status != "singular":
        return [f"{name}: no verdict ({status!r})"]
    if witness is not None and not partials_vanish(terms, witness):
        return [f"{name}: singular witness {witness} does not annihilate the partials"]
    return []
