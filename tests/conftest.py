"""Fixtures and helpers shared by the test modules."""

import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm

import numpy as np
import pytest

from wfano.catalog import SearchBounds, classify
from wfano.membership import is_linear_cone, representable
from wfano.symalg import GradedPolynomial, _pack, _width
from wfano.wspace import format_monomial, parse_monomial, weighted_degree, wps_well_formed


@pytest.fixture(scope="session")
def default_catalog():
    """The catalog at the default search bounds and the seconds its search
    took, computed once per session; tests only read it."""
    t0 = time.time()
    records = classify(SearchBounds())
    return records, time.time() - t0


def box_records(records, max_weight, max_degree):
    """The records of a catalog inside a smaller box, in order: those with
    a5 <= max_weight and d <= max_degree, which are the box's own catalog
    (``test_each_box_is_the_cap_catalog_filtered``)."""
    return [r for r in records if r.ws.weights[4] <= max_weight and r.ws.degree <= max_degree]


def box_pairs(bounds, index_range):
    """Every (weights, d) of a search box with d >= 2, by a walk over each
    sorted 5-tuple of weights and each index in the window."""
    imin, imax = index_range
    for a in combinations_with_replacement(range(1, bounds.max_weight + 1), 5):
        for index in range(imin, imax + 1):
            d = sum(a) - index
            if 2 <= d <= bounds.max_degree:
                yield a, d


def covered_box_pairs(bounds, index_range):
    """Every (weights, d) of a search box, with index in the window, that is
    no linear cone and covers every vertex: for each i some monomial x_i^m or
    x_i^m * x_j has degree d.  The sorted weight tuples are numpy columns,
    built a1 by a1 one weight at a time, and each index is one pass over
    them."""
    max_w, max_d = bounds.max_weight, bounds.max_degree
    imin, imax = index_range
    pairs = []
    for a1 in range(1, max_w + 1):
        # rows a1, ..., a5 of the sorted tuples with sum(a) <= max_d + imax;
        # each new weight runs from the last one up to max_w
        a = np.array([[a1]])
        for free in (4, 3, 2, 1):
            last = a[-1]
            counts = max_w + 1 - last
            rows = np.repeat(np.arange(len(last)), counts)
            new = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts) + last[rows]
            # the weights still free are at least new
            fits = a[:, rows].sum(axis=0) + free * new <= max_d + imax
            a = np.vstack([a[:, rows[fits]], new[fits]])
        if not a.shape[1]:
            break
        total, a5 = a.sum(axis=0), a[4]
        low = a[:4] % a5
        r = (total - imin) % a5  # d mod a5 at the current index
        for index in range(imin, imax + 1):
            d = total - index
            # the a5 vertex on every tuple: a5 | d - e for an e in 0, a1, ..., a4
            # (d - e >= a5 once d is no weight)
            keep = (d >= 1) & (d <= max_d) & (d != a5) & (
                (r == 0) | (r == low[0]) | (r == low[1]) | (r == low[2]) | (r == low[3])
            )
            b, d = a[:, keep], d[keep]
            for i in (3, 2, 1, 0):
                rem = d % b[i]
                keep = (rem == 0) & (d != b[i])
                for j in range(5):
                    if j != i:
                        keep |= (rem == b[j] % b[i]) & (d >= b[i] + b[j])
                b, d = b[:, keep], d[keep]
            pairs.extend(zip(map(tuple, b.T.tolist()), d.tolist()))
            r -= 1
            r[r < 0] += a5[r < 0]
    return pairs


def covers(a, d, i):
    """Some monomial x_i^m or x_i^m * x_j, m >= 1, has degree d."""
    return any(d - e >= a[i] and (d - e) % a[i] == 0 for e in (0, *a))


def covered(a, d):
    """(a, d) is no linear cone and its a3, a4 and a5 vertices are covered."""
    return d not in a and all(covers(a, d, i) for i in (2, 3, 4))


def reid_tai_terminal(q):
    """Reid--Tai, the oracle of the terminal lemma: the isolated quotient q =
    1/r(w1, w2, w3) is terminal iff every age sum_i frac(k*w_i/r) exceeds 1,
    evaluated in integers: sum((k*w_i) mod r) > r for all k in 1..r-1."""
    r = q.order
    return all(sum((k * w) % r for w in q.local_weights) > r for k in range(1, r))


#: the variables outside each subset of the five
OUTSIDE = {s: [j for j in range(5) if j not in s] for r in range(1, 6) for s in combinations(range(5), r)}


def count_quasismooth_general(ws, representable=representable):
    """The oracle of ``membership.quasismooth_general``: the same criterion
    with one ``representable`` question at a time (one ``count_monomials``
    each, unless a ``counted_representable`` is given)."""
    if is_linear_cone(ws):
        raise ValueError("quasismooth_general: linear cones are excluded upstream")
    a, d = ws.weights, ws.degree
    failing = []
    for r in range(1, 6):
        for subset, wts in zip(combinations(range(5), r), combinations(a, r)):
            if representable(wts, d):
                continue
            witnesses = [j for j in OUTSIDE[subset] if d - a[j] >= 0 and representable(wts, d - a[j])]
            if len(witnesses) < r:
                failing.append(
                    (
                        subset,
                        f"no pure degree-{d} monomial and only {len(witnesses)} of the "
                        f"required {r} outside variables admit one",
                    )
                )
    return not failing, failing


def count_hypersurface_well_formed(ws, representable=representable):
    """The oracle of ``membership.hypersurface_well_formed``, by ``representable``."""
    if not wps_well_formed(ws):
        return False
    return all(gcd(*wts) == 1 or representable(wts, ws.degree) for wts in combinations(ws.weights, 3))


def count_top_variable_degree(ws, representable=representable):
    """The oracle of ``irrational.top_variable_degree``, by ``representable``."""
    a, d = ws.weights, ws.degree
    return max((e for e in range(d // a[4] + 1) if representable(a[:4], d - e * a[4])), default=0)


def counted_representable(weights, top):
    """A ``representable`` for the subsets of weights, in order, and targets
    t <= top, which counts the monomials of every degree 0..top of each
    subset in one pass: the subset plus a weight a has c[t] += c[t - a], its
    series times 1/(1 - q^a)."""
    counts = {(): [1] + [0] * top}
    for a in weights:
        for wts, c in list(counts.items()):
            c = c[:]
            for t in range(a, top + 1):
                c[t] += c[t - a]
            counts[wts + (a,)] = c
    return lambda wts, t: t >= 0 and counts[wts][t] > 0


def polynomial(ws, grade, terms):
    """The GradedPolynomial of a map monomial -> rational (Fraction or int).
    Each monomial's degree is checked before packing: an exponent past the
    key width would read as another monomial."""
    for m in terms:
        if weighted_degree(m, ws) != grade:
            raise ValueError(f"GradedPolynomial: {format_monomial(m)} has degree {weighted_degree(m, ws)}, not {grade}")
    w, den = _width(ws.degree), lcm(*(Fraction(c).denominator for c in terms.values()))
    return GradedPolynomial(ws, grade, {_pack(m, w): int(c * den) for m, c in terms.items()}, den)


def parse_polynomial(text, ws, grade):
    """Parse the text form emitted by format_polynomial ("-3/2*x^2*y*w + w^3")."""
    terms = {}
    text = text.replace("- ", "+ -").replace(" ", "")
    if text in ("", "0"):
        return polynomial(ws, grade, {})
    for chunk in text.split("+"):
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign, chunk = Fraction(-1), chunk[1:]
        coeff = sign
        mono_parts = []
        for fct in chunk.split("*"):
            if fct and (fct[0].isdigit() or "/" in fct):
                coeff *= Fraction(fct)
            else:
                mono_parts.append(fct)
        m = parse_monomial("*".join(mono_parts)) if mono_parts else (0, 0, 0, 0, 0)
        terms[m] = terms.get(m, Fraction(0)) + coeff
    return polynomial(ws, grade, {m: c for m, c in terms.items() if c != 0})


def scaled(f, c):
    """c * f (c = -1 on a tail inverts its substitution)."""
    return polynomial(f.ws, f.grade, {m: c * v for m, v in f.terms.items()} if c else {})
