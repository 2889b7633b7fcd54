"""Macaulay-rank certificate for quasismoothness, independent of wfano.

A quasihomogeneous f of degree d in weights a_1..a_5 is quasismooth iff its
Jacobian ideal J = (df/dx_1, ..., df/dx_5) contains every monomial of degree
greater than sigma = sum(d - 2 a_i), the top degree of the Milnor algebra
(Macaulay 1916; Lazard 1983).  It is enough that a power of each variable lies
in J: then the partials have no common zero but the origin.  For each weight
a_i the check takes the least multiple k of a_i above sigma and shows that the
Macaulay matrix of J in degree k (rows: monomial times partial, columns: the
degree-k monomials) has full column rank modulo a prime.  Full rank mod p
implies full rank over Q, since a nonzero minor mod p is nonzero over Z, so a
"full" result is a proof of quasismoothness.  A deficient rank mod p proves
nothing; the next prime is tried.

The benchmark's member workload is a fixed list, so the certificates are
computed once and stored in data/jacobian.json.  Recompute and compare them
with

    python3 perfbench/jacobian.py            # exit 1 on any difference
    python3 perfbench/jacobian.py --write    # rewrite data/jacobian.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

PRIMES = (32003, 31991, 32009)
STORE = Path(__file__).resolve().parent / "data" / "jacobian.json"


def monomials(weights: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Exponent vectors of weighted degree k, in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, rem: int, cur: tuple[int, ...]) -> None:
        if i == len(weights) - 1:
            if rem % weights[i] == 0:
                out.append(cur + (rem // weights[i],))
            return
        for e in range(rem // weights[i] + 1):
            rec(i + 1, rem - e * weights[i], cur + (e,))

    if k >= 0:
        rec(0, k, ())
    return sorted(out)


def partials(terms: dict[tuple[int, ...], int]) -> list[dict[tuple[int, ...], int]]:
    out = []
    for v in range(5):
        d: dict[tuple[int, ...], int] = {}
        for m, c in terms.items():
            if m[v]:
                mm = list(m)
                mm[v] -= 1
                d[tuple(mm)] = c * m[v]
        out.append(d)
    return out


def integer_terms(terms: dict) -> dict[tuple[int, ...], int]:
    """Coefficients cleared of denominators (the ideal does not change)."""
    den = 1
    for c in terms.values():
        q = Fraction(c).denominator
        den = den * q // gcd(den, q)
    return {tuple(m): int(Fraction(c) * den) for m, c in terms.items()}


def digest(terms: dict) -> str:
    """Stable fingerprint of a member, to tie a stored certificate to it."""
    text = ";".join(f"{','.join(map(str, m))}:{Fraction(c)}" for m, c in sorted(terms.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rank_mod_p(rows: list[dict[int, int]], ncols: int, p: int) -> int:
    import numpy as np

    if not rows or ncols == 0:
        return 0
    mat = np.zeros((len(rows), ncols), dtype=np.int64)
    for r, row in enumerate(rows):
        for c, v in row.items():
            mat[r, c] = v % p
    rank = 0
    for col in range(ncols):
        nz = np.nonzero(mat[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            mat[[rank, piv]] = mat[[piv, rank]]
        inv = pow(int(mat[rank, col]), -1, p)
        mat[rank, col:] = mat[rank, col:] * inv % p
        below = mat[rank + 1 :, col]
        hit = np.nonzero(below)[0] + rank + 1
        if hit.size:
            mat[hit, col:] = (mat[hit, col:] - np.outer(mat[hit, col], mat[rank, col:])) % p
        rank += 1
        if rank == len(rows):
            break
    return rank


def macaulay_rank(terms: dict, weights: tuple[int, ...], d: int, k: int, p: int) -> tuple[int, int]:
    """(rank mod p, number of columns) of the degree-k Macaulay matrix of J."""
    cols = monomials(weights, k)
    index = {m: i for i, m in enumerate(cols)}
    rows = []
    for j, dj in enumerate(partials(integer_terms(terms))):
        if not dj:
            continue
        for mu in monomials(weights, k - (d - weights[j])):
            row: dict[int, int] = {}
            for m, c in dj.items():
                row[index[tuple(a + b for a, b in zip(m, mu))]] = c
            rows.append(row)
    return rank_mod_p(rows, len(cols), p), len(cols)


def certify(terms: dict, weights: tuple[int, ...], d: int) -> dict:
    """Jacobian-criterion certificate: quasismooth iff every degree is full."""
    sigma = sum(d - 2 * a for a in weights)
    degrees = sorted({(sigma // a + 1) * a for a in weights})
    checks = []
    for k in degrees:
        for p in PRIMES:
            rank, ncols = macaulay_rank(terms, weights, d, k, p)
            if rank == ncols:
                break
        checks.append({"degree": k, "columns": ncols, "rank": rank, "prime": p})
    return {
        "sigma": sigma,
        "checks": checks,
        "quasismooth": all(c["rank"] == c["columns"] for c in checks),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the stored certificates")
    args = parser.parse_args(argv)
    sys.path.insert(0, "src")
    import workloads

    fresh = {}
    for name, ws, f in workloads.member_inputs(quick=False):
        cert = certify(f.terms, ws.weights, ws.degree)
        fresh[name] = {"septuple": list(ws.septuple), "digest": digest(f.terms), **cert}
        print(name, cert["quasismooth"], [c["columns"] for c in cert["checks"]], flush=True)
    if args.write:
        STORE.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        return 0
    stored = json.loads(STORE.read_text())
    if stored != fresh:
        print("stored certificates differ from the recomputed ones", file=sys.stderr)
        return 1
    print("stored certificates match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
