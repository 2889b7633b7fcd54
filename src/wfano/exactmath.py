"""Exact integer and rational arithmetic utilities.

Everything here is exact: arbitrary-precision integers, ``fractions.Fraction``
for rationals, Smith normal form over the integers with its right transform,
common and rational roots of binary forms, ranks over F_p, and the block
triangular form of a square with a zero-free diagonal.  The genericity and
quasismoothness decisions downstream depend on these answers being exact.
The one use of floating point is ``rank_mod_p`` and the blocks that
``diagonal_blocks`` builds for it, whose float64 values are integers below
2^52 in absolute value, all represented exactly; numpy is imported there,
not at module level, so ``import wfano`` does not load it.  Importing this
module pins OpenBLAS to the calling thread (``OPENBLAS_NUM_THREADS``, below).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence


# ---------------------------------------------------------------------------
# integer matrices


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    if not a or not b:
        return []
    assert all(len(r) == len(b) for r in a), "dimension mismatch"
    columns = list(zip(*b))
    return [[sum(map(mul, row, column)) for column in columns] for row in a]


def adjugate(m: Sequence[Sequence[int]]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The adjugate of a 2x2 matrix: its inverse times its determinant."""
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def triple_matrix(points: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The matrix sending [1:0], [0:1], [1:1] to three distinct points (p, q).

    Its columns are lam*(p0, q0) and mu*(p1, q1), where lam and mu are the
    numerators, over det = p0*q1 - p1*q0, of the solution of
    lam*(p0, q0) + mu*(p1, q1) = det*(p2, q2) by Cramer's rule.
    """
    (p0, q0), (p1, q1), (p2, q2) = points
    lam = p2 * q1 - p1 * q2
    mu = p0 * q2 - p2 * q0
    if lam * mu * (p0 * q1 - p1 * q0) == 0:
        raise ValueError("coincident points in triple")
    return ((lam * p0, mu * p1), (lam * q0, mu * q1))


def mat_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    assert all(len(r) == n for r in m), "not square"
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization A * R with R unimodular: some unimodular L, which is
    not computed, gives L * A * R = D.

    ``diagonal`` holds the elementary divisors (nonnegative, each dividing the
    next nonzero one), padded with zeros up to min(rows, cols).
    """

    diagonal: tuple[int, ...]
    right: tuple[tuple[int, ...], ...]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form of an integer matrix, with its right transform.

    Pivoting picks the smallest-absolute-value nonzero entry, ties broken by
    lowest (row, col), which makes the reduction deterministic for a fixed
    input.  Returns diagonal entries normalized nonnegative with the
    divisibility chain enforced.  Row operations act on the matrix alone; the
    left transform is not kept; the tests prove that it exists.
    Once pivot k is done, row k and column k are zero off the diagonal, so
    the operations at pivot k touch only rows and columns >= k of the matrix.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    for r in matrix:
        if len(r) != cols:
            raise ValueError("smith_normal_form: ragged matrix")
    a = [list(r) for r in matrix]
    right = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    k = 0
    limit = min(rows, cols)
    while k < limit:
        least = 0  # a 1 cannot be beaten under the strict <, so the scan stops there
        for i in range(k, rows):
            row = a[i]
            for j in range(k, cols):
                v = abs(row[j])
                if v and (v < least or not least):
                    least, pi, pj = v, i, j
                    if v == 1:
                        break
            if least == 1:
                break
        if not least:
            break
        a[k], a[pi] = a[pi], a[k]
        if pj != k:
            for row in a[k:] + right:
                row[k], row[pj] = row[pj], row[k]
        pivot = a[k]
        if pivot[k] < 0:
            a[k] = pivot = [-v for v in pivot]
        d = pivot[k]
        clean = True
        for i in range(k + 1, rows):
            row = a[i]
            q = row[k] // d
            if q:
                for j in range(k, cols):
                    row[j] -= q * pivot[j]
            clean = clean and not row[k]
        for j in range(k + 1, cols):
            q = pivot[j] // d
            if q:
                for i in range(k, rows):
                    a[i][j] -= q * a[i][k]
                for row in right:
                    row[j] -= q * row[k]
            clean = clean and not pivot[j]
        if not clean:
            continue  # remainders left nonzero entries in the border; redo pivot
        # the pivot must divide the whole remaining block; if a row breaks
        # that, add it to the pivot row and redo the pivot
        if d != 1:
            offender = next((a[i] for i in range(k + 1, rows) if any(v % d for v in a[i][k + 1 :])), None)
            if offender is not None:
                for j in range(k + 1, cols):
                    pivot[j] += offender[j]
                continue
        k += 1

    diag = [a[i][i] for i in range(limit)]
    return SmithForm(diagonal=tuple(diag), right=tuple(tuple(r) for r in right))


# ---------------------------------------------------------------------------
# matrices over F_p in float64

#: float64 holds every integer of absolute value below this exactly (with a
#: bit to spare); every intermediate of the mod-p routines stays below it
EXACT_BOUND = 1 << 52
#: columns per panel of ``rank_mod_p``: a product sums at most PANEL terms.
#: 64 beat 32, 48, 96 and 128 on the quartic's 1365^2 Macaulay matrix, on
#: all eight ``member`` matrices past WHOLE_COLUMNS and on a dense 1365^2, in
#: 0.89-0.96 of the time of 32 (2-vCPU host).  At 15 calls per column it
#: is level with 48 and ahead of 96 and 128 on a ``member`` round
#: in-process (103.7 against 104.3 and 110.3-110.8 ms, medians of nine,
#: 2-vCPU host)
PANEL = 64
#: rows per block of a reduction or a product, bounding the temporaries
ROW_BLOCK = 64
#: most multiply-adds in one BLAS call of the blocked LU (U12 and
#: ``add_product``).  It bounds the temporaries: with the thread count pinned
#: below, unsplit products took the ``member`` benchmark's wall time about
#: 1.6 % lower but its peak RSS from 55.3-55.8 to 55.9-56.3 MB (six
#: alternating pairs, 2-vCPU host)
PRODUCT_SIZE = 64**3
# Every product here is small, so OpenBLAS gains nothing from threads, yet
# loading numpy starts a helper thread that busy-waits for about 0.13 s of
# CPU: two worker processes on two cores then spin against each other
# (OpenBLAS 0.3.31).  OpenBLAS reads the variable when numpy first loads, and
# only this module and ``symalg`` (which imports it) load numpy, so the pin
# comes first and spawned workers inherit it.  A value already set is kept,
# and a process that loaded numpy before wfano keeps its threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
#: most columns of a matrix that ``rank_mod_p`` eliminates whole instead of in
#: panels: its cost is then the number of numpy calls per pivot, not
#: arithmetic, and whole elimination makes the fewest, five per pivot against
#: about 15 per column in panels.  At nine calls per pivot it took 0.85-0.9
#: of the 64-column panels' time on Macaulay and dense matrices of 61-80
#: columns, level at 87-96, behind from about 110 (2-vCPU host).  21 of the
#: 29 Macaulay matrices of the ``member`` benchmark have at most 96 columns.
#: At five calls per pivot, 96 still beat 64, 128 and 160 on a ``member``
#: round in-process (103.7 against 105.1-106.7 ms, medians of nine, 2-vCPU
#: host)
WHOLE_COLUMNS = 96


def add_product(out, rows, left, right) -> None:
    """out[rows] += left @ right, as BLAS calls of at most PRODUCT_SIZE multiply-adds.

    ``rows`` ascend.  Each column tile of ``right`` is copied to contiguous
    memory once, which saves more than the copy costs across the row blocks
    that read it, and a tile of zeros is skipped.  A block of consecutive rows
    is updated through a view, which saves a gather and a scatter.
    """
    import numpy as np

    width = max(1, PRODUCT_SIZE // (ROW_BLOCK * max(1, left.shape[1])))
    for c in range(0, out.shape[1], width):
        tile = np.ascontiguousarray(right[:, c : c + width])
        if not tile.any():
            continue
        for r in range(0, len(rows), ROW_BLOCK):
            block = rows[r : r + ROW_BLOCK]
            if block[-1] - block[0] == len(block) - 1:
                block = slice(block[0], block[-1] + 1)
            out[block, c : c + width] += left[r : r + ROW_BLOCK] @ tile


def rank_mod_p(matrix, p: int) -> int:
    """Rank over F_p of an integer matrix, p a prime with
    (PANEL * (p-1)^2 + p) * (p-1) < 2^52: p at most 41281.

    A float64 array is reduced and eliminated in place; any other array-like
    is first copied into one.  Blocked LU with left-looking panels (Toledo
    1997).  The rows without a pivot are kept as an index and never moved.
    Each panel of PANEL columns is gathered from those of them with an entry
    in it and eliminated column by column with row pivoting: column c first
    takes the update of the j pivots before it, u = L11^-1 c[:j] and then
    c[j:] += N u, one matrix-vector product, where N holds the negated
    multipliers in the panel's own compacted pivot columns and row j of
    L11^-1 is built as pivot j is found, (N_j L11^-1) * inv mod p with one
    reduction.  The diagonal entry is the pivot when it is nonzero; only
    otherwise are the rows below searched, for the first nonzero one.
    U12 = L11^-1 A12 is one product per tile, and the panel's other rows
    take N U12 as BLAS products (``add_product``).  A matrix of at most
    WHOLE_COLUMNS columns is eliminated whole instead (``_eliminate_whole``).

    Exactness: residues are kept in [0, p) by ``x -= p*floor(x/p)``, which is
    exact for |x| < EXACT_BOUND because x/p is correctly rounded (an integer
    when p | x, at least 1/p away from one otherwise), or by numpy's ``%``
    (an exact fmod) on the short vectors u and the rows of L11^-1.  A product
    of residues sums at most PANEL terms below (p-1)^2, and a row of L11^-1
    multiplies such a sum by a residue, hence the bound on p.  The trailing
    block is reduced only when a panel reaches it, so an entry collects at
    most one such sum per panel: p + panels * PANEL * (p-1)^2 < 2^52 too,
    which holds below about 2.6 million columns at p = 41281.  The check
    below raises ValueError past either bound.
    """
    import numpy as np

    def mod(x) -> None:
        q = x / p  # the one temporary
        x -= np.multiply(np.floor(q, out=q), p, out=q)

    a = np.asarray(matrix)
    if a.dtype != np.float64:
        a = np.asarray(np.asarray(matrix, dtype=np.int64) % p, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("rank_mod_p: need a 2-D matrix")
    rows, cols = a.shape
    sums = PANEL * (p - 1) ** 2
    if (sums + p) * (p - 1) >= EXACT_BOUND or p + -(-cols // PANEL) * sums >= EXACT_BOUND:
        raise ValueError(f"rank_mod_p: p = {p} with {cols} columns is past exact float64")
    if a.size and not (-EXACT_BOUND < a.min() and a.max() < EXACT_BOUND):
        raise ValueError("rank_mod_p: entries past exact float64")
    for r in range(0, rows, ROW_BLOCK):
        mod(a[r : r + ROW_BLOCK])
    if cols <= WHOLE_COLUMNS:
        return _eliminate_whole(a, p)
    rest = np.arange(rows)  # the rows without a pivot
    inverse = np.zeros((PANEL, PANEL))  # L11^-1, lower triangular
    for c0 in range(0, cols, PANEL):
        c1 = min(c0 + PANEL, cols)
        panel = a[rest, c0:c1]
        mod(panel)
        live = panel.any(axis=1)  # the other rows take no part in this panel
        panel, live = np.asfortranarray(panel[live]), rest[live]
        j = 0  # pivots found, on the panel's first j rows
        for c in range(c1 - c0):
            if j == len(live):
                break
            column = panel[:, c]
            if j:
                u = inverse[:j, :j] @ column[:j] % p
                column[j:] += panel[j:, :j] @ u
            tail = column[j:]
            mod(tail)
            pivot = tail[0]
            if not pivot:
                r = j + int((tail != 0).argmax())
                pivot = column[r]
                if not pivot:
                    continue
                panel[[j, r]] = panel[[r, j]]
                live[[j, r]] = live[[r, j]]
            inverse[j, j] = inv = pow(int(pivot), -1, p)
            inverse[j, :j] = panel[j, :j] @ inverse[:j, :j] * inv % p
            np.negative(column[j + 1 :], out=panel[j + 1 :, j])
            j += 1
        rest = np.setdiff1d(rest, live[:j], assume_unique=True)
        if j < len(live) and c1 < cols:
            upper = a[live[:j], c1:]
            mod(upper)
            width = max(1, PRODUCT_SIZE // j**2)  # j > 0: a live row holds a pivot
            for t in range(0, cols - c1, width):
                upper[:, t : t + width] = inverse[:j, :j] @ upper[:, t : t + width]
            mod(upper)
            order = np.argsort(live[j:])
            add_product(a[:, c1:], live[j:][order], panel[j:, :j][order], upper)
            del upper  # before the next panel's gather
    return rows - len(rest)


def _eliminate_whole(a, p: int) -> int:
    """Rank over F_p of a float64 matrix with entries in [0, p), eliminated
    in place one column at a time, each pivot updating the whole trailing
    block with one outer product.

    ``np.remainder`` reduces in one call where ``mod`` makes four: it is
    fmod, exact, plus p when the sign is wrong, exact for integers below
    2^52.  The rows below are searched for a pivot only when the diagonal
    entry is zero.  Only the pivot column and the pivot row are reduced at
    each step, the row after it is scaled by the pivot's inverse, so the
    multipliers are the reduced column itself: five numpy calls per pivot.
    An entry collects one product below (p-1)^2 per pivot, and the trailing
    block is reduced every PANEL pivots, so a pivot row holds at most
    PANEL * (p-1)^2 + p before its scaling, which ``rank_mod_p``'s bound
    covers at any width.
    """
    import numpy as np

    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        column = a[rank:, c]
        np.remainder(column, p, out=column)
        pivot = column[0]
        if not pivot:
            nonzero = np.flatnonzero(column)
            if nonzero.size == 0:
                continue
            r = rank + int(nonzero[0])
            pivot = a[r, c]
            a[[rank, r], c:] = a[[r, rank], c:]
        head = a[rank, c + 1 :]
        head *= pow(int(pivot), -1, p)
        np.remainder(head, p, out=head)
        a[rank + 1 :, c + 1 :] -= column[1:, None] * head
        rank += 1
        if rank % PANEL == 0:
            trailing = a[rank:, c + 1 :]
            np.remainder(trailing, p, out=trailing)
    return rank


def strong_components(successors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of the digraph on 0..n-1 with an edge
    v -> w for each w in successors[v], in reverse topological order: every
    edge leads into its own component or an earlier one.

    Tarjan (1972), iterative, in O(n + edges).  A vertex's low starts at its
    visit number and takes the least low of its tree children and of the
    vertices still on the stack that it has an edge to; a vertex whose low
    stays its own number is a root and pops its component, whose vertices
    then take a low past every visit number, so an edge into a finished
    component lowers nothing.
    """
    n = len(successors)
    done = n + 1
    number = [0] * n  # visit numbers from 1; 0: not yet visited
    low = [0] * n
    stack: list[int] = []
    components = []
    visits = 0
    for root in range(n):
        if number[root]:
            continue
        visits += 1
        number[root] = low[root] = visits
        stack.append(root)
        path = [(root, iter(successors[root]))]
        while path:
            v, edges = path[-1]
            for w in edges:
                if not number[w]:
                    visits += 1
                    number[w] = low[w] = visits
                    stack.append(w)
                    path.append((w, iter(successors[w])))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == number[v]:
                    component = []
                    while not component or component[-1] != v:
                        component.append(w := stack.pop())
                        low[w] = done
                    components.append(sorted(component))
    return components


def diagonal_blocks(n: int, entries):
    """The float64 matrices whose full ranks mod p together say that an
    n x n matrix with a zero-free diagonal is nonsingular mod p.  Its entries
    are zero but where ``square[rows, cols] = values`` writes them, for each
    (rows, cols, values) of ``entries``, index and value arrays that
    broadcast together.  Each row's entries are consecutive once the
    broadcast arrays are raveled (row-major) and concatenated, as they are
    when each entry's ``rows`` is a column of row indices that no other
    entry holds; ValueError otherwise.

    They are the diagonal blocks of its block triangular form (Duff and Reid
    1978): the strongly connected components of the graph with an edge
    r -> c for each entry, in reverse topological order, made the diagonal
    blocks by one simultaneous permutation of rows and columns, which keeps
    the determinant (its sign squares away).  Every entry then lies in or
    below the diagonal blocks, so the determinant is their product, mod p
    too.  A block of size 1 is a nonzero diagonal entry and is not yielded.
    A matrix of at most WHOLE_COLUMNS columns is yielded whole: ``rank_mod_p``
    eliminates it at about one pivot per column, which the decomposition's
    Python pass would cost.  Blocks are built one at a time, as they are
    taken.
    """
    import numpy as np

    if n <= WHOLE_COLUMNS:
        square = np.zeros((n, n))
        for rows, cols, values in entries:
            square[rows, cols] = values
        yield square
        return
    flat = [[x.ravel() for x in np.broadcast_arrays(*entry)] for entry in entries]
    rows, cols, values = (np.concatenate(part) for part in zip(*flat))
    heads = np.flatnonzero(np.diff(rows, prepend=-1))  # where each row's run starts
    if len(heads) != n:
        raise ValueError("diagonal_blocks: each row's entries must be consecutive")
    bounds = np.append(heads, len(rows))
    order = np.argsort(rows[heads])
    targets = cols.tolist()
    components = strong_components([targets[a:b] for a, b in zip(bounds[order].tolist(), bounds[order + 1].tolist())])
    sizes = np.array([len(c) for c in components])
    label = np.empty(n, dtype=np.intp)  # each vertex's component, and its index in it
    index = np.empty(n, dtype=np.intp)
    members = np.concatenate(components)
    label[members] = np.repeat(np.arange(len(components)), sizes)
    index[members] = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    inside = np.flatnonzero(label[rows] == label[cols])  # the entries of the diagonal blocks
    owner = label[rows[inside]]
    inside = inside[np.argsort(owner, kind="stable")]  # block by block
    counts = np.bincount(owner, minlength=len(components))
    ends = np.cumsum(counts)
    for size, a, b in zip(sizes.tolist(), (ends - counts).tolist(), ends.tolist()):
        if size > 1:
            block = np.zeros((size, size))
            entries = inside[a:b]
            block[index[rows[entries]], index[cols[entries]]] = values[entries]
            yield block


# ---------------------------------------------------------------------------
# binary forms

#: longest end coefficient whose divisors the root finder enumerates (2^20 trials)
MAX_ROOT_COEFF_BITS = 40


#: a binary form of degree n is the sequence of its n + 1 coefficients: entry i
#: multiplies u^(n-i) * v^i, where (u, v) is the variable pair in stratum order.
#: A projective root [p : q] means the form vanishes at (u, v) = (p, q); [1 : 0]
#: is the "point at infinity" of the v-chart.
BinaryForm = Sequence[Fraction | int]


def _primitive_part(p: list[int]) -> list[int]:
    """p over its content, with a positive lead (p nonzero, lead nonzero)."""
    content = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return [c // content for c in p]


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd, lead positive, of two nonzero integer polynomials (dense,
    ascending, nonzero leads): their gcd over Q up to a rational factor.

    Primitive pseudo-remainder sequence (Brown 1971): each remainder of
    lead(b)^k * a by b is an integer polynomial, and its primitive part
    keeps the gcd over Q while the coefficients stay small.  Each division
    step scales by lead(b) / g and subtracts (lead(r) / g) times a shift of
    b, g = gcd(lead(b), lead(r)): an integer multiple of the pseudo-remainder.
    """
    a, b = _primitive_part(list(a)), _primitive_part(list(b))
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r, lead = a, b[-1]
        while len(r) >= len(b):
            g = gcd(lead, r[-1])
            s, t, k = lead // g, r[-1] // g, len(r) - len(b)
            r = [s * c for c in r[:k]] + [s * c - t * d for c, d in zip(r[k:-1], b)]
            while r and not r[-1]:
                r.pop()
        if not r:
            return b
        a, b = b, _primitive_part(r)
    return [1]


def common_interior_degree(forms: Sequence[Sequence[int]]) -> int:
    """Degree of the gcd of the dehomogenized cores of nonzero binary forms
    with integer coefficients.

    It is positive exactly when the forms share a root off the two coordinate
    points [1:0] and [0:1], over the algebraic closure.  A form's core drops
    its zero end coefficients: the leading ones are its v-power factor, which
    vanishes at [1:0], the trailing ones its u-power factor, at [0:1].
    """
    g: Sequence[int] = ()
    for b in forms:
        nonzero = [i for i, c in enumerate(b) if c]
        core = b[nonzero[0] : nonzero[-1] + 1]
        g = poly_gcd(g, core) if g else core
        if len(g) <= 1:
            return 0
    return len(g) - 1


def univariate_rational_roots(coefficients: Sequence[Fraction | int]) -> list[Fraction]:
    """Distinct rational roots of a nonzero polynomial, in increasing order.

    ``coefficients[i]`` multiplies s^i; ints are taken as they are, and
    Fractions over their common denominator.  The content is cleared, a root
    at 0 is split off, and every candidate +-p/q with p | a0, q | an and
    gcd(p, q) = 1 is tested in integers as sum(a_i p^i q^(n-i)) == 0 (rational
    root theorem).  By Gauss's lemma a root r/q makes f = (q*s - r) * g with g
    integral, so q - r divides f(1) and q + r divides f(-1): a candidate that
    fails either is skipped, and +-1 is a root iff f(+-1) = 0.  End
    coefficients past ``MAX_ROOT_COEFF_BITS`` bits are refused: their divisors
    take sqrt(|a|) trial divisions.
    """
    den = lcm(*(c.denominator for c in coefficients))
    ic = [c.numerator * (den // c.denominator) for c in coefficients]
    while ic and ic[-1] == 0:
        ic.pop()
    if not ic:
        raise ValueError("univariate_rational_roots: zero polynomial")
    roots: set[Fraction] = set()
    lo = 0
    while ic[lo] == 0:
        lo += 1
    if lo:
        roots.add(Fraction(0))
    ic = ic[lo:]
    if len(ic) > 1:
        cont = gcd(*ic)
        ic = [c // cont for c in ic]
        bits = max(abs(ic[0]).bit_length(), abs(ic[-1]).bit_length())
        if bits > MAX_ROOT_COEFF_BITS:
            raise ValueError(
                f"univariate_rational_roots: an end coefficient has {bits} bits, "
                f"more than the limit of {MAX_ROOT_COEFF_BITS}"
            )
        n = len(ic) - 1
        at_one, at_minus_one = sum(ic), sum(ic[::2]) - sum(ic[1::2])
        roots.update(Fraction(s) for s, value in ((1, at_one), (-1, at_minus_one)) if value == 0)
        qs = _divisors(abs(ic[-1]))
        for p in _divisors(abs(ic[0])):
            for q in qs:
                if gcd(p, q) == 1 and p + q > 2:  # p = q = 1 is +-1
                    for s in (p, -p):
                        if (
                            at_one % (q - s) == 0
                            and at_minus_one % (q + s) == 0
                            and sum(c * s**i * q ** (n - i) for i, c in enumerate(ic)) == 0
                        ):
                            roots.add(Fraction(s, q))
    return sorted(roots)


def rational_roots(b: BinaryForm) -> list[tuple[int, int]]:
    """Distinct rational projective roots [p : q] of a binary form.

    A pair (p, q) is the point [u : v] = [p : q], primitive with p > 0, except
    (0, 1) for the root at u = 0.  Finite roots come first in increasing order
    of v/u, then (0, 1) last.
    """
    roots = [(s.denominator, s.numerator) for s in univariate_rational_roots(b)]
    if b[-1] == 0:
        roots.append((0, 1))  # u = 0
    return roots


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))
