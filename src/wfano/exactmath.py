"""Exact integer and rational arithmetic utilities.

Everything here is exact: arbitrary-precision integers, ``fractions.Fraction``
for rationals, Smith normal form over the integers with its right transform,
squarefree analysis of binary forms, and ranks over F_p.  The genericity and
quasismoothness decisions downstream depend on these answers being exact.
The one use of floating point is ``rank_mod_p``, whose float64 values are
integers below 2^52 in absolute value, all represented exactly; numpy is
imported there, not at module level, so ``import wfano`` does not load it.
"""

from __future__ import annotations

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


def _primitive(vectors: list[list[int]]) -> bool:
    """Do the integer vectors have maximal minors of gcd 1, i.e. extend to a
    basis of the integer lattice?  Euclid's algorithm on the unused
    coordinates of each vector in turn, applied to the later vectors too,
    keeps that gcd and leaves one nonzero coordinate, which must be +-1."""
    vs = [list(v) for v in vectors]
    free = set(range(len(vs[0]))) if vs else set()
    for k, v in enumerate(vs):
        while len(support := sorted((j for j in free if v[j]), key=lambda j: abs(v[j]))) > 1:
            p = support[0]
            for j in support[1:]:
                q = v[j] // v[p]
                for w in vs[k:]:
                    w[j] -= q * w[p]
        if not support or abs(v[support[0]]) != 1:
            return False
        free.remove(support[0])
    return True


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization A * R with R unimodular: some unimodular L, which is
    not computed, gives L * A * R = D.

    ``diagonal`` holds the elementary divisors (nonnegative, each dividing the
    next nonzero one), padded with zeros up to min(rows, cols).
    """

    diagonal: tuple[int, ...]
    right: tuple[tuple[int, ...], ...]

    def verify(self, original: Sequence[Sequence[int]]) -> bool:
        """Is R unimodular, with L * A * R = D for some unimodular L?  L exists
        iff the columns of A * R past the rank r are zero and column k < r is
        d_k * u_k, where u_0, ..., u_{r-1} extend to a basis (L inverts it)."""
        rows = len(original)
        cols = len(original[0]) if rows else 0
        nz = [d for d in self.diagonal if d]
        r = len(nz)
        shaped = list(self.diagonal) == nz + [0] * (min(rows, cols) - r) and all(d > 0 for d in nz)
        if not shaped or len(self.right) != cols or abs(mat_det(self.right)) != 1:
            return False
        prod = mat_mul(original, self.right)
        columns = [[row[k] for row in prod] for k in range(cols)]
        if any(any(c) for c in columns[r:]) or any(x % d for d, c in zip(nz, columns) for x in c):
            return False
        chain = all(nz[i + 1] % nz[i] == 0 for i in range(r - 1))
        return chain and _primitive([[x // d for x in c] for d, c in zip(nz, columns)])


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form of an integer matrix, with its right transform.

    Pivoting picks the smallest-absolute-value nonzero entry, ties broken by
    lowest (row, col), which makes the reduction deterministic for a fixed
    input.  Returns diagonal entries normalized nonnegative with the
    divisibility chain enforced.  Row operations act on the matrix alone; the
    left transform is not kept, and ``SmithForm.verify`` proves it exists.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    for r in matrix:
        if len(r) != cols:
            raise ValueError("smith_normal_form: ragged matrix")
    a = [list(r) for r in matrix]
    right = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(dst: int, src: int, q: int) -> None:
        for j in range(cols):
            a[dst][j] -= q * a[src][j]

    def col_op(dst: int, src: int, q: int) -> None:
        for i in range(rows):
            a[i][dst] -= q * a[i][src]
        for i in range(cols):
            right[i][dst] -= q * right[i][src]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    k = 0
    limit = min(rows, cols)
    while k < limit:
        pivot = None
        for i in range(k, rows):
            for j in range(k, cols):
                v = a[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        a[k], a[pivot[0]] = a[pivot[0]], a[k]
        swap_cols(k, pivot[1])
        if a[k][k] < 0:
            a[k] = [-v for v in a[k]]
        clean = True
        for i in range(k + 1, rows):
            if a[i][k]:
                row_op(i, k, a[i][k] // a[k][k])
                if a[i][k]:
                    clean = False
        for j in range(k + 1, cols):
            if a[k][j]:
                col_op(j, k, a[k][j] // a[k][k])
                if a[k][j]:
                    clean = False
        if not clean:
            continue  # remainders left nonzero entries in the border; redo pivot
        # pivot must divide the whole remaining block
        offender = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if a[i][j] % a[k][k] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(k, offender, -1)  # add offending row, then restart this pivot
            continue
        k += 1

    diag = [a[i][i] for i in range(limit)]
    return SmithForm(diagonal=tuple(diag), right=tuple(tuple(r) for r in right))


# ---------------------------------------------------------------------------
# matrices over F_p in float64

#: float64 holds every integer of absolute value below this exactly (with a
#: bit to spare); every intermediate of the mod-p routines stays below it
EXACT_BOUND = 1 << 52
#: columns per panel of ``rank_mod_p``: a trailing update sums PANEL products
PANEL = 32
#: rows per block of a reduction or a product, bounding the temporaries
ROW_BLOCK = 64
#: most multiply-adds in one BLAS call of the blocked LU's trailing update
#: (``add_product``).  OpenBLAS runs a product of at most 64^3 on the calling
#: thread; a larger one wakes its thread pool, and two processes on two cores
#: then spin against each other: one unsplit product per panel took the
#: ``member`` benchmark's peak RSS from 57 to 70-72 MB and its two-process
#: wall time from 0.38-0.42 to 0.57-0.68 s (2-vCPU host, OpenBLAS 0.3.31)
PRODUCT_SIZE = 64**3
#: most columns of a matrix that ``rank_mod_p`` eliminates whole instead of in
#: panels: its cost is then the number of numpy calls per pivot, not
#: arithmetic, and whole elimination makes the fewest (Macaulay matrices of
#: 35-84 columns in 40-75 % of the time; from about 90 columns the two draw level)
WHOLE_COLUMNS = 96


def add_product(out, left, right) -> None:
    """out += left @ right, as BLAS calls of at most PRODUCT_SIZE multiply-adds.

    Each column tile of ``right`` is copied to contiguous memory once, which
    saves more than the copy costs across the row blocks that read it.
    """
    import numpy as np

    width = max(1, PRODUCT_SIZE // (ROW_BLOCK * max(1, left.shape[1])))
    for c in range(0, out.shape[1], width):
        tile = np.ascontiguousarray(right[:, c : c + width])
        column = out[:, c : c + width]
        for r in range(0, out.shape[0], ROW_BLOCK):
            column[r : r + ROW_BLOCK] += left[r : r + ROW_BLOCK] @ tile


def rank_mod_p(matrix, p: int) -> int:
    """Rank over F_p of an integer matrix, p a prime with 32 * (p-1)^2 < 2^52.

    A float64 array is reduced and eliminated in place; any other array-like
    is first copied into one.  Right-looking blocked LU: each panel of PANEL
    columns is eliminated column by column with row pivoting inside the
    panel, a short loop brings the pivot rows' trailing block up to date, and
    the rows below take the panel's update as BLAS products (``add_product``).
    A matrix of at most WHOLE_COLUMNS columns is eliminated whole instead
    (``_eliminate_whole``).

    Exactness: residues are kept in [0, p) by ``x -= p*floor(x/p)``, which is
    exact for |x| < EXACT_BOUND because x/p is correctly rounded (an integer
    when p | x, at least 1/p away from one otherwise).  A product of residues
    sums at most PANEL terms below (p-1)^2.  The trailing block is reduced
    only when a panel reaches it, so an entry collects at most one such sum
    per panel; the first check below bounds them all, and raises ValueError
    when p or the width is too large.
    """
    import numpy as np

    def mod(x) -> None:
        x -= p * np.floor(x / p)

    a = np.asarray(matrix)
    if a.dtype != np.float64:
        a = np.asarray(np.asarray(matrix, dtype=np.int64) % p, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("rank_mod_p: need a 2-D matrix")
    rows, cols = a.shape
    panels = -(-cols // PANEL)
    if p + (panels + 1) * PANEL * (p - 1) ** 2 >= EXACT_BOUND:
        raise ValueError(f"rank_mod_p: p = {p} with {cols} columns is past exact float64")
    if a.size and not (-EXACT_BOUND < a.min() and a.max() < EXACT_BOUND):
        raise ValueError("rank_mod_p: entries past exact float64")
    for r in range(0, rows, ROW_BLOCK):
        mod(a[r : r + ROW_BLOCK])
    if cols <= WHOLE_COLUMNS:
        return _eliminate_whole(a, p)
    rank = 0
    for c0 in range(0, cols, PANEL):
        if rank == rows:
            break
        c1 = min(c0 + PANEL, cols)
        top = rank
        # the panel's live rows, contiguous; no column left of c1 is read again
        panel = a[top:, c0:c1].copy()
        mod(panel)
        pivots: list[int] = []
        inverses: list[int] = []
        for c in range(c1 - c0):
            r = rank - top
            column = panel[r:, c]
            mod(column)
            nonzero = np.flatnonzero(column)
            if nonzero.size == 0:
                continue
            pivot = r + int(nonzero[0])
            if pivot != r:
                panel[[r, pivot]] = panel[[pivot, r]]
                a[[rank, top + pivot], c1:] = a[[top + pivot, rank], c1:]
            inverses.append(pow(int(panel[r, c]), -1, p))
            head = panel[r, c:]
            mod(head)
            head *= inverses[-1]
            mod(head)
            # rows below keep their multiplier in column c (the L factor)
            panel[r + 1 :, c + 1 :] -= np.outer(panel[r + 1 :, c], head[1:])
            pivots.append(c)
            rank += 1
            if rank == rows:
                break
        if not pivots or c1 == cols or rank == rows:
            continue
        # U12, row by row: scale pivot row j, then take it off the later pivot rows
        k = rank - top
        upper = a[top:rank, c1:]
        for j, (c, inv) in enumerate(zip(pivots, inverses)):
            row = upper[j]
            mod(row)
            row *= inv
            mod(row)
            upper[j + 1 :] -= np.outer(panel[j + 1 : k, c], row)
        add_product(a[rank:, c1:], -panel[k:, pivots], upper)
    return rank


def _eliminate_whole(a, p: int) -> int:
    """Rank over F_p of a float64 matrix with entries in [0, p), eliminated
    in place one column at a time, each pivot updating the whole trailing
    block with one outer product.

    Only the pivot column and the pivot row are reduced at each step, so an
    entry collects at most one product below (p-1)^2 per column, which
    ``rank_mod_p``'s bound covers.  ``np.remainder`` reduces them in one call
    where ``mod`` makes four: it is fmod, exact, plus p when the sign is
    wrong, exact for integers below 2^52.
    """
    import numpy as np

    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        column = a[rank:, c]
        np.remainder(column, p, out=column)
        nonzero = np.flatnonzero(column)
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            a[[rank, pivot], c:] = a[[pivot, rank], c:]
        head = a[rank, c + 1 :]
        np.remainder(head, p, out=head)
        head *= pow(int(a[rank, c]), -1, p)
        np.remainder(head, p, out=head)
        a[rank + 1 :, c + 1 :] -= np.outer(a[rank + 1 :, c], head)
        rank += 1
        if rank == rows:
            break
    return rank


# ---------------------------------------------------------------------------
# binary forms

#: longest end coefficient whose divisors the root finder enumerates (2^20 trials)
MAX_ROOT_COEFF_BITS = 40


#: a binary form of degree n is the sequence of its n + 1 coefficients: entry i
#: multiplies u^(n-i) * v^i, where (u, v) is the variable pair in stratum order.
#: A projective root [p : q] means the form vanishes at (u, v) = (p, q); [1 : 0]
#: is the "point at infinity" of the v-chart.
BinaryForm = Sequence[Fraction | int]


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - len(b)
        c = a[-1] / b[-1]
        q[k] = c
        for i, bc in enumerate(b):
            a[i + k] -= c * bc
        a.pop()
    return q, _poly_trim(a)


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd of two univariate rational polynomials (dense, ascending)."""
    pa, pb = _poly_trim(list(a)), _poly_trim(list(b))
    while pb:
        pa, pb = pb, _poly_divmod(pa, pb)[1]
    if pa:
        lead = pa[-1]
        pa = [c / lead for c in pa]
    return pa


def _poly_derivative(p: Sequence[Fraction]) -> list[Fraction]:
    return [Fraction(i) * c for i, c in enumerate(p)][1:]


def _dehomogenize(b: BinaryForm) -> tuple[int, int, list[Fraction]]:
    """Split off v- and u-power factors, return (mult_at_[1:0], mult_at_[0:1], core).

    The core polynomial is in s = v/u, ascending, with nonzero ends, so it has
    no roots at 0 or infinity.
    """
    coeffs = [Fraction(c) for c in b]
    lo = 0
    while lo < len(coeffs) and coeffs[lo] == 0:
        lo += 1
    hi = len(coeffs) - 1
    while hi >= lo and coeffs[hi] == 0:
        hi -= 1
    core = coeffs[lo : hi + 1]
    # leading zeros (low i) are v-powers, vanishing at [1:0]; trailing zeros
    # are u-powers, vanishing at [0:1]
    mult_v = lo  # order of the root [1:0] (v = 0)
    mult_u = len(coeffs) - 1 - hi  # order of the root [0:1] (u = 0)
    return mult_v, mult_u, core


def squarefree_and_root_count(b: BinaryForm) -> tuple[bool, int]:
    """Squarefreeness and number of distinct projective roots of a binary form.

    Roots at the two coordinate points are read off the vanishing orders of the
    end coefficients; the interior roots are counted over the algebraic closure
    as degree of the squarefree part of the dehomogenized core.
    """
    if not any(b):
        raise ValueError("squarefree_and_root_count: zero form")
    mult_v, mult_u, core = _dehomogenize(b)
    count = (1 if mult_v > 0 else 0) + (1 if mult_u > 0 else 0)
    squarefree = mult_v <= 1 and mult_u <= 1
    if len(core) > 1:
        g = poly_gcd(core, _poly_derivative(core))
        gdeg = len(g) - 1
        count += (len(core) - 1) - gdeg
        if gdeg > 0:
            squarefree = False
    return squarefree, count


def common_interior_degree(forms: Sequence[BinaryForm]) -> int:
    """Degree of the gcd of the dehomogenized cores of nonzero binary forms.

    It is positive exactly when the forms share a root off the two coordinate
    points [1:0] and [0:1], over the algebraic closure.
    """
    cores = [_dehomogenize(b)[2] for b in forms]
    g = cores[0]
    for core in cores[1:]:
        g = poly_gcd(g, core)
        if len(g) <= 1:
            return 0
    return len(g) - 1


def univariate_rational_roots(coefficients: Sequence[Fraction | int]) -> list[Fraction]:
    """Distinct rational roots of a nonzero polynomial, in increasing order.

    ``coefficients[i]`` multiplies s^i.  Denominators and content are cleared,
    a root at 0 is split off, and every candidate +-p/q with p | a0, q | an and
    gcd(p, q) = 1 is tested in integers as sum(a_i p^i q^(n-i)) == 0 (rational
    root theorem).  End coefficients past ``MAX_ROOT_COEFF_BITS`` bits are
    refused: their divisors take sqrt(|a|) trial divisions.
    """
    coeffs = [Fraction(c) for c in coefficients]
    den = lcm(*(c.denominator for c in coeffs))
    ic = [int(c * den) for c in coeffs]
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
        qs = _divisors(abs(ic[-1]))
        for p in _divisors(abs(ic[0])):
            for q in qs:
                if gcd(p, q) == 1:
                    for s in (p, -p):
                        if sum(c * s**i * q ** (n - i) for i, c in enumerate(ic)) == 0:
                            roots.add(Fraction(s, q))
    return sorted(roots)


def rational_roots(b: BinaryForm) -> list[tuple[int, int]]:
    """Distinct rational projective roots [p : q] of a binary form.

    A pair (p, q) is the point [u : v] = [p : q], primitive with p > 0, except
    (0, 1) for the root at u = 0.  Finite roots come first in increasing order
    of v/u, then (0, 1) last.
    """
    if not any(b):
        raise ValueError("rational_roots: zero form")
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
