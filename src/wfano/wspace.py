"""Weighted projective 4-space combinatorics.

Weight systems, weighted monomial enumeration and counting, and
well-formedness of the ambient space.  The library is hard-coded to five
variables x, y, z, t, w of weights a1 <= a2 <= a3 <= a4 <= a5; a hypersurface
family is the septuple (a1, ..., a5, d, I) with I = a1+...+a5 - d.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb, gcd
from operator import mul

VARIABLES = ("x", "y", "z", "t", "w")
NVARS = 5

#: the most bits ``count_monomials`` packs its series into (2 MiB); a larger
#: degree raises ValueError instead of exhausting memory
MAX_SERIES_BITS = 1 << 24

#: exponent vector over (x, y, z, t, w)
Monomial = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class WeightSystem:
    """Sorted weights plus the hypersurface degree."""

    weights: tuple[int, int, int, int, int]
    degree: int

    def __post_init__(self) -> None:
        if len(self.weights) != NVARS:
            raise ValueError("WeightSystem: need exactly five weights")
        if min(self.weights) <= 0:
            raise ValueError("WeightSystem: weights must be positive")
        if list(self.weights) != sorted(self.weights):
            raise ValueError("WeightSystem: weights must be sorted ascending")
        if self.degree <= 0:
            raise ValueError("WeightSystem: degree must be positive")

    @property
    def index(self) -> int:
        """Fano index I = sum(weights) - degree."""
        return sum(self.weights) - self.degree

    @property
    def septuple(self) -> tuple[int, ...]:
        return (*self.weights, self.degree, self.index)

    def __str__(self) -> str:
        return f"X_{self.degree} in P{self.weights}"


def weight_system(*values: int) -> WeightSystem:
    """Build a WeightSystem from (a1, ..., a5, d) or (a1, ..., a5, d, I)."""
    if len(values) == 7:
        ws = WeightSystem(tuple(values[:5]), values[5])
        if ws.index != values[6]:
            raise ValueError(f"inconsistent septuple: index is {ws.index}, not {values[6]}")
        return ws
    if len(values) == 6:
        return WeightSystem(tuple(values[:5]), values[5])
    raise ValueError("weight_system: expected 6 or 7 integers")


def weighted_degree(m: Monomial, ws: WeightSystem) -> int:
    return sum(map(mul, m, ws.weights))


def format_monomial(m: Monomial) -> str:
    """Text form mirroring the usual convention: "x^2*y*w", exponent 1 suppressed."""
    parts = []
    for var, e in zip(VARIABLES, m):
        if e == 1:
            parts.append(var)
        elif e > 1:
            parts.append(f"{var}^{e}")
        elif e < 0:
            raise ValueError("format_monomial: negative exponent")
    return "*".join(parts) if parts else "1"


_MONOMIAL_PART = re.compile(r"^([xyztw])(?:\^(\d+))?$")


def parse_monomial(text: str) -> Monomial:
    """Parse the grammar emitted by format_monomial (also accepts '1')."""
    text = text.strip()
    exps = [0] * NVARS
    if text == "1":
        return tuple(exps)  # type: ignore[return-value]
    for part in text.split("*"):
        m = _MONOMIAL_PART.match(part.strip())
        if not m:
            raise ValueError(f"parse_monomial: bad factor {part!r} in {text!r}")
        idx = VARIABLES.index(m.group(1))
        if exps[idx]:
            raise ValueError(f"parse_monomial: repeated variable in {text!r}")
        exps[idx] = int(m.group(2)) if m.group(2) else 1
    return tuple(exps)  # type: ignore[return-value]


def parse_monomial_set(text: str) -> frozenset[Monomial]:
    """Parse a comma-separated monomial list."""
    return frozenset(parse_monomial(p) for p in text.split(",") if p.strip())


def enumerate_monomials(ws: WeightSystem, k: int) -> list[Monomial]:
    """All monomials of weighted degree k, sorted lexicographically by exponents.

    The sort is on the exponent tuples (x before y before z before t before w),
    which pins a canonical serialization order for golden comparisons.  The
    walk fixes exponents from the largest weight down and keeps an exponent
    only if the gcd of the weights still open divides the remainder it
    leaves, so no branch dies later: P(2,2,2,2,2) in odd degree takes no
    step at all.
    """
    if k < 0:
        raise ValueError("enumerate_monomials: negative degree")
    weights = ws.weights
    # open_gcd[i] = gcd(weights[0..i]) divides the remainder left for those weights
    open_gcd = [weights[0]]
    for a in weights[1:]:
        open_gcd.append(gcd(open_gcd[-1], a))
    out: list[Monomial] = []
    exps = [0] * NVARS

    def rec(i: int, rem: int) -> None:
        a, g = weights[i], open_gcd[i - 1]
        if i == 1:  # g is weights[0]
            for e in range(rem // a + 1):
                if (rem - e * a) % g == 0:
                    out.append(((rem - e * a) // g, e, *exps[2:]))  # type: ignore[arg-type]
            return
        for e in range(rem // a + 1):
            if (rem - e * a) % g == 0:
                exps[i] = e
                rec(i - 1, rem - e * a)

    if k % open_gcd[-1] == 0:
        rec(NVARS - 1, k)
    out.sort()
    return out


def series_width(n: int, k: int) -> int:
    """Bits per slot of ``count_monomials``'s series of n weights to degree k; ValueError past MAX_SERIES_BITS in all."""
    width = comb(k + n - 1, n - 1).bit_length()
    if (bits := (k + 1) * width) > MAX_SERIES_BITS:
        raise ValueError(f"count_monomials: degree {k} needs {bits} bits, over {MAX_SERIES_BITS}")
    return width


def semigroup_table(weights: Sequence[int], d: int, sizes: range | tuple[int, ...], chain: bool = False) -> list[int]:
    """Bit t of ``table[mask]`` is set iff t <= d is a sum of the weights in the subset
    mask (bit i for weights[i]).  Entry mask + 2^i, mask < 2^i, is entry mask closed by the
    doubling of ``count_monomials`` (shifts by a, 2a, ..., 2^(m-1)*a <= d add j*a, j < 2^m).
    With ``chain``, only the prefixes are built: entry i is entry i - 1 closed by weights[i - 1].
    A d that ``series_width(n, d)`` refuses for an n of sizes is refused first, with the text
    of the first such n in sizes' order; below 2^16 no n <= 5 is refused, since
    comb(d + 4, 4) < 2^60 and 2^16 * 60 < MAX_SERIES_BITS, so only a larger d is checked."""
    if d >> 16:
        for n in sizes:
            series_width(n, d)
    full, table = (1 << d + 1) - 1, [1]
    for a in weights:
        for b in table[-1:] if chain else table[:]:
            s = a
            while s <= d and b != full:  # a full entry stays full
                b |= b << s
                s <<= 1
            table.append(b & full)
    return table


def count_monomials(weights: tuple[int, ...], k: int) -> int:
    """Number of monomials of weighted degree k in variables of the given
    positive weights, the coefficient of q^k in prod_i 1/(1 - q^(a_i)); the
    one monomial counter.  The series is packed into one integer with a B-bit
    slot per degree <= k, and 1/(1 - q^a) = prod_t (1 + q^(a * 2^t)) costs one
    shift-add per a * 2^t <= k.  A degree-j monomial is fixed by its other
    exponents, which sum to at most j, so C(k+n-1, n-1) bounds every slot.
    """
    if k < 0 or not weights:
        raise ValueError("count_monomials: need a degree >= 0 and one or more weights")
    width = series_width(len(weights), k)
    mask = (1 << (k + 1) * width) - 1
    series = 1
    for a in weights:
        if a <= 0:
            raise ValueError("count_monomials: weights must be positive")
        while a <= k:
            series += series << a * width
            a *= 2
        series &= mask  # slots past k may overflow, but carries only move up
    return series >> k * width


def wps_well_formed(ws: WeightSystem) -> bool:
    """True iff every four of the five weights are coprime (no quasi-reflections)."""
    a1, a2, a3, a4, a5 = ws.weights
    g12, g45 = gcd(a1, a2), gcd(a4, a5)
    # the gcd of the four weights left when a5, a4, a3, a2, a1 is dropped
    return (
        gcd(g12, a3, a4) == gcd(g12, a3, a5) == gcd(g12, g45) == gcd(a1, a3, g45)
        == gcd(a2, a3, g45) == 1
    )
