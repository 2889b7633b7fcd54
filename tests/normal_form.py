"""The binary-cubic normal form of the families with d = 3*a5 and a4 = a5.

A linear change in (t, w) moves the three rational roots of the pure (t, w)
cubic to [0:1], [1:0] and [1:1].  The program decides these families from
their support alone, so the form is evidence kept with the tests: the
acceptance suite checks it on families 9, 17 and 27, and ``cli_golden.json``
pins its output.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from wfano.exactmath import rational_roots, triple_matrix
from wfano.symalg import T, W, GenericityError, GradedPolynomial, _mul_terms, _pack, _unpack, _width, slice_numerators
from wfano.wspace import Monomial

from conftest import polynomial, scaled


def apply_pair_map(
    f: GradedPolynomial, i: int, j: int, matrix: Sequence[Sequence[Fraction | int]]
) -> GradedPolynomial:
    """Invertible linear change on two equal-weight variables.

    Substitutes x_i -> m00*x_i + m01*x_j and x_j -> m10*x_i + m11*x_j.
    """
    ws = f.ws
    if ws.weights[i] != ws.weights[j]:
        raise ValueError("apply_pair_map: variables must have equal weights")
    m00, m01 = Fraction(matrix[0][0]), Fraction(matrix[0][1])
    m10, m11 = Fraction(matrix[1][0]), Fraction(matrix[1][1])
    if m00 * m11 - m01 * m10 == 0:
        raise ValueError("apply_pair_map: singular matrix")
    w = _width(f.grade)
    units = (1 << w * i, 1 << w * j)
    powers = []  # per variable, the powers of its image
    for var, image in ((i, (m00, m01)), (j, (m10, m11))):
        linear = {k: v for k, v in zip(units, image) if v}
        powers.append([{0: Fraction(1)}])
        for _ in range(max((m[var] for m in f.terms), default=0)):
            powers[-1].append(_mul_terms(powers[-1][-1], linear))
    out: dict[int, Fraction] = {}
    for m, c in f.terms.items():
        rest = list(m)
        rest[i] = rest[j] = 0
        for k, v in _mul_terms({_pack(rest, w): c}, _mul_terms(powers[0][m[i]], powers[1][m[j]])).items():
            out[k] = out.get(k, 0) + v
    return polynomial(ws, f.grade, {_unpack(m, w): c for m, c in out.items() if c})


@dataclass(frozen=True)
class CubicNormalForm:
    polynomial: GradedPolynomial
    pair_matrix: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    scale: Fraction  # the whole equation was divided by this


def cubic_normal_form(f: GradedPolynomial) -> CubicNormalForm:
    """Linear change in (t, w) making the pure (t, w) part exactly w*t*(w - t).

    Needs the pure (t, w) cubic to have three distinct rational roots (the
    designated-root sampling provides them); the three roots are moved to the
    points [t:w] = [0:1], [1:0], [1:1] and the equation is rescaled.
    """
    ws = f.ws
    a = ws.weights
    if f.grade != 3 * a[4] or a[3] != a[4]:
        raise ValueError("cubic_normal_form: needs d = 3*a5 and a4 = a5")
    cubic = slice_numerators(f, (T, W))
    if not any(cubic):
        raise GenericityError("cubic_normal_form: pure (t,w) part vanishes")
    roots = rational_roots(cubic)
    if len(roots) < 3:
        raise GenericityError(
            f"cubic_normal_form: (t,w) cubic does not split: {len(roots)} distinct rational roots"
        )
    r1, r2, r3 = roots[:3]
    # send [1:0], [0:1], [1:1] to r2, r1, r3 by the matrix with columns
    # lambda*r2 and mu*r1, where lambda*r2 + mu*r1 = r3
    det = r2[0] * r1[1] - r2[1] * r1[0]
    matrix = tuple(tuple(Fraction(x, det) for x in row) for row in triple_matrix((r2, r1, r3)))
    g = apply_pair_map(f, T, W, matrix)
    # after the move the cubic is c * t*w*(w - t); read c off the t*w^2 slot
    m_tw2: Monomial = (0, 0, 0, 1, 2)
    c = g.terms.get(m_tw2, 0)
    if c == 0:
        raise GenericityError("cubic_normal_form: degenerate root configuration")
    g = scaled(g, 1 / c)
    check = slice_numerators(g, (T, W))
    # slots by rising w-power: t^3, t^2 w, t w^2, w^3 must read 0, -1, 1, 0
    if check != (0, -g.den, g.den, 0):
        raise RuntimeError("cubic_normal_form: normal form check failed")
    return CubicNormalForm(polynomial=g, pair_matrix=matrix, scale=c)
