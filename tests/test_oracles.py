"""Independent oracles for the classification: orbifold Riemann-Roch for the
index-1 baskets and the Kawamata bound for every basket.

Neither oracle uses the search or the basket code to compute its side of the
check, so a regression in the candidate generator, the predicate chain or
the singularity analysis that changes a family or its basket shows here.
"""

from fractions import Fraction
from math import prod


def hilbert_series(weights, degree, top):
    """Coefficients of t^0..t^top in (1 - t^degree) / prod_i (1 - t^a_i), the
    Hilbert series of a hypersurface of that degree."""
    series = [1] + [0] * top
    for a in weights:
        # multiply by 1 / (1 - t^a) = 1 + t^a + t^2a + ...
        series = [sum(series[v - k * a] for k in range(v // a + 1)) for v in range(top + 1)]
    return [series[v] - (series[v - degree] if v >= degree else 0) for v in range(top + 1)]


def terminal_b(order, weights):
    """b with 1/r(w1, w2, w3) = 1/r(1, -1, b): some pair sums to 0 mod r."""
    for i in range(3):
        for j in range(3):
            if i != j and (weights[i] + weights[j]) % order == 0:
                k = 3 - i - j
                return weights[k] * pow(weights[i], -1, order) % order
    raise AssertionError(f"1/{order}{weights} is not of the form 1/r(1,-1,b)")


def riemann_roch(record, n):
    """h0(-nK) = n(n+1)(2n+1)/12 (-K)^3 + (2n+1) - l(n+1) for index 1
    (Reid, Young person's guide, 1987; Altinok-Brown-Reid 2002), with
    l(m) = sum over the basket of sum_{j<m} jb mod r * (r - jb mod r) / 2r."""
    ws = record.ws
    cube = Fraction(ws.degree, prod(ws.weights))
    correction = Fraction(0)
    for p in record.basket.points:
        r = p.singularity.order
        b = terminal_b(r, p.singularity.local_weights)
        correction += p.count * sum(
            Fraction((j * b % r) * (r - j * b % r), 2 * r) for j in range(1, n + 1)
        )
    return Fraction(n * (n + 1) * (2 * n + 1), 12) * cube + 2 * n + 1 - correction


def test_orbifold_riemann_roch_index_one(default_catalog):
    catalog, _ = default_catalog
    index_one = [r for r in catalog if r.ws.index == 1]
    assert len(index_one) == 95
    for record in index_one:
        h0 = hilbert_series(record.ws.weights, record.ws.degree, 24)
        for n in range(1, 25):
            assert h0[n] == riemann_roch(record, n), (record.septuple, n)


def test_kawamata_bound(default_catalog):
    catalog, _ = default_catalog
    assert len(catalog) == 130
    for record in catalog:
        total = sum(
            p.count * (p.singularity.order - Fraction(1, p.singularity.order))
            for p in record.basket.points
        )
        assert total < 24, record.septuple
