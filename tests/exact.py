"""Exact rational reference values for the library's float inputs.

Every float64 is a dyadic rational, so ``fractions.Fraction`` gives the exact
answer for the numbers the library actually receives: an exact Gauss-Jordan
elimination, and the Wald forms ``scale * r' K^+ r`` with ``r = H t - y``.
Only the standard library is used.

``y = H theta`` rounded in float64 is almost never consistent in exact
arithmetic when ``H`` has dependent rows; draw ``theta`` on a dyadic grid, and
``H`` with small dyadic entries, so that ``H theta`` is exact.
"""

from fractions import Fraction


def as_fractions(a):
    """A vector or matrix of floats as (nested) lists of exact fractions."""
    if hasattr(a[0], "__len__"):
        return [as_fractions(row) for row in a]
    return [Fraction(float(x)) for x in a]


def rref(rows):
    """Exact reduced row echelon form ``(rows, pivots)`` of a list of fraction rows."""
    r = [list(row) for row in rows]
    pivots = []
    for col in range(len(r[0]) if r else 0):
        row = len(pivots)
        p = next((i for i in range(row, len(r)) if r[i][col] != 0), None)
        if p is None:
            continue
        r[row], r[p] = r[p], r[row]
        pivot = r[row][col]
        r[row] = [x / pivot for x in r[row]]
        for i in range(len(r)):
            if i != row and r[i][col] != 0:
                f = r[i][col]
                r[i] = [a - f * b for a, b in zip(r[i], r[row])]
        pivots.append(col)
    return r, pivots


def rank(a):
    return len(rref(as_fractions(a))[1])


def _solve(k, r):
    """One ``x`` with ``K x = r``; raises ``ValueError`` when ``r`` is not in the range of ``K``."""
    echelon, pivots = rref([row + [b] for row, b in zip(k, r)])
    width = len(k[0])
    if width in pivots:
        raise ValueError("r is not in the range of K")
    x = [Fraction(0)] * width
    for row, col in zip(echelon, pivots):
        x[col] = row[width]
    return x


def wald(h, y, t, s, scale):
    """``scale * r' K^+ r`` with ``r = H t - y`` and ``K = H S H'``, exactly.

    ``s`` is a covariance matrix, or a vector standing for a diagonal one.
    For PSD ``K`` and ``r = K w`` every solution ``x`` of ``K x = r`` gives
    ``r' x = w' K w``, the value of the pseudo-inverse form.
    """
    h, y, t = as_fractions(h), as_fractions(y), as_fractions(t)
    s = as_fractions(s)
    if not isinstance(s[0], list):
        s = [[s[i] if i == j else Fraction(0) for j in range(len(s))] for i in range(len(s))]
    hs = [[sum(a * b for a, b in zip(row, col)) for col in zip(*s)] for row in h]
    k = [[sum(a * b for a, b in zip(u, w)) for w in h] for u in hs]
    r = [sum(a * b for a, b in zip(row, t)) - b for row, b in zip(h, y)]
    return Fraction(scale) * sum(a * b for a, b in zip(r, _solve(k, r)))


def wts(h, y, t, sigma, n):
    return wald(h, y, t, sigma, n)


def mats(h, y, t, sigma):
    return wald(h, y, t, [row[i] for i, row in enumerate(sigma)], 1)
