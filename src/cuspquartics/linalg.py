"""Exact linear algebra over the rationals.

Matrices are lists of lists of ``Fraction``; everything here is plain
fraction-free-enough Gaussian elimination, small and deterministic.  Used
for configuration ranks, projective vertices, points of the type-II carrier
lines, kernel directions of local quadratic forms and vanishing-condition
null spaces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [list(map(Fraction, row)) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows):
    if not rows:
        return 0
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of the right null space, one vector per free column.

    Vectors come out of the RREF parametrization (free variable set to 1),
    which is canonical for a fixed column order.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def det(rows):
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * result


def inverse(rows):
    n = len(rows)
    aug = [list(map(Fraction, rows[i])) + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def mat_vec(a, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent."""
    ncols = len(rows[0])
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][-1]
    return x


def primitive_integer_vector(v):
    """Scale a rational vector to integer entries, gcd 1, first nonzero > 0."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)
