"""Exact linear algebra over QQ (the default) or a prime field GF(p).

Matrices are lists of rows.  ``_eliminate`` is the package's one pivot
loop: Gauss-Jordan elimination that normalises entries with the domain's
``convert`` and divides by pivots with its ``invert``.  ``rref``, ``rank``,
``nullspace``, ``inverse`` and ``solve`` read its reduced rows, ``det`` the
signed product of its pivots, and ``codes`` its echelon forms over GF(3).
"""

from __future__ import annotations

from math import gcd

from .polyring import QQ


def _eliminate(rows, domain):
    """Gauss-Jordan elimination: (reduced rows, pivot columns, signed
    product of the pivots).  The last is the determinant of a square matrix
    of full rank."""
    convert = domain.convert
    m = [[convert(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    scale = domain.one
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            scale = -scale
        pv = m[r][c]
        scale = convert(scale * pv)
        inv = domain.invert(pv)
        # every row from r on is zero left of column c
        row = m[r][c:] = [convert(x * inv) for x in m[r][c:]]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                m[i][c:] = [convert(a - f * b) for a, b in zip(m[i][c:], row)]
        pivots.append(c)
        r += 1
    return m, pivots, scale


def rref(rows, domain=QQ):
    """Reduced row echelon form over the domain; returns (matrix, pivot
    column list), with the zero rows of the matrix last."""
    m, pivots, _ = _eliminate(rows, domain)
    return m, pivots


def rank(rows):
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
        v = [QQ.zero] * ncols
        v[fc] = QQ.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def det(rows):
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    _, pivots, scale = _eliminate(rows, QQ)
    return scale if len(pivots) == n else QQ.zero


def inverse(rows):
    n = len(rows)
    aug = [list(rows[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def mat_vec(a, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent."""
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [QQ.zero] * ncols
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
