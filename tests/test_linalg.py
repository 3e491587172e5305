import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from cuspquartics import linalg
from cuspquartics.polyring import GF
from support import mat_mul


def test_rref_and_rank():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    red, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert linalg.rank(m) == 2
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([]) == 0


def test_nullspace_annihilates():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(4)]
                for _ in range(rng.randint(1, 4))]
        for v in linalg.nullspace(rows):
            assert all(sum(r[i] * v[i] for i in range(4)) == 0 for r in rows)
    assert len(linalg.nullspace([[0, 0, 0]])) == 3


def test_det_and_inverse():
    m = [[2, 1], [1, 1]]
    assert linalg.det(m) == 1
    inv = linalg.inverse(m)
    assert mat_mul(m, inv) == [[1, 0], [0, 1]]
    assert linalg.det([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        linalg.inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        linalg.det([[1, 2, 3], [4, 5, 6]])


def test_random_inverse_roundtrip():
    rng = random.Random(11)
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    done = 0
    while done < 15:
        m = [[Fraction(rng.randint(-6, 6)) for _ in range(3)] for _ in range(3)]
        if linalg.det(m) == 0:
            continue
        assert mat_mul(m, linalg.inverse(m)) == eye
        done += 1


def test_solve():
    m = [[1, 1], [1, -1]]
    assert linalg.solve(m, [3, 1]) == [Fraction(2), Fraction(1)]
    assert linalg.solve([[1, 1], [1, 1]], [0, 1]) is None


def test_primitive_integer_vector():
    v = [Fraction(-2, 3), Fraction(4, 3), Fraction(0)]
    assert linalg.primitive_integer_vector(v) == (1, -2, 0)
    assert linalg.primitive_integer_vector([Fraction(0), Fraction(5)]) == (0, 1)


def _span(rows, p):
    """Every combination of the rows mod p, by brute force."""
    n = len(rows[0])
    return {tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p
                  for j in range(n))
            for coeffs in product(range(p), repeat=len(rows))}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rref_mod_p_matches_brute_force_span(p):
    # a span of rank r has exactly p^r elements
    rng = random.Random(p)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 1, -1, rng.randrange(p))) for _ in range(n)]
                for _ in range(rng.randint(1, 4))]
        if len(rows) > 1 and rng.random() < 0.3:
            rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
        span = _span(rows, p)
        red, pivots = linalg.rref(rows, GF(p))
        r = len(pivots)
        assert len(span) == p ** r
        assert all(0 <= x < p for row in red for x in row)
        assert all(not any(row) for row in red[r:])
        assert all(red[k][c] == (k == i) for i, c in enumerate(pivots)
                   for k in range(len(red)))
        if r:
            assert _span(red[:r], p) == span


def _leibniz(m):
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_det_matches_leibniz_expansion():
    rng = random.Random(1858)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7
              else Fraction(0) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.25:
            i, j = rng.sample(range(n), 2)
            m[i] = [Fraction(rng.randint(-2, 2)) * x for x in m[j]]
        expected = _leibniz(m)
        singular += expected == 0
        assert linalg.det(m) == expected
    assert singular >= 20


def test_nullspace_of_no_rows():
    assert linalg.nullspace([]) == []
