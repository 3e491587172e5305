import random
from fractions import Fraction

import pytest

from cuspquartics import linalg
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
