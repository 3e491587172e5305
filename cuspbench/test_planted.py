"""Tests of the planted-family generator, the op lists, the reference process
and the benchmark's own oracles.

Run with ``python3 -m pytest cuspbench/test_planted.py``; no part of the
cuspquartics package is imported.
"""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import planted
import workloads
from planted import diff, evaluate, mul, sub


def _defining_equations(family):
    lp, lpp, fp, fpp = family.forms
    s = planted.add(family.residual, mul(lp, lpp))
    return (s,) + planted.carrier_quadrics(lp, lpp, fp, fpp) + (family.quartic,)


def _families():
    rng = random.Random(7)
    yield planted.type_one(rng, 3, 3)
    yield planted.type_one(rng, 300, 300)
    yield planted.type_one(rng, 1, 3, planted.spread_params(36))
    yield planted.type_two(rng, 3)
    yield planted.type_two(rng, 3)
    yield workloads.EX61
    yield workloads.EX62


@pytest.mark.parametrize("family", list(_families()),
                         ids=lambda f: f"type-{f.kind}")
def test_planted_points_satisfy_the_defining_equations(family):
    assert len(set(family.cusps)) == 6
    for p in family.cusps:
        for f in _defining_equations(family):
            assert evaluate(f, p) == 0
        assert all(evaluate(diff(family.quartic, i), p) == 0 for i in range(4))
        assert evaluate(family.residual, p) != 0
        assert planted.is_a2_point(family.quartic, p)


def test_quartic_is_the_exact_quotient_of_the_sextic():
    family = planted.type_one(random.Random(3), 3, 3)
    lp, lpp, fp, fpp = family.forms
    r = family.residual
    cubic_a = planted.add(mul(mul(lp, lp), lp), mul(fp, r))
    cubic_b = planted.add(mul(mul(lpp, lpp), lpp), mul(fpp, r))
    s = planted.add(r, mul(lp, lpp))
    sextic = sub(mul(cubic_a, cubic_b), mul(mul(s, s), s))
    assert sextic == mul(r, family.quartic)


def test_manifest_text_parses_back_to_the_same_forms():
    family = planted.type_two(random.Random(5), 3)
    lines = family.manifest().splitlines()
    assert [line.split(" = ")[0] for line in lines] == ["Lp", "Lpp", "Fp", "Fpp", "R"]
    for line, poly in zip(lines, family.forms + (family.residual,)):
        parsed = workloads.sympy_poly(line.split(" = ")[1])
        assert {m: Fraction(int(c.p), int(c.q)) for m, c in parsed.terms()} == poly


def test_same_seed_gives_same_families():
    a = planted.type_one(random.Random(11), 30, 30)
    b = planted.type_one(random.Random(11), 30, 30)
    assert a.manifest() == b.manifest() and a.cusps == b.cusps


def test_spread_parameters_are_distinct_and_reach_the_bound():
    for high in (12, 24, 36, 48, 60):
        params = planted.spread_params(high)
        assert len({Fraction(a, b) for a, b in params}) == 6
        assert max(max(a, b) for a, b in params) == high


def test_a2_test_rejects_an_ordinary_double_point():
    # (x0 x1 - x2^2) x3^2 + x0^4 + x1^4 has an A1 point at (0:0:0:1)
    x = [planted.linear(planted.unit(i)) for i in range(4)]
    f = mul(sub(mul(x[0], x[1]), mul(x[2], x[2])), mul(x[3], x[3]))
    f = planted.add(f, mul(mul(x[0], x[0]), mul(x[0], x[0])),
                    mul(mul(x[1], x[1]), mul(x[1], x[1])))
    assert not planted.is_a2_point(f, (0, 0, 0, 1))


def test_support_families_from_perfect_matchings():
    families, matchings = planted.divisible_support_families()
    assert matchings == 105
    assert families == [[[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 7, 8],
                         [1, 4, 5, 6, 7, 8], [2, 3, 5, 6, 7, 8]]]


@pytest.mark.parametrize("k", [Fraction(2), Fraction(-7, 3), Fraction(1, 5)])
def test_eight_cusp_points_and_corner_determinant(k):
    f = planted.eight_cusp_quartic(k)
    for p in planted.EIGHT_POINTS:
        assert all(evaluate(diff(f, i), p) == 0 for i in range(4))
    assert planted.corner_determinant(f) == -(k / 2) * (1 + k) ** 2 * (1 - k) ** 6


def test_barth_k_avoids_degenerate_values():
    rng = random.Random(1)
    assert all(planted.barth_k(rng) not in (0, 1, -1) for _ in range(200))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_op_list(workload, tmp_path):
    lists = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        ops = workloads.build(workload, 4, tmp_path / name)
        files = sorted(p.read_text() for p in (tmp_path / name).iterdir())
        lists.append(([op.label for op in ops], files))
    assert lists[0] == lists[1]


def test_reference_process_runs():
    here = Path(__file__).resolve().parent
    done = subprocess.run([sys.executable, str(here / "reference.py")],
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
