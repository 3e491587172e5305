"""The four workloads: seeded op lists and the checks on their reports.

An op is one ``python -m cuspquartics <args> --json`` process.  ``build``
turns a workload name and a seed into the op list that every round of a
run replays; each op carries a check that compares its report with values
computed by the benchmark itself (``planted``) or by sympy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable

import planted

WORKLOADS = ("certify", "cusps", "gb", "codes")


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple
    check: Callable  # report dict -> list of problems (empty when correct)


# ---------------------------------------------------------------------------
# parsing what the program prints
# ---------------------------------------------------------------------------

def parse_point(text):
    """'(a : b : c : d)' -> normalized tuple of Fractions."""
    coords = [Fraction(c) for c in text.strip("() ").split(":")]
    return planted.normalize(coords)


def entry(report, name):
    return next((e for e in report["results"] if e["name"] == name), None)


@lru_cache(maxsize=None)
def _sympy():
    import sympy
    xs = sympy.symbols("x0:4")
    return sympy, xs, {f"x{i}": x for i, x in enumerate(xs)}


def sympy_poly(text):
    sympy, xs, names = _sympy()
    return sympy.Poly(sympy.sympify(text.replace("^", "**"), locals=names),
                      *xs, domain="QQ")


def manifest_quartic(manifest):
    """det [[S, q12], [q21, q22 - S]] expanded by sympy from the manifest."""
    forms = {}
    for line in manifest.splitlines():
        key, _, rhs = line.partition("=")
        forms[key.strip()] = sympy_poly(rhs)
    lp, lpp, fp, fpp, r = (forms[k] for k in ("Lp", "Lpp", "Fp", "Fpp", "R"))
    s = r + lp * lpp
    q12 = lp * fpp - lpp * lpp
    q21 = lpp * fp - lp * lp
    q22 = fp * fpp - lp * lpp
    return s * (q22 - s) - q12 * q21


def sympy_reduced_basis(generators_text):
    sympy, xs, _ = _sympy()
    gens = [sympy_poly(line).as_expr()
            for line in generators_text.splitlines() if line.strip()]
    basis = sympy.groebner(gens, *xs, order="grevlex", domain="QQ",
                           method="buchberger")
    return {sympy.Poly(g, *xs, domain="QQ").monic() for g in basis.exprs}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _points_problems(family, points, unresolved):
    problems = []
    if unresolved:
        problems.append(f"unresolved factors {unresolved}")
    got = sorted(parse_point(p) for p in points)
    if got != sorted(family.cusps):
        problems.append(f"cusps {points} differ from the planted points")
    for p in got:
        if not planted.is_a2_point(family.quartic, p):
            problems.append(f"{p}: gradient, Hessian rank 2 or cubic term fails")
    return problems


def _quartic_problems(family, text):
    if manifest_quartic(family.manifest()) != sympy_poly(text):
        return ["reported quartic differs from the expanded determinant"]
    return []


def check_construct(family):
    def check(report):
        problems = [] if report["verified"] else ["not verified"]
        problems += _quartic_problems(family, entry(report, "quartic")["polynomial"])
        found = entry(report, "cusp candidates")
        problems += _points_problems(family, found["points"], found["unresolved"])
        return problems
    return check


def check_example(family, points_entry):
    def check(report):
        problems = [] if report["verified"] else ["not verified"]
        quartic = entry(report, "quartic")
        if quartic is not None:
            problems += _quartic_problems(family, quartic["polynomial"])
        problems += _points_problems(family, entry(report, points_entry)["points"], [])
        return problems
    return check


def check_cusps(family):
    def check(report):
        found = entry(report, "cusp candidates")
        problems = _points_problems(family, found["points"], found["unresolved"])
        if entry(report, "configuration")["type"] != family.kind:
            problems.append("wrong configuration type")
        verdicts = [e for e in report["results"]
                    if e["name"].startswith("classification ")]
        if len(verdicts) != len(family.cusps) or any(
                e["kind"] != "A2" for e in verdicts):
            problems.append(f"verdicts {[e['kind'] for e in verdicts]}")
        return problems
    return check


def check_gb(generators_text):
    def check(report):
        problems = [] if report["verified"] else ["S-pair audit failed"]
        got = {sympy_poly(g).monic()
               for g in entry(report, "reduced basis")["elements"]}
        if got != sympy_reduced_basis(generators_text):
            problems.append("basis differs from sympy's reduced grevlex basis")
        return problems
    return check


def _families_problems(reported):
    expected, _ = planted.divisible_support_families()
    if sorted(reported) != expected:
        return [f"support families {reported} != {expected}"]
    return []


def check_enumerate(report):
    return _families_problems(entry(report, "support families")["families"])


def check_barth(k):
    def check(report):
        problems = [] if report["verified"] else ["not verified"]
        surface = planted.eight_cusp_quartic(k)
        if any(planted.evaluate(planted.diff(surface, i), p) != 0
               for p in planted.EIGHT_POINTS for i in range(planted.NVARS)):
            problems.append("an eight-cusp point is not singular")
        formula = -(k / 2) * (1 + k) ** 2 * (1 - k) ** 6
        if planted.corner_determinant(surface) != formula:
            problems.append("corner determinant differs from the formula")
        warning = next((w for w in report["warnings"]
                        if "determinant_at_1000" in w), None)
        if warning is None or Fraction(warning["determinant_at_1000"]) != formula:
            problems.append("reported A1 determinant differs from the formula")
        found = entry(report, "enumeration finds the four three-divisible sets")
        problems += _families_problems(found["families"])
        return problems
    return check


# ---------------------------------------------------------------------------
# the worked examples as planted families
# ---------------------------------------------------------------------------

def _known(kind, rows, residual, cusps):
    forms = tuple(planted.linear(r) for r in rows)
    residual = {m: Fraction(c) for m, c in residual.items()}
    s = planted.add(residual, planted.mul(forms[0], forms[1]))
    return planted.Family(kind, forms, residual,
                          planted.quartic_of(*forms, s),
                          tuple(sorted(planted.normalize(p) for p in cusps)))


# R = 49 x1^2 + x2^2 - 36 x3^2 - 14 x0^2 - x0 x1
EX61 = _known("I", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
              {(0, 2, 0, 0): 49, (0, 0, 2, 0): 1, (0, 0, 0, 2): -36,
               (2, 0, 0, 0): -14, (1, 1, 0, 0): -1},
              [(j * j, s * j, s * j ** 3, 1) for j in (1, 2, 3) for s in (1, -1)])
# Fpp = 6 (x1 + x2) - 11 x0, R = x3^2 - x2^2 - x0 x1
EX62 = _known("II", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-11, 6, 6, 0)],
              {(0, 0, 0, 2): 1, (0, 0, 2, 0): -1, (1, 1, 0, 0): -1},
              [(j, j * j, 1, s) for j in (1, 2, 3) for s in (1, -1)])


# ---------------------------------------------------------------------------
# op lists
# ---------------------------------------------------------------------------

def _write(directory, name, text):
    path = Path(directory) / name
    path.write_text(text)
    return str(path)


def build(workload, seed, directory):
    """The op list of one round, with its input files written to directory.

    A round is kept short (6 to 13 s with the references), so that a run
    replays it at least twice and each stratum of ops is sampled at several
    times of the run.
    """
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "certify":
        ops.append(Op("ex62", ("verify-example", "ex62"),
                      check_example(EX62, "six rational cusps (j : j^2 : 1 : +-1)")))
        ops.append(Op("ex61", ("verify-example", "ex61"),
                      check_example(EX61, "six rational cusps found")))
        # four ops cost less than bound 30 and three more, so the median
        # falls inside the two bound-30 families, not between two strata
        families = [("type-II bound 3", planted.type_two(rng, 3))]
        families += [(f"type-I bound {b} #{i}", planted.type_one(rng, b, b))
                     for b, n in ((3, 1), (30, 2), (300, 2), (3000, 1))
                     for i in range(1, n + 1)]
        for i, (label, family) in enumerate(families):
            path = _write(directory, f"certify{i}.txt", family.manifest())
            ops.append(Op(label, ("construct", path, "--certify"),
                          check_construct(family)))
    elif workload == "cusps":
        # five small-parameter families hold the median inside one cheap
        # stratum near process start; the spread families carry the
        # divisor search
        families = [(f"type-I params <= 3 #{i}", planted.type_one(rng, 1, 3))
                    for i in range(1, 6)]
        families.append(("type-II bound 3", planted.type_two(rng, 3)))
        for high in (12, 24, 48):
            families.append((f"type-I params <= {high}",
                             planted.type_one(rng, 1, 3, planted.spread_params(high))))
        for i, (label, family) in enumerate(families):
            path = _write(directory, f"cusps{i}.txt", family.manifest())
            ops.append(Op(label, ("cusps", path), check_cusps(family)))
    elif workload == "gb":
        # the median falls inside the two bound-30 ideals
        for k, b in enumerate((3, 30, 30, 300)):
            text = planted.type_one(rng, b, b).jacobian_text()
            path = _write(directory, f"gb{k}.txt", text)
            ops.append(Op(f"jacobian bound {b}" + (f" #{k}" if b == 30 else ""),
                          ("gb", "--file", path), check_gb(text)))
    elif workload == "codes":
        k = planted.barth_k(rng)
        ops.append(Op("enumerate-sets", ("enumerate-sets",), check_enumerate))
        # "--k=-7/5": argparse takes a separate "-7/5" for an option
        ops.append(Op(f"barth k={k}", ("verify-example", "barth", f"--k={k}"),
                      check_barth(k)))
    else:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(expected one of {', '.join(WORKLOADS)})")
    # spread each stratum over the round, so that the ops around the median
    # sample the machine at different times rather than in one stretch
    rng.shuffle(ops)
    return ops
