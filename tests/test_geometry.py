import time
from fractions import Fraction
from math import isqrt

import pytest

from cuspquartics.geometry import (
    ConfigurationType,
    DependentFormsError,
    DivisibleFamily,
    DegenerateConfigurationError,
    GeometryError,
    InfiniteIntersectionError,
    Line,
    ProjectivePoint,
    binary_form_roots,
    build_family,
    classify_configuration,
    concurrent_lines_example,
    cusp_candidates,
    determinantal_quartic,
    eight_cusp_points,
    eight_cusp_quartic,
    family_from_manifest,
    family_to_manifest,
    fiber_change,
    ideal_quadrics,
    param_ring,
    surface_ring,
    twisted_cubic_example,
    twisted_cubic_map,
)
from cuspquartics.polyring import PolyRing, Polynomial

import support

# expanded quartics computed with an independent CAS, frozen
EX61_QUARTIC = (
    "-196*x0^4 + 14*x0^3*x1 + x0^3*x3 + 1371*x0^2*x1^2 + 28*x0^2*x2^2"
    " - 14*x0^2*x2*x3 - 1008*x0^2*x3^2 - 49*x0*x1^3 - x0*x1*x2^2"
    " - x0*x1*x2*x3 + 36*x0*x1*x3^2 - 2401*x1^4 + x1^3*x2 - 98*x1^2*x2^2"
    " + 49*x1^2*x2*x3 + 3528*x1^2*x3^2 - x2^4 + x2^3*x3 + 72*x2^2*x3^2"
    " - 36*x2*x3^3 - 1296*x3^4")
EX62_QUARTIC = (
    "-11*x0^4 + 6*x0^3*x1 + 6*x0^3*x2 - x0^2*x1^2 + 11*x0^2*x1*x2"
    " - 6*x0*x1^2*x2 - 5*x0*x1*x2^2 - x0*x1*x3^2 + 11*x0*x2^3"
    " - 11*x0*x2*x3^2 + x1^3*x2 - 6*x1*x2^3 + 6*x1*x2*x3^2 - 7*x2^4"
    " + 8*x2^2*x3^2 - x3^4")


@pytest.fixture
def ring():
    return surface_ring()


@pytest.fixture
def gens(ring):
    return ring.gens()


def test_projective_point_normalization():
    p = ProjectivePoint((4, -2, -8, 1))
    q = ProjectivePoint((Fraction(1), Fraction(-1, 2), Fraction(-2), Fraction(1, 4)))
    assert p == q and hash(p) == hash(q)
    assert p.integer_coords() == (4, -2, -8, 1)
    assert str(p) == "(4 : -2 : -8 : 1)"
    with pytest.raises(ValueError):
        ProjectivePoint((0, 0, 0, 0))


def test_projective_point_refuses_floats():
    # an exact point takes ints, fractions and decimal strings, never a float
    assert ProjectivePoint(("0.1", 1, 0, 0)) == ProjectivePoint((1, 10, 0, 0))
    with pytest.raises(TypeError, match="cannot coerce 0.1 into QQ"):
        ProjectivePoint((0.1, 1, 0, 0))


def test_line_through(ring):
    a = ProjectivePoint((0, 0, 0, 1))
    b = ProjectivePoint((2, 8, 2, 0))
    line = Line.through(a, b, ring)
    assert [str(f) for f in line.equations] == ["x0 - x2", "x1 - 4*x2"]
    with pytest.raises(ValueError):
        Line.through(a, ProjectivePoint((0, 0, 0, 5)), ring)


def test_ideal_quadrics_coordinate_forms(gens):
    x0, x1, x2, x3 = gens
    q12, q21, q22 = ideal_quadrics(x0, x1, x2, x3)
    assert q12 == x0 * x3 - x1 ** 2
    assert q21 == x1 * x2 - x0 ** 2
    assert q22 == x2 * x3 - x0 * x1
    phi = twisted_cubic_map()
    for q in (q12, q21, q22):
        assert q.substitute(phi).is_zero()
    with pytest.raises(DependentFormsError):
        ideal_quadrics(x0, x0, x2, x3)


def test_build_family_twisted_cubic(ring, gens):
    x0, x1, _, _ = gens
    family = twisted_cubic_example()
    assert family.contact_quadric == family.residual + x0 * x1
    assert family.quartic.degree() == 4
    assert family.quartic == ring.parse(EX61_QUARTIC)
    assert family.sextic == family.quartic * family.residual
    assert family.quartic == determinantal_quartic(
        family.contact_quadric, family.q12, family.q21, family.q22)


def test_build_family_concurrent_lines(ring):
    family = concurrent_lines_example()
    assert family.quartic == ring.parse(EX62_QUARTIC)
    assert family.quartic == determinantal_quartic(
        family.contact_quadric, family.q12, family.q21, family.q22)


def test_build_family_rejects_dependent_forms(gens):
    x0, _, x2, x3 = gens
    with pytest.raises(DependentFormsError):
        build_family(x0, x0 * 2, x2, x3, x2 * x3)


def test_build_family_rejects_bad_degrees(gens):
    x0, x1, x2, x3 = gens
    with pytest.raises(GeometryError):
        build_family(x0 ** 2, x1, x2, x3, x2 * x3)
    with pytest.raises(GeometryError):
        build_family(x0, x1, x2, x3, x3)


def test_determinantal_degenerate_inputs(ring, gens):
    x0, x1, x2, x3 = gens
    s = x2 * x3 - x0 * x1
    assert determinantal_quartic(s, ring.zero(), ring.zero(), s).is_zero()


def test_classify_configuration(gens):
    x0, x1, x2, x3 = gens
    assert classify_configuration(x0, x1, x2, x3).kind is ConfigurationType.TWISTED_CUBIC
    fpp = (x1 + x2) * 6 - x0 * 11
    config = classify_configuration(x0, x1, x2, fpp)
    assert config.kind is ConfigurationType.CONCURRENT_LINES
    assert config.vertex == ProjectivePoint((0, 0, 0, 1))
    with pytest.raises(DegenerateConfigurationError):
        classify_configuration(x0, x1, x0 + x1, x0 - x1)


def test_cusp_search_twisted_cubic(ex61_search):
    expected = {ProjectivePoint((j * j, s * j, s * j ** 3, 1))
                for j in (1, 2, 3) for s in (1, -1)}
    assert set(ex61_search.points) == expected
    assert ex61_search.unresolved == ()
    pring = param_ring()
    t0, t1 = pring.gens()
    product = (t0 ** 2 - t1 ** 2) * (t0 ** 2 - 4 * t1 ** 2) * (t0 ** 2 - 9 * t1 ** 2)
    lead = ex61_search.binary_form.leading_coefficient()
    assert ex61_search.binary_form == product.scale(lead)


def test_cusp_search_verifies_candidates(ex61_family, ex61_search):
    fam = ex61_family
    for p in ex61_search.points:
        for f in (fam.contact_quadric, fam.q12, fam.q21, fam.q22, fam.quartic):
            assert f.evaluate(p.coords) == 0
        assert fam.residual.evaluate(p.coords) != 0


def test_cusp_search_concurrent_lines(ex62_family, ex62_search, ring):
    x0, x1, x2, _ = ring.gens()
    expected = {ProjectivePoint((j, j * j, 1, s)) for j in (1, 2, 3) for s in (1, -1)}
    assert set(ex62_search.points) == expected
    assert ex62_search.unresolved == ()
    got = {tuple(str(f) for f in line.equations) for line in ex62_search.lines}
    want = {(str(x0 - x2 * j), str(x1 - x2 * (j * j))) for j in (1, 2, 3)}
    assert got == want
    assert ex62_search.configuration.lines == ex62_search.lines
    for p in ex62_search.points:
        assert ex62_family.residual.evaluate(p.coords) != 0


def test_cusp_search_custom_slice(ex62_family):
    ring = ex62_family.ring
    x0, x1, x2, x3 = ring.gens()
    search = cusp_candidates(ex62_family, slice_form=x3 - x2)
    expected = {ProjectivePoint((j, j * j, 1, s)) for j in (1, 2, 3) for s in (1, -1)}
    assert set(search.points) == expected
    with pytest.raises(GeometryError):
        cusp_candidates(ex62_family, slice_form=x2)  # passes through the vertex


def test_cusp_search_slice_points_in_degenerate_charts(ex62_family):
    # shear the type (II) family so one carrier line leaves the generic chart
    ring = ex62_family.ring
    x0, x1, x2, x3 = ring.gens()
    for images, expected in (
        ((x0 + x2, x1, x2, x3),
         {(j - 1, j * j, 1, s) for j in (1, 2, 3) for s in (1, -1)}),
        ((x0 + x2, x1 + x2, x2, x3),
         {(j - 1, j * j - 1, 1, s) for j in (1, 2, 3) for s in (1, -1)}),
    ):
        family = build_family(*(f.substitute(images) for f in
                                (ex62_family.lp, ex62_family.lpp,
                                 ex62_family.fp, ex62_family.fpp,
                                 ex62_family.residual)))
        search = cusp_candidates(family)
        assert len(search.lines) == 3
        assert set(search.points) == {ProjectivePoint(p) for p in expected}


def _linear_form(ring, row):
    return sum((g * c for g, c in zip(ring.gens(), row)), ring.zero())


def test_type_two_carrier_lines_match_planted_lines(make_rng):
    # oracle: with g_i(v) = 0, the forms L = sum_i g_i * phi(tau_i) have the
    # carrier lines {g_j = g_k = 0}, one per planted parameter tau_i, where
    # phi(a, b) = (a^2 b, a b^2, a^3, b^3); (1:0) is always planted
    from cuspquartics import linalg

    rng = make_rng(131)
    ring = surface_ring()
    changes = ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
               [[1, 2, 0, 0], [0, 1, 0, -1], [1, 1, 1, 0], [0, 0, 0, 1]],
               [[0, 0, 1, 0], [2, 1, 0, 0], [0, -1, 0, 1], [1, 0, 0, 1]])
    nonzero = [Fraction(a, b) for a in range(-4, 5) if a for b in (1, 2, 3)]
    for _ in range(4):
        vertex = [rng.randint(-3, 3) for _ in range(4)]
        if not any(vertex):
            vertex[rng.randrange(4)] = 1
        g_rows = []
        while len(g_rows) < 3:
            row = [rng.randint(-3, 3) for _ in range(4)]
            if (sum(a * b for a, b in zip(row, vertex)) == 0
                    and linalg.rank(g_rows + [row]) == len(g_rows) + 1):
                g_rows.append(row)
        ratios = rng.sample(sorted(set(nonzero)), 2)
        params = [(1, 0)] + [(r.numerator, r.denominator) for r in ratios]
        images = [(a * a * b, a * b * b, a ** 3, b ** 3) for a, b in params]
        l_rows = [[sum(images[i][k] * g_rows[i][col] for i in range(3))
                   for col in range(4)] for k in range(4)]
        while True:
            residual = sum((ring.gen(i) * ring.gen(j) * rng.randint(-3, 3)
                            for i in range(4) for j in range(i, 4)), ring.zero())
            try:
                cusp_candidates(build_family(*(_linear_form(ring, row)
                                               for row in l_rows), residual))
                break
            except GeometryError:
                continue
        for change in changes:
            moved = [_linear_form(ring, row) for row in change]
            g_moved = [linalg.mat_vec(list(zip(*change)), row) for row in g_rows]
            family = build_family(*(_linear_form(ring, row).substitute(moved)
                                    for row in l_rows),
                                  residual.substitute(moved))
            search = cusp_candidates(family)
            apex = ProjectivePoint(linalg.mat_vec(linalg.inverse(change), vertex))
            assert search.configuration.vertex == apex
            assert len(search.lines) == 3
            planted = []
            for line in search.lines:
                assert line.point_a == apex
                at_b = [sum(c * x for c, x in zip(row, line.point_b.coords))
                        for row in g_moved]
                planted += [i for i in range(3)
                            if at_b[i] != 0 and at_b[(i + 1) % 3] == 0
                            and at_b[(i + 2) % 3] == 0]
            assert sorted(planted) == [0, 1, 2]


def test_type_two_irrational_carrier_lines_stay_unresolved(gens):
    # the forms meet the twisted cubic where (t0 - t1)(t0^2 - 2 t1^2) = 0
    x0, x1, x2, x3 = gens
    family = build_family(x0, x1, x2, (x0 + 2 * x1 - x2) * Fraction(1, 2),
                          x3 * x3 - x0 * x0 - x0 * x1)
    search = cusp_candidates(family)
    assert [str(line) for line in search.lines] == ["{ x0 - x2 = x1 - x2 = 0 }"]
    assert search.points == (ProjectivePoint((1, 1, 1, -1)),
                             ProjectivePoint((1, 1, 1, 1)))
    t0, t1 = param_ring().gens()
    assert search.unresolved == (t0 ** 2 - 2 * t1 ** 2,)


def test_cusp_search_twisted_cubic_after_linear_change(ex61_family):
    # a type (I) family whose forms are not the coordinates: the search must
    # adapt coordinates before pulling back along the parametrization
    from cuspquartics import linalg

    ring = ex61_family.ring
    gens = ring.gens()
    m = [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, -1]]
    images = [sum((gens[j] * m[i][j] for j in range(4)), ring.zero())
              for i in range(4)]
    family = build_family(*(f.substitute(images) for f in
                            (ex61_family.lp, ex61_family.lpp, ex61_family.fp,
                             ex61_family.fpp, ex61_family.residual)))
    config = classify_configuration(*family.forms())
    assert config.kind is ConfigurationType.TWISTED_CUBIC
    inverse = linalg.inverse(m)
    expected = {ProjectivePoint(linalg.mat_vec(inverse, list(p.coords)))
                for p in cusp_candidates(ex61_family).points}
    search = cusp_candidates(family, config)
    assert set(search.points) == expected and search.unresolved == ()


def test_cusp_search_quadric_containing_curve(gens):
    x0, x1, x2, x3 = gens
    # residual chosen so the contact quadric equals q22 and holds the curve
    family = build_family(x0, x1, x2, x3, x2 * x3 - 2 * x0 * x1)
    assert family.contact_quadric == family.q22
    with pytest.raises(InfiniteIntersectionError):
        cusp_candidates(family)


def test_cusp_search_quadric_containing_cone_line(gens):
    x0, x1, x2, x3 = gens
    fpp = (x1 + x2) * 6 - x0 * 11
    family = build_family(x0, x1, x2, fpp, (x0 - x2) * x3 - x0 * x1)
    assert family.contact_quadric == (x0 - x2) * x3
    with pytest.raises(InfiniteIntersectionError):
        cusp_candidates(family)


def test_cusp_search_reports_unresolved(gens):
    x0, x1, x2, x3 = gens
    s = x2 ** 2 - 2 * x3 ** 2
    family = build_family(x0, x1, x2, x3, s - x0 * x1)
    search = cusp_candidates(family)
    assert search.points == ()
    assert len(search.unresolved) == 1
    pring = search.unresolved[0].ring
    t0, t1 = pring.gens()
    assert search.unresolved[0] == t0 ** 6 - 2 * t1 ** 6


def test_determinantal_identity_random_instances(make_rng):
    # S'(S'') - S^3 = R*(S(q22 - S) - q12*q21) for arbitrary rational forms
    rng = make_rng(91)
    ring = surface_ring()
    gens = ring.gens()

    def rand_linear():
        return sum((g * Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                    for g in gens), ring.zero())

    def rand_quadric():
        acc = ring.zero()
        for i in range(4):
            for j in range(i, 4):
                acc = acc + gens[i] * gens[j] * rng.randint(-5, 5)
        return acc

    for _ in range(100):
        lp, lpp, fp, fpp = (rand_linear() for _ in range(4))
        quad = rand_quadric()
        s = quad + lp * lpp
        lhs = (lp ** 3 + fp * quad) * (lpp ** 3 + fpp * quad) - s ** 3
        q12 = lp * fpp - lpp * lpp
        q21 = lpp * fp - lp * lp
        q22 = fp * fpp - lp * lpp
        assert lhs == quad * (s * (q22 - s) - q12 * q21)


def test_binary_form_roots():
    pring = param_ring()
    t0, t1 = pring.gens()
    form = (t0 ** 2 - t1 ** 2) * (t0 ** 2 - 4 * t1 ** 2) * (t0 ** 2 - 9 * t1 ** 2)
    roots, unresolved = binary_form_roots(form)
    assert unresolved == ()
    assert {Fraction(a) / b for a, b in roots} == {1, -1, 2, -2, 3, -3}
    roots2, _ = binary_form_roots(t0 * t1)
    assert set(roots2) == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
    with pytest.raises(ValueError):
        binary_form_roots(pring.zero())
    with pytest.raises(ValueError):
        binary_form_roots(t0 + pring.one())


def _planted_binary_form(rng, pring):
    """(form, roots in search order, quadratic or None): a Fraction scalar
    times planted linear factors, sometimes t0 or t1, times an optional
    irreducible quadratic.  End coefficients stay below 10^10, because the
    divisor search trial-divides them."""
    t0, t1 = pring.gens()
    while True:
        planted = {}
        for _ in range(rng.randint(0, 4)):
            num = rng.choice((1, -1)) * round(10 ** rng.uniform(0, 4))
            root = Fraction(num, round(10 ** rng.uniform(0, 4)))
            planted[root] = min(3, planted.get(root, 0) + rng.randint(1, 3))
        lead = tail = 1
        for root, m in planted.items():
            lead *= root.denominator ** m
            tail *= abs(root.numerator) ** m
        if max(lead, tail) < 10 ** 10:
            break
    form = pring.one() * Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
    for root, m in planted.items():
        form = form * (t0 * root.denominator - t1 * root.numerator) ** m
    roots = sorted(planted, key=lambda r: (abs(r.numerator), r.denominator,
                                           r.numerator < 0))
    roots = [(r, Fraction(1)) for r in roots]
    if rng.random() < 0.3:
        form = form * t0 ** rng.randint(1, 3)
        roots.insert(0, (Fraction(0), Fraction(1)))
    if rng.random() < 0.3:
        form = form * t1 ** rng.randint(1, 3)
        roots.insert(0, (Fraction(1), Fraction(0)))
    quadratic = None
    if rng.random() < 0.5:
        while True:
            a, b, c = (rng.randint(-9, 9) for _ in range(3))
            disc = b * b - 4 * a * c
            if a and c and (disc < 0 or isqrt(disc) ** 2 != disc):
                break
        quadratic = t0 * t0 * a + t0 * t1 * b + t1 * t1 * c
        form = form * quadratic
    return form, roots, quadratic


def test_binary_form_roots_find_planted_roots(make_rng):
    rng = make_rng(1200)
    pring = param_ring()
    for _ in range(300):
        form, roots, quadratic = _planted_binary_form(rng, pring)
        found, unresolved = binary_form_roots(form)
        assert found == roots
        if quadratic is None:
            assert unresolved == ()
            continue
        (rest,) = unresolved
        assert rest * quadratic.leading_coefficient() == \
            quadratic * rest.leading_coefficient()
        assert rest.leading_coefficient() == form.leading_coefficient()


# the pullback sextic of the planted type-I family with parameters spread to
# 150 (cuspbench: planted.type_one(Random(7), 1, 3, spread_params(150)))
SPREAD_150_SEXTIC = (
    "5896497600*t0^6 - 433693100640*t0^5*t1 - 687938439412*t0^4*t1^2"
    " + 3569230731852*t0^3*t1^3 - 2636861513420*t0^2*t1^4"
    " + 430055201556*t0*t1^5 + 9830620800*t1^6")


def test_binary_form_roots_of_a_sextic_with_large_coefficients_is_fast():
    sextic = param_ring().parse(SPREAD_150_SEXTIC)
    started = time.perf_counter()
    roots, unresolved = binary_form_roots(sextic)
    assert time.perf_counter() - started < 2.0
    assert unresolved == ()
    assert {t0 / t1 for t0, t1 in roots} == {
        Fraction(75), Fraction(91, 60), Fraction(-3, 148), Fraction(32, 119),
        Fraction(31, 45), Fraction(-121, 31)}


def test_fiber_change_identity(ex61_family):
    result = fiber_change(ex61_family, ((1, 0), (0, 1)))
    assert result.verified
    assert result.quadric == ex61_family.contact_quadric
    gens = ex61_family.ring.gens()
    assert result.induced == gens


def test_fiber_change_swap(ex61_family):
    result = fiber_change(ex61_family, ((0, 1), (1, 0)))
    assert result.verified
    x0, x1, x2, x3 = ex61_family.ring.gens()
    assert result.induced == (x1, x0, x3, x2)


def test_fiber_change_preconditions(ex61_family, ex62_family):
    with pytest.raises(GeometryError):
        fiber_change(ex61_family, ((1, 2), (2, 4)))
    with pytest.raises(GeometryError):
        fiber_change(ex62_family, ((1, 0), (0, 1)))


def test_fiber_change_random_sample(make_rng, ex61_family):
    support.check_fiber_change_identity(make_rng(61), ex61_family, 20)


def test_eight_cusp_quartic(ring, gens):
    x0, x1, x2, x3 = gens
    for k in (2, 3, Fraction(1, 2)):
        f = eight_cusp_quartic(k)
        assert f.is_homogeneous() and f.degree() == 4
    f = eight_cusp_quartic(2)
    for p in eight_cusp_points():
        assert f.evaluate(p.coords) == 0
    assert f.substitute((x1, x0, x2, x3)) == f
    assert f.substitute((x0, x1, x3, x2)) == f
    with pytest.raises(ValueError):
        eight_cusp_quartic(0)


def test_eight_cusp_quartic_refuses_degenerate_k():
    # k = 1 gives 8*x0^2*x1^2 and k = -1 a quartic singular along curves
    for k in (0, 1, -1, "-1", Fraction(3, 3)):
        with pytest.raises(ValueError, match="k != 0, 1, -1"):
            eight_cusp_quartic(k)


def test_manifest_roundtrip(ex61_family):
    text = family_to_manifest(ex61_family)
    again = family_from_manifest(text)
    assert again == ex61_family


def test_manifest_errors():
    with pytest.raises(GeometryError):
        family_from_manifest("Lp = x0\nLpp = x1\nFp = x2\n")  # missing keys
    with pytest.raises(GeometryError):
        family_from_manifest("Lp = x0\nLp = x1\nLpp = x1\nFp = x2\nFpp = x3\n"
                             "R = x2*x3\n")  # duplicate
    with pytest.raises(GeometryError):
        family_from_manifest("Zz = x0\n")
    with pytest.raises(GeometryError):
        family_from_manifest("just text\n")


def test_manifest_comments_and_blanks():
    text = """
# a worked family
Lp = x0   # cube root of the first contact cubic
Lpp = x1
Fp = x2
Fpp = x3

R = 49*x1^2 + x2^2 - 36*x3^2 - 14*x0^2 - x0*x1
"""
    family = family_from_manifest(text)
    assert family == twisted_cubic_example()


def test_divisors_match_brute_force():
    from cuspquartics.geometry import _divisors

    assert _divisors(0) == []
    for n in range(1, 2001):
        expected = [d for d in range(1, n + 1) if n % d == 0]
        assert _divisors(n) == expected
        assert _divisors(-n) == expected
    # products of large primes, squares included, far beyond brute force
    for p, q in ((10007, 10009), (99991, 100003), (1000003, 1000033)):
        assert _divisors(p * q) == [1, p, q, p * q]
        assert _divisors(-p * q) == [1, p, q, p * q]
        assert _divisors(p * p) == [1, p, p * p]
    assert _divisors(7919 * 7919 * 10007) == [
        1, 7919, 10007, 7919 ** 2, 7919 * 10007, 7919 ** 2 * 10007]


def _random_family(rng, kind, fractional):
    """A random family of the given configuration type; type II takes fpp
    in the span of the other three forms."""
    ring = surface_ring()
    gens = ring.gens()

    def coeff():
        c = Fraction(rng.randint(-6, 6))
        return c / rng.randint(1, 4) if fractional else c

    def linear():
        return sum((g * coeff() for g in gens), ring.zero())

    while True:
        lp, lpp, fp = linear(), linear(), linear()
        if kind is ConfigurationType.TWISTED_CUBIC:
            fpp = linear()
        else:
            fpp = lp * coeff() + lpp * coeff() + fp * coeff()
        residual = sum((gens[i] * gens[j] * coeff()
                        for i in range(4) for j in range(i, 4)), ring.zero())
        try:
            family = build_family(lp, lpp, fp, fpp, residual)
            config = classify_configuration(*family.forms())
        except GeometryError:
            continue
        if config.kind is kind:
            return family


@pytest.mark.parametrize("fractional", [False, True],
                         ids=["integer", "fractional"])
@pytest.mark.parametrize("kind", list(ConfigurationType),
                         ids=lambda kind: kind.name)
def test_quartic_is_the_exact_quotient_of_the_sextic(make_rng, kind,
                                                      fractional):
    # the determinant builds the quartic; dividing the sextic is the oracle
    rng = make_rng(1100 + 2 * list(ConfigurationType).index(kind) + fractional)
    for _ in range(8):
        family = _random_family(rng, kind, fractional)
        assert "sextic" not in vars(family)
        assert family.quartic == family.sextic.exact_divide(family.residual)
        assert family.sextic == family.quartic * family.residual
        assert vars(family)["sextic"] is family.sextic


def test_sextic_is_not_a_field():
    assert "sextic" not in DivisibleFamily._fields


def test_build_family_never_divides(make_rng, monkeypatch):
    def refuse(self, g):
        raise AssertionError("build_family divided a polynomial")

    monkeypatch.setattr(Polynomial, "exact_divide", refuse)
    rng = make_rng(1110)
    for kind in ConfigurationType:
        _random_family(rng, kind, fractional=True)
    assert twisted_cubic_example().quartic.degree() == 4
    assert concurrent_lines_example().quartic.degree() == 4


def test_type_one_search_substitutes_once(monkeypatch):
    family = twisted_cubic_example()
    calls = []
    substitute = Polynomial.substitute

    def counting(self, images):
        calls.append(self)
        return substitute(self, images)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    search = cusp_candidates(family)
    assert calls == [family.contact_quadric]
    assert len(search.points) == 6


def test_build_family_checks_forms_and_rings(ring, gens):
    x0, x1, x2, x3 = gens
    with pytest.raises(GeometryError, match="residual must be a nonzero quadric"):
        build_family(x0, x1, x2, x3, ring.zero())
    lex = ring.with_order("lex")
    with pytest.raises(GeometryError, match="all forms must share one ring"):
        build_family(x0, lex.gen(1), x2, x3, x2 * x3)
    with pytest.raises(GeometryError, match="residual quadric must share the forms' ring"):
        build_family(x0, x1, x2, x3, lex.gen(2) * lex.gen(3))
    y0, y1, y2 = PolyRing(("y0", "y1", "y2")).gens()
    with pytest.raises(GeometryError,
                       match="the construction lives in 4 projective variables"):
        build_family(y0, y1, y2, y0 + y1, y2 * y2)
