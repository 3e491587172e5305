import json
from fractions import Fraction
from itertools import product

import pytest

from cuspquartics import linalg
from cuspquartics.codes import TernaryCode, f3_word
from cuspquartics.geometry import (
    Line,
    ProjectivePoint,
    build_family,
    cusp_candidates,
    eight_cusp_quartic,
    fiber_change,
    surface_ring,
    twisted_cubic_example,
)
from cuspquartics.groebner import buchberger, ideal_membership
from cuspquartics.polyring import PolyRing, QQ
from cuspquartics.singular import (
    CertificateError,
    LocalData,
    SingularityKind,
    SingularityVerdict,
    classify,
    cusp_divisibility_certificate,
    forms_through_points,
    is_singular_point,
    jacobian_ideal,
    quadratic_form_matrix,
    singular_locus_contained_in,
    singular_set_certificate,
    transversal_at,
)
from support import certificate_json, in_span, local_expansion, split_rank2_form


@pytest.fixture
def ring():
    return surface_ring()


@pytest.fixture
def affine3():
    return PolyRing(("x", "y", "z"), QQ, "grevlex")


def test_jacobian_ideal_basics(ring):
    x0 = ring.gen(0)
    ideal = jacobian_ideal(x0 ** 2)
    basis = buchberger(ideal)
    assert [str(g) for g in basis] == ["x0"]
    with pytest.raises(ValueError):
        jacobian_ideal(x0 ** 2 + x0)
    with pytest.raises(ValueError):
        jacobian_ideal(ring.zero())


def test_euler_relation(ex61_family, ex61_basis):
    assert ideal_membership(ex61_family.quartic, ex61_basis)


def test_is_singular_point(ring, ex62_family, ex61_family):
    x0 = ring.gen(0)
    assert is_singular_point(x0 ** 2, ProjectivePoint((0, 1, 0, 0)))
    assert is_singular_point(ex62_family.quartic, ProjectivePoint((1, 1, 1, 1)))
    # a rational point of the type (I) quartic found by slicing with x0 = x1 = 0
    smooth = ProjectivePoint((0, 0, 6, 1))
    assert ex61_family.quartic.evaluate(smooth.coords) == 0
    assert not is_singular_point(ex61_family.quartic, smooth)


def test_classify_affine_models(affine3):
    x, y, z = affine3.gens()
    origin = (0, 0, 0)
    assert classify(x * y - z ** 3, origin).kind is SingularityKind.A2
    assert classify(x * y - z ** 2, origin).kind is SingularityKind.A1
    assert classify(x * y - z ** 4, origin).kind is SingularityKind.AT_LEAST_A3
    assert classify(x ** 2 + y ** 3 + z ** 3, origin).kind is SingularityKind.CORANK_GE2
    assert classify(x + y ** 2, origin).kind is SingularityKind.SMOOTH
    with pytest.raises(ValueError):
        classify(x + affine3.one(), origin)


def test_classify_cusp_details(affine3):
    x, y, z = affine3.gens()
    verdict = classify(x * y - z ** 3, (0, 0, 0))
    assert verdict.quad_rank == 2
    assert verdict.kernel_direction == (0, 0, 1)
    assert verdict.cubic_on_kernel == -1


def test_classify_projective_cusps(ex61_family, ex61_search):
    for p in ex61_search.points:
        verdict = classify(ex61_family.quartic, p)
        assert verdict.kind is SingularityKind.A2
        assert verdict.chart == 3
        assert verdict.quad_rank == 2
        assert verdict.cubic_on_kernel != 0


def test_classify_chart_independence(ex61_family):
    point = ProjectivePoint((1, 1, 1, 1))
    kinds = {classify(ex61_family.quartic, point, chart=c).kind for c in range(4)}
    assert kinds == {SingularityKind.A2}
    # an explicit chart must have a nonzero coordinate there
    with pytest.raises(ValueError):
        classify(ex61_family.quartic, ProjectivePoint((0, 0, 6, 1)), chart=0)


def test_classify_projective_change_invariance(ex61_family, make_rng):
    rng = make_rng(71)
    ring = ex61_family.ring
    gens = ring.gens()
    point = ProjectivePoint((4, 2, 8, 1))
    for _ in range(3):
        while True:
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
            if linalg.det(m) != 0:
                break
        images = [sum((gens[j] * m[i][j] for j in range(4)), ring.zero())
                  for i in range(4)]
        transformed = ex61_family.quartic.substitute(images)
        preimage = ProjectivePoint(linalg.mat_vec(linalg.inverse(m), list(point.coords)))
        assert classify(transformed, preimage).kind is SingularityKind.A2


def test_transversal_at(ring, ex61_family, ex61_search):
    x0, x1, x2, x3 = ring.gens()
    p = ProjectivePoint((0, 0, 0, 1))
    assert transversal_at(x0, x1, x2, p)
    assert not transversal_at(x0, x0 * 2, x1, p)
    with pytest.raises(ValueError):
        transversal_at(x0, x1, x3, p)
    fam = ex61_family
    for q in ex61_search.points:
        assert transversal_at(fam.cubic_a, fam.cubic_b, fam.contact_quadric, q)


def test_singular_locus_containment_simple(ring):
    x0, x1, x2, x3 = ring.gens()
    # jacobian ideal of x0^2 is <x0>, so the first power already lies in it
    cert = singular_locus_contained_in(x0 ** 2, x0)
    assert cert.verified and cert.data["exponent"] == 1
    cert_sq = singular_locus_contained_in(x0 ** 3, x0)
    assert cert_sq.verified and cert_sq.data["exponent"] == 2
    smooth_quadric = x0 * x3 - x1 * x2
    cert2 = singular_locus_contained_in(smooth_quadric, x0)
    assert cert2.verified and cert2.data["exponent"] == 1
    cert3 = singular_locus_contained_in(x0 ** 2, x1, p_max=3)
    assert not cert3.verified and cert3.data["exponent"] is None


def test_singular_locus_containment_example(ex61_family, ex61_basis):
    fam = ex61_family
    for g in (fam.q12, fam.q21, fam.q22, fam.contact_quadric):
        cert = singular_locus_contained_in(fam.quartic, g, 8, ex61_basis)
        assert cert.verified and cert.data["exponent"] == 4


def test_divisibility_certificate(ex61_family, ex61_search, ex62_family, ex62_search):
    cert = cusp_divisibility_certificate(ex61_family, ex61_search.points)
    assert cert.verified
    assert cert.data["common_line_off_contact_quadric"]
    cert2 = cusp_divisibility_certificate(ex62_family, ex62_search.points)
    assert cert2.verified
    payload = json.dumps(certificate_json(cert))
    assert "three-divisible" in payload


def test_divisibility_certificate_rejects_non_cusp(ex61_family):
    with pytest.raises(CertificateError):
        cusp_divisibility_certificate(ex61_family, (ProjectivePoint((1, 0, 0, 0)),))
    # a smooth point of the quartic lying on the residual quadric
    with pytest.raises(CertificateError):
        cusp_divisibility_certificate(ex61_family, (ProjectivePoint((0, 0, 6, 1)),))


def test_tangent_cone_refactors_into_tangent_planes(ex61_family, ex61_search):
    fam = ex61_family
    for point in ex61_search.points:
        chart = classify(fam.quartic, point).chart
        _, pieces = local_expansion(fam.quartic, point, chart)
        q2 = pieces[2]
        factors = split_rank2_form(q2)
        assert factors is not None
        l1, l2 = factors
        assert l1 * l2 == q2
        tangents = []
        for cubic in (fam.cubic_a, fam.cubic_b):
            _, cpieces = local_expansion(cubic, point, chart)
            tangents.append(cpieces[1])
        # the split agrees with the two tangent planes up to scalars and order
        def proportional(a, b):
            return a.scale(b.leading_coefficient() / a.leading_coefficient()) == b
        match_direct = (proportional(l1, tangents[0]) and proportional(l2, tangents[1]))
        match_swapped = (proportional(l1, tangents[1]) and proportional(l2, tangents[0]))
        assert match_direct or match_swapped


def test_split_rank2_form_edge_cases(affine3):
    x, y, z = affine3.gens()
    assert split_rank2_form(x * y) is not None
    l1, l2 = split_rank2_form(x ** 2 - y ** 2)
    assert l1 * l2 == x ** 2 - y ** 2
    assert split_rank2_form(x ** 2 + y ** 2) is None  # irrational split
    with pytest.raises(ValueError):
        split_rank2_form(x ** 2)
    with pytest.raises(ValueError):
        split_rank2_form(x ** 2 + y ** 2 + z ** 2)


def test_singular_set_certificate(ex61_family, ex61_search, ex61_basis):
    cert = singular_set_certificate(ex61_family, ex61_search, 8, ex61_basis)
    assert cert.verified
    assert cert.data["exponents"] == {"q12": 4, "q21": 4, "q22": 4,
                                      "contact_quadric": 4}
    assert cert.data["intersection_complete"]


def test_forms_through_points_single(ring):
    basis = forms_through_points([ProjectivePoint((1, 0, 0, 0))], 1)
    assert {str(f) for f in basis} == {"x1", "x2", "x3"}
    with pytest.raises(ValueError):
        forms_through_points([ProjectivePoint((1, 0, 0, 0))], 0)


def test_forms_through_points_eight_cusps():
    from cuspquartics.geometry import eight_cusp_points
    basis = forms_through_points(eight_cusp_points(), 2)
    assert len(basis) == 2  # rank of the evaluation matrix is 8
    for f in basis:
        for p in eight_cusp_points():
            assert f.evaluate(p.coords) == 0


def test_forms_through_points_contains_known_quadrics(ex62_family, ex62_search):
    fam = ex62_family
    basis = forms_through_points(ex62_search.points, 2)
    for g in (fam.contact_quadric, fam.q12, fam.q21, fam.q22):
        assert in_span(g, basis)
    assert not in_span(fam.ring.gen(0) ** 2, basis)


def test_quadratic_form_matrix(affine3):
    x, y, z = affine3.gens()
    a = quadratic_form_matrix(x * y + z ** 2)
    assert a == [[0, Fraction(1, 2), 0], [Fraction(1, 2), 0, 0], [0, 0, 1]]


# ---------------------------------------------------------------------------
# the derivative route against the substitution route (local_expansion)
# ---------------------------------------------------------------------------

def classify_by_expansion(f, point, chart=None):
    """Classification read from local_expansion's pieces, the oracle."""
    chart, pieces = local_expansion(f, point, chart)
    if 0 in pieces:
        raise ValueError("the point does not lie on the surface")
    if 1 in pieces:
        return SingularityVerdict(point, SingularityKind.SMOOTH, chart,
                                  None, None, None)
    n = f.ring.nvars - 1 if isinstance(point, ProjectivePoint) else f.ring.nvars
    if 2 not in pieces:
        return SingularityVerdict(point, SingularityKind.CORANK_GE2, chart,
                                  0, None, None)
    a = quadratic_form_matrix(pieces[2])
    rank = linalg.rank(a)
    if rank == n:
        return SingularityVerdict(point, SingularityKind.A1, chart, rank,
                                  None, None)
    if rank == n - 1:
        direction = linalg.primitive_integer_vector(linalg.nullspace(a)[0])
        cubic = pieces[3].evaluate(direction) if 3 in pieces else Fraction(0)
        kind = SingularityKind.A2 if cubic != 0 else SingularityKind.AT_LEAST_A3
        return SingularityVerdict(point, kind, chart, rank, direction, cubic)
    return SingularityVerdict(point, SingularityKind.CORANK_GE2, chart, rank,
                              None, None)


def _random_form(rng, ring, degree, variables):
    """Random rational form of the given degree in the listed variables."""
    acc = {}
    for m in product(range(degree + 1), repeat=len(variables)):
        if sum(m) == degree and rng.random() < 0.6:
            exps = [0] * ring.nvars
            for v, e in zip(variables, m):
                exps[v] = e
            acc[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    return ring.from_dict(acc)


def _planted_quartic(rng, ring, kind):
    """A quartic g with the given local type at (0:0:0:1), moved by a random
    integer coordinate change: returns (f, point) with f(x) = g(Mx) and
    M point = (0:0:0:1)."""
    u0, u1, u2, u3 = ring.gens()
    a, b, c = (Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
               for _ in range(3))
    cubic = _random_form(rng, ring, 3, (0, 1, 2))
    cubic = cubic - ring.monomial((0, 0, 3, 0), cubic.coefficient((0, 0, 3, 0)))
    linear = ring.zero()
    quad = {"smooth": a * u0 * u0 + u1 * u2, "A1": a * u0 * u0 + b * u1 * u1 + c * u2 * u2,
            "A2": a * u0 * u0 + b * u1 * u1, "at-least-A3": a * u0 * u1,
            "corank>=2": a * u0 * u0}[kind]
    if kind == "smooth":
        linear = u0 * b + u2 * c
    if kind == "A2":
        cubic = cubic + ring.monomial((0, 0, 3, 0), c)
    g = (linear * u3 ** 3 + quad * u3 * u3 + cubic * u3
         + _random_form(rng, ring, 4, (0, 1, 2)))
    while True:
        m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        if linalg.det(m) != 0:
            break
    images = [sum((ring.gen(j) * m[i][j] for j in range(4)), ring.zero())
              for i in range(4)]
    point = ProjectivePoint([row[3] for row in linalg.inverse(m)])
    return g.substitute(images), point


def test_derivative_classification_matches_expansion(ring, affine3, make_rng):
    rng = make_rng(505)
    y0, y1, y2 = affine3.gens()
    seen_kinds, negative_chart, fractional = set(), False, False
    for _ in range(4):
        for kind in ("smooth", "A1", "A2", "at-least-A3", "corank>=2"):
            f, point = _planted_quartic(rng, ring, kind)
            assert f.evaluate(point.coords) == 0
            fractional |= any(c.denominator != 1 for c in point.coords)
            charts = [None] + [c for c in range(4) if point.coords[c] != 0]
            for chart in charts:
                verdict = classify(f, point, chart)
                assert verdict == classify_by_expansion(f, point, chart)
                assert verdict.kind.value == kind
                negative_chart |= point.integer_coords()[verdict.chart] < 0
                local = LocalData(f, point, chart)
                _, pieces = local_expansion(f, point, chart)
                assert local.piece(1) == pieces.get(1)
                assert local.piece(2) == pieces.get(2)
            seen_kinds.add(kind)
            # affine input: the same surface in the chart x3 = 1
            x3 = point.coords[3]
            if x3 != 0:
                f_aff = f.substitute([y0, y1, y2, affine3.one()])
                at = tuple(c / x3 for c in point.coords[:3])
                verdict = classify(f_aff, at)
                assert verdict == classify_by_expansion(f_aff, at)
                assert verdict.kind.value == kind
                _, pieces = local_expansion(f_aff, at)
                assert LocalData(f_aff, at).piece(2) == pieces.get(2)
    assert len(seen_kinds) == 5 and negative_chart and fractional


def test_derivative_classification_rejects_like_expansion(ring, ex61_family):
    x0 = ring.gen(0)
    for bad in ((ex61_family.quartic, ProjectivePoint((1, 0, 0, 0)), None),
                (ex61_family.quartic, ProjectivePoint((0, 0, 6, 1)), 0),
                (x0 ** 2 + x0, ProjectivePoint((0, 1, 0, 0)), None),
                (ex61_family.quartic, (0, 0, 0), None)):
        with pytest.raises(ValueError):
            classify(*bad)
        with pytest.raises(ValueError):
            classify_by_expansion(*bad)


def _moved_family(family, rng):
    """The family in random integer coordinates (its cusps move along)."""
    ring = family.ring
    while True:
        m = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        if linalg.det(m) != 0:
            break
    images = [sum((ring.gen(j) * m[i][j] for j in range(4)), ring.zero())
              for i in range(4)]
    forms = [f.substitute(images) for f in
             (family.lp, family.lpp, family.fp, family.fpp, family.residual)]
    return build_family(*forms)


def test_divisibility_records_match_expansion(ex61_family, ex62_family, make_rng):
    rng = make_rng(506)
    families = [ex61_family, ex62_family]
    families += [_moved_family(f, rng) for f in (ex61_family, ex62_family)]
    for family in families:
        search = cusp_candidates(family)
        assert len(search.points) == 6
        cert = cusp_divisibility_certificate(family, search.points)
        assert cert.verified
        for point, record in zip(search.points, cert.data["checks"]):
            chart = classify_by_expansion(family.quartic, point).chart
            t_a = local_expansion(family.cubic_a, point, chart)[1][1]
            t_b = local_expansion(family.cubic_b, point, chart)[1][1]
            q2 = local_expansion(family.quartic, point, chart)[1][2]
            scalar = q2.leading_coefficient() / (t_a * t_b).leading_coefficient()
            assert (record["chart"], record["tangent_a"], record["tangent_b"],
                    record["tangent_scalar"]) == (chart, t_a, t_b, scalar)
            assert (t_a * t_b).scale(scalar) == q2


def _affine_cusp():
    y0, y1, y2 = PolyRing(("y0", "y1", "y2"), QQ).gens()
    return y0 * y0 - y1 ** 3 + y2 * y2 * y1


def _x_axis():
    return Line.through(ProjectivePoint((1, 0, 0, 0)),
                        ProjectivePoint((0, 1, 0, 0)), surface_ring())


# each call takes one number; a rational enters as an int, a Fraction or a
# decimal string, and a float is refused with TypeError, never read as its
# binary fraction
RATIONAL_CALLS = {
    "forms_through_points": lambda x: forms_through_points([(x, 1, 0, 0)], 1),
    "LocalData": lambda x: LocalData(_affine_cusp(), (x, 1, 0)).gradient,
    "local_expansion": lambda x: local_expansion(_affine_cusp(), (x, 1, 0)),
    "Line.parametrize": lambda x: _x_axis().parametrize(x, 1),
    "fiber_change": lambda x: fiber_change(twisted_cubic_example(),
                                           ((x, 1), (0, 1))).quadric,
    "eight_cusp_quartic": eight_cusp_quartic,
}
# a word entry must be an integer: int() would truncate 1.5 to 1
WORD_CALLS = {
    "f3_word": lambda x: f3_word((x, -1, 2)),
    "TernaryCode": lambda x: TernaryCode(2, [(x, 1)]).generators,
}


@pytest.mark.parametrize("name", [*RATIONAL_CALLS, *WORD_CALLS])
def test_floats_are_refused_where_exact_numbers_are_read(name):
    if name in RATIONAL_CALLS:
        call = RATIONAL_CALLS[name]
        groups = [(3, Fraction(3), "3"), (Fraction(1, 10), "0.1", "1/10")]
        floats = (3.0, 0.1)
    else:
        call, groups, floats = WORD_CALLS[name], [(2, -1)], (2.0, 1.5)
    for group in groups:
        results = [call(x) for x in group]
        assert all(r == results[0] for r in results), name
    for x in floats:
        with pytest.raises(TypeError):
            call(x)


def test_is_singular_point_needs_a_form(ring):
    x0, x1, _, _ = ring.gens()
    with pytest.raises(ValueError, match="expected a homogeneous form"):
        is_singular_point(x0 ** 2 - x1, ProjectivePoint((0, 0, 0, 1)))


def test_forms_through_no_points_and_through_a_frame(ring):
    # no points: every monomial; the four coordinate points: no linear form
    assert [str(f) for f in forms_through_points([], 1)] == ["x0", "x1", "x2", "x3"]
    frame = [ProjectivePoint(tuple(int(i == j) for j in range(4))) for i in range(4)]
    assert forms_through_points(frame, 1) == []
    assert len(forms_through_points(frame, 2)) == 6
