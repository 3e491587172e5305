"""Singularity detection, local classification and machine-checkable certificates.

A point is classified from its exact local data: dehomogenize in a chart,
translate to the origin, split into homogeneous pieces, and read the rank of
the quadratic part.  Rank 3 is an ordinary double point; rank 2 with a cubic
that survives on the kernel line is a cusp; everything degenerate is reported
as such, never coerced.  Certificates bundle the evidence (Groebner bases,
power exponents, tangent factorizations) so each claim can be re-checked from
the stored data alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt

from . import linalg
from .geometry import ProjectivePoint, linear_coefficients, param_ring
from .groebner import Ideal, buchberger, radical_membership
from .polyring import QQ, Polynomial, PolyRing


class CertificateError(Exception):
    """A certificate precondition failed."""


class SingularityKind(Enum):
    SMOOTH = "smooth"
    A1 = "A1"
    A2 = "A2"
    AT_LEAST_A3 = "at-least-A3"
    CORANK_GE2 = "corank>=2"


@dataclass(frozen=True)
class SingularityVerdict:
    point: object
    kind: SingularityKind
    chart: int | None
    quad_rank: int | None
    kernel_direction: tuple | None
    cubic_on_kernel: Fraction | None


@dataclass(frozen=True)
class Certificate:
    claim: str
    data: dict
    verified: bool

    def to_json_dict(self):
        return {"claim": self.claim, "verified": self.verified,
                "data": _jsonify(self.data)}


def _jsonify(value):
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (Polynomial, ProjectivePoint, Fraction)):
        return str(value)
    if isinstance(value, SingularityKind):
        return value.value
    return value


# ---------------------------------------------------------------------------
# local expansion and classification
# ---------------------------------------------------------------------------

def affine_chart_ring(n):
    return PolyRing(tuple(f"y{i}" for i in range(n)), QQ, "grevlex")


def local_expansion(f, point, chart=None):
    """Dehomogenize f in a chart and translate the point to the origin.

    Returns (chart index, {degree: homogeneous piece}) with pieces living in
    the (n-1)-variable affine chart ring.  For affine input (plain coordinate
    tuple) the chart is None and only the translation happens.
    """
    ring = f.ring
    if isinstance(point, ProjectivePoint):
        coords = point.coords
        if len(coords) != ring.nvars:
            raise ValueError("point dimension does not match the ring")
        if not f.is_homogeneous():
            raise ValueError("projective classification needs a homogeneous form")
        if chart is None:
            chart = max(i for i, c in enumerate(coords) if c != 0)
        elif coords[chart] == 0:
            raise ValueError("chosen chart coordinate vanishes at the point")
        scaled = [c / coords[chart] for c in coords]
        aff = affine_chart_ring(ring.nvars - 1)
        images = []
        k = 0
        for i in range(ring.nvars):
            if i == chart:
                images.append(aff.one())
            else:
                images.append(aff.gen(k) + aff.constant(scaled[i]))
                k += 1
        local = f.substitute(images)
    else:
        coords = tuple(Fraction(c) for c in point)
        if len(coords) != ring.nvars:
            raise ValueError("point dimension does not match the ring")
        chart = None
        aff = ring
        images = [aff.gen(i) + aff.constant(coords[i]) for i in range(ring.nvars)]
        local = f.substitute(images)
    pieces = {}
    for m, c in local.terms:
        d = sum(m)
        pieces.setdefault(d, {})[m] = c
    return chart, {d: aff.from_dict(terms) for d, terms in pieces.items()}


def quadratic_form_matrix(f2):
    """Symmetric matrix of a homogeneous quadratic (A_ij = c_ij / 2 off-diagonal)."""
    n = f2.ring.nvars
    a = [[Fraction(0)] * n for _ in range(n)]
    for m, c in f2.terms:
        idx = [i for i, e in enumerate(m) for _ in range(e)]
        i, j = idx[0], idx[1]
        if i == j:
            a[i][i] = c
        else:
            a[i][j] = a[j][i] = c / 2
    return a


def is_singular_point(f, point):
    """True iff every partial derivative vanishes at the point (exactly)."""
    if not f.is_homogeneous():
        raise ValueError("expected a homogeneous form")
    coords = point.coords if isinstance(point, ProjectivePoint) else point
    return all(f.partial_derivative(i).evaluate(coords) == 0
               for i in range(f.ring.nvars))


def classify(f, point, chart=None):
    """Local type of a surface point: smooth, A1, A2, or worse.

    Projective input: homogeneous f plus a ProjectivePoint (the chart
    defaults to the largest-index nonzero coordinate).  Affine input: any f
    plus a coordinate tuple.  The point must lie on f.
    """
    chart, pieces = local_expansion(f, point, chart)
    if 0 in pieces:
        raise ValueError("the point does not lie on the surface")
    if 1 in pieces:
        return SingularityVerdict(point, SingularityKind.SMOOTH, chart,
                                  None, None, None)
    f2 = pieces.get(2)
    n = (f.ring.nvars - 1) if isinstance(point, ProjectivePoint) else f.ring.nvars
    if f2 is None:
        return SingularityVerdict(point, SingularityKind.CORANK_GE2, chart,
                                  0, None, None)
    a = quadratic_form_matrix(f2)
    rank = linalg.rank(a)
    if rank == n:
        return SingularityVerdict(point, SingularityKind.A1, chart, rank,
                                  None, None)
    if rank == n - 1:
        kernel = linalg.nullspace(a)[0]
        direction = linalg.primitive_integer_vector(kernel)
        f3 = pieces.get(3)
        cubic = f3.evaluate(direction) if f3 is not None else Fraction(0)
        kind = SingularityKind.A2 if cubic != 0 else SingularityKind.AT_LEAST_A3
        return SingularityVerdict(point, kind, chart, rank, direction, cubic)
    return SingularityVerdict(point, SingularityKind.CORANK_GE2, chart, rank,
                              None, None)


def transversal_at(f1, f2, f3, point):
    """True iff the three gradients at a common point have rank 3."""
    coords = point.coords if isinstance(point, ProjectivePoint) else point
    for f in (f1, f2, f3):
        if f.evaluate(coords) != 0:
            raise ValueError("the point must lie on all three surfaces")
    rows = [[f.partial_derivative(i).evaluate(coords)
             for i in range(f.ring.nvars)] for f in (f1, f2, f3)]
    return linalg.rank(rows) == 3


# ---------------------------------------------------------------------------
# jacobian ideal and containment certificates
# ---------------------------------------------------------------------------

def jacobian_ideal(f):
    """The ideal of all partial derivatives of a homogeneous form."""
    if f.is_zero():
        raise ValueError("zero polynomial has no jacobian ideal")
    if not f.is_homogeneous():
        raise ValueError("expected a homogeneous form")
    return Ideal.spanned_by([f.partial_derivative(i) for i in range(f.ring.nvars)],
                            ring=f.ring)


def singular_locus_contained_in(f, g, p_max=8, basis=None):
    """Certificate that every singular point of f lies on the hypersurface g.

    Runs the power test: the least p with g**p in the jacobian ideal.  A
    found exponent verifies the claim; exhausting p_max leaves it unverified.
    """
    if basis is None:
        basis = buchberger(jacobian_ideal(f))
    p = radical_membership(g, basis, p_max)
    return Certificate(
        claim=f"all singular points of the quartic lie on {g}",
        data={"surface": f, "hypersurface": g, "exponent": p,
              "p_max": p_max, "basis_size": len(basis)},
        verified=p is not None)


def _gradient_at(f, coords):
    return [f.partial_derivative(i).evaluate(coords) for i in range(f.ring.nvars)]


def _local_linear_part(f, point, chart):
    """Dehomogenized linear piece of f at the point (the tangent form)."""
    _, pieces = local_expansion(f, point, chart)
    return pieces.get(1)


def cusp_divisibility_certificate(family, cusps):
    """Certificate that the given cusps form a three-divisible set.

    At every cusp: (a) both contact cubics and the contact quadric vanish
    while the residual quadric does not; (b) the two cubic tangent planes
    are defined and non-proportional; (c) the local quadratic part of the
    quartic is a nonzero multiple of the product of the two dehomogenized
    tangent forms, so the tangent cone splits into those planes and both
    contact curves are smooth at the cusp.  The triple-contact hypothesis
    itself is witnessed by the sextic identity together with the common
    line of the cube-root forms not lying on the contact quadric.
    """
    ring = family.ring
    records = []
    verified = True
    for point in cusps:
        try:
            verdict = classify(family.quartic, point)
        except ValueError as exc:
            raise CertificateError(str(exc)) from exc
        if verdict.kind is not SingularityKind.A2:
            raise CertificateError(f"{point} is not a cusp of the quartic "
                                   f"(classified {verdict.kind.value})")
        values = {label: f.evaluate(point.coords)
                  for label, f in (("cubic_a", family.cubic_a),
                                   ("cubic_b", family.cubic_b),
                                   ("contact_quadric", family.contact_quadric))}
        if any(v != 0 for v in values.values()):
            raise CertificateError(f"{point} misses a contact surface: {values}")
        r_value = family.residual.evaluate(point.coords)
        if r_value == 0:
            raise CertificateError(f"{point} lies on the residual quadric")
        chart = verdict.chart
        t_a = _local_linear_part(family.cubic_a, point, chart)
        t_b = _local_linear_part(family.cubic_b, point, chart)
        planes_ok = (t_a is not None and t_b is not None
                     and linalg.rank([linear_coefficients(t_a),
                                      linear_coefficients(t_b)]) == 2)
        factor_ok = False
        scalar = None
        if planes_ok:
            _, pieces = local_expansion(family.quartic, point, chart)
            q2 = pieces.get(2)
            product = t_a * t_b
            if q2 is not None and not product.is_zero():
                scalar = q2.leading_coefficient() / product.leading_coefficient()
                factor_ok = scalar != 0 and product.scale(scalar) == q2
        records.append({"point": point, "chart": chart,
                        "residual_value": r_value,
                        "tangent_a": t_a, "tangent_b": t_b,
                        "tangent_scalar": scalar,
                        "planes_independent": planes_ok,
                        "tangent_cone_splits": factor_ok})
        verified = verified and planes_ok and factor_ok
    line_ok = _common_line_off_quadric(family)
    verified = verified and line_ok
    return Certificate(
        claim="the listed cusps form a three-divisible set",
        data={"cusps": list(cusps), "checks": records,
              "common_line_off_contact_quadric": line_ok},
        verified=verified)


def _common_line_off_quadric(family):
    """The line lp = lpp = 0 must not lie on the contact quadric."""
    rows = [linear_coefficients(family.lp), linear_coefficients(family.lpp)]
    span = linalg.nullspace(rows)
    pring = param_ring()
    t0, t1 = pring.gens()
    images = [t0 * a + t1 * b for a, b in zip(span[0], span[1])]
    return not family.contact_quadric.substitute(images).is_zero()


def singular_set_certificate(family, search, p_max=8, basis=None):
    """Certificate that the singular locus is exactly the found cusp set.

    Two halves, as in the Groebner workflow: containment of the singular
    locus in each of the four quadrics through the carrier curve (power
    tests against the jacobian ideal), and the exact finite solution of
    those quadrics' system, which the cusp search already computed.  Both
    halves together pin the singular set.
    """
    if basis is None:
        basis = buchberger(jacobian_ideal(family.quartic))
    hypersurfaces = {"q12": family.q12, "q21": family.q21, "q22": family.q22,
                     "contact_quadric": family.contact_quadric}
    exponents = {}
    contained = True
    for label, g in hypersurfaces.items():
        cert = singular_locus_contained_in(family.quartic, g, p_max, basis)
        exponents[label] = cert.data["exponent"]
        contained = contained and cert.verified
    complete = not search.unresolved
    verdicts = [classify(family.quartic, p) for p in search.points]
    all_singular = all(v.kind is not SingularityKind.SMOOTH for v in verdicts)
    verified = contained and complete and all_singular
    return Certificate(
        claim="the singular locus equals the listed cusp set",
        data={"exponents": exponents, "basis_size": len(basis),
              "intersection_complete": complete,
              "points": list(search.points),
              "verdicts": [v.kind for v in verdicts]},
        verified=verified)


# ---------------------------------------------------------------------------
# linear systems of forms through points
# ---------------------------------------------------------------------------

def _monomials_of_degree(ring, d):
    """All degree-d exponent tuples, descending in the ring order."""
    n = ring.nvars

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for e in range(remaining, -1, -1):
            yield from rec(prefix + (e,), remaining - e, slots - 1)

    return sorted(rec((), d, n), key=ring.key, reverse=True)


def forms_through_points(points, degree, ring=None):
    """Basis of the degree-d forms vanishing at all points (exact null space)."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if ring is None:
        from .geometry import surface_ring
        ring = surface_ring()
    mons = _monomials_of_degree(ring, degree)
    if not points:
        return [ring.monomial(m) for m in mons]
    rows = []
    for p in points:
        coords = p.coords if isinstance(p, ProjectivePoint) else tuple(map(Fraction, p))
        rows.append([_eval_monomial(coords, m) for m in mons])
    kernel = linalg.nullspace(rows)
    if not kernel:
        return []
    canonical, _ = linalg.rref(kernel)
    basis = []
    for row in canonical:
        ints = linalg.primitive_integer_vector(row)
        basis.append(ring.from_dict({m: c for m, c in zip(mons, ints) if c}))
    return basis


def _eval_monomial(coords, m):
    v = Fraction(1)
    for c, e in zip(coords, m):
        v *= c ** e
    return v


def in_span(f, basis):
    """True iff f is a linear combination of the given forms (exact)."""
    if f.is_zero():
        return True
    mons = sorted({m for g in basis for m, _ in g.terms}
                  | {m for m, _ in f.terms}, key=f.ring.key, reverse=True)
    rows = [[g.coefficient(m) for m in mons] for g in basis]
    rhs_rank = linalg.rank(rows + [[f.coefficient(m) for m in mons]])
    return rhs_rank == linalg.rank(rows)


# ---------------------------------------------------------------------------
# rank-2 quadratic form splitting (used to re-check tangent cones)
# ---------------------------------------------------------------------------

def _fraction_sqrt(c):
    if c < 0:
        return None
    num, den = c.numerator, c.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def split_rank2_form(q):
    """Factor a rank-2 quadratic form into two rational linear forms.

    Returns (l1, l2) with q = l1 * l2 exactly, or None when the factors are
    irrational.  The factorization is unique up to scalars and order.
    """
    ring = q.ring
    a_mat = quadratic_form_matrix(q)
    if linalg.rank(a_mat) != 2:
        raise ValueError("expected a quadratic form of rank exactly 2")
    n = ring.nvars
    square_var = next((i for i in range(n) if a_mat[i][i] != 0), None)
    if square_var is None:
        # no squares: some variable sits in exactly one factor
        i = next(i for i in range(n)
                 if any(m[i] > 0 for m, _ in q.terms))
        l_part = ring.from_dict({_drop(m, i): c for m, c in q.terms if m[i] == 1})
        m_part = ring.from_dict({m: c for m, c in q.terms if m[i] == 0})
        if m_part.is_zero():
            return ring.gen(i), l_part
        try:
            quot = m_part.exact_divide(l_part)
        except Exception:
            return None
        return ring.gen(i) + quot, l_part
    i = square_var
    a = a_mat[i][i]
    b = ring.from_dict({_drop(m, i): c for m, c in q.terms if m[i] == 1})
    c_poly = ring.from_dict({m: c for m, c in q.terms if m[i] == 0})
    disc = b * b - c_poly.scale(4 * a)
    root = _square_root_of_square_form(disc)
    if root is None:
        return None
    two_a = Fraction(2) * a
    l1 = ring.gen(i).scale(two_a) + b + root
    l2 = ring.gen(i).scale(two_a) + b - root
    l1 = l1.scale(Fraction(1, 2))
    l2 = l2.scale(Fraction(1, 2) / a)
    assert l1 * l2 == q
    return l1, l2


def _drop(m, i):
    return m[:i] + (m[i] - 1,) + m[i + 1:]


def _square_root_of_square_form(d):
    """Square root of a quadratic form that is the square of a linear form."""
    if d.is_zero():
        return d.ring.zero()
    ring = d.ring
    mat = quadratic_form_matrix(d)
    n = ring.nvars
    j = next((j for j in range(n) if mat[j][j] != 0), None)
    if j is None:
        return None
    s = _fraction_sqrt(mat[j][j])
    if s is None:
        return None
    root = ring.from_dict({tuple(1 if t == m else 0 for t in range(n)): mat[j][m] / s
                           for m in range(n) if mat[j][m] != 0})
    if root * root == d:
        return root
    return None
