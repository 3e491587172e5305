"""Singularity detection, local classification and machine-checkable certificates.

A point is classified from derivatives: the gradient and Hessian at its
integer representative, rescaled by homogeneity to the chart where it is 1.
The rank of the Hessian on the chart coordinates gives the type: rank 3 is
an ordinary double point; rank 2 with a cubic that survives on the kernel
line is a cusp; everything degenerate is reported as such, never coerced.
``Analysis`` computes each artifact of one family once.  Certificates bundle
the evidence (Groebner bases, power exponents, tangent factorizations) so
each claim can be re-checked from the stored data alone.
"""

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import gcd, prod

from . import groebner, linalg
from .geometry import (
    ProjectivePoint,
    cusp_candidates,
    linear_coefficients,
    restrict_to_line,
    surface_ring,
)
from .polyring import QQ, PolyRing


class CertificateError(Exception):
    """A certificate precondition failed."""


class SingularityKind(Enum):
    SMOOTH = "smooth"
    A1 = "A1"
    A2 = "A2"
    AT_LEAST_A3 = "at-least-A3"
    CORANK_GE2 = "corank>=2"


SingularityVerdict = namedtuple(
    "SingularityVerdict",
    "point kind chart quad_rank kernel_direction cubic_on_kernel")

Certificate = namedtuple("Certificate", "claim data verified")


# ---------------------------------------------------------------------------
# local data and classification
# ---------------------------------------------------------------------------

def affine_chart_ring(n):
    return PolyRing(tuple(f"y{i}" for i in range(n)), QQ, "grevlex")


def _chart(f, point, chart):
    """The checked chart of a projective point; None for a coordinate tuple."""
    projective = isinstance(point, ProjectivePoint)
    coords = point.coords if projective else tuple(point)
    if len(coords) != f.ring.nvars:
        raise ValueError("point dimension does not match the ring")
    if projective and not f.is_homogeneous():
        raise ValueError("projective classification needs a homogeneous form")
    if projective and chart is None:
        return max(i for i, c in enumerate(coords) if c != 0)
    if projective and coords[chart] == 0:
        raise ValueError("chosen chart coordinate vanishes at the point")
    return chart if projective else None


def _drop(m, i):
    return m[:i] + (m[i] - 1,) + m[i + 1:]


def _derivatives(terms, x):
    """Value, gradient and Hessian of sum(c * x^m) at x, in one pass."""
    n, top = len(x), max((max(m) for m, _ in terms), default=0)
    powers = [[xi ** e for e in range(top + 1)] for xi in x]
    at = lambda e: prod(row[k] for row, k in zip(powers, e))
    value, grad, hess = 0, [0] * n, [[0] * n for _ in range(n)]
    for m, c in terms:
        value += c * at(m)
        for i in range(n):
            if m[i]:
                e = _drop(m, i)
                grad[i] += c * m[i] * at(e)
                for j in range(n):
                    if e[j]:
                        hess[i][j] += c * m[i] * e[j] * at(_drop(e, j))
    return value, grad, hess


def _line_coefficient(terms, x, w, k):
    """The coefficient of t^k in sum(c * (x + t*w)^m)."""
    total = 0
    for m, c in terms:
        coeffs = [c]
        for xi, wi, e in zip(x, w, m):
            for _ in range(e):
                coeffs = [a * xi + b * wi
                          for a, b in zip(coeffs + [0], [0] + coeffs)][:k + 1]
        if len(coeffs) > k:
            total += coeffs[k]
    return total


class LocalData:
    """Value, gradient and Hessian of a form f at a point, from derivatives.

    A projective point p with chart coordinate 1 is taken at its primitive
    integer representative x = lam*p, and f as F = den*f, its stored integer
    numerators over their gcd, so den = f.den / gcd.  For f of degree d,
    d^k f(p) = d^k F(x) / (den*lam^(d-k)):
    zero tests, ranks and kernels read the integers at x.  The chart pieces
    f(p), grad f(p).y, (1/2) y^T H(p) y, ... are the ones that substituting
    the chart and the translation into f gives (``local_expansion`` in the
    tests does that, as the oracle).  Affine input (a coordinate tuple):
    lam = 1.
    """

    def __init__(self, f, point, chart=None):
        self.point, self.ring, self.chart = point, f.ring, _chart(f, point, chart)
        self.free = [i for i in range(f.ring.nvars) if i != self.chart]
        if self.chart is None:
            self.x, self.lam, self.degree = tuple(map(QQ.convert, point)), 1, 0
        else:
            self.x = point.integer_coords()
            self.lam, self.degree = self.x[self.chart], f.degree()
        g = gcd(*(c for _, c in f.items)) or 1
        self.den = Fraction(f.den, g)
        self.terms = [(f.ring.unpack(m), c // g) for m, c in f.items]
        self.value, self.gradient, self.hessian = _derivatives(self.terms, self.x)

    def _scale(self, k):
        """den * lam^(d - k), the divisor taking d^k F(x) to d^k f(p)."""
        return self.den * Fraction(self.lam) ** (self.degree - k)

    def piece(self, k):
        """The local piece of degree k = 1 or 2 in the chart ring; None if 0."""
        n, scale = len(self.free), self._scale(k)
        unit = lambda *idx: tuple(sum(t == i for i in idx) for t in range(n))
        if k == 1:
            terms = {unit(a): self.gradient[i] / scale for a, i in enumerate(self.free)}
        else:
            terms = {}
            for a, i in enumerate(self.free):
                for b in range(a, n):
                    h = self.hessian[i][self.free[b]] / scale
                    terms[unit(a, b)] = h / 2 if a == b else h
        ring = self.ring if self.chart is None else affine_chart_ring(n)
        return ring.from_dict(terms) or None

    @cached_property
    def verdict(self):
        """The local type at the point, which must lie on the form."""
        if self.value:
            raise ValueError("the point does not lie on the surface")
        free, kind = self.free, SingularityKind.CORANK_GE2
        rank = direction = cubic = None
        quad = [[self.hessian[i][j] for j in free] for i in free]
        if any(self.gradient[i] for i in free):
            kind = SingularityKind.SMOOTH
        elif not (kernel := linalg.nullspace(quad)):
            kind, rank = SingularityKind.A1, len(free)
        elif (rank := len(free) - len(kernel)) == len(free) - 1 > 0:
            direction = linalg.primitive_integer_vector(kernel[0])
            w = list(direction)
            if self.chart is not None:
                w.insert(self.chart, 0)
            cubic = _line_coefficient(self.terms, self.x, w, 3) / self._scale(3)
            kind = SingularityKind.A2 if cubic != 0 else SingularityKind.AT_LEAST_A3
        return SingularityVerdict(self.point, kind, self.chart, rank, direction, cubic)


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
    return not any(LocalData(f, point).gradient)


def classify(f, point, chart=None):
    """Local type of a surface point: smooth, A1, A2, or worse.

    Projective input: homogeneous f plus a ProjectivePoint (the chart
    defaults to the largest-index nonzero coordinate).  Affine input: any f
    plus a coordinate tuple.  The point must lie on f.
    """
    return LocalData(f, point, chart).verdict


def transversal_at(f1, f2, f3, point):
    """True iff the three gradients at a common point have rank 3."""
    return _transversal([LocalData(f, point) for f in (f1, f2, f3)])


def _transversal(local):
    if any(data.value for data in local):
        raise ValueError("the point must lie on all three surfaces")
    return linalg.rank([data.gradient for data in local]) == 3


# ---------------------------------------------------------------------------
# jacobian ideal and containment certificates
# ---------------------------------------------------------------------------

def jacobian_ideal(f):
    """The ideal of all partial derivatives of a homogeneous form."""
    if f.is_zero():
        raise ValueError("zero polynomial has no jacobian ideal")
    if not f.is_homogeneous():
        raise ValueError("expected a homogeneous form")
    return groebner.Ideal.spanned_by(list(f.gradient()), ring=f.ring)


def singular_locus_contained_in(f, g, p_max=8, basis=None):
    """Certificate that every singular point of f lies on the hypersurface g.

    Runs the power test: the least p with g**p in the jacobian ideal.  A
    found exponent verifies the claim; exhausting p_max leaves it unverified.
    """
    if basis is None:
        basis = groebner.buchberger(jacobian_ideal(f))
    p = groebner.radical_membership(g, basis, p_max)
    return Certificate(
        claim=f"all singular points of the quartic lie on {g}",
        data={"surface": f, "hypersurface": g, "exponent": p,
              "p_max": p_max, "basis_size": len(basis)},
        verified=p is not None)


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
    return Analysis(family).divisibility_certificate(cusps)


def _common_line_off_quadric(family):
    """The line lp = lpp = 0 must not lie on the contact quadric."""
    rows = [linear_coefficients(family.lp), linear_coefficients(family.lpp)]
    span = linalg.nullspace(rows)
    return not restrict_to_line(family.contact_quadric, *span).is_zero()


def singular_set_certificate(family, search, p_max=8, basis=None):
    """Certificate that the singular locus is exactly the found cusp set.

    Two halves, as in the Groebner workflow: containment of the singular
    locus in each of the four quadrics through the carrier curve (power
    tests against the jacobian ideal), and the exact finite solution of
    those quadrics' system, which the cusp search already computed.  Both
    halves together pin the singular set.
    """
    return Analysis(family, p_max, search, basis).singular_set_certificate()


# ---------------------------------------------------------------------------
# one analysis pass per family
# ---------------------------------------------------------------------------

class Analysis:
    """One family's cusp search (with its configuration), jacobian basis,
    radical exponents and local data at each point, each computed on first
    use and kept; the certificates read them.  A given ``search`` or
    ``basis`` takes the place of the computed one.
    """

    CARRIER_QUADRICS = ("q12", "q21", "q22", "contact_quadric")

    def __init__(self, family, p_max=8, search=None, basis=None):
        self.family, self.p_max = family, p_max
        if search is not None:
            self.search = search
        if basis is not None:
            self.basis = basis
        self._local = {}

    @cached_property
    def search(self):
        return cusp_candidates(self.family)

    @cached_property
    def basis(self):
        return groebner.buchberger(jacobian_ideal(self.family.quartic))

    @cached_property
    def containment(self):
        """{label: containment certificate} for each carrier quadric."""
        return {label: singular_locus_contained_in(
                    self.family.quartic, getattr(self.family, label),
                    self.p_max, self.basis)
                for label in self.CARRIER_QUADRICS}

    def local(self, point, form="quartic"):
        """The local data of one of the family's forms at a point."""
        key = (form, point)
        if key not in self._local:
            self._local[key] = LocalData(getattr(self.family, form), point)
        return self._local[key]

    def verdict(self, point):
        return self.local(point).verdict

    def transversal(self, point):
        """True iff the contact cubics and quadric meet transversally there."""
        return _transversal([self.local(point, form) for form in
                             ("cubic_a", "cubic_b", "contact_quadric")])

    def divisibility_certificate(self, cusps):
        family = self.family
        records = []
        verified = True
        for point in cusps:
            try:
                verdict = self.verdict(point)
            except ValueError as exc:
                raise CertificateError(str(exc)) from exc
            if verdict.kind is not SingularityKind.A2:
                raise CertificateError(f"{point} is not a cusp of the quartic "
                                       f"(classified {verdict.kind.value})")
            values = {label: getattr(family, label).evaluate(point.coords)
                      for label in ("cubic_a", "cubic_b", "contact_quadric")}
            if any(v != 0 for v in values.values()):
                raise CertificateError(f"{point} misses a contact surface: {values}")
            r_value = family.residual.evaluate(point.coords)
            if r_value == 0:
                raise CertificateError(f"{point} lies on the residual quadric")
            t_a = self.local(point, "cubic_a").piece(1)
            t_b = self.local(point, "cubic_b").piece(1)
            planes_ok = (t_a is not None and t_b is not None
                         and linalg.rank([linear_coefficients(t_a),
                                          linear_coefficients(t_b)]) == 2)
            factor_ok = False
            scalar = None
            if planes_ok:
                q2 = self.local(point).piece(2)
                product = t_a * t_b
                if q2 is not None and not product.is_zero():
                    scalar = q2.leading_coefficient() / product.leading_coefficient()
                    factor_ok = scalar != 0 and product.scale(scalar) == q2
            records.append({"point": point, "chart": verdict.chart,
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

    def singular_set_certificate(self):
        exponents = {label: cert.data["exponent"]
                     for label, cert in self.containment.items()}
        contained = all(cert.verified for cert in self.containment.values())
        complete = not self.search.unresolved
        verdicts = [self.verdict(p) for p in self.search.points]
        all_singular = all(v.kind is not SingularityKind.SMOOTH for v in verdicts)
        return Certificate(
            claim="the singular locus equals the listed cusp set",
            data={"exponents": exponents, "basis_size": len(self.basis),
                  "intersection_complete": complete,
                  "points": list(self.search.points),
                  "verdicts": [v.kind for v in verdicts]},
            verified=contained and complete and all_singular)


# ---------------------------------------------------------------------------
# linear systems of forms through points
# ---------------------------------------------------------------------------

def forms_through_points(points, degree):
    """Basis of the degree-d forms vanishing at all points (exact null space)."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    ring = surface_ring()
    n = ring.nvars
    # every degree-d exponent tuple, descending in the ring order
    mons = sorted((tuple(c.count(i) for i in range(n)) for c in
                   combinations_with_replacement(range(n), degree)),
                  key=ring.key, reverse=True)
    if not points:
        return [ring.monomial(m) for m in mons]
    rows = []
    for p in points:
        coords = p.coords if isinstance(p, ProjectivePoint) else tuple(map(QQ.convert, p))
        rows.append([prod(c ** e for c, e in zip(coords, m)) for m in mons])
    canonical, _ = linalg.rref(linalg.nullspace(rows))
    basis = []
    for row in canonical:
        ints = linalg.primitive_integer_vector(row)
        basis.append(ring.from_dict({m: c for m, c in zip(mons, ints) if c}))
    return basis
