"""Quartic surfaces carrying three-divisible cusp configurations.

Builds the determinantal families: two contact cubics and a contact quadric
over a residual quadric, the three quadrics cutting the degree-3 carrier
curve, the quartic itself (a 2x2 determinant, the exact quotient of the
sextic by the residual), configuration classification, cusp search with
exact rational root extraction, parameter changes of the carrier curve, and
the classical eight-cusp quartic family.  Both configuration types find
their carrier on the twisted cubic (t0^2 t1, t0 t1^2, t0^3, t1^3), the
rank-one locus of the three quadrics in the coordinates (lp, lpp, fp, fpp).
"""

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, isqrt

from . import codes, linalg
from .polyring import QQ, PolyRing

SURFACE_VARS = ("x0", "x1", "x2", "x3")
PARAM_VARS = ("t0", "t1")


def surface_ring():
    """The projective coordinate ring QQ[x0..x3]."""
    return PolyRing(SURFACE_VARS, QQ)


def param_ring():
    """The parameter ring QQ[t0, t1] of the carrier curve."""
    return PolyRing(PARAM_VARS, QQ)


class GeometryError(Exception):
    """Base class for construction errors."""


class DependentFormsError(GeometryError):
    """The two cube-root forms are linearly dependent."""


class DegenerateConfigurationError(GeometryError):
    """The four linear forms vanish along a line (coefficient rank <= 2)."""


class InfiniteIntersectionError(GeometryError):
    """The contact quadric contains a whole component of the carrier curve."""


# ---------------------------------------------------------------------------
# points and lines
# ---------------------------------------------------------------------------

class ProjectivePoint:
    """A rational projective point, normalized so equality is structural.

    Coordinates are stored scaled so that the first nonzero one equals 1;
    printing uses the primitive integer representative.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(map(QQ.convert, coords))
        if all(c == 0 for c in coords):
            raise ValueError("projective point needs a nonzero coordinate")
        lead = next(c for c in coords if c != 0)
        self.coords = tuple(c / lead for c in coords)

    def integer_coords(self):
        return linalg.primitive_integer_vector(list(self.coords))

    def __eq__(self, other):
        return isinstance(other, ProjectivePoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        return self.coords < other.coords

    def __str__(self):
        return "(" + " : ".join(str(c) for c in self.integer_coords()) + ")"

    def __repr__(self):
        return f"ProjectivePoint{self.integer_coords()}"


class Line(namedtuple("Line", "point_a point_b equations")):
    """A projective line given by two spanning points and canonical equations."""

    __slots__ = ()

    @staticmethod
    def through(point_a, point_b, ring):
        basis = linalg.nullspace([list(point_a.coords), list(point_b.coords)])
        if len(basis) != 2:
            raise ValueError("coincident points do not span a line")
        canonical, _ = linalg.rref(basis)
        forms = []
        for row in canonical:
            ints = linalg.primitive_integer_vector(row)
            forms.append(sum((ring.gen(i) * int(c) for i, c in enumerate(ints)),
                             ring.zero()))
        return Line(point_a, point_b, tuple(forms))

    def parametrize(self, s, t):
        """Points s*A + t*B with exact scalars."""
        a, b = self.point_a.coords, self.point_b.coords
        s, t = QQ.convert(s), QQ.convert(t)
        return tuple(s * x + t * y for x, y in zip(a, b))

    def restrict(self, f):
        """f along the line: the binary form f(t0*A + t1*B)."""
        return restrict_to_line(f, self.point_a.coords, self.point_b.coords)

    def __str__(self):
        return "{ " + " = ".join(str(f) for f in self.equations) + " = 0 }"


# ---------------------------------------------------------------------------
# configuration and family
# ---------------------------------------------------------------------------

class ConfigurationType(Enum):
    TWISTED_CUBIC = "I"       # the four forms have no common zero
    CONCURRENT_LINES = "II"   # the four planes meet in one point


Configuration = namedtuple("Configuration", "kind vertex lines",
                           defaults=(None, None))


class DivisibleFamily(namedtuple("DivisibleFamily", (
        "lp lpp fp fpp residual cubic_a cubic_b contact_quadric q12 q21 q22 "
        "quartic"))):
    """Input forms plus every derived surface of the construction.

    lp, lpp are the linear forms whose cubes start the contact cubics,
    fp, fpp the companion linear forms, residual the quadric with
    sextic = quartic * residual.  All derived data is exact and canonical.
    The record keeps an instance ``__dict__`` for the cached sextic.
    """

    @cached_property
    def sextic(self):
        return self.cubic_a * self.cubic_b - self.contact_quadric ** 3

    @property
    def ring(self):
        return self.lp.ring

    def forms(self):
        return (self.lp, self.lpp, self.fp, self.fpp)


def _require_linear_form(f, label):
    if f.is_zero() or f.degree() != 1 or not f.is_homogeneous():
        raise GeometryError(f"{label} must be a nonzero linear form")


def _require_quadric(f, label, allow_zero=False):
    if f.is_zero():
        if allow_zero:
            return
        raise GeometryError(f"{label} must be a nonzero quadric")
    if f.degree() != 2 or not f.is_homogeneous():
        raise GeometryError(f"{label} must be homogeneous of degree 2")


def restrict_to_line(f, a, b):
    """The binary form f(t0*a + t1*b) in the parameter ring."""
    t0, t1 = param_ring().gens()
    return f.substitute([t0 * x + t1 * y for x, y in zip(a, b)])


def linear_coefficients(f):
    """Coefficient vector of a linear form."""
    n = f.ring.nvars
    unit = lambda i: tuple(1 if j == i else 0 for j in range(n))
    return [f.coefficient(unit(i)) for i in range(n)]


def _check_form_family(lp, lpp, fp, fpp):
    ring = lp.ring
    for f, label in ((lp, "lp"), (lpp, "lpp"), (fp, "fp"), (fpp, "fpp")):
        if f.ring != ring:
            raise GeometryError("all forms must share one ring")
        _require_linear_form(f, label)
    if ring.nvars != 4:
        raise GeometryError("the construction lives in 4 projective variables")
    if linalg.rank([linear_coefficients(lp), linear_coefficients(lpp)]) != 2:
        raise DependentFormsError("lp and lpp are linearly dependent")
    return ring


def ideal_quadrics(lp, lpp, fp, fpp):
    """The three quadrics cutting the carrier curve of the configuration."""
    _check_form_family(lp, lpp, fp, fpp)
    q12 = lp * fpp - lpp * lpp
    q21 = lpp * fp - lp * lp
    q22 = fp * fpp - lp * lpp
    return q12, q21, q22


def determinantal_quartic(s, q12, q21, q22):
    """det of [[s, q12], [q21, q22 - s]], the quartic's second equation."""
    for f, label in ((s, "s"), (q12, "q12"), (q21, "q21"), (q22, "q22")):
        _require_quadric(f, label, allow_zero=True)
    return s * (q22 - s) - q12 * q21


def build_family(lp, lpp, fp, fpp, residual):
    """Populate the family; the quartic is the 2x2 determinant."""
    q12, q21, q22 = ideal_quadrics(lp, lpp, fp, fpp)
    if residual.ring != lp.ring:
        raise GeometryError("residual quadric must share the forms' ring")
    _require_quadric(residual, "residual")
    contact = residual + lp * lpp
    quartic = determinantal_quartic(contact, q12, q21, q22)
    if quartic.degree() != 4:
        raise GeometryError("degenerate family: the quartic has degree "
                            f"{quartic.degree()}")
    return DivisibleFamily(lp, lpp, fp, fpp, residual, lp ** 3 + fp * residual,
                           lpp ** 3 + fpp * residual, contact, q12, q21, q22,
                           quartic)


def classify_configuration(lp, lpp, fp, fpp):
    """Type I (carrier is a twisted cubic) or type II (cone vertex)."""
    _check_form_family(lp, lpp, fp, fpp)
    kernel = linalg.nullspace([linear_coefficients(f) for f in (lp, lpp, fp, fpp)])
    r = 4 - len(kernel)
    if r == 4:
        return Configuration(ConfigurationType.TWISTED_CUBIC)
    if r == 3:
        vertex = ProjectivePoint(kernel[0])
        return Configuration(ConfigurationType.CONCURRENT_LINES, vertex=vertex)
    raise DegenerateConfigurationError(
        f"the four forms vanish on a positive-dimensional set (rank {r})")


# ---------------------------------------------------------------------------
# rational roots of binary forms (integer coefficient lists, ascending in t0)
# ---------------------------------------------------------------------------

def _divisors(n):
    """The positive divisors of |n| in increasing order ([] for 0)."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _divide_out(c, p, q):
    """The exact quotient of c by q*t0 - p*t1, or None if it does not divide."""
    quotient = [0] * (len(c) - 1)
    g = 0
    for k in range(len(c) - 1, 0, -1):
        g, r = divmod(c[k] + p * g, q)
        if r:
            return None
        quotient[k - 1] = g
    return quotient if c[0] + p * g == 0 else None


def binary_form_roots(form):
    """Projective roots of a binary form plus unresolved root-free factors.

    Returns (roots, unresolved): roots are (t0, t1) fraction pairs, each
    distinct root once; unresolved is a tuple of binary forms (same ring)
    without rational roots, never approximated.  A root p/q in lowest terms
    of the primitive integer form is a factor q*t0 - p*t1 that divides it
    over ZZ (Gauss's lemma), so p runs over the divisors of the t1^d
    coefficient and q over those of the t0^d coefficient.
    """
    if form.is_zero():
        raise ValueError("zero binary form")
    ring = form.ring
    if ring.nvars != 2 or not form.is_homogeneous():
        raise ValueError("expected a homogeneous binary form")
    content = gcd(*(k for _, k in form.items))
    c = [0] * (form.degree() + 1)
    for m, k in form.items:
        c[ring.unpack(m)[0]] = k // content
    roots = []
    if c[-1] == 0:
        roots.append((Fraction(1), Fraction(0)))  # the point at t1 = 0
        while c[-1] == 0:
            c.pop()
    if c[0] == 0:
        roots.append((Fraction(0), Fraction(1)))
        while c[0] == 0:
            c.pop(0)
    for p, q in product(_divisors(c[0]), _divisors(c[-1])):
        if len(c) == 1:
            break
        if gcd(p, q) != 1:
            continue
        for num in (p, -p):
            quotient = _divide_out(c, num, q)
            if quotient is not None:
                roots.append((Fraction(num, q), Fraction(1)))
            while quotient is not None:  # strip the root's multiplicity
                c, quotient = quotient, _divide_out(quotient, num, q)
    if len(c) == 1:
        return roots, ()
    scale = form.leading_coefficient() / c[-1]
    deg = len(c) - 1
    leftover = {(i, deg - i): x * scale for i, x in enumerate(c) if x != 0}
    return roots, (ring.from_dict(leftover),)


# ---------------------------------------------------------------------------
# cusp search
# ---------------------------------------------------------------------------

def twisted_cubic_map():
    """The degree-3 parametrization (t0^2 t1, t0 t1^2, t0^3, t1^3)."""
    t0, t1 = param_ring().gens()
    return (t0 * t0 * t1, t0 * t1 * t1, t0 ** 3, t1 ** 3)


CuspSearch = namedtuple(
    "CuspSearch", "points unresolved configuration binary_form lines",
    defaults=(None, None))


def _verify_on_curve(family, point):
    for f in (family.contact_quadric, family.q12, family.q21, family.q22,
              family.quartic):
        value = f.evaluate(point.coords)
        if value != 0:
            raise AssertionError(f"internal error: candidate {point} misses "
                                 f"{f} (value {value})")


def cusp_candidates(family, config=None, slice_form=None):
    """Exact intersection of the contact quadric with the carrier curve.

    Type I: the four forms are coordinates on P^3, in which the carrier is
    the twisted cubic; pull the quadric back along its parametrization and
    read off the rational roots of the resulting binary sextic.  Type II: the forms map
    P^3 from the vertex onto a plane, which meets the twisted cubic in the
    roots of a binary cubic; each rational root spans a carrier line with
    the vertex, and each line is intersected with the quadric.  A line's
    second spanning point is where it meets ``slice_form`` (default: the
    coordinate hyperplane of the vertex's leading nonzero coordinate), which
    fixes the line order.  Irrational roots stay symbolic in ``unresolved``
    as binary forms in t0, t1.
    """
    if config is None:
        config = classify_configuration(*family.forms())
    if config.kind is ConfigurationType.TWISTED_CUBIC:
        return _cusps_twisted_cubic(family, config)
    return _cusps_concurrent_lines(family, config, slice_form)


def _cusps_twisted_cubic(family, config):
    rows = [linear_coefficients(f) for f in family.forms()]
    inverse = linalg.inverse(rows)
    pring = param_ring()
    phi = twisted_cubic_map()
    # x = inverse . phi(t) is the carrier curve in the original coordinates
    pullback = [sum((phi[j] * inverse[i][j] for j in range(4)), pring.zero())
                for i in range(4)]
    binary = family.contact_quadric.substitute(pullback)
    if binary.is_zero():
        raise InfiniteIntersectionError(
            "the contact quadric vanishes on the whole carrier curve")
    roots, unresolved = binary_form_roots(binary)
    points = []
    for t0v, t1v in roots:
        image = [p.evaluate((t0v, t1v)) for p in phi]
        coords = linalg.mat_vec(inverse, image)
        point = ProjectivePoint(coords)
        _verify_on_curve(family, point)
        points.append(point)
    points.sort()
    return CuspSearch(tuple(points), unresolved, config, binary_form=binary)


def _cusps_concurrent_lines(family, config, slice_form):
    # (lp, lpp, fp, fpp) has rank 3: its kernel is the vertex and its image
    # the plane c.y = 0, so the carrier lines lie over the roots of c.phi(t)
    ring = family.ring
    vertex = config.vertex
    if slice_form is None:
        lead = next(i for i, c in enumerate(vertex.coords) if c != 0)
        slice_form = ring.gen(lead)
    at_vertex = slice_form.evaluate(vertex.coords)
    if at_vertex == 0:
        raise GeometryError("slice hyperplane passes through the vertex")
    rows = [linear_coefficients(f) for f in family.forms()]
    c = linalg.primitive_integer_vector(linalg.nullspace(list(zip(*rows)))[0])
    phi = twisted_cubic_map()
    cubic = sum((p * k for p, k in zip(phi, c)), phi[0].ring.zero())
    if cubic.leading_coefficient() < 0:  # a canonical sign for unresolved
        cubic = -cubic
    roots, unresolved = binary_form_roots(cubic)
    lines = []
    for tau in roots:
        x = linalg.solve(rows, [p.evaluate(tau) for p in phi])
        # the line's second point is where it meets the slice hyperplane
        s = slice_form.evaluate(x) / at_vertex
        point = ProjectivePoint([a - s * b for a, b in zip(x, vertex.coords)])
        line = Line.through(vertex, point, ring)
        for q in (family.q12, family.q21, family.q22):
            if not line.restrict(q).is_zero():
                raise AssertionError("internal error: a carrier line is not "
                                     "contained in the cone")
        lines.append(line)
    lines = tuple(sorted(lines, key=lambda l: l.point_b.coords))
    unresolved = list(unresolved)
    points = []
    for line in lines:
        restricted = line.restrict(family.contact_quadric)
        if restricted.is_zero():
            raise InfiniteIntersectionError(
                "the contact quadric contains a line of the carrier cone")
        roots, extra = binary_form_roots(restricted)
        unresolved += list(extra)
        for s, t in roots:
            point = ProjectivePoint(line.parametrize(s, t))
            _verify_on_curve(family, point)
            points.append(point)
    points = sorted(set(points))
    config = config._replace(lines=lines)
    return CuspSearch(tuple(points), tuple(unresolved), config, lines=lines)


# ---------------------------------------------------------------------------
# parameter change of the carrier curve
# ---------------------------------------------------------------------------

# forms: (lpp_a, lp_a, fpp_a, fp_a), the induced components; quadric: the
# transformed contact quadric Q(a); induced: the four linear components of
# the coordinate map
FiberChange = namedtuple("FiberChange", "forms quadric verified induced")


def fiber_change(family, a):
    """Transform the family's determinantal matrix by a parameter change.

    ``a`` is an invertible 2x2 rational matrix acting on (t0, t1).  Requires
    the family in curve-adapted coordinates (forms equal to the coordinate
    functions).  The 2x2 matrix identity is verified entry by entry, exactly.
    """
    ring = family.ring
    gens = ring.gens()
    if family.forms() != gens:
        raise GeometryError("fiber_change needs the curve-adapted family "
                            "(forms equal to the coordinates)")
    (a00, a01), (a10, a11) = [[QQ.convert(x) for x in row] for row in a]
    det = a00 * a11 - a01 * a10
    if det == 0:
        raise GeometryError("parameter change matrix is singular")
    pring = param_ring()
    t0, t1 = pring.gens()
    u = t0 * a00 + t1 * a01
    v = t0 * a10 + t1 * a11
    components = (u * u * v, u * v * v, u ** 3, v ** 3)
    # write each cubic in the basis (t0^2 t1, t0 t1^2, t0^3, t1^3) = (x0..x3)
    basis_exps = ((2, 1), (1, 2), (3, 0), (0, 3))
    induced = []
    for comp in components:
        induced.append(sum((gens[j] * comp.coefficient(basis_exps[j])
                            for j in range(4)), ring.zero()))
    lpp_a, lp_a, fpp_a, fp_a = induced
    q12_a, q21_a, q22_a = ideal_quadrics(lp_a, lpp_a, fp_a, fpp_a)
    s = family.contact_quadric
    m = ((s, family.q12), (family.q21, family.q22 - s))
    a1 = ((a01, a00), (a11, a10))
    a2 = ((a10, a00), (a11, a01))
    prod = [[ring.zero(), ring.zero()], [ring.zero(), ring.zero()]]
    for i in range(2):
        for j in range(2):
            acc = ring.zero()
            for k in range(2):
                for l in range(2):
                    acc = acc + m[k][l] * (a1[i][k] * a2[l][j])
            prod[i][j] = acc
    d2 = det * det
    quadric = prod[1][1] * d2
    verified = (prod[0][1] * d2 == q12_a
                and prod[1][0] * d2 == q21_a
                and prod[0][0] * d2 == q22_a - quadric)
    return FiberChange((lpp_a, lp_a, fpp_a, fp_a), quadric, verified,
                       tuple(induced))


# ---------------------------------------------------------------------------
# the eight-cusp family and the worked examples
# ---------------------------------------------------------------------------

def eight_cusp_quartic(k):
    """The classical one-parameter quartic with eight singular points."""
    k = QQ.convert(k)
    if k in (0, 1, -1):
        # k = 1 and k = -1 give surfaces singular along curves
        raise ValueError("the family needs k != 0, 1, -1")
    x0, x1, x2, x3 = surface_ring().gens()
    lead = (x0 * x0 * x1 * x1) * (1 + k) ** 3 \
        + (x0 * x1 * x2 * x3) * (2 * k * (1 - k * k)) \
        - (x2 * x2 * x3 * x3) * (1 - k) ** 3
    tail = (x0 + x1 + x2 + x3) * (x2 * x3 * (x0 + x1) * (1 - k)
                                  - x0 * x1 * (x2 + x3) * (1 + k)) \
        * (1 - k) ** 2
    return lead + tail


def eight_cusp_points():
    """The eight singular points, in their customary labelling P1..P8."""
    return tuple(ProjectivePoint(p) for p in codes.EIGHT_CUSP_POINTS)


def twisted_cubic_example():
    """The worked type (I) family: six cusps on a twisted cubic."""
    x0, x1, x2, x3 = surface_ring().gens()
    s = x1 * x1 * 49 + x2 * x2 - x3 * x3 * 36 - x0 * x0 * 14
    return build_family(x0, x1, x2, x3, s - x0 * x1)


def concurrent_lines_example():
    """The worked type (II) family: six cusps on three concurrent lines."""
    x0, x1, x2, x3 = surface_ring().gens()
    fpp = (x1 + x2) * 6 - x0 * 11
    residual = x3 * x3 - x2 * x2 - x0 * x1
    return build_family(x0, x1, x2, fpp, residual)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

MANIFEST_KEYS = ("Lp", "Lpp", "Fp", "Fpp", "R")


def family_to_manifest(family):
    values = (family.lp, family.lpp, family.fp, family.fpp, family.residual)
    return "".join(f"{k} = {v}\n" for k, v in zip(MANIFEST_KEYS, values))


def family_from_manifest(text):
    """Parse a five-line manifest (``key = polynomial``, '#' comments)."""
    ring = surface_ring()
    found = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GeometryError(f"manifest line {lineno}: expected 'key = polynomial'")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in MANIFEST_KEYS:
            raise GeometryError(f"manifest line {lineno}: unknown key {key!r}")
        if key in found:
            raise GeometryError(f"manifest line {lineno}: duplicate key {key!r}")
        found[key] = ring.parse(rhs.strip())
    missing = [k for k in MANIFEST_KEYS if k not in found]
    if missing:
        raise GeometryError(f"manifest is missing keys: {', '.join(missing)}")
    return build_family(found["Lp"], found["Lpp"], found["Fp"], found["Fpp"],
                        found["R"])
