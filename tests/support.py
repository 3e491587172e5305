"""Shared helpers for the randomized property suites.

Each check_* function runs the stated number of random cases at a given rng
and raises on the first violation; the acceptance suite runs them at the
contract counts, the unit suites reuse them at smaller sizes.  The exact
helpers at the end (``in_span``, ``split_rank2_form``, ``mat_mul``,
``constant_term`` and the JSON views of certificates and codes) serve only
the tests.  So do the references the packed code is checked against: the
exponent-tuple term orders and monomial arithmetic (``order_key``,
``monomial_mul``, ``monomial_div``, ``monomial_lcm``),
``local_expansion``, the substitution route to the local pieces that
``singular.LocalData`` reads from derivatives, ``s_polynomial_formula``,
the textbook S-polynomial in ``Polynomial`` arithmetic, the earlier
definitions of the peak and the pair update on exponent tuples
(``peak_formula``, ``update_pairs_formula``), and the Buchberger loop as it
was before it kept the divisors tail-reduced (``loop_formula``).
``planted_jacobian`` draws the jacobian ideal of a family with planted
cusps, large coefficients included.
"""

from fractions import Fraction
from math import gcd, isqrt

from cuspquartics import geometry, groebner, linalg, singular
from cuspquartics.codes import signed_word
from cuspquartics.geometry import ProjectivePoint, fiber_change
from cuspquartics.groebner import Ideal, buchberger
from cuspquartics.polyring import (
    EXPONENT_CAP,
    GF,
    ORDER_NAMES,
    QQ,
    ExponentOverflowError,
    Polynomial,
    PolyRing,
)
from cuspquartics.singular import (
    SingularityKind,
    _chart,
    _drop,
    affine_chart_ring,
    quadratic_form_matrix,
)


def monomial_mul(a, b):
    m = tuple(x + y for x, y in zip(a, b))
    if any(e > EXPONENT_CAP for e in m):
        raise ExponentOverflowError(f"exponent exceeds cap {EXPONENT_CAP}")
    return m


def monomial_div(a, b):
    """Quotient a/b as a monomial, or None if b does not divide a."""
    q = []
    for x, y in zip(a, b):
        if x < y:
            return None
        q.append(x - y)
    return tuple(q)


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def peak_formula(ring, monomials):
    """The exponentwise maximum of packed monomials, through exponent
    tuples: ``PolyRing.peak`` as it was defined before its packed kernel."""
    return ring.pack(map(max, zip(*map(ring.unpack, monomials))))


def update_pairs_formula(ring, divisors, pairs, t):
    """``groebner._update_pairs`` as it was before it took each lcm once:
    the Gebauer-Moeller update, with lcms recomputed where they are read."""
    lmf = divisors[t][0]
    kept = {}
    for (i, j), lij in pairs.items():
        if (not ring.divides(lmf, lij)
                or lij == peak_formula(ring, (divisors[i][0], lmf))
                or lij == peak_formula(ring, (divisors[j][0], lmf))):
            kept[i, j] = lij
    by_lcm = {}
    for i in range(t):
        by_lcm.setdefault(peak_formula(ring, (divisors[i][0], lmf)), []).append(i)
    minimal = []
    for L in sorted(by_lcm):
        if not any(ring.divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        group = by_lcm[L]
        if any(L == divisors[i][0] + lmf for i in group):
            continue
        kept[min(group), t] = L
    return kept


def loop_formula(ring, gens):
    """``groebner._loop`` as it was before it kept the divisors over QQ
    tail-reduced: each divisor stays as it was appended."""
    G = []
    pairs = {}

    def append(p):
        nonlocal pairs
        G.append(ring.view(p))
        pairs = groebner._update_pairs(ring, G, pairs, len(G) - 1)

    for g in gens:
        append(g)
    while pairs:
        L, (i, j) = min((L, ij) for ij, L in pairs.items())
        del pairs[i, j]
        r = groebner._reduce(ring, groebner._spair(ring, L, G[i], G[j]), G)[0]
        if r:
            append(r)
    return G


def planted_jacobian(rng, bound):
    """The jacobian ideal of a type-I family with six cusps planted on its
    twisted cubic.  In the coordinates u = M x of the forms (Lp, Lpp, Fp,
    Fpp), for an integer matrix M with entries up to ``bound``, the carrier
    curve is (a^2 b, a b^2, a^3, b^3); the contact quadric S is the product
    of two planes through three carrier points each plus a combination of
    the carrier quadrics, with weights up to ``bound``, so S meets the
    carrier in the six points."""
    ring = geometry.surface_ring()
    x = ring.gens()
    params = [(a, b) for a in range(-4, 5) for b in range(1, 4) if gcd(a, b) == 1]
    while True:
        rows = [[rng.randint(-bound, bound) for _ in x] for _ in x]
        if linalg.rank(rows) < len(x):
            continue
        forms = [sum((c * xi for c, xi in zip(row, x)), ring.zero())
                 for row in rows]
        drawn = rng.sample(params, 6)
        s = ring.one()
        for three in (drawn[:3], drawn[3:]):
            points = [(a * a * b, a * b * b, a ** 3, b ** 3) for a, b in three]
            normal = linalg.primitive_integer_vector(linalg.nullspace(points)[0])
            s *= sum((c * f for c, f in zip(normal, forms)), ring.zero())
        for q in geometry.ideal_quadrics(*forms):
            s += rng.choice((1, -1)) * rng.randint(max(1, bound // 3), bound) * q
        try:
            family = geometry.build_family(*forms, s - forms[0] * forms[1])
        except geometry.GeometryError:
            continue
        return singular.jacobian_ideal(family.quartic)


def s_polynomial_formula(f, g):
    """m_f*f/lc(f) - m_g*g/lc(g), for m_f and m_g the cofactors of the two
    leading monomials in their lcm."""
    ring, invert = f.ring, f.ring.domain.invert
    lf, lg = f.leading_monomial(), g.leading_monomial()
    top = monomial_lcm(lf, lg)
    mf = ring.monomial(monomial_div(top, lf), invert(f.leading_coefficient()))
    mg = ring.monomial(monomial_div(top, lg), invert(g.leading_coefficient()))
    return mf * f - mg * g


def order_key(order):
    """Sort key for an order name; larger key = larger monomial."""
    if order == "lex":
        return lambda m: m
    if order == "grlex":
        return lambda m: (sum(m), m)
    if order == "grevlex":
        return lambda m: (sum(m), tuple(-e for e in reversed(m)))
    raise ValueError(f"unknown term order {order!r}; expected one of {ORDER_NAMES}")


def local_expansion(f, point, chart=None):
    """Dehomogenize f in a chart and translate the point to the origin.

    Returns (chart index, {degree: homogeneous piece}) with pieces living in
    the (n-1)-variable affine chart ring.  For affine input (plain coordinate
    tuple) the chart is None and only the translation happens.
    """
    chart = _chart(f, point, chart)
    if chart is None:
        aff = f.ring
        images = [aff.gen(i) + aff.constant(QQ.convert(c))
                  for i, c in enumerate(point)]
    else:
        coords = point.coords
        aff = affine_chart_ring(f.ring.nvars - 1)
        ys = iter(aff.gens())
        images = [aff.one() if i == chart else next(ys) + aff.constant(c / coords[chart])
                  for i, c in enumerate(coords)]
    pieces = {}
    for m, c in f.substitute(images).terms:
        pieces.setdefault(sum(m), {})[m] = c
    return chart, {d: aff.from_dict(terms) for d, terms in pieces.items()}


def random_monomial(rng, nvars, max_degree):
    exps = [0] * nvars
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_polynomial(rng, ring, max_degree=6, max_terms=5, coeff_bound=9,
                      fractions=True):
    acc = {}
    for _ in range(rng.randint(0, max_terms)):
        m = random_monomial(rng, ring.nvars, max_degree)
        c = Fraction(rng.randint(-coeff_bound, coeff_bound))
        if fractions and rng.random() < 0.25:
            c /= rng.randint(2, 4)
        acc[m] = acc.get(m, Fraction(0)) + c
    return ring.from_dict(acc)


def random_nonzero(rng, ring, **kw):
    while True:
        f = random_polynomial(rng, ring, **kw)
        if not f.is_zero():
            return f


def check_ring_axioms(rng, cases):
    ring = PolyRing(("x0", "x1", "x2", "x3"), QQ, "grevlex")
    for _ in range(cases):
        f = random_polynomial(rng, ring, max_degree=6, max_terms=4)
        g = random_polynomial(rng, ring, max_degree=6, max_terms=4)
        h = random_polynomial(rng, ring, max_degree=6, max_terms=4)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f + ring.zero() == f and f * ring.one() == f


def check_order_axioms(rng, cases):
    for order in ("grevlex", "lex", "grlex"):
        key = PolyRing(("x0", "x1", "x2", "x3"), QQ, order).key
        unit = (0, 0, 0, 0)
        for _ in range(cases):
            a = random_monomial(rng, 4, 5)
            b = random_monomial(rng, 4, 5)
            c = random_monomial(rng, 4, 5)
            if key(a) < key(b):
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert key(ac) < key(bc)
            if a != unit:
                assert key(unit) < key(a)
            assert (key(a) < key(b)) + (key(b) < key(a)) + (a == b) == 1


def check_exact_divide_roundtrip(rng, cases):
    ring = PolyRing(("x0", "x1", "x2", "x3"), QQ, "grevlex")
    for _ in range(cases):
        f = random_polynomial(rng, ring, max_degree=3, max_terms=4)
        g = random_nonzero(rng, ring, max_degree=3, max_terms=3)
        q = (f * g).exact_divide(g)
        assert q == f and hash(q) == hash(f)


def check_substitute_homomorphism(rng, cases):
    ring = PolyRing(("x0", "x1", "x2", "x3"), QQ, "grevlex")
    target = PolyRing(("y0", "y1", "y2"), QQ, "grevlex")
    for _ in range(cases):
        images = tuple(random_polynomial(rng, target, max_degree=2, max_terms=3)
                       for _ in range(4))
        f = random_polynomial(rng, ring, max_degree=3, max_terms=3)
        g = random_polynomial(rng, ring, max_degree=3, max_terms=3)
        assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)


def check_parse_format_roundtrip(rng, cases):
    ring = PolyRing(("x0", "x1", "x2", "x3"), QQ, "grevlex")
    for _ in range(cases):
        f = random_polynomial(rng, ring, max_degree=6, max_terms=6)
        g = ring.parse(str(f))
        assert g == f and hash(g) == hash(f)


def _prime_to(rng, p, bound):
    """A random rational whose denominator is prime to p."""
    den = rng.choice([d for d in range(1, 10) if d % p])
    return Fraction(rng.randint(-bound, bound), den)


def _polynomial_prime_to(rng, ring, p, max_degree=3, max_terms=4):
    bound = rng.choice((9, 2 ** 40))
    return ring.from_dict({random_monomial(rng, ring.nvars, max_degree):
                           _prime_to(rng, p, bound)
                           for _ in range(rng.randint(0, max_terms))})


def assert_canonical(f):
    """f is in the stored form: nonzero ints at strictly descending packed
    monomials over one int den; over QQ den is positive and shares no
    factor with all the numerators, over GF(p) the ints are residues in
    [1, p) and den is 1."""
    keys = [m for m, _ in f.items]
    numerators = [c for _, c in f.items]
    assert all(type(c) is int and c for c in numerators), f.items
    assert all(a > b for a, b in zip(keys, keys[1:])), f.items
    assert keys == [f.ring.key(m) for m, _ in f.terms], f.items
    assert type(f.den) is int, f.den
    p = f.ring.modulus
    if p:
        assert all(1 <= c < p for c in numerators) and f.den == 1, f.items
    else:
        assert f.den > 0 and gcd(f.den, *numerators) == 1, (f.items, f.den)


def check_prime_field_reduction(rng, cases):
    """Reducing QQ coefficients mod p commutes with the ring operations,
    and every QQ and GF(p) result is canonical."""
    names = ("x0", "x1", "x2", "x3")
    ring = PolyRing(names, QQ, "grevlex")
    lex = ring.with_order("lex")
    for p in (2, 3, 7, 32003, 2 ** 31 - 1):
        field = PolyRing(names, GF(p), "grevlex")
        red = field.convert

        def agree(over_qq, over_fp):
            assert_canonical(over_qq)
            assert_canonical(over_fp)
            assert red(over_qq) == over_fp

        for _ in range(cases):
            f, g = (_polynomial_prime_to(rng, ring, p) for _ in range(2))
            agree(f + g, red(f) + red(g))
            agree(f - g, red(f) - red(g))
            agree(-f, -red(f))
            agree(f * g, red(f) * red(g))
            c = _prime_to(rng, p, 20)
            agree(f.scale(c), red(f).scale(c))
            n = rng.randint(0, 4)
            agree(f ** n, red(f) ** n)
            if red(g):
                agree((f * g).exact_divide(g),
                      (red(f) * red(g)).exact_divide(red(g)))
            agree(ring.parse(str(f)), field.parse(str(f)))
            agree(lex.convert(f), red(f))
            i = rng.randrange(len(names))
            agree(f.partial_derivative(i), red(f).partial_derivative(i))
            images = [_polynomial_prime_to(rng, ring, p, 2, 3) for _ in names]
            agree(f.substitute(images), red(f).substitute([red(im) for im in images]))
            point = [_prime_to(rng, p, 50) for _ in names]
            value = red(f).evaluate(point)
            assert type(value) is int and 0 <= value < p
            assert GF(p).convert(f.evaluate(point)) == value


def check_groebner_uniqueness(rng, cases):
    """Permuted and rescaled generators give the identical reduced basis.

    Returns the computed bases so callers can audit them.
    """
    bases = []
    for _ in range(cases):
        nvars = rng.choice((2, 3))
        ring = PolyRing(tuple(f"x{i}" for i in range(nvars)), QQ, "grevlex")
        gens = [random_nonzero(rng, ring, max_degree=2, max_terms=3,
                               coeff_bound=4, fractions=False)
                for _ in range(rng.choice((2, 3)))]
        basis = buchberger(Ideal(gens))
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = [g.scale(Fraction(rng.choice((1, 2, 3, -1, -2, 5)),
                                   rng.choice((1, 2, 3))))
                  for g in shuffled]
        again = buchberger(Ideal(scaled))
        assert basis.polys == again.polys
        bases.append(basis)
    return bases


def audit_bases(bases):
    for basis in bases:
        assert basis.verify_buchberger_criterion()


def check_fiber_change_identity(rng, family, cases):
    for _ in range(cases):
        while True:
            a = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                            for _ in range(2)) for _ in range(2))
            if a[0][0] * a[1][1] - a[0][1] * a[1][0] != 0:
                break
        result = fiber_change(family, a)
        assert result.verified


def in_span(f, basis):
    """True iff f is a linear combination of the given forms (exact)."""
    if f.is_zero():
        return True
    mons = sorted({m for g in basis for m, _ in g.terms}
                  | {m for m, _ in f.terms}, key=f.ring.key, reverse=True)
    rows = [[g.coefficient(m) for m in mons] for g in basis]
    rhs_rank = linalg.rank(rows + [[f.coefficient(m) for m in mons]])
    return rhs_rank == linalg.rank(rows)


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


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def constant_term(f):
    zero = (0,) * f.ring.nvars
    for m, c in f.terms:
        if m == zero:
            return c
    return f.ring.domain.zero


def certificate_json(cert):
    return {"claim": cert.claim, "verified": cert.verified,
            "data": _jsonify(cert.data)}


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


def code_json(code):
    return {"length": code.length,
            "dimension": code.dimension,
            "generators": [list(signed_word(g)) for g in code.generators],
            "weight_distribution": {str(k): v for k, v in
                                    sorted(code.weight_distribution().items())},
            "supports": sorted(sorted(s) for s in code.supports())}
