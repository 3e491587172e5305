"""Seeded quartic families whose cusps are known before the program runs.

Every family is built in the coordinates u = M x adapted to the four linear
forms (Lp, Lpp, Fp, Fpp) = M x.  The contact quadric S = R + Lp*Lpp is the
product of two planes through the planted cusps plus a combination of the
three quadrics q12, q21, q22 that cut the carrier curve, so S meets the
carrier exactly in the planted points.  All arithmetic here is the
benchmark's own: sparse polynomials are dicts {exponent tuple: Fraction}.

Parameters are distinct and the weights of the carrier quadrics nonzero by
construction.  A draw is rejected, and the next one taken, when an
independent condition says the family is degenerate: a singular form
matrix, a planted point on the residual quadric, a plane or the quadric S
through the cone vertex, the line Lp = Lpp = 0 lying on S, contact
surfaces that are not transversal at a cusp, or a planted point that is
not an A2 point of the quartic.  The program is never run to decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

NVARS = 4


# ---------------------------------------------------------------------------
# sparse polynomials over QQ in x0..x3
# ---------------------------------------------------------------------------

def unit(i):
    return tuple(1 if j == i else 0 for j in range(NVARS))


def linear(coeffs):
    return {unit(i): Fraction(c) for i, c in enumerate(coeffs) if c != 0}


def add(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def scale(p, c):
    c = Fraction(c)
    return {m: c * v for m, v in p.items()} if c else {}


def sub(p, q):
    return add(p, scale(q, -1))


def mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def diff(p, i):
    out = {}
    for m, c in p.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
    return out


def evaluate(p, point):
    total = Fraction(0)
    for m, c in p.items():
        term = c
        for x, e in zip(point, m):
            if e:
                term *= x ** e
        total += term
    return total


def compose_linear(p, rows):
    """p(M x) for the 4x4 matrix M given by its rows."""
    images = [linear(row) for row in rows]
    out = {}
    for m, c in p.items():
        term = {tuple([0] * NVARS): Fraction(c)}
        for i, e in enumerate(m):
            for _ in range(e):
                term = mul(term, images[i])
        out = add(out, term)
    return out


def fmt(p):
    """Text in the program's polynomial grammar (explicit '*', '^', a/b)."""
    if not p:
        return "0"
    chunks = []
    for m in sorted(p, key=lambda m: (-sum(m), [-e for e in m])):
        c = p[m]
        mag = -c if c < 0 else c
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}"
                   for i, e in enumerate(m) if e]
        coeff = str(mag.numerator) if mag.denominator == 1 \
            else f"{mag.numerator}/{mag.denominator}"
        if not factors:
            body = coeff
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = coeff + "*" + "*".join(factors)
        sign = "-" if c < 0 else "+"
        chunks.append(("-" + body) if not chunks and c < 0
                      else body if not chunks else f" {sign} {body}")
    return "".join(chunks)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(rows):
    return len(rref(rows)[1]) if rows else 0


def kernel(rows, ncols=NVARS):
    red, pivots = rref(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """The unique solution of a square invertible system."""
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots != list(range(len(rows))):
        raise ValueError("singular system")
    return [row[-1] for row in red]


def normalize(point):
    """Projective representative whose first nonzero coordinate is 1."""
    lead = next(c for c in point if c != 0)
    return tuple(Fraction(c) / lead for c in point)


# ---------------------------------------------------------------------------
# the determinantal construction
# ---------------------------------------------------------------------------

def carrier_quadrics(lp, lpp, fp, fpp):
    q12 = sub(mul(lp, fpp), mul(lpp, lpp))
    q21 = sub(mul(lpp, fp), mul(lp, lp))
    q22 = sub(mul(fp, fpp), mul(lp, lpp))
    return q12, q21, q22


def quartic_of(lp, lpp, fp, fpp, s):
    """det [[S, q12], [q21, q22 - S]]."""
    q12, q21, q22 = carrier_quadrics(lp, lpp, fp, fpp)
    return sub(mul(s, sub(q22, s)), mul(q12, q21))


def is_a2_point(f, point):
    """A2 test from derivatives: gradient 0, 4x4 Hessian of rank 2, and a
    nonzero cubic term along the kernel direction that is not the point."""
    if any(evaluate(diff(f, i), point) != 0 for i in range(NVARS)):
        return False
    second = [[diff(diff(f, i), j) for j in range(NVARS)] for i in range(NVARS)]
    hessian = [[evaluate(second[i][j], point) for j in range(NVARS)]
               for i in range(NVARS)]
    if rank(hessian) != 2:
        return False
    # the kernel contains the point itself (Euler); take a vector off it
    v = next(k for k in kernel(hessian) if rank([k, list(point)]) == 2)
    cubic = Fraction(0)
    for i in range(NVARS):
        for j in range(NVARS):
            for k in range(NVARS):
                cubic += (evaluate(diff(second[i][j], k), point)
                          * v[i] * v[j] * v[k])
    return cubic != 0


def gradient_rank(polys, point):
    return rank([[evaluate(diff(p, i), point) for i in range(NVARS)]
                 for p in polys])


@dataclass(frozen=True)
class Family:
    """A planted family: manifest forms, its quartic and its cusps."""

    kind: str                # "I" or "II"
    forms: tuple             # (Lp, Lpp, Fp, Fpp) as polynomials
    residual: dict
    quartic: dict
    cusps: tuple             # normalized planted points

    def manifest(self):
        names = ("Lp", "Lpp", "Fp", "Fpp", "R")
        values = tuple(self.forms) + (self.residual,)
        return "".join(f"{k} = {fmt(v)}\n" for k, v in zip(names, values))

    def jacobian_text(self):
        """The four partial derivatives of the quartic, one per line."""
        return "".join(fmt(diff(self.quartic, i)) + "\n" for i in range(NVARS))


def _accept(kind, forms, s, cusps, vertex=None):
    """Build the family, or None when an independent check fails."""
    lp, lpp, fp, fpp = forms
    residual = sub(s, mul(lp, lpp))
    if any(evaluate(residual, p) == 0 for p in cusps):
        return None
    # the line Lp = Lpp = 0 must not lie on S: a binary quadric vanishing
    # at three points of a line vanishes on it
    a, b = kernel([[lp.get(unit(i), 0) for i in range(NVARS)],
                   [lpp.get(unit(i), 0) for i in range(NVARS)]])
    if all(evaluate(s, p) == 0 for p in (a, b, [x + y for x, y in zip(a, b)])):
        return None
    if vertex is not None and evaluate(s, vertex) == 0:
        return None
    cubic_a = add(mul(mul(lp, lp), lp), mul(fp, residual))
    cubic_b = add(mul(mul(lpp, lpp), lpp), mul(fpp, residual))
    quartic = quartic_of(lp, lpp, fp, fpp, s)
    for p in cusps:
        if gradient_rank((cubic_a, cubic_b, s), p) != 3:
            return None
        if not is_a2_point(quartic, p):
            return None
    return Family(kind, tuple(forms), residual, quartic,
                  tuple(sorted(normalize(p) for p in cusps)))


SMALL_PARAMS = ((1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (1, 3))


def spread_params(high):
    """Six magnitudes (a, b) with numerators and denominators evenly spaced
    up to ``high``, paired so that the ratios are distinct."""
    nums = [round(3 + (high - 3) * i / 5) for i in range(6)]
    dens = [round(2 + (high - 4) * i / 5) for i in reversed(range(6))]
    return tuple(zip(nums, dens))


def _signed_params(rng, magnitudes):
    """The seed picks the signs of the numerators and the order."""
    params = [(a * rng.choice((1, -1)), b) for a, b in magnitudes]
    rng.shuffle(params)
    return params


def _twisted_cubic_point(a, b):
    """phi(t0, t1) = (t0^2 t1, t0 t1^2, t0^3, t1^3) in adapted coordinates."""
    a, b = Fraction(a), Fraction(b)
    return [a * a * b, a * b * b, a ** 3, b ** 3]


def _plane_through_curve_points(params):
    """The plane meeting the twisted cubic in the three given parameters.

    Its restriction to the curve is prod (b t0 - a t1), a binary cubic with
    coefficients (k3, k2, k1, k0) on t0^3, t0^2 t1, t0 t1^2, t1^3, which in
    adapted coordinates is k2 u0 + k1 u1 + k3 u2 + k0 u3.
    """
    cubic = [Fraction(1)]                  # coefficients on t0^(deg - i) t1^i
    for a, b in params:
        nxt = [Fraction(0)] * (len(cubic) + 1)
        for i, c in enumerate(cubic):
            nxt[i] += c * b
            nxt[i + 1] -= c * a
        cubic = nxt
    k3, k2, k1, k0 = cubic
    return [k2, k1, k3, k0]


def _random_matrix(rng, bound):
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(NVARS)]
             for _ in range(NVARS)]
        if rank(m) == NVARS:
            return m


def _random_spread(rng, bound):
    """An integer of size about ``bound``: magnitude in [bound/3, bound]."""
    return rng.choice((1, -1)) * rng.randint(max(1, bound // 3), bound)


def type_one(rng, form_bound, quad_bound, magnitudes=SMALL_PARAMS):
    """Six cusps on a twisted cubic, at planted parameters a/b.

    ``form_bound`` bounds the entries of M; the weights of the carrier
    quadrics in S have magnitudes in [quad_bound/3, quad_bound].  The
    parameters have the given magnitudes, which fix the size of the cusp
    coordinates and of the binary sextic the cusp search factors.
    """
    while True:
        m = _random_matrix(rng, form_bound)
        drawn = _signed_params(rng, magnitudes)
        cusps = [solve(m, _twisted_cubic_point(a, b)) for a, b in drawn]
        forms = tuple(linear(row) for row in m)
        plane_a = linear(_plane_through_curve_points(drawn[:3]))
        plane_b = linear(_plane_through_curve_points(drawn[3:]))
        u = [linear(unit(i)) for i in range(NVARS)]
        carrier = carrier_quadrics(*u)
        s_u = mul(plane_a, plane_b)
        for q in carrier:
            s_u = add(s_u, scale(q, _random_spread(rng, quad_bound)))
        s = compose_linear(s_u, m)
        family = _accept("I", forms, s, cusps)
        if family is not None:
            return family


def type_two(rng, bound):
    """Six cusps, two on each of three concurrent lines through a vertex.

    The vertex and the three forms Lp, Lpp, Fp vanishing at it have entries
    bounded by ``bound``; Fpp is the combination of them that vanishes on
    the three lines."""
    while True:
        vertex = [Fraction(rng.randint(-bound, bound)) for _ in range(NVARS)]
        if not any(vertex):
            continue
        ell = []
        while len(ell) < 3:
            row = [rng.randint(-bound, bound) for _ in range(NVARS)]
            if evaluate(linear(row), vertex) == 0 and rank(ell + [row]) > len(ell):
                ell.append(row)
        lead = next(i for i, c in enumerate(vertex) if c != 0)
        # lines: ell(x) proportional to (a^2 b, a b^2, a^3) with a = +-1
        bs = rng.sample((1, 2, 3, 4), 3)
        params = [(rng.choice((1, -1)), b) for b in bs]
        targets = [_twisted_cubic_point(a, b) for a, b in params]
        # Fpp = c0 Lp + c1 Lpp + c2 Fp must equal t1^3 at the three params
        c = solve([t[:3] for t in targets], [t[3] for t in targets])
        fpp_row = [sum(c[k] * ell[k][i] for k in range(3)) for i in range(NVARS)]
        cusps = []
        for t in targets:
            rows = [list(r) for r in ell] + [unit(lead)]
            w = solve(rows, t[:3] + [0])
            shifts = rng.sample((-2, -1, 1, 2), 2)
            cusps += [[x + k * y for x, y in zip(w, vertex)] for k in shifts]
        first, second = cusps[0::2], cusps[1::2]
        planes = [kernel(pts)[0] for pts in (first, second)]
        if any(sum(x * y for x, y in zip(pl, vertex)) == 0 for pl in planes):
            continue
        forms = tuple(linear(row) for row in ell) + (linear(fpp_row),)
        s = mul(linear(planes[0]), linear(planes[1]))
        for q in carrier_quadrics(*forms):
            s = add(s, scale(q, _random_spread(rng, bound)))
        family = _accept("II", forms, s, cusps, vertex=vertex)
        if family is not None:
            return family


# ---------------------------------------------------------------------------
# the eight-cusp family and its support families
# ---------------------------------------------------------------------------

EIGHT_POINTS = ((1, 0, -1, 0), (1, 0, 0, -1), (0, 1, -1, 0), (0, 1, 0, -1),
                (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def barth_k(rng):
    """A rational k outside {0, 1, -1}."""
    while True:
        k = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 5))
        if k not in (0, 1, -1):
            return k


def eight_cusp_quartic(k):
    """The one-parameter quartic through the eight points, from its formula:
    (1+k)^3 x0^2 x1^2 + 2k(1-k^2) x0 x1 x2 x3 - (1-k)^3 x2^2 x3^2
    + (1-k)^2 (x0+x1+x2+x3)((1-k) x2 x3 (x0+x1) - (1+k) x0 x1 (x2+x3))."""
    k = Fraction(k)
    x = [linear(unit(i)) for i in range(NVARS)]
    lead = add(scale(mul(mul(x[0], x[0]), mul(x[1], x[1])), (1 + k) ** 3),
               scale(mul(mul(x[0], x[1]), mul(x[2], x[3])), 2 * k * (1 - k * k)),
               scale(mul(mul(x[2], x[2]), mul(x[3], x[3])), -(1 - k) ** 3))
    total = add(*x)
    inner = sub(scale(mul(mul(x[2], x[3]), add(x[0], x[1])), 1 - k),
                scale(mul(mul(x[0], x[1]), add(x[2], x[3])), 1 + k))
    return add(lead, scale(mul(total, inner), (1 - k) ** 2))


def corner_determinant(f):
    """det of the local quadratic form at (1:0:0:0) in the chart x0 = 1."""
    second = [[evaluate(diff(diff(f, i), j), (1, 0, 0, 0)) / 2
               for j in range(1, NVARS)] for i in range(1, NVARS)]
    (a, b, c), (d, e, g), (h, i, j) = second
    return a * (e * j - g * i) - b * (d * j - g * h) + c * (d * i - e * h)


def divisible_support_families(points=EIGHT_POINTS, swaps=((0, 1), (2, 3))):
    """Support families of [8,2,{6}] codes that pass the program's filters.

    By Bonisoli's theorem such a code is a replicated simplex code, so its
    four supports are the complements of the pairs of a perfect matching
    of {1..8}.  Keep the families invariant under the coordinate swaps and
    with no support containing five coplanar points.
    """
    n = len(points)
    index = {normalize(p): i for i, p in enumerate(points)}
    perms = []
    for i, j in swaps:
        perm = []
        for p in points:
            q = list(p)
            q[i], q[j] = q[j], q[i]
            perm.append(index[normalize(q)])
        perms.append(perm)

    def matchings(rest):
        if not rest:
            yield []
            return
        first = rest[0]
        for other in rest[1:]:
            left = [x for x in rest if x not in (first, other)]
            for m in matchings(left):
                yield [(first, other)] + m

    coplanar = {frozenset(s) for s in combinations(range(n), 5)
                if rank([list(points[i]) for i in s]) <= 3}
    kept = []
    all_matchings = list(matchings(list(range(n))))
    for m in all_matchings:
        family = frozenset(frozenset(set(range(n)) - set(pair)) for pair in m)
        if any(frozenset(frozenset(perm[i] for i in s) for s in family) != family
               for perm in perms):
            continue
        if any(c <= s for s in family for c in coplanar):
            continue
        kept.append(sorted(sorted(i + 1 for i in s) for s in family))
    return sorted(kept), len(all_matchings)
