"""Buchberger's algorithm, normal forms and ideal membership.

The engine always returns the reduced Groebner basis (monic, inter-reduced,
sorted), so bases are unique per ideal and term order and every downstream
certificate is reproducible.  Pair selection follows the normal strategy,
the pair whose lcm is least in the term order (not by degree first, which
runs away under lex); useless pairs are discarded with Buchberger's product
and chain criteria in the Gebauer-Moeller formulation.

One Buchberger loop and one reducer serve every caller and both coefficient
domains; they are functions of the ring.  They work on dicts of a
polynomial's stored ``items``: packed monomials and ints, the integer
numerators over QQ and the residues over GF(p) (``Polynomial``), so nothing
is converted on the way in, and ``PolyRing.make`` divides by the
denominator on the way out.  Products (S-pairs, radical powers) go through
``PolyRing.combine``, as polynomial products do.  A monomial is one
integer, whose order is the term order and whose sum is the product.  A
pair is keyed by the packed lcm of its leads, so the criteria and the
selection compare ints.  Divisors are ``PolyRing.view``s: content-free over
QQ, where a reduction step scales the work by a gcd cofactor instead of
dividing, and monic over GF(p), where no step scales.  The reducer removes
no content.  Zero tests (membership, radical exponents, the S-pair audit)
read its remainder directly; a remainder that is kept is normalised where
it is kept, by ``PolyRing.view`` (a new basis element) or ``PolyRing.make``
(``normal_form``, which divides by the scale the reducer tracked, and the
inter-reduced basis), so remainders exposed to callers are exact.  A
``GroebnerBasis`` builds its elements' views once (``_views``), and every
reduction modulo it reads them.  The audit checks the pairs that the
criteria keep when they are replayed over the basis.

Over QQ the loop runs as a Groebner trace (Traverso 1988) when the caller
pays for the audit anyway (``buchberger(..., audit=True)``, the verdict in
``GroebnerBasis.audit``) or a generator has a coefficient of _TRACE_MIN_BITS
bits or more.  The trace is a set of pairs to skip: a run over
GF(_TRACE_PRIME) collects the pairs whose S-pair reduces to zero, and the
QQ run skips them.  Its basis B lies in the ideal; it is kept only if (a) it
passes the audit, so B is a Groebner basis of ideal(B), and (b) every
generator reduces to zero modulo B, so B is the reduced basis of the ideal
whatever the prime did.  A failed check falls through to the plain run.
"""

from __future__ import annotations

import heapq
from math import gcd

from .polyring import GF, PolyRing, RingMismatchError

# the trace's prime, and the coefficient size from which it runs unaudited
_TRACE_PRIME = 32003
_TRACE_MIN_BITS = 45


class Ideal:
    """A finitely generated ideal; zero generators are dropped."""

    __slots__ = ("ring", "generators")

    def __init__(self, generators):
        generators = [g for g in generators if not g.is_zero()]
        if not generators:
            raise ValueError("ideal needs a nonzero generator; "
                             "Ideal.spanned_by(..., ring=...) builds the zero ideal")
        ring = generators[0].ring
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("ideal generators live in different rings")
        self.ring = ring
        self.generators = tuple(generators)

    @classmethod
    def spanned_by(cls, polys, ring=None):
        """Like the constructor, but tolerates an all-zero generator list."""
        nonzero = [g for g in polys if not g.is_zero()]
        if nonzero:
            return cls(nonzero)
        if ring is None:
            if not polys:
                raise ValueError("cannot infer ring for the zero ideal")
            ring = polys[0].ring
        ideal = cls.__new__(cls)
        ideal.ring = ring
        ideal.generators = ()
        return ideal

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens})"


class GroebnerBasis:
    """A reduced Groebner basis: monic elements, sorted by leading monomial.

    ``audit`` is the verdict of ``verify_buchberger_criterion`` when
    ``buchberger`` ran it on this basis, else None.  The divisor views of
    the elements (``PolyRing.view``) are built once, here; the audit and
    every reduction modulo the basis read them.
    """

    __slots__ = ("ring", "polys", "audit", "_views")

    def __init__(self, ring, polys, audit=None):
        self.ring = ring
        self.polys = tuple(polys)
        self.audit = audit
        self._views = _views(ring, self.polys)

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def leading_monomials(self):
        return tuple(g.leading_monomial() for g in self.polys)

    def verify_buchberger_criterion(self):
        """Re-check that the S-polynomial of every needed pair reduces to zero.

        The needed pairs are those the product and chain criteria keep when
        the pair update is replayed over the basis in order; the pairs they
        drop reduce to zero whenever the kept ones do.
        """
        ring, divisors = self.ring, self._views
        pairs = {}
        for t in range(len(divisors)):
            pairs = _update_pairs(ring, divisors, pairs, t)
        return all(not _reduce(ring, _spair(ring, pairs[i, j], divisors[i],
                                            divisors[j]), divisors)[0]
                   for i, j in sorted(pairs))

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} elements, {self.ring.order})"


def s_polynomial(f, g):
    """The lcm-cancellation combination of f and g; leading terms cancel."""
    if f.is_zero() or g.is_zero():
        raise ValueError("s_polynomial needs nonzero inputs")
    if f.ring != g.ring:
        raise RingMismatchError("s_polynomial needs a common ring")
    ring = f.ring
    df, dg = ring.view(dict(f.items)), ring.view(dict(g.items))
    # the S-pair of the views is the lcm of their leading coefficients,
    # signed, times the S-polynomial
    return ring.make(_spair(ring, ring.peak((df[0], dg[0])), df, dg),
                     df[1] * dg[1] // gcd(df[1], dg[1]))


# ---------------------------------------------------------------------------
# the reduction engine, on {packed monomial: int} dicts (``dict(f.items)``
# is f times its denominator) and their ``PolyRing.view``s as divisors
# ---------------------------------------------------------------------------

def _views(ring, polys):
    """Divisor views of the nonzero polynomials, in the given order."""
    return tuple(ring.view(dict(f.items)) for f in polys if f)


def _spair(ring, top, di, dj):
    """S-polynomial of two divisors whose leads have lcm ``top``, free of
    denominators."""
    lmi, ci, fi, peaki = di
    lmj, cj, fj, peakj = dj
    g = gcd(ci, cj)
    return ring.combine(((top - lmi, cj // g, fi, peaki),
                         (top - lmj, -(ci // g), fj, peakj)))


def _reduce(ring, p, divisors):
    """(r, scale): remainder r of p under full division by ``divisors``.

    At every step the first divisor whose leading monomial divides the
    current term is used, which makes the remainder deterministic; with a
    Groebner basis it is the normal form.  r is ``scale`` times the exact
    remainder, for the positive int scale that the work was multiplied by,
    the product of the gcd cofactors of the divisors' leading coefficients;
    over GF(p), where divisors are monic, scale is 1.  Nothing is divided
    out here: the callers that keep r normalise it.
    """
    modulus, low, guard = ring.modulus, ring.low, ring.guard
    work = dict(p)
    remainder = {}
    heap = [-m for m in work]
    heapq.heapify(heap)
    scale = 1
    while heap:
        lm = -heapq.heappop(heap)
        c = work.get(lm)
        if c is None:
            continue
        f = lm & low
        for dlm, dlc, ditems, dpeak in divisors:
            if not (f - (dlm & low)) & guard:
                q = lm - dlm
                break
        else:
            remainder[lm] = work.pop(lm)
            continue
        ring.check_cap(q + dpeak)
        g = gcd(c, dlc)
        a, b = c // g, dlc // g
        # keeps scale positive; a negative lead would rescale at every step
        if b < 0:
            a, b = -a, -b
        if b != 1:
            scale *= b
            for m in work:
                work[m] *= b
            for m in remainder:
                remainder[m] *= b
        for m, k in ditems:
            mm = q + m
            s = work.get(mm, 0) - a * k
            if modulus:
                s %= modulus
            if s:
                if mm not in work:
                    heapq.heappush(heap, -mm)
                work[mm] = s
            else:
                work.pop(mm, None)
    return remainder, scale


def _divisors(g, basis):
    """Divisor views of a Groebner basis or a plain list, in g's ring."""
    if isinstance(basis, GroebnerBasis):
        if basis.ring != g.ring:
            raise RingMismatchError("polynomial and basis rings differ "
                                    "(order or variables mismatch)")
        return basis._views
    polys = tuple(basis)
    for d in polys:
        if d.ring != g.ring:
            raise RingMismatchError("polynomial and divisor rings differ")
    return _views(g.ring, polys)


def normal_form(g, basis):
    """Remainder of g modulo a Groebner basis (deterministic, exact)."""
    divisors = _divisors(g, basis)
    if not divisors:
        return g
    r, scale = _reduce(g.ring, dict(g.items), divisors)
    return g.ring.make(r, scale * g.den)


# ---------------------------------------------------------------------------
# Buchberger's algorithm
# ---------------------------------------------------------------------------

def _update_pairs(ring, divisors, pairs, t):
    """Gebauer-Moeller pair update after appending element t.

    Implements Buchberger's product and chain criteria; ``divisors`` holds
    the divisors including the new element at index t.  ``pairs`` maps
    (i, j) to the packed lcm L of its leads, which is also its place in the
    term order.
    """
    lmf = divisors[t][0]
    kept = {}
    for (i, j), lij in pairs.items():
        if (not ring.divides(lmf, lij)
                or lij == ring.peak((divisors[i][0], lmf))
                or lij == ring.peak((divisors[j][0], lmf))):
            kept[i, j] = lij
    by_lcm = {}
    for i in range(t):
        by_lcm.setdefault(ring.peak((divisors[i][0], lmf)), []).append(i)
    # the term order extends divisibility, so divisors of L come first
    minimal = []
    for L in sorted(by_lcm):
        if not any(ring.divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        group = by_lcm[L]
        # product criterion: drop the class if some member is coprime to lmf
        if any(L == divisors[i][0] + lmf for i in group):
            continue
        kept[min(group), t] = L
    return kept


def _loop(ring, gens, skip=frozenset()):
    """Buchberger's loop on the generators' coefficient dicts.

    Returns (G, zero): the divisors appended, generators first, and the set
    of pairs whose S-pair reduced to zero.  The pairs in ``skip`` are taken
    but not reduced.
    """
    G = []
    pairs = {}
    zero = set()

    def append(p):
        nonlocal pairs
        G.append(ring.view(p))
        pairs = _update_pairs(ring, G, pairs, len(G) - 1)

    for g in gens:
        append(g)
    while pairs:
        # normal strategy: least lcm in the term order, then (i, j)
        L, (i, j) = min((L, ij) for ij, L in pairs.items())
        del pairs[i, j]
        if (i, j) in skip:
            continue
        r = _reduce(ring, _spair(ring, L, G[i], G[j]), G)[0]
        if r:
            append(r)
        else:
            zero.add((i, j))
    return G, zero


def buchberger(ideal, order=None, audit=False):
    """Reduced Groebner basis of an ideal (or a plain list of polynomials).

    With ``audit`` the basis returned is checked by
    ``verify_buchberger_criterion`` and the verdict kept in ``basis.audit``.
    """
    if not isinstance(ideal, Ideal):
        ideal = Ideal.spanned_by(list(ideal))
    ring = ideal.ring
    if order is not None and order != ring.order:
        ring = ring.with_order(order)
        gens = [ring.convert(g) for g in ideal.generators]
    else:
        gens = list(ideal.generators)
    gens = [dict(g.items) for g in gens]
    top = max((abs(c) for g in gens for c in g.values()), default=0)
    p = _TRACE_PRIME
    # the trace (module docstring); a lead coefficient that vanishes mod p
    # would change the generators' leads, so such a prime is not used
    if (not ring.modulus and (audit or top.bit_length() >= _TRACE_MIN_BITS)
            and all(g[max(g)] % p for g in gens)):
        _, zero = _loop(PolyRing(ring.variables, GF(p), ring.order),
                        [{m: c % p for m, c in g.items() if c % p}
                         for g in gens])
        G, _ = _loop(ring, gens, zero)
        basis = GroebnerBasis(ring, _interreduce(ring, G), True)
        if (basis.verify_buchberger_criterion()
                and not any(_reduce(ring, g, basis._views)[0] for g in gens)):
            return basis
    G, _ = _loop(ring, gens)
    basis = GroebnerBasis(ring, _interreduce(ring, G))
    if audit:
        basis.audit = basis.verify_buchberger_criterion()
    return basis


def _interreduce(ring, divisors):
    """Minimalize, tail-reduce and make monic; yields the unique reduced basis.

    The result is sorted by leading monomial: each element keeps its lead.
    """
    minimal = []
    for d in sorted(divisors, key=lambda d: d[0]):
        if not any(ring.divides(e[0], d[0]) for e in minimal):
            minimal.append(d)
    reduced = []
    for i, (lm, _, items, _) in enumerate(minimal):
        r, _ = _reduce(ring, dict(items), minimal[:i] + minimal[i + 1:])
        reduced.append(ring.make(r, r[lm]))
    return reduced


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _as_basis(ideal_or_basis):
    if isinstance(ideal_or_basis, GroebnerBasis):
        return ideal_or_basis
    return buchberger(ideal_or_basis)


def ideal_membership(g, ideal):
    """True iff g lies in the ideal (normal form vanishes)."""
    basis = _as_basis(ideal)
    if not basis.polys:
        return g.is_zero()
    r, _ = _reduce(g.ring, dict(g.items), _divisors(g, basis))
    return not r


def radical_membership(g, ideal, p_max):
    """Least p <= p_max with g**p in the ideal, or None.

    Powers are tried in increasing order; each step reduces the previous
    remainder times g, so intermediate degrees stay small.
    """
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    basis = _as_basis(ideal)
    if not basis.polys:
        return 1 if g.is_zero() else None
    ring, divisors = g.ring, _divisors(g, basis)
    items, peak = g.items, ring.peak(m for m, _ in g.items)
    r, _ = _reduce(ring, dict(items), divisors)
    p = 1
    while r and p < p_max:
        # r times g over r's content, so the chain's coefficients stay small
        k = gcd(*r.values())
        r, _ = _reduce(ring, ring.combine((m, c // k, items, peak)
                                          for m, c in r.items()), divisors)
        p += 1
    return None if r else p


def is_zero_dimensional_affine(basis):
    """Standard test: each variable's pure power appears among the leads."""
    if not isinstance(basis, GroebnerBasis):
        raise TypeError("expected a GroebnerBasis")
    if not basis.polys:
        return False
    leads = basis.leading_monomials()
    nvars = basis.ring.nvars
    if any(sum(lm) == 0 for lm in leads):
        return True
    for i in range(nvars):
        if not any(lm[i] > 0 and sum(lm) == lm[i] for lm in leads):
            return False
    return True
