"""Sparse multivariate polynomials with exact coefficients.

The whole toolkit runs on one currency: canonical sparse polynomials over
QQ or GF(p).  Polynomials are immutable; every operation returns a new
canonical value, so equality is structural and hashing is safe.

A ring fixes the variable names, the coefficient domain and the term order;
polynomials of different rings never mix silently.  The ring packs each
monomial into one int whose order is the term order (``PolyRing``), and
polynomials store packed monomials; exponent tuples come in, checked,
through ``from_dict``, ``monomial``, ``key`` and ``coefficient``, and go out
through ``terms`` and ``leading_monomial``.

Coefficients are stored as ints, integer numerators over one common
denominator over QQ (as FLINT's ``fmpq_poly``) and residues over GF(p);
``PolyRing.make`` is the one normaliser, ``PolyRing.combine`` the one
product kernel and ``PolyRing.view`` the one divisor normalisation.
A coefficient domain (``zero``, ``one``, ``convert``, ``invert``) handles
single coefficients: raw input comes in through ``convert``, and ``terms``
and ``coefficient`` give out a ``Fraction`` or a residue in [0, p).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

EXPONENT_CAP = 1 << 16
# the longest integer literal the parser reads (the interpreter's default
# int/str conversion limit, which the CLI lifts for printing results)
DIGIT_CAP = 4300
# the parser recurses once per open parenthesis
NESTING_CAP = 100

ORDER_NAMES = ("grevlex", "lex", "grlex")


class PolynomialError(Exception):
    """Base class for polynomial-layer errors."""


class RingMismatchError(PolynomialError):
    """Operands live in different rings (or incompatible domains)."""


class DivisionError(PolynomialError):
    """Exact division failed: no exact quotient exists."""


class ExponentOverflowError(PolynomialError):
    """A monomial exponent exceeded the hard cap."""


class ParseError(PolynomialError):
    """Syntax or lookup error while parsing polynomial text."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------

class RationalField:
    """Exact rationals; coefficients are ``Fraction`` in lowest terms."""

    zero = Fraction(0)
    one = Fraction(1)
    name = "QQ"

    @staticmethod
    def convert(value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    @staticmethod
    def invert(a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / RationalField.convert(a)

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers mod a prime p < 2^31; coefficients are residues in [0, p)."""

    def __init__(self, p):
        if not (2 <= p < 2**31):
            raise ValueError("prime must satisfy 2 <= p < 2^31")
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p
        self.name = f"GF({p})"

    def convert(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        if isinstance(value, str):
            return self.convert(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def invert(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p):
    """Return the (cached) prime field with p elements; p is an int."""
    if not isinstance(p, int):
        raise TypeError(f"the order of a prime field must be an int, not {p!r}")
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


# ---------------------------------------------------------------------------
# ring and polynomial
# ---------------------------------------------------------------------------

# bits per exponent field: twice EXPONENT_CAP and a guard bit
_W = (2 * EXPONENT_CAP).bit_length() + 1
_FIELD = (1 << _W) - 1


class PolyRing:
    """A polynomial ring: variable names, coefficient domain, term order.

    The ring packs each monomial into one int: n W-bit exponent fields F,
    the top bit of each a zero guard, under a key linear in the exponents:
    deg*2^(nW) - F for grevlex, deg*2^(nW) + F_rev for grlex, F_rev for lex
    (F_rev holds the fields in reverse order).  So the term order is int
    comparison, a product is a sum, and a divides b iff b's low part minus
    a's sets no guard bit.  A field holds twice the exponent cap, so a sum
    of two capped monomials fits; and the peak (exponentwise maximum) of a
    term times a polynomial is the term plus the polynomial's peak, so one
    cap check covers it.
    """

    __slots__ = ("variables", "domain", "order", "modulus", "units", "low",
                 "guard", "over", "_var_index")

    def __init__(self, variables, domain=QQ, order="grevlex"):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for v in variables:
            # the tokenizer's identifier rule, so that printed output parses
            if not (w := v.replace("_", "a"))[:1].isalpha() or not w.isalnum():
                raise ValueError(f"variable name {v!r} is not an identifier")
        if order not in ORDER_NAMES:
            raise ValueError(f"unknown term order {order!r}")
        self.variables = variables
        self.domain = domain
        self.order = order
        # p over GF(p); None over QQ, which is also pow()'s "no modulus"
        self.modulus = domain.p if isinstance(domain, PrimeField) else None
        self._var_index = {v: i for i, v in enumerate(variables)}
        L = len(variables) * _W
        fields = [1 << i for i in range(0, L, _W)]
        deg = 0 if order == "lex" else 1 << L
        keys = ([deg - f for f in fields] if order == "grevlex"
                else [deg + f for f in reversed(fields)])
        self.units = [(k << L) + f for k, f in zip(keys, fields)]
        self.low = (1 << L) - 1
        self.guard = sum(fields) << (_W - 1)
        # sets the guard bit of every field above EXPONENT_CAP
        self.over = sum(fields) * ((1 << (_W - 1)) - 1 - EXPONENT_CAP)

    @property
    def nvars(self):
        return len(self.variables)

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.variables == other.variables
                and self.domain == other.domain
                and self.order == other.order)

    def __hash__(self):
        return hash((self.variables, self.domain, self.order))

    def __repr__(self):
        return f"PolyRing({', '.join(self.variables)}; {self.domain!r}; {self.order})"

    # -- packed monomials ----------------------------------------------------

    def key(self, exps):
        """The packed monomial of an exponent tuple, checked; packed
        monomials compare in the term order, so this is also a sort key."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        if min(exps) < 0:
            raise ValueError("negative exponent")
        if max(exps) > EXPONENT_CAP:
            raise ExponentOverflowError(f"exponent exceeds cap {EXPONENT_CAP}")
        m = self.pack(exps)
        if type(m) is not int:
            raise TypeError("exponents must be integers")
        return m

    def pack(self, exps):
        """The packed monomial of valid exponents, unchecked."""
        return sum(e * u for e, u in zip(exps, self.units))

    def unpack(self, m):
        return tuple(m >> i & _FIELD for i in range(0, self.nvars * _W, _W))

    def divides(self, a, b):
        return not ((b & self.low) - (a & self.low)) & self.guard

    def peak(self, monomials):
        """The exponentwise maximum of packed monomials (0 for none), taken
        field by field on their low parts: t marks the fields where the
        running peak a is at least b (no field borrows, as the guard bits
        of a valid monomial are clear), t - (t >> (W - 1)) widens each mark
        to its field's mask, and the larger fields are kept; the result is
        packed once."""
        low, guard, shift = self.low, self.guard, _W - 1
        a = 0
        for m in monomials:
            b = m & low
            t = ((a | guard) - b) & guard
            keep = t - (t >> shift)
            a = (a & keep) | (b & ~keep)
        return self.pack(self.unpack(a))

    def check_cap(self, m):
        if ((m & self.low) + self.over) & self.guard:
            raise ExponentOverflowError(f"exponent exceeds cap {EXPONENT_CAP}")

    # -- constructors -------------------------------------------------------

    def make(self, acc, den=1):
        """The canonical polynomial acc / den, for {packed monomial: int} and
        an int den != 0: over QQ divided by gcd(den, *numerators), signed so
        that den > 0, over GF(p) times den's inverse, reduced."""
        p = self.modulus
        if p:
            inv = pow(den, -1, p)
            items = [(m, r) for m, c in acc.items() if (r := c * inv % p)]
            den = 1
        else:
            items = [(m, c) for m, c in acc.items() if c]
            if den != 1:
                g = gcd(den, *(c for _, c in items)) * (1 if den > 0 else -1)
                items = [(m, c // g) for m, c in items]
                den //= g
        items.sort(reverse=True)
        return Polynomial(self, tuple(items), den)

    def sum(self, parts, den=1):
        """The canonical (sum of k * f over parts) / den, for a sequence of
        (int k, polynomial f) parts, summed over their lcm denominator in one
        dict."""
        common = lcm(*(f.den for _, f in parts))
        return self.make(self.combine((0, k * (common // f.den), f.items, 0)
                                      for k, f in parts), den * common)

    def combine(self, parts):
        """The {packed monomial: int} sum of c * m * items over parts (m, c,
        items, peak), for peak the peak of items' monomials (0 in a sum, which
        raises no exponent), reduced over GF(p); one cap check per part."""
        out = {}
        for m, c, items, peak in parts:
            self.check_cap(m + peak)
            for n, k in items:
                out[m + n] = out.get(m + n, 0) + c * k
        if self.modulus:
            return {m: r for m, c in out.items() if (r := c % self.modulus)}
        return {m: c for m, c in out.items() if c}

    def view(self, p):
        """The divisor view (lm, lc, items, peak) of a nonzero {packed
        monomial: int} dict: content-free over QQ, monic over GF(p)."""
        lm = max(p)
        if self.modulus:
            inv = pow(p[lm], -1, self.modulus)
            p = {m: c * inv % self.modulus for m, c in p.items()}
        else:
            g = gcd(*p.values())
            if g > 1:
                p = {m: c // g for m, c in p.items()}
        return lm, p[lm], tuple(p.items()), self.peak(p)

    def zero(self):
        return Polynomial(self, (), 1)

    def one(self):
        return self.constant(1)

    def constant(self, c):
        return self.from_packed({0: c})

    def gen(self, i):
        return Polynomial(self, ((self.units[i], 1),), 1)

    def gens(self):
        return tuple(self.gen(i) for i in range(self.nvars))

    def monomial(self, exps, coeff=1):
        return self.from_packed({self.key(exps): coeff})

    def from_dict(self, coeffs):
        """Canonical polynomial from {exponent tuple: raw coefficient}; each
        tuple is checked as ``key`` checks it."""
        return self.from_packed({self.key(exps): c for exps, c in coeffs.items()})

    def from_packed(self, coeffs):
        """Canonical polynomial from {packed monomial: raw coefficient}."""
        convert = self.domain.convert
        ratios = [(m, *convert(c).as_integer_ratio()) for m, c in coeffs.items()]
        den = lcm(*(d for _, _, d in ratios))
        return self.make({m: n * (den // d) for m, n, d in ratios}, den)

    def with_order(self, order):
        """Same variables and domain under another term order."""
        return PolyRing(self.variables, self.domain, order)

    def convert(self, f):
        """The same polynomial in this ring: the variables must agree, the
        term order may differ, and QQ coefficients may map into GF(p)."""
        if f.ring.variables != self.variables:
            raise RingMismatchError("convert() needs the same variables")
        _check_domains(f.ring.domain, self.domain)
        unpack = f.ring.unpack
        return self.make({self.pack(unpack(m)): c for m, c in f.items}, f.den)

    def parse(self, text):
        return _Parser(self, text).parse()


class Polynomial:
    """Immutable canonical sparse polynomial (sum of c * m over ``items``)
    / ``den``, built by ``PolyRing.make``.

    ``items`` holds (packed monomial, nonzero int) pairs, strictly descending
    (so in the term order).  Over QQ ``den`` > 0 shares no factor with all
    the numerators, so it is the lcm of the reduced denominators; over GF(p)
    the ints are residues in [1, p) and ``den`` is 1.  ``terms`` holds
    exponent tuples and domain coefficients, built on first use.
    """

    __slots__ = ("ring", "items", "den", "_terms")

    def __init__(self, ring, items, den):
        self.ring = ring
        self.items = items
        self.den = den
        self._terms = None

    def _coefficient(self, c):
        """The domain coefficient of a stored int."""
        return c if self.ring.modulus else Fraction(c, self.den)

    @property
    def terms(self):
        if self._terms is None:
            unpack = self.ring.unpack
            self._terms = tuple((unpack(m), self._coefficient(c))
                                for m, c in self.items)
        return self._terms

    # -- basic queries -------------------------------------------------------

    def is_zero(self):
        return not self.items

    def __bool__(self):
        return bool(self.items)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.items:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def is_homogeneous(self):
        if not self.items:
            return True
        d = sum(self.terms[0][0])
        return all(sum(m) == d for m, _ in self.terms)

    def leading_monomial(self):
        if not self.items:
            raise ValueError("zero polynomial has no leading term")
        return self.ring.unpack(self.items[0][0])

    def leading_coefficient(self):
        if not self.items:
            raise ValueError("zero polynomial has no leading term")
        return self._coefficient(self.items[0][1])

    def coefficient(self, exps):
        m = self.ring.key(exps)
        for n, c in self.items:
            if n == m:
                return self._coefficient(c)
        return self.ring.domain.zero

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring == other.ring
                and self.items == other.items
                and self.den == other.den)

    def __hash__(self):
        return hash((self.ring, self.items, self.den))

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._check_ring(other)
        return self.ring.sum(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        k, den = self.ring.domain.convert(c).as_integer_ratio()
        return self.ring.sum(((k, self),), den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        ring, items = self.ring, other.items
        peak = ring.peak(m for m, _ in items)
        return ring.make(ring.combine((m, c, items, peak) for m, c in self.items),
                         self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def exact_divide(self, g):
        """Exact quotient self/g; raises DivisionError if none exists."""
        self._check_ring(g)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ring, p = self.ring, self.ring.modulus
        # g = h * content / g.den for h g's view, monic or primitive: a
        # quotient of integers by h is integral if it exists (Gauss's lemma)
        hlm, hlc, hitems, hpeak = ring.view(dict(g.items))
        content = g.items[0][1] // hlc
        rem = {m: c * g.den for m, c in self.items}
        quot = {}
        while rem:
            lm = max(rem)
            qc, r = divmod(rem[lm], hlc)
            if r or not ring.divides(hlm, lm):
                raise DivisionError("no exact quotient (leading term not divisible)")
            q = lm - hlm
            ring.check_cap(q + hpeak)
            quot[q] = qc
            for m, c in hitems:
                mm = q + m
                s = rem.get(mm, 0) - qc * c
                if p:
                    s %= p
                if s:
                    rem[mm] = s
                else:
                    rem.pop(mm, None)
        return ring.make(quot, self.den * content)

    # -- calculus and evaluation ----------------------------------------------

    def partial_derivative(self, var):
        """Formal partial derivative; var is an index or a variable name."""
        ring = self.ring
        i = ring._var_index[var] if isinstance(var, str) else var
        if not (0 <= i < ring.nvars):
            raise ValueError(f"variable index {i} out of range")
        unit, shift = ring.units[i], i * _W
        return ring.make({m - unit: c * (m >> shift & _FIELD)
                          for m, c in self.items if m >> shift & _FIELD}, self.den)

    def gradient(self):
        return tuple(self.partial_derivative(i) for i in range(self.ring.nvars))

    def substitute(self, images):
        """Replace each variable by the corresponding image polynomial.

        All images must share one target ring; the substitution is the ring
        homomorphism sending variable i to images[i].
        """
        images = tuple(images)
        if len(images) != self.ring.nvars:
            raise RingMismatchError(
                f"expected {self.ring.nvars} images, got {len(images)}")
        target = images[0].ring
        for im in images:
            if not isinstance(im, Polynomial):
                raise TypeError("images must be polynomials")
            if im.ring != target:
                raise RingMismatchError("images live in different rings")
        _check_domains(self.ring.domain, target.domain)
        powers = [{0: target.one()} for _ in range(self.ring.nvars)]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = cache[e - 1] * images[i] if e - 1 in cache else images[i] ** e
            return cache[e]

        # the pieces are summed in one dict, which is sorted once
        one, parts = target.one(), []
        for m, c in self.items:
            piece = one
            for i, e in enumerate(self.ring.unpack(m)):
                if e:
                    piece = piece * power(i, e)
            parts.append((c, piece))
        return target.sum(parts, self.den)

    def evaluate(self, point):
        """Exact value at a point (a sequence of domain scalars), in ints: a
        coordinate a/b enters a term of exponent e as a^e * b^(t - e), for t
        its largest exponent in f, and the sum is divided once."""
        point = tuple(point)
        ring, p = self.ring, self.ring.modulus
        if len(point) != ring.nvars:
            raise ValueError(f"expected {ring.nvars} coordinates")
        ratios = [ring.domain.convert(v).as_integer_ratio() for v in point]
        exps = [ring.unpack(m) for m, _ in self.items]
        top = [max(column) for column in zip(*exps)]
        rows = [[pow(a, e, p) * pow(b, t - e, p) for e in range(t + 1)]
                for (a, b), t in zip(ratios, top)]
        total = 0
        for m, (_, c) in zip(exps, self.items):
            for row, e in zip(rows, m):
                c *= row[e]
            total += c
        den = self.den * prod(pow(b, t, p) for (_, b), t in zip(ratios, top))
        return ring.domain.convert(Fraction(total, den))

    # -- printing --------------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


def _check_domains(src, dst):
    if src != dst and not (isinstance(dst, PrimeField) and src == QQ):
        raise RingMismatchError(f"cannot convert coefficients from {src!r} to {dst!r}")


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def format_polynomial(f):
    """Canonical ASCII text; parse(format(f)) == f."""
    if f.is_zero():
        return "0"
    chunks = []
    for idx, (m, c) in enumerate(f.terms):
        negative = c < 0
        mag = -c if negative else c
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(f.ring.variables[i])
            elif e > 1:
                factors.append(f"{f.ring.variables[i]}^{e}")
        if not factors:
            body = _format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = _format_coeff(mag) + "*" + "*".join(factors)
        if idx == 0:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)


def _format_coeff(c):
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_OPS = set("+-*/^()")
_DIGITS = set("0123456789")  # str.isdigit() also accepts '²', which int() rejects


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, ring, text):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        f = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return f

    def expr(self):
        # the terms of a sum meet in one dict: adding them one polynomial at
        # a time would re-sort the partial sum for every term
        parts = []
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
        while True:
            parts.append((sign, self.term()))
            if self.peek()[0] not in ("+", "-"):
                return self.ring.sum(parts)
            sign = -1 if self.advance()[0] == "-" else 1

    def term(self):
        """A product: the powers of variables are gathered into one packed
        monomial m and only parenthesised factors are multiplied as
        polynomials (into f, with the peak of f's monomials the sum of the
        factors' peaks).  The cap is checked at each factor, on m times
        that peak, where multiplying factor by factor would raise: so only
        while the product is nonzero."""
        ring = self.ring
        if self.peek()[0] == "int":
            f = ring.constant(self.coeff())
            self.no_power()
            if self.peek()[0] != "*":
                return f
            self.advance()
        else:
            f = ring.one()
        m = peak = 0
        while True:
            g = self.factor()
            if type(g) is int:
                m += g
            else:
                f = f * g
                peak += ring.peak(n for n, _ in g.items)
            if f:
                ring.check_cap(m + peak)
            if self.peek()[0] != "*":
                return ring.make({m + n: c for n, c in f.items}, f.den)
            self.advance()

    def no_power(self):
        tok = self.peek()
        if tok[0] == "^":
            raise ParseError("'^' must follow a variable", tok[2])

    def integer(self):
        tok = self.expect("int")
        if len(tok[1]) > DIGIT_CAP:
            raise ParseError(f"integer of {len(tok[1])} digits is too long",
                             tok[2])
        return int(tok[1])

    def coeff(self):
        num = self.integer()
        if self.peek()[0] == "/":
            self.advance()
            position = self.peek()[2]
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", position)
            return Fraction(num, den)
        return Fraction(num)

    def factor(self):
        """A parenthesised sum, as a polynomial, or a variable and its
        power, as a packed monomial."""
        tok = self.advance()
        if tok[0] == "(":
            self.depth += 1
            if self.depth > NESTING_CAP:
                raise ParseError(f"parentheses nested deeper than {NESTING_CAP}",
                                 tok[2])
            f = self.expr()
            closing = self.advance()
            if closing[0] != ")":
                raise ParseError("unbalanced parenthesis", closing[2])
            self.depth -= 1
            self.no_power()
            return f
        if tok[0] == "ident":
            i = self.ring._var_index.get(tok[1])
            if i is None:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
            e = 1
            if self.peek()[0] == "^":
                self.advance()
                e = self.integer()
                if e > EXPONENT_CAP:
                    raise ExponentOverflowError(
                        f"exponent exceeds cap {EXPONENT_CAP}")
                self.no_power()
            return e * self.ring.units[i]
        raise ParseError(f"expected variable or '(', found {tok[1]!r}", tok[2])
