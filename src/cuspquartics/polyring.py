"""Sparse multivariate polynomials with exact coefficients.

The whole toolkit runs on one currency: canonical sparse polynomials over
the rationals (arbitrary-precision ``Fraction``) or over a prime field.
Polynomials are immutable; every operation returns a new canonical value,
so equality is structural and hashing is safe.

Monomials are plain exponent tuples.  A ring fixes the variable names, the
coefficient domain and the term order; polynomials of different rings never
mix silently.

A coefficient domain is ``zero``, ``one``, ``convert`` and ``invert``.
Arithmetic uses the plain operators; ``convert`` is the one normaliser, which
makes a raw sum or product a ``Fraction`` or a residue in [0, p).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

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
        return 1 / a

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
# monomials and term orders
# ---------------------------------------------------------------------------

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


def order_key(order):
    """Sort key for an order name; larger key = larger monomial."""
    if order == "lex":
        return lambda m: m
    if order == "grlex":
        return lambda m: (sum(m), m)
    if order == "grevlex":
        return lambda m: (sum(m), tuple(-e for e in reversed(m)))
    raise ValueError(f"unknown term order {order!r}; expected one of {ORDER_NAMES}")


# ---------------------------------------------------------------------------
# ring and polynomial
# ---------------------------------------------------------------------------

class PolyRing:
    """A polynomial ring: variable names, coefficient domain, term order."""

    __slots__ = ("variables", "domain", "order", "key", "_var_index")

    def __init__(self, variables, domain=QQ, order="grevlex"):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if order not in ORDER_NAMES:
            raise ValueError(f"unknown term order {order!r}")
        self.variables = variables
        self.domain = domain
        self.order = order
        self.key = order_key(order)
        self._var_index = {v: i for i, v in enumerate(variables)}

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

    # -- constructors -------------------------------------------------------

    def zero(self):
        return Polynomial(self, ())

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = self.domain.convert(c)
        if not c:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def gen(self, i):
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((exps, self.domain.one),))

    def gens(self):
        return tuple(self.gen(i) for i in range(self.nvars))

    def var(self, name):
        return self.gen(self._var_index[name])

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        if any(e > EXPONENT_CAP for e in exps):
            raise ExponentOverflowError(f"exponent exceeds cap {EXPONENT_CAP}")
        c = self.domain.convert(coeff)
        if not c:
            return self.zero()
        return Polynomial(self, ((exps, c),))

    def from_dict(self, coeffs):
        """Canonical polynomial from {exponent tuple: raw coefficient}."""
        convert = self.domain.convert
        items = []
        for exps, c in coeffs.items():
            c = convert(c)
            if c:
                items.append((tuple(exps), c))
        items.sort(key=lambda t: self.key(t[0]), reverse=True)
        return Polynomial(self, tuple(items))

    def with_order(self, order):
        """Same variables and domain under another term order."""
        return PolyRing(self.variables, self.domain, order)

    def convert(self, f):
        """The same polynomial in this ring: the variables must agree, the
        term order may differ, and QQ coefficients may map into GF(p)."""
        if f.ring.variables != self.variables:
            raise RingMismatchError("convert() needs the same variables")
        src = f.ring.domain
        return self.from_dict({m: _convert_between(c, src, self.domain)
                               for m, c in f.terms})

    def parse(self, text):
        return _Parser(self, text).parse()


class Polynomial:
    """Immutable canonical sparse polynomial.

    ``terms`` is a tuple of (exponent tuple, coefficient) pairs, strictly
    descending in the ring's term order, with no zero coefficients.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- basic queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        d = sum(self.terms[0][0])
        return all(sum(m) == d for m, _ in self.terms)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coefficient(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def coefficient(self, exps):
        exps = tuple(exps)
        for m, c in self.terms:
            if m == exps:
                return c
        return self.ring.domain.zero

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

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
        zero = self.ring.domain.zero
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, zero) + c
        return self.ring.from_dict(acc)

    __radd__ = __add__

    def __neg__(self):
        convert = self.ring.domain.convert
        return Polynomial(self.ring, tuple((m, convert(-c)) for m, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        convert = self.ring.domain.convert
        c = convert(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, tuple((m, convert(k * c)) for m, k in self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        zero = self.ring.domain.zero
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = monomial_mul(m1, m2)
                acc[m] = acc.get(m, zero) + c1 * c2
        return self.ring.from_dict(acc)

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
        convert = self.ring.domain.convert
        key = self.ring.key
        glm, glc = g.terms[0]
        glc_inv = self.ring.domain.invert(glc)
        rem = dict(self.terms)
        quot = {}
        while rem:
            lm = max(rem, key=key)
            q = monomial_div(lm, glm)
            if q is None:
                raise DivisionError("no exact quotient (leading term not divisible)")
            qc = convert(rem[lm] * glc_inv)
            quot[q] = qc
            for m, c in g.terms:
                mm = monomial_mul(q, m)
                s = convert(rem.get(mm, 0) - qc * c)
                if s:
                    rem[mm] = s
                else:
                    rem.pop(mm, None)
        return self.ring.from_dict(quot)

    # -- calculus and evaluation ----------------------------------------------

    def partial_derivative(self, var):
        """Formal partial derivative; var is an index or a variable name."""
        i = self.ring._var_index[var] if isinstance(var, str) else var
        if not (0 <= i < self.ring.nvars):
            raise ValueError(f"variable index {i} out of range")
        return self.ring.from_dict({m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                                    for m, c in self.terms if m[i]})

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
        powers = [{0: target.one()} for _ in range(self.ring.nvars)]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = cache[e - 1] * images[i] if e - 1 in cache else images[i] ** e
            return cache[e]

        # the pieces are summed in one dict, which is sorted once
        one, zero, out = target.one(), target.domain.zero, {}
        for m, c in self.terms:
            c = _convert_between(c, self.ring.domain, target.domain)
            piece = one
            for i, e in enumerate(m):
                if e:
                    piece = piece * power(i, e)
            for mono, d in piece.terms:
                out[mono] = out.get(mono, zero) + c * d
        return target.from_dict(out)

    def evaluate(self, point):
        """Exact value at a point (a sequence of domain scalars)."""
        point = tuple(point)
        if len(point) != self.ring.nvars:
            raise ValueError(f"expected {self.ring.nvars} coordinates")
        convert = self.ring.domain.convert
        vals = tuple(convert(p) for p in point)
        total = 0
        powers = [{0: 1} for _ in range(self.ring.nvars)]

        def power(i, e):
            cache = powers[i]
            while e not in cache:
                k = max(cache)
                cache[k + 1] = convert(cache[k] * vals[i])
            return cache[e]

        for m, c in self.terms:
            v = c
            for i, e in enumerate(m):
                if e:
                    v *= power(i, e)
            total += v
        return convert(total)

    # -- printing --------------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


def _convert_between(c, src, dst):
    if src == dst:
        return c
    if isinstance(dst, PrimeField) and src == QQ:
        return dst.convert(c)
    raise RingMismatchError(f"cannot convert coefficients from {src!r} to {dst!r}")


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def format_polynomial(f):
    """Canonical ASCII text; parse(format(f)) == f."""
    if f.is_zero():
        return "0"
    dom = f.ring.domain
    rational = dom == QQ
    chunks = []
    for idx, (m, c) in enumerate(f.terms):
        if rational:
            negative = c < 0
            mag = -c if negative else c
        else:
            negative = False
            mag = c
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(f.ring.variables[i])
            elif e > 1:
                factors.append(f"{f.ring.variables[i]}^{e}")
        if not factors:
            body = _format_coeff(mag)
        elif mag == dom.one:
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
        zero = self.ring.domain.zero
        acc = {}
        negate = False
        if self.peek()[0] in ("+", "-"):
            negate = self.advance()[0] == "-"
        while True:
            for m, c in self.term().terms:
                acc[m] = acc.get(m, zero) + (-c if negate else c)
            if self.peek()[0] not in ("+", "-"):
                return self.ring.from_dict(acc)
            negate = self.advance()[0] == "-"

    def term(self):
        if self.peek()[0] == "int":
            f = self.ring.constant(self.coeff())
        else:
            f = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            f = f * self.factor()
        return f

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
            return f
        if tok[0] == "ident":
            if tok[1] not in self.ring._var_index:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
            v = self.ring.var(tok[1])
            if self.peek()[0] == "^":
                self.advance()
                e = self.integer()
                if e > EXPONENT_CAP:
                    raise ExponentOverflowError(
                        f"exponent exceeds cap {EXPONENT_CAP}")
                return v ** e
            return v
        raise ParseError(f"expected variable or '(', found {tok[1]!r}", tok[2])
