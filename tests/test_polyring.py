import random
import sys
import time
from fractions import Fraction

import pytest

from cuspquartics.polyring import (
    GF,
    DivisionError,
    ExponentOverflowError,
    ParseError,
    PolyRing,
    RingMismatchError,
)

import support
from support import constant_term


@pytest.fixture
def ring():
    return PolyRing(("x0", "x1", "x2", "x3"))


@pytest.fixture
def gens(ring):
    return ring.gens()


def test_canonical_construction(ring):
    f = ring.from_dict({(1, 0, 0, 0): Fraction(2), (0, 1, 0, 0): Fraction(0)})
    assert f.terms == (((1, 0, 0, 0), Fraction(2)),)
    g = ring.from_dict({(2, 0, 0, 0): 1, (0, 0, 0, 0): 3, (0, 1, 0, 0): -1})
    assert [m for m, _ in g.terms] == [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)]


def test_add_examples(ring, gens):
    x0, x1, x2, x3 = gens
    assert (x0 + x1) + (x0 - x1) == x0 * 2
    f = x0 ** 2 + x1 * x2 - 3
    assert f + ring.zero() == f
    assert (x0 ** 2 + 3) + (-(x0 ** 2) + x1) == x1 + 3


def test_add_ring_mismatch(ring):
    other = PolyRing(("y0", "y1"))
    with pytest.raises(RingMismatchError):
        ring.gen(0) + other.gen(0)


def test_mul_examples(ring, gens):
    x0, x1, _, _ = gens
    assert (x0 + x1) * (x0 - x1) == x0 ** 2 - x1 ** 2
    f = x0 ** 3 - x1 + 7
    assert f * ring.one() == f
    cube = (x0 + x1) ** 3
    assert cube == x0 ** 3 + 3 * x0 ** 2 * x1 + 3 * x0 * x1 ** 2 + x1 ** 3


def test_degree_contracts(ring, gens):
    x0, x1, _, _ = gens
    assert ring.zero().degree() == -1
    f, g = x0 ** 2 + 1, x1 ** 3 - x0
    assert (f * g).degree() == f.degree() + g.degree()
    assert (f + g).degree() <= max(f.degree(), g.degree())


def test_exact_divide(ring, gens):
    x0, x1, _, _ = gens
    assert (x0 ** 2 - x1 ** 2).exact_divide(x0 - x1) == x0 + x1
    with pytest.raises(DivisionError):
        (x0 ** 2 + 1).exact_divide(x1)
    with pytest.raises(ZeroDivisionError):
        x0.exact_divide(ring.zero())


def test_partial_derivative(ring, gens):
    x0, x1, x2, _ = gens
    assert (x0 ** 3).partial_derivative(0) == 3 * x0 ** 2
    assert (x1 * x2).partial_derivative(0).is_zero()
    assert (x0 ** 2).partial_derivative("x1").is_zero()


def test_gradient_of_cusp_model_at_origin():
    ring = PolyRing(("x0", "x1", "x2"))
    x0, x1, x2 = ring.gens()
    f = x0 * x1 - x2 ** 3
    assert all(g.evaluate((0, 0, 0)) == 0 for g in f.gradient())


def test_substitute_parametrization_kills_quadric(ring, gens):
    x0, x1, _, x3 = gens
    pring = PolyRing(("t0", "t1"))
    t0, t1 = pring.gens()
    phi = (t0 * t0 * t1, t0 * t1 * t1, t0 ** 3, t1 ** 3)
    assert (x0 * x3 - x1 ** 2).substitute(phi).is_zero()


def test_substitute_identity_and_swap(ring, gens):
    x0, x1, x2, x3 = gens
    f = x0 ** 2 * x3 - 5 * x1
    assert f.substitute(gens) == f
    assert x0.substitute((x1, x0, x3, x2)) == x1


def test_substitute_arity_mismatch(ring, gens):
    with pytest.raises(RingMismatchError):
        gens[0].substitute(gens[:3])


def test_evaluate(ring):
    s = ring.parse("49*x1^2 + x2^2 - 36*x3^2 - 14*x0^2")
    assert s.evaluate((1, 1, 1, 1)) == 0
    f = ring.parse("x0^2 + 2*x1 + 7")
    assert f.evaluate((0, 0, 0, 0)) == constant_term(f) == 7
    s2 = ring.parse("x3^2 - x2^2")
    for j in (1, 2, 3):
        assert s2.evaluate((j, j * j, 1, 1)) == 0
        assert s2.evaluate((j, j * j, 1, -1)) == 0


def test_parse_examples(ring, gens):
    x0, x1, x2, x3 = gens
    s = ring.parse("49*x1^2 + x2^2 - 36*x3^2 - 14*x0^2")
    assert s == 49 * x1 ** 2 + x2 ** 2 - 36 * x3 ** 2 - 14 * x0 ** 2
    assert ring.parse("0").is_zero()
    assert ring.parse("3/2*x0 - 1/2") == x0 * Fraction(3, 2) - Fraction(1, 2)
    assert ring.parse("-x0 + (x1 - 2)*(x1 + 2)") == -x0 + x1 ** 2 - 4


def test_parse_errors(ring):
    with pytest.raises(ParseError) as err:
        ring.parse("x0*(x0 - 1")
    assert err.value.position == 10
    with pytest.raises(ParseError):
        ring.parse("x9 + 1")
    with pytest.raises(ParseError):
        ring.parse("2x0")  # implicit product is not in the grammar
    with pytest.raises(ParseError):
        ring.parse("x0 + ")
    with pytest.raises(ParseError):
        ring.parse("x0 ? 1")


@pytest.mark.parametrize("text", ["x0^\u00b2", "\u0663*x0", "x0 + \uff11"],
                         ids=["superscript", "arabic-indic", "fullwidth"])
def test_parse_rejects_digits_outside_ascii(ring, text):
    # str.isdigit() accepts each of these; int() rejects the superscript
    with pytest.raises(ParseError):
        ring.parse(text)


def test_parse_rejects_integers_int_cannot_read(ring):
    # DIGIT_CAP is the interpreter's default int/str limit
    for text in ("7" * 5000 + "*x0", "1/" + "7" * 5000, "x0^" + "9" * 5000):
        with pytest.raises(ParseError) as err:
            ring.parse(text)
        assert "5000 digits" in str(err.value)


def test_digit_cap_holds_without_the_interpreter_limit(ring, gens):
    from cuspquartics.polyring import DIGIT_CAP

    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert ring.parse("9" * DIGIT_CAP + "*x0") == gens[0] * (10 ** DIGIT_CAP - 1)
        with pytest.raises(ParseError) as err:
            ring.parse("9" * (DIGIT_CAP + 1) + "*x0")
        assert f"{DIGIT_CAP + 1} digits is too long" in str(err.value)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def test_parse_nesting_cap(ring, gens):
    from cuspquartics.polyring import NESTING_CAP

    nested = lambda depth: "(" * depth + "x0 - 1" + ")" * depth
    assert ring.parse(nested(NESTING_CAP)) == gens[0] - 1
    with pytest.raises(ParseError) as err:
        ring.parse(nested(NESTING_CAP + 1))
    assert err.value.position == NESTING_CAP
    with pytest.raises(ParseError):
        ring.parse(nested(40 * NESTING_CAP))


def test_parse_collects_repeated_monomials():
    ring = PolyRing(("x0", "x1"), GF(7))
    x0, x1 = ring.gens()
    assert ring.parse("3*x0 - 5*x0 + 9 - x1*(x0 + 1) + x1") == x0 * 5 - x0 * x1 + 2
    assert ring.parse("x0 - x0").is_zero()


def test_parse_long_sum_is_linear(ring):
    # adding the terms one at a time took 37 s for 5000 terms
    rng = random.Random(5000)
    monomials = set()
    while len(monomials) < 5000:
        monomials.add(tuple(rng.randint(0, 12) for _ in range(4)))
    coeffs = {m: Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 9))
              for m in sorted(monomials)}
    chunks = []
    for m, c in coeffs.items():
        factors = [f"x{i}^{e}" for i, e in enumerate(m) if e]
        chunks.append(" - " if c < 0 else " + ")
        chunks.append("*".join([f"{abs(c.numerator)}/{c.denominator}"] + factors))
    started = time.monotonic()
    parsed = ring.parse("".join(chunks))
    elapsed = time.monotonic() - started
    assert parsed == ring.from_dict(coeffs)
    assert elapsed < 10.0, f"5000 terms took {elapsed:.1f} s, budget is 10 s"


def test_substitute_long_sum_is_linear(ring):
    # adding the pieces one at a time took 4.9 s for 2000 terms
    rng = random.Random(2000)
    monomials = set()
    while len(monomials) < 2000:
        monomials.add(tuple(rng.randint(0, 12) for _ in range(4)))
    coeffs = {m: Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 9))
              for m in sorted(monomials)}
    x0, x1, x2, x3 = ring.gens()
    # x0^a x1^b x2^c x3^d -> x0^d x1^(a + d) x2^b x3^c is injective
    images = (x1, x2, x3, x0 * x1)
    started = time.monotonic()
    image = ring.from_dict(coeffs).substitute(images)
    elapsed = time.monotonic() - started
    assert image == ring.from_dict({(d, a + d, b, c): coeff
                                    for (a, b, c, d), coeff in coeffs.items()})
    assert elapsed < 1.0, f"2000 terms took {elapsed:.2f} s, budget is 1 s"


def test_format_canonical(ring):
    assert str(ring.zero()) == "0"
    f = ring.parse("-x0 + x1^2 - 3/4")
    assert str(f) == "x1^2 - x0 - 3/4"
    assert str(ring.parse(str(f))) == str(f)


def test_exponent_cap(ring, gens):
    x0 = gens[0]
    with pytest.raises(ExponentOverflowError):
        ring.parse("x0^70000")
    big = x0 ** 60000
    with pytest.raises(ExponentOverflowError):
        big * big


def test_order_change_is_explicit(ring):
    f = ring.parse("x0 + x1^2")
    lex_ring = ring.with_order("lex")
    g = lex_ring.convert(f)
    assert f.leading_monomial() == (0, 2, 0, 0)   # grevlex: degree first
    assert g.leading_monomial() == (1, 0, 0, 0)   # lex: x0 beats x1^2
    with pytest.raises(RingMismatchError):
        PolyRing(("y0",)).convert(f)


def test_prime_field_arithmetic():
    ring = PolyRing(("x",), GF(7))
    x, = ring.gens()
    assert (x + 1) ** 7 == x ** 7 + 1
    half = ring.constant(Fraction(1, 2))
    assert half == ring.constant(4)
    f = ring.parse("3*x^2 + 6")
    assert f.evaluate((2,)) == (3 * 4 + 6) % 7
    assert str(ring.parse(str(f))) == str(f)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_prime_field_order_must_be_an_int():
    # 7.0 == 7 with the same hash, so the type is checked before the cache:
    # once before GF(7) may be cached and once after
    for _ in range(2):
        for p in (7.0, Fraction(7), "7"):
            with pytest.raises(TypeError):
                GF(p)
        field = GF(7)
        assert field.p == 7 and type(field.p) is int
        assert field.convert(10) == 3 and type(field.convert(10)) is int
        assert type(field.convert(Fraction(1, 2))) is int


def test_hash_and_equality(ring):
    f = ring.parse("x0 + 2*x1")
    g = ring.parse("2*x1 + x0")
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1


def test_ring_axioms_sample(make_rng):
    support.check_ring_axioms(make_rng(1), 150)


def test_order_axioms_sample(make_rng):
    support.check_order_axioms(make_rng(2), 150)


def test_exact_divide_roundtrip_sample(make_rng):
    support.check_exact_divide_roundtrip(make_rng(3), 80)


def test_substitute_homomorphism_sample(make_rng):
    support.check_substitute_homomorphism(make_rng(4), 80)


def test_parse_format_roundtrip_sample(make_rng):
    support.check_parse_format_roundtrip(make_rng(5), 80)


def test_prime_field_reduction_sample(make_rng):
    support.check_prime_field_reduction(make_rng(6), 40)
