import hashlib
import random
import sys
import time
from fractions import Fraction

import pytest

from cuspquartics.polyring import (
    GF,
    QQ,
    DivisionError,
    ExponentOverflowError,
    ParseError,
    PolyRing,
    PrimeField,
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
    # the peaks of multi-term operands come from different terms, so the
    # check holds per term of the product, in both operand orders; in the
    # second pair the overflowing term of the left operand is not its lead
    x1 = gens[1]
    for a, b in ((x0 ** 40000 + x1, x1 + x0 ** 30000),
                 (x1 ** 50000 + x0 ** 40000, x0 ** 30000 + x1),
                 (x0 + x1 ** 40000 + x0 ** 2, x0 ** 3 + x1 ** 30000 * x0)):
        for f, g in ((a, b), (b, a)):
            with pytest.raises(ExponentOverflowError):
                f * g
    # exactly at the cap from different terms is fine
    a, b = x0 ** 30000 + x1 ** 40000, x1 ** 25536 + x0 ** 35536
    assert a * b == b * a == ring.from_dict({
        (65536, 0, 0, 0): 1, (30000, 25536, 0, 0): 1,
        (35536, 40000, 0, 0): 1, (0, 65536, 0, 0): 1})


def test_variable_names_follow_the_tokenizer_rule():
    # printed output must parse back: x^2^2 + y does not
    for names in (("x^2", "y"), ("x0", "a*b"), ("a b",), ("",), ("1x",),
                  ("x#",), ("x-y",), ("(x)",)):
        with pytest.raises(ValueError, match="is not an identifier"):
            PolyRing(names)
    ring = PolyRing(("_y", "x_1", "é", "x²", "Z9"))
    f = ring.parse("_y^2 - 3*x_1*é + x²^4*Z9")
    assert ring.parse(str(f)) == f and f.degree() == 5


def test_from_dict_checks_exponent_tuples():
    ring = PolyRing(("x0", "x1"))
    with pytest.raises(ValueError, match="negative exponent"):
        ring.from_dict({(-1, 0): 1})
    with pytest.raises(ValueError, match="exponent vector has wrong length"):
        ring.from_dict({(1,): 1})
    with pytest.raises(ExponentOverflowError, match="exponent exceeds cap 65536"):
        ring.from_dict({(65537, 0): 1})
    with pytest.raises(TypeError, match="exponents must be integers"):
        ring.from_dict({(1.5, 0): 1})
    assert str(ring.from_dict({(65536, 0): 1})) == "x0^65536"


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


def test_prime_field_conversions_and_identity():
    field = GF(7)
    assert field.convert("3/2") == 5
    for value in (1.5, None):
        with pytest.raises(TypeError):
            field.convert(value)
    with pytest.raises(ZeroDivisionError):
        field.invert(7)
    assert field == PrimeField(7) and hash(field) == hash(PrimeField(7))
    assert repr(field) == "GF(7)"


def test_hash_and_equality(ring):
    f = ring.parse("x0 + 2*x1")
    g = ring.parse("2*x1 + x0")
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1
    # one value, one stored form, whatever the route to it
    x0, x1 = ring.gen(0), ring.gen(1)
    half = ring.from_dict({(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): 1})
    assert half.den == 2 and [c for _, c in half.items] == [1, 2]
    routes = [ring.from_dict({(1, 0, 0, 0): Fraction(2, 4), (0, 1, 0, 0): 1}),
              ring.from_dict({(1, 0, 0, 0): "2/4", (0, 1, 0, 0): "3/3"}),
              ring.parse(str(half)),
              ((x0 + 2 * x1) * (x0 - x1)).exact_divide(2 * x0 - 2 * x1),
              (x0 + 2 * x1).scale(Fraction(1, 2))]
    for h in routes:
        support.assert_canonical(h)
        assert h == half and hash(h) == hash(half)


def test_rational_inverse_is_an_exact_fraction():
    assert QQ.invert(2) == Fraction(1, 2) and type(QQ.invert(2)) is Fraction
    assert QQ.invert(-3) == Fraction(-1, 3) and type(QQ.invert(-3)) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.invert(0)


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


def _arithmetic_lines(order, domain):
    """Seeded products, powers, exact quotients, substitutions, partial
    derivatives, evaluations and parse/format round trips, printed, on 20
    pairs of polynomials in three variables."""
    rng = random.Random(f"ring:{order}:{domain.name}")
    ring = PolyRing(("x0", "x1", "x2"), domain, order)
    target = PolyRing(("y0", "y1"), domain, order)
    other = ring.with_order("lex" if order != "lex" else "grevlex")

    def draw(within, max_degree, max_terms):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            m = [0] * within.nvars
            for _ in range(rng.randint(0, max_degree)):
                m[rng.randrange(within.nvars)] += 1
            terms[tuple(m)] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
        return within.from_dict(terms)

    lines = []
    for _ in range(20):
        f, g = draw(ring, 4, 4), draw(ring, 3, 3)
        images = [draw(target, 2, 3) for _ in range(3)]
        point = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(3)]
        i = rng.randrange(3)
        text = str(f)
        assert ring.parse(text) == f
        pieces = [text, str(g), str(f + g), str(f - g), str(f * g),
                  str(f ** rng.randint(0, 3)), str(f.scale(Fraction(-5, 2))),
                  str((f * g).exact_divide(g) if g else "-"),
                  str(f.substitute(images)), str(f.partial_derivative(i)),
                  str(f.evaluate(point)), str(other.convert(f)),
                  str(f.leading_monomial() if f else "-"), str(f.degree())]
        lines.append(" | ".join(pieces))
    return lines


def _digest(line):
    return hashlib.sha256(line.encode()).hexdigest()[:12]


# _digest of each line of _arithmetic_lines as the exponent-tuple ring printed
# them, before polynomials stored packed monomials
FROZEN = {
    ('grevlex', 'QQ'): (
        "95d753676cd1", "954a92980882", "4cbfcb7d0c9a", "8b70877adda4", "6faac1521187",
        "4164c5d8a836", "331c33b5ebdc", "4400cfac3884", "fff1abac4f18", "52dd61124442",
        "c97b1a1bc511", "4da323a92eb9", "1a1d0f168037", "c7f35b1caa43", "bbdbb98b9990",
        "8ab80e6fa56e", "26c9e9b7f1e1", "467fb63dc5f7", "72e0abb394a8", "b0a08d53efb8",
    ),
    ('lex', 'QQ'): (
        "2cc5f583dd2a", "eb2f8ebd3513", "564f69075d01", "a16b613f8f09", "b8e405e7485b",
        "8d6c5ff7956d", "d7721e56a210", "4a334d4e3855", "072b17c0cf97", "4c1e29644d92",
        "1a90a6e24f42", "79f9a03e31fa", "7f72a6a06a24", "c3998634d5cb", "10a6362c34fd",
        "f6f3f3e0b9be", "44879ca7ed98", "7b23f3bf7897", "967bdd202d05", "c24cb96c9c46",
    ),
    ('grlex', 'QQ'): (
        "f6ea675c8e51", "3483ff82bd8d", "941798e2b174", "033fb24e233b", "0ec44279e509",
        "b6745ef0ac70", "b4ba9360cd59", "d080822568c1", "c536dfc8efcb", "b56d37ee324b",
        "739d593e78cb", "9ce5b702f133", "fde061acf410", "039bf88a02ec", "9ea04eadf7ac",
        "dc4b36cbd669", "02156d212e0a", "3a17fc209565", "1337bbf5bed1", "9116c9560ee0",
    ),
    ('grevlex', 'GF(7)'): (
        "9191bbd454fd", "b63a6936dd9e", "eb77ba341a0b", "75167d1cf008", "646ab1dd189f",
        "abfd274f0e05", "9bca6587e0e7", "465e6c3fd496", "fb18194b7191", "abb6d5819df6",
        "0829cc1c286e", "f51a03d5102b", "c7e3bf93ecd7", "b371fbee282c", "55cb9038e873",
        "7bd7a0d1ec87", "c821aee360bf", "d8a060bf8bd6", "2c9b570d159c", "4daabe7266e1",
    ),
    ('lex', 'GF(7)'): (
        "caa4ed20d25c", "aad268e7ad2a", "3b7b0e2fe0d4", "e055c50b6713", "bc8f4c0655ec",
        "61a4a79dfc1c", "74e8dcd56cb3", "ffd72745dccf", "1a64359001f3", "6da3ea006994",
        "a7745fcd06e5", "553b6bde7693", "91ee86083f01", "d8ea61d44365", "58bc32b8cdf3",
        "5a6415b79647", "0ea7b00e3253", "74f32cf5960b", "06d4d9395ec4", "01ec90da7780",
    ),
    ('grlex', 'GF(7)'): (
        "c59a1837f04a", "e93d9179a69b", "8047be176e45", "ce36d435975d", "d89143982875",
        "a340607dec92", "d16b990bfa08", "3c0c8ffa6d09", "8641fc4f739c", "a069bae75cf7",
        "7b0b30e7c533", "f8058f42567d", "cd62452e81e2", "310c1d3cd26c", "53fff7fa2787",
        "d00c233c745a", "64f9ee699182", "04cf30dae8e7", "c7f485285838", "cd48db9104ab",
    ),
    ('grevlex', 'GF(32003)'): (
        "65e51fb5f7e1", "08fff2839647", "c27042d07f0f", "3187ce8f1b34", "7038407bf77d",
        "1a2bc2a8e0da", "6cb8da1c001b", "cd9ee041d0b2", "6fab0e8f6833", "2d32c835afdf",
        "a598f0b1dfcb", "cc693dff7b51", "09f257234a70", "5039bb179f56", "5221489a8299",
        "5f1a105d2bfd", "22eba1269850", "d77bc0fc8f0d", "005fc0874d0c", "6db912a4165b",
    ),
    ('lex', 'GF(32003)'): (
        "94bfc6b07781", "0f724b249f1b", "e9f16a9131e9", "80e01675bd73", "10f2b62639c0",
        "cde817a5a9dc", "22e9f4b2fc53", "6bdf32924905", "b6422adc10c5", "9ce0768206f4",
        "ec318eb005ea", "3bb538388d8e", "3eebdbc80e62", "cc28e629cf39", "513900309e06",
        "25831ec5693e", "9caee926f806", "ad8ed5b7348a", "7f3635b1e8e3", "e6152bf54723",
    ),
    ('grlex', 'GF(32003)'): (
        "ae19d7230903", "3c8cda2297cb", "be62ccaeb2cb", "455ea4367ba4", "edcaf1899472",
        "e4ef7eb0319f", "d20fb0157bd2", "ef5c1e2f9849", "db0934572a66", "5c96b8936587",
        "5877cc276942", "e61abb8994da", "a56b698f5822", "f3a52cd1f6e4", "60a7e230cbb4",
        "845b1cc97434", "75a78c8258cd", "cab7a8759e35", "c1faab6c4b66", "8cce196db527",
    ),
}


@pytest.mark.parametrize("order", ["grevlex", "lex", "grlex"])
@pytest.mark.parametrize("domain", [QQ, GF(7), GF(32003)],
                         ids=["QQ", "GF7", "GF32003"])
def test_ring_arithmetic_matches_the_frozen_digests(order, domain):
    lines = _arithmetic_lines(order, domain)
    frozen = FROZEN[order, domain.name]
    for i, (line, digest) in enumerate(zip(lines, frozen)):
        assert _digest(line) == digest, (i, line)
    assert len(lines) == len(frozen) == 20


def test_input_checks_keep_their_errors(ring, gens):
    x0, x1, x2, _ = gens
    with pytest.raises(ValueError, match="unknown term order 'deglex'"):
        PolyRing(("x0",), QQ, "deglex")
    for read in (ring.zero().leading_monomial, ring.zero().leading_coefficient):
        with pytest.raises(ValueError, match="zero polynomial has no leading term"):
            read()
    with pytest.raises(TypeError, match="expected Polynomial, got float"):
        x0 * 1.5
    assert 3 - x0 == -x0 + 3 and (3 - x0).evaluate((1, 0, 0, 0)) == 2
    with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
        x0 ** -1
    for index in (4, -1):
        with pytest.raises(ValueError, match=f"variable index {index} out of range"):
            x0.partial_derivative(index)
    with pytest.raises(TypeError, match="images must be polynomials"):
        x0.substitute((x0, x1, 2, x2))
    other = PolyRing(ring.variables, QQ, "lex")
    with pytest.raises(RingMismatchError, match="images live in different rings"):
        x0.substitute((x0, x1, x2, other.gen(3)))
    with pytest.raises(ValueError, match="expected 4 coordinates"):
        x0.evaluate((1, 2, 3))
    mod7 = PolyRing(ring.variables, GF(7))
    with pytest.raises(RingMismatchError,
                       match=r"cannot convert coefficients from GF\(7\) to QQ"):
        ring.convert(mod7.gen(0))
