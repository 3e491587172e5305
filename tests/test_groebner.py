import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from cuspquartics import geometry, groebner, singular
from cuspquartics.groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    ideal_membership,
    is_zero_dimensional_affine,
    normal_form,
    radical_membership,
    s_polynomial,
)
from cuspquartics.polyring import (
    EXPONENT_CAP,
    GF,
    QQ,
    ExponentOverflowError,
    PolyRing,
    RingMismatchError,
)

import support
from support import monomial_div, monomial_lcm, monomial_mul, order_key


@pytest.fixture
def ring2():
    return PolyRing(("x0", "x1"))


def test_s_polynomial_examples():
    lex = PolyRing(("x0", "x1"), QQ, "lex")
    x0, x1 = lex.gens()
    assert s_polynomial(x0 ** 2, x0 * x1).is_zero()
    assert s_polynomial(x0 + x1, x1 + 1) == x1 ** 2 - x0
    f = x0 ** 2 + x1
    assert s_polynomial(f, f).is_zero()


@pytest.mark.parametrize("order", ["lex", "grlex", "grevlex"])
@pytest.mark.parametrize("domain", [QQ, GF(7), GF(32003)],
                         ids=["QQ", "GF7", "GF32003"])
def test_s_polynomial_matches_the_formula(make_rng, order, domain):
    # the S-pair of the two divisor views, over the lcm of their leading
    # coefficients, against the textbook formula in Polynomial arithmetic
    rng = make_rng(23)
    ring = PolyRing(("x0", "x1", "x2"), domain, order)
    checked = 0
    for _ in range(120):
        bound = rng.choice((4, 10 ** 12))
        f, g = (support.random_nonzero(rng, ring, max_degree=4, max_terms=4,
                                       coeff_bound=bound) for _ in range(2))
        # equal leads, a pair with itself and a rescaled pair cancel more
        g = rng.choice((g, g + f.scale(rng.randint(-3, 3)), f, f.scale(-2)))
        if g:
            s = s_polynomial(f, g)
            assert s == support.s_polynomial_formula(f, g)
            support.assert_canonical(s)
            checked += 1
    assert checked >= 100


def assert_reduced(basis):
    """Monic, and no term divisible by another element's leading monomial."""
    leads = basis.leading_monomials()
    for i, g in enumerate(basis):
        assert g.leading_coefficient() == 1
        for m, _ in g.terms:
            for j, lm in enumerate(leads):
                if i != j:
                    assert monomial_div(m, lm) is None


def test_buchberger_already_reduced(ring2):
    x0, x1 = ring2.gens()
    basis = buchberger(Ideal([x0, x1]))
    assert set(basis.polys) == {x0, x1}
    assert_reduced(basis)


def test_buchberger_lex_elimination():
    lex = PolyRing(("x0", "x1"), QQ, "lex")
    x0, x1 = lex.gens()
    basis = buchberger(Ideal([x0 - x1 ** 2, x1 - 1]))
    assert set(basis.polys) == {x0 - 1, x1 - 1}


def test_buchberger_order_override(ring2):
    x0, x1 = ring2.gens()
    basis = buchberger(Ideal([x0 - x1 ** 2, x1 - 1]), order="lex")
    assert [str(g) for g in basis] == ["x1 - 1", "x0 - 1"]


def test_zero_ideal(ring2):
    basis = buchberger(Ideal.spanned_by([ring2.zero()], ring=ring2))
    assert len(basis) == 0
    g = ring2.parse("x0 + 1")
    assert normal_form(g, basis) == g
    assert not ideal_membership(g, basis)
    assert ideal_membership(ring2.zero(), basis)


def test_zero_ideal_without_generators(ring2):
    with pytest.raises(ValueError, match="cannot infer ring for the zero ideal"):
        Ideal.spanned_by([])
    x0, _ = ring2.gens()
    zero = Ideal.spanned_by([], ring=ring2)
    basis = buchberger(zero)
    assert len(basis) == 0
    # answered before the power loop, which would form x0^8 here
    assert radical_membership(x0, zero, 8) is None
    assert radical_membership(ring2.zero(), zero, 8) == 1
    assert is_zero_dimensional_affine(basis) is False
    assert normal_form(x0 + 1, basis) == x0 + 1


def test_normal_form_examples(ring2):
    x0, x1 = ring2.gens()
    basis = buchberger(Ideal([x0, x1]))
    assert normal_form(x0 ** 2 + x1 + 5, basis) == ring2.constant(5)
    basis2 = buchberger(Ideal([x0 ** 2 - x1, x1 ** 2 - x0]))
    assert normal_form(x0 ** 4 - x0, basis2).is_zero()


def test_normal_form_is_fully_reduced(make_rng):
    ring = PolyRing(("x0", "x1", "x2"))
    rng = make_rng(11)
    for _ in range(25):
        gens = [support.random_nonzero(rng, ring, max_degree=2, max_terms=3,
                                       coeff_bound=4, fractions=False)
                for _ in range(2)]
        basis = buchberger(Ideal(gens))
        g = support.random_polynomial(rng, ring, max_degree=4, max_terms=5)
        r = normal_form(g, basis)
        leads = basis.leading_monomials()
        for m, _ in r.terms:
            assert all(monomial_div(m, lm) is None for lm in leads)
        assert ideal_membership(g - r, basis)


def test_normal_form_keeps_fractional_remainders():
    ring = PolyRing(("x0", "x1", "x2"))
    x0, x1, x2 = ring.gens()
    # plain non-monic divisors: x0 -> x2/2 and x1 -> -1/3
    divisors = [2 * x0 - x2, 3 * x1 + 1]
    r = normal_form(x0 * x1 + x2 ** 2, divisors)
    assert r == x2 ** 2 - x2 * Fraction(1, 6)
    assert normal_form(x0 * x1 + x2 ** 2, [d * 7 for d in divisors]) == r
    basis = buchberger(Ideal([2 * x0 - 1]))
    assert str(normal_form(x0 ** 2 + x1, basis)) == "x1 + 1/4"


def test_normal_form_ignores_divisor_scaling(make_rng):
    # the remainder of a full division does not depend on divisor scaling
    rng = make_rng(61)
    ring = PolyRing(("x0", "x1", "x2"))
    for _ in range(25):
        divisors = [support.random_nonzero(rng, ring, max_degree=2, max_terms=3)
                    for _ in range(rng.choice((1, 2, 3)))]
        scaled = [d.scale(Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 4, 7))))
                  for d in divisors]
        g = support.random_polynomial(rng, ring, max_degree=4, max_terms=5)
        r = normal_form(g, divisors)
        assert normal_form(g, scaled) == r
        leads = [d.leading_monomial() for d in divisors]
        for m, _ in r.terms:
            assert all(monomial_div(m, lm) is None for lm in leads)


def test_normal_form_over_prime_field():
    ring = PolyRing(("x0", "x1"), GF(7))
    x0, x1 = ring.gens()
    # 3*x0 - 1 makes x0 = 5 in GF(7); x1^2 + x0 then leaves 2*x1 + 5
    assert normal_form(x0 * x1 + x1 ** 2, [3 * x0 - 1, x1 ** 2 + x0]) == x1 * 5 + 2


def test_ideal_membership_examples(ring2):
    x0, x1 = ring2.gens()
    ideal = Ideal([x0, x1])
    assert ideal_membership(x0 + x1, ideal)
    assert not ideal_membership(ring2.one(), ideal)


def test_radical_membership_examples(ring2):
    x0, x1 = ring2.gens()
    assert radical_membership(x0, Ideal([x0 ** 2]), 8) == 2
    assert radical_membership(x0 + 1, Ideal([x0]), 10) is None
    assert radical_membership(x0, Ideal([x0]), 8) == 1
    with pytest.raises(ValueError):
        radical_membership(x0, Ideal([x0]), 0)


def test_zero_dimensional_detection(ring2):
    x0, x1 = ring2.gens()
    assert is_zero_dimensional_affine(buchberger(Ideal([x0 ** 2, x1 ** 3])))
    assert not is_zero_dimensional_affine(buchberger(Ideal([x0])))
    assert is_zero_dimensional_affine(buchberger(Ideal([x0 ** 2 - 1, x1 - x0])))
    assert is_zero_dimensional_affine(buchberger(Ideal([x0, x1, ring2.one()])))


def test_membership_against_divisibility_oracle(make_rng):
    # monomial ideals: g is in <m1, m2> iff every term is divisible by some mi
    rng = make_rng(21)
    ring = PolyRing(("x0", "x1"))
    for _ in range(200):
        ms = [support.random_monomial(rng, 2, 3) for _ in range(rng.choice((1, 2)))]
        gens = [ring.monomial(m) for m in ms]
        if any(g.is_zero() for g in gens):
            continue
        g = support.random_polynomial(rng, ring, max_degree=4, max_terms=4)
        expected = all(any(monomial_div(m, mi) is not None for mi in ms)
                       for m, _ in g.terms)
        assert ideal_membership(g, Ideal(gens)) == expected


def test_homogeneous_input_gives_homogeneous_basis(make_rng):
    rng = make_rng(31)
    ring = PolyRing(("x0", "x1", "x2"))
    for _ in range(20):
        gens = []
        for _ in range(2):
            d = rng.choice((1, 2, 3))
            acc = {}
            for _ in range(3):
                m = support.random_monomial(rng, 3, d)
                if sum(m) != d:
                    continue
                acc[m] = Fraction(rng.randint(-4, 4))
            f = ring.from_dict(acc)
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        basis = buchberger(Ideal(gens))
        assert all(g.is_homogeneous() for g in basis)


def test_prime_field_groebner():
    ring = PolyRing(("x", "y"), GF(7))
    x, y = ring.gens()
    basis = buchberger(Ideal([x ** 2 + y ** 2, x * y]))
    assert basis.verify_buchberger_criterion()
    assert ideal_membership(x ** 3, Ideal([x ** 2 + y ** 2, x * y]))
    assert is_zero_dimensional_affine(basis)


@pytest.mark.parametrize("domain", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_audit_rejects_a_non_basis(domain):
    ring = PolyRing(("x0", "x1"), domain)
    x0, x1 = ring.gens()
    # S(x0^2 + x1, x0*x1) = x1^2, which neither leading monomial divides
    assert s_polynomial(x0 ** 2 + x1, x0 * x1) == x1 ** 2
    assert not GroebnerBasis(ring, [x0 ** 2 + x1, x0 * x1]).verify_buchberger_criterion()
    assert buchberger([x0 ** 2 + x1, x0 * x1]).verify_buchberger_criterion()


def test_pruned_audit_agrees_with_all_pairs(make_rng):
    # the audit checks only the pairs the criteria keep; a list passes it
    # exactly when every pair's S-polynomial reduces to zero
    rng = make_rng(81)
    ring = PolyRing(("x0", "x1", "x2"))
    verdicts = set()
    for _ in range(30):
        polys = [support.random_nonzero(rng, ring, max_degree=2, max_terms=3,
                                        coeff_bound=4, fractions=False)
                 for _ in range(rng.choice((2, 3, 4)))]
        if rng.random() < 0.5:
            polys = list(buchberger(Ideal(polys)))
        every_pair = all(normal_form(s_polynomial(f, g), polys).is_zero()
                         for i, f in enumerate(polys) for g in polys[i + 1:])
        assert GroebnerBasis(ring, polys).verify_buchberger_criterion() == every_pair
        verdicts.add(every_pair)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p", [32003, 65521])
def test_prime_field_basis_matches_rational_basis(make_rng, p):
    # Differential oracle: the reduced basis over QQ, mapped into GF(p), is
    # the reduced basis over GF(p) of the mapped generators.  A case is
    # skipped when p divides a generator's leading coefficient or a
    # denominator of a coefficient of the QQ reduced basis, where the
    # reduction mod p of the computation is not defined.
    rng = make_rng(71)
    ring = PolyRing(("x0", "x1", "x2"))
    ring_p = PolyRing(ring.variables, GF(p))
    checked = 0
    for _ in range(30):
        gens = [support.random_nonzero(rng, ring, max_degree=3, max_terms=4,
                                       coeff_bound=9, fractions=False)
                for _ in range(rng.choice((2, 3)))]
        basis = buchberger(Ideal(gens))
        if (any(g.leading_coefficient() % p == 0 for g in gens)
                or any(c.denominator % p == 0 for g in basis for _, c in g.terms)):
            continue
        mapped = buchberger(Ideal([ring_p.convert(g) for g in gens]))
        assert mapped.polys == tuple(ring_p.convert(g) for g in basis)
        checked += 1
    assert checked >= 25


def test_uniqueness_and_audit_sample(make_rng):
    bases = support.check_groebner_uniqueness(make_rng(41), 12)
    support.audit_bases(bases)


def test_reduced_basis_shape(make_rng):
    # reduced: monic, and no term divisible by another element's lead
    rng = make_rng(51)
    ring = PolyRing(("x0", "x1", "x2"))
    for _ in range(10):
        gens = [support.random_nonzero(rng, ring, max_degree=2, max_terms=3,
                                       coeff_bound=3, fractions=False)
                for _ in range(2)]
        assert_reduced(buchberger(Ideal(gens)))


def test_example_jacobian_basis(ex61_family, ex61_basis):
    assert len(ex61_basis) == 17
    assert all(g.is_homogeneous() for g in ex61_basis)
    fam = ex61_family
    for g in (fam.q12, fam.q21, fam.q22, fam.contact_quadric):
        assert ideal_membership(g ** 4, ex61_basis)
        assert radical_membership(g, ex61_basis, 8) == 4
    assert not ideal_membership(fam.q12, ex61_basis)


def test_ideal_validation(ring2):
    other = PolyRing(("y0",))
    with pytest.raises(Exception):
        Ideal([ring2.gen(0), other.gen(0)])
    with pytest.raises(ValueError):
        Ideal([])
    with pytest.raises(ValueError, match="needs a nonzero generator"):
        Ideal([ring2.zero()])


def test_normal_form_keeps_the_exponent_cap():
    # x0 -> x1^40000 turns x0^2 into x1^80000, past the cap, inside the reducer
    ring = PolyRing(("x0", "x1"), QQ, "lex")
    divisors = [ring.parse("x0 - x1^40000")]
    for basis in (divisors, buchberger(divisors)):
        with pytest.raises(ExponentOverflowError, match="exponent exceeds cap 65536"):
            normal_form(ring.parse("x0^2"), basis)
    below = [ring.parse("x0 - x1^30000")]
    assert str(normal_form(ring.parse("x0^2"), below)) == "x1^60000"


@pytest.mark.parametrize("order", ["lex", "grlex", "grevlex"])
def test_packed_monomials_match_exponent_tuples(order):
    # every monomial with exponents in {0, 1, cap - 1, cap} in three
    # variables, and seeded ones up to the cap in four
    rng = random.Random(f"monomials:{order}")
    edge = (0, 1, EXPONENT_CAP - 1, EXPONENT_CAP)
    batches = [list(product(edge, repeat=3)),
               [tuple(rng.choice((rng.randint(0, EXPONENT_CAP), rng.choice(edge)))
                      for _ in range(4)) for _ in range(60)]]
    for monomials in batches:
        ring = PolyRing(tuple(f"x{i}" for i in range(len(monomials[0]))), QQ, order)
        key = order_key(order)
        packed = [ring.key(m) for m in monomials]
        assert [ring.unpack(pm) for pm in packed] == monomials
        for a, pa in zip(monomials, packed):
            for b, pb in zip(monomials, packed):
                ka, kb = key(a), key(b)
                assert (pa > pb) - (pa < pb) == (ka > kb) - (ka < kb)
                try:
                    ab = monomial_mul(a, b)
                except ExponentOverflowError:
                    with pytest.raises(ExponentOverflowError):
                        ring.check_cap(pa + pb)
                else:
                    ring.check_cap(pa + pb)
                    assert ring.unpack(pa + pb) == ab
                q = monomial_div(b, a)
                assert ring.divides(pa, pb) == (q is not None)
                if q is not None:
                    assert ring.unpack(pb - pa) == q
                assert ring.unpack(ring.peak([pa, pb])) == monomial_lcm(a, b)


def _differential_lines(order, domain):
    """Reduced basis, normal form modulo it and plain division by the
    generators, printed, on 50 seeded ideals in three variables."""
    rng = random.Random(f"packed:{order}")
    ring = PolyRing(("x0", "x1", "x2"), QQ, order)
    target = PolyRing(ring.variables, domain, order)
    lines = []
    while len(lines) < 50:
        gens = []
        for _ in range(rng.choice((2, 3))):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                m = [0, 0, 0]
                for _ in range(rng.randint(1, 3)):
                    m[rng.randrange(3)] += 1
                terms[tuple(m)] = rng.randint(-5, 5)
            f = target.convert(ring.from_dict(terms))
            if f:
                gens.append(f)
        g = target.convert(ring.from_dict(
            {tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(-5, 5)
             for _ in range(4)}))
        if not gens:
            continue
        basis = buchberger(gens)
        lines.append(" | ".join(("; ".join(map(str, basis)),
                                 str(normal_form(g, basis)),
                                 str(normal_form(g, gens)))))
    return lines


def _digest(line):
    return hashlib.sha256(line.encode()).hexdigest()[:12]


# _digest of each line of _differential_lines as the tuple-monomial reducer
# printed them, before monomials were packed
FROZEN = {
    ('lex', 'QQ'): (
        "9ec75ae01983", "23e90d2b7796", "257e5d2cb0c5", "e599809da0b8", "d39fd95d56a6",
        "c67f27fc999c", "8f2929d74d5d", "994f0aac699a", "22d281dbdd4f", "90130c0fe592",
        "bd7dd3218928", "0e593560d5fc", "cac9c6972963", "bc6b996e33ce", "0975c087a5ba",
        "dc38e93f117b", "d412c2f96ba0", "b8a47420e24a", "a015f802e8c9", "cc46e4b0130e",
        "e77b50271c8d", "3b9a819cfaf3", "c3d49800b025", "1d41265f53f1", "f2343a05cdaf",
        "f17f63ab2a60", "c93552587561", "343ebbbcc744", "7741ff44bdff", "fbc27861f1a6",
        "4105dd4b033a", "44700e39bb0b", "3362d7acd808", "8448881ed390", "0c56a47adb42",
        "3f911465deaf", "5ab70085e7d2", "e77b50271c8d", "2fc916e17f0f", "00d9f94d36a9",
        "7b1e2d0cdeac", "91b2ed79b421", "f37711de7ed9", "3741ea5267e5", "e4cf900b214b",
        "512a6f45ca58", "4645291943fe", "7be40327d8ce", "2b95956be69f", "d86f4e99c5bc",
    ),
    ('lex', 'GF(32003)'): (
        "bf452e70e33c", "707805d9c6a7", "257e5d2cb0c5", "e599809da0b8", "e2335a812508",
        "c67f27fc999c", "3c635c7dad3c", "675d332a7c0e", "22d281dbdd4f", "976ac4c65d99",
        "850e93dae9ab", "cb7bda3bf555", "7449cce50fe3", "bc6b996e33ce", "d9ceaf1cb725",
        "da210962c213", "c55abd1ef1e8", "a4e788f842dd", "ad7f05ea86ff", "aa1a7b1f201d",
        "e77b50271c8d", "3b9a819cfaf3", "c3d49800b025", "32784a057d97", "92f9d65104a8",
        "47ff6db00da9", "c93552587561", "56890403d395", "7741ff44bdff", "d2b0d09bc968",
        "33952c7a9907", "44700e39bb0b", "d7f8bbf04873", "6ce4c9557656", "2930dabe0dec",
        "3f911465deaf", "c0acefb91b40", "e77b50271c8d", "48bfa28e9ba9", "00d9f94d36a9",
        "ceec72ac615b", "9bccfb1f8211", "26dbd0922198", "c239a5dff9ff", "133936e90d56",
        "512a6f45ca58", "887f23631f1d", "9e5d520681a8", "804c9d4e2f5a", "dc42d7da7a0d",
    ),
    ('grlex', 'QQ'): (
        "5c45cfcff0be", "38f40be0bca7", "068f433aead1", "b4dc7e1322af", "abb09d4f85db",
        "4d815fb09a88", "087d7ba7d9c7", "31d00927ccfe", "ff73114bf481", "d7581e7523f8",
        "33d957069be4", "dcef61c53a28", "9890c58c8489", "2dc88187f4b1", "7143394e4bcf",
        "8777eaabb0a5", "7d49fe557d10", "901dfb78b384", "621913eaab61", "969d6dda8c24",
        "6f02edb56881", "590e95951c5e", "ae623f23978b", "fda353467e72", "3907fc39453d",
        "beb1f7fef441", "a8bc8c0198d6", "a59bbbef5e15", "534532315029", "757e7c0abc73",
        "503eeb86293e", "b4579d292e92", "956a4a1f0c5f", "503397fd7349", "5aaf343fccb8",
        "757e7c0abc73", "0d4c4ea95c63", "7d431948782f", "757e7c0abc73", "99061e2abf90",
        "b3c1e80dc976", "f1a79075e14a", "607cd149fdb4", "22d281dbdd4f", "5d95d9475326",
        "ea094aef0fbd", "07aedac77a37", "c98bac9222d8", "38bc5f23bddc", "67f1328103eb",
    ),
    ('grlex', 'GF(32003)'): (
        "da818b004420", "384a5fdd8261", "33841b50b05e", "572995c30f93", "f30447f6c8df",
        "ca47bbca9bae", "fd5b49a1862c", "27a399fed306", "ff73114bf481", "9119d8a19469",
        "d5abcd40b76e", "7f58cdbdefae", "1422e1abf1ef", "1758050cecec", "567329395867",
        "dd0c3373733e", "8be41659eca8", "bd6a58ee8adb", "656882af5db3", "969d6dda8c24",
        "61e0ea41a3d5", "766995983c25", "7926dc841ecd", "fda353467e72", "2828a41b6099",
        "584e7e91a43b", "0886bd2478f4", "f7c3b0524719", "e252c12074ca", "757e7c0abc73",
        "668fa4b45c4b", "9b73cc37932f", "956a4a1f0c5f", "5d366eb315b3", "0183aa7c1662",
        "757e7c0abc73", "b0fc533b9c69", "c326cc6165e7", "757e7c0abc73", "1b74296723a5",
        "7bfa34381f02", "6082942ae8fd", "1d73215bc83c", "22d281dbdd4f", "6b36a05f2135",
        "5f5f5cba94b7", "78bb2f37f06f", "ce949a75d3e4", "38bc5f23bddc", "51fd57cc1dfc",
    ),
    ('grevlex', 'QQ'): (
        "a96fc9bb4713", "a25b5499dec6", "1ccdc9e3edd7", "c70ea7d248c3", "8d1efa8e925b",
        "e3567c2591d0", "716294ca0baf", "38bc5f23bddc", "89402c83b3a9", "afc6d6d6a6bf",
        "61cbf981468d", "de131e8b988d", "f7306b2108c0", "1a3199b55d26", "f0f2e37e60c5",
        "18c481c3e303", "4bdf09fd2b34", "a7193b4988fa", "8098b25a7cf6", "cf6734e13dc0",
        "b4a85455a0f0", "81492a194f72", "1c104bbc3501", "31f8f164c52f", "a8ffe2f544eb",
        "cf08825270e7", "757e7c0abc73", "662697b0de68", "001b9ba60c17", "1e2cace91d96",
        "fa3438ca9c62", "18ecd40b943b", "a45fcf22d7c7", "1b1d755956b3", "96f488a48b03",
        "5fd7900a70a8", "67b8472dba51", "1388bd037511", "4a428855bcd2", "378c4ed4fd5e",
        "198456a2a991", "7741ff44bdff", "1254a208fbb7", "c0de8b156177", "88868de331d2",
        "e5c8f903729f", "8f6615e50fd7", "e9dcf7e98b48", "ded61b6aa0fe", "fe52c7811b0e",
    ),
    ('grevlex', 'GF(32003)'): (
        "39f3a0e41375", "e6eba54fcdd7", "d0eea3a93871", "9d6ec079b5d3", "c6b9e399281e",
        "2f68763e2fac", "8f17e7c60d00", "38bc5f23bddc", "fa72fe3a5f3f", "afc6d6d6a6bf",
        "d8612c70d2a6", "de131e8b988d", "aa67f1323f40", "b8b3bb16889a", "516ab5c02826",
        "4bb784744ff6", "452768a9fe63", "a7193b4988fa", "8098b25a7cf6", "b51f25f96aa3",
        "a1b653f428a4", "d6463d850420", "1c104bbc3501", "a7ce2f2d7aa7", "0e6a51cebee9",
        "18be4e406108", "757e7c0abc73", "4acf0c318c34", "001b9ba60c17", "1e2cace91d96",
        "fa3438ca9c62", "3b27a03ea605", "0c2de4922f0a", "3b238d6c8435", "fb977119dda5",
        "7d4de56a6b55", "1b8dda4f3048", "38ce09ee40e8", "5e8d790009a7", "0f957ed42150",
        "198456a2a991", "7741ff44bdff", "e3c0b5163d78", "4ac7f9691c55", "99003a485851",
        "4c987de20b44", "650a792756bc", "b9e871ae0f96", "45d0462a2aee", "8562bccaa2da",
    ),
}


@pytest.mark.parametrize("order", ["lex", "grlex", "grevlex"])
@pytest.mark.parametrize("domain", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_packed_engine_matches_the_tuple_engine(order, domain):
    lines = _differential_lines(order, domain)
    frozen = FROZEN[order, domain.name]
    for i, (line, digest) in enumerate(zip(lines, frozen)):
        assert _digest(line) == digest, (i, line)
    assert len(lines) == len(frozen) == 50


# ---------------------------------------------------------------------------
# the trace: zero pairs learned mod p, certified over QQ
# ---------------------------------------------------------------------------

# a planted type-I family at coefficient bound 3000; its jacobian's
# generators have 74-bit coefficients
BOUND_3000_MANIFEST = """\
Lp = -2882*x0 - 2274*x1 - 1723*x2 - 2841*x3
Lpp = 226*x0 - 213*x1 - 2661*x2 + 2933*x3
Fp = -2190*x0 - 2990*x1 - 1988*x2 - 2412*x3
Fpp = -377*x0 + 361*x1 - 2581*x2 + 709*x3
R = -8853756670*x0^2 - 13635110935*x0*x1 - 34196700086*x0*x2 \
+ 1897118730*x0*x3 - 6109759865*x1^2 - 10044686107*x1*x2 - 11769453665*x1*x3 \
+ 11494398747*x2^2 - 67894808594*x2*x3 + 30282056103*x3^2
"""


def _coefficient_bits(ideal):
    return max(abs(c.numerator).bit_length() for g in ideal.generators
               for _, c in g.terms)


def _plain_basis(ideal, monkeypatch):
    """The basis from the loop that skips no pair."""
    with monkeypatch.context() as m:
        m.setattr(groebner, "_TRACE_MIN_BITS", float("inf"))
        return buchberger(ideal)


def _count_loops(monkeypatch):
    """Patch the Buchberger loop to record (modular, returned run) per call."""
    calls = []
    loop = groebner._loop

    def counting(ring, gens, skip=frozenset()):
        run = loop(ring, gens, skip)
        calls.append((bool(ring.modulus), run))
        return run

    monkeypatch.setattr(groebner, "_loop", counting)
    return calls


@pytest.fixture(scope="module")
def bound_3000_jacobian():
    family = geometry.family_from_manifest(BOUND_3000_MANIFEST)
    return singular.jacobian_ideal(family.quartic)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_unlucky_primes_fall_back_to_the_same_basis(
        monkeypatch, ring2, ex61_family, ex61_basis, bound_3000_jacobian, p):
    ex61 = singular.jacobian_ideal(ex61_family.quartic)
    assert _coefficient_bits(bound_3000_jacobian) >= 70
    x0, x1 = ring2.gens()
    # a generator that vanishes mod p
    vanishing = Ideal([p * x0 + 2 * p, x1 ** 2 - x0])
    expected = {ex61: ex61_basis.polys,
                bound_3000_jacobian: _plain_basis(bound_3000_jacobian,
                                                  monkeypatch).polys,
                vanishing: _plain_basis(vanishing, monkeypatch).polys}
    monkeypatch.setattr(groebner, "_TRACE_PRIME", p)
    for ideal, polys in expected.items():
        basis = buchberger(ideal, audit=True)
        assert basis.polys == polys
        assert basis.audit is True


def test_generators_outside_the_traced_basis_fall_back(monkeypatch, ring2):
    # mod 5 the constant term vanishes, so the trace learns that the one
    # pair reduces to zero; the QQ run keeps x0 and x0*x1 + 5/4, and
    # minimalisation leaves {x0}, which passes the audit but does not
    # generate the ideal; only the membership check catches it
    x0, x1 = ring2.gens()
    monkeypatch.setattr(groebner, "_TRACE_PRIME", 5)
    calls = _count_loops(monkeypatch)
    basis = buchberger(Ideal([-8 * x0, -4 * x0 * x1 - 5]), audit=True)
    assert basis.polys == (ring2.one(),)
    assert basis.audit is True
    assert [(modular, run is None) for modular, run in calls] == [
        (True, False), (False, False), (False, False)]


def test_a_corrupt_trace_falls_back_to_the_same_basis(monkeypatch,
                                                       bound_3000_jacobian):
    expected = _plain_basis(bound_3000_jacobian, monkeypatch).polys
    calls = _count_loops(monkeypatch)
    loop = groebner._loop

    def corrupting(ring, gens, skip=frozenset()):
        G, zero = loop(ring, gens, skip)
        if ring.modulus:
            # the least pair of the generators that is not a zero pair is
            # taken before any element is appended, and it appends one; it
            # is marked as a zero pair
            pairs = {}
            for t in range(len(gens)):
                pairs = groebner._update_pairs(ring, G, pairs, t)
            zero.add(min((L, ij) for ij, L in pairs.items()
                         if ij not in zero)[1])
        return G, zero

    monkeypatch.setattr(groebner, "_loop", corrupting)
    basis = buchberger(bound_3000_jacobian, audit=True)
    assert basis.polys == expected
    assert basis.audit is True
    # the traced QQ run completes and fails the checks, then the plain run
    assert [(modular, run is None) for modular, run in calls] == [
        (True, False), (False, False), (False, False)]


def test_traced_basis_matches_the_plain_basis(make_rng):
    # audit=True always traces; these small coefficients stay below the
    # gate, so the plain call runs the loop once with no pair skipped
    rng = make_rng(91)
    cases = 0
    for order in ("grevlex", "grlex", "lex"):
        ring = PolyRing(("x0", "x1", "x2"), QQ, order)
        for _ in range(15):
            gens = [support.random_nonzero(rng, ring, max_degree=2,
                                           max_terms=3, coeff_bound=9)
                    for _ in range(rng.choice((2, 3)))]
            traced = buchberger(Ideal(gens), audit=True)
            plain = buchberger(Ideal(gens))
            assert traced.polys == plain.polys, (order, gens)
            assert traced.audit is True
            assert plain.audit is None
            cases += 1
    assert cases >= 40


@pytest.mark.parametrize("bits", [groebner._TRACE_MIN_BITS - 1,
                                  groebner._TRACE_MIN_BITS])
def test_trace_gate_on_coefficient_bits(monkeypatch, ring2, bits):
    x0, x1 = ring2.gens()
    c = 2 ** (bits - 1)
    ideal = Ideal([x0 ** 2 - c * x1, x0 * x1 - 3 * x1 ** 2 + 1])
    assert _coefficient_bits(ideal) == bits
    calls = _count_loops(monkeypatch)
    basis = buchberger(ideal)
    traced = bits >= groebner._TRACE_MIN_BITS
    assert [modular for modular, _ in calls] == ([True, False] if traced
                                                 else [False])
    assert basis.audit is (True if traced else None)
    assert basis.polys == _plain_basis(ideal, monkeypatch).polys



@pytest.mark.parametrize("domain", [QQ, GF(7), GF(32003)],
                         ids=["QQ", "GF7", "GF32003"])
def test_bases_and_normal_forms_are_canonical(make_rng, domain):
    rng = make_rng(91)
    ring = PolyRing(("x0", "x1", "x2"), domain)
    for _ in range(15):
        gens = [support.random_nonzero(rng, ring, max_degree=2, max_terms=3,
                                       coeff_bound=4)
                for _ in range(2)]
        basis = buchberger(Ideal(gens))
        g = support.random_polynomial(rng, ring, max_degree=4, max_terms=5)
        for f in (*basis, normal_form(g, basis), normal_form(g, gens)):
            support.assert_canonical(f)


def test_input_checks_keep_their_errors(ring2):
    x0, x1 = ring2.gens()
    zero = Ideal.spanned_by([ring2.zero()])
    assert zero.ring == ring2 and zero.generators == ()
    with pytest.raises(ValueError, match="s_polynomial needs nonzero inputs"):
        s_polynomial(x0, ring2.zero())
    lex = ring2.with_order("lex")
    with pytest.raises(RingMismatchError, match="s_polynomial needs a common ring"):
        s_polynomial(x0, lex.gen(1))
    with pytest.raises(RingMismatchError, match="polynomial and basis rings differ"):
        normal_form(x0, buchberger([lex.gen(1)]))
    with pytest.raises(RingMismatchError, match="polynomial and divisor rings differ"):
        normal_form(x0, [x1, lex.gen(1)])
    with pytest.raises(TypeError, match="expected a GroebnerBasis"):
        is_zero_dimensional_affine([x0])


@pytest.mark.parametrize("domain", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("order", ["grevlex", "lex", "grlex"])
def test_normal_form_modulo_a_linear_form_is_a_substitution(order, domain):
    # x0 leads both divisors, so the remainder is free of x0 and equals P
    # with the root of the divisor in x0 substituted: an oracle that runs
    # no reducer, against 60 rescaling steps per reduction over QQ
    ring = PolyRing(("x0", "x1"), domain, order)
    x0, x1 = ring.gens()
    P = 5 * (x0 + x1) ** 60 + x0 ** 3 * x1
    assert normal_form(P, [2 * x0 - 3]) == P.substitute(
        [ring.constant(Fraction(3, 2)), x1])
    assert normal_form(P, [3 * x0 - 2 * x1]) == P.substitute(
        [x1 * Fraction(2, 3), x1])
