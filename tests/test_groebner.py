from fractions import Fraction

import pytest

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
from cuspquartics.polyring import GF, QQ, PolyRing, monomial_div

import support


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
