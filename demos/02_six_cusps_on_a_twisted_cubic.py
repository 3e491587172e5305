"""A quartic surface with six cusps on a twisted cubic, fully certified.

The construction: pick linear forms lp, lpp, fp, fpp and a residual quadric
R, form the contact cubics lp^3 + fp*R and lpp^3 + fpp*R and the contact
quadric S = R + lp*lpp.  The quartic surface is det [[S, q12], [q21, q22 - S]]
for the three quadrics q12, q21, q22 that cut out the twisted cubic; it is
also the exact quotient of the sextic (cubic_a * cubic_b - S^3) by R.  Its
cusps are the intersection of S with the twisted cubic.
"""

from cuspquartics import (
    buchberger,
    classify,
    classify_configuration,
    cusp_candidates,
    cusp_divisibility_certificate,
    fiber_change,
    jacobian_ideal,
    singular_locus_contained_in,
    singular_set_certificate,
    transversal_at,
    twisted_cubic_example,
)

family = twisted_cubic_example()
print("forms:", ", ".join(str(f) for f in family.forms()))
print("residual quadric R:", family.residual)
print("contact quadric S:", family.contact_quadric)
print("quartic surface:", family.quartic)

# The quartic is built as the 2x2 determinant; dividing the sextic by R
# gives the same polynomial.
division_route = family.sextic.exact_divide(family.residual)
print("\nexact division agrees with the determinant:",
      division_route == family.quartic)

config = classify_configuration(*family.forms())
print("configuration type:", config.kind.value, "(carrier is a twisted cubic)")

search = cusp_candidates(family, config)
print("\npullback of S along the twisted cubic:", search.binary_form)
print("cusp candidates:")
for p in search.points:
    verdict = classify(family.quartic, p)
    print(f"  {p}: {verdict.kind.value}, quadratic rank {verdict.quad_rank},"
          f" cubic on kernel {verdict.cubic_on_kernel}")

print("\ntransversality at every cusp:",
      all(transversal_at(family.cubic_a, family.cubic_b,
                         family.contact_quadric, p) for p in search.points))

# Groebner certificates: the singular locus sits inside all four quadrics
# through the carrier curve, with fourth powers already in the jacobian ideal.
basis = buchberger(jacobian_ideal(family.quartic))
print("\njacobian ideal reduced basis size:", len(basis))
for label, g in (("q12", family.q12), ("q21", family.q21),
                 ("q22", family.q22), ("S", family.contact_quadric)):
    cert = singular_locus_contained_in(family.quartic, g, 8, basis)
    print(f"  singular locus inside {label}: verified={cert.verified},"
          f" exponent={cert.data['exponent']}")

print("\nno extra singularities:",
      singular_set_certificate(family, search, 8, basis).verified)
print("three-divisibility certificate:",
      cusp_divisibility_certificate(family, search.points).verified)

# Changing the parameter of the carrier curve transforms the determinantal
# matrix by constant 2x2 matrices; the identity is checked exactly.
change = fiber_change(family, ((3, 1), (5, 2)))
print("\nfiber change by ((3,1),(5,2)) verified:", change.verified)
print("transformed contact quadric:", change.quadric)
