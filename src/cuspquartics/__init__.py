"""Exact-arithmetic toolkit for quartic surfaces with three-divisible cusps.

Layers: ``polyring`` (canonical sparse polynomials over QQ and prime
fields), ``groebner`` (reduced bases, normal forms, membership),
``geometry`` (determinantal quartic families and cusp search), ``singular``
(local classification and certificates), ``codes`` (ternary constant-weight
codes and the support-family search), and ``cli`` (scriptable front end).

Importing the package registers every layer module in ``sys.modules`` and
as an attribute of the package, but executes none of them: each is a
``importlib.util.LazyLoader`` module whose source runs on its first
attribute access (``vars()`` included).  A process therefore runs only the
layers it touches.  ``import cuspquartics.cli`` executes ``polyring`` and
``cli``; ``gb`` and ``nf`` add ``groebner``, ``code`` and ``enumerate-sets``
add ``linalg`` and ``codes``; ``cusps`` and ``construct`` execute every
layer but ``groebner`` and ``codes``, ``construct --certify`` and
``verify-example ex61|ex62`` every layer but ``codes``, and
``verify-example barth`` every layer but ``groebner``.  The public
names below are served from their layers on first use, so ``from
cuspquartics import buchberger`` executes only ``groebner`` and
``polyring``.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

_PUBLIC = {
    "polyring": ("GF", "QQ", "DivisionError", "ExponentOverflowError",
                 "ParseError", "Polynomial", "PolyRing", "RingMismatchError"),
    "groebner": ("GroebnerBasis", "Ideal", "buchberger", "ideal_membership",
                 "is_zero_dimensional_affine", "normal_form",
                 "radical_membership", "s_polynomial"),
    "geometry": ("Configuration", "ConfigurationType", "CuspSearch",
                 "DependentFormsError", "DivisibleFamily", "GeometryError",
                 "InfiniteIntersectionError", "Line", "ProjectivePoint",
                 "build_family", "classify_configuration",
                 "concurrent_lines_example", "cusp_candidates",
                 "determinantal_quartic", "eight_cusp_points",
                 "eight_cusp_quartic", "family_from_manifest",
                 "family_to_manifest", "fiber_change", "ideal_quadrics",
                 "param_ring", "surface_ring", "twisted_cubic_example",
                 "twisted_cubic_map"),
    "singular": ("Certificate", "CertificateError", "SingularityKind",
                 "SingularityVerdict", "classify",
                 "cusp_divisibility_certificate", "forms_through_points",
                 "is_singular_point", "jacobian_ideal",
                 "singular_locus_contained_in", "singular_set_certificate",
                 "transversal_at"),
    "codes": ("CuspConfiguration", "TernaryCode",
              "configuration_from_coordinate_swaps", "coplanar_subsets",
              "eight_cusp_code", "enumerate_constant_weight_codes",
              "enumerate_divisible_families", "griesmer_holds",
              "is_constant_weight", "weight"),
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}


def _register(layer):
    spec = find_spec(f"{__name__}.{layer}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in ("polyring", "linalg", "groebner", "geometry", "singular",
               "codes"):
    globals()[_layer] = _register(_layer)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted(set(globals()) | set(_LAYER_OF))


__version__ = "0.1.0"
