"""The package surface: lazily executed layers and the public names."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import cuspquartics

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

LAYERS = ("polyring", "linalg", "groebner", "geometry", "singular", "codes")

# the names ``from cuspquartics import ...`` has served since 0.1.0
PUBLIC = {
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

# An external tracer imports the CLI, then looks every layer up in
# sys.modules and wraps the functions it finds in vars() of each.  The
# script runs the command given in its arguments.
LAYER_STATES = """
import contextlib, io, json, sys, types
before = set(sys.modules)
import cuspquartics.cli

LAYERS = %r
def executed():
    return [n for n in LAYERS
            if type(sys.modules["cuspquartics." + n]) is types.ModuleType]
registered = [n for n in LAYERS if "cuspquartics." + n in sys.modules]
after_import = executed()
with contextlib.redirect_stdout(io.StringIO()):
    code = cuspquartics.cli.main(sys.argv[1:])
after_run = executed()
imported = sorted(set(sys.modules) - before)
found = {n: sorted(k for k in vars(sys.modules["cuspquartics." + n])
                   if not k.startswith("_"))
         for n in LAYERS}
print(json.dumps({"registered": registered, "code": code,
                  "after_import": after_import, "after_run": after_run,
                  "after_vars": executed(), "found": found,
                  "imported": imported}))
""" % (LAYERS,)


def layer_states(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", LAYER_STATES, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_layers_are_registered_but_run_only_when_used():
    state = layer_states("gb", "x0^2 - x1, x1^2 - x2")
    assert state["registered"] == list(LAYERS)
    assert state["code"] == 0
    assert state["after_run"] == ["polyring", "groebner"]
    assert state["after_vars"] == list(LAYERS)
    for layer, names in PUBLIC.items():
        assert set(names) <= set(state["found"][layer])
    assert {"rref", "det", "solve"} <= set(state["found"]["linalg"])


def test_cli_import_and_enumerate_sets_skip_groebner():
    state = layer_states("enumerate-sets")
    assert state["code"] == 0
    assert state["after_import"] == ["polyring"]
    assert state["after_run"] == ["polyring", "linalg", "codes"]


def test_code_and_cusps_run_only_their_layers():
    state = layer_states("code", "--length", "8", "--generators",
                         "1,1,1,1,1,1,0,0;0,0,1,1,-1,-1,1,1")
    assert state["code"] == 0
    assert state["after_run"] == ["polyring", "linalg", "codes"]
    state = layer_states("cusps", str(GOLDEN / "ex61.manifest"))
    assert state["code"] == 0
    assert state["after_run"] == ["polyring", "linalg", "geometry", "singular"]


def test_public_names_are_still_served():
    listed = dir(cuspquartics)
    for layer, names in PUBLIC.items():
        module = import_module(f"cuspquartics.{layer}")
        for name in names:
            namespace = {}
            exec(f"from cuspquartics import {name}", namespace)
            assert namespace[name] is getattr(module, name), name
            assert name in listed, name
    assert set(LAYERS) <= set(listed)
    with pytest.raises(ImportError):
        exec("from cuspquartics import no_such_name", {})


def test_no_command_imports_dataclasses_or_inspect():
    # between them the two commands execute every layer; the records are
    # named tuples, so nothing pulls in dataclasses and the modules it imports
    barth = layer_states("verify-example", "barth")
    assert barth["code"] == 0
    assert barth["after_run"] == [n for n in LAYERS if n != "groebner"]
    ex61 = layer_states("verify-example", "ex61")
    assert ex61["code"] == 0
    assert set(barth["after_run"]) | set(ex61["after_run"]) == set(LAYERS)
    for state in (barth, ex61):
        assert not {"dataclasses", "inspect", "ast", "dis",
                    "tokenize"} & set(state["imported"])


# the eight records: field names in order, and the defaults
RECORDS = {
    ("geometry", "Line"): ("point_a point_b equations", {}),
    ("geometry", "Configuration"): (
        "kind vertex lines", {"vertex": None, "lines": None}),
    ("geometry", "DivisibleFamily"): (
        "lp lpp fp fpp residual cubic_a cubic_b contact_quadric q12 q21 q22 "
        "quartic", {}),
    ("geometry", "CuspSearch"): (
        "points unresolved configuration binary_form lines",
        {"binary_form": None, "lines": None}),
    ("geometry", "FiberChange"): ("forms quadric verified induced", {}),
    ("singular", "SingularityVerdict"): (
        "point kind chart quad_rank kernel_direction cubic_on_kernel", {}),
    ("singular", "Certificate"): ("claim data verified", {}),
    ("codes", "CuspConfiguration"): ("points symmetries", {}),
}


@pytest.mark.parametrize("layer, name", RECORDS, ids=[n for _, n in RECORDS])
def test_records_are_immutable_named_tuples(layer, name):
    cls = getattr(import_module(f"cuspquartics.{layer}"), name)
    fields, defaults = RECORDS[layer, name]
    assert cls._fields == tuple(fields.split())
    assert cls._field_defaults == defaults
    if name == "CuspConfiguration":
        record = cls(("a", "b"), ((1, 0),))
        changed = {"symmetries": ((0, 1), (1, 0))}
        with pytest.raises(ValueError, match="not a permutation"):
            cls(("a", "b"), ((0, 0),))
        with pytest.raises(ValueError, match="not a permutation"):
            record._replace(symmetries=((1, 1),))
    else:
        record = cls(*range(len(cls._fields)))
        changed = {cls._fields[-1]: "new"}
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], "other")
    replaced = record._replace(**changed)
    assert type(replaced) is cls
    assert replaced == record[:-1] + tuple(changed.values())
    assert getattr(record, cls._fields[-1]) == record[-1]

