import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cuspquartics import cli
from cuspquartics.polyring import Polynomial

SRC = Path(__file__).resolve().parent.parent / "src"

EX61_MANIFEST = """\
Lp = x0
Lpp = x1
Fp = x2
Fpp = x3
R = 49*x1^2 + x2^2 - 36*x3^2 - 14*x0^2 - x0*x1
"""

EX62_MANIFEST = """\
Lp = x0
Lpp = x1
Fp = x2
Fpp = 6*(x1 + x2) - 11*x0
R = x3^2 - x2^2 - x0*x1
"""


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


def test_gb_inline(capsys):
    code, report, _ = run_json(capsys, "--json", "gb", "x0, x1")
    assert code == 0
    basis = next(r for r in report["results"] if r["name"] == "reduced basis")
    assert basis["size"] == 2
    audit = next(r for r in report["results"] if r["name"] == "s-polynomial audit")
    assert audit["status"] == "pass"


def test_gb_empty_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gb")
    assert code == 2
    assert "generators" in err


def test_gb_parse_error(capsys):
    code, _, err = run_cli(capsys, "gb", "x0 + ")
    assert code == 2


def test_gb_from_file_with_order(capsys, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("x0 - x1^2\nx1 - 1\n")
    code, report, _ = run_json(capsys, "--json", "gb", "--file", str(path),
                               "--order", "lex")
    assert code == 0
    basis = next(r for r in report["results"] if r["name"] == "reduced basis")
    assert basis["elements"] == ["x1 - 1", "x0 - 1"]


def test_gb_file_comments_follow_the_manifest_rule(capsys, tmp_path):
    # an indented comment line and a trailing comment are both dropped, as
    # the manifest reader drops them
    path = tmp_path / "gens.txt"
    path.write_text("  # the twisted cubic\nx0*x2 - x1^2  # first\n"
                    "\t# tab-indented\nx1*x3 - x2^2\nx0*x3 - x1*x2 #\n")
    code, report, err = run_json(capsys, "--json", "gb", "--file", str(path))
    assert (code, err) == (0, "")
    _, inline, _ = run_json(capsys, "--json", "gb",
                            "x0*x2 - x1^2, x1*x3 - x2^2, x0*x3 - x1*x2")
    basis = next(r for r in report["results"] if r["name"] == "reduced basis")
    assert basis == next(r for r in inline["results"]
                         if r["name"] == "reduced basis")
    assert basis["size"] == 3


def test_gb_lex_selects_pairs_by_the_term_order(capsys):
    # picking the least lcm degree first, this ideal ran for minutes with
    # coefficients of 95,000 bits; picking by the lex order it is quick
    from cuspquartics.groebner import normal_form
    from cuspquartics.polyring import PolyRing

    gens = ["-5*x0^2*x1^2*x2 - 2*x0*x2 - 3*x2",
            "4*x0^2 - 2*x1^2*x2 - 4*x2^2",
            "-2*x0*x1^2*x2^2 - 5*x0*x1*x2^2 - 4*x0*x2"]
    start = time.perf_counter()
    code, report, _ = run_json(capsys, "--json", "gb", "--order", "lex",
                               "--vars", "x0,x1,x2", ", ".join(gens))
    assert time.perf_counter() - start < 5
    assert code == 0
    audit = next(r for r in report["results"] if r["name"] == "s-polynomial audit")
    assert audit["status"] == "pass"
    ring = PolyRing(("x0", "x1", "x2"), order="lex")
    basis = next(r for r in report["results"] if r["name"] == "reduced basis")
    elements = [ring.parse(g) for g in basis["elements"]]
    assert len(elements) == 4
    assert all(normal_form(ring.parse(g), elements).is_zero() for g in gens)


def test_gb_audits_the_basis_once(capsys, monkeypatch):
    from cuspquartics.groebner import GroebnerBasis

    audits = []
    verify = GroebnerBasis.verify_buchberger_criterion

    def counting(self):
        audits.append(self)
        return verify(self)

    monkeypatch.setattr(GroebnerBasis, "verify_buchberger_criterion", counting)
    code, report, _ = run_json(capsys, "--json", "gb", "x0^2 - x1, x0*x1 - 1")
    assert code == 0 and report["verified"]
    assert len(audits) == 1


@pytest.mark.parametrize("gens, elements", [
    ("x0^40000, x0^30000*x1", ["x0^30000*x1", "x0^40000"]),
    ("x0^40000 - 1, x0^30000*x1 - x1", ["x0^10000*x1 - x1", "x0^40000 - 1"]),
])
def test_gb_pair_criteria_stay_below_the_exponent_cap(capsys, gens, elements):
    # the product criterion compares an lcm with the product of two leads,
    # x0^70000*x1 here; no polynomial of the run passes the cap
    code, report, _ = run_json(capsys, "--json", "gb", gens, "--vars", "x0,x1")
    assert code == 0
    basis = next(r for r in report["results"] if r["name"] == "reduced basis")
    assert basis["elements"] == elements
    audit = next(r for r in report["results"] if r["name"] == "s-polynomial audit")
    assert audit["status"] == "pass"


def test_gb_unreadable_file_exit2(capsys, tmp_path):
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes(b"x0 - \xff\n")
    for path in (tmp_path / "nope.txt", undecodable):
        code, out, err = run_cli(capsys, "gb", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("input error: cannot read")


@pytest.mark.parametrize("names", [",", "x0,x0", "x0,a*b", "x^2"])
def test_gb_bad_variables_exit2(capsys, names):
    code, out, err = run_cli(capsys, "gb", "x0", "--vars", names)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")


@pytest.mark.parametrize("names", [",", "x0,x0", "x0,a*b", "x^2"])
def test_nf_bad_variables_exit2(capsys, names):
    code, out, err = run_cli(capsys, "nf", "x0", "x0^2", "--vars", names)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")


def test_nf(capsys):
    code, report, _ = run_json(capsys, "--json", "nf", "x0, x1", "x0^2 + x1 + 5")
    assert code == 0
    entry = next(r for r in report["results"] if r["name"] == "normal form")
    assert entry["remainder"] == "5"
    assert entry["in_ideal"] is False


def test_nf_fractional_remainder(capsys):
    code, report, _ = run_json(capsys, "--json", "nf", "2*x0 - 1", "x0^2 + x1")
    assert code == 0
    entry = next(r for r in report["results"] if r["name"] == "normal form")
    assert entry["remainder"] == "x1 + 1/4"
    assert entry["in_ideal"] is False


def test_report_schema(capsys):
    code, report, _ = run_json(capsys, "verify-example", "ex62", "--json")
    assert code == 0
    assert set(report) == {"command", "inputs", "results", "warnings",
                           "verified", "elapsed_ms"}
    assert report["verified"] is True
    assert isinstance(report["elapsed_ms"], int)


def test_construct_matches_verify_example(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text(EX61_MANIFEST)
    code, report, _ = run_json(capsys, "--json", "construct", str(path))
    assert code == 0
    quartic = next(r for r in report["results"] if r["name"] == "quartic")
    code2, report2, _ = run_json(capsys, "--json", "verify-example", "ex61")
    quartic2 = next(r for r in report2["results"] if r["name"] == "quartic")
    assert quartic["polynomial"] == quartic2["polynomial"]
    assert any(w["message"].startswith("suspected misprint")
               for w in report2["warnings"])


def test_construct_certify(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text(EX62_MANIFEST)
    code, report, _ = run_json(capsys, "--json", "construct", str(path),
                               "--certify")
    assert code == 0
    names = [r["name"] for r in report["results"]]
    assert "three-divisibility certificate" in names
    assert "no extra singularities" in names


def test_construct_certify_failure_exits_1(capsys, tmp_path):
    # with the exponent cap below the true minimum the containment
    # certificates cannot verify, so the run reports a failure
    path = tmp_path / "fam.txt"
    path.write_text(EX61_MANIFEST)
    code, report, _ = run_json(capsys, "--json", "construct", str(path),
                               "--certify", "--pmax", "1")
    assert code == 1
    assert report["verified"] is False
    failing = [r for r in report["results"] if r["status"] == "FAIL"]
    assert failing


def test_construct_dependent_forms_exit3(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("Lp = x0\nLpp = x0\nFp = x2\nFpp = x3\nR = x2*x3\n")
    code, _, err = run_cli(capsys, "construct", str(path))
    assert code == 3
    assert "dependent" in err


def test_construct_parse_error_exit2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("Lp = x0*(x0\nLpp = x1\nFp = x2\nFpp = x3\nR = x2*x3\n")
    code, _, _ = run_cli(capsys, "construct", str(path))
    assert code == 2


def test_construct_missing_file_exit2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "construct", str(tmp_path / "nope.txt"))
    assert code == 2


def test_construct_undecodable_file_exit2(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"Lp = x0 \xff\n")
    code, _, err = run_cli(capsys, "construct", str(path))
    assert code == 2
    assert err.startswith("input error: cannot read manifest")


def test_cusps_command(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text(EX62_MANIFEST)
    code, report, _ = run_json(capsys, "--json", "cusps", str(path))
    assert code == 0
    entry = next(r for r in report["results"] if r["name"] == "cusp candidates")
    assert len(entry["points"]) == 6


def test_code_command(capsys):
    code, report, _ = run_json(
        capsys, "--json", "code", "--length", "8",
        "--generators", "1,1,1,1,1,1,0,0;0,0,1,1,-1,-1,1,1",
        "--griesmer", "8,3,6")
    assert code == 0
    entry = next(r for r in report["results"] if r["name"] == "code")
    assert entry["dimension"] == 2
    assert entry["weight_distribution"] == {"0": 1, "6": 8}
    assert len(entry["supports"]) == 4
    bound = next(r for r in report["results"]
                 if r["name"] == "griesmer bound for [8,3,{6}]")
    assert bound["holds"] is False


def test_code_zero_word(capsys):
    code, report, _ = run_json(capsys, "--json", "code", "--length", "4",
                               "--generators", "0,0,0,0")
    assert code == 0
    entry = next(r for r in report["results"] if r["name"] == "code")
    assert entry["dimension"] == 0


def test_code_mixed_lengths_exit2(capsys):
    code, _, _ = run_cli(capsys, "code", "--length", "8",
                         "--generators", "1,1;1,1,1,1,1,1,0,0")
    assert code == 2


@pytest.mark.parametrize("claim", ["0,1,1", "3,0,2", "3,1,-2"])
def test_code_nonpositive_griesmer_claim_exit2(capsys, claim):
    code, out, err = run_cli(capsys, "code", "--length", "3",
                             "--generators", "1,1,0", "--griesmer", claim)
    assert code == 2
    assert out == ""
    assert err == f"input error: bad griesmer claim {claim!r}\n"


def test_code_griesmer_claim_with_large_dimension_finishes():
    # the bound's sum has D terms; summing all 10^6 of them never finishes
    proc = subprocess.run(
        [sys.executable, "-m", "cuspquartics", "--json", "code", "--length",
         "3", "--generators", "1,1,0", "--griesmer", "3,1000000,3"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    bound = next(r for r in report["results"]
                 if r["name"] == "griesmer bound for [3,1000000,{3}]")
    assert bound["holds"] is False


@pytest.mark.parametrize("argv", [
    ("construct", "{manifest}", "--certify", "--pmax", "0"),
    ("verify-example", "ex61", "--pmax", "0"),
    ("verify-example", "ex62", "--pmax", "-3"),
])
def test_pmax_below_one_exit2(capsys, tmp_path, argv):
    path = tmp_path / "fam.txt"
    path.write_text(EX61_MANIFEST)
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(manifest=path) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --pmax: must be at least 1" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ("construct", "{manifest}", "--certify", "--pmax", "32769"),
    ("verify-example", "ex61", "--pmax", "100000"),
])
def test_pmax_above_half_the_exponent_cap_exit2(capsys, tmp_path, argv):
    # q^k of a quadric q has exponents up to 2k, so k = 32769 passes the cap
    path = tmp_path / "fam.txt"
    path.write_text(EX61_MANIFEST)
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(manifest=path) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --pmax: must be at most 32768" in captured.err
    assert "exponent exceeds cap" not in captured.err
    assert "Traceback" not in captured.err


def test_pmax_at_half_the_exponent_cap_runs(capsys):
    code, report, _ = run_json(capsys, "--json", "--pmax", "32768",
                               "verify-example", "ex61")
    assert code == 0 and report["verified"]


def test_verify_example_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "verify-example", "ex61")
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-example", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, _, err = run_cli(capsys, "verify-example", "barth", "--k", "0")
    assert code == 3


@pytest.mark.parametrize("k", ["1", "-1", "0", "2/2"])
def test_verify_barth_refuses_degenerate_k(capsys, k):
    # k = 1 gives 8*x0^2*x1^2 and k = -1 a quartic singular along curves
    code, out, err = run_cli(capsys, "verify-example", "barth", f"--k={k}")
    assert code == 3
    assert out == ""
    assert err == ("precondition violated: the eight-cusp family needs "
                   "k != 0, 1, -1\n")


def test_verify_barth_warns_but_verifies(capsys):
    code, report, _ = run_json(capsys, "--json", "verify-example", "barth",
                               "--k", "3")
    assert code == 0
    assert report["verified"] is True
    assert any("ordinary double points" in w["message"]
               for w in report["warnings"])


def test_verify_barth_takes_a_separate_negative_fraction(capsys):
    reports = []
    for argv in (["--k", "-7/5"], ["--k=-7/5"]):
        code, report, _ = run_json(capsys, "--json", "verify-example", "barth",
                                   *argv)
        assert code == 0
        del report["elapsed_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["inputs"]["k"] == "-7/5"
    for bad in ("abc", "1/0"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify-example", "barth", "--k", bad])
        assert exc.value.code == 2
        assert "not a rational number" in capsys.readouterr().err


def test_enumerate_sets(capsys):
    code, report, _ = run_json(capsys, "--json", "enumerate-sets")
    assert code == 0
    entry = next(r for r in report["results"] if r["name"] == "support families")
    assert [[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 7, 8],
            [1, 4, 5, 6, 7, 8], [2, 3, 5, 6, 7, 8]] in entry["families"]


def test_human_readable_output(capsys):
    code, out, _ = run_cli(capsys, "gb", "x0, x1")
    assert code == 0
    assert "VERIFIED" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cuspquartics", "gb", "x0, x1"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True)
    assert proc.returncode == 0
    assert "VERIFIED" in proc.stdout


def test_cli_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import cuspquartics.cli, sys; assert 'numpy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_construct_certify_computes_each_artifact_once(capsys, tmp_path,
                                                        monkeypatch):
    from collections import Counter

    from test_groebner import BOUND_3000_MANIFEST

    from cuspquartics import geometry, groebner, singular
    from cuspquartics.polyring import Polynomial

    local_data, memberships, partials, conversions = Counter(), [], [], []
    quartic = None

    original_init = singular.LocalData.__init__
    def counting_init(self, f, point, chart=None):
        local_data[(f, point)] += 1
        original_init(self, f, point, chart)

    original_membership = groebner.radical_membership
    def counting_membership(*args):
        memberships.append(args[0])
        return original_membership(*args)

    original_partial = Polynomial.partial_derivative
    def counting_partial(self, var):
        if self == quartic:
            partials.append(var)
        return original_partial(self, var)

    original_views = groebner._views
    def counting_views(ring, polys):
        conversions.append(polys)
        return original_views(ring, polys)

    monkeypatch.setattr(singular.LocalData, "__init__", counting_init)
    monkeypatch.setattr(groebner, "radical_membership", counting_membership)
    monkeypatch.setattr(Polynomial, "partial_derivative", counting_partial)
    monkeypatch.setattr(groebner, "_views", counting_views)
    # ex61 takes the plain path; the bound-3000 jacobian is traced
    for manifest in (EX61_MANIFEST, BOUND_3000_MANIFEST):
        path = tmp_path / "fam.txt"
        path.write_text(manifest)
        quartic = geometry.family_from_manifest(manifest).quartic
        for counter in (local_data, memberships, partials, conversions):
            counter.clear()
        code, report, _ = run_json(capsys, "--json", "construct", str(path),
                                   "--certify")
        assert code == 0 and report["verified"]
        cusps = {p for (f, p) in local_data if f == quartic}
        assert len(cusps) == 6
        assert set(local_data.values()) == {1}
        assert len(memberships) == 4
        assert sorted(partials) == [0, 1, 2, 3]
        # one divisor conversion: the jacobian basis's own views
        assert len(conversions) == 1


def test_barth_reads_local_data_not_expansion(capsys):
    code, report, _ = run_json(capsys, "--json", "verify-example", "barth",
                               "--k", "-7/5")
    assert code == 0
    warning = next(w for w in report["warnings"] if "determinant_at_1000" in w)
    assert warning["formulas_agree"] is True


# deep enough to exhaust the interpreter's recursion limit without the cap
DEEP = "(" * 400 + "x0" + ")" * 400
BAD_POLYNOMIALS = {"superscript-digit": "x1^\u00b2 + x0*x1", "deep-nesting": DEEP,
                   "5000-digit-integer": "7" * 5000 + "*x0^2"}


@pytest.mark.parametrize("text", BAD_POLYNOMIALS.values(),
                         ids=BAD_POLYNOMIALS.keys())
def test_gb_parser_limits_exit2(capsys, text):
    code, out, err = run_cli(capsys, "gb", text)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")


@pytest.mark.parametrize("text", BAD_POLYNOMIALS.values(),
                         ids=BAD_POLYNOMIALS.keys())
def test_cusps_manifest_parser_limits_exit2(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(EX61_MANIFEST.replace(
        "R = 49*x1^2 + x2^2 - 36*x3^2 - 14*x0^2 - x0*x1", f"R = {text}"),
        encoding="utf-8")
    code, out, err = run_cli(capsys, "cusps", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")


def test_code_dimension_above_the_limit_exits_2_at_once():
    units = ";".join(",".join("1" if i == j else "0" for j in range(20))
                     for i in range(20))
    proc = subprocess.run(
        [sys.executable, "-m", "cuspquartics", "code", "--length", "20",
         "--generators", units],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=5)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("input error: code dimension 20 exceeds")


def test_code_dimension_limit_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_CODE_DIMENSION", 2)
    code, _, _ = run_cli(capsys, "code", "--length", "3",
                         "--generators", "1,0,0;0,1,0")
    assert code == 0
    code, _, err = run_cli(capsys, "code", "--length", "3",
                           "--generators", "1,0,0;0,1,0;0,0,1")
    assert code == 2
    assert err.startswith("input error: code dimension 3 exceeds the limit 2")


@pytest.mark.parametrize("argv", [("cusps",), ("construct", "--certify")],
                         ids=["cusps", "construct"])
@pytest.mark.parametrize("manifest", [EX61_MANIFEST, EX62_MANIFEST],
                         ids=["ex61", "ex62"])
def test_manifest_commands_never_divide(capsys, tmp_path, monkeypatch, argv,
                                        manifest):
    # the quartic is the 2x2 determinant; only verify-example ex61 divides
    def refuse(self, g):
        raise AssertionError("the sextic was divided")

    monkeypatch.setattr(Polynomial, "exact_divide", refuse)
    path = tmp_path / "fam.txt"
    path.write_text(manifest)
    code, report, _ = run_json(capsys, "--json", argv[0], str(path), *argv[1:])
    assert code == 0
    assert report["verified"] is True


# (argv, manifest bytes or None, exit code, stderr line); "{path}" in argv
# and stderr stands for the manifest file, which is written unless None
_FORMS = b"Lp = x0\nLpp = x1\nFp = x2\nFpp = x3\n"
BAD_INPUTS = {
    "gb-parse": (("gb", "x0+"), None, 2,
                 "input error: expected variable or '(', found '' (at position 3)"),
    "gb-exponent-cap": (("gb", "x0^70000"), None, 2,
                        "input error: exponent exceeds cap 65536"),
    "gb-unknown-variable": (("gb", "y0"), None, 2,
                            "input error: unknown variable 'y0' (at position 0)"),
    "gb-duplicate-vars": (("gb", "x0", "--vars", "x0,x0"), None, 2,
                          "input error: duplicate variable names"),
    "gb-zero-denominator": (("gb", "1/0*x0"), None, 2,
                            "input error: zero denominator (at position 2)"),
    "gb-missing-exponent": (("gb", "x0^"), None, 2,
                            "input error: expected 'int', found '' (at position 3)"),
    "gb-no-generators": (("gb", ","), None, 2, "input error: no generators given"),
    "nf-no-generators": (("nf", ",", "x0"), None, 2, "input error: no generators given"),
    "nf-parse": (("nf", "x0", "x0+*1"), None, 2,
                 "input error: expected variable or '(', found '*' (at position 3)"),
    "nf-exponent-cap": (("nf", "x0", "x0^70000"), None, 2,
                        "input error: exponent exceeds cap 65536"),
    "nf-duplicate-vars": (("nf", "x0", "x0^2", "--vars", "x0,x0"), None, 2,
                          "input error: duplicate variable names"),
    # parsed within the cap; the reducer's product x1^80000 passes it
    "nf-exponent-cap-in-reduction": (("nf", "x0 - x1^40000", "x0^2", "--order", "lex"),
                                     None, 2, "input error: exponent exceeds cap 65536"),
    "manifest-parse": (("cusps", "{path}"),
                       _FORMS.replace(b"x0\n", b"x0*(x0\n", 1) + b"R = x2*x3\n", 2,
                       "input error: unbalanced parenthesis (at position 6)"),
    "manifest-exponent-cap": (("cusps", "{path}"), _FORMS + b"R = x0^70000\n", 2,
                              "input error: exponent exceeds cap 65536"),
    "residual-degree": (("cusps", "{path}"), _FORMS + b"R = x0^3\n", 2,
                        "input error: residual must be homogeneous of degree 2"),
    "rank-2": (("construct", "{path}"),
               b"Lp = x0\nLpp = x1\nFp = x0\nFpp = x1\nR = x2*x3\n", 3,
               "precondition violated: the four forms vanish on a "
               "positive-dimensional set (rank 2)"),
    "dependent-forms": (("cusps", "{path}"),
                        b"Lp = x0\nLpp = x0\nFp = x2\nFpp = x3\nR = x2*x3\n", 3,
                        "precondition violated: lp and lpp are linearly dependent"),
    "infinite-intersection": (("cusps", "{path}"),
                              _FORMS + b"R = x0^2 - x1*x2 - x0*x1\n", 3,
                              "precondition violated: the contact quadric "
                              "vanishes on the whole carrier curve"),
    "duplicate-key": (("cusps", "{path}"), b"Lp = x1\n" + _FORMS + b"R = x2*x3\n",
                      2, "input error: manifest line 2: duplicate key 'Lp'"),
    "undecodable-file": (("cusps", "{path}"), b"Lp = x0 \xff\n", 2,
                         "input error: cannot read manifest: 'utf-8' codec "
                         "can't decode byte 0xff in position 8: invalid start byte"),
    "missing-file": (("cusps", "{path}"), None, 2,
                     "input error: cannot read manifest: [Errno 2] No such "
                     "file or directory: '{path}'"),
    "gb-file-only-comments": (("gb", "--file", "{path}"), b"# x0\n#x1 + x2\n", 2,
                              "input error: no generators given (inline or --file)"),
    # the offset is the byte's offset in the file, not in a decode chunk
    "gb-undecodable-past-8kb": (("gb", "--file", "{path}"), b"x0\n" * 4000 + b"\xff",
                                2, "input error: cannot read generator file: "
                                "'utf-8' codec can't decode byte 0xff in position "
                                "12000: invalid start byte"),
    "gb-missing-file": (("gb", "--file", "{path}"), None, 2,
                        "input error: cannot read generator file: [Errno 2] No "
                        "such file or directory: '{path}'"),
    # the file is read before the ring is built
    "gb-file-before-vars": (("gb", "--file", "{path}", "--vars", "x0,x0"), None, 2,
                            "input error: cannot read generator file: [Errno 2] "
                            "No such file or directory: '{path}'"),
    "code-bad-word": (("code", "--length", "3", "--generators", "1,x,0"), None, 2,
                      "input error: bad word '1,x,0'"),
    "code-no-words": (("code", "--length", "3", "--generators", ";"), None, 2,
                      "input error: no generator words given"),
    "griesmer-two-values": (("code", "--length", "3", "--generators", "1,1,0",
                             "--griesmer", "8,3"), None, 2,
                            "input error: bad griesmer claim '8,3'"),
    "griesmer-not-integer": (("code", "--length", "3", "--generators", "1,1,0",
                              "--griesmer", "8,x,3"), None, 2,
                             "input error: bad griesmer claim '8,x,3'"),
    "griesmer-below-one": (("code", "--length", "3", "--generators", "1,1,0",
                            "--griesmer", "8,0,3"), None, 2,
                           "input error: bad griesmer claim '8,0,3'"),
    # the claims are checked before the words
    "griesmer-before-words": (("code", "--length", "3", "--generators", "1,x,0",
                               "--griesmer", "8,3"), None, 2,
                              "input error: bad griesmer claim '8,3'"),
}


@pytest.mark.parametrize("argv, manifest, exit_code, message",
                         BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exit_code_and_message(capsys, tmp_path, argv, manifest,
                                         exit_code, message):
    path = tmp_path / "manifest.txt"
    if manifest is not None:
        path.write_bytes(manifest)
    argv = [a.replace("{path}", str(path)) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (exit_code, "",
                                message.replace("{path}", str(path)) + "\n")


GLOBAL_USAGE = "[-h] [--json] [--order {grevlex,lex,grlex}] [--pmax PMAX] [--seed SEED]"
GLOBAL_OPTIONS = (
    ("-h, --help", "show this help message and exit"),
    ("--json", "emit the report as JSON"),
    ("--order {grevlex,lex,grlex}", "term order"),
    ("--pmax PMAX", "cap for radical-membership exponents"),
    ("--seed SEED", "seed echoed into the report (for scripted runs)"),
)
# each subcommand's usage after the global options, and its own options
SUBCOMMAND_HELP = {
    "gb": ("[--file FILE] [--vars VARS] [generators]",
           (("--file FILE", "file with one generator per line"), ("--vars VARS", ""))),
    "nf": ("[--vars VARS] generators polynomial", (("--vars VARS", ""),)),
    "construct": ("[--certify] manifest", (("--certify", ""),)),
    "verify-example": ("[--k K] {ex61,ex62,barth}",
                       (("--k K", "parameter for the barth family, e.g. 2 or -7/5"),)),
    "cusps": ("manifest", ()),
    "code": ("--length LENGTH --generators GENERATORS [--griesmer Q,D,R]",
             (("--length LENGTH", ""),
              ("--generators GENERATORS", "semicolon-separated words, e.g. '1,1,0;0,1,-1'"),
              ("--griesmer Q,D,R", "extra bound checks"))),
    "enumerate-sets": ("", ()),
}


def run_help(capsys, *argv):
    """Exit code, usage line and (invocation, help) option list of --help,
    with whitespace collapsed so that the terminal width does not matter."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    usage, _, rest = capsys.readouterr().out.partition("\n\n")
    options = []
    for line in rest.split("options:\n", 1)[1].split("\n\n")[0].splitlines():
        if line.startswith("  -"):
            invocation, _, text = line.strip().partition("  ")
            options.append((invocation, text.strip()))
        else:
            options[-1] = (options[-1][0], f"{options[-1][1]} {line.strip()}".strip())
    return exc.value.code, " ".join(usage.split()), tuple(options)


@pytest.mark.parametrize("sub", SUBCOMMAND_HELP)
def test_subcommand_help(capsys, sub):
    tail, own = SUBCOMMAND_HELP[sub]
    usage = f"usage: cuspquartics {sub} {GLOBAL_USAGE} {tail}".rstrip()
    assert run_help(capsys, sub) == (0, usage, GLOBAL_OPTIONS + own)


def test_root_help(capsys):
    code, usage, options = run_help(capsys)
    assert (code, usage) == (0, f"usage: cuspquartics {GLOBAL_USAGE} "
                                "{gb,nf,construct,verify-example,cusps,code,"
                                "enumerate-sets} ...")
    assert [o[0] for o in options] == [o[0] for o in GLOBAL_OPTIONS]


def test_nf_prints_a_remainder_beyond_the_interpreter_digit_limit(capsys):
    # (3...3)^2 has 6000 digits, more than int/str conversion allows by default
    code, report, _ = run_json(capsys, "--json", "nf", "x0 - " + "3" * 3000,
                               "x0^2")
    assert code == 0
    entry = next(r for r in report["results"] if r["name"] == "normal form")
    # 33^2 = 1089, 333^2 = 110889, ...
    assert entry["remainder"] == "1" * 2999 + "0" + "8" * 2999 + "9"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter has no int/str digit limit")
@pytest.mark.parametrize("argv", [("nf", "x0 - 3", "x0^2"), ("gb", "x0+")],
                         ids=["ok", "input-error"])
def test_main_restores_the_interpreter_digit_limit(capsys, argv):
    before = sys.get_int_max_str_digits()
    run_cli(capsys, *argv)
    assert sys.get_int_max_str_digits() == before


def test_nf_refuses_an_integer_beyond_the_digit_cap(capsys):
    code, out, err = run_cli(capsys, "nf", "x0", "7" * 5000 + "*x0^2")
    assert (code, out) == (2, "")
    assert err == "input error: integer of 5000 digits is too long (at position 0)\n"


# a planted type-I family with parameters spread to 150 (cuspbench:
# planted.type_one(Random(7), 1, 3, spread_params(150))); its pullback
# sextic has 10-13 digit coefficients
SPREAD_150_MANIFEST = """\
Lp = -x1 + x3
Lpp = -x0 - x1 + x2 - x3
Fp = x1 - x2 + x3
Fpp = -x0 - x1 - x2
R = -518036415283*x0^2 + 802796630251*x0*x1 + 2449109268529*x0*x2\
 - 4351865837841*x0*x3 + 96699096313*x1^2 - 2268761726894*x1*x2\
 + 2043001432481*x1*x3 - 2810216985242*x2^2 + 10891903118800*x2*x3\
 - 8056639784438*x3^2
"""


def test_cusps_on_large_coefficients_finishes(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text(SPREAD_150_MANIFEST)
    started = time.perf_counter()
    code, report, _ = run_json(capsys, "--json", "cusps", str(path))
    assert time.perf_counter() - started < 5.0
    assert code == 0
    entry = next(r for r in report["results"] if r["name"] == "cusp candidates")
    assert len(entry["points"]) == 6
    assert entry["unresolved"] == []
    kinds = [r["kind"] for r in report["results"]
             if r["name"].startswith("classification")]
    assert kinds == ["A2"] * 6
