"""Command-line front end: constructions, certificates and reports.

Subcommands: gb, nf, construct, verify-example, cusps, code, enumerate-sets.
argparse does the routing: each subcommand is one parser entry whose
`run` default is its pipeline, a function of the parsed arguments that
returns a report.  Every report renders as text or JSON
({command, inputs, results, warnings, verified, elapsed_ms}); the process
exits 0 on verified success, 1 on verification failure, 2 on input errors
and 3 on precondition violations.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

# these layers are lazy modules (see the package docstring): names are
# looked up in them at call time, so a subcommand executes only the
# layers it uses
from . import codes, geometry, groebner, linalg, singular
from .polyring import EXPONENT_CAP, ORDER_NAMES, PolyRing, PolynomialError, QQ

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

DEFAULT_SEED = 20250809
# `code` lists all 3^dimension codewords: 3^10 take 1.5-2.2 s (2-core x86_64)
MAX_CODE_DIMENSION = 10


class InputError(Exception):
    pass


class PreconditionError(Exception):
    pass


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _new_report(command, inputs):
    return {"command": command, "inputs": inputs, "results": [],
            "warnings": [], "verified": True, "elapsed_ms": 0}


def _add(report, name, ok=None, **data):
    """Append a result entry; `ok` None makes it an `info` entry."""
    status = "info" if ok is None else "pass" if ok else "FAIL"
    entry = {"name": name, "status": status}
    entry.update(data)
    report["results"].append(entry)
    if status == "FAIL":
        report["verified"] = False


def _warn(report, message, **evidence):
    entry = {"message": message}
    entry.update(evidence)
    report["warnings"].append(entry)


def _render(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2, default=str))
        return
    print(f"command: {report['command']}")
    for key, value in report["inputs"].items():
        print(f"  input {key}: {value}")
    for entry in report["results"]:
        rest = {k: v for k, v in entry.items() if k not in ("name", "status")}
        detail = "  ".join(f"{k}={v}" for k, v in rest.items())
        print(f"  [{entry['status']:>4}] {entry['name']}  {detail}".rstrip())
    for w in report["warnings"]:
        rest = {k: v for k, v in w.items() if k != "message"}
        detail = "  ".join(f"{k}={v}" for k, v in rest.items())
        print(f"  [WARN] {w['message']}  {detail}".rstrip())
    status = "VERIFIED" if report["verified"] else "FAILED"
    print(f"{status} in {report['elapsed_ms']} ms")


def _ring_from(names, order):
    try:
        return PolyRing(tuple(n.strip() for n in names.split(",") if n.strip()),
                        QQ, order)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _read(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc


def _ints(text, what):
    try:
        return tuple(int(v) for v in text.replace(",", " ").split())
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}") from exc


def _parse_generators(text, ring):
    polys = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        polys.append(ring.parse(chunk))
    if not polys:
        raise InputError("no generators given")
    return polys


# ---------------------------------------------------------------------------
# subcommand pipelines
# ---------------------------------------------------------------------------

def report_gb(args):
    text = args.generators
    if args.file:
        # the manifest reader's rule: '#' starts a comment anywhere on a line
        lines = (line.split("#", 1)[0].strip()
                 for line in _read(args.file, "generator file").split("\n"))
        text = ",".join(line for line in lines if line)
    if not text:
        raise InputError("no generators given (inline or --file)")
    ring = _ring_from(args.vars, args.order)
    report = _new_report("gb", {"generators": text, "order": args.order,
                                "variables": ring.variables})
    gens = _parse_generators(text, ring)
    basis = groebner.buchberger(groebner.Ideal.spanned_by(gens, ring=ring),
                                audit=True)
    _add(report, "reduced basis", size=len(basis),
         elements=[str(g) for g in basis])
    _add(report, "s-polynomial audit", basis.audit)
    return report


def report_nf(args):
    ring = _ring_from(args.vars, args.order)
    report = _new_report("nf", {"generators": args.generators,
                                "polynomial": args.polynomial,
                                "order": args.order})
    gens = _parse_generators(args.generators, ring)
    g = ring.parse(args.polynomial)
    basis = groebner.buchberger(groebner.Ideal.spanned_by(gens, ring=ring))
    r = groebner.normal_form(g, basis)
    _add(report, "normal form", remainder=str(r), basis_size=len(basis),
         in_ideal=r.is_zero())
    return report


def _add_search(report, search, **configuration):
    _add(report, "configuration", type=search.configuration.kind.value,
         **configuration)
    _add(report, "cusp candidates", points=[str(p) for p in search.points],
         unresolved=[str(u) for u in search.unresolved])


def report_construct(args):
    family = geometry.family_from_manifest(_read(args.manifest, "manifest"))
    analysis = singular.Analysis(family, args.pmax)
    report = _new_report("construct", {"manifest": args.manifest,
                                       "pmax": args.pmax})
    _add(report, "quartic", polynomial=str(family.quartic))
    search = analysis.search
    vertex = search.configuration.vertex
    _add_search(report, search, vertex=str(vertex) if vertex else None)
    if search.lines:
        _add(report, "carrier lines", lines=[str(l) for l in search.lines])
    if args.certify:
        _run_certificates(report, analysis)
    return report


def report_cusps(args):
    family = geometry.family_from_manifest(_read(args.manifest, "manifest"))
    analysis = singular.Analysis(family)
    report = _new_report("cusps", {"manifest": args.manifest})
    _add_search(report, analysis.search)
    for point in analysis.search.points:
        _add(report, f"classification {point}",
             kind=analysis.verdict(point).kind.value)
    return report


def _run_certificates(report, analysis):
    _add(report, "jacobian groebner basis", size=len(analysis.basis))
    for label, cert in analysis.containment.items():
        _add(report, f"singular locus inside {label.replace('_', ' ')}",
             cert.verified, exponent=cert.data["exponent"])
    points = analysis.search.points
    verdicts = [analysis.verdict(p) for p in points]
    for point, verdict in zip(points, verdicts):
        _add(report, f"cusp {point}", verdict.kind is singular.SingularityKind.A2,
             kind=verdict.kind.value)
    if points and all(v.kind is singular.SingularityKind.A2 for v in verdicts):
        _add(report, "three-divisibility certificate",
             analysis.divisibility_certificate(points).verified)
        full = analysis.singular_set_certificate()
        _add(report, "no extra singularities", full.verified,
             exponents=full.data["exponents"])


def report_code(args):
    claims = []
    for claim in args.griesmer:
        values = _ints(claim, "griesmer claim")
        if len(values) != 3 or min(values) < 1:
            raise InputError(f"bad griesmer claim {claim!r}")
        claims.append(values)
    report = _new_report("code", {"length": args.length,
                                  "generators": args.generators})
    words = [_ints(chunk.strip(), "word")
             for chunk in args.generators.split(";") if chunk.strip()]
    if not words:
        raise InputError("no generator words given")
    try:
        code = codes.TernaryCode(args.length, words)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if code.dimension > MAX_CODE_DIMENSION:
        raise InputError(f"code dimension {code.dimension} exceeds the limit "
                         f"{MAX_CODE_DIMENSION} of the codeword enumeration")
    dist = code.weight_distribution()
    _add(report, "code", dimension=code.dimension,
         weight_distribution={str(k): v for k, v in sorted(dist.items())},
         supports=sorted(sorted(s) for s in code.supports()))
    nonzero = sorted(k for k in dist if k > 0)
    if len(nonzero) == 1:
        _add(report, "constant weight", r=nonzero[0])
        claims.append((args.length, code.dimension, nonzero[0]))
    for q, d, r in claims:
        _add(report, f"griesmer bound for [{q},{d},{{{r}}}]",
             holds=codes.griesmer_holds(q, d, r))
    return report


def report_enumerate_sets(args):
    report = _new_report("enumerate-sets", {"configuration": "eight-cusp quartic"})
    config = codes.configuration_from_coordinate_swaps(codes.EIGHT_CUSP_POINTS)
    _add(report, "points", points=[f"({' : '.join(map(str, p))})"
                                   for p in config.points])
    _add(report, "orbits", orbits=config.orbits())
    families = codes.enumerate_divisible_families(config)
    _add(report, "support families",
         count=len(families), families=[list(map(list, f)) for f in families])
    return report


# ---------------------------------------------------------------------------
# worked-example verification
# ---------------------------------------------------------------------------

def _verify_twisted_cubic(args):
    report = _new_report("verify-example", {"name": "ex61", "pmax": args.pmax})
    family = geometry.twisted_cubic_example()
    _add(report, "quartic", polynomial=str(family.quartic))
    _add(report, "determinantal equation agrees with exact division",
         family.sextic.exact_divide(family.residual) == family.quartic)
    analysis = singular.Analysis(family, args.pmax)
    search = analysis.search
    _add(report, "configuration is type I",
         search.configuration.kind is geometry.ConfigurationType.TWISTED_CUBIC)
    expected = sorted(geometry.ProjectivePoint((j * j, s * j, s * j ** 3, 1))
                      for j in (1, 2, 3) for s in (1, -1))
    _add(report, "six rational cusps found",
         list(search.points) == expected and not search.unresolved,
         points=[str(p) for p in search.points])
    roots, extra = geometry.binary_form_roots(search.binary_form)
    root_set = {(t0, t1) for t0, t1 in roots}
    _add(report, "pullback roots are (+-1, +-2, +-3)",
         not extra and root_set == {(Fraction(t), Fraction(1))
                                    for t in (1, -1, 2, -2, 3, -3)})
    _report_printed_coordinate_warning(report, family)
    _common_cusp_checks(report, analysis)
    _run_certificates(report, analysis)
    return report


def _report_printed_coordinate_warning(report, family):
    """The source prints the cusps as (+-j : j : j^3 : +-1); only j = 1 fits."""
    bad = []
    for j in (1, 2, 3):
        for s in (1, -1):
            point = (s * j, j, j ** 3, s)
            value = family.contact_quadric.evaluate(point)
            if value != 0:
                bad.append({"point": str(geometry.ProjectivePoint(point)),
                            "contact_quadric_value": str(value)})
    if bad:
        _warn(report,
              "suspected misprint in the printed cusp coordinates: the "
              "derived points (j^2 : +-j : +-j^3 : 1) satisfy all defining "
              "equations, the printed (+-j : j : j^3 : +-1) do not",
              failing_printed_points=bad)


def _common_cusp_checks(report, analysis):
    points = analysis.search.points
    kinds = [analysis.verdict(p) for p in points]
    _add(report, "every cusp classifies as A2",
         all(v.kind is singular.SingularityKind.A2 for v in kinds),
         verdicts=[v.kind.value for v in kinds])
    _add(report, "contact surfaces meet transversally at every cusp",
         all(analysis.transversal(p) for p in points))
    _add(report, "residual quadric vanishes at no cusp",
         all(analysis.family.residual.evaluate(p.coords) != 0 for p in points))


def _verify_concurrent_lines(args):
    report = _new_report("verify-example", {"name": "ex62", "pmax": args.pmax})
    family = geometry.concurrent_lines_example()
    ring = family.ring
    x0, x1, x2, x3 = ring.gens()
    _add(report, "residual quadric is x3^2 - x2^2 - x0*x1",
         family.residual == x3 * x3 - x2 * x2 - x0 * x1)
    _add(report, "contact quadric is x3^2 - x2^2",
         family.contact_quadric == x3 * x3 - x2 * x2)
    analysis = singular.Analysis(family, args.pmax)
    search = analysis.search
    config = search.configuration
    vertex_ok = (config.kind is geometry.ConfigurationType.CONCURRENT_LINES
                 and config.vertex == geometry.ProjectivePoint((0, 0, 0, 1)))
    _add(report, "configuration is type II with vertex (0:0:0:1)", vertex_ok,
         vertex=str(config.vertex) if config.vertex else None)
    _add(report, "vertex does not lie on the quartic",
         family.quartic.evaluate(config.vertex.coords) != 0,
         value=str(family.quartic.evaluate(config.vertex.coords)))
    expected_lines = tuple(
        (str(x0 - x2 * j), str(x1 - x2 * (j * j))) for j in (1, 2, 3))
    got_lines = tuple(tuple(str(f) for f in line.equations)
                      for line in (search.lines or ()))
    _add(report, "carrier lines recovered", set(got_lines) == set(expected_lines),
         lines=[str(l) for l in (search.lines or ())])
    expected = sorted(geometry.ProjectivePoint((j, j * j, 1, s))
                      for j in (1, 2, 3) for s in (1, -1))
    _add(report, "six rational cusps (j : j^2 : 1 : +-1)",
         list(search.points) == expected and not search.unresolved,
         points=[str(p) for p in search.points])
    _common_cusp_checks(report, analysis)
    _run_certificates(report, analysis)
    return report


def _verify_eight_cusp(args):
    k = args.k
    report = _new_report("verify-example", {"name": "barth", "k": str(k)})
    if k in (0, 1, -1):
        raise PreconditionError("the eight-cusp family needs k != 0, 1, -1")
    surface = geometry.eight_cusp_quartic(k)
    points = geometry.eight_cusp_points()
    local = [singular.LocalData(surface, p) for p in points]
    _add(report, "all eight points lie on the surface",
         all(data.value == 0 for data in local))
    _add(report, "all eight points are singular",
         all(not any(data.gradient) for data in local))
    verdicts = [data.verdict for data in local]
    _add(report, "classification verdicts",
         verdicts={str(p): v.kind.value for p, v in zip(points, verdicts)})
    a1_points = [str(p) for p, v in zip(points, verdicts)
                 if v.kind is singular.SingularityKind.A1]
    if a1_points:
        # det of the local quadratic form at (1:0:0:0), an exact cross-check
        corner = local[points.index(geometry.ProjectivePoint((1, 0, 0, 0)))]
        det_value = linalg.det(singular.quadratic_form_matrix(corner.piece(2)))
        formula = -(k / 2) * (1 + k) ** 2 * (1 - k) ** 6
        _warn(report,
              "the printed polynomial makes the coordinate points ordinary "
              "double points (rank-3 quadratic part), not cusps; suspected "
              "transcription issue in the source",
              a1_points=a1_points,
              determinant_at_1000=str(det_value),
              desk_formula_value=str(formula),
              formulas_agree=det_value == formula)
    code = codes.eight_cusp_code()
    dist = code.weight_distribution()
    _add(report, "code of an eight-cusp quartic is [8, 2, {6}]",
         code.dimension == 2 and dist == {0: 1, 6: 8}
         and len(code.supports()) == 4,
         weight_distribution={str(kk): v for kk, v in sorted(dist.items())})
    _add(report, "griesmer bound holds with equality for [8,2,6]",
         codes.griesmer_holds(8, 2, 6) and sum(-(-6 // 3 ** i)
                                               for i in range(2)) == 8)
    _add(report, "griesmer bound excludes [8,3,6]",
         not codes.griesmer_holds(8, 3, 6))
    config = codes.configuration_from_coordinate_swaps(points)
    families = codes.enumerate_divisible_families(config)
    expected_family = tuple(sorted(
        (tuple(range(1, 7)), (1, 2, 3, 4, 7, 8), (1, 4, 5, 6, 7, 8),
         (2, 3, 5, 6, 7, 8))))
    _add(report, "enumeration finds the four three-divisible sets",
         expected_family in families,
         families=[list(map(list, f)) for f in families])
    return report


EXAMPLES = {"ex61": _verify_twisted_cubic, "ex62": _verify_concurrent_lines,
            "barth": _verify_eight_cusp}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}") from exc


def _attach_negative_k(argv):
    """Write `--k -7/5` as `--k=-7/5`: argparse takes a separate value that
    starts with '-' and is not a plain negative number for an option."""
    out = []
    for arg in argv:
        if (out and out[-1] == "--k" and len(arg) > 1 and arg[0] == "-"
                and (arg[1].isdigit() or arg[1] == ".")):
            out[-1] = f"--k={arg}"
        else:
            out.append(arg)
    return out


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cuspquartics",
        description="exact constructions and certificates for cuspidal quartics")
    # root-only defaults (set_defaults): a value given before the subcommand stands
    common = argparse.ArgumentParser(add_help=False)
    for target in (parser, common):
        target.add_argument("--json", action="store_true",
                            default=argparse.SUPPRESS,
                            help="emit the report as JSON")
        target.add_argument("--order", choices=ORDER_NAMES,
                            default=argparse.SUPPRESS, help="term order")
        target.add_argument("--pmax", type=int, default=argparse.SUPPRESS,
                            help="cap for radical-membership exponents")
        target.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                            help="seed echoed into the report (for scripted runs)")
    parser.set_defaults(json=False, order="grevlex", pmax=8, seed=DEFAULT_SEED)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run)
        return p

    p = command("gb", report_gb, "reduced Groebner basis")
    p.add_argument("generators", nargs="?", help="comma-separated polynomials")
    p.add_argument("--file", help="file with one generator per line")
    p.add_argument("--vars", default="x0,x1,x2,x3")

    p = command("nf", report_nf, "normal form")
    p.add_argument("generators")
    p.add_argument("polynomial")
    p.add_argument("--vars", default="x0,x1,x2,x3")

    p = command("construct", report_construct, "build a family from a manifest")
    p.add_argument("manifest")
    p.add_argument("--certify", action="store_true")

    p = command("verify-example", lambda args: EXAMPLES[args.name](args),
                "re-check a worked example")
    p.add_argument("name", choices=EXAMPLES)
    p.add_argument("--k", type=_fraction, default="2",
                   help="parameter for the barth family, e.g. 2 or -7/5")

    p = command("cusps", report_cusps, "cusp candidates of a manifest family")
    p.add_argument("manifest")

    p = command("code", report_code, "ternary code report")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--generators", required=True,
                   help="semicolon-separated words, e.g. '1,1,0;0,1,-1'")
    p.add_argument("--griesmer", action="append", default=[],
                   metavar="Q,D,R", help="extra bound checks")

    command("enumerate-sets", report_enumerate_sets,
            "search three-divisible support families")
    return parser


def main(argv=None):
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_attach_negative_k(argv))
    if args.pmax < 1:
        parser.error(f"argument --pmax: must be at least 1, got {args.pmax}")
    # the power q^k of a quadric has exponents up to 2k
    if args.pmax > EXPONENT_CAP // 2:
        parser.error(f"argument --pmax: must be at most {EXPONENT_CAP // 2}, "
                     f"got {args.pmax}")
    # results may hold integers longer than the interpreter's int/str limit
    # (Python 3.10.7 and later); the parser caps input at DIGIT_CAP digits
    saved_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        if saved_limit is not None:
            sys.set_int_max_str_digits(saved_limit)


def _run(args):
    started = time.monotonic()
    try:
        report = args.run(args)
    except (InputError, PolynomialError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (geometry.DependentFormsError, geometry.DegenerateConfigurationError,
            geometry.InfiniteIntersectionError, singular.CertificateError,
            PreconditionError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except geometry.GeometryError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    report["inputs"].setdefault("seed", args.seed)
    _render(report, args.json)
    return EXIT_OK if report["verified"] else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
