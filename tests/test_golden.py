"""Golden reports: each command reproduces its recorded ``--json`` report.

``tests/golden/<name>.json`` holds the command line, the exit code, stderr
and the report with ``elapsed_ms`` removed, serialized in report order, so
a refactor that must keep the reports unchanged is checked byte for byte.
Manifest commands run in a temporary directory holding copies of
``tests/golden/ex61.manifest`` and ``ex62.manifest`` under those names, so
``inputs.manifest`` does not depend on where the suite runs.

After a change that is meant to alter a report, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from cuspquartics import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFESTS = ("ex61.manifest", "ex62.manifest")
GB_GENERATORS = "x0^2 - x1*x2, x1^2 - x0*x3 + 1, x2^2 - x0*x1 + x3"

COMMANDS = {
    "verify-ex61": ["verify-example", "ex61"],
    "verify-ex62": ["verify-example", "ex62"],
    "verify-barth-2": ["verify-example", "barth", "--k=2"],
    "verify-barth-minus-7-5": ["verify-example", "barth", "--k=-7/5"],
    "enumerate-sets": ["enumerate-sets"],
    "construct-certify-ex61": ["construct", "--certify", "ex61.manifest"],
    "construct-certify-ex62": ["construct", "--certify", "ex62.manifest"],
    "cusps-ex61": ["cusps", "ex61.manifest"],
    "cusps-ex62": ["cusps", "ex62.manifest"],
    "code-8-2-6": ["code", "--length", "8",
                   "--generators", "1,1,1,1,1,1,0,0;0,0,1,1,-1,-1,1,1",
                   "--griesmer", "8,3,6"],
    "gb-grevlex": ["gb", GB_GENERATORS, "--order", "grevlex"],
    "gb-lex": ["gb", GB_GENERATORS, "--order", "lex"],
    "gb-grlex": ["gb", GB_GENERATORS, "--order", "grlex"],
    "nf": ["nf", "2*x0 - 1", "x0^2 + x1"],
}


def render(name, workdir):
    """The golden text of one command, run in process inside ``workdir``."""
    argv = ["--json"] + COMMANDS[name]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    report = json.loads(out.getvalue())
    del report["elapsed_ms"]
    record = {"argv": argv, "exit": code, "stderr": err.getvalue(),
              "report": report}
    return json.dumps(record, indent=2) + "\n"


def stage_manifests(workdir):
    for manifest in MANIFESTS:
        shutil.copyfile(GOLDEN / manifest, Path(workdir) / manifest)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    stage_manifests(path)
    return path


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name, workdir):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert render(name, workdir) == expected


def test_every_golden_file_has_a_command():
    recorded = {p.stem for p in GOLDEN.glob("*.json")}
    assert recorded == set(COMMANDS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        stage_manifests(tmp)
        for name in sorted(COMMANDS):
            (GOLDEN / f"{name}.json").write_text(render(name, tmp),
                                                 encoding="utf-8")
            print(f"wrote {name}.json", file=sys.stderr)
