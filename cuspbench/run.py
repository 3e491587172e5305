"""CPU-timed benchmark of the cuspquartics command line.

Usage (from the repository root):

    python3 cuspbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Each op is one fresh ``python -m cuspquartics ... --json`` process, run one
at a time as a closed loop, and timed by its own CPU time (user + sys from
``os.wait4``).  The machine is shared and its speed drifts, so a fixed
reference process (``reference.py``) runs before the first op and after
every op, and each op's CPU time is scaled by the reference's nominal CPU
time over the mean of the two references around it.  A run builds the
workload's op list from the seed, measures set-up time (which also warms
the files every op reads), then replays whole rounds of the op list until
the next round would overrun ``--seconds``.  Every report is checked
against values the benchmark computes itself.  The last line of standard
output is one JSON object: {correct, attempted, failed, metrics}.
With ``--trace 1`` each op runs twice in a row, plain and under
``tracer.py``, and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_IMPORTS = 7          # fresh interpreters importing the CLI per run
# CPU seconds of one reference process in the least loaded stretches of the
# machine the reference figures in README.md were taken on; scaled CPU
# times are seconds of that machine at that speed
REFERENCE_S = 0.20
OP_TIMEOUT_S = 60          # an op past this is killed and counted as failed
TAIL_MIN_BEYOND = 10
TAIL_MIN_OPS = 40


@dataclass
class Sample:
    op: int
    code: int
    cpu_s: float
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    scale: float = 1.0     # REFERENCE_S over the references around the op

    @property
    def scaled_cpu_s(self):
        return self.cpu_s * self.scale


def child_env(extra=None):
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPROFILEIMPORTTIME", None)
    env.update(extra or {})
    return env


def run_process(argv, env, scratch, op=-1):
    """Run one process to its end and return its sample.

    A timer kills a process that outlives OP_TIMEOUT_S.  (An RLIMIT_CPU
    would do it without a thread, but with one set the Linux process CPU
    clock can advance in whole scheduler ticks, which blanks the tracer's
    short spans.)
    """
    err_path = scratch / "stderr.txt"
    started = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
    wall = time.perf_counter() - started
    return Sample(op, proc.returncode, usage.ru_utime + usage.ru_stime, wall,
                  usage.ru_maxrss / 1024, out, err_path.read_bytes())


class Referenced:
    """Runs the reference process before the first process and after each.

    ``run`` returns the process's sample with ``scale`` set to REFERENCE_S
    over the mean CPU time of the references just before and just after
    it, so that a stretch in which the shared machine runs slow scales the
    op and its references alike.  ``references`` keeps their CPU times.
    """

    def __init__(self, scratch):
        self.scratch = scratch
        self.references = []
        self._reference()

    def _reference(self):
        sample = run_process([sys.executable, str(HERE / "reference.py")],
                             child_env(), self.scratch)
        if sample.code != 0:
            raise SystemExit("the reference process failed:\n"
                             + sample.stderr.decode(errors="replace"))
        self.references.append(sample.cpu_s)

    def run(self, argv, env, op=-1):
        sample = run_process(argv, env, self.scratch, op)
        self._reference()
        sample.scale = 2 * REFERENCE_S / sum(self.references[-2:])
        return sample


def setup_seconds(referenced):
    """Median scaled CPU seconds of a fresh interpreter importing the CLI."""
    argv = [sys.executable, "-c", "import cuspquartics.cli"]
    samples = [referenced.run(argv, child_env())
               for _ in range(SETUP_IMPORTS)]
    if any(s.code != 0 for s in samples):
        raise SystemExit("importing cuspquartics.cli failed:\n"
                         + samples[0].stderr.decode(errors="replace"))
    return statistics.median(s.scaled_cpu_s for s in samples)


def op_argv(op, spans=None):
    args = list(op.args) + ["--json"]
    if spans is None:
        return [sys.executable, "-m", "cuspquartics"] + args
    return [sys.executable, str(HERE / "tracer.py"), str(spans)] + args


def run_rounds(seconds, run_round):
    """Replay whole rounds until the next one would overrun ``seconds``."""
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_round()
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return


def report_of(sample):
    """The parsed report without its timing field, or None."""
    try:
        report = json.loads(sample.stdout)
    except ValueError:
        return None
    report.pop("elapsed_ms", None)
    return report


def check_samples(ops, samples, problems, expected=None):
    """Count the failed ops and check the reports of the others.

    Each op's reports must be equal in every round; the first one is
    checked by the op's own check, or must equal ``expected[op]`` when
    given.  A wrong report adds to ``problems``.
    """
    failed = 0
    seen = dict(expected or {})
    for s in samples:
        report = report_of(s)
        if s.code != 0 or report is None:
            failed += 1
            print(f"  FAILED {ops[s.op].label}: exit {s.code}: "
                  + s.stderr.decode(errors="replace")[-400:], file=sys.stderr)
            continue
        if s.op in seen:
            if seen[s.op] != report:
                problems.append(f"{ops[s.op].label}: report differs from "
                                "the first one")
            continue
        seen[s.op] = report
        problems += [f"{ops[s.op].label}: {p}" for p in ops[s.op].check(report)]
    return failed


def tail(values):
    """(percentile, value): the highest percentile with 10 values beyond it."""
    n = len(values)
    p = 100 * (n - TAIL_MIN_BEYOND) // n
    return p, sorted(values)[n - TAIL_MIN_BEYOND - 1]


def summarize(ops, samples, out):
    ok = [s for s in samples if s.code == 0]
    if not ok:
        return
    for i, op in enumerate(ops):
        mine = [s for s in ok if s.op == i]
        if mine:
            print(f"  {op.label:<28} ops {len(mine):>3}  scaled cpu p50 "
                  f"{1000 * statistics.median(s.scaled_cpu_s for s in mine):8.1f} ms  "
                  f"cpu p50 {1000 * statistics.median(s.cpu_s for s in mine):8.1f} ms  "
                  f"wall p50 {1000 * statistics.median(s.wall_s for s in mine):8.1f} ms",
                  file=out)
    cpu = [1000 * s.scaled_cpu_s for s in ok]
    wall = [1000 * s.wall_s for s in ok]
    print(f"  all ops: {len(ok)}  wall p50 {statistics.median(wall):.1f} ms  "
          f"wall/cpu {sum(wall) / sum(1000 * s.cpu_s for s in ok):.3f}  "
          f"scale p50 {statistics.median(s.scale for s in ok):.3f}", file=out)
    if len(ok) >= TAIL_MIN_OPS:
        p, value = tail(cpu)
        print(f"  op_cpu_ms_tail: p{p} = {value:.1f} ms over {len(ok)} ops",
              file=out)
    else:
        print(f"  op_cpu_ms_tail omitted: {len(ok)} ops < {TAIL_MIN_OPS}",
              file=out)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ops, seconds, scratch):
    referenced = Referenced(scratch)
    setup = setup_seconds(referenced)    # also warms the package's files
    samples = []

    def one_round():
        for i, op in enumerate(ops):
            samples.append(referenced.run(op_argv(op), child_env(), i))

    run_rounds(seconds, one_round)
    problems = []
    failed = check_samples(ops, samples, problems)
    summarize(ops, samples, sys.stdout)
    refs = referenced.references
    print(f"  references: {len(refs)}  cpu p50 "
          f"{1000 * statistics.median(refs):.1f} ms  range "
          f"{1000 * min(refs):.1f}-{1000 * max(refs):.1f} ms  nominal "
          f"{1000 * REFERENCE_S:.0f} ms")
    ok = [s for s in samples if s.code == 0]
    metrics = {"setup_s": metric(setup, "s")}
    if ok:
        cpu = [s.scaled_cpu_s for s in ok]
        metrics.update(
            op_cpu_ms_p50=metric(1000 * statistics.median(cpu), "ms"),
            ops_per_cpu_s=metric(len(ok) / sum(cpu), "1/s"),
            peak_rss_mb=metric(max(s.rss_mb for s in ok), "MB"))
    return samples, failed, problems, metrics


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def numpy_import_ms(stderr):
    """Cumulative import time of numpy, in wall ms, from the
    ``PYTHONPROFILEIMPORTTIME`` lines on standard error."""
    for line in stderr.decode(errors="replace").splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1000
    return 0.0


def layer_metrics(spans, traced, plain):
    """Per-layer means over the traced ops; ``traced[k]`` ran right after
    ``plain[k]``, the same op without the tracer."""
    pairs = [(t, p) for t, p in zip(traced, plain) if t.code == 0 and p.code == 0]
    traced = [t for t in traced if t.code == 0]
    n = len(spans)

    def mean(values):
        values = list(values)
        return sum(values) / n if n else 0.0

    def calls(key):
        return mean(s["calls"].get(key, 0) for s in spans)

    def ms(key):
        return mean(1000 * s["inclusive_s"].get(key, 0.0) for s in spans)

    def count(key):
        return mean(s["counts"].get(key, 0) for s in spans)

    sizes = [b for s in spans for b in s["basis_sizes"]]
    classified = sum(s["classified_points"] for s in spans)
    out = {
        "startup.import_ms": (mean(1000 * s["import_s"] for s in spans), "ms"),
        "startup.numpy_ms": (mean(numpy_import_ms(t.stderr) for t in traced), "ms"),
        "cli.report_kb": (mean(len(t.stdout) / 1024 for t in traced), "KB"),
    }
    for layer in ("cli", "polyring", "linalg", "groebner", "geometry",
                  "singular", "codes"):
        out[f"{layer}.self_ms"] = (mean(1000 * s["self_s"].get(layer, 0.0)
                                        for s in spans), "ms")
    out.update({
        "polyring.substitute.calls": (calls("polyring.substitute"), "count"),
        "polyring.substitute.ms": (ms("polyring.substitute"), "ms"),
        "polyring.parse.ms": (ms("polyring.parse"), "ms"),
        "linalg.rref.calls": (calls("linalg.rref"), "count"),
        "groebner.buchberger.calls": (calls("groebner.buchberger"), "count"),
        "groebner.buchberger.ms": (ms("groebner.buchberger"), "ms"),
        "groebner.basis_size": (sum(sizes) / len(sizes) if sizes else 0.0,
                                "count"),
        "groebner.coeff_bits": (max((s["coeff_bits"] for s in spans), default=0),
                                "bits"),
        "groebner.normal_form.calls": (calls("groebner.normal_form"), "count"),
        "groebner.normal_form.ms": (ms("groebner.normal_form"), "ms"),
        "groebner.radical_membership.calls":
            (calls("groebner.radical_membership"), "count"),
        "groebner.radical_membership.ms": (ms("groebner.radical_membership"), "ms"),
        "groebner.radical_membership.powers": (count("radical_powers"), "count"),
        "groebner.audit.ms": (ms("groebner.verify_buchberger_criterion"), "ms"),
        "groebner.audit.pairs": (count("audit_pairs"), "count"),
        "geometry.build_family.ms": (ms("geometry.build_family"), "ms"),
        "geometry.cusp_candidates.ms": (ms("geometry.cusp_candidates"), "ms"),
        "geometry.binary_form_roots.calls":
            (calls("geometry.binary_form_roots"), "count"),
        "geometry.binary_form_roots.ms": (ms("geometry.binary_form_roots"), "ms"),
        "singular.classify.calls": (calls("singular.classify"), "count"),
        "singular.classify.ms": (ms("singular.classify"), "ms"),
        "singular.classify.per_cusp":
            (sum(s["calls"].get("singular.classify", 0) for s in spans)
             / classified if classified else 0.0, "calls/cusp"),
        "singular.local_expansion.calls":
            (calls("singular.local_expansion"), "count"),
        "singular.certificates.ms": (ms("singular.certificates"), "ms"),
        "codes.enumerate_constant_weight_codes.ms":
            (ms("codes.enumerate_constant_weight_codes"), "ms"),
        "codes.codes_enumerated": (count("codes_enumerated"), "count"),
        "codes.enumerate_divisible_families.ms":
            (ms("codes.enumerate_divisible_families"), "ms"),
        "codes.families_kept": (count("families_kept"), "count"),
        "trace.overhead_ms":
            (1000 * statistics.median(t.scaled_cpu_s - p.scaled_cpu_s
                                      for t, p in pairs) if pairs else 0.0, "ms"),
    })
    return {name: metric(value, unit) for name, (value, unit) in out.items()}


def traced_run(ops, seconds, scratch):
    run_process(op_argv(ops[0]), child_env(), scratch)        # warm-up
    referenced = Referenced(scratch)
    plain, traced, spans = [], [], []
    traced_env = child_env({"PYTHONPROFILEIMPORTTIME": "1"})
    spans_path = scratch / "spans.json"

    def one_round():
        for i, op in enumerate(ops):
            plain.append(referenced.run(op_argv(op), child_env(), i))
            spans_path.unlink(missing_ok=True)
            sample = referenced.run(op_argv(op, spans_path), traced_env, i)
            traced.append(sample)
            if sample.code == 0:
                spans.append(json.loads(spans_path.read_text()))

    run_rounds(seconds, one_round)
    problems = []
    failed = check_samples(ops, plain, problems)
    # a traced report must equal the plain one apart from elapsed_ms
    plain_reports = {s.op: report_of(s) for s in plain if s.code == 0}
    failed += check_samples(ops, traced, problems, plain_reports)
    summarize(ops, traced, sys.stdout)
    ok_plain = [s for s in plain if s.code == 0]
    metrics = layer_metrics(spans, traced, plain) if spans and ok_plain else {}
    return plain + traced, failed, problems, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cuspquartics" / "cli.py").is_file():
        print(f"no cuspquartics sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    scratch = ROOT / ".cuspbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, scratch)
        measure = traced_run if args.trace else end_to_end
        samples, failed, problems, metrics = measure(ops, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    for p in problems:
        print(f"  PROBLEM {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
