"""Benchmark of seqmin: one workload per run, in-process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; seqmin is imported from its ``src/``.
One process and one thread send the operations of a workload one after
another, each after the previous answer came back.  Every answer is
checked by ``checks.py``, which shares no code with seqmin.  All times are
calibrated (see ``calib.py``).

``--trace 0`` measures rounds of operations for ``--seconds`` seconds (and
at least MIN_OPS operations) and reports the end-to-end metrics.
``--trace 1`` runs a fixed number of rounds twice, plain and then traced,
and reports the per-module metrics and the tracing overhead.  The last
line of standard output is the result as one JSON object; the lines before
it show each metric with its unit and sample count.  Spans and results are
also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import calib  # noqa: E402  (HERE is on sys.path as the script's directory)
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# the 90th percentile is reported only with at least ten samples beyond it
MIN_OPS = 100
# a kernel run closes a block of operations once they took this long
BLOCK_S = 0.05
SETUP_STARTS = 11
# rounds per traced run: each pass takes a few seconds
TRACE_ROUNDS = {"gf2-mr": 2, "gfp-mr": 3, "short-mix": 12, "ring-growth": 6}

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-module metrics measured on every workload (see README.md for the map)
PER_LAYER = {
    "sequence.parse_s": "s",
    "lfsr.engine_s": "s",
    "lfsr.verify_s": "s",
    "poly.add_scaled_s": "s",
    "poly.mul_s": "s",
    "lfsr.engine_passes": "count",
    "lfsr.steps": "count",
    "lfsr.mults_reported": "count",
    "lfsr.mults_actual": "count",
    "poly.add_scaled_calls": "count",
    "poly.mul_calls": "count",
    "poly.mul_coeff_products": "count",
    "ring.mul_calls": "count",
    "ring.add_calls": "count",
    "ring.is_zero_calls": "count",
    "ring.coerce_calls": "count",
    "ring.coeff_bits.max": "bits",
    "ring.coeff_ydeg.max": "degree",
    "calib.kernel_s": "s",
    "raw.op_s.p50": "s",
    "trace.overhead": "ratio",
}

# per-module times that only some workloads exercise: they go to the trace
# file and the table, where they are nonzero, not into the JSON result
WORKLOAD_SPECIFIC = ("cli.self_s", "cli.build_parser_s", "bezout.s", "plcp.s",
                     "annihilator.s", "reverse.s", "oracle.s")

_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[2])
import calib
k1 = calib.kernel_s()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import seqmin, seqmin.cli
seqmin.cli.build_parser()
t1 = time.perf_counter()
k2 = calib.kernel_s()
print(repr(t1 - t0), repr((k1 + k2) / 2))
"""


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_seqmin():
    src = ROOT / "src"
    if not (src / "seqmin" / "__init__.py").is_file():
        raise BenchError("no seqmin sources under %s" % src)
    sys.path.insert(0, str(src))
    import seqmin
    import seqmin.cli  # noqa: F401
    if Path(seqmin.__file__).resolve().parent != (src / "seqmin").resolve():
        raise BenchError("seqmin was imported from %s, not from %s" % (seqmin.__file__, src))
    return seqmin


def setup_times():
    """Calibrated import + build_parser time of fresh interpreters (the first is discarded)."""
    src = str(ROOT / "src")
    out = []
    for i in range(SETUP_STARTS + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", _SETUP_CHILD, src, str(HERE)],
                              capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise BenchError("fresh import of seqmin failed:\n" + proc.stderr)
        wall, kernel = (float(x) for x in proc.stdout.split())
        if i:
            out.append(wall * calib.NOMINAL_S / kernel)
    return out


class Record:
    __slots__ = ("op", "ok", "wall", "kernel")

    def __init__(self, op, ok, wall):
        self.op, self.ok, self.wall, self.kernel = op, ok, wall, None

    @property
    def factor(self):
        return calib.NOMINAL_S / self.kernel

    @property
    def cal(self):
        return self.wall * self.factor


class Runner:
    """Runs rounds of operations, timing each call and checking each answer."""

    def __init__(self):
        self.problems = []  # check failures: the answers were wrong
        self.attempts = {}  # operation kind -> calls, warm-up included
        self.failures = {}  # operation kind -> failed calls, warm-up included
        self.kernels = []

    def run(self, rounds, stop=lambda records: False, before=None, after=None):
        records, block, block_wall = [], [], 0.0
        k_prev = calib.kernel_s()
        self.kernels.append(k_prev)

        def close_block():
            nonlocal k_prev, block, block_wall
            k = calib.kernel_s()
            self.kernels.append(k)
            for rec in block:
                rec.kernel = (k_prev + k) / 2
            k_prev, block, block_wall = k, [], 0.0

        for ops in rounds:
            for op in ops:
                if before:
                    before(len(records))
                t0 = time.perf_counter()
                try:
                    ok, payload = op.call()
                except Exception:  # an operation that raises counts as failed
                    ok, payload = False, traceback.format_exc()
                wall = time.perf_counter() - t0
                self.attempts[op.kind] = self.attempts.get(op.kind, 0) + 1
                rec = Record(op, ok, wall)
                records.append(rec)
                block.append(rec)
                block_wall += wall
                if ok:
                    self._check(op, payload)
                    if after:
                        after(op, payload)
                else:
                    self.failures[op.kind] = self.failures.get(op.kind, 0) + 1
                if block_wall >= BLOCK_S:
                    close_block()
            if stop(records):
                break
        if block:
            close_block()
        return records

    def faults(self):
        """The failed calls that are not expected.

        Only workloads.FAILING_KIND may fail, and then on every call; once
        its fault is mended it succeeds on every call, which is fine too.
        """
        out = []
        for kind, failed in sorted(self.failures.items()):
            if kind != workloads.FAILING_KIND or failed != self.attempts[kind]:
                out.append("%s: %d of %d calls failed" % (kind, failed, self.attempts[kind]))
        return out

    @property
    def correct(self):
        return not self.problems and not self.faults()

    def _check(self, op, payload):
        try:
            op.check(payload)
        except checks.CheckFailed as exc:
            self.problems.append("%s: %s" % (op.kind, exc))
        except Exception:  # a malformed answer is a wrong answer
            self.problems.append("%s: %s" % (op.kind, traceback.format_exc()))


def quantile90(xs):
    return statistics.quantiles(xs, n=10)[8]


def timed_run(seqmin, name, seed, seconds):
    setup = setup_times()
    gen = workloads.WORKLOADS[name](seqmin, random.Random("%s/%d" % (name, seed)))
    runner = Runner()
    runner.run([next(gen)])  # warm-up, not reported
    start = time.perf_counter()

    def stop(records):
        return time.perf_counter() - start >= seconds and len(records) >= MIN_OPS

    records = runner.run(gen, stop)
    cal = [r.cal for r in records]
    verified = sum(r.ok for r in records)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "op_s.p50": (statistics.median(cal), len(cal)),
        "op_s.p90": (quantile90(cal), len(cal)),
        "ops_per_s": (verified / sum(cal), len(cal)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    extra = {"raw.op_s.p50": statistics.median(r.wall for r in records),
             "calib.kernel_s": statistics.median(runner.kernels),
             "elapsed_s": time.perf_counter() - start}
    return runner, records, metrics, END_TO_END, extra


def traced_run(seqmin, name, seed):
    gen = workloads.WORKLOADS[name](seqmin, random.Random("%s/%d" % (name, seed)))
    runner = Runner()
    runner.run([next(gen)])  # warm-up, not reported
    rounds = [next(gen) for _ in range(TRACE_ROUNDS[name])]
    plain = runner.run(rounds)
    plain_kernels = list(runner.kernels)

    tracer = spans.Tracer()
    sizes = {"bits": 0, "ydeg": 0}

    def answer_sizes(op, payload):
        for c in op.coeffs(payload) if op.coeffs else ():
            if isinstance(c, int):
                sizes["bits"] = max(sizes["bits"], abs(c).bit_length())
            else:
                sizes["ydeg"] = max(sizes["ydeg"], len(c) - 1)

    tracer.install()
    try:
        traced = runner.run(rounds, before=lambda i: setattr(tracer, "op", i), after=answer_sizes)
    finally:
        tracer.uninstall()

    reported = actual = 0
    for op in (op for ops in rounds for op in ops if op.seq):
        ring, terms = op.seq
        s = seqmin.SequenceView(seqmin.domain_from_string(ring), terms)
        counter = spans.Tracer()
        counter.install(functions=False, ring_methods=("mul",))
        try:
            reported += seqmin.lfsr.run(s, count_mults=True).mults
        finally:
            counter.uninstall()
        actual += counter.counts["ring.mul_calls"]

    n = len(traced)
    per_op = {}
    for group in spans.SPAN_GROUPS:
        total = sum(tracer.self_s.get((i, group), 0.0) * r.factor for i, r in enumerate(traced))
        per_op[group] = total / n
    for counter in spans.COUNTERS:
        per_op[counter] = tracer.counts[counter] / n
    per_op["lfsr.mults_reported"] = reported / n
    per_op["lfsr.mults_actual"] = actual / n
    per_op["ring.coeff_bits.max"] = sizes["bits"]
    per_op["ring.coeff_ydeg.max"] = sizes["ydeg"]
    per_op["calib.kernel_s"] = statistics.median(plain_kernels)
    per_op["raw.op_s.p50"] = statistics.median(r.wall for r in plain)
    plain_p50 = statistics.median(r.cal for r in plain)
    per_op["trace.overhead"] = statistics.median(r.cal for r in traced) / plain_p50

    metrics = {k: (per_op[k], n) for k in PER_LAYER}
    extra = {k: per_op[k] for k in WORKLOAD_SPECIFIC}
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("trace-%s-seed%d.json" % (name, seed)), "w") as fh:
        json.dump({"workload": name, "seed": seed, "operations": n,
                   "per_operation": per_op,
                   "span_fields": ["id", "name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)
    return runner, traced, metrics, PER_LAYER, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        seqmin = load_seqmin()
        if args.trace:
            runner, records, metrics, units, extra = traced_run(seqmin, args.workload, args.seed)
        else:
            runner, records, metrics, units, extra = timed_run(
                seqmin, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 2

    for problem in runner.problems:
        print("WRONG ANSWER %s" % problem, file=sys.stderr)
    for fault in runner.faults():
        print("UNEXPECTED FAILURE %s" % fault, file=sys.stderr)
    failed_kinds = collections.Counter(r.op.kind for r in records if not r.ok)
    failed = sum(failed_kinds.values())
    print("workload %s  seed %d  trace %d  attempted %d  failed %d  %s"
          % (args.workload, args.seed, args.trace, len(records), failed,
             json.dumps(failed_kinds)))
    for k, (value, samples) in metrics.items():
        print("  %-26s %14.6g %-7s samples %d" % (k, value, units[k], samples))
    for k, value in extra.items():
        print("  %-26s %.6g" % (k, value))
    result = {
        "correct": runner.correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(result, fh)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
