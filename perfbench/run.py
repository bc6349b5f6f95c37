"""flagcalc benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload {chow_bd,dictionaries,queries} \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it imports flagcalc from ./src.  It prints
one line per metric, a JSON line with the environment, and, last, the result
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
and the span tree is written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("chow_bd", "dictionaries", "queries")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rootdata.build_root_datum.calls": "count",
    "rootdata.build_root_datum.self_s": "s",
    "weylgroup.elements_of_length.calls": "count",
    "weylgroup.elements_of_length.self_s": "s",
    "weylgroup.compose.calls": "count",
    "weylgroup.compose.self_s": "s",
    "weylgroup.root_reflection.calls": "count",
    "polyring.mul.calls": "count",
    "polyring.mul.self_s": "s",
    "polyring.mul.out_terms": "count",
    "polyring.peak_terms": "count",
    "schubert.divided_difference.calls": "count",
    "schubert.divided_difference.self_s": "s",
    "schubert.divided_difference.in_terms": "count",
    "schubert.schubert_expand.self_s": "s",
    "schubert.expand_class_poly.self_s": "s",
    "schubert.pow_expansion.self_s": "s",
    "schubert.structure_constants.self_s": "s",
    "schubert.giambelli_poly.self_s": "s",
    "schubert.chevalley_weight.calls": "count",
    "schubert.chevalley_weight.self_s": "s",
    "chowring.stratum.calls": "count",
    "chowring.stratum.self_s": "s",
    "chowring.cokernel.self_s": "s",
    "chowring.cokernel.rows": "count",
    "chowring.cokernel.cols": "count",
    "chowring.cokernel.unit_pivots": "count",
    "chowring.classify.calls": "count",
    "chowring.classify.self_s": "s",
    "presentations.verify_presentations.self_s": "s",
    "presentations.checks": "count",
    "exprparse.parse_polynomial.calls": "count",
    "exprparse.parse_polynomial.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

# The largest group each workload uses; set-up builds its engine and
# enumerates every length, so work moved into engine construction shows.
LARGEST = {"chow_bd": "D5", "dictionaries": "B5", "queries": "D5"}
LARGEST_SMALL = {"chow_bd": "D4", "dictionaries": "G2", "queries": "B3"}
SETUP_SAMPLES = 3

# The host is shared: its speed flips between two levels, up to 1.8x apart,
# every second or so, in CPU time as much as in wall time.  So a run also
# times a fixed pure-Python loop after each operation and, from a SIGALRM
# handler, every SAMPLE_EVERY_S while a pass runs.  Each operation's time is
# scaled by REFERENCE_S / (mean loop time over and around it): the reported
# times are seconds at the host speed of the baseline.  The raw times are in
# the environment record.
REFERENCE_S = 0.0031
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.25  # an operation's speed is the mean of the samples this close to it

_RNG = random.Random(0)
_REF_A = {tuple(_RNG.randint(0, 4) for _ in range(4)): _RNG.randint(-9, 9) for _ in range(40)}
_REF_B = {tuple(_RNG.randint(0, 4) for _ in range(4)): _RNG.randint(-9, 9) for _ in range(40)}


def _reference_work() -> int:
    # A sparse product of two fixed polynomials in tuple-keyed dicts: the
    # same kind of work as the library's, done by code the library cannot change.
    out: dict = {}
    for ea, ca in _REF_A.items():
        for eb, cb in _REF_B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return len(out)


def reference_sample() -> float:
    """One timing of the reference loop, in seconds.

    The collector is off meanwhile: a full collection walks every object the
    engines hold, which would make the loop's time depend on the workload.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostMeter:
    """Reference samples taken through a pass, evenly in time.

    Inside the ``with`` block a SIGALRM handler takes a sample every
    SAMPLE_EVERY_S, also in the middle of an operation; ``sample()`` takes
    one between operations.
    """

    def __init__(self):
        self.samples: list = []  # (start, end, reference seconds)

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        ref = reference_sample()
        self.samples.append((t0, time.perf_counter(), ref))

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the samples took inside [t0, t1], to be taken off an operation."""
        return sum(e - s for s, e, _ in self.samples if s >= t0 and e <= t1)

    def scale(self, t0: float, t1: float) -> float:
        """Raw -> reference-speed factor for an operation that ran over [t0, t1]."""
        near = [r for s, e, r in self.samples if e >= t0 - WINDOW_S and s <= t1 + WINDOW_S]
        return REFERENCE_S / statistics.fmean(near)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class SourceMissing(Exception):
    """The working directory has no flagcalc source tree under ./src."""


def import_flagcalc() -> None:
    """Import flagcalc from ./src of the working directory, and from nowhere else."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "flagcalc", "__init__.py")):
        raise SourceMissing(f"no flagcalc package under {src}; run from the repository root")
    sys.path.insert(0, src)
    import flagcalc

    if not os.path.abspath(flagcalc.__file__).startswith(src + os.sep):
        raise SourceMissing(f"flagcalc was imported from {flagcalc.__file__}, not {src}")
    from flagcalc import chowring, cli, presentations  # noqa: F401  (set-up cost)


@dataclass
class Plan:
    workload: str
    seed: int
    small: bool
    ops: list  # VerifyOp or Query
    probes: list  # known-defect probes (queries only)


def timed_set_up(workload: str, seed: int, small: bool) -> tuple:
    """(plan, set-up seconds scaled to the reference host speed, raw seconds)."""
    with HostMeter() as meter:
        meter.sample()
        t0 = time.perf_counter()
        plan = set_up(workload, seed, small)
        t1 = time.perf_counter()
        meter.sample()
    raw = t1 - t0 - meter.spent(t0, t1)
    return plan, raw * meter.scale(t0, t1), raw


def set_up(workload: str, seed: int, small: bool) -> Plan:
    """Import, generate the seeded inputs and build the largest engine."""
    import_flagcalc()
    if workload == "queries":
        ops, probes = workloads.make_queries(seed, small)
    elif workload == "chow_bd":
        ops, probes = workloads.chow_bd_ops(small), []
    else:
        ops, probes = workloads.dictionaries_ops(small), []
    workloads.enumerate_all((LARGEST_SMALL if small else LARGEST)[workload])
    workloads.clear_engines()
    return Plan(workload, seed, small, ops, probes)


def probe_setup(workload: str, seed: int) -> tuple:
    """(scaled, raw) set-up seconds of a fresh interpreter, so the import counts."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    latencies: list  # raw wall seconds, one per operation
    cpu: list  # raw process CPU seconds, one per operation
    op_scale: list  # raw -> reference-speed factor, one per operation
    results: list  # VerificationReport or QueryResult, one per operation
    tracer: object = None

    @property
    def wall(self) -> float:
        return sum(x * k for x, k in zip(self.latencies, self.op_scale))

    @property
    def cpu_s(self) -> float:
        return sum(x * k for x, k in zip(self.cpu, self.op_scale))

    @property
    def scale(self) -> float:
        """Factor from raw seconds to seconds at the reference host speed."""
        return self.wall / sum(self.latencies)


def run_pass(plan: Plan, tracer=None) -> Pass:
    p = Pass([], [], [], [], tracer)
    spans = []
    gc.collect()
    with HostMeter() as meter:
        meter.sample()
        for op in plan.ops:
            if plan.workload == "queries" or op.clear_before:
                workloads.clear_engines()
            frame = tracer.push("op", op.label) if tracer else None
            t0, c0 = time.perf_counter(), time.process_time()
            if plan.workload == "queries":
                result = workloads.run_query(op.argv)
            else:
                result = op.call()
            t1, c1 = time.perf_counter(), time.process_time()
            if frame:
                tracer.pop(frame)
            spans.append((t0, t1, c1 - c0))
            p.results.append(result)
            meter.sample()
    for t0, t1, cpu in spans:
        spent = meter.spent(t0, t1)
        p.latencies.append(t1 - t0 - spent)
        p.cpu.append(cpu - spent)
        p.op_scale.append(meter.scale(t0, t1))
    workloads.clear_engines()
    return p


def timed_passes(plan: Plan, seconds: float, traced: bool) -> tuple:
    """Passes until the next would overrun ``seconds``; at least one.

    A traced run alternates an untraced and a traced pass, so both see the
    same host conditions; their difference is the tracing overhead.
    """
    plain, traced_passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(plan))
        if traced:
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                traced_passes.append(run_pass(plan, tracer))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return plain, traced_passes


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def check(plan: Plan, passes: list) -> tuple:
    """(attempted, failed, problems) over every pass of the run."""
    attempted = failed = 0
    problems = []
    if plan.workload != "queries":
        for p in passes:
            a, f, probs = gate.check_reports(plan.ops, p.results)
            attempted, failed = attempted + a, failed + f
            problems += probs
        return attempted, failed, problems
    digests = None if plan.small else gate.load_digests(plan.seed, plan.ops)
    bad = gate.check_queries(plan.ops, passes[0].results, digests)
    reference = [gate.output_digest(r) for r in passes[0].results]
    for p in passes:
        attempted += len(plan.ops)
        changed = [
            i for i, (r, ref) in enumerate(zip(p.results, reference))
            if gate.output_digest(r) != ref
        ]
        failed += len(set(bad) | set(changed))
        if changed:
            problems.append(f"{len(changed)} outputs differ from the first pass")
    return attempted, failed, list(bad.values()) + problems


def known_defects(plan: Plan) -> dict:
    """Inputs documented to exit 2 that raise at the seed; reported, not gated."""
    results = [workloads.run_query(q.argv) for q in plan.probes]
    workloads.clear_engines()
    return {
        "attempted": len(results),
        "failed": sum(r.code != q.expect for q, r in zip(plan.probes, results)),
        "outcomes": [
            {"argv": " ".join(q.argv), "exit": r.code, "stderr": r.stderr.strip()[:200]}
            for q, r in zip(plan.probes, results)
        ],
    }


# ---------------------------------------------------------------------------
# Metrics and environment
# ---------------------------------------------------------------------------


def percentile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def scaled_latencies(passes: list) -> list:
    """Each operation's latency at the reference speed, median over passes."""
    per_pass = [[x * k for x, k in zip(p.latencies, p.op_scale)] for p in passes]
    return [statistics.median(xs) for xs in zip(*per_pass)]


def end_to_end(plan: Plan, setup: list, passes: list, rss_kb: int) -> dict:
    if plan.workload == "queries":
        # One latency per query, so every run weighs the queries alike
        # however many passes fitted in it.
        latencies = scaled_latencies(passes)
    else:
        # A verify workload's operation is the whole sweep, as a user runs
        # ``flagcalc verify``.  Its 6-8 calls are too few and too unlike to
        # give a steady percentile; env.op_latency_ms lists them.
        latencies = [p.wall for p in passes]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "op_p50_ms": percentile(latencies, 50) * 1000,
        "op_p90_ms": percentile(latencies, 90) * 1000,
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(plain: list, traced_passes: list) -> tuple:
    """Per-layer values and whether every exact count repeated across passes."""
    values = {}
    repeat = True
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        samples = [p.tracer.value(name) for p in traced_passes]
        if name.endswith("_s"):
            values[name] = statistics.median(
                x * p.scale for x, p in zip(samples, traced_passes)
            )
        else:
            values[name] = samples[0]
            repeat = repeat and len(set(samples)) == 1
    values["trace.overhead_s"] = statistics.median(
        p.wall for p in traced_passes
    ) - statistics.median(p.wall for p in plain)
    return values, repeat


def git_sha():
    """The commit of a git checkout, read from .git without running git."""
    head = os.path.join(os.getcwd(), ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(os.getcwd(), ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(os.getcwd(), ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return None


def op_counts(plan: Plan, passes: list) -> dict:
    counts: dict = {}
    for op in plan.ops:
        counts[op.label] = counts.get(op.label, 0) + len(passes)
    return counts


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False,
        out_dir: str | None = None) -> tuple:
    """One benchmark run; returns (result object, environment record)."""
    load_start = os.getloadavg()
    plan, *first = timed_set_up(workload, seed, small)
    setup = [tuple(first)]
    if not small:
        setup += [probe_setup(workload, seed) for _ in range(SETUP_SAMPLES - 1)]

    plain, traced_passes = timed_passes(plan, seconds, trace)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted, failed, problems = check(plan, plain + traced_passes)
    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "small": small,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_start": load_start,
        "reference_s": REFERENCE_S,
        "setup_samples_s": [scaled for scaled, _ in setup],
        "setup_samples_raw_s": [raw for _, raw in setup],
        "passes": len(plain),
        "pass_wall_s": [p.wall for p in plain],
        "pass_wall_raw_s": [sum(p.latencies) for p in plain],
        "pass_scale": [p.scale for p in plain],
        "op_samples": op_counts(plan, plain),
        "op_latency_ms": {
            op.label: x * 1000 for op, x in zip(plan.ops, scaled_latencies(plain))
        } if workload != "queries" else None,
        "failed_frac": failed / attempted,
        "problems": problems[:20],
        "known_defects": known_defects(plan),
    }
    if trace:
        metrics, repeat = per_layer(plain, traced_passes)
        env["traced_pass_wall_s"] = [p.wall for p in traced_passes]
        env["counts_repeat"] = repeat
        units = PER_LAYER
    else:
        metrics = end_to_end(plan, [scaled for scaled, _ in setup], plain, rss_kb)
        units = END_TO_END
    env["loadavg_end"] = os.getloadavg()
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    if trace:
        out_dir = out_dir or os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump({"env": env, "result": result, "spans": traced_passes[0].tracer.span_tree()}, fh)
        env["trace_file"] = os.path.relpath(path)
    return result, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of a fresh interpreter and exit")
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            _, scaled, raw = timed_set_up(args.workload, args.seed, small=False)
            print(json.dumps({"setup_s": [scaled, raw]}))
            return 0
        result, env = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'attempted':44s} {result['attempted']:>14d}")
    print(f"{'failed':44s} {result['failed']:>14d}  (failed_frac {env['failed_frac']:.4g})")
    for line in env["problems"]:
        print(f"correctness: {line}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
