"""fracsum benchmark: one workload, one closed-loop client, timed from outside.

    python3 perfbench/run.py --workload reproduce-quad --seed 1 --seconds 30 --trace 0

A single client runs the workload's jobs one after another, each job
starting when the previous one has finished, in an order shuffled by
``--seed``; the inputs themselves are the paper's and do not vary.  A
pass is one run of every job.  After an untimed warm-up pass the client
repeats passes until the next one would end after ``--seconds``.  Every
job's output is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics, with no instrumentation.
``--trace 1`` runs every job of a pass twice, back to back: once as is
and once with its layer boundaries wrapped (see layers.py), and reports
the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when one failed, and 2 when the program
under test cannot be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9

# Host-speed probe.  Other tenants of a shared host slow every process on
# it, by up to a third and for a minute or more at a time, which no number
# of passes in one run averages away.  A fixed slice of pure-Python
# big-integer work (no mpmath, so that a faster mpmath backend does not
# move it) runs after every timed job, at least SLICES_PER_PASS times a
# pass, and after every set-up probe.  Each pass's times,
# and the set-up times, are reported scaled by REFERENCE_SLICE_S / median
# time of their own slices: seconds on a host as fast as the one the
# reference was measured on.
SLICE_STEPS = 35_000
SLICES_PER_PASS = 16  # at least; a median of fewer slices is too noisy
REFERENCE_SLICE_S = 0.009
_MASK = (1 << 113) - 1


def probe_slice() -> float:
    """Seconds for one fixed slice of interpreter and big-integer work."""
    start = perf_counter()
    x = 1
    for i in range(SLICE_STEPS):
        x = ((x * 0x9E3779B97F4A7C15 + i) >> 3) & _MASK
    return perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["reproduce-quad", "reproduce-double", "deep-aps"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class Tally:
    """Attempted and failed operations, and what went wrong."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.checked_rows = 0
        self.failed_rows = 0
        self.problems = []

    def record(self, label, problems, checked_rows=0, failed_rows=0):
        self.attempted += 1
        self.checked_rows += checked_rows
        self.failed_rows += failed_rows
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")
            print(f"FAIL {label}: {'; '.join(problems)}", file=sys.stderr)

    @property
    def error_frac(self) -> float:
        """Failed rows over checked rows (reference workloads), else failed jobs over jobs."""
        if self.reference:
            return self.failed_rows / max(self.checked_rows, 1)
        return self.failed / max(self.attempted, 1)


def call_job(job):
    return job.call()


def run_job(job, call=call_job):
    """Run one job; returns (seconds, output, exception or None)."""
    start = perf_counter()
    try:
        output, error = call(job), None
    except Exception as exc:  # a failing job is counted, not fatal
        output, error = None, exc
    return perf_counter() - start, output, error


def check_job(job, output, error, tally):
    """Check one job's output into *tally*; returns its Accuracy, if any."""
    if error is not None:
        tally.record(job.name, [f"raised {error!r}"], job.rows, job.rows)
        return None
    checked = job.check(output)
    tally.record(job.name, checked.problems, checked.checked_rows, checked.failed_rows)
    return checked.accuracy


def run_pass(jobs, rng, tally, after_job=None):
    """One shuffled pass; returns (pass seconds, job milliseconds, accuracies).

    The pass time is the sum of the job times, so *after_job*, called
    after each job, is not part of it.  Outputs are checked after the pass.
    """
    order = list(jobs)
    rng.shuffle(order)
    results = []
    for job in order:
        results.append((job, *run_job(job)))
        if after_job is not None:
            after_job()
    job_ms = [seconds * 1000 for _, seconds, _, _ in results]
    accuracies = [check_job(job, output, error, tally) for job, _, output, error in results]
    return sum(job_ms) / 1000, job_ms, [a for a in accuracies if a is not None]


def repeat(seconds, one_round):
    """Call *one_round* until the next round would end after *seconds*."""
    start = perf_counter()
    durations = []
    while True:
        round_start = perf_counter()
        one_round()
        durations.append(perf_counter() - round_start)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_setup(name) -> tuple:
    """Set-up seconds of *name* in SETUP_PROBES fresh interpreters, and slices."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times, slices = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), name], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
        slices.append(probe_slice())
    return times, slices


def environment(args) -> dict:
    import mpmath

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": cpus,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(workload, args, tally):
    """Uninstrumented passes; returns (metrics, notes printed beside them)."""
    rng = random.Random(args.seed)
    setup, setup_slices = measure_setup(workload.name)
    setup_scale = REFERENCE_SLICE_S / statistics.median(setup_slices)

    accuracies = run_pass(workload.jobs, rng, tally)[2]  # warm-up
    if workload.reference:
        try:
            accuracies = workload.known_accuracies()
        except Exception as exc:
            tally.record("known-S accelerations", [f"raised {exc!r}"])
    if not accuracies:
        tally.problems.append("no accuracy measured")

    passes, job_ms, scales, raw_passes, raw_job_ms = [], [], [], [], []

    per_job = -(-SLICES_PER_PASS // len(workload.jobs))

    def one_pass():
        slices = []
        pass_s, ms, _ = run_pass(workload.jobs, rng, tally, after_job=lambda: slices.extend(
            probe_slice() for _ in range(per_job)))
        scale = REFERENCE_SLICE_S / statistics.median(slices)
        scales.append(scale)
        passes.append(pass_s * scale)
        job_ms.extend(m * scale for m in ms)
        raw_passes.append(pass_s)
        raw_job_ms.extend(ms)

    repeat(args.seconds, one_pass)
    # with no accuracy measured the run is already incorrect; claim no digits
    rel = [a.rel_err for a in accuracies] or [1.0]
    digits = [a.digits for a in accuracies] or [0.0]
    pct = workload.tail_pct
    metrics = {
        "pass_s": (statistics.median(passes), "s"),
        "job_p50_ms": (statistics.median(job_ms), "ms"),
        "job_tail_ms": (percentile(job_ms, pct), "ms"),
        "setup_s": (statistics.median(setup) * setup_scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "digits_mean": (statistics.fmean(digits), "digits"),
        "worst_rel_err": (max(rel), "rel"),
        "est_covered_frac": (sum(a.covered for a in accuracies) / max(len(accuracies), 1),
                             "fraction"),
        "ok_frac": (1 - tally.error_frac, "fraction"),
    }
    beyond = len(job_ms) * (100 - pct) / 100
    notes = [
        f"passes: {len(passes)}; jobs timed: {len(job_ms)}; job_tail_ms is p{pct}, "
        f"with {beyond:.1f} jobs beyond it",
        f"setup probes: {len(setup)}",
        f"host speed: pass scale factors {min(scales):.4f} to {max(scales):.4f}, set-up "
        f"{setup_scale:.4f}; unscaled: pass_s {statistics.median(raw_passes):.4f} s, "
        f"job_p50_ms {statistics.median(raw_job_ms):.2f}, job_tail_ms "
        f"{percentile(raw_job_ms, pct):.2f}, setup_s {statistics.median(setup):.4f} s",
        f"digits_min: {min(digits)} digits over {len(accuracies)} accelerations with a known S",
        f"error_frac: {tally.error_frac} "
        + (f"({tally.failed_rows} of {tally.checked_rows} checked rows failed)" if tally.reference
           else f"({tally.failed} of {tally.attempted} jobs failed)"),
    ]
    notes += [f"  {a.label}: {a.digits:.2f} digits, covered={a.covered}" for a in accuracies]
    return metrics, notes


def per_layer(workload, args, tally):
    """Run every job uninstrumented and traced; returns (metrics, notes)."""
    from layers import LayerTrace

    rng = random.Random(args.seed)
    run_pass(workload.jobs, rng, tally)  # warm-up
    plain, traced = [], []

    def one_cycle():
        layers = LayerTrace()
        job_span = layers.span("job", call_job)
        order = list(workload.jobs)
        rng.shuffle(order)
        seconds = {False: 0.0, True: 0.0}
        results = []
        for i, job in enumerate(order):
            # each job runs plain and traced back to back, in alternating
            # order, so that host drift cancels out of the overhead
            for instrumented in (i % 2 == 0, i % 2 == 1):
                if instrumented:
                    with layers.installed():
                        result = run_job(job, job_span)
                else:
                    result = run_job(job)
                seconds[instrumented] += result[0]
                results.append((job, *result[1:]))
        for result in results:
            check_job(*result, tally)
        plain.append(seconds[False])
        traced.append((seconds[True], layers))
        counts = (layers.calls["series_model.term"], layers.entries)
        want = (workload.terms_per_pass, workload.entries_per_pass)
        if counts != want:
            tally.problems.append(f"traced pass: terms and entries {counts}, closed form {want}")

    repeat(args.seconds, one_cycle)

    def med(f):
        return statistics.median(f(layers) for _, layers in traced)

    def self_s(*names):
        return lambda t: sum(t.self_s[n] for n in names)

    def calls(name):
        return lambda t: t.calls[name]

    # max(.., 1): when every job raises, the run still prints its result
    term_s = med(self_s("series_model.term"))
    terms = max(med(calls("series_model.term")), 1)
    build_s = med(self_s("w_algorithm.build_table"))
    entries = max(med(lambda t: t.entries), 1)
    plain_s = statistics.median(plain)
    traced_s = statistics.median(p for p, _ in traced)
    metrics = {
        "sampling.prefix_s": (med(self_s("sampling.prefix")), "s"),
        "sampling.prefix_calls": (med(calls("sampling.prefix")), "count"),
        "series_model.term_s": (term_s, "s"),
        "series_model.terms": (terms, "count"),
        "series_model.term_us": (term_s / terms * 1e6, "us"),
        "series_model.accumulate_s": (med(self_s("series_model.sums_and_terms")), "s"),
        "series_model.terms_used_frac": (med(lambda t: t.terms_used) / terms, "fraction"),
        "w_algorithm.build_table_s": (build_s, "s"),
        "w_algorithm.entries": (entries, "count"),
        "w_algorithm.entry_us": (build_s / entries * 1e6, "us"),
        "w_algorithm.entries_used_frac": (med(lambda t: t.entries_used) / entries, "fraction"),
        "w_algorithm.cells_retained": (med(lambda t: t.cells_max), "count"),
        "transform.select_s": (med(self_s("transform.accelerate", "transform.estimate_errors")),
                               "s"),
        "bench_cli.self_s": (med(self_s("bench_cli.run", "bench_cli.reproduce_all")), "s"),
        "bench_cli.render_s": (med(self_s("bench_cli.render")), "s"),
        "trace.overhead_frac": ((traced_s - plain_s) / plain_s, "fraction"),
        "trace.uncovered_frac": (med(lambda t: t.self_s["job"] / t.total_s["job"]), "fraction"),
    }
    notes = [
        f"cycles: {len(traced)} (every job once uninstrumented and once traced)",
        f"pass_s: {plain_s} s uninstrumented, {traced_s} s traced",
        f"closed form per pass: {workload.terms_per_pass} terms, "
        f"{workload.entries_per_pass} entries",
    ]
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracsum" / "__init__.py").is_file():
        print(f"error: the fracsum sources are missing ({SRC / 'fracsum'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import mpmath

    import workloads

    mp_state = (mpmath.mp.prec, mpmath.mp.pretty)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    workload = workloads.build(args.workload)
    tally = Tally(workload.reference)
    measure = per_layer if args.trace else end_to_end
    metrics, notes = measure(workload, args, tally)
    if (mpmath.mp.prec, mpmath.mp.pretty) != mp_state:
        tally.problems.append("the global mpmath.mp state changed")

    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:<24.10g} {unit}")
    for note in notes:
        print(note)
    for problem in tally.problems:
        print(f"problem: {problem}")
    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
