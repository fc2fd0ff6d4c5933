"""Workloads of the fracsum benchmark: job lists, output checks, accuracy
records and the closed-form counts a traced pass is held to.

Every job goes through the public library API the CLI uses.  The
expected values below are kept here, independently of
``fracsum.reference_tables``, so that the checks do not trust the data
they check.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from mpmath.ctx_mp import MPContext

from fracsum import DOUBLE, QUAD, accelerate, builtin_problem, make_context, parse_schedule
from fracsum import bench_cli
from fracsum.series_model import ProductProblem, product_to_series

# The 25 frozen reference tables: (problem, schedule, depth, rows).
REFERENCE_TABLES = (
    ("ex5_1", "aps:1,1", 40, 11),
    ("ex5_1", "gps:1.3", 32, 9),
    ("ex5_2", "aps:1,1", 32, 9),
    ("ex5_3", "aps:1,1", 40, 11),
    ("ex5_3", "gps:1.3", 32, 9),
    ("ex5_4", "aps:1,1", 32, 9),
    ("ex5_5", "aps:1,1", 32, 9),
    ("ex5_5", "gps:1.3", 32, 9),
    ("ex5_6", "aps:1,1", 32, 9),
    ("ex5_7", "aps:1,1", 64, 9),
    ("ex5_7", "aps:5,5", 32, 9),
    ("ex5_8", "aps:1,1", 32, 9),
    ("ex5_9", "aps:1,1", 64, 9),
    ("ex5_9", "aps:5,5", 32, 9),
    ("ex5_10", "aps:1,1", 40, 11),
    ("ex5_11", "aps:1,1", 40, 11),
    ("ex5_11", "gps:1.1", 48, 13),
    ("ex5_12", "aps:1,1", 40, 11),
    ("ex5_13", "aps:1,1", 32, 9),
    ("ex5_14", "aps:1,1", 32, 9),
    ("ex5_14", "gps:1.3", 32, 9),
    ("ex7_1", "aps:1,1", 32, 9),
    ("ex7_1", "gps:1.3", 32, 9),
    ("ex7_2", "aps:1,1", 32, 9),
    ("ex7_2", "gps:1.3", 32, 9),
)
PROBLEM_IDS = tuple(dict.fromkeys(pid for pid, *_ in REFERENCE_TABLES))

# Rows that ``reproduce --precision double`` reports as precision-limited.
# The split follows from the frozen Gamma/Lambda columns alone, so it does
# not depend on the code under test.
DOUBLE_LIMITED = {
    "ex5_1": 11, "ex5_2": 0, "ex5_3": 18, "ex5_4": 0, "ex5_5": 16, "ex5_6": 0,
    "ex5_7": 12, "ex5_8": 0, "ex5_9": 14, "ex5_10": 0, "ex5_11": 18, "ex5_12": 6,
    "ex5_13": 5, "ex5_14": 16, "ex7_1": 14, "ex7_2": 16,
}

# Limits (or antilimits) with a closed form: every telescoping family sums
# to -1, and prod(1 - 1/(4n^2)) = 2/pi.
KNOWN_S = {pid: (lambda ctx: -ctx.one) for pid in (
    "ex5_1", "ex5_2", "ex5_3", "ex5_4", "ex5_7", "ex5_8", "ex5_11", "ex5_12")}
KNOWN_S["ex7_1"] = lambda ctx: 2 / ctx.pi

DEEP_PROBLEMS = ("ex5_2", "ex5_8", "ex5_4", "ex5_12")
DEEP_SCHEDULE = "aps:1,1"
DEEP_DEPTH = 128
# Fewest correct digits accepted at the selected deep-aps entry: one digit
# below what the seed commit delivers.
DEEP_MIN_DIGITS = {
    ("quad", "ex5_2"): 32.7, ("quad", "ex5_8"): 31.7,
    ("quad", "ex5_4"): 31.0, ("quad", "ex5_12"): 26.0,
    ("double", "ex5_2"): 14.6, ("double", "ex5_8"): 14.6,
    ("double", "ex5_4"): 13.4, ("double", "ex5_12"): 12.3,
}

# A private high-precision context for error arithmetic; the global
# mpmath.mp state is never touched.
_HP = MPContext()
_HP.prec = 320


def schedule_values(spec: str, count: int) -> list:
    """First *count* abscissas of an ``aps:``/``gps:`` spec, from the closed form."""
    kind, _, params = spec.partition(":")
    if kind == "aps":
        kappa, eta = (Fraction(p) for p in params.split(","))
        return [math.floor(kappa * l + eta) for l in range(count)]
    tau = Fraction(params)
    values = [1]
    for l in range(1, count):
        values.append(max(math.floor(tau * values[-1]), l + 1))
    return values


def triangle(depth: int) -> int:
    """Entries A(j, n) with j + n <= depth."""
    return (depth + 1) * (depth + 2) // 2


@dataclass
class Accuracy:
    """Error of one selected entry against its known limit."""

    label: str
    rel_err: float  # |A - S| / |S|, floored at the roundoff unit u
    covered: bool  # |A - S| <= the reported est_abs_error

    @property
    def digits(self) -> float:
        return -math.log10(self.rel_err)


def accuracy(label, value, S, est_abs, u) -> Accuracy:
    """Compare a selected value with its limit in the private context."""
    err = abs(_HP.convert(value) - _HP.convert(S))
    rel = float(err / abs(_HP.convert(S)))
    return Accuracy(label, max(rel, float(u)), err <= _HP.convert(est_abs))


@dataclass
class Checked:
    """Outcome of checking one job's output."""

    problems: list = field(default_factory=list)
    checked_rows: int = 0
    failed_rows: int = 0
    accuracy: Accuracy | None = None


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Checked]
    # rows the job checks; all count as failed when the job raises
    rows: int = 0


@dataclass
class Workload:
    name: str
    presets: tuple
    jobs: list
    tail_pct: int  # highest percentile with ten samples beyond it in one run
    terms_per_pass: int
    entries_per_pass: int
    reference: bool  # True: the job outputs are reference-table reports

    def known_accuracies(self) -> list:
        """Accuracy at the selected entry of every reference triple with a known S."""
        accs = []
        for precision in self.presets:
            ctx = make_context(precision)
            for pid, spec, depth, _ in REFERENCE_TABLES:
                if pid not in KNOWN_S:
                    continue
                problem = builtin_problem(pid)
                if isinstance(problem, ProductProblem):
                    problem = product_to_series(problem)
                result = accelerate(problem, parse_schedule(spec), depth, ctx)
                accs.append(accuracy(f"{pid} {spec} {depth}", result.value,
                                     KNOWN_S[pid](_HP), result.est_abs_error, ctx.eps))
        return accs


# ---------------------------------------------------------------------------
# reproduce-quad / reproduce-double
# ---------------------------------------------------------------------------

_TOTAL_LINE = re.compile(
    r"total: (\d+) tables, (\d+) rows checked, (\d+) failed, (\d+) precision-limited")


def _reproduce_job(precision, pid) -> Job:
    tables = sum(1 for p, *_ in REFERENCE_TABLES if p == pid)
    rows = sum(r for p, _, _, r in REFERENCE_TABLES if p == pid)
    limited = DOUBLE_LIMITED[pid] if precision is DOUBLE else 0

    def call():
        report = bench_cli.reproduce_all(precision, only=pid)
        return report, report.text()

    def check(output) -> Checked:
        report, text = output
        statuses = [row.status for o in report.outcomes for row in o.rows]
        failed = statuses.count("fail")
        seen_limited = statuses.count("precision-limited")
        out = Checked(checked_rows=rows - limited, failed_rows=failed)
        want_exit = 2 if limited else 0
        if report.exit_code != want_exit:
            out.problems.append(f"exit code {report.exit_code}, expected {want_exit}")
        if len(report.outcomes) != tables or len(statuses) != rows:
            out.problems.append(
                f"{len(report.outcomes)} tables / {len(statuses)} rows, expected {tables} / {rows}")
        if failed or seen_limited != limited:
            out.problems.append(f"{failed} failed and {seen_limited} precision-limited rows, "
                                f"expected 0 and {limited}")
        total = _TOTAL_LINE.search(text)
        want = (tables, rows - limited, 0, limited)
        if total is None or tuple(int(g) for g in total.groups()) != want:
            out.problems.append(f"report text total {total and total.group(0)!r}, expected {want}")
        return out

    return Job(f"reproduce {precision.name} {pid}", call, check, rows - limited)


def _reproduce(name, precision) -> Workload:
    terms = sum(schedule_values(spec, depth + 1)[-1] for _, spec, depth, _ in REFERENCE_TABLES)
    entries = sum(triangle(depth) for _, _, depth, _ in REFERENCE_TABLES)
    return Workload(
        name=name,
        presets=(precision,),
        jobs=[_reproduce_job(precision, pid) for pid in PROBLEM_IDS],
        tail_pct=90,
        terms_per_pass=terms,
        entries_per_pass=entries,
        reference=True,
    )


# ---------------------------------------------------------------------------
# deep-aps
# ---------------------------------------------------------------------------

_BEST = re.compile(r"A\(0,(\d+)\) using R_(\d+) = (\d+) terms")


def _deep_job(precision, pid) -> Job:
    config = bench_cli.RunConfig(problem=pid, schedule=DEEP_SCHEDULE, depth=DEEP_DEPTH,
                                 precision=precision.name, fmt="json", stride=1)
    ctx = make_context(precision)
    R = schedule_values(DEEP_SCHEDULE, DEEP_DEPTH + 1)

    def call():
        return bench_cli.run(config).render("json")

    def check(text) -> Checked:
        out = Checked()
        try:
            doc = json.loads(text)
            rows, summary = doc["rows"], doc["summary"]
            head = (doc["problem"], doc["schedule"], doc["depth"], doc["precision"])
            if head != (pid, DEEP_SCHEDULE, DEEP_DEPTH, precision.name):
                out.problems.append(f"header {head}")
            if [(r[0], r[1]) for r in rows] != list(enumerate(R)):
                out.problems.append("rows do not list n, R_n = n + 1 for n = 0..depth")
            if not all(float(r[4]) >= 1 and float(r[5]) >= 0 for r in rows):
                out.problems.append("a Gamma below 1 or a negative Lambda")
            best = _BEST.fullmatch(summary["best entry"])
            n = int(best.group(1))
            if int(best.group(2)) != n or int(best.group(3)) != R[n]:
                out.problems.append(f"best entry {summary['best entry']!r}")
            if summary["true error"] != rows[n][3]:
                out.problems.append(f"true error {summary['true error']} is not row {n}'s "
                                    f"{rows[n][3]}")
            acc = accuracy(f"{precision.name} {pid}", _HP.mpf(summary["value"]), -_HP.one,
                           _HP.mpf(summary["est abs error"]), ctx.eps)
        except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
            out.problems.append(f"malformed output: {exc!r}")
            return out
        # the printed value carries ctx.dps digits, the printed error three
        slack = 10.0 ** (1 - ctx.dps) + 0.006 * float(summary["true error"])
        if abs(acc.rel_err - max(float(summary["true error"]), float(ctx.eps))) > slack:
            out.problems.append(f"|value - S| = {acc.rel_err:.3e} but true error "
                                f"{summary['true error']}")
        floor = DEEP_MIN_DIGITS[(precision.name, pid)]
        if acc.digits < floor:
            out.problems.append(f"{acc.digits:.2f} correct digits, expected >= {floor}")
        out.accuracy = acc
        return out

    return Job(f"run {precision.name} {pid}", call, check)


def _deep_aps() -> Workload:
    presets = (QUAD, DOUBLE)
    jobs = [_deep_job(p, pid) for p in presets for pid in DEEP_PROBLEMS]
    return Workload(
        name="deep-aps",
        presets=presets,
        jobs=jobs,
        tail_pct=75,
        terms_per_pass=len(jobs) * schedule_values(DEEP_SCHEDULE, DEEP_DEPTH + 1)[-1],
        entries_per_pass=len(jobs) * triangle(DEEP_DEPTH),
        reference=False,
    )


BUILDERS = {
    "reproduce-quad": lambda: _reproduce("reproduce-quad", QUAD),
    "reproduce-double": lambda: _reproduce("reproduce-double", DOUBLE),
    "deep-aps": _deep_aps,
}


def build(name: str) -> Workload:
    """Make the contexts and the job list of workload *name*."""
    workload = BUILDERS[name]()
    for precision in workload.presets:
        make_context(precision)
    return workload
