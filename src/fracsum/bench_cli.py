"""Command-line interface and reference-table reproduction harness.

Subcommands:

* ``run``        accelerate one problem and print the diagnostic table
* ``classify``   recover structural parameters from ratio coefficients
* ``reproduce``  recompute every frozen reference table and compare
* ``list``       show the builtin problem ids

Error and indicator columns print 3 significant digits of the exact
binary value, rounded half to even; value columns print the full
working precision through the context's ``nstr``.

Exit codes for ``reproduce``: 0 all rows pass, 1 any row fails,
2 no failures but some rows were skipped as precision-limited.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from mpmath.libmp import finf, fnan, fninf, fzero

from .classify import RatioExpansion, convergence_verdict, structure_from_ratio
from .numerics import PRESETS, QUAD, Precision, _raw, make_context
from .sampling import _check_integer, parse_schedule
from .series_model import builtin_ids, builtin_problem, load_problem, resolve_known_S
from .transform import accelerate

if TYPE_CHECKING:  # fracsum run leaves the reference tables unimported
    from .reference_tables import ReferenceTable

__all__ = ["RunConfig", "TableRow", "RunReport", "run", "reproduce_all", "ReproduceReport", "main"]


# ---------------------------------------------------------------------------
# Number formatting
# ---------------------------------------------------------------------------


# the raw mpf values with a zero mantissa, which have no decimal digits
_SPECIAL = {fzero: "0.00e+00", finf: "inf", fninf: "-inf", fnan: "nan"}
# 10^k for the scales of the values a run prints; _sci forms 10**k past the end
_POW10 = [10**k for k in range(128)]


def _sci(x, digits: int = 3) -> str:
    """Scientific notation with *digits* significant digits.

    The digits are those of the exact binary value man * 2^exp of its raw
    mpf, scaled by a power of ten as the int quotient num/den and rounded
    half to even on the remainder, so a float and the equal mpf print alike
    at any exponent.  A non-finite value renders as ``inf``, ``-inf`` or
    ``nan``.
    """
    v = x._mpf_ if hasattr(x, "_mpf_") else _raw(x) if type(x) is float else None
    if v is None and x.imag != 0:  # a complex, an mpc or an int
        im = _sci(abs(x.imag), digits)
        return f"{_sci(x.real, digits)}{'-' if x.imag < 0 else '+'}{im}i"
    v = v or getattr(x.real, "_mpf_", None) or _raw(x.real)
    if v in _SPECIAL:
        return _SPECIAL[v]
    sign, num, exp, bc = v
    # 2^(exp+bc-1) <= |x| < 2^(exp+bc), so floor(log10|x|) is e or e + 1
    e = math.floor((exp + bc - 1) * math.log10(2))
    # |x| * 10^(digits-1-e) = num / den
    den, shift, top = 1, digits - 1 - e, 10**digits
    if exp >= 0:
        num <<= exp
    else:
        den <<= -exp
    scale = _POW10[abs(shift)] if -128 < shift < 128 else 10 ** abs(shift)
    if shift >= 0:
        num *= scale
    else:
        den *= scale
    if num >= top * den:
        den, e = den * 10, e + 1
    q, r = divmod(num, den)
    if 2 * r > den or 2 * r == den and q & 1:  # half to even
        q += 1
        if q == top:
            q, e = q // 10, e + 1
    text = str(q)
    return f"{'-' if sign else ''}{text[0]}.{text[1:]}e{e:+03d}"


def _full(x, ctx) -> str:
    """Full working-precision rendering of a value column."""
    if hasattr(x, "imag") and x.imag != 0:
        return f"{_full(x.real, ctx)} {'-' if x.imag < 0 else '+'} {_full(abs(x.imag), ctx)}i"
    return ctx.nstr(x.real if hasattr(x, "real") else x, ctx.dps, strip_zeros=False)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    problem: Optional[str] = None
    problem_file: Optional[str] = None
    schedule: Optional[str] = None
    depth: int = 32
    precision: str = "quad"
    fmt: str = "text"
    stride: int = 4


class TableRow(NamedTuple):
    n: int
    R: int
    col3: str  # A_{R_n} or |A_{R_n} - S|
    col4: str  # A(0,n) or |A(0,n) - S|
    gamma: str
    lam: str


@dataclass
class RunReport:
    problem: str
    schedule: str
    depth: int
    precision: str
    columns: list
    rows: list  # of TableRow, one cell per column
    summary: dict

    def text(self) -> str:
        cells = [self.columns] + [list(map(str, row)) for row in self.rows]
        widths = [max(map(len, column)) for column in zip(*cells)]
        out = [f"# {self.problem}  schedule={self.schedule}  depth={self.depth}  precision={self.precision}"]
        for row in cells:
            out.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        out.append("")
        for key, value in self.summary.items():
            out.append(f"{key}: {value}")
        return "\n".join(out) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        for key, value in self.summary.items():
            writer.writerow(["summary", key, value])
        return buf.getvalue()

    def to_json(self) -> str:
        # the fields in their declared order are the document's keys
        return json.dumps(vars(self), indent=2) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "text":
            return self.text()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")


def _resolve_problem(config: RunConfig):
    file_schedule = None
    if config.problem_file and config.problem:
        raise ValueError(f"give a builtin id or --problem-file, not both: got "
                         f"{config.problem!r} and --problem-file {config.problem_file!r}")
    if config.problem_file:
        problem, file_schedule = load_problem(config.problem_file)
    elif config.problem:
        problem = builtin_problem(config.problem)
    else:
        raise ValueError("no problem given: pass a builtin id or --problem-file")
    if config.schedule is not None:
        schedule = parse_schedule(config.schedule)
    else:
        schedule = file_schedule or parse_schedule("aps:1,1")
    return problem, schedule


def run(config: RunConfig) -> RunReport:
    """Accelerate one problem and produce the rendered diagnostic table."""
    stride = config.stride
    _check_integer(stride, "stride", 1)
    precision = PRESETS[config.precision]
    ctx = make_context(precision)
    problem, schedule = _resolve_problem(config)
    depth = config.depth
    result = accelerate(problem, schedule, depth, ctx)

    has_S = problem.known_S is not None
    columns = ["n", "R_n", *(["|A_R-S|", "|A(0,n)-S|"] if has_S else ["A_R", "A(0,n)"]),
               "Gamma(0,n)", "Lambda(0,n)"]
    rows = []
    for row in result.rows:
        if row.n % stride and row.n != depth:
            continue
        if has_S:
            col3, col4 = _sci(row.sample_error), _sci(row.true_error)
        else:
            col3, col4 = _sci(row.sample), _full(row.value, ctx)
        rows.append(TableRow(row.n, row.R, col3, col4, _sci(row.gamma), _sci(row.lam)))

    best = result.rows[result.best[1]]
    summary = {
        "best entry": f"A(0,{best.n}) using R_{best.n} = {best.R} terms",
        "value": _full(best.value, ctx),
        "est abs error": _sci(best.est_abs),
        "est rel error": _sci(best.est_rel),
    }
    if has_S:
        summary["true error"] = _sci(best.true_error)
    return RunReport(
        problem=problem.name,
        schedule=schedule.spec_string(),
        depth=depth,
        precision=precision.name,
        columns=columns,
        rows=rows,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

# Comparison policy.  Reference values carry 3 significant digits, and
# deep-diagonal entries are roundoff-noise dominated: every bound gets a
# noise floor proportional to Lambda * u at the active precision.
_RATIO = 5  # Gamma/Lambda and error columns must agree within this factor
_NOISE = 1000  # noise-floor multiplier on Lambda * u
_DISPLAY_REL = 0.007  # 3-significant-digit display rounding slack
_CUTOFF = 1e-13  # below-reference precisions skip rows beyond this estimate


@dataclass
class RowOutcome:
    n: int
    status: str  # pass | fail | precision-limited
    detail: str = ""


@dataclass
class TableOutcome:
    reference: ReferenceTable
    rows: list = field(default_factory=list)

    def count(self, status: str) -> int:
        return sum(1 for r in self.rows if r.status == status)


def _ratio_ok(ours, fix, floor=0):
    if abs(ours - fix) <= floor:
        return True
    if ours <= 0 or fix <= 0:
        return False
    ratio = ours / fix
    return 1 / _RATIO <= ratio <= _RATIO


def _compare_table(ref: ReferenceTable, precision: Precision) -> TableOutcome:
    from .reference_tables import parse_number

    ctx = make_context(precision)
    u = ctx.eps
    problem = builtin_problem(ref.problem)
    result = accelerate(problem, parse_schedule(ref.schedule), ref.depth, ctx)
    S = resolve_known_S(problem.known_S, ctx)
    absS = abs(S) if S is not None else None

    outcome = TableOutcome(ref)
    limited = precision.mantissa_bits < QUAD.mantissa_bits
    for n, R, c3, c4, g, l in ref.rows:
        row = result.rows[n]
        if row.R != R:
            outcome.rows.append(RowOutcome(n, "fail", f"R_{n} = {row.R}, expected {R}"))
            continue
        g_fix, l_fix, c3_fix, c4_fix = (parse_number(x, ctx) for x in (g, l, c3, c4))

        lam_cmp = row.lam / absS if ref.relative else row.lam

        if limited:
            scale = absS if ref.has_S else abs(c4_fix)
            if ref.relative:
                scale = ctx.one
            est = max(g_fix * u, l_fix * u / scale if scale > 0 else ctx.inf)
            if est >= _CUTOFF:
                outcome.rows.append(
                    RowOutcome(n, "precision-limited", f"estimated error {_sci(est)}")
                )
                continue

        problems = []
        floor = _NOISE * l_fix * u
        if not _ratio_ok(row.gamma, g_fix):
            problems.append(f"Gamma {_sci(row.gamma)} vs {g}")
        if not _ratio_ok(lam_cmp, l_fix):
            problems.append(f"Lambda {_sci(lam_cmp)} vs {l}")
        if ref.has_S:
            e3, e4 = row.sample_error, row.true_error
            if ref.relative:
                e3, e4 = e3 / absS, e4 / absS
            floor3 = _NOISE * u * (1 if ref.relative else absS)
            if not _ratio_ok(e3, c3_fix, floor=floor3):
                problems.append(f"partial-sum error {_sci(e3)} vs {c3}")
            if not e4 <= max(_RATIO * c4_fix, floor):
                problems.append(f"error {_sci(e4)} vs {c4}")
        else:
            if not abs(row.sample - c3_fix) <= _DISPLAY_REL * abs(c3_fix):
                problems.append(f"A_R {_sci(row.sample)} vs {c3}")
            if not abs(row.value - c4_fix) <= max(floor, 1e-25 * abs(c4_fix)):
                problems.append(f"value {ctx.nstr(row.value, 20)} vs {c4}")
        if problems:
            outcome.rows.append(RowOutcome(n, "fail", "; ".join(problems)))
        else:
            outcome.rows.append(RowOutcome(n, "pass"))
    return outcome


@dataclass
class ReproduceReport:
    precision: str
    outcomes: list

    @property
    def exit_code(self) -> int:
        if any(o.count("fail") for o in self.outcomes):
            return 1
        if any(o.count("precision-limited") for o in self.outcomes):
            return 2
        return 0

    def text(self) -> str:
        out = [f"# reference-table reproduction at precision={self.precision}"]
        for o in self.outcomes:
            ref = o.reference
            failed = o.count("fail")
            skipped = o.count("precision-limited")
            status = "FAIL" if failed else "pass"
            out.append(
                f"[{status}] {ref.problem:<7} {ref.schedule:<9} rows={len(o.rows)} "
                f"pass={o.count('pass')} fail={failed} precision-limited={skipped}"
            )
            for row in o.rows:
                if row.status == "fail":
                    out.append(f"    row n={row.n}: {row.detail}")
        checked = sum(o.count("pass") + o.count("fail") for o in self.outcomes)
        skipped = sum(o.count("precision-limited") for o in self.outcomes)
        failed = sum(o.count("fail") for o in self.outcomes)
        out.append(
            f"total: {len(self.outcomes)} tables, {checked} rows checked, "
            f"{failed} failed, {skipped} precision-limited"
        )
        return "\n".join(out) + "\n"

    def to_json(self) -> str:
        # a row's fields in their declared order are its keys
        tables = [{"problem": o.reference.problem, "schedule": o.reference.schedule,
                   "rows": [vars(r) for r in o.rows]} for o in self.outcomes]
        doc = {"precision": self.precision, "exit_code": self.exit_code, "tables": tables}
        return json.dumps(doc, indent=2) + "\n"


def reproduce_all(precision: Precision = QUAD, only: Optional[str] = None) -> ReproduceReport:
    """Recompute every reference table and compare row by row."""
    from .reference_tables import REFERENCE_TABLES

    outcomes = []
    for ref in REFERENCE_TABLES:
        if only and ref.problem != only:
            continue
        outcomes.append(_compare_table(ref, precision))
    if not outcomes:
        raise ValueError(f"no reference tables for {only!r}")
    return ReproduceReport(precision=precision.name, outcomes=outcomes)


# ---------------------------------------------------------------------------
# classify subcommand helpers
# ---------------------------------------------------------------------------


def _parse_coefficient(text: str):
    text = text.strip()
    try:
        return Fraction(text)
    except ValueError:
        return complex(text)


def _classify_text(m: int, mu: Fraction, coeffs, zero_tol: float) -> str:
    ratio = RatioExpansion(mu=mu, m=m, c=tuple(coeffs))
    ctx = make_context(QUAD)
    sp = structure_from_ratio(ratio, ctx=ctx, zero_tol=zero_tol)
    verdict = convergence_verdict(sp, zero_tol=zero_tol)
    out = [
        f"mu      = {sp.mu}",
        f"zeta    = {sp.zeta}",
        f"theta   = ({', '.join(str(t) for t in sp.theta)})",
        f"gamma   = {sp.gamma}",
        f"sigma   = {sp.sigma}  (q = {sp.q})",
        f"verdict = {verdict.kind}: {verdict.condition}",
    ]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsum",
        description="Convergence acceleration for series and products whose "
        "terms expand in fractional powers of n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="accelerate one problem and print its table")
    run_p.add_argument("problem", nargs="?", help="builtin problem id (see 'fracsum list')")
    run_p.add_argument("--problem-file", help="JSON problem definition file")
    run_p.add_argument("--schedule", help="aps:KAPPA,ETA | gps:TAU | list:1,2,4,...")
    run_p.add_argument("--depth", type=int, default=32)
    run_p.add_argument("--precision", choices=sorted(PRESETS), default="quad")
    run_p.add_argument("--format", dest="fmt", choices=["text", "csv", "json"], default="text")
    run_p.add_argument("--stride", type=int, default=4, help="print every stride-th row")

    cls_p = sub.add_parser("classify", help="structural parameters from ratio coefficients")
    cls_p.add_argument("--m", type=int, required=True)
    cls_p.add_argument("--mu", default="0", help="exponent s/m of the ratio expansion")
    cls_p.add_argument("--c", required=True, help="comma-separated c_0..c_m (rationals or complex)")
    cls_p.add_argument("--zero-tol", type=float, default=0.0)

    rep_p = sub.add_parser("reproduce", help="recompute and check the reference tables")
    rep_p.add_argument("--only", help="restrict to one problem id")
    rep_p.add_argument("--precision", choices=sorted(PRESETS), default="quad")
    rep_p.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")

    sub.add_parser("list", help="list builtin problem ids")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`): end quietly with the status
        # of a SIGPIPE death, and let the exit-time flush write to /dev/null
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, KeyError, ArithmeticError, OSError) as exc:
        # str() of a KeyError is the repr of its key; print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        sys.stderr.write(f"fracsum: error: {message}\n")
        return 1


def _command(args) -> int:
    """Run the parsed subcommand; its exit status."""
    if args.command == "run":
        # the run options are RunConfig's fields, by name
        config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
        sys.stdout.write(run(config).render(config.fmt))
        return 0
    if args.command == "classify":
        coeffs = [_parse_coefficient(c) for c in args.c.split(",")]
        mu = Fraction(args.mu)
        sys.stdout.write(_classify_text(args.m, mu, coeffs, args.zero_tol))
        return 0
    if args.command == "reproduce":
        report = reproduce_all(PRESETS[args.precision], only=args.only)
        sys.stdout.write(report.to_json() if args.fmt == "json" else report.text())
        return report.exit_code
    if args.command == "list":
        for ident in builtin_ids():
            sys.stdout.write(f"{ident:<8} {builtin_problem(ident).meta['describe']}\n")
        return 0


if __name__ == "__main__":
    sys.exit(main())
