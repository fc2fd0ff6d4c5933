"""CLI output against a checked-in golden file.

``golden/cli.txt`` holds, for each case below, the command line, its exit
code and everything it wrote to stdout and stderr.  A change that alters
CLI output on purpose rewrites that file and says so; any other change
must leave every byte of it as it is.
"""

import contextlib
import difflib
import io
from pathlib import Path

import pytest

from fracsum.bench_cli import main
from fracsum.series_model import builtin_ids

GOLDEN = Path(__file__).with_name("golden") / "cli.txt"

CASES = [
    ["run", ident, "--depth", "20", "--precision", precision]
    for precision in ("quad", "double")
    for ident in builtin_ids()
] + [
    ["run", "ex5_2", "--depth", "28", "--format", "json"],
    ["run", "ex7_1", "--schedule", "gps:1.3", "--format", "csv"],
    # deep alternating tables: K mirrors M part of the way (ex5_8) or never (ex5_4)
    ["run", "ex5_8", "--depth", "128", "--stride", "1", "--format", "json"],
    ["run", "ex5_8", "--depth", "128", "--stride", "1", "--format", "json", "--precision", "double"],
    ["run", "ex5_4", "--depth", "128", "--stride", "1", "--precision", "double"],
    # with the three cases above, every table the deep-aps benchmark prints is pinned
    ["run", "ex5_2", "--depth", "128", "--stride", "1", "--format", "json"],
    ["run", "ex5_2", "--depth", "128", "--stride", "1", "--format", "json", "--precision", "double"],
    ["run", "ex5_12", "--depth", "128", "--stride", "1", "--format", "json"],
    ["run", "ex5_12", "--depth", "128", "--stride", "1", "--format", "json", "--precision", "double"],
    ["run", "ex5_4", "--depth", "128", "--stride", "1", "--format", "json"],
    ["list"],
]


def cli_transcript() -> str:
    """Each case as '$ fracsum <args>', '[exit <code>]', its stdout, then its stderr."""
    blocks = []
    for args in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        block = f"$ fracsum {' '.join(args)}\n[exit {code}]\n{out.getvalue()}"
        if err.getvalue():
            block += f"[stderr]\n{err.getvalue()}"
        blocks.append(block)
    return "".join(blocks)


def test_cli_output_matches_golden_file():
    expected = GOLDEN.read_text(encoding="utf-8")
    actual = cli_transcript()
    if actual != expected:
        diff = difflib.unified_diff(expected.splitlines(keepends=True),
                                    actual.splitlines(keepends=True),
                                    fromfile=str(GOLDEN), tofile="current output")
        pytest.fail("CLI output differs from the golden file:\n" + "".join(diff), pytrace=False)
