"""The command line's exit-code contract, as a property over mutated inputs.

Small panel and matrix CSVs, one of them a covariance near the float64
limit, are mutated by inserting, deleting and replacing tokens from an
alphabet of the inputs that have broken the contract before: ``nan``,
``1e308``, cells near the float64 limit or far below 1, quotes, CR, NUL, a
byte-order mark, ``1_0``, bytes that are not UTF-8, and the separators. Each text goes through ``cli.main``
in-process as ``analyze`` (both modes), ``analyze --matrix`` and ``repair``,
once with the CSV reader in one part and once with every file cut into two
parts, the second parsed in a forked child. Every run must keep the
documented taxonomy:

- the exit code is 0, 1 or 2, and both reader schedules give the same
  outcome: exit code, stderr and every written byte;
- stderr is one ``error:`` line on a failure and empty on a success, with no
  ``Warning`` and no ``Traceback`` (``filterwarnings = error`` also turns a
  numpy warning into a failure of the test);
- nothing is written on a non-zero exit;
- an exit-0 JSON parses, and each of its numbers is finite: ``cli`` writes
  NaN as ``null`` and infinity as ``"inf"`` or ``"-inf"``.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turnover_spectra import _grid
from turnover_spectra.cli import main

# the texts mutated: a ragged panel (one empty cell), a correlation matrix, a
# covariance matrix and a non-PSD covariance whose repair runs near the float64
# limit, each accepted by the commands of its layout
BASES = {
    "panel": b"a,b,c\n0.5,-1.25,2\n1.5,0.75,\n-0.5,2.25,1\n2.5,-0.25,-1.5\n-1,1,0.5\n0.25,-2,3\n",
    "correlation": b"a,b,c\n1,0.5,0.25\n0.5,1,-0.3\n0.25,-0.3,1\n",
    "covariance": b"a,b\n2.0,0.5\n0.5,3.0\n",
    "near-limit-covariance": b"a,b,c\n9.5e307,6.65e307,6.65e307\n6.65e307,9.5e307,-6.65e307\n"
    b"6.65e307,-6.65e307,9.5e307\n",
}
TOKENS = [
    b"nan", b"1e308", b"-1e308", b'"', b"\r", b"\x00", b"\xef\xbb\xbf", b"1_0",
    b"\xff", b"\xc3", b",", b"\n", b"", b"1", b"-0.0", b"inf",
    b"1.2e308", b"8.4e307", b"-8.4e307", b"1e-300",
]
COMMANDS = {
    "analyze-complete": ["analyze", "--mode", "complete"],
    "analyze-pairwise": ["analyze", "--mode", "pairwise"],
    "analyze-matrix": ["analyze", "--matrix"],
    "repair": ["repair"],
}
# each command's --output; repair writes its JSON beside the CSV
OUTPUTS = {"analyze": "report.json", "repair": "repaired.csv"}


@st.composite
def mutated_csvs(draw):
    """One of the base texts, cut into cells and separators, with a few tokens
    inserted, deleted or replaced."""
    tokens = re.split(b"([,\n])", BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        at = draw(st.integers(0, len(tokens) - 1))
        if op == "insert":
            tokens.insert(at, draw(st.sampled_from(TOKENS)))
        elif op == "delete":
            del tokens[at]
        else:
            tokens[at] = draw(st.sampled_from(TOKENS))
    return b"".join(tokens)


def _run(workdir: Path, argv: list[str], parts: int):
    """Exit code, stderr and every written file's bytes of one command, the
    reader cutting every file into ``parts`` parts; the outputs are then
    removed, so the next run starts from the same directory."""
    out = workdir / "out"
    out.mkdir()
    output = out / OUTPUTS[argv[0]]
    args = [*argv, "--input", str(workdir / "input.csv"), "--output", str(output)]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), \
            mock.patch.object(_grid, "_part_count", lambda data_bytes: parts):
        code = main(args)
    written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    for path in out.iterdir():
        path.unlink()
    out.rmdir()
    return code, stderr.getvalue(), written


def _refuse_constant(name):
    raise AssertionError(f"JSON holds {name}")


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-part schedule forks")
@settings(max_examples=80, deadline=None, derandomize=True)
@given(text=mutated_csvs())
# a quoted header id holding line breaks, which an id-list message once
# printed as it is, over three lines of stderr
@example(text=b'"b,c\n1,0.5,0.25\n"0.5,1,-0.3\n0.25,-0.3,1\n')
# a repair whose passes once overflowed symmetrizing their iterates (a numpy warning)
@example(text=BASES["near-limit-covariance"])
# a spectrum past float64, once written back unchanged as "repaired"
@example(text=b"a,b,c\n1.2e308,8.4e307,8.4e307\n8.4e307,1.2e308,-8.4e307\n8.4e307,-8.4e307,1.2e308\n")
# a floor above the mean diagonal, once refused only after 1000 passes
@example(text=b"a,b\n1e-300,0\n0,1e-300\n")
def test_every_command_keeps_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "input.csv").write_bytes(text)
        for name, argv in COMMANDS.items():
            code, err, written = _run(workdir, argv, parts=1)
            assert _run(workdir, argv, parts=2) == (code, err, written), name
            assert code in (0, 1, 2), name
            assert "Warning" not in err and "Traceback" not in err, name
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
                assert not written, name
                continue
            assert not err, name
            for artifact, body in written.items():
                if artifact.endswith(".json"):
                    report = json.loads(body.decode("utf-8"), parse_constant=_refuse_constant)
                    assert all(math.isfinite(x) for x in _numbers(report)), name
