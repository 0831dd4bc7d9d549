"""CSV ingest: the ``np.loadtxt`` fast pass against the per-cell reference.

Panels (``load_panel``) and square matrices (``_square_from_csv``) share one
reader, ``_grid.read_grid``, whose docstring states when it reads a text in
parts, forked children included, and when its per-cell reference decides.
Each layout then applies its own cell rule (a panel refuses a non-finite
value, a matrix an empty cell).

These tests hold each layout's public outcome to the same values, bit for
bit, and to the same errors, row and column included, whichever path read
the text; a file read in any number of parts to the reference's outcome, a
defect in a child's part alone included; the two layouts to the same ids and
values on a grid both accept; and the forked parts to leaving no child process
and no open descriptor behind.
"""

import csv
import io
import os
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnover_spectra import PanelFormatError, TimeSeriesPanel, load_panel, write_panel
from turnover_spectra import _grid, conditioning

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# finite cells, with signed zeros, subnormals and 17 significant digits drawn
# often enough to show in all-plain grids: a parse that loses a bit of them
# (the sign of -0.0, say) must fail the fast-vs-reference properties
FLOAT_CELLS = st.one_of(
    FINITE.map(repr),
    st.sampled_from(["-0.0", "0.0", "-0", "0e0", "-0e-5"]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308).map(repr),
    FINITE.map("{:.16e}".format),
)
# cells the fast pass takes as they are
PLAIN_CELLS = st.one_of(FLOAT_CELLS, st.just(""))
# cells it must leave to the reference: whitespace-only (missing in a panel),
# quoted, non-finite text, digit separators, signs, comment characters, and
# padded numbers
ODD_CELLS = st.sampled_from(
    ["", " ", " \t", '"1.5"', '""', "nan", "NaN", "inf", "-inf", "1e999", "1_0", "+1",
     "#", "# 1", " 2.5 ", "-0.0", "0x10", "1,5"]
)
LINE_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw, square=False):
    """Header of ids (now and then a bad one), then rows of adversarial cells,
    with CRLF or CR endings, blank and whitespace-only lines, and the odd
    ragged row."""
    n_cols = draw(st.integers(1, 4))
    n_rows = n_cols if square and draw(st.integers(0, 4)) else draw(st.integers(0, 6))
    cells = PLAIN_CELLS if draw(st.booleans()) else st.one_of(FLOAT_CELLS, ODD_CELLS)
    ids = [f"s{i}" for i in range(n_cols)]
    if draw(st.integers(0, 9)) == 0:  # a blank or repeated id
        ids[draw(st.integers(0, n_cols - 1))] = draw(st.sampled_from(["", " ", "s0"]))
    lines = [",".join(ids)] if draw(st.integers(0, 19)) else ["", ",".join(ids)]  # blank first line
    for _ in range(n_rows):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
        width = draw(st.sampled_from([n_cols] * 8 + [n_cols - 1, n_cols + 1]))
        lines.append(",".join(draw(cells) for _ in range(width)))
    ending = draw(st.sampled_from(["\n", "\r\n"])) if draw(st.integers(0, 3)) else draw(LINE_ENDINGS)
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def _outcome(parse):
    """Ids and bits of the parsed values (and of the empty-cell mask, where the
    parse returns one), or the error's type, message, row and column."""
    try:
        result = parse()
    except Exception as exc:  # the outcome under test is the exception itself
        return ("error", type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None))
    if isinstance(result, TimeSeriesPanel):  # NaN marks exactly the unobserved cells
        result = result.series_ids, result.values
    ids, values, *empty = result
    bits = np.ascontiguousarray(values).view(np.int64).tobytes()
    return ("ok", ids, values.shape, bits, [mask.tobytes() for mask in empty])


def _paths_agree(read, text):
    """``read``'s outcome on ``text`` is the same with the fast pass as with
    the per-cell reference alone."""
    fast = _outcome(lambda: read(io.StringIO(text)))
    with mock.patch.object(_grid, "_fast_grid", lambda lines: None):
        reference = _outcome(lambda: read(io.StringIO(text)))
    return fast == reference


@settings(max_examples=400, deadline=None)
@given(text=csv_texts())
def test_panel_fast_parse_matches_per_cell_reference(text):
    assert _paths_agree(load_panel, text)


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(square=True))
def test_square_fast_parse_matches_per_cell_reference(text):
    assert _paths_agree(conditioning._square_from_csv, text)


def test_fast_pass_takes_well_formed_grids():
    text = "a,b,c\n1.5,,-2\r\n,0.25,3e-5\n\n-0.0,7,\n"
    header, values, empty = _grid._fast_grid(iter(io.StringIO(text)))
    assert header == ("a", "b", "c")
    expected = np.array([[1.5, np.nan, -2.0], [np.nan, 0.25, 3e-5], [-0.0, 7.0, np.nan]])
    np.testing.assert_array_equal(values, expected)
    np.testing.assert_array_equal(empty, np.isnan(expected))
    assert np.signbit(values[2, 0])
    ids, entries, empty = _grid._fast_grid(iter(io.StringIO("x,y\n1.0,0.4\n0.4,1.0\n")))
    assert ids == ("x", "y")
    np.testing.assert_array_equal(entries, [[1.0, 0.4], [0.4, 1.0]])
    assert not empty.any()


@pytest.mark.parametrize(
    "text",
    [
        "a,b\n1,nan\n2,3\n",
        "a,b\n1,2\n3\n",
        "a,b\n1,\" \"\n2,3\n",
        "a,b\n1, \n2,3\n",
        "a,b\n1,1_0\n2,3\n",
        "a,b\n1,0." + "0" * csv.field_size_limit() + "1\n2,3\n",
        "a,a\n1,2\n3,4\n",
        "a,\n1,2\n3,4\n",
        "\na,b\n1,2\n3,4\n",
    ],
    ids=["nan-text", "ragged", "quoted", "whitespace-cell", "digit-separator", "oversized-field",
         "duplicate-id", "blank-id", "blank-first-line"],
)
def test_fast_pass_declines_what_only_the_reference_may_decide(text):
    assert _grid._fast_grid(iter(io.StringIO(text))) is None
    assert _paths_agree(load_panel, text)
    assert _paths_agree(conditioning._square_from_csv, text)


@pytest.mark.parametrize(
    "cell, quoted", [("NaN", "nan"), ("1e999", "inf"), ("-inf", "-inf")]
)
def test_non_finite_panel_cell_is_quoted_as_parsed(cell, quoted):
    with pytest.raises(PanelFormatError) as excinfo:
        load_panel(io.StringIO(f"a,b\n1,2\n3,{cell}\n"))
    assert str(excinfo.value) == f"non-finite cell '{quoted}' (row 2, column 'b')"


# entries whose text keeps their bits through both layouts: no empty cell, and
# each value already what a correlation matrix stores
UNIT_ENTRIES = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def correlation_texts(draw):
    """A symmetric grid with a unit diagonal, written with the odd quoted or
    padded cell, CRLF endings and blank lines."""
    n = draw(st.integers(2, 5))
    grid = np.eye(n)
    for i in range(n):
        for j in range(i):
            grid[i, j] = grid[j, i] = draw(UNIT_ENTRIES)
    spell = st.sampled_from(["{}", '"{}"', " {} "])
    rows = [",".join(draw(spell).format(repr(x)) for x in row) for row in grid.tolist()]
    lines = [",".join(f"s{i}" for i in range(n))]
    for row in rows:
        lines.extend([""] * draw(st.integers(0, 1)) + [row])
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def _reference_grid(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return _grid._grid_from_rows(_grid._csv_rows(handle))


# cells for the parts property beyond the floats: non-ASCII digits that
# ``float`` takes and ``loadtxt`` does not, a non-ASCII word, a Unicode minus
UNICODE_CELLS = st.sampled_from(["\uff11.5", "\u0663", "\u00e9t\u00e9", "\u22121", "\u00a02"])


@st.composite
def part_texts(draw):
    """Small panels whose parts, cut at any line, start or end at the edge
    cases: blank lines, CRLF or CR-only endings, non-ASCII ids and cells,
    empty cells at line starts and ends, and now and then a malformed row
    that only the last part holds."""
    n_cols = draw(st.integers(1, 4))
    prefixes = st.sampled_from(["s", "\u00e9", "\u03b1", "\u6570"])
    lines = [",".join(draw(prefixes) + str(i) for i in range(n_cols))]
    cells = [FLOAT_CELLS, st.just("")]
    if draw(st.integers(0, 3)) == 0:
        cells.append(UNICODE_CELLS)
    for _ in range(draw(st.integers(1, 10))):
        lines.extend([""] * draw(st.integers(0, 2)))
        lines.append(",".join(draw(st.one_of(cells)) for _ in range(n_cols)))
    if draw(st.integers(0, 3)) == 0:  # malformed: ragged, non-numeric, a bare CR
        lines.append(draw(st.sampled_from([",".join(["1"] * (n_cols + 1)), "oops", "1,2\r3"])))
    ending = draw(LINE_ENDINGS)
    return ending.join(lines) + draw(st.sampled_from(["", ending, ending * 2]))


def _in_parts(parts):
    """Within this context every file is cut into ``parts`` parts, whatever its size."""
    return mock.patch.object(_grid, "_part_count", lambda data_bytes: parts)


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(csv_texts(), part_texts()))
def test_file_read_in_parts_matches_per_cell_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "parts.csv"
    path.write_bytes(text.encode("utf-8"))
    reference = _outcome(lambda: _reference_grid(path))
    for parts in (1, 2, 3, 4):
        with _in_parts(parts):
            assert _outcome(lambda: _grid.read_grid(path)) == reference, parts


MIN_PART = _grid._MIN_PART_BYTES


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked parts need os.fork")
@pytest.mark.parametrize(
    "cpus, data_bytes, parts",
    [
        (1, 2 * MIN_PART - 1, 1), (1, 2 * MIN_PART, 1), (1, 5 * MIN_PART, 1),
        (2, 2 * MIN_PART - 1, 1), (2, 2 * MIN_PART, 2), (2, 5 * MIN_PART, 2),
        (8, 5 * MIN_PART, 5),
    ],
)
def test_part_count_is_one_per_usable_cpu_while_each_part_keeps_the_minimum(
    monkeypatch, cpus, data_bytes, parts
):
    # every test file is far below the minimum, so no other test reaches this rule
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert _grid._part_count(data_bytes) == parts


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_part_count_is_one_where_the_platform_cannot_fork_or_tell_its_cpus(monkeypatch, missing):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, missing, raising=False)
    assert _grid._part_count(5 * MIN_PART) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked parts need os.fork")
@pytest.mark.parametrize(
    "last", ["7.5,8.5,nan", "7.5,8.5,inf", "7.5,8.5"], ids=["nan-text", "inf-text", "short-row"]
)
def test_defect_in_the_last_part_alone_sends_the_file_to_the_reference(tmp_path, last):
    # each check a part makes on itself (a non-finite count equal to its empty
    # cells, one column per id) must decline the whole file from a child's part
    path = tmp_path / "panel.csv"
    path.write_text(f"a,b,c\n1.5,2.5,3.5\n4.5,5.5,6.5\n{last}\n", encoding="utf-8")
    data = path.read_bytes()
    with open(path, "rb") as handle:
        bounds = _grid._bounds(handle, data.index(b"\n") + 1, len(data), 3)
    assert len(bounds) == 4 and data[bounds[2]:] == f"{last}\n".encode()
    for read in (load_panel, conditioning._square_from_csv):
        with _in_parts(3):
            fast = _outcome(lambda: read(path))
        with mock.patch.object(_grid, "_fast_file", lambda path: None):
            assert fast == _outcome(lambda: read(path)), read


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


_SEND = _grid._send


def _send_then_fail(pipe, grid):
    _SEND(pipe, grid)
    raise OSError("the child fails after sending its whole part")


def _send_short(pipe, grid):
    whole = io.BytesIO()
    _SEND(whole, grid)
    pipe.write(whole.getvalue()[: len(whole.getvalue()) // 2])
    raise OSError("the child dies halfway through its part")


@pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
    reason="forked parts need os.fork; the descriptor count needs /proc",
)
@pytest.mark.parametrize("case", ["read", "decline", "child-fails", "child-sends-short"])
def test_forked_parts_leave_no_child_and_no_open_descriptor(tmp_path, case):
    path = tmp_path / "panel.csv"
    text = "a,b\n" + "".join(f"{i},{i / 7!r}\n" for i in range(300))
    path.write_text(text + ("1,oops\n" if case == "decline" else ""), encoding="utf-8")
    send = {"child-fails": _send_then_fail, "child-sends-short": _send_short}.get(case, _SEND)
    before = _open_fds()
    with mock.patch.object(_grid, "_grid_from_rows", wraps=_grid._grid_from_rows) as reference, \
            mock.patch.object(_grid, "_send", send), _in_parts(3):
        outcome = _outcome(lambda: _grid.read_grid(path))
    assert reference.called == (case != "read")  # every part taken, or the reference decided
    assert outcome == _outcome(lambda: _reference_grid(path))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked parts need os.fork")
def test_file_replaced_while_read_in_parts_reads_as_the_new_file(tmp_path):
    path, replacement = tmp_path / "panel.csv", tmp_path / "new.csv"
    # equal line lengths, so the old cuts fall on line starts of the new file
    path.write_text("a,b\n" + "".join(f"{i:04d},1.0\n" for i in range(300)), encoding="utf-8")
    replacement.write_text("a,b\n" + "".join(f"{i:04d},2.0\n" for i in range(300)), encoding="utf-8")
    bounds = _grid._bounds

    def bounds_then_replace(*args):
        cuts = bounds(*args)
        os.replace(replacement, path)  # after the header was read, before the forks
        return cuts

    with mock.patch.object(_grid, "_bounds", bounds_then_replace), _in_parts(3):
        outcome = _outcome(lambda: _grid.read_grid(path))
    assert outcome == _outcome(lambda: _reference_grid(path))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked parts need os.fork")
def test_fork_warning_of_a_threaded_process_is_not_raised(tmp_path, monkeypatch):
    # From Python 3.12 os.fork warns, as below, once numpy's BLAS threads run;
    # the reader forks on purpose and silences exactly that warning.
    fork = os.fork

    def warning_fork():
        warnings.warn(
            f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
            "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2,
        )
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    path = tmp_path / "panel.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n", encoding="utf-8")
    with _in_parts(3):
        ids, values, empty = _grid.read_grid(path)
    assert ids == ("a", "b")
    np.testing.assert_array_equal(values, [[1, 2], [3, 4], [5, 6]])
    assert not empty.any()


@settings(max_examples=150, deadline=None)
@given(text=correlation_texts())
def test_panel_and_matrix_layouts_read_the_same_grid(text):
    loaded = load_panel(io.StringIO(text))
    matrix = conditioning.correlation_from_csv(io.StringIO(text))
    assert loaded.series_ids == matrix.ids
    assert loaded.values.T.tobytes() == matrix.entries.tobytes()


@st.composite
def masked_panels(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2, 12))
    values = np.array(
        draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n * m, max_size=n * m))
    ).reshape(n, m)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))).reshape(n, m)
    mask[:, :2] = True  # every series keeps two observations
    return TimeSeriesPanel(tuple(f"s{i}" for i in range(n)), np.where(mask, values, np.nan))


@settings(max_examples=150, deadline=None)
@given(original=masked_panels())
def test_write_load_round_trip_is_bit_exact(original):
    buffer = io.StringIO()
    write_panel(original, buffer)
    loaded = load_panel(io.StringIO(buffer.getvalue()))
    assert loaded == original
    assert loaded.values.tobytes() == original.values.tobytes()  # NaN where unobserved



_CELLS = st.one_of(
    st.none(), st.floats(), st.integers(), st.booleans(),
    st.text(alphabet=st.sampled_from(list('a,"\r\n \t0')), max_size=4),
)


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(st.lists(_CELLS, max_size=4), max_size=5))
def test_writer_joins_what_the_csv_writer_writes(rows):
    """Rows joined by commas read as the ``csv`` writer's own text: a row of
    one empty cell and a string the writer quotes included."""
    joined, reference = io.StringIO(), io.StringIO()
    _grid.write_csv(joined, ["id"], rows)
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(["id"])
    writer.writerows(rows)
    assert joined.getvalue() == reference.getvalue()


class _Unseekable(io.TextIOBase):
    """A text stream that can only be read forward, like a pipe."""

    def __init__(self, text):
        self._lines = iter(io.StringIO(text))

    def readable(self):
        return True

    def __next__(self):
        return next(self._lines)


GOOD_PANEL = "a,b\n1.5,\n-2,0.25\n,3\n4,5\n"
BAD_PANEL = "a,b\n1.5,\n-2,oops\n"


def test_unseekable_handle_is_read_once_and_falls_back():
    loaded = load_panel(_Unseekable(GOOD_PANEL))
    expected = load_panel(io.StringIO(GOOD_PANEL))
    assert loaded.values.tobytes() == expected.values.tobytes()
    np.testing.assert_array_equal(loaded.observed_mask, expected.observed_mask)
    with pytest.raises(PanelFormatError) as excinfo:
        load_panel(_Unseekable(BAD_PANEL))
    assert (excinfo.value.row, excinfo.value.column) == (2, "b")
    assert str(excinfo.value) == "non-numeric cell 'oops' (row 2, column 'b')"


def test_file_handle_advanced_with_next_parses_from_its_position(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("# exported panel\n" + BAD_PANEL, encoding="utf-8")
    with open(path, encoding="utf-8", newline="") as handle:
        next(handle)  # such a handle can no longer tell its position
        with pytest.raises(PanelFormatError) as excinfo:
            load_panel(handle)
    assert (excinfo.value.row, excinfo.value.column) == (2, "b")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_path_to_a_pipe_streams_as_one_part(tmp_path):
    fifo = tmp_path / "panel.fifo"
    os.mkfifo(fifo)

    def feed(text):
        with open(fifo, "w", encoding="utf-8") as pipe:
            pipe.write(text)

    for text in (GOOD_PANEL, BAD_PANEL):
        writer = threading.Thread(target=feed, args=(text,))
        writer.start()
        with mock.patch.object(_grid, "_fast_file") as fast_file:
            outcome = _outcome(lambda: load_panel(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert not fast_file.called
        assert outcome == _outcome(lambda: load_panel(io.StringIO(text)))


def test_seekable_handle_falls_back_from_its_starting_position():
    handle = io.StringIO("ignored line\n" + "a,b\n1,2\n3,nan\n")
    handle.readline()
    with pytest.raises(PanelFormatError) as excinfo:
        load_panel(handle)
    assert str(excinfo.value) == "non-finite cell 'nan' (row 2, column 'b')"


# A UTF-8 byte-order mark, with which spreadsheet programs begin a "CSV UTF-8"
# file. Each text below reads the same with the mark as without it; the
# quoted cell in the reference cases makes the fast pass decline.
BOM = "\ufeff"
MARKED_TEXTS = {
    "panel": (load_panel, GOOD_PANEL),
    "panel-reference": (load_panel, 'a,b\n1.5,\n-2,"0.25"\n,3\n4,5\n'),
    "matrix": (conditioning._square_from_csv, "a,b\n1.0,0.5\n0.5,1.0\n"),
    "matrix-reference": (conditioning._square_from_csv, 'a,b\n1.0,"0.5"\n0.5,1.0\n'),
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked parts need os.fork")
@pytest.mark.parametrize("case", sorted(MARKED_TEXTS))
def test_byte_order_mark_is_not_read_into_the_first_id(tmp_path, case):
    read, text = MARKED_TEXTS[case]
    plain = _outcome(lambda: read(io.StringIO(text)))
    assert plain[:2] == ("ok", ("a", "b"))
    path = tmp_path / "marked.csv"
    path.write_bytes((BOM + text).encode("utf-8"))
    for parts in (1, 2):  # two parts: the second is parsed in a forked child
        with _in_parts(parts):
            assert _outcome(lambda: read(path)) == plain, parts
    with open(path, encoding="utf-8", newline="") as handle:
        assert _outcome(lambda: read(handle)) == plain
    assert _outcome(lambda: read(io.StringIO(BOM + text))) == plain
    assert _outcome(lambda: read(_Unseekable(BOM + text))) == plain

