"""CSV ingest: the streaming ``np.loadtxt`` parse against the per-cell reference.

Panels (``load_panel``) and square matrices (``_square_from_csv``) share one
reader, ``panel._read_grid``: one header rule, one streaming pass over the
data rows, and one per-cell reference loop for anything that pass cannot take
exactly. Each layout then applies its own cell rule (a panel refuses a
non-finite value, a matrix an empty cell). These tests hold each layout's
public outcome to the same values, bit for bit, and to the same errors, row
and column included, whichever path read the text; and the two layouts to
the same ids and values on a grid both accept.
"""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnover_spectra import PanelFormatError, TimeSeriesPanel, load_panel, write_panel
from turnover_spectra import conditioning, panel

FLOAT_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
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
    """Ids and bits of the parsed values, or the error's type, message, row and column."""
    try:
        result = parse()
    except Exception as exc:  # the outcome under test is the exception itself
        return ("error", type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None))
    if isinstance(result, TimeSeriesPanel):  # NaN marks exactly the unobserved cells
        result = result.series_ids, result.values
    ids, values = result
    return ("ok", ids, values.shape, np.ascontiguousarray(values).view(np.int64).tobytes())


def _paths_agree(read, text):
    """``read``'s outcome on ``text`` is the same with the fast pass as with
    the per-cell reference alone."""
    fast = _outcome(lambda: read(io.StringIO(text)))
    with mock.patch.object(panel, "_fast_grid", lambda lines: None):
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
    header, values, empty = panel._fast_grid(iter(io.StringIO(text)))
    assert header == ("a", "b", "c")
    expected = np.array([[1.5, np.nan, -2.0], [np.nan, 0.25, 3e-5], [-0.0, 7.0, np.nan]])
    np.testing.assert_array_equal(values, expected)
    np.testing.assert_array_equal(empty, np.isnan(expected))
    assert np.signbit(values[2, 0])
    ids, entries, empty = panel._fast_grid(iter(io.StringIO("x,y\n1.0,0.4\n0.4,1.0\n")))
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
    assert panel._fast_grid(iter(io.StringIO(text))) is None
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
    return TimeSeriesPanel(tuple(f"s{i}" for i in range(n)), values, mask)


@settings(max_examples=150, deadline=None)
@given(original=masked_panels())
def test_write_load_round_trip_is_bit_exact(original):
    buffer = io.StringIO()
    write_panel(original, buffer)
    loaded = load_panel(io.StringIO(buffer.getvalue()))
    assert loaded.series_ids == original.series_ids
    np.testing.assert_array_equal(loaded.observed_mask, original.observed_mask)
    assert loaded.values.tobytes() == original.values.tobytes()  # NaN where unobserved


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


def test_seekable_handle_falls_back_from_its_starting_position():
    handle = io.StringIO("ignored line\n" + "a,b\n1,2\n3,nan\n")
    handle.readline()
    with pytest.raises(PanelFormatError) as excinfo:
        load_panel(handle)
    assert str(excinfo.value) == "non-finite cell 'nan' (row 2, column 'b')"
