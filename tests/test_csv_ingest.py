"""CSV ingest: the streaming ``np.loadtxt`` parse against the per-cell reference.

Both CSV layouts, panels (``load_panel``) and square matrices
(``_square_from_csv``), parse their data rows in one streaming pass and fall
back to a per-cell loop on anything that pass cannot take exactly. These
tests hold the two paths to the same values, bit for bit, and to the same
errors, row and column included.
"""

import csv
import io

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
    """Header of ids, then rows of adversarial cells, with CRLF or CR endings,
    blank and whitespace-only lines, and the odd ragged row."""
    n_cols = draw(st.integers(1, 4))
    n_rows = n_cols if square and draw(st.integers(0, 4)) else draw(st.integers(0, 6))
    cells = PLAIN_CELLS if draw(st.booleans()) else st.one_of(FLOAT_CELLS, ODD_CELLS)
    lines = [",".join(f"s{i}" for i in range(n_cols))]
    for _ in range(n_rows):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
        width = draw(st.sampled_from([n_cols] * 8 + [n_cols - 1, n_cols + 1]))
        lines.append(",".join(draw(cells) for _ in range(width)))
    ending = draw(st.sampled_from(["\n", "\r\n"])) if draw(st.integers(0, 3)) else draw(LINE_ENDINGS)
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def _outcome(parse):
    """Bits of the parsed values, or the error's type, message, row and column."""
    try:
        ids, values = parse()
    except Exception as exc:  # the outcome under test is the exception itself
        return ("error", type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None))
    return ("ok", ids, values.shape, np.ascontiguousarray(values).view(np.int64).tobytes())


def _reference_rows(text):
    return panel._csv_rows(io.StringIO(text))


def _panel_outcomes_agree(text):
    fast = _outcome(lambda: panel._read_csv(io.StringIO(text), panel._fast_panel, panel._panel_from_rows))
    return fast == _outcome(lambda: panel._panel_from_rows(_reference_rows(text)))


@settings(max_examples=400, deadline=None)
@given(text=csv_texts())
def test_panel_fast_parse_matches_per_cell_reference(text):
    assert _panel_outcomes_agree(text)


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(square=True))
def test_square_fast_parse_matches_per_cell_reference(text):
    fast = _outcome(lambda: conditioning._square_from_csv(io.StringIO(text)))
    reference = _outcome(lambda: conditioning._square_from_rows(_reference_rows(text)))
    assert fast == reference


def test_fast_pass_takes_well_formed_grids():
    text = "a,b,c\n1.5,,-2\r\n,0.25,3e-5\n\n-0.0,7,\n"
    header, values = panel._fast_panel(iter(io.StringIO(text)))
    assert header == ("a", "b", "c")
    expected = np.array([[1.5, np.nan, -2.0], [np.nan, 0.25, 3e-5], [-0.0, 7.0, np.nan]])
    np.testing.assert_array_equal(values, expected)
    assert np.signbit(values[2, 0])
    ids, entries = conditioning._fast_square(iter(io.StringIO("x,y\n1.0,0.4\n0.4,1.0\n")))
    assert ids == ("x", "y")
    np.testing.assert_array_equal(entries, [[1.0, 0.4], [0.4, 1.0]])


@pytest.mark.parametrize(
    "text",
    [
        "a,b\n1,nan\n2,3\n",
        "a,b\n1,2\n3\n",
        "a,b\n1,\" \"\n2,3\n",
        "a,b\n1, \n2,3\n",
        "a,b\n1,1_0\n2,3\n",
        "a,b\n1,0." + "0" * csv.field_size_limit() + "1\n2,3\n",
    ],
    ids=["nan-text", "ragged", "quoted", "whitespace-cell", "digit-separator", "oversized-field"],
)
def test_fast_pass_declines_what_only_the_reference_may_decide(text):
    assert panel._fast_panel(iter(io.StringIO(text))) is None
    assert _panel_outcomes_agree(text)


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
