"""Alpha-panel ingestion: CSV loading, sample moments under explicit
missing-data policies, and factor residualization."""

from __future__ import annotations

import csv
import itertools
import os
import signal
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, BinaryIO, Iterable, Iterator

import numpy as np

from .errors import (
    CollinearFactorsError,
    CoverageError,
    DegenerateSeriesError,
    InvalidMatrixError,
    PanelFormatError,
    RejectedSeriesError,
)

COMPLETE_CASES = "complete-cases"
PAIRWISE_COMPLETE = "pairwise-complete"
#: Mode tag for matrices deserialized from disk, where the estimator is unknown.
EXTERNAL = "external"

ESTIMATION_MODES = (COMPLETE_CASES, PAIRWISE_COMPLETE)
_KNOWN_MODES = ESTIMATION_MODES + (EXTERNAL,)
PSD_STATUSES = ("verified-PD", "verified-not-PSD", "unverified")
#: How far a correlation matrix's diagonal may sit from 1, and its entries
#: outside [-1, 1], before the wrapper refuses it.
UNIT_DIAGONAL_TOL = 1e-12

# A sample is treated as constant when its standard deviation falls below
# this tolerance relative to the magnitude of its mean.
_CONSTANT_REL_TOL = 1e-13

# Data bytes a CSV file must have per part before it is cut into parts parsed
# at once (see ``_read_grid``). Measured on a 2-vCPU VM (Python 3.11, numpy
# 2.4.6): one core parses about 40 MB/s of panel text. A forked part costs
# about 2 ms of wall time to fork and reap plus 1.5 ms per MB of float64 sent
# back, but about 30 ms of CPU over an ``analyze`` command: 3-5 MB panels cut
# in two parts took 10-20 ms more CPU to read, and the command about 5,800
# more page faults (copy-on-write after the fork, and numpy's BLAS thread
# pool, which fork shuts down and the next matrix product starts again).
# An 8 MiB part parses for about 0.2 s, some seven times that cost.
_MIN_PART_BYTES = 8 << 20


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _value_eq(self, other) -> bool:
    """Value equality for the array-holding types: ``np.array_equal`` on array
    fields (NaN equal to NaN), ``==`` on the others, and fields declared with
    ``compare=False`` (the memo slots) skipped."""
    if type(other) is not type(self):
        return NotImplemented
    for f in fields(self):
        if not f.compare:
            continue
        mine, theirs = getattr(self, f.name), getattr(other, f.name)
        if isinstance(mine, np.ndarray):
            if not np.array_equal(mine, theirs, equal_nan=True):
                return False
        elif mine != theirs:
            return False
    return True


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """N return series over M+1 timestamps.

    ``values[i, s]`` holds series ``i`` at timestamp ``t_s`` where ``s = 0``
    is the most recent period; unobserved cells are NaN and flagged False in
    ``observed_mask``. Every series must carry at least two observations.
    """

    series_ids: tuple[str, ...]
    values: np.ndarray
    observed_mask: np.ndarray
    time_order: str = "t0-first"

    __eq__ = _value_eq
    __hash__ = None  # equal by value, and the arrays are not hashable

    def __post_init__(self) -> None:
        ids = tuple(str(s) for s in self.series_ids)
        values = np.array(self.values, dtype=float)
        mask = np.array(self.observed_mask, dtype=bool)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array (series x timestamps)")
        if mask.shape != values.shape:
            raise ValueError("observed_mask shape must match values")
        if len(ids) != values.shape[0]:
            raise ValueError("series_ids length must match the number of series")
        if values.shape[0] < 1:
            raise ValueError("panel needs at least one series")
        if (mask & ~np.isfinite(values)).any():
            raise ValueError("observed values must be finite")
        short = mask.sum(axis=1) < 2
        if short.any():
            raise RejectedSeriesError(ids[i] for i in np.flatnonzero(short))
        values[~mask] = np.nan  # ``values`` is this panel's own copy
        object.__setattr__(self, "series_ids", ids)
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "observed_mask", _readonly(mask))

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_periods(self) -> int:
        return self.values.shape[1]


# a CSV grid's ids, values and empty-cell mask
_Grid = tuple[tuple[str, ...], np.ndarray, np.ndarray]


def _rewind_point(handle: IO[str]) -> int | None:
    try:
        return handle.tell() if handle.seekable() else None
    except (AttributeError, OSError):  # a list of lines, or a file iterated with next()
        return None


def _read_grid(source: str | Path | IO[str]) -> _Grid:
    """The package's one CSV reader, for panels and square matrices alike.

    Both layouts are a header row of ids and then rows of numbers. Returns the
    ids, the values (NaN at empty cells) and the mask of empty cells; what a
    cell may hold beyond that is each layout's own rule, applied by its
    caller.

    The reader's parts-and-decline rule, stated here once: the data rows are
    read by a fast pass in parts, each parsed by :func:`_parse_part`, which
    takes its rows whole or declines. A path to a regular file is cut into
    one byte-range part per usable CPU while each part keeps at least
    ``_MIN_PART_BYTES`` of data rows (:func:`_part_count`), and every part
    but the first is parsed in a short-lived forked child (:func:`_fast_file`);
    a smaller file, or any file on a platform without ``os.fork`` and
    ``os.sched_getaffinity``, is one part with no child. An open handle, or
    a path that is not a regular file (a pipe, say), streams its lines
    through the same parse as one part (:func:`_fast_grid`). When any part
    declines, or a child dies or sends its part short, the whole text goes to
    the per-cell reference :func:`_grid_from_rows`: a seekable handle is
    rewound to where the fast pass started, and one that cannot seek is first
    read once into a list of lines. The reference is the only one that
    raises on malformed input, except for a line the ``csv`` reader itself
    rejects (a field over its size limit), which raises ``PanelFormatError``
    with the reader's line number.
    """
    if isinstance(source, (str, Path)):
        if not os.path.isfile(source):
            with open(source, "r", encoding="utf-8", newline="") as handle:
                return _read_grid(handle)
        result = _fast_file(source)
        if result is not None:
            return result
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return _grid_from_rows(_csv_rows(handle))
    start = _rewind_point(source)
    lines = source if start is not None else list(source)
    result = _fast_grid(iter(lines))
    if result is not None:
        return result
    if start is not None:
        source.seek(start)
    return _grid_from_rows(_csv_rows(lines))


def _write_csv(dest: str | Path | IO[str], header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write ``header`` and then ``rows`` as CSV with ``\n`` line ends, to a
    path (created as UTF-8) or to an open text handle."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as handle:
            return _write_csv(handle, header, rows)
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _csv_rows(lines: Iterable[str]) -> list[list[str]]:
    """Every ``csv`` row of the lines; a line the reader rejects (a field over
    its size limit, say) is a ``PanelFormatError`` naming the line."""
    reader = csv.reader(lines)
    try:
        return list(reader)
    except csv.Error as exc:
        raise PanelFormatError(f"{exc} at line {reader.line_num}") from None


def _header(row: list[str]) -> tuple[str, ...]:
    """The ids of a header row: each one non-blank after stripping, none repeated."""
    header = tuple(cell.strip() for cell in row)
    if not header or any(not name for name in header):
        raise PanelFormatError("header must name every series", row=0)
    if len(set(header)) != len(header):
        raise PanelFormatError("duplicate series ids in header", row=0)
    return header


def _fast_grid(lines: Iterator[str]) -> _Grid | None:
    """The fast pass over a stream of lines: the header with ``csv``, then the
    data lines as one part (:func:`_parse_part`). None when the reference
    has to decide: on a header it would refuse, and wherever
    :func:`_parse_part` or :func:`_joined` declines."""
    try:
        header = _header(next(csv.reader(lines)))
        return _joined(header, [_parse_part(lines, len(header))])
    except (StopIteration, csv.Error, PanelFormatError, ValueError):
        return None


def _fast_file(path: str | Path) -> _Grid | None:
    """The fast pass over a regular file, its data rows cut into byte-range
    parts as :func:`_read_grid` describes; None when the reference has to
    decide.

    The header is read with ``csv`` from the file's first lines. Each range
    ends just after a ``\\n``, so that no line and no UTF-8 character is
    split. The parts are joined in file order by :func:`_joined`. Every child
    is reaped and every pipe closed before this returns, so the children's
    CPU time and memory are charged to this process (as ``os.wait4`` on it
    reports them).
    """
    with open(path, "rb") as handle:
        stat = os.fstat(handle.fileno())
        end = stat.st_size
        try:
            header = _header(next(csv.reader(_decoded(handle, end))))
        except (StopIteration, csv.Error, PanelFormatError, ValueError):
            return None
        width = len(header)
        start = handle.tell()
        bounds = _bounds(handle, start, end, _part_count(end - start))
        children: list[tuple[int, BinaryIO]] = []
        grids = None
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                children.append(_fork_part(path, stat, lo, hi, width))
            handle.seek(start)
            first = _parse_part(_decoded(handle, bounds[1]), width)
            grids = [first, *(_received(pipe) for _, pipe in children)]
        except (ValueError, OSError):
            pass  # a part declined, a child sent short, or a fork failed: decline
        finally:
            if not _reap(children, kill=grids is None):
                grids = None
    return None if grids is None else _joined(header, grids)


def _part_count(data_bytes: int) -> int:
    """One part per usable CPU, as long as each keeps ``_MIN_PART_BYTES``; one
    part where the platform cannot fork or tell the CPUs it may use."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), data_bytes // _MIN_PART_BYTES))


def _bounds(handle: BinaryIO, start: int, end: int, parts: int) -> list[int]:
    """``start``, the cuts and ``end``: each cut is the first line start at or
    after the end of an equal share of ``[start, end)``; equal cuts merge."""
    cuts = set()
    for i in range(1, parts):
        offset = start + (end - start) * i // parts - 1
        handle.seek(offset)
        cuts.add(offset + len(handle.readline()))
    return [start, *sorted(cut for cut in cuts if start < cut < end), end]


def _decoded(handle: BinaryIO, stop: int) -> Iterator[str]:
    """The lines of a binary file from its position up to byte ``stop``, a line
    start, each decoded as UTF-8 (``UnicodeDecodeError`` is a ``ValueError``)."""
    position = handle.tell()
    while position < stop:
        line = handle.readline()
        if not line:
            return
        position += len(line)
        yield line.decode("utf-8")


def _fork_part(
    path: str | Path, stat: os.stat_result, lo: int, hi: int, width: int
) -> tuple[int, BinaryIO]:
    """Fork a child that parses bytes ``[lo, hi)`` of the file as a part of
    ``width`` columns and sends it through a pipe; return its pid and the
    pipe's read end.

    The child opens the file anew, so that its reads move no offset of the
    caller's, and declines unless it opened the file ``stat`` describes: a
    file replaced at ``path`` in the meantime is not mixed into the grid.
    It only reads, parses and writes its pipe, and it always leaves
    through ``os._exit``: it never returns into the caller, runs no atexit
    handler and flushes no buffer it inherited. It exits 0 only once the
    whole part is sent; a part that declines is sent as nothing.
    """
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # From Python 3.12, fork warns in a process with threads, which
            # numpy's BLAS pool starts at import. The child calls no BLAS and
            # waits on no lock those threads hold: it parses text and exits.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(path, "rb") as handle:
                if not os.path.samestat(os.fstat(handle.fileno()), stat):
                    raise ValueError("the file was replaced")
                handle.seek(lo)
                part = _parse_part(_decoded(handle, hi), width)
            with open(write_end, "wb") as pipe:
                _send(pipe, part)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


_PART_HEAD = 2 * 8  # rows and columns, as int64


def _send(pipe: BinaryIO, grid: np.ndarray) -> None:
    pipe.write(np.array(grid.shape, dtype=np.int64).tobytes())
    pipe.write(grid.reshape(-1).view(np.uint8))


def _received(pipe: BinaryIO) -> np.ndarray:
    """The part a child sent; ``ValueError`` when it sent nothing or too little."""
    head = pipe.read(_PART_HEAD)
    if len(head) != _PART_HEAD:
        raise ValueError("no part sent")
    grid = np.empty(np.frombuffer(head, dtype=np.int64).tolist())
    if pipe.readinto(grid.reshape(-1).view(np.uint8)) != grid.nbytes:
        raise ValueError("part sent short")
    return grid


def _reap(children: list[tuple[int, BinaryIO]], kill: bool) -> bool:
    """Close each child's pipe and wait for it, killing it first when ``kill``;
    True when every child exited 0."""
    clean = True
    for pid, pipe in children:
        pipe.close()
        if kill:
            os.kill(pid, signal.SIGKILL)
        clean = os.waitpid(pid, 0)[1] == 0 and clean
    return clean


def _parse_part(lines: Iterable[str], width: int) -> np.ndarray:
    """One part of the fast pass: its data lines in one ``np.loadtxt`` pass,
    checked to hold exactly what the per-cell reference would read.

    Blank lines are skipped and empty cells read as NaN. Returns the values,
    shape ``(0, width)`` when the part has no data line. Raises
    ``ValueError`` where the per-cell reference has to decide instead: on
    any line ``loadtxt`` rejects (ragged rows, quoted or whitespace-only
    cells, ``1_0``, whitespace-only lines), on a line holding a bare ``\\r``
    (a line end to ``csv``, but not to a cut at ``\\n``), on a field longer
    than the ``csv`` field limit, when the rows do not hold one column per id
    (``width``), and when a cell's own text is non-finite (``nan``, ``inf``,
    ``1e999``). Every empty cell reads as NaN, so the part has at least as
    many non-finite values as empty cells, and exactly as many unless some
    cell's text is non-finite: a non-finite value in a part that passes marks
    exactly an empty cell.
    """
    limit = csv.field_size_limit()
    empty = 0

    def filled() -> Iterator[str]:
        nonlocal empty
        for line in lines:
            body = line.removesuffix("\n").removesuffix("\r")
            if not body:
                continue  # csv reads a blank line as an empty row, which the reference skips
            if "\r" in body:
                raise ValueError("bare carriage return")
            if len(body) > limit and max(map(len, body.split(","))) > limit:
                raise ValueError("field larger than the csv field limit")
            text = body.replace(",,", ",nan,").replace(",,", ",nan,")
            if text[0] == ",":
                text = "nan" + text
            if text[-1] == ",":
                text += "nan"
            empty += (len(text) - len(body)) // 3
            yield text

    stream = filled()
    first = next(stream, None)
    if first is None:  # loadtxt warns on empty input
        return np.empty((0, width))
    grid = np.loadtxt(itertools.chain((first,), stream), delimiter=",", comments=None, ndmin=2)
    if grid.shape[1] != width:
        raise ValueError("not one column per id")
    if grid.size - np.count_nonzero(np.isfinite(grid)) != empty:
        raise ValueError("a cell's own text is non-finite")
    return grid


def _joined(header: tuple[str, ...], grids: list[np.ndarray]) -> _Grid | None:
    """The parts' rows in file order and the mask of their empty cells, which
    are the non-finite values of parts :func:`_parse_part` returned; None
    when there is no data row."""
    grid = grids[0] if len(grids) == 1 else np.concatenate(grids)
    if not len(grid):
        return None
    return header, grid, ~np.isfinite(grid)


def _grid_from_rows(rows: list[list[str]]) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Per-cell reference parse of a numeric CSV grid, to the same result as
    the fast pass (:func:`_read_grid`). Cells are stripped; an empty one reads
    as NaN and is flagged, any other is read with ``float``, non-finite text
    included."""
    if not rows:
        raise PanelFormatError("empty input: missing header row", row=0)
    header = _header(rows[0])
    data_rows = [row for row in rows[1:] if row]  # tolerate blank lines
    if not data_rows:
        raise PanelFormatError("no data rows after the header", row=1)

    n_cols = len(header)
    values = np.empty((len(data_rows), n_cols))
    empty = np.zeros(values.shape, dtype=bool)
    for r, row in enumerate(data_rows):
        if len(row) != n_cols:
            raise PanelFormatError(
                f"expected {n_cols} cells, found {len(row)}", row=r + 1
            )
        for c, cell in enumerate(row):
            text = cell.strip()
            if not text:
                values[r, c] = np.nan
                empty[r, c] = True
                continue
            try:
                values[r, c] = float(text)
            except ValueError:
                raise PanelFormatError(
                    f"non-numeric cell {text!r}", row=r + 1, column=header[c]
                ) from None
    return header, values, empty


def load_panel(source: str | Path | IO[str], *, oldest_first: bool = False) -> TimeSeriesPanel:
    """Read a panel from CSV text.

    The header row carries the series ids; every following row is one
    timestamp, most recent first (set ``oldest_first`` when the file is in
    chronological order instead). Empty cells mark missing observations.

    The text is read by the package's one CSV reader, which square-matrix
    CSVs share, header rule included; :func:`_read_grid` states when it reads
    in parts and when its per-cell reference decides, so that every error
    keeps its row and column. The panel's own cell rule then refuses a
    non-finite value in a non-empty cell, quoting the value as parsed
    (``'nan'``, ``'inf'``).

    Raises
    ------
    PanelFormatError
        Ragged rows, non-numeric or non-finite cells, duplicate or blank ids,
        no data rows, a field over the ``csv`` field size limit.
    RejectedSeriesError
        Any series ends up with fewer than two observed values.
    """
    header, values, empty = _read_grid(source)
    bad = ~(empty | np.isfinite(values))
    if bad.any():
        r, c = np.argwhere(bad)[0].tolist()
        raise PanelFormatError(
            f"non-finite cell '{values[r, c]}'", row=r + 1, column=header[c]
        )
    if oldest_first:
        values, empty = values[::-1], empty[::-1]
    return TimeSeriesPanel(header, values.T, ~empty.T)


def write_panel(panel: TimeSeriesPanel, dest: str | Path | IO[str]) -> None:
    """Serialize a panel back to the CSV layout accepted by ``load_panel``."""
    rows = (
        [
            repr(float(panel.values[i, s])) if panel.observed_mask[i, s] else ""
            for i in range(panel.n_series)
        ]
        for s in range(panel.n_periods)
    )
    _write_csv(dest, panel.series_ids, rows)


def _symmetric(entries, what: str = "matrix") -> np.ndarray:
    """A float copy of ``entries``, checked and made exactly symmetric.

    The package's one validity rule for a matrix: square, finite, and
    symmetric within ``1e-12 * max(1, max|a|)``, else ``InvalidMatrixError``
    (``what`` names the matrix in the message). The two triangles are then
    averaged, ``0.5 * (a + a^T)``; exactly symmetric input, where that
    average changes no bit, is returned as it is. The matrix wrappers apply
    it at construction and ``conditioning`` to a bare array, so no solve
    checks or symmetrizes again.
    """
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrixError(f"{what} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrixError(f"{what} entries must be finite")
    scale = max(1.0, float(a.max(initial=0.0)), -float(a.min(initial=0.0)))
    gap = a - a.T
    asymmetry = float(np.abs(gap, out=gap).max(initial=0.0))
    del gap
    if asymmetry > 1e-12 * scale:
        raise InvalidMatrixError(f"{what} is not symmetric within tolerance")
    return 0.5 * (a + a.T) if asymmetry else a


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric sample covariance with per-entry observation counts.

    The diagonal is pinned to ``vols**2`` so covariance, vols and the derived
    correlation stay mutually consistent entrywise.
    """

    entries: np.ndarray
    vols: np.ndarray
    pairwise_counts: np.ndarray
    estimation_mode: str
    ids: tuple[str, ...] | None = None
    # ``(values, vectors)`` of ``np.linalg.eigh`` on the entries, read-only;
    # filled and read by ``conditioning._spectrum`` only.
    _eigensystem: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # eigen-passes ``conditioning.rj_repair`` took to make this matrix, if it did
    _repair_passes: int | None = field(default=None, init=False, repr=False, compare=False)

    __eq__ = _value_eq
    __hash__ = None

    def __post_init__(self) -> None:
        entries = _symmetric(self.entries, "covariance matrix")
        n = entries.shape[0]
        vols = np.array(self.vols, dtype=float)
        if vols.shape != (n,):
            raise ValueError("vols length must match matrix dimension")
        if not np.isfinite(vols).all() or (vols <= 0).any():
            raise ValueError("vols must be positive and finite")
        diag = np.diag(entries)
        if (np.abs(diag - vols**2) > 1e-6 * vols**2).any():
            raise InvalidMatrixError("covariance matrix diagonal disagrees with vols**2")
        np.fill_diagonal(entries, vols**2)
        counts = np.array(self.pairwise_counts, dtype=int)
        if counts.shape != entries.shape:
            raise ValueError("pairwise_counts shape must match entries")
        if self.estimation_mode not in _KNOWN_MODES:
            raise ValueError(f"unknown estimation_mode {self.estimation_mode!r}")
        ids = tuple(self.ids) if self.ids is not None else None
        if ids is not None and len(ids) != n:
            raise ValueError("ids length must match matrix dimension")
        object.__setattr__(self, "entries", _readonly(entries))
        object.__setattr__(self, "vols", _readonly(vols))
        object.__setattr__(self, "pairwise_counts", _readonly(counts))
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Unit-diagonal correlation matrix with estimator provenance."""

    entries: np.ndarray
    estimation_mode: str
    psd_status: str = "unverified"
    ids: tuple[str, ...] | None = None
    # the memoised eigensystem and the repair's pass count, as in ``CovarianceMatrix``
    _eigensystem: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _repair_passes: int | None = field(default=None, init=False, repr=False, compare=False)

    __eq__ = _value_eq
    __hash__ = None

    def __post_init__(self) -> None:
        entries = _symmetric(self.entries, "correlation matrix")
        n = entries.shape[0]
        diag = np.diag(entries)
        if (np.abs(diag - 1.0) > UNIT_DIAGONAL_TOL).any():
            raise InvalidMatrixError(
                f"correlation matrix diagonal must be 1 within {UNIT_DIAGONAL_TOL:g}"
            )
        if (np.abs(entries) > 1.0 + UNIT_DIAGONAL_TOL).any():
            raise InvalidMatrixError("correlation matrix entries must lie in [-1, 1]")
        np.clip(entries, -1.0, 1.0, out=entries)
        np.fill_diagonal(entries, 1.0)
        if self.estimation_mode not in _KNOWN_MODES:
            raise ValueError(f"unknown estimation_mode {self.estimation_mode!r}")
        if self.psd_status not in PSD_STATUSES:
            raise ValueError(f"unknown psd_status {self.psd_status!r}")
        ids = tuple(self.ids) if self.ids is not None else None
        if ids is not None and len(ids) != n:
            raise ValueError("ids length must match matrix dimension")
        object.__setattr__(self, "entries", _readonly(entries))
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _coverage_error(ids: tuple[str, ...], counts: np.ndarray) -> CoverageError:
    i, j = np.argwhere(counts < 2)[0]
    return CoverageError(
        f"series {ids[i]!r} and {ids[j]!r} share only {int(counts[i, j])} "
        "joint observations; need at least 2"
    )


def _assemble(
    ids: tuple[str, ...],
    center: np.ndarray,
    means: np.ndarray,
    cov_joint: np.ndarray,
    var_joint: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariance, correlation and vols from the joint-sample moments, after
    the package's one degeneracy rule. A standard deviation is degenerate
    within ``_CONSTANT_REL_TOL * max(1, |mean|)`` of zero. Every series
    degenerate on its own sample raises one ``DegenerateSeriesError`` naming
    them all; failing that, the first pair ``(i, j)``, ``i != j``, in
    row-major order on whose joint sample series ``i`` is degenerate raises
    one naming the pair.

    ``center`` holds each series' own mean, and ``means[i, j]`` and
    ``var_joint[i, j]`` the mean and variance of centered series ``i`` over
    its joint sample with ``j``; either may be a read-only broadcast.
    """
    own_sd = np.sqrt(np.diag(var_joint))
    constant = own_sd <= _CONSTANT_REL_TOL * np.maximum(1.0, np.abs(center))
    if constant.any():
        raise DegenerateSeriesError(ids[i] for i in np.flatnonzero(constant))
    thresholds = (_CONSTANT_REL_TOL * np.maximum(1.0, np.abs(center[:, None] + means))) ** 2
    degenerate_pair = var_joint <= thresholds
    np.fill_diagonal(degenerate_pair, False)
    if degenerate_pair.any():
        i, j = np.argwhere(degenerate_pair)[0]
        raise DegenerateSeriesError((ids[i], ids[j]), note="constant on the pair's joint sample")

    corr = cov_joint / np.sqrt(var_joint * var_joint.T)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    cov = np.outer(own_sd, own_sd) * corr
    return cov, corr, own_sd


def _dense_moments(
    ids: tuple[str, ...], values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Moments of a fully observed block: the masked algebra of
    ``_masked_moments`` specialised to an all-true mask.

    Every joint sample is the whole row, so the joint counts are the
    constant M, the per-pair sums and variances collapse to per-series
    N-vectors, and the only N x M x N product left is one ``x0 @ x0.T``
    on the centered values. The vectors go to :func:`_assemble` broadcast
    along each row, so the degeneracy rule is the masked kernel's, to the
    same pair: a series flagged with one partner is flagged with every one.
    """
    n, m = values.shape
    counts = np.full((n, n), m, dtype=np.int64)
    if m < 2:
        raise _coverage_error(ids, counts)
    center = values.sum(axis=1) / m
    x0 = values - center[:, None]
    means = x0.sum(axis=1) / m  # residual means of the centered series
    prods = x0 @ x0.T
    del x0  # the N x N algebra below runs in place, with no N x M array alive
    prods += prods.T
    prods *= 0.5
    var = np.maximum((np.diag(prods) - m * means**2) / (m - 1.0), 0.0)
    cov_joint = prods
    cov_joint -= (m * means)[:, None] * means[None, :]
    cov_joint /= m - 1.0

    means, var = (np.broadcast_to(v[:, None], (n, n)) for v in (means, var))
    cov, corr, own_sd = _assemble(ids, center, means, cov_joint, var)
    return cov, corr, own_sd, counts


def _masked_moments(
    ids: tuple[str, ...], values: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise moment algebra for a panel with missing cells.

    Values are pre-centered per series (over that series' own observed
    cells) so the raw-moment formulas stay numerically stable. For every
    pair the correlation is the plain sample correlation on the pair's
    joint sample, with unbiased (count - 1) divisors; the covariance is
    assembled as vol_i * vol_j * corr_ij so the two matrices agree exactly.

    The joint counts come from a float64 product of the 0/1 mask, which
    BLAS evaluates exactly while every count stays below 2**53; they are
    returned as int64.
    """
    values = np.ascontiguousarray(values)
    mask = np.ascontiguousarray(mask)
    o = mask.astype(float)
    nf = o @ o.T
    counts = nf.astype(np.int64)
    if (counts < 2).any():
        raise _coverage_error(ids, counts)
    center = np.where(mask, values, 0.0).sum(axis=1) / o.sum(axis=1)
    x0 = np.where(mask, values - center[:, None], 0.0)

    prods = x0 @ x0.T
    prods = 0.5 * (prods + prods.T)
    sums = x0 @ o.T  # sums[i, j] = sum of centered series i over joint(i, j)
    sq = (x0 * x0) @ o.T
    means = sums / nf
    cov_joint = (prods - nf * means * means.T) / (nf - 1.0)
    var_joint = np.maximum((sq - nf * means**2) / (nf - 1.0), 0.0)
    cov, corr, own_sd = _assemble(ids, center, means, cov_joint, var_joint)
    return cov, corr, own_sd, counts


def sample_moments(
    panel: TimeSeriesPanel, mode: str = COMPLETE_CASES
) -> tuple[CovarianceMatrix, CorrelationMatrix]:
    """Estimate (covariance, correlation) from a panel.

    ``complete-cases`` uses only timestamps where every series is observed;
    ``pairwise-complete`` computes each entry on the joint sample of its
    pair, which keeps every correlation in [-1, 1] but may leave the
    assembled matrix short of positive semi-definite.

    The kernel is chosen by the mask. A fully observed panel, in either
    mode, and the complete-cases sub-panel go to the dense kernel: one
    ``x @ x.T`` on the centered values, with constant joint counts. So on a
    panel without missing values the two modes agree exactly, by
    construction. A ragged panel in ``pairwise-complete`` mode goes to the
    masked kernel, whose joint counts are a float64 product of the mask,
    exact below 2**53 observations.

    Raises
    ------
    CoverageError
        Fewer than 2 complete timestamps, or a pair with < 2 joint rows.
    DegenerateSeriesError
        A series (or a pair's joint sample) is constant.
    """
    if mode not in ESTIMATION_MODES:
        raise ValueError(f"mode must be one of {ESTIMATION_MODES}, got {mode!r}")
    if panel.n_series < 2:
        raise ValueError("sample moments need at least two series")

    ids = panel.series_ids
    full = panel.observed_mask.all(axis=0)
    if full.all():
        cov, corr, vols, counts = _dense_moments(ids, panel.values)
    elif mode == COMPLETE_CASES:
        n_full = int(full.sum())
        if n_full < 2:
            raise CoverageError(
                f"only {n_full} timestamps observed across all series; need at least 2"
            )
        cov, corr, vols, counts = _dense_moments(ids, panel.values[:, full])
    else:
        cov, corr, vols, counts = _masked_moments(ids, panel.values, panel.observed_mask)

    covariance = CovarianceMatrix(cov, vols, counts, mode, ids)
    correlation = CorrelationMatrix(corr, mode, "unverified", ids)
    return covariance, correlation


def ols_residualize(
    panel: TimeSeriesPanel,
    factors: TimeSeriesPanel,
    with_intercept: bool = True,
    *,
    keep_intercept: bool = False,
) -> TimeSeriesPanel:
    """Regress every series on the factor series and return the residuals.

    Each series is fit over the timestamps where it and all factors are
    observed. ``with_intercept`` adds a constant column to the design; the
    fitted intercept is removed from the residual unless ``keep_intercept``
    is set, which adds it back (a pure level shift with no effect on
    downstream correlations).

    Raises
    ------
    CoverageError
        A series has fewer than ``n_factors + 2`` joint rows with the factors.
    CollinearFactorsError
        The design matrix is rank deficient on the joint rows.
    """
    if factors.n_periods != panel.n_periods:
        raise ValueError("factor panel must share the panel's timestamp grid")
    factor_obs = factors.observed_mask.all(axis=0)
    needed = factors.n_series + 2

    out_values = np.full(panel.values.shape, np.nan)
    out_mask = np.zeros(panel.values.shape, dtype=bool)
    for i, sid in enumerate(panel.series_ids):
        joint = panel.observed_mask[i] & factor_obs
        n_joint = int(joint.sum())
        if n_joint < needed:
            raise CoverageError(
                f"series {sid!r} has {n_joint} rows jointly observed with the "
                f"factors; need at least {needed}"
            )
        design = factors.values[:, joint].T
        if with_intercept:
            design = np.column_stack([np.ones(n_joint), design])
        if np.linalg.matrix_rank(design) < design.shape[1]:
            raise CollinearFactorsError(
                f"rank-deficient factor design for series {sid!r}"
            )
        y = panel.values[i, joint]
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        if with_intercept and keep_intercept:
            resid = resid + coef[0]
        out_values[i, joint] = resid
        out_mask[i, joint] = True
    return TimeSeriesPanel(panel.series_ids, out_values, out_mask, panel.time_order)
