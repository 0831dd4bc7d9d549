"""Alpha-panel ingestion: CSV loading, the sample correlation under explicit
missing-data policies, factor residualization, and the matrix types."""

from __future__ import annotations

import csv
import functools
import itertools
import os
import pickle
import re
import signal
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .errors import (
    CollinearFactorsError,
    CoverageError,
    DegenerateSeriesError,
    InvalidDiagonalError,
    InvalidMatrixError,
    PanelFormatError,
    RejectedSeriesError,
)

COMPLETE_CASES = "complete-cases"
PAIRWISE_COMPLETE = "pairwise-complete"
ESTIMATION_MODES = (COMPLETE_CASES, PAIRWISE_COMPLETE)
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
# back, but more over a whole ``analyze`` command. With numpy's BLAS on the
# command's one thread, so that a fork has no thread pool to shut down,
# 3.5-4.7 MB panels cut in two parts took 15 ms more CPU to read, and the
# command 30-35 ms more CPU, 30-37 ms more wall time and about 7,500 more
# page faults (copy-on-write after the fork; medians of 21 alternated
# runs). An 8 MiB part parses for about 0.2 s, some six times that cost.
_MIN_PART_BYTES = 8 << 20

# The most column blocks the dense kernel sums a panel in (``_block_width``).
_MAX_BLOCKS = 16

# The characters besides the comma that make the ``csv`` writer quote a field.
_QUOTED = re.compile('["\r\n]').search


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _locked(array) -> bool:
    """Whether ``array`` is a float64 ``ndarray`` that no array can write
    through: it and every array it is a view of are read-only, and the last
    of them owns its memory (not a ``bytearray``, say)."""
    if type(array) is not np.ndarray or array.dtype != np.float64:
        return False
    while array.base is not None:
        if array.flags.writeable or type(array.base) is not np.ndarray:
            return False
        array = array.base
    return not array.flags.writeable


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
    is the most recent period. NaN is the one marker of an unobserved cell,
    so the values are the panel's only stored copy: ``observed_mask`` is
    derived from them. An infinite value is refused (``ValueError``), and
    every series must carry at least two observations
    (``RejectedSeriesError``). The ids follow the CSV header's rule
    (:func:`_checked_ids`).

    The values are read-only. A float64 ``ndarray`` is kept as given, with
    no copy, when it and every array it is a view of are read-only and the
    last of them owns its memory (:func:`_locked`); the package's own
    producers (``load_panel``, ``ols_residualize`` and
    ``simulate.gen_one_factor_panel``) hand their fresh arrays over so. Any
    other input is copied, so a caller's writeable array, or a read-only
    view of one, is never aliased. The limit of that rule: a writeable view
    made before the array was locked, or a caller who sets the array's
    ``writeable`` flag back, can still change the panel's values.
    """

    series_ids: tuple[str, ...]
    values: np.ndarray

    __eq__ = _value_eq
    __hash__ = None  # equal by value, and the arrays are not hashable

    def __post_init__(self) -> None:
        values = self.values
        if not _locked(values):
            values = _readonly(np.array(values, dtype=float))
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array (series x timestamps)")
        ids = _checked_ids(self.series_ids, values.shape[0])
        if values.shape[0] < 1:
            raise ValueError("panel needs at least one series")
        if np.isinf(values).any():
            raise ValueError("values must be finite, or NaN where unobserved")
        # with no infinity left, a finite cell is an observed one
        short = np.count_nonzero(np.isfinite(values), axis=1) < 2
        if short.any():
            raise RejectedSeriesError(ids[i] for i in np.flatnonzero(short))
        object.__setattr__(self, "series_ids", ids)
        object.__setattr__(self, "values", values)

    @property
    def observed_mask(self) -> np.ndarray:
        """``isfinite(values)``: True at every observed cell, computed anew
        on each read."""
        return _readonly(np.isfinite(self.values))

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
    one byte-range part per usable CPU (:func:`_usable_cpus`) while each part
    keeps at least ``_MIN_PART_BYTES`` of data rows (:func:`_part_count`), and
    every part but the first is parsed in a short-lived child forked by
    :func:`_fork`, the fork, pipe and reap helper the sweep's points share
    (:func:`_fast_file`); a smaller file, or any file on a platform without
    ``os.fork`` and ``os.sched_getaffinity``, is one part with no child. An
    open handle, or a path that is not a regular file (a pipe, say), streams
    its lines through the same parse as one part (:func:`_fast_grid`). When
    any part declines, or a child dies or sends its part short, the whole
    text goes to the per-cell reference :func:`_grid_from_rows`: a seekable
    handle is rewound to where the fast pass started, and one that cannot
    seek is first read once into a list of lines. The reference is the only
    one that raises on malformed input, except for a line the ``csv`` reader
    itself rejects (a field over its size limit), which raises
    ``PanelFormatError`` with the reader's line number.
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


def _write_csv(dest: str | Path | IO[str], header: Iterable, rows: Iterable) -> None:
    """Write ``header`` and then ``rows`` as CSV with ``\n`` line ends, to a
    path (created as UTF-8) or to an open text handle.

    The package's one rule from numbers to artifact text, the ``csv``
    writer's own. A 2-D array's rows are taken by ``tolist()`` one at a
    time, so every cell is a Python float (or int, or None in an object
    array). A float is spelled by ``repr``, the shortest text that reads back
    to the same bits (``-0.0``, ``5e-324``, ``inf``, ``nan``), an int in
    decimal, a string as it is, and None as an empty cell, which is how a
    panel's missing cell is written. A data row is its cells joined by
    commas; the ``csv`` writer, which costs about half as much again per
    cell, writes the header and any row it has to quote: a row of one empty
    cell (``""``, which a reader would otherwise skip as a blank line) and a
    row whose strings hold a comma, a quote or a line break.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as handle:
            return _write_csv(handle, header, rows)
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(header)
    for row in map(np.ndarray.tolist, rows) if isinstance(rows, np.ndarray) else rows:
        line = ",".join(map(_cell_text, row))
        if line and line.count(",") == len(row) - 1 and not _QUOTED(line):
            dest.write(line + "\n")
        else:
            writer.writerow(row)


def _cell_text(cell) -> str:
    return "" if cell is None else repr(cell) if isinstance(cell, float) else str(cell)


def _without_bom(lines: Iterable[str]) -> Iterator[str]:
    """The lines with one leading U+FEFF, a UTF-8 byte-order mark as
    spreadsheet programs write it, dropped from the first. Both read paths
    take their header through it, so the first id is the same with the mark
    or without it. Past the first line, it reads no line ahead of its
    caller."""
    lines = iter(lines)
    first = next(lines, None)
    return lines if first is None else itertools.chain((first.removeprefix("\ufeff"),), lines)


def _csv_rows(lines: Iterable[str]) -> list[list[str]]:
    """Every ``csv`` row of the lines, a leading byte-order mark dropped; a
    line the reader rejects (a field over its size limit, say) is a
    ``PanelFormatError`` naming the line."""
    reader = csv.reader(_without_bom(lines))
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


def _checked_ids(ids: Iterable, n: int) -> tuple[str, ...]:
    """``ids`` as strings, refused (``ValueError``) unless the CSV reader would
    read them back as they are: ``n`` of them, none blank and none repeated
    (:func:`_header`'s rule), none with surrounding whitespace, which the
    reader strips, and no first id that begins with U+FEFF, which the reader
    drops as a byte-order mark (:func:`_without_bom`). Every type that
    carries ids checks them here, so what ``write_panel`` or
    ``matrix_to_csv`` writes, the readers accept."""
    ids = tuple(map(str, ids))
    if len(ids) != n:
        raise ValueError(f"ids length must match the number of series: {len(ids)} for {n}")
    for name in ids:
        if not name or name != name.strip():
            raise ValueError(f"id {name!r} is blank or has surrounding whitespace")
    if ids and ids[0].startswith("\ufeff"):
        raise ValueError(f"first id {ids[0]!r} begins with U+FEFF, a mark the reader drops")
    if len(set(ids)) != n:
        raise ValueError("ids must not repeat")
    return ids


def _fast_grid(lines: Iterator[str]) -> _Grid | None:
    """The fast pass over a stream of lines: the header with ``csv``, a
    leading byte-order mark dropped, then the data lines as one part
    (:func:`_parse_part`). None when the reference has to decide: on a
    header it would refuse, and wherever :func:`_parse_part` or
    :func:`_joined` declines."""
    try:
        lines = _without_bom(lines)
        header = _header(next(csv.reader(lines)))
        return _joined(header, [_parse_part(lines, len(header))])
    except (StopIteration, csv.Error, PanelFormatError, ValueError):
        return None


def _fast_file(path: str | Path) -> _Grid | None:
    """The fast pass over a regular file, its data rows cut into byte-range
    parts as :func:`_read_grid` describes; None when the reference has to
    decide.

    The header is read with ``csv`` from the file's first lines, a leading
    byte-order mark dropped (:func:`_without_bom`). Each range
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
            header = _header(next(csv.reader(_without_bom(_decoded(handle, end)))))
        except (StopIteration, csv.Error, PanelFormatError, ValueError):
            return None
        width = len(header)
        start = handle.tell()
        bounds = _bounds(handle, start, end, _part_count(end - start))
        children: list[tuple[int, BinaryIO]] = []
        grids = None
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                work = functools.partial(_file_part, path, stat, lo, hi, width)
                children.append(_fork(work, blas=False))
            handle.seek(start)
            first = _parse_part(_decoded(handle, bounds[1]), width)
            grids = [first, *(_received(pipe) for _, pipe in children)]
        except (ValueError, OSError):
            pass  # a part declined, a child sent short, or a fork failed: decline
        finally:
            if not all(_reap(children, kill=grids is None)):
                grids = None
    return None if grids is None else _joined(header, grids)


def _part_count(data_bytes: int) -> int:
    """One part per usable CPU (:func:`_usable_cpus`), as long as each keeps
    ``_MIN_PART_BYTES``."""
    return max(1, min(_usable_cpus(), data_bytes // _MIN_PART_BYTES))


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


def _file_part(
    path: str | Path, stat: os.stat_result, lo: int, hi: int, width: int
) -> np.ndarray:
    """Bytes ``[lo, hi)`` of the file as a part of ``width`` columns, the work
    of a forked child of :func:`_fast_file`.

    The file is opened anew, so that its reads move no offset of the
    caller's, and the part declines (``ValueError``) unless the open file is
    the one ``stat`` describes: a file replaced at ``path`` in the meantime is
    not mixed into the grid.
    """
    with open(path, "rb") as handle:
        if not os.path.samestat(os.fstat(handle.fileno()), stat):
            raise ValueError("the file was replaced")
        handle.seek(lo)
        return _parse_part(_decoded(handle, hi), width)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where the platform cannot fork
    or tell them: the one rule by which the CSV reader cuts its parts and the
    sweep forks its points."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork(work: Callable[[], object], *, blas: bool) -> tuple[int, BinaryIO]:
    """Fork a child that calls ``work()`` and sends its value back through a
    pipe; return the child's pid and the pipe's read end.

    The package's one way to work in another process: the CSV reader's parts
    (:func:`_fast_file`) and the sweep's points (``simulate.sweep_rho_star``)
    both go through it, and the caller takes the value with
    :func:`_received` and then :func:`_reap` every child it forked, on every
    path. The child runs on the caller's memory copy-on-write, so ``work``
    needs no arguments sent to it. It always leaves through ``os._exit``: it
    never returns into the caller, runs no atexit handler and flushes no
    buffer it inherited. It exits 0 only once the whole value is sent; when
    ``work`` raises, it sends nothing and exits 1.

    ``blas`` says whether ``work`` calls numpy's BLAS. From Python 3.12, fork
    warns in a process with threads, which numpy's BLAS pool starts at import
    unless it is held to one thread. A child that calls no BLAS (a reader's
    part: it parses text and exits) takes no lock such a thread may hold, so
    that warning is silenced for it alone. A child that does is forked only
    while BLAS runs on one thread (``simulate._blas_on_one_thread``), and its
    fork changes no warning filter: the warning then arises only where the
    caller runs threads of its own, and is true there.
    """
    read_end, write_end = os.pipe()
    try:
        if blas:
            pid = os.fork()
        else:
            with warnings.catch_warnings():
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
            value = work()
            with open(write_end, "wb") as pipe:
                _send(pipe, value)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _send(pipe: BinaryIO, value: object) -> None:
    # an array's bytes go to the pipe as they are, with no copy (protocol 5)
    pickle.dump(value, pipe, protocol=pickle.HIGHEST_PROTOCOL)


def _received(pipe: BinaryIO) -> object:
    """The value a child sent; ``ValueError`` when it sent nothing or too little."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ValueError("the child sent nothing, or sent short") from None


def _reap(children: list[tuple[int, BinaryIO]], kill: bool) -> list[bool]:
    """Close each child's pipe and wait for it, killing it first when ``kill``;
    whether each child exited 0, in order."""
    exited = []
    for pid, pipe in children:
        pipe.close()
        if kill:
            os.kill(pid, signal.SIGKILL)
        exited.append(os.waitpid(pid, 0)[1] == 0)
    return exited


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
            if ",," not in body and body[0] != "," and body[-1] != ",":
                yield body  # no empty cell
                continue
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


def load_panel(source: str | Path | IO[str]) -> TimeSeriesPanel:
    """Read a panel from CSV text.

    The header row carries the series ids; every following row is one
    timestamp, most recent first. Empty cells mark missing observations and
    read as NaN, the panel's one marker of a missing cell.

    The text is read by the package's one CSV reader, which square-matrix
    CSVs share, header rule included; :func:`_read_grid` states when it reads
    in parts and when its per-cell reference decides, so that every error
    keeps its row and column. The panel's own cell rule then refuses a
    non-finite value in a non-empty cell, quoting the value as parsed
    (``'nan'``, ``'inf'``).

    The reader's grid, one row per timestamp, is locked and handed to the
    panel transposed, so the panel's values are a read-only view of it in
    Fortran order (each timestamp's cells adjacent), with no copy made.

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
    return TimeSeriesPanel(header, _readonly(values).T)


def write_panel(panel: TimeSeriesPanel, dest: str | Path | IO[str]) -> None:
    """Serialize a panel back to the CSV layout accepted by ``load_panel``:
    one row per timestamp, a missing cell empty (:func:`_write_csv`)."""
    _write_csv(dest, panel.series_ids, np.where(panel.observed_mask, panel.values, None).T)


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
    """Symmetric covariance matrix, as the ``repair`` command reads it from CSV.

    The entries are the one stored copy of the matrix. Their diagonal must be
    strictly positive (``InvalidDiagonalError``), and definiteness is derived
    from their spectrum (``conditioning.classify_definiteness``). ``ids`` is
    keyword-only and follows the CSV header's rule (:func:`_checked_ids`).
    """

    entries: np.ndarray
    ids: tuple[str, ...] | None = field(default=None, kw_only=True)
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
        if (np.diag(entries) <= 0).any():
            raise InvalidDiagonalError("covariance diagonal must be positive")
        ids = _checked_ids(self.ids, entries.shape[0]) if self.ids is not None else None
        object.__setattr__(self, "entries", _readonly(entries))
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Unit-diagonal correlation matrix.

    Definiteness is not stored: it is derived from the entries' spectrum
    (``conditioning.classify_definiteness``), which is solved once and kept.
    Nor is the estimator that made the entries: it is the caller's to
    report. ``ids`` is keyword-only and follows the CSV header's rule
    (:func:`_checked_ids`).
    """

    entries: np.ndarray
    ids: tuple[str, ...] | None = field(default=None, kw_only=True)
    # the memoised eigensystem and the repair's pass count, as in ``CovarianceMatrix``
    _eigensystem: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _repair_passes: int | None = field(default=None, init=False, repr=False, compare=False)

    __eq__ = _value_eq
    __hash__ = None

    def __post_init__(self) -> None:
        entries = _symmetric(self.entries, "correlation matrix")
        diag = np.diag(entries)
        if (np.abs(diag - 1.0) > UNIT_DIAGONAL_TOL).any():
            raise InvalidMatrixError(
                f"correlation matrix diagonal must be 1 within {UNIT_DIAGONAL_TOL:g}"
            )
        if (np.abs(entries) > 1.0 + UNIT_DIAGONAL_TOL).any():
            raise InvalidMatrixError("correlation matrix entries must lie in [-1, 1]")
        np.clip(entries, -1.0, 1.0, out=entries)
        np.fill_diagonal(entries, 1.0)
        ids = _checked_ids(self.ids, entries.shape[0]) if self.ids is not None else None
        object.__setattr__(self, "entries", _readonly(entries))
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _coverage_error(ids: tuple[str, ...], i: int, j: int, count: float) -> CoverageError:
    return CoverageError(
        f"series {ids[i]!r} and {ids[j]!r} share only {int(count)} "
        "joint observations; need at least 2"
    )


def _assemble(
    ids: tuple[str, ...],
    center: np.ndarray,
    means: np.ndarray,
    cov_joint: np.ndarray,
    var_joint: np.ndarray,
) -> np.ndarray:
    """The correlation from the joint-sample moments, after the package's one
    degeneracy rule. A standard deviation is degenerate within
    ``_CONSTANT_REL_TOL * max(1, |mean|)`` of zero. Every series degenerate
    on its own sample raises one ``DegenerateSeriesError`` naming them all;
    failing that, the first pair ``(i, j)``, ``i != j``, in row-major order
    on whose joint sample series ``i`` is degenerate raises one naming the
    pair.

    ``center`` holds each series' own mean, and ``means[i, j]`` and
    ``var_joint[i, j]`` the mean and variance of centered series ``i`` over
    its joint sample with ``j``; either may be a read-only broadcast.
    ``cov_joint`` is divided in place and returned as the correlation.

    Before that rule, a covariance, or a product of two series' variances,
    that is not finite raises ``InvalidMatrixError``: only an overflow of
    float64 makes one, and an infinite product would read as a zero
    correlation. The kernels call this with numpy's overflow and
    invalid-value warnings off, so the refusal is the one report of an
    overflow; a degeneracy threshold past float64 is rightly ``inf``.
    """
    scale = var_joint * var_joint.T
    np.sqrt(scale, out=scale)
    np.fill_diagonal(scale, 1.0)  # the diagonal is set to 1 below, whatever its variance
    if not (np.isfinite(cov_joint).all() and np.isfinite(scale).all()):
        raise InvalidMatrixError(
            "sample moments overflow float64: the panel's values are too large"
        )
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

    corr = cov_joint
    corr /= scale
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


def _block_width(n: int, m: int) -> int:
    """The dense kernel's block width for N series over M timestamps: N, but
    never fewer than ``ceil(M / _MAX_BLOCKS)`` columns nor more than M."""
    return min(m, max(n, -(-m // _MAX_BLOCKS)))


def _centered_products(
    values: np.ndarray, columns: np.ndarray | None, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each series' center, the row sums of the centered values and their
    N x N product ``x0 @ x0.T``, summed over column blocks of
    :func:`_block_width` columns; the block is ``values``, or
    ``values[:, columns]`` when ``columns`` is given (M of them).

    A first pass sums the blocks for the centers. A second centers each
    block into one N x width buffer, reused and held in the values' memory
    order, and adds its row sums and its product to the totals. ``columns``
    are gathered into that buffer, block by block, on each pass. So no
    N x M array is built, and the buffer dies with this call.
    """
    n = values.shape[0]
    width = _block_width(n, m)
    order = "F" if np.isfortran(values) else "C"
    buffer = np.empty(n * width)

    def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        # each block of the values, and the buffer's contiguous view of its
        # shape; "clip" lets take write straight into it ("raise" buffers)
        for lo in range(0, m, width):
            hi = min(lo + width, m)
            out = buffer[: n * (hi - lo)].reshape((n, hi - lo), order=order)
            if columns is None:
                yield values[:, lo:hi], out
            else:
                yield np.take(values, columns[lo:hi], axis=1, out=out, mode="clip"), out

    center = np.zeros(n)
    for block, _ in blocks():
        center += block.sum(axis=1)
    center /= m
    second = blocks()
    block, out = next(second)
    x0 = np.subtract(block, center[:, None], out=out)
    sums, prods = x0.sum(axis=1), x0 @ x0.T  # the one-block algebra, where one block spans M
    product = np.empty((n, n))
    for block, out in second:
        x0 = np.subtract(block, center[:, None], out=out)
        sums += x0.sum(axis=1)
        prods += np.matmul(x0, x0.T, out=product)
    return center, sums, prods


def _dense_moments(
    ids: tuple[str, ...], values: np.ndarray, columns: np.ndarray | None = None
) -> np.ndarray:
    """The correlation of a fully observed block: the masked algebra of
    ``_masked_moments`` specialised to an all-true mask.

    The block is ``values`` itself, or with ``columns`` (column indices)
    the sub-panel ``values[:, columns]``, which is never built whole. Every
    joint sample is the whole row, so every pair shares all M rows, the
    per-pair sums and variances collapse to per-series N-vectors, and the
    only N x M x N product left is ``x0 @ x0.T`` on the centered values.
    The vectors go to :func:`_assemble` broadcast along each row, so the
    degeneracy rule is the masked kernel's, to the same pair: a series
    flagged with one partner is flagged with every one.

    The sums over time run in column blocks (:func:`_centered_products`) of
    N columns, but never fewer than ``ceil(M / _MAX_BLOCKS)`` nor more than
    M (:func:`_block_width`): every block but the last then feeds BLAS at
    least an N x N x N product, and a long, narrow panel still takes at most
    ``_MAX_BLOCKS`` blocks. Beside the values, only one
    N x width buffer and N x N arrays are alive, never an N x M copy.
    Summing in blocks regroups the additions, which moves the result at
    rounding level only; where one block spans M, every step is the
    one-block algebra's on the same memory layout, to the bit.
    """
    n = values.shape[0]
    m = values.shape[1] if columns is None else len(columns)
    if m < 2:  # every pair is short; the first in row-major order is (0, 0)
        raise _coverage_error(ids, 0, 0, m)
    with np.errstate(over="ignore", invalid="ignore"):
        center, means, prods = _centered_products(values, columns, m)
        means /= m  # residual means of the centered series
        prods += prods.T
        prods *= 0.5
        var = np.maximum((np.diag(prods) - m * means**2) / (m - 1.0), 0.0)
        cov_joint = prods
        cov_joint -= (m * means)[:, None] * means[None, :]
        cov_joint /= m - 1.0

        means, var = (np.broadcast_to(v[:, None], (n, n)) for v in (means, var))
        return _assemble(ids, center, means, cov_joint, var)


def _masked_moments(ids: tuple[str, ...], values: np.ndarray) -> np.ndarray:
    """Pairwise correlation of a panel's values, NaN at each missing cell.

    Values are pre-centered per series (over that series' own observed
    cells) so the raw-moment formulas stay numerically stable. Each entry is
    the plain sample correlation on the pair's joint sample, with unbiased
    (count - 1) divisors.

    The joint counts come from a float64 product of the 0/1 mask, which
    BLAS evaluates exactly while every count stays below 2**53. The boolean
    mask is dropped once the centered values are built, before the products,
    and the centered values are squared in place once their own products are
    taken, so at most two N x M float arrays (the 0/1 mask and the centered
    values) are alive at once, and none once the last product is taken.
    """
    values = np.ascontiguousarray(values)
    mask = np.isfinite(values)
    o = mask.astype(float)
    nf = o @ o.T
    if (nf < 2).any():
        i, j = np.argwhere(nf < 2)[0]
        raise _coverage_error(ids, i, j, nf[i, j])
    with np.errstate(over="ignore", invalid="ignore"):
        center = np.where(mask, values, 0.0).sum(axis=1) / o.sum(axis=1)
        x0 = np.zeros_like(values)
        np.subtract(values, center[:, None], out=x0, where=mask)
        del mask

        prods = x0 @ x0.T
        prods = 0.5 * (prods + prods.T)
        sums = x0 @ o.T  # sums[i, j] = sum of centered series i over joint(i, j)
        sq = np.multiply(x0, x0, out=x0) @ o.T
        del x0, o  # the N x N algebra below runs with no N x M array alive
        means = sums / nf
        cov_joint = (prods - nf * means * means.T) / (nf - 1.0)
        var_joint = np.maximum((sq - nf * means**2) / (nf - 1.0), 0.0)
        return _assemble(ids, center, means, cov_joint, var_joint)


def sample_moments(panel: TimeSeriesPanel, mode: str = COMPLETE_CASES) -> CorrelationMatrix:
    """Estimate the correlation matrix of a panel's series.

    ``complete-cases`` uses only timestamps where every series is observed;
    ``pairwise-complete`` computes each entry on the joint sample of its
    pair, which keeps every correlation in [-1, 1] but may leave the
    assembled matrix short of positive semi-definite.

    The kernel is chosen by the mask. A fully observed panel, in either
    mode, and the complete-cases sub-panel go to the dense kernel:
    ``x @ x.T`` on the centered values, summed over column blocks, the
    complete columns gathered a block at a time, so that no N x M copy of
    the values is made. So on a panel without missing values the two
    modes agree exactly, by construction. A ragged panel in
    ``pairwise-complete`` mode goes to the masked kernel, whose joint counts
    are a float64 product of the mask, exact below 2**53 observations.

    Raises
    ------
    CoverageError
        Fewer than 2 complete timestamps, or a pair with < 2 joint rows.
    DegenerateSeriesError
        A series (or a pair's joint sample) is constant.
    InvalidMatrixError
        A covariance, or a product of two variances, overflows float64.
    """
    if mode not in ESTIMATION_MODES:
        raise ValueError(f"mode must be one of {ESTIMATION_MODES}, got {mode!r}")
    if panel.n_series < 2:
        raise ValueError("sample moments need at least two series")

    ids = panel.series_ids
    full = panel.observed_mask.all(axis=0)
    if full.all():
        corr = _dense_moments(ids, panel.values)
    elif mode == COMPLETE_CASES:
        n_full = int(full.sum())
        if n_full < 2:
            raise CoverageError(
                f"only {n_full} timestamps observed across all series; need at least 2"
            )
        corr = _dense_moments(ids, panel.values, np.flatnonzero(full))
    else:
        corr = _masked_moments(ids, panel.values)
    return CorrelationMatrix(corr, ids=ids)


def ols_residualize(
    panel: TimeSeriesPanel,
    factors: TimeSeriesPanel,
    *,
    keep_intercept: bool = False,
) -> TimeSeriesPanel:
    """Regress every series on a constant and the factor series and return
    the residuals.

    Each series is fit over the timestamps where it and all factors are
    observed. The fitted intercept is removed from the residual unless
    ``keep_intercept`` is set, which adds it back (a pure level shift with no
    effect on downstream correlations). The residuals are a fresh array,
    locked and kept by the returned panel with no copy.

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

    observed = panel.observed_mask
    out_values = np.full(panel.values.shape, np.nan)
    for i, sid in enumerate(panel.series_ids):
        joint = observed[i] & factor_obs
        n_joint = int(joint.sum())
        if n_joint < needed:
            raise CoverageError(
                f"series {sid!r} has {n_joint} rows jointly observed with the "
                f"factors; need at least {needed}"
            )
        design = np.column_stack([np.ones(n_joint), factors.values[:, joint].T])
        y = panel.values[i, joint]
        # lstsq's rank counts singular values as matrix_rank does, from the same SVD
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            raise CollinearFactorsError(
                f"rank-deficient factor design for series {sid!r}"
            )
        resid = y - design @ coef
        if keep_intercept:
            resid = resid + coef[0]
        out_values[i, joint] = resid
    return TimeSeriesPanel(panel.series_ids, _readonly(out_values))
