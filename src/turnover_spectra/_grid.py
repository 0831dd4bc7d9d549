"""The CSV text format of panels and square matrices: the one reader, the one
writer and the id rule that keeps the two in step.

Both layouts are a header row of ids and then rows of numbers. The reader
(:func:`read_grid`) returns the grid and leaves what a cell may hold to each
layout; the writer (:func:`write_csv`) owns the one rule from numbers to
artifact text; and :func:`checked_ids` refuses an id the reader would not
read back as written. A large file is parsed in byte-range parts, each by
:func:`_file_part`, all but the first in forked children (:func:`_fork`) that
send their rows back as raw float64 bytes; an open handle, or a path that is
not a regular file, is listed once and parsed from that list.
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import re
import signal
import warnings
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .errors import PanelFormatError

# Data bytes a CSV file must have per part before it is cut into parts parsed
# at once (see ``read_grid``). Measured on a 2-vCPU VM (Python 3.11, numpy
# 2.4.6): one core parses about 40 MB/s of panel text. A forked part costs
# about 2 ms of wall time to fork and reap plus 1.5 ms per MB of float64 sent
# back, but more over a whole ``analyze`` command. With numpy's BLAS on the
# command's one thread, so that a fork has no thread pool to shut down,
# 3.5-4.7 MB panels cut in two parts took 15 ms more CPU to read, and the
# command 30-35 ms more CPU, 30-37 ms more wall time and about 7,500 more
# page faults (copy-on-write after the fork; medians of 21 alternated
# runs). An 8 MiB part parses for about 0.2 s, some six times that cost.
_MIN_PART_BYTES = 8 << 20

# The characters besides the comma that make the ``csv`` writer quote a field.
_QUOTED = re.compile('["\r\n]').search

# a CSV grid's ids, values and empty-cell mask
_Grid = tuple[tuple[str, ...], np.ndarray, np.ndarray]


def read_grid(source: str | Path | IO[str]) -> _Grid:
    """The package's one CSV reader, for panels and square matrices alike.

    Returns the ids, the values (NaN at empty cells) and the mask of empty
    cells; what a cell may hold beyond that is each layout's own rule,
    applied by its caller.

    The reader's parts-and-decline rule, stated here once: the data rows are
    read by a fast pass in parts, each parsed by :func:`_parse_part`, which
    takes its rows whole or declines. A path to a regular file is cut into
    one byte-range part per usable CPU while each part keeps at least
    ``_MIN_PART_BYTES`` of data rows (:func:`_part_count`). Every byte range,
    the first included, is opened and parsed by :func:`_file_part`, and
    every one but the first in a short-lived child forked by :func:`_fork`,
    which sends its rows back as raw float64 bytes (:func:`_fast_file`); a
    smaller file, or any file on a platform without ``os.fork`` and
    ``os.sched_getaffinity``, is one part with no child. An open handle, or
    a path that is not a regular file (a pipe, say), is read once into a
    list of lines from where it stands, and that list is parsed as one part
    (:func:`_fast_grid`). When any part declines, or a child does not exit 0
    or sends a byte count that is not whole rows, the whole text goes to the
    per-cell reference :func:`_grid_from_rows`: a file's is read again from
    its path, and a handle's is the same list of lines. The list holds the
    whole text at once, so a large file is best passed by its path. The
    reference is the only one that raises on malformed input,
    except for a line the ``csv`` reader itself rejects (a field over its
    size limit), which raises ``PanelFormatError`` with the reader's line
    number.
    """
    if isinstance(source, (str, Path)):
        if not os.path.isfile(source):
            with open(source, "r", encoding="utf-8", newline="") as handle:
                return read_grid(handle)
        result = _fast_file(source)
        if result is not None:
            return result
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return _grid_from_rows(_csv_rows(handle))
    lines = list(source)
    return _fast_grid(iter(lines)) or _grid_from_rows(_csv_rows(lines))


def write_csv(dest: str | Path | IO[str], header: Iterable, rows: Iterable) -> None:
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
            return write_csv(handle, header, rows)
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


def checked_ids(ids: Iterable, n: int) -> tuple[str, ...]:
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


def _fast_pass(lines: Iterator[str], parts: Callable[[int], list[np.ndarray]]) -> _Grid | None:
    """The fast pass's header and its decline rule, which both fast paths
    share: the header is read with ``csv`` from the first lines, a leading
    byte-order mark dropped (:func:`_without_bom`), and ``parts(width)``
    then parses the data rows left in ``lines``. None when the reference has
    to decide: on a header it would refuse, on text that is not UTF-8, and
    wherever :func:`_parse_part`, a part's reading or :func:`_joined`
    declines."""
    try:
        header = _header(next(csv.reader(_without_bom(lines))))
        return _joined(header, parts(len(header)))
    except (StopIteration, csv.Error, PanelFormatError, ValueError):
        return None


def _fast_grid(lines: Iterator[str]) -> _Grid | None:
    """The fast pass over a stream of lines, its data lines one part."""
    return _fast_pass(lines, lambda width: [_parse_part(lines, width)])


def _fast_file(path: str | Path) -> _Grid | None:
    """The fast pass over a regular file, its data rows cut into byte-range
    parts as :func:`read_grid` describes (:func:`_file_parts`); None when
    the reference has to decide."""
    with open(path, "rb") as handle:
        stat = os.fstat(handle.fileno())
        parts = functools.partial(_file_parts, path, handle, stat)
        return _fast_pass(_decoded(handle, stat.st_size), parts)


def _file_parts(
    path: str | Path, handle: BinaryIO, stat: os.stat_result, width: int
) -> list[np.ndarray]:
    """The parts of the data rows from ``handle``'s position to the file's
    end, in file order; ``ValueError`` when any declines.

    Each byte range ends just after a ``\\n``, so that no line and no UTF-8
    character is split. Every range, the first included, is parsed by
    :func:`_file_part`: the first in this process while the others' children
    (:func:`_fork`) parse theirs. A child's pipe is read to its end and its
    bytes viewed as rows of ``width`` float64 columns. A part declines when
    it does not parse, when its child does not exit 0 or sends a byte count
    that is not whole rows, and when a fork or a read fails. Every child is
    reaped and every pipe closed before this returns, so the children's CPU
    time and memory are charged to this process (as ``os.wait4`` on it
    reports them).
    """
    start, end = handle.tell(), stat.st_size
    bounds = _bounds(handle, start, end, _part_count(end - start))
    children: list[tuple[int, BinaryIO]] = []
    grids = None
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork(path, stat, lo, hi, width))
        first = _file_part(path, stat, bounds[0], bounds[1], width)
        grids = [first, *(np.frombuffer(pipe.read()).reshape(-1, width) for _, pipe in children)]
    except OSError:
        raise ValueError("a fork or a read failed") from None
    finally:
        exited = _reap(children, kill=grids is None)
    if not all(exited):
        raise ValueError("a child did not exit 0")
    return grids


def _part_count(data_bytes: int) -> int:
    """One part per CPU this process may run on, as long as each keeps
    ``_MIN_PART_BYTES``; one part where the platform cannot fork or tell its
    CPUs."""
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


def _file_part(
    path: str | Path, stat: os.stat_result, lo: int, hi: int, width: int
) -> np.ndarray:
    """Bytes ``[lo, hi)`` of the file as a part of ``width`` columns: the one
    routine every part of :func:`_file_parts` is parsed by, in this process
    or in a forked child.

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


def _fork(
    path: str | Path, stat: os.stat_result, lo: int, hi: int, width: int
) -> tuple[int, BinaryIO]:
    """Fork a child that parses bytes ``[lo, hi)`` of the file with
    :func:`_file_part` and sends its rows back through a pipe; return the
    child's pid and the pipe's read end.

    The caller reads the pipe to its end and then reaps every child it
    forked with :func:`_reap`, on every path. The child runs on the
    caller's memory copy-on-write, so nothing is sent to it. It always
    leaves through ``os._exit``: it never returns into the caller, runs no
    atexit handler and flushes no buffer it inherited. It exits 0 only once
    all its rows are sent (:func:`_send`); when its part declines, it sends
    nothing and exits 1.

    From Python 3.12, fork warns in a process with threads, which numpy's
    BLAS pool starts at import unless it is held to one thread. The child
    calls no BLAS (it parses text and exits), so it takes no lock such a
    thread may hold, and that warning is silenced for the fork.
    """
    read_end, write_end = os.pipe()
    try:
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
            rows = _file_part(path, stat, lo, hi, width)
            with open(write_end, "wb") as pipe:
                _send(pipe, rows)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _send(pipe: BinaryIO, rows: np.ndarray) -> None:
    # the rows' float64 bytes as they are, in row order, with no copy and no framing
    pipe.write(rows)


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


def _grid_from_rows(rows: list[list[str]]) -> _Grid:
    """Per-cell reference parse of a numeric CSV grid, to the same result as
    the fast pass (:func:`read_grid`). Cells are stripped; an empty one reads
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
