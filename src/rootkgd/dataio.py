"""CSV ingestion and writing for sample-per-row datasets."""

from __future__ import annotations

import csv
import math
import warnings
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .features import DataMatrix, check_unique


def read_csv(path: str | Path, rows: int | None = None, skip: int | None = None) -> DataMatrix:
    """Read a dataset: first row is the column header, one sample per row.

    With ``rows``, the header and at most that many data rows are parsed and
    the rest of the file is not read: the result is the full read's first
    ``rows`` rows, and a malformed row after them is never seen. With ``skip``
    as well, the result is data rows ``[skip, skip + rows)``, which must all
    be present; the rows before them are counted, not decoded or parsed.
    Parsed in bulk by ``np.loadtxt``, else row by row (see ``_read_bulk``)."""
    if rows is not None and rows < 1:
        raise ValueError(f"rows must be at least 1, got {rows}")
    if skip is not None and (rows is None or skip < 0):
        raise ValueError(f"skip must be at least 0 and come with rows, got {skip}")
    path = Path(path)
    with path.open("rb") as fh:
        return _read_bulk(fh, rows, skip) or _read_rows(path, fh, rows, skip)


def _lines(fh) -> Iterator[bytes]:
    r"""The lines of binary ``fh`` with their endings, split where text mode
    with ``newline=""`` splits them: at ``\n``, ``\r\n`` and a bare ``\r``."""
    for line in fh:
        yield from line.splitlines(keepends=True)


def _records(lines: Iterator[bytes]) -> Iterator[bytes]:
    """The lines that are not blank; a quote or a line longer than the csv field
    limit raises ``ValueError``, so each line passed is one record to both parsers."""
    limit = csv.field_size_limit()
    for line in lines:
        if b'"' in line or len(line) > limit:
            raise ValueError("a quote or a long line: left to the csv reader")
        first = line.lstrip()[:1]  # only a line that may be Unicode whitespace is decoded
        if first and (b" " < first < b"\x7f" or not line.decode("utf-8", "replace").isspace()):
            yield line


def _read_bulk(fh, rows: int | None = None, skip: int | None = None) -> DataMatrix | None:
    """The dataset parsed by ``np.loadtxt``, or None where ``_read_rows``, the
    author of every error message, must read it: on any exception or warning
    (DataMatrix rejects a column-count mismatch and non-finite values), a quote
    or a line longer than the csv field limit anywhere in the lines read, and
    a window short of ``rows`` after ``skip``."""
    start = skip or 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lines = _lines(fh)
            header = next(lines, b"").decode("utf-8").removeprefix("\ufeff")
            if '"' in header:
                return None
            columns = [name.strip() for name in next(csv.reader([header]))]
            window = islice(_records(lines), start, None if rows is None else start + rows)
            values = np.loadtxt(map(bytes.decode, window), delimiter=",", comments=None, ndmin=2)
            data = DataMatrix(values, columns)
    except Exception:
        return None
    return None if skip is not None and data.n_samples < rows else data


def _read_rows(path: Path, fh, rows: int | None = None, skip: int | None = None) -> DataMatrix:
    """The dataset parsed row by row from the start of binary ``fh`` by the
    strict csv reader, so a quoted field ends at its closing quote. The first
    ``skip`` records are split into fields, with bytes that are not UTF-8
    kept as they are, but not parsed; it stops after ``rows`` more."""
    fh.seek(0)
    errors = "strict"

    def text() -> Iterator[str]:
        offset = 0
        for number, line in enumerate(_lines(fh), 1):
            try:
                yield line.decode("utf-8", errors).removeprefix("\ufeff" if number == 1 else "")
            except UnicodeDecodeError as exc:  # worded as a decode of the whole file words it
                start, end = offset + exc.start, offset + exc.end - 1
                where = (f"byte 0x{line[exc.start]:02x} in position {start}" if start == end
                         else f"bytes in position {start}-{end}")
                raise ValueError(f"{path}:{number}: not UTF-8: 'utf-8' codec can't decode "
                                 f"{where}: {exc.reason}") from None
            offset += len(line)

    reader = csv.reader(text(), strict=True)
    line = 0  # the last line of the last complete record
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: file is empty")
        columns = tuple(name.strip() for name in header)
        try:
            check_unique(columns)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        parsed: list[list[float]] = []
        skipped, line = 0, reader.line_num
        errors = "surrogateescape" if skip else "strict"
        for row in reader:
            line = reader.line_num
            if not row or (len(row) == 1 and row[0].isspace()):
                continue  # a blank line: empty or whitespace only
            if skipped < (skip or 0):
                skipped += 1
                errors = "surrogateescape" if skipped < skip else "strict"
                continue
            if len(row) != len(columns):
                raise ValueError(f"{path}:{line}: expected {len(columns)} fields, got {len(row)}")
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                bad = next(c for c in row if not _is_float(c))
                raise ValueError(f"{path}:{line}: not a number: {bad!r}") from None
            bad = next((c for c, v in zip(row, values) if not math.isfinite(v)), None)
            if bad is not None:
                raise ValueError(f"{path}:{line}: not a finite number: {bad!r}")
            parsed.append(values)
            if len(parsed) == rows:
                break
    except csv.Error as exc:
        if str(exc) == "unexpected end of data":
            raise ValueError(f"{path}:{line + 1}: unclosed quote") from None
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not parsed and not skipped:
        raise ValueError(f"{path}: no data rows")
    if skip is not None and len(parsed) < rows:
        raise ValueError(f"window exceeds dataset: rows [{skip}, {skip + rows}) requested but "
                         f"only {skipped + len(parsed)} samples present")
    return DataMatrix(np.asarray(parsed, dtype=float), columns)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def write_csv(data: DataMatrix, path: str | Path) -> None:
    """Write a dataset with full-precision floats (round-trips exactly)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.columns)
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])
