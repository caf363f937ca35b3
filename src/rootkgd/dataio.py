"""CSV ingestion and writing for sample-per-row datasets."""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import numpy as np

from .features import DataMatrix, check_unique


def read_csv(path: str | Path, rows: int | None = None) -> DataMatrix:
    """Read a dataset: first row is the column header, one sample per row.

    With ``rows``, the header and at most that many data rows are parsed and
    the rest of the file is not read: the result is the full read's first
    ``rows`` rows, and a malformed row after them is never seen. Parsed in
    bulk by ``np.loadtxt``, else row by row (see ``_read_bulk``)."""
    if rows is not None and rows < 1:
        raise ValueError(f"rows must be at least 1, got {rows}")
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        return _read_bulk(fh, rows) or _read_rows(path, fh, rows)


def _head(fh, rows: int | None) -> list[str]:
    """The lines of ``fh`` through its ``rows``-th data row (all with None),
    taken lazily: the first line is the header, and a blank or
    whitespace-only line is no row."""
    if rows is None:
        return fh.readlines()
    lines = [next(fh, "")]
    for line in fh:
        lines.append(line)
        if not line.isspace():
            rows -= 1
            if not rows:
                break
    return lines


def _read_bulk(fh, rows: int | None = None) -> DataMatrix | None:
    """The dataset parsed by ``np.loadtxt``, or None where ``_read_rows``, the
    author of every error message, must read it: on any exception or warning
    (DataMatrix rejects a column-count mismatch and non-finite values), a quote
    anywhere in the lines read, or a line longer than the csv field limit.
    Without quotes, each line is one record to both parsers."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lines = _head(fh, rows)
            if any('"' in line for line in lines):
                return None
            columns = [name.strip() for name in next(csv.reader(lines[:1]))]
            values = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
            data = DataMatrix(values, columns)
    except Exception:
        return None
    return data if max(map(len, lines[1:])) <= csv.field_size_limit() else None


def _read_rows(path: Path, fh, rows: int | None = None) -> DataMatrix:
    """The dataset parsed row by row from the start of ``fh`` by the strict csv
    reader, so a quoted field ends at its closing quote; with ``rows``, it
    stops after that many data rows."""
    fh.seek(0)
    reader = csv.reader(fh, strict=True)
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
        line = reader.line_num
        for row in reader:
            line = reader.line_num
            if not row or (len(row) == 1 and row[0].isspace()):
                continue  # a blank line: empty or whitespace only
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
    except UnicodeDecodeError:
        raise _decode_error(path) from None
    if not parsed:
        raise ValueError(f"{path}: no data rows")
    return DataMatrix(np.asarray(parsed, dtype=float), columns)


def _decode_error(path: Path) -> ValueError:
    """The error for a file that is not UTF-8, naming the first bad line."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[: exc.start].count(b"\n") + 1
        return ValueError(f"{path}:{line}: not UTF-8: {exc}")
    return ValueError(f"{path}: not UTF-8")


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
