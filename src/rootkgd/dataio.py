"""CSV ingestion and writing for sample-per-row datasets."""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import numpy as np

from .features import DataMatrix, check_unique


def read_csv(path: str | Path) -> DataMatrix:
    """Read a dataset: first row is the column header, one sample per row.

    Parsed in bulk by ``np.loadtxt``, else row by row (see ``_read_bulk``)."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        return _read_bulk(fh) or _read_rows(path, fh)


def _read_bulk(fh) -> DataMatrix | None:
    """The dataset parsed by ``np.loadtxt``, or None where ``_read_rows``, the
    author of every error message, must read it: on any exception or warning
    (DataMatrix rejects a column-count mismatch and non-finite values), a line
    that is not one whole sample, or one longer than the csv field limit."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            columns = [name.strip() for name in next(csv.reader(fh))]
            lines = fh.readlines()
            values = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
            data = DataMatrix(values, columns)
    except Exception:
        return None
    samples = sum(1 for line in lines if line.strip("\r\n"))
    fits = max(map(len, lines)) <= csv.field_size_limit()
    return data if fits and samples == data.n_samples else None


def _read_rows(path: Path, fh) -> DataMatrix:
    """The dataset parsed row by row from the start of ``fh``."""
    fh.seek(0)
    reader = csv.reader(fh)
    try:
        columns, rows = _parse(path, reader)
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise _decode_error(path) from None
    return DataMatrix(np.asarray(rows, dtype=float), columns)


def _parse(path: Path, reader) -> tuple[tuple[str, ...], list[list[float]]]:
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: file is empty")
    columns = tuple(name.strip() for name in header)
    try:
        check_unique(columns)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    rows: list[list[float]] = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(columns):
            raise ValueError(
                f"{path}:{reader.line_num}: expected {len(columns)} fields, got {len(row)}"
            )
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            bad = next(c for c in row if not _is_float(c))
            raise ValueError(f"{path}:{reader.line_num}: not a number: {bad!r}") from None
        bad = next((c for c, v in zip(row, values) if not math.isfinite(v)), None)
        if bad is not None:
            raise ValueError(f"{path}:{reader.line_num}: not a finite number: {bad!r}")
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return columns, rows


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
