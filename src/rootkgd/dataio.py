"""CSV ingestion and writing for sample-per-row datasets."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .features import DataMatrix


def read_csv(path: str | Path) -> DataMatrix:
    """Read a dataset: first row is the column header, one sample per row."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        columns = tuple(name.strip() for name in header)
        seen: set[str] = set()
        for name in columns:
            if name in seen:
                raise ValueError(f"{path}: duplicate column name {name!r}")
            seen.add(name)
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(columns)} fields, got {len(row)}"
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                bad = next(c for c in row if not _is_float(c))
                raise ValueError(f"{path}:{lineno}: not a number: {bad!r}") from None
            # A finite row sum proves every cell finite, so only a row whose
            # sum is nan or inf (or overflows) is scanned cell by cell.
            if not math.isfinite(sum(values)):
                bad_cells = [c for c, v in zip(row, values) if not math.isfinite(v)]
                if bad_cells:
                    raise ValueError(f"{path}:{lineno}: not a finite number: {bad_cells[0]!r}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return DataMatrix(np.asarray(rows, dtype=float), columns)


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
