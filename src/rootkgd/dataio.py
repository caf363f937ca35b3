"""CSV ingestion and writing for sample-per-row datasets."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator

import numpy as np

from .features import DataMatrix, check_unique


def read_csv(path: str | Path, rows: int | None = None, skip: int | None = None) -> DataMatrix:
    """Read a dataset: a header record (the strict csv reader's, so a name may
    be quoted), then one sample per line, split on ``,`` and converted as
    ``float()`` converts text (a quoted cell is not a number). Blank lines are
    passed over; the first bad line raises ``ValueError`` naming it. With
    ``rows``, the result is the full read's first ``rows`` rows and the rest of
    the file is not read; with ``skip`` as well, it is data rows ``[skip, skip
    + rows)``, which must all be present, and the rows before them are counted,
    not decoded."""
    if rows is not None and rows < 1:
        raise ValueError(f"rows must be at least 1, got {rows}")
    if skip is not None and (rows is None or skip < 0):
        raise ValueError(f"skip must be at least 0 and come with rows, got {skip}")
    path = Path(path)
    with path.open("rb") as fh:
        lines = enumerate(_lines(fh), 1)
        reader = csv.reader((_decode(path, n, *line) for n, line in lines), strict=True)
        try:
            header = next(reader, None)  # reads no line after the record's last
        except csv.Error as exc:
            if str(exc) == "unexpected end of data":
                raise ValueError(f"{path}:1: unclosed quote") from None
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        if header is None:
            raise ValueError(f"{path}: file is empty")
        columns = tuple(name.strip() for name in header)
        try:
            check_unique(columns)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        values = np.empty((16, len(columns)))  # doubled when full, so at most 2x the result
        parsed = skipped = 0
        for number, (offset, line) in lines:
            first = line.lstrip()[:1]  # only a line that may be Unicode whitespace is decoded
            if not first or not b" " < first < b"\x7f" and line.decode(errors="replace").isspace():
                continue  # a blank line
            if skipped < (skip or 0):
                skipped += 1
                continue
            if parsed == len(values):
                values.resize((2 * parsed, len(columns)), refcheck=False)  # no view exists
            values[parsed] = _row(path, number, offset, line, len(columns))
            parsed += 1
            if parsed == rows:
                break
    if not parsed and not skipped:
        raise ValueError(f"{path}: no data rows")
    if skip is not None and parsed < rows:
        raise ValueError(f"{path}: window exceeds dataset: rows [{skip}, {skip + rows}) "
                         f"requested but only {skipped + parsed} samples present")
    values.resize((parsed, len(columns)), refcheck=False)
    return DataMatrix(values, columns)


def _lines(fh) -> Iterator[tuple[int, bytes]]:
    r"""Each line of ``fh`` (ending at ``\n``, ``\r\n`` or ``\r``) after its byte offset."""
    offset = 0
    for chunk in fh:  # binary lines end at \n only; a \r before a line's end is rare
        cr = chunk.find(b"\r")
        split = cr >= 0 and chunk[cr:] not in (b"\r", b"\r\n")
        for line in chunk.splitlines(keepends=True) if split else (chunk,):
            yield offset, line
            offset += len(line)


def _decode(path: Path, number: int, offset: int, line: bytes) -> str:
    """Line ``number`` as UTF-8 less line 1's BOM, a bad byte worded as for the whole file."""
    try:
        return line.decode("utf-8").removeprefix("\ufeff" if number == 1 else "")
    except UnicodeDecodeError as exc:
        start, end = offset + exc.start, offset + exc.end - 1
        where = (f"byte 0x{line[exc.start]:02x} in position {start}" if start == end
                 else f"bytes in position {start}-{end}")
        raise ValueError(f"{path}:{number}: not UTF-8: 'utf-8' codec can't decode "
                         f"{where}: {exc.reason}") from None


def _row(path: Path, number: int, offset: int, line: bytes, width: int) -> np.ndarray:
    """The values of data line ``number``: numpy converts an ASCII line's bytes, its
    end included, as ``float()`` converts text; any other line is decoded first."""
    cells = line.split(b",") if line.isascii() else _decode(path, number, offset, line).split(",")
    if len(cells) != width:
        raise ValueError(f"{path}:{number}: expected {width} fields, got {len(cells)}")
    try:
        values = np.array(cells, dtype=float)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    texts = line.decode().rstrip("\r\n").split(",")
    for text in texts:  # the first cell that is not a number, else the first not finite
        try:
            float(text)
        except ValueError:
            raise ValueError(f"{path}:{number}: not a number: {text!r}") from None
    bad = next(text for text in texts if not np.isfinite(float(text)))
    raise ValueError(f"{path}:{number}: not a finite number: {bad!r}")


def write_csv(data: DataMatrix, path: str | Path) -> None:
    """Write a dataset with full-precision floats (round-trips exactly)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.columns)
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])
