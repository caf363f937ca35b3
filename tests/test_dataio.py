"""Malformed-input behaviour of the CSV reader: every failure names the file
and, where there is one, the line."""

from __future__ import annotations

import csv
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from rootkgd.cli import main
from rootkgd.dataio import _read_bulk, _read_rows, read_csv

#: CSV contents the reader must reject, and the message after the file name.
MALFORMED = {
    "non_numeric": ("a,b\n1,2\n3,x\n", ":3: not a number: 'x'"),
    "nan_cell": ("a,b\n1,2\n3,nan\n", ":3: not a finite number: 'nan'"),
    "inf_cell": ("a,b\n1,inf\n3,4\n", ":2: not a finite number: 'inf'"),
    "neg_inf_cell": ("a,b\n1,2\n\n-inf,4\n", ":4: not a finite number: '-inf'"),
    "short_row": ("a,b\n1,2\n3\n", ":3: expected 2 fields, got 1"),
    "trailing_comma": ("a,b\n1,2\n3,4,\n", ":3: expected 2 fields, got 3"),
    "empty_file": ("", ": file is empty"),
    "header_only": ("a,b\n", ": no data rows"),
    "duplicate_column": ("x1,x2,x1\n1,2,3\n", ": duplicate column name 'x1'"),
    "after_quoted_newline": ('a,b\n"1\n",2\n3,x\n', ":4: not a number: 'x'"),
    "unclosed_quote": ('a,b\n1,2\n"3,4\n', ":3: unclosed quote"),
    "unclosed_quote_last_field": ('a,b\n1,2\n3,"4\n', ":3: unclosed quote"),
    "unclosed_quote_last_row": ('a\n1\n"2\n', ":3: unclosed quote"),
    "unclosed_quote_no_final_newline": ('a,b\n1,2\n3,"4', ":3: unclosed quote"),
    "unclosed_quote_after_blank_line": ('a,b\n1,2\n\n"3,4\n', ":4: unclosed quote"),
    "text_after_closing_quote": ('a,b\n"1" ,2\n', ":2: ',' expected after '\"'"),
    "text_after_closing_quote_in_header": ('"a" ,b\n1,2\n', ":1: ',' expected after '\"'"),
    "text_after_closing_quote_then_unclosed": (
        'a,b\n1,2\n"3" ,"4', ":3: ',' expected after '\"'"
    ),
    "non_utf8_cell": (
        b"a,b\n1,2\n3,\xff\n",
        ":3: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte",
    ),
    "non_utf8_after_bom": (
        b"\xef\xbb\xbfa,b\n1,2\n3,\xff\n",
        ":3: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte",
    ),
    "non_utf8_header": (
        b"\xfea,b\n1,2\n",
        ":1: not UTF-8: 'utf-8' codec can't decode byte 0xfe in position 0: invalid start byte",
    ),
    "field_over_csv_limit": (
        "a,b\n1,2\n3,4\n" + "5" * 131073 + ",6\n", ":4: field larger than field limit (131072)"
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_is_named(tmp_path, case):
    text, message = MALFORMED[case]
    path = tmp_path / "data.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError) as excinfo:
        read_csv(path)
    assert str(excinfo.value) == f"{path}{message}"


def test_blank_lines_skipped_and_quoted_numbers_parse(tmp_path):
    # A blank line, empty or whitespace only, is skipped wherever it stands,
    # also as the unterminated last line.
    path = tmp_path / "data.csv"
    for blank in ("\n", "  \n", "\t\n", " \r\n"):
        last = blank.rstrip("\r\n")
        path.write_bytes(f'a,b\n{blank}"1.5",2\n{blank}3,"-4e1"\n{last}'.encode())
        data = read_csv(path)
        assert data.columns == ("a", "b")
        assert np.array_equal(data.values, [[1.5, 2.0], [3.0, -40.0]])
        path.write_bytes(f"a\n1\n{blank}2\n{last}".encode())
        assert np.array_equal(read_csv(path).values, [[1.0], [2.0]])


def test_byte_order_mark_is_skipped(tmp_path):
    # A UTF-8 byte-order mark is not part of the first column's name, whichever
    # parser reads the file.
    path = tmp_path / "data.csv"
    for text in ('\ufeffa,b\n1,2\n', '\ufeff"a",b\n1,2\n'):
        path.write_text(text, encoding="utf-8")
        data = read_csv(path)
        assert data.columns == ("a", "b")
        assert data.values.tolist() == [[1.0, 2.0]]


def test_diagnose_on_malformed_csv_is_named_error(tmp_path):
    runner = CliRunner()
    graph, model = tmp_path / "graph.json", tmp_path / "model.npz"
    for args in (
        ["synth", "--out", str(tmp_path), "--devices", "2"],
        ["fit", "--graph", str(graph), "--data", str(tmp_path / "normal.csv"),
         "--model", str(model)],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    bad = tmp_path / "bad.csv"
    for text, message in (
        ("a,b\n1,2\n3,x\n", ":3: not a number: 'x'"),
        ('a,b\n1,2\n"3" ,"4', ":3: ',' expected after '\"'"),
    ):
        bad.write_text(text)
        result = runner.invoke(
            main, ["diagnose", "--graph", str(graph), "--model", str(model), "--data", str(bad)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # handled: no traceback
        assert result.stderr == f"error: {bad}{message}\n"


def read_rows(path: Path):
    """The row-by-row reader alone, bypassing the bulk parse."""
    with path.open("rb") as fh:
        return _read_rows(path, fh)


finite = st.floats(allow_nan=False, allow_infinity=False)
#: Cells both parsers read.
good_cells = st.one_of(
    finite.map(repr),
    finite.map(lambda v: "%.9g" % v),
    finite.map(lambda v: f'"{v!r}"'),
    st.sampled_from([" 7 ", "\t8", "\xa09", "-0", ".5", "+1.", '"1\n"', '"\r\n2"']),
)
#: Cells only float() reads, non-finite ones, and ones neither parser reads.
#: A quoted field ends at its closing quote, so '"1" ' is malformed.
bad_cells = st.sampled_from([
    "1_000", "\u0661\u0662", "\uff13", "1e500", "nan", "inf", "-inf", "NaN", "", "x",
    "0x10", "1+0j", "\x00", "1\x002", "\x0c3", '"1" ', '"1"x', '"1,2"', '"1""2"', '""', '"3',
    '1"2',
])
endings = st.sampled_from(["\n", "\r\n", "\r"])
#: Free text over the characters that matter to either parser.
noise = st.text(alphabet='0123456789.-+eE_,"\n\r \t\x00\u0661xn', max_size=40)


@st.composite
def csv_texts(draw):
    """A header of one to three columns, then mostly well-formed rows with
    now and then a bad cell, a ragged row, or a blank or whitespace line."""
    width = draw(st.integers(1, 3))
    header = draw(st.sampled_from(
        [",".join("abc"[:width]), " , ".join(" abc"[1:width + 1]), "a," * (width - 1) + "a",
         ",".join(['"a" '] + list("bc"[:width - 1]))]
    ))
    if draw(st.integers(0, 9)) == 0:
        return header + "\n" + draw(noise)
    text = header + draw(endings)
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            text += draw(st.sampled_from(["\n", "\r\n", " \n", "\t\r\n", "\x0c\n"]))
            continue
        n = width + (kind == 1) * draw(st.sampled_from([-1, 1]))
        row = [draw(bad_cells if draw(st.integers(0, 14)) == 0 else good_cells) for _ in range(n)]
        text += ",".join(row) + draw(endings)
    return text


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_bulk_parse_matches_row_by_row(text):
    """read_csv returns the row-by-row reader's matrix bit for bit, or raises
    its exact message. Only quote-free files reach the bulk parse, so those
    pair the two parsers; a file with a quote checks the row reader alone."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode())
        try:
            expected = read_rows(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                read_csv(path)
            assert str(excinfo.value) == str(exc)
            return
        data = read_csv(path)
        assert data.columns == expected.columns
        assert data.values.shape == expected.values.shape
        assert data.values.tobytes() == expected.values.tobytes()


def through_row(text: str, k: int) -> str:
    """``text`` cut after its ``k``-th data record as the strict csv reader
    splits records (the header is none, nor is a blank or whitespace-only
    line); all of it when the reader finds fewer or fails first."""
    lines = io.StringIO(text, newline="").readlines()
    taken = 0

    def feed():
        nonlocal taken
        for line in lines:
            taken += 1
            yield line

    reader = csv.reader(feed(), strict=True)
    try:
        next(reader, None)
        for row in reader:
            if row and not (len(row) == 1 and row[0].isspace()):
                k -= 1
                if not k:
                    return "".join(lines[:taken])
    except csv.Error:
        pass
    return text


def outcome(path: Path, rows: int | None = None, skip: int | None = None):
    """The columns and value bytes of a read, or its error message after the
    file name."""
    try:
        data = read_csv(path, rows=rows, skip=skip)
    except ValueError as exc:
        return str(exc).removeprefix(str(path))
    return data.columns, data.values.shape, data.values.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(), k=st.integers(1, 7))
def test_bounded_read_is_the_full_read_of_the_first_rows(text, k):
    """read_csv(p, rows=k) reads the file as if it ended after its k-th data
    row: the full read's first k rows bit for bit when the full read
    succeeds, its error when that falls inside those rows, and nothing of
    what follows them."""
    with tempfile.TemporaryDirectory() as tmp:
        path, cut = Path(tmp) / "data.csv", Path(tmp) / "cut.csv"
        path.write_bytes(text.encode())
        cut.write_bytes(through_row(text, k).encode())
        bounded = outcome(path, k)
        assert bounded == outcome(cut)
        full = outcome(path)
        if not isinstance(full, str):
            expected = read_csv(path).values[:k]
            assert bounded == (full[0], expected.shape, expected.tobytes())
        elif cut.read_bytes() == path.read_bytes():
            assert bounded == full


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(), k=st.integers(1, 4), skip=st.integers(0, 4))
def test_window_read_is_the_bounded_read_after_the_skipped_rows(text, k, skip):
    """read_csv(p, rows=k, skip=s) is rows [s, s + k) of read_csv(p, rows=s + k)
    bit for bit when that succeeds, and names the row count when it holds
    fewer; with nothing skipped, it fails as that read does."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode())
        bounded = outcome(path, skip + k)
        window = outcome(path, k, skip)
        if isinstance(bounded, str):
            assert skip or window == bounded
            return
        expected = read_csv(path, rows=skip + k).values[skip:]
        if len(expected) == k:
            assert window == (bounded[0], expected.shape, expected.tobytes())
        else:
            assert window == (f"window exceeds dataset: rows [{skip}, {skip + k}) requested "
                              f"but only {bounded[1][0]} samples present")


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("cell", ["4", '"4"'])  # the bulk parse, or the csv reader
def test_skipped_rows_are_not_decoded_or_parsed(tmp_path, ending, cell):
    # A ragged, non-numeric or non-UTF-8 row before the window does not fail
    # the read; the window's rows, blank lines passed over, are the result.
    path = tmp_path / "data.csv"
    rows = [b"a,b", b"1,2,3", b"", b"x,\xff", b" ", b"5,6", f"3,{cell}".encode(), b"7,8"]
    path.write_bytes(ending.encode().join(rows) + ending.encode())
    assert read_csv(path, rows=2, skip=2).values.tolist() == [[5.0, 6.0], [3.0, 4.0]]
    assert read_csv(path, rows=1, skip=4).values.tolist() == [[7.0, 8.0]]
    for rows, skip in ((2, 4), (1, 5), (1, 50)):
        with pytest.raises(ValueError) as excinfo:
            read_csv(path, rows=rows, skip=skip)
        assert str(excinfo.value) == (f"window exceeds dataset: rows [{skip}, {skip + rows}) "
                                      "requested but only 5 samples present")
    with pytest.raises(ValueError, match=r":2: expected 2 fields, got 3$"):
        read_csv(path, rows=2, skip=0)
    with pytest.raises(ValueError, match=r":4: not UTF-8: .* position \d+: invalid start byte$"):
        read_csv(path, rows=1, skip=1)


def test_window_read_of_a_header_only_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n\n")
    for skip in (0, 3):
        with pytest.raises(ValueError, match=": no data rows$"):
            read_csv(path, rows=1, skip=skip)


def test_bounded_read_skips_blank_lines_in_the_window(tmp_path):
    # Blank and whitespace-only lines among the first k lines are no rows,
    # for the bulk parse and, with a quote in the window, the row reader.
    path = tmp_path / "data.csv"
    for cell in ("2", '"2"'):
        path.write_text(f"a,b\n\n1,{cell}\n  \n\t\r\n3,4\n \n5,6\n")
        full = read_csv(path).values
        for k in (1, 2, 3):
            data = read_csv(path, rows=k)
            assert data.values.tobytes() == full[:k].tobytes()
        assert read_csv(path, rows=2).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert read_csv(path, rows=9).values.tobytes() == full.tobytes()


def test_bounded_read_does_not_see_a_later_quote(tmp_path):
    # A quote after row k leaves the window to the bulk parse, and an
    # unclosed one after it does not fail the read.
    path = tmp_path / "data.csv"
    for tail, full_error in (('"5",6\n', None), ('"5,6\n', ":4: unclosed quote")):
        path.write_text("a,b\n1,2\n3,4\n" + tail)
        with path.open("rb") as fh:
            data = _read_bulk(fh, 2)
        assert data is not None and data.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert read_csv(path, rows=2).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        if full_error is None:
            assert read_csv(path).values[:2].tobytes() == data.values.tobytes()
        else:
            with pytest.raises(ValueError) as excinfo:
                read_csv(path)
            assert str(excinfo.value) == f"{path}{full_error}"


def test_bounded_read_needs_a_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n")
    for rows in (0, -1):
        with pytest.raises(ValueError, match=f"^rows must be at least 1, got {rows}$"):
            read_csv(path, rows=rows)
    for rows, skip in ((None, 0), (1, -1)):
        with pytest.raises(ValueError, match=f"^skip must be .* with rows, got {skip}$"):
            read_csv(path, rows=rows, skip=skip)


def test_bulk_parse_takes_well_formed_files(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b'a,b\r\n1.5, 2\r\n\r\n3 ,-4e1\r\n')
    with path.open("rb") as fh:
        data = _read_bulk(fh)
    assert data is not None and data.columns == ("a", "b")
    assert data.values.tobytes() == read_rows(path).values.tobytes()
    # A quote anywhere, even one the strict reader accepts, leaves the file
    # to the row-by-row reader.
    for text in (b'a,b\n1.5,"2"\n', b'"a",b\n1.5,2\n'):
        path.write_bytes(text)
        with path.open("rb") as fh:
            assert _read_bulk(fh) is None
        assert read_csv(path).values.tolist() == [[1.5, 2.0]]


@pytest.mark.parametrize(
    "field",
    ["0" * (csv.field_size_limit() + 1), '"' + " \n" * (csv.field_size_limit() // 2) + '1"'],
    ids=["long_line", "quoted_short_lines"],
)
def test_finite_field_over_csv_limit_is_named(tmp_path, field):
    # np.loadtxt reads both fields as finite numbers; the csv module's field
    # limit rejects them.
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n" + field + ",6\n")
    with pytest.raises(ValueError) as excinfo:
        read_csv(path)
    assert str(excinfo.value).startswith(f"{path}:")
    assert str(excinfo.value).endswith(": field larger than field limit (131072)")


def test_header_only_file_emits_no_warning(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=": no data rows$"):
            read_csv(path)
    assert caught == []
