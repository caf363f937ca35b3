"""Malformed-input behaviour of the CSV reader: every failure names the file
and, where there is one, the line."""

from __future__ import annotations

import csv
import io
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import read_rows

from rootkgd.cli import main
from rootkgd.dataio import read_csv, write_csv
from rootkgd.features import DataMatrix

#: CSV contents the reader must reject, and the message after the file name.
MALFORMED = {
    "non_numeric": ("a,b\n1,2\n3,x\n", ":3: not a number: 'x'"),
    "nan_cell": ("a,b\n1,2\n3,nan\n", ":3: not a finite number: 'nan'"),
    "inf_cell": ("a,b\n1,inf\n3,4\n", ":2: not a finite number: 'inf'"),
    # float() strips no ASCII separator control (\x1c-\x1f), though isspace() holds.
    "separator_control_cell": ("a,b\n1,2\n\x1f3,4\n", ":3: not a number: '\\x1f3'"),
    "neg_inf_cell": ("a,b\n1,2\n\n-inf,4\n", ":4: not a finite number: '-inf'"),
    "short_row": ("a,b\n1,2\n3\n", ":3: expected 2 fields, got 1"),
    "trailing_comma": ("a,b\n1,2\n3,4,\n", ":3: expected 2 fields, got 3"),
    "empty_file": ("", ": file is empty"),
    "header_only": ("a,b\n", ": no data rows"),
    "duplicate_column": ("x1,x2,x1\n1,2,3\n", ": duplicate column name 'x1'"),
    # A quote is a character of a data cell, which is then not a number, and
    # joins no lines; only the header is a csv record, whose quotes are read.
    "after_quoted_newline": ('a,b\n"1\n",2\n3,x\n', ":2: expected 2 fields, got 1"),
    "unclosed_quote": ('a,b\n1,2\n"3,4\n', ":3: not a number: '\"3'"),
    "unclosed_quote_last_field": ('a,b\n1,2\n3,"4\n', ":3: not a number: '\"4'"),
    "unclosed_quote_last_row": ('a\n1\n"2\n', ":3: not a number: '\"2'"),
    "unclosed_quote_no_final_newline": ('a,b\n1,2\n3,"4', ":3: not a number: '\"4'"),
    "unclosed_quote_after_blank_line": ('a,b\n1,2\n\n"3,4\n', ":4: not a number: '\"3'"),
    "unclosed_quote_in_header": ('"a,b\n1,2\n', ":1: unclosed quote"),
    "text_after_closing_quote": ('a,b\n"1" ,2\n', ":2: not a number: '\"1\" '"),
    "text_after_closing_quote_in_header": ('"a" ,b\n1,2\n', ":1: ',' expected after '\"'"),
    "text_after_closing_quote_then_unclosed": (
        'a,b\n1,2\n"3" ,"4', ":3: not a number: '\"3\" '"
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
        "5" * 131073 + ",b\n1,2\n", ":1: field larger than field limit (131072)"
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


def test_blank_lines_skipped_and_quoted_numbers_rejected(tmp_path):
    # A blank line, empty or whitespace only, is skipped wherever it stands,
    # also as the unterminated last line. A quoted number is not a number.
    path = tmp_path / "data.csv"
    for blank in ("\n", "  \n", "\t\n", " \r\n", "\xa0\n", "\x1c\n"):
        last = blank.rstrip("\r\n")
        path.write_bytes(f"a,b\n{blank}1.5,2\n{blank}3,-4e1\n{last}".encode())
        data = read_csv(path)
        assert data.columns == ("a", "b")
        assert np.array_equal(data.values, [[1.5, 2.0], [3.0, -40.0]])
        path.write_bytes(f"a\n1\n{blank}2\n{last}".encode())
        assert np.array_equal(read_csv(path).values, [[1.0], [2.0]])
        path.write_bytes(f'a,b\n{blank}"1.5",2\n'.encode())
        with pytest.raises(ValueError) as excinfo:
            read_csv(path)
        assert str(excinfo.value) == f"{path}:3: not a number: '\"1.5\"'"


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
        ('a,b\n1,2\n"3" ,"4', ":3: not a number: '\"3\" '"),
    ):
        bad.write_text(text)
        result = runner.invoke(
            main, ["diagnose", "--graph", str(graph), "--model", str(model), "--data", str(bad)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # handled: no traceback
        assert result.stderr == f"error: {bad}{message}\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
#: Cells that read as finite numbers.
good_cells = st.one_of(
    finite.map(repr),
    finite.map(lambda v: "%.9g" % v),
    st.sampled_from([" 7 ", "\t8", "\xa09", "-0", ".5", "+1."]),
)
#: Cells that are rare in data files: ones float() reads only as text, past
#: an underscore or a form feed, non-finite ones, and ones it does not read.
bad_cells = st.sampled_from([
    "1_000", "\u0661\u0662", "\uff13", "1e500", "nan", "inf", "-inf", "NaN", "", "x",
    "0x10", "1+0j", "\x00", "1\x002", "\x0c3", "\x1c3", "3\x1f",
])
#: Cells with a quote: none is a number, and none joins lines.
quoted_cells = st.one_of(
    finite.map(lambda v: f'"{v!r}"'),
    st.sampled_from(['"1\n"', '"\r\n2"', '"1" ', '"1"x', '"1,2"', '"1""2"', '""', '"3', '1"2']),
)
endings = st.sampled_from(["\n", "\r\n", "\r"])
#: Free text over the characters that matter to the reader.
NOISE = '0123456789.-+eE_,\n\r \t\x00\u0661xn'


@st.composite
def csv_texts(draw, quotes: bool = True):
    """A header of one to three columns, then mostly well-formed rows with
    now and then a bad or (with ``quotes``) quoted cell, a ragged row, or a
    blank or whitespace line."""
    width = draw(st.integers(1, 3))
    header = draw(st.sampled_from(
        [",".join("abc"[:width]), " , ".join(" abc"[1:width + 1]), "a," * (width - 1) + "a",
         ",".join(['"a" '] + list("bc"[:width - 1]))]
    ))
    if draw(st.integers(0, 9)) == 0:
        alphabet = NOISE + '"' if quotes else NOISE
        return header + "\n" + draw(st.text(alphabet=alphabet, max_size=40))
    text = header + draw(endings)
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            text += draw(st.sampled_from(["\n", "\r\n", " \n", "\t\r\n", "\x0c\n"]))
            continue
        n = width + (kind == 1) * draw(st.sampled_from([-1, 1]))
        row = []
        for _ in range(n):
            pick = draw(st.integers(0, 19))
            row.append(draw(bad_cells if pick < 2 else quoted_cells if quotes and pick == 2
                            else good_cells))
        text += ",".join(row) + draw(endings)
    return text


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(quotes=False), k=st.integers(1, 7))
def test_bulk_parse_matches_row_by_row(text, k):
    """On files whose data lines hold no quote, read_csv returns the strict
    csv reader's matrix (``oracles.read_rows``) bit for bit, or raises its
    exact message, in a full read and a read of the first k rows."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode())
        for rows in (None, k):
            try:
                expected = read_rows(path, rows)
            except ValueError as exc:
                # Before Python 3.11 the csv module refuses a NUL anywhere.
                assume(not str(exc).endswith(": line contains NUL"))
                with pytest.raises(ValueError) as excinfo:
                    read_csv(path, rows=rows)
                assert str(excinfo.value) == str(exc)
                continue
            data = read_csv(path, rows=rows)
            assert data.columns == expected.columns
            assert data.values.shape == expected.values.shape
            assert data.values.tobytes() == expected.values.tobytes()


def through_row(text: str, k: int) -> str:
    """``text`` cut after its ``k``-th data line (the header, one line here,
    is none, nor is a blank or whitespace-only line); all of it when it has
    fewer."""
    lines = io.StringIO(text, newline="").readlines()
    data = [i for i, line in enumerate(lines) if i and line.strip()]
    return "".join(lines[: data[k - 1] + 1]) if len(data) >= k else text


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
            assert window == (f": window exceeds dataset: rows [{skip}, {skip + k}) requested "
                              f"but only {bounded[1][0]} samples present")


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("cell", ["4", '"4"'])
def test_skipped_rows_are_not_decoded_or_parsed(tmp_path, ending, cell):
    # A ragged, non-numeric or non-UTF-8 row before the window does not fail
    # the read; the window's rows, blank lines passed over, are the result.
    # A quoted cell in the window is not a number.
    path = tmp_path / "data.csv"
    rows = [b"a,b", b"1,2,3", b"", b"x,\xff", b" ", b"5,6", f"3,{cell}".encode(), b"7,8"]
    path.write_bytes(ending.encode().join(rows) + ending.encode())
    if cell == "4":
        assert read_csv(path, rows=2, skip=2).values.tolist() == [[5.0, 6.0], [3.0, 4.0]]
    else:
        with pytest.raises(ValueError) as excinfo:
            read_csv(path, rows=2, skip=2)
        assert str(excinfo.value) == f"{path}:7: not a number: '\"4\"'"
    assert read_csv(path, rows=1, skip=4).values.tolist() == [[7.0, 8.0]]
    for rows, skip in ((2, 4), (1, 5), (1, 50)):
        with pytest.raises(ValueError) as excinfo:
            read_csv(path, rows=rows, skip=skip)
        assert str(excinfo.value) == (f"{path}: window exceeds dataset: rows [{skip}, "
                                      f"{skip + rows}) requested but only 5 samples present")
    with pytest.raises(ValueError, match=r":2: expected 2 fields, got 3$"):
        read_csv(path, rows=2, skip=0)
    with pytest.raises(ValueError, match=r":4: not UTF-8: .* position \d+: invalid start byte$"):
        read_csv(path, rows=1, skip=1)


def test_skipped_quotes_join_no_lines(tmp_path):
    # A quote before the window is a character of a skipped line: the lines
    # after it are counted one by one, as the csv reader counted none of them.
    path = tmp_path / "data.csv"
    path.write_text('a,b\n"1,2\n3,4\n5,6"\n7,8\n')
    assert read_csv(path, rows=1, skip=3).values.tolist() == [[7.0, 8.0]]


def test_window_read_of_a_header_only_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n\n")
    for skip in (0, 3):
        with pytest.raises(ValueError, match=": no data rows$"):
            read_csv(path, rows=1, skip=skip)


def test_bounded_read_skips_blank_lines_in_the_window(tmp_path):
    # Blank and whitespace-only lines among the first k lines are no rows.
    path = tmp_path / "data.csv"
    path.write_text("a,b\n\n1,2\n  \n\t\r\n3,4\n \n5,6\n")
    full = read_csv(path).values
    for k in (1, 2, 3):
        data = read_csv(path, rows=k)
        assert data.values.tobytes() == full[:k].tobytes()
    assert read_csv(path, rows=2).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert read_csv(path, rows=9).values.tobytes() == full.tobytes()


def test_bounded_read_does_not_see_a_later_quote(tmp_path):
    # A quoted cell after row k is never read, so it fails only the full read.
    path = tmp_path / "data.csv"
    for tail, bad in (('"5",6\n', '"5"'), ('"5,6\n', '"5')):
        path.write_text("a,b\n1,2\n3,4\n" + tail)
        assert read_csv(path, rows=2).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(ValueError) as excinfo:
            read_csv(path)
        assert str(excinfo.value) == f"{path}:4: not a number: {bad!r}"


def test_bounded_read_needs_a_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n")
    for rows in (0, -1):
        with pytest.raises(ValueError, match=f"^rows must be at least 1, got {rows}$"):
            read_csv(path, rows=rows)
    for rows, skip in ((None, 0), (1, -1)):
        with pytest.raises(ValueError, match=f"^skip must be .* with rows, got {skip}$"):
            read_csv(path, rows=rows, skip=skip)


@pytest.mark.parametrize(
    "field",
    ["0" * (csv.field_size_limit() + 1), '"' + " \n" * (csv.field_size_limit() // 2) + '1"'],
    ids=["long_line", "quoted_short_lines"],
)
def test_finite_field_over_csv_limit_is_named(tmp_path, field):
    # The header is a csv record, so the csv module's field limit holds for a
    # column name; a data cell has no such limit.
    path = tmp_path / "data.csv"
    path.write_text(field + ",b\n1,2\n")
    with pytest.raises(ValueError) as excinfo:
        read_csv(path)
    assert str(excinfo.value).startswith(f"{path}:")
    assert str(excinfo.value).endswith(": field larger than field limit (131072)")
    path.write_text("a,b\n1,2\n" + "0" * (csv.field_size_limit() + 1) + ",6\n")
    assert read_csv(path).values.tolist() == [[1.0, 2.0], [0.0, 6.0]]


def test_header_only_file_emits_no_warning(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=": no data rows$"):
            read_csv(path)
    assert caught == []


def test_parse_peak_memory(tmp_path):
    # The rows are parsed into one buffer that doubles when full and is cut
    # to size: the parse holds at most twice the matrix it returns.
    rng = np.random.default_rng(7)
    path = tmp_path / "data.csv"
    write_csv(DataMatrix(rng.normal(size=(1100, 300)), [f"c{i}" for i in range(300)]), path)
    read_csv(path)  # first-call allocations are not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        data = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert data.values.shape == (1100, 300)
    assert peak <= 2 * data.values.nbytes
