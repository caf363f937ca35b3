"""Malformed-input behaviour of the CSV reader: every failure names the file
and, where there is one, the line."""

from __future__ import annotations

import csv
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
    "non_utf8_cell": (
        b"a,b\n1,2\n3,\xff\n",
        ":3: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte",
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


def test_diagnose_on_malformed_csv_is_named_error(tmp_path):
    runner = CliRunner()
    graph, model = tmp_path / "graph.json", tmp_path / "model.json"
    for args in (
        ["synth", "--out", str(tmp_path), "--devices", "2", "--normal-samples", "50"],
        ["fit", "--graph", str(graph), "--data", str(tmp_path / "normal.csv"),
         "--model", str(model)],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,x\n")
    result = runner.invoke(
        main, ["diagnose", "--graph", str(graph), "--model", str(model), "--data", str(bad)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # handled: no traceback
    assert result.stderr == f"error: {bad}:3: not a number: 'x'\n"


def read_rows(path: Path):
    """The row-by-row reader alone, bypassing the bulk parse."""
    with path.open(newline="", encoding="utf-8") as fh:
        return _read_rows(path, fh)


finite = st.floats(allow_nan=False, allow_infinity=False)
#: Cells both parsers read.
good_cells = st.one_of(
    finite.map(repr),
    finite.map(lambda v: "%.9g" % v),
    finite.map(lambda v: f'"{v!r}"'),
    st.sampled_from([" 7 ", "\t8", "\xa09", "-0", ".5", "+1.", '"1" ', '"1\n"', '"\r\n2"']),
)
#: Cells only float() reads, non-finite ones, and ones neither parser reads.
bad_cells = st.sampled_from([
    "1_000", "\u0661\u0662", "\uff13", "1e500", "nan", "inf", "-inf", "NaN", "", "x",
    "0x10", "1+0j", "\x00", "1\x002", "\x0c3", '"1"x', '"1,2"', '"1""2"', '""', '"3', '1"2',
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
        [",".join("abc"[:width]), " , ".join(" abc"[1:width + 1]), "a," * (width - 1) + "a"]
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
    its exact message."""
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


def test_bulk_parse_takes_well_formed_files(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b'a,b\r\n1.5,"2"\r\n\r\n"3" ,-4e1\r\n')
    with path.open(newline="", encoding="utf-8") as fh:
        data = _read_bulk(fh)
    assert data is not None and data.columns == ("a", "b")
    assert data.values.tobytes() == read_rows(path).values.tobytes()


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
