"""Malformed-input behaviour of the CSV reader: every failure names the file
and, where there is one, the line."""

from __future__ import annotations

import numpy as np
import pytest
from click.testing import CliRunner

from rootkgd.cli import main
from rootkgd.dataio import read_csv

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
    path = tmp_path / "data.csv"
    path.write_text('a,b\n\n"1.5",2\n\n3,"-4e1"\n')
    data = read_csv(path)
    assert data.columns == ("a", "b")
    assert np.array_equal(data.values, [[1.5, 2.0], [3.0, -40.0]])


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
