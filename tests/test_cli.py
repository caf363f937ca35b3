from __future__ import annotations

import gc
import hashlib
import json
import logging
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import rootkgd
from rootkgd import features, pipeline
from rootkgd.cli import main
from rootkgd.config import DiagnosisConfig
from rootkgd.dataio import read_csv, write_csv
from rootkgd.features import DataMatrix, load_model
from rootkgd.kgraph import load_graph
from rootkgd.pipeline import bound_columns, run_diagnose, run_fit
from rootkgd.scoring import report_dict

from conftest import read_members, write_members

FIXTURES = Path(__file__).parent / "fixtures"

#: Config keys that once existed and were removed; each must now fail as an
#: unknown key.
REMOVED_CONFIG_KEYS = (
    "jobs", "constant_s0", "init_mode", "rbc_statistic", "normalization_order",
    "candidate_filter", "column_bindings",
)


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def plant_dir(tmp_path_factory, runner):
    out = tmp_path_factory.mktemp("plant")
    result = runner.invoke(
        main,
        ["synth", "--out", str(out), "--seed", "5", "--devices", "4"],
    )
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    return {"dir": out, "manifest": manifest}


@pytest.fixture(scope="module")
def model_path(plant_dir, tmp_path_factory, runner):
    path = tmp_path_factory.mktemp("model") / "model.npz"
    result = runner.invoke(
        main,
        ["fit", "--graph", str(plant_dir["dir"] / "graph.json"),
         "--data", str(plant_dir["dir"] / "normal.csv"),
         "--model", str(path), "--r-pc", "0.5"],
    )
    assert result.exit_code == 0, result.output
    return path


def diagnose_args(plant_dir, model_path, *extra):
    return [
        "diagnose",
        "--graph", str(plant_dir["dir"] / "graph.json"),
        "--model", str(model_path),
        "--data", str(plant_dir["dir"] / "fault.csv"),
        "--fault-start", "100",
        "--window", "100",
        *extra,
    ]


class TestSynthCommand:
    def test_writes_all_artifacts(self, plant_dir):
        for name in ("graph.json", "normal.csv", "fault.csv", "manifest.json"):
            assert (plant_dir["dir"] / name).exists()
        manifest = plant_dir["manifest"]
        assert manifest["root"] in manifest["columns"]
        assert manifest["root_kind"] == "variable"
        assert manifest["fault"] == {"kind": "step", "magnitude": 10.0, "start": 100,
                                     "duration": 100}
        assert len(read_csv(plant_dir["dir"] / "normal.csv").values) == 2000
        assert len(read_csv(plant_dir["dir"] / "fault.csv").values) == 400

    def test_deterministic_regeneration(self, plant_dir, tmp_path, runner):
        result = runner.invoke(
            main,
            ["synth", "--out", str(tmp_path), "--seed", "5", "--devices", "4"],
        )
        assert result.exit_code == 0
        for name in ("graph.json", "normal.csv", "fault.csv", "manifest.json"):
            assert (tmp_path / name).read_bytes() == (plant_dir["dir"] / name).read_bytes()

    def test_output_bytes_are_pinned(self, plant_dir):
        """The generator's bytes for `synth --seed 5 --devices 4`, not only their
        agreement between two runs: a change that moves any of them is seen."""
        digests = {
            "graph.json": "963e53efb4dbe42aa5433e7f7bbb260bd12a92ba3dee46f3c8a431d0d8db39ea",
            "normal.csv": "d57c0599eae861acacb41afbb99aea23cc6c39f3ea6a22431e14532e43199438",
            "fault.csv": "1c4c50486dc2ea2efd37d65eb3aaf0e528cb9a2f36daac762208888cab333a7c",
            "manifest.json": "755a512a8428da30cb7491c0f25967a80ac93a498d950048be544d63e961fa40",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((plant_dir["dir"] / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "flag, value",
        [("--normal-samples", "50"), ("--fault-samples", "50"), ("--fault-start", "10"),
         ("--fault-duration", "10"), ("--fault-kind", "drift"), ("--magnitude", "5"),
         ("--root", "x1")],
    )
    def test_removed_flag_is_usage_error(self, flag, value, tmp_path, runner):
        result = runner.invoke(main, ["synth", "--out", str(tmp_path), flag, value])
        assert result.exit_code == 2
        assert "No such option" in result.output and flag in result.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, value, rule",
        [("--devices", "0", "x>=1"), ("--devices", "-3", "x>=1"), ("--seed", "-1", "x>=0")],
    )
    def test_out_of_range_value_is_usage_error(self, flag, value, rule, tmp_path, runner):
        out = tmp_path / "plant"
        result = runner.invoke(main, ["synth", "--out", str(out), flag, value])
        assert result.exit_code == 2
        assert f"Invalid value for '{flag}': {value} is not in the range {rule}" in result.output
        assert not out.exists()

    def test_generated_graph_passes_validation(self, plant_dir, runner):
        result = runner.invoke(main, ["validate-kg", str(plant_dir["dir"] / "graph.json")])
        assert result.exit_code == 0
        assert "0 warnings" in result.output


class TestFitCommand:
    def test_summary_and_model_file(self, plant_dir, model_path):
        model = load_model(model_path)
        assert list(model.columns) == plant_dir["manifest"]["columns"]

    def test_summary_text(self, plant_dir, tmp_path, runner):
        result = runner.invoke(
            main,
            ["fit", "--graph", str(plant_dir["dir"] / "graph.json"),
             "--data", str(plant_dir["dir"] / "normal.csv"),
             "--model", str(tmp_path / "m.npz")],
        )
        assert result.exit_code == 0
        n = len(plant_dir["manifest"]["columns"])
        assert f"n={n} variables" in result.output
        assert "retained variance" in result.output

    def test_unbound_columns_ignored_with_warning(self, plant_dir, caplog):
        # A CSV column the graph does not know must never silently enter.
        graph = load_graph(plant_dir["dir"] / "graph.json")
        columns = tuple(plant_dir["manifest"]["columns"]) + ("extra_sensor",)
        with caplog.at_level(logging.WARNING, logger="rootkgd.pipeline"):
            used = bound_columns(columns, graph, "dataset")
        assert used == plant_dir["manifest"]["columns"]
        assert [rec.getMessage() for rec in caplog.records] == [
            "dataset columns without a variable binding are ignored: ['extra_sensor']"
        ]

    def test_bad_last_row_fails_fit(self, plant_dir, tmp_path, runner):
        # fit parses the whole file, so its last row is checked.
        text = (plant_dir["dir"] / "normal.csv").read_text()
        lines = len(text.splitlines())
        bad = tmp_path / "normal.csv"
        bad.write_text(text + "1,2\n")
        result = runner.invoke(
            main, ["fit", "--graph", str(plant_dir["dir"] / "graph.json"), "--data", str(bad),
                   "--model", str(tmp_path / "m.npz")]
        )
        width = text.splitlines()[0].count(",") + 1
        assert result.exit_code == 1
        assert result.stderr == f"error: {bad}:{lines + 1}: expected {width} fields, got 2\n"
        assert not (tmp_path / "m.npz").exists()

    def test_no_bound_column_is_usage_error(self, plant_dir, tmp_path, runner):
        data = read_csv(plant_dir["dir"] / "normal.csv")
        renamed = tmp_path / "renamed.csv"
        write_csv(DataMatrix(data.values, tuple(f"z{c}" for c in data.columns)), renamed)
        result = runner.invoke(
            main, ["fit", "--graph", str(plant_dir["dir"] / "graph.json"), "--data", str(renamed)]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith(
            "error: no dataset columns are bound to graph variables\n"
        )


class TestDiagnoseCommand:
    def test_end_to_end_recovers_root(self, plant_dir, model_path, runner):
        result = runner.invoke(main, diagnose_args(plant_dir, model_path))
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        top_variable = lines[1].split()[1]
        assert top_variable == plant_dir["manifest"]["root"]

    def test_json_report_schema(self, plant_dir, model_path, tmp_path, runner):
        json_path = tmp_path / "report.json"
        result = runner.invoke(
            main, diagnose_args(plant_dir, model_path, "--json", str(json_path))
        )
        assert result.exit_code == 0
        payload = json.loads(json_path.read_text())
        assert set(payload) == {"graph", "params", "window", "ranking"}
        assert payload["graph"] == "graph.json"
        assert payload["window"]["fault_start"] == 100
        assert list(payload["params"]) == ["r_pc", "sigma_r", "p_max", "delta_s_min_ratio"]
        assert all(set(e) == {"id", "kind", "score"} for e in payload["ranking"])

    def test_byte_identical_reruns(self, plant_dir, model_path, tmp_path, runner):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        j1, j2 = tmp_path / "a" / "report.json", tmp_path / "b" / "report.json"
        r1 = runner.invoke(main, diagnose_args(plant_dir, model_path, "--json", str(j1)))
        r2 = runner.invoke(main, diagnose_args(plant_dir, model_path, "--json", str(j2)))
        assert r1.exit_code == r2.exit_code == 0
        table_1 = r1.output.rsplit("report written", 1)[0]
        table_2 = r2.output.rsplit("report written", 1)[0]
        assert table_1 == table_2
        assert j1.read_bytes() == j2.read_bytes()

    def test_quickstart_bytes_are_pinned(self, plant_dir, tmp_path, runner):
        """The README Quickstart's model file and JSON report, pinned like the
        synth outputs: a change that moves a model byte or a score is seen.
        The 4-device plant fits to the same bytes at one and two BLAS threads."""
        model, report = tmp_path / "model.npz", tmp_path / "report.json"
        result = runner.invoke(main, ["fit", "--graph", str(plant_dir["dir"] / "graph.json"),
                                      "--data", str(plant_dir["dir"] / "normal.csv"),
                                      "--model", str(model)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, diagnose_args(plant_dir, model, "--json", str(report)))
        assert result.exit_code == 0, result.output
        digests = {
            model: "e34b3773328c605b2b18ea2ffc02e228fddcb5a2dd13024630d2108caf52d3aa",
            report: "080ffac3b28d4908000f306d5b2caa900294f76bf5d061e770cbc94d238f4d75",
        }
        for path, digest in digests.items():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_plant30_reports_are_pinned(self, tmp_path, runner):
        """The text and JSON reports of `synth --seed 1 --devices 30`, fitted
        with `--graph`: its interior devices, streams and variables share
        propagation runs, so a relabeled run that moved a bit would be seen."""
        plant, model, report = tmp_path / "plant", tmp_path / "model.npz", tmp_path / "r.json"
        for args in (
            ["synth", "--out", str(plant), "--seed", "1", "--devices", "30"],
            ["fit", "--graph", str(plant / "graph.json"), "--data", str(plant / "normal.csv"),
             "--model", str(model)],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        result = runner.invoke(main, [
            "diagnose", "--graph", str(plant / "graph.json"), "--model", str(model),
            "--data", str(plant / "fault.csv"), "--fault-start", "100", "--window", "100",
            "--json", str(report),
        ])
        assert result.exit_code == 0, result.output
        text, trailer = result.output.rsplit("report written to ", 1)
        assert trailer == f"{report}\n"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8e72ced45628e260d662c46592b029c244919c42737114a7fb31f1e43e72509c"
        )
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "41b6efc7a8c70f1e33b88504d70fb012b3ccc96a10f5ce24308c28e677292aca"
        )

    def test_report_independent_of_hash_seed(self, tmp_path, runner):
        # Two interpreters with different string hashing write the same bytes:
        # no result depends on the iteration order of a set or dict of ids.
        graph_path = str(files("rootkgd") / "fixtures" / "tep.kg.json")
        columns = tuple(load_graph(graph_path).variable_of)
        rng = np.random.default_rng(7)
        mixing = rng.normal(size=(8, len(columns)))

        def draw(m):
            return rng.normal(size=(m, 8)) @ mixing + 0.5 * rng.normal(size=(m, len(columns)))

        fault = draw(200)
        fault[100:, 3] += 10.0
        write_csv(DataMatrix(draw(500), columns), tmp_path / "normal.csv")
        write_csv(DataMatrix(fault, columns), tmp_path / "fault.csv")
        model = tmp_path / "model.npz"
        fit = runner.invoke(main, ["fit", "--graph", graph_path, "--data",
                                   str(tmp_path / "normal.csv"), "--model", str(model)])
        assert fit.exit_code == 0, fit.output
        src = str(Path(rootkgd.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for seed in ("0", "1"):
            report = tmp_path / f"report{seed}.json"
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            done = subprocess.run(
                [sys.executable, "-m", "rootkgd.cli", "diagnose", "--graph", graph_path,
                 "--model", str(model), "--data", str(tmp_path / "fault.csv"),
                 "--fault-start", "100", "--json", str(report)],
                env=env, capture_output=True, text=True, check=False, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append((done.stdout.replace(str(report), "REPORT"), report.read_bytes()))
        assert outputs[0] == outputs[1]
        assert b'"ranking"' in outputs[0][1]

    def test_report_names_the_model_r_pc(self, plant_dir, tmp_path, runner):
        # The config keeps its default r_pc of 0.5; the report must give the
        # 0.8 the loaded model was fitted with.
        model = tmp_path / "model.npz"
        result = runner.invoke(
            main,
            ["fit", "--graph", str(plant_dir["dir"] / "graph.json"),
             "--data", str(plant_dir["dir"] / "normal.csv"),
             "--model", str(model), "--r-pc", "0.8"],
        )
        assert result.exit_code == 0, result.output
        json_path = tmp_path / "report.json"
        result = runner.invoke(main, diagnose_args(plant_dir, model, "--json", str(json_path)))
        assert result.exit_code == 0, result.output
        assert json.loads(json_path.read_text())["params"]["r_pc"] == 0.8

    def test_window_exceeding_dataset(self, plant_dir, model_path, runner):
        result = runner.invoke(
            main,
            diagnose_args(plant_dir, model_path)[:-4] + ["--fault-start", "100000"],
        )
        assert result.exit_code == 1
        assert "window exceeds dataset" in result.stderr

    def test_short_file_names_its_sample_count(self, plant_dir, model_path, tmp_path, runner):
        lines = (plant_dir["dir"] / "fault.csv").read_text().splitlines(keepends=True)
        short = tmp_path / "fault.csv"
        short.write_text("".join(lines[:151]))
        args = diagnose_args(plant_dir, model_path)
        args[args.index("--data") + 1] = str(short)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: {short}: window exceeds dataset: rows [100, 200) requested but only 150 "
            "samples present\n"
        )

    def test_overflowing_window_names_file_and_row(self, plant_dir, model_path, tmp_path,
                                                    runner):
        # 1e308 is a finite cell, but its contributions overflow: a named
        # error, with no numpy warning on the way (pytest makes one an error).
        lines = (plant_dir["dir"] / "fault.csv").read_text().splitlines(keepends=True)
        cells = lines[151].split(",")  # data row 150, window row 50
        cells[0] = "1e308"
        lines[151] = ",".join(cells)
        path = tmp_path / "overflow.csv"
        path.write_text("".join(lines))
        args = diagnose_args(plant_dir, model_path)
        args[args.index("--data") + 1] = str(path)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # handled: no traceback
        assert result.stdout == ""
        assert result.stderr == f"error: {path}: contributions of window row 50 are not finite\n"

    @pytest.mark.parametrize("bad_row", ["1,2\n", "x\n", "nan\n", '"1\n'])
    def test_rows_after_the_window_are_not_read(self, plant_dir, model_path, tmp_path,
                                                runner, bad_row):
        # A ragged, non-numeric or unclosed row after the window: the report is
        # the one of the file cut after the window.
        lines = (plant_dir["dir"] / "fault.csv").read_text().splitlines(keepends=True)
        width = lines[0].count(",") + 1
        if bad_row in ("x\n", "nan\n"):
            bad_row = ",".join(["0"] * (width - 1) + [bad_row])
        reports = []
        for name, text in (("cut", lines[:201]), ("bad", lines[:201] + [bad_row] + lines[201:])):
            (tmp_path / name).mkdir()
            fault = tmp_path / name / "fault.csv"
            fault.write_text("".join(text))
            args = diagnose_args(plant_dir, model_path, "--json", str(tmp_path / name / "r.json"))
            args[args.index("--data") + 1] = str(fault)
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            reports.append((result.stdout.replace(str(tmp_path / name), "DIR"),
                            (tmp_path / name / "r.json").read_bytes()))
        assert reports[0] == reports[1]
        with pytest.raises(ValueError, match=":202: "):
            read_csv(tmp_path / "bad" / "fault.csv")  # a full read fails

    def test_fault_dataset_missing_model_column(self, plant_dir, model_path, tmp_path,
                                                runner):
        data = read_csv(plant_dir["dir"] / "fault.csv")
        dropped = data.columns[0]
        fault = tmp_path / "fault.csv"
        write_csv(data.select(data.columns[1:]), fault)
        args = diagnose_args(plant_dir, model_path)
        args[args.index("--data") + 1] = str(fault)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: fault dataset is missing model columns: {[dropped]}\n"

    def test_model_with_no_bound_column_is_usage_error(self, plant_dir, tmp_path, runner):
        # A model fitted without a graph on columns no variable binds.
        model = tmp_path / "model.npz"
        for name in ("normal", "fault"):
            data = read_csv(plant_dir["dir"] / f"{name}.csv")
            columns = tuple(f"z{c}" for c in data.columns)
            write_csv(DataMatrix(data.values, columns), tmp_path / f"{name}.csv")
        result = runner.invoke(
            main, ["fit", "--data", str(tmp_path / "normal.csv"), "--model", str(model)]
        )
        assert result.exit_code == 0, result.output
        args = diagnose_args(plant_dir, model)
        args[args.index("--data") + 1] = str(tmp_path / "fault.csv")
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith("error: no model columns are bound to graph variables\n")
        # The window is read before the graph is bound, so a missing fault
        # file is the error reported.
        absent = tmp_path / "absent.csv"
        args[args.index("--data") + 1] = str(absent)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert str(absent) in result.stderr
        assert "bound to graph variables" not in result.stderr

    def test_inconsistent_model_is_named_error(self, plant_dir, model_path, tmp_path, runner):
        members = read_members(model_path)
        members["std"][0] = 0.0
        bad = tmp_path / "bad_model.npz"
        write_members(bad, members)
        result = runner.invoke(main, diagnose_args(plant_dir, bad))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # handled: no traceback
        assert result.stdout == ""
        assert result.stderr == f"error: {bad}: malformed model file (std must be positive)\n"

    def test_earlier_version_model_is_named_error(self, plant_dir, model_path, tmp_path,
                                                  runner):
        # Earlier versions wrote the model as JSON, one key per field.
        model = load_model(model_path)
        old = tmp_path / "old_model.json"
        old.write_text(json.dumps({
            "columns": list(model.columns), "mean": model.mean.tolist(),
            "std": model.std.tolist(), "loadings_principal": model.loadings_principal.tolist(),
            "r_pc": model.r_pc, "retained_variance": model.retained_variance,
        }))
        result = runner.invoke(main, diagnose_args(plant_dir, old))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # handled: no traceback
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {old}: malformed model file (")
        assert result.stderr.endswith("re-run `rootkgd fit`)\n")

    def test_nan_r_pc_model_is_named_error(self, plant_dir, model_path, tmp_path, runner):
        members = read_members(model_path)
        members["r_pc"] = np.array(np.nan)
        bad = tmp_path / "nan_model.npz"
        write_members(bad, members)
        report = tmp_path / "report.json"
        result = runner.invoke(main, diagnose_args(plant_dir, bad, "--json", str(report)))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # handled: no traceback
        assert result.stdout == ""
        assert f"error: {bad}: malformed model file" in result.stderr
        assert "r_pc must be a finite number in (0, 1], got nan" in result.stderr
        assert not report.exists()

    def test_json_report_is_the_dumped_report_dict(self, plant_dir, model_path, tmp_path,
                                                   runner):
        # The report is streamed to its file; the bytes are those of the
        # whole-report string.
        report = tmp_path / "report.json"
        result = runner.invoke(main, diagnose_args(plant_dir, model_path, "--json", str(report)))
        assert result.exit_code == 0, result.output
        assert result.stdout.endswith(f"report written to {report}\n")
        config = DiagnosisConfig(
            graph_path=str(plant_dir["dir"] / "graph.json"),
            model_path=str(model_path),
            fault_data_path=str(plant_dir["dir"] / "fault.csv"),
            fault_start=100,
            window=100,
        )
        expected = json.dumps(report_dict(run_diagnose(config)), indent=2) + "\n"
        assert report.read_bytes() == expected.encode("utf-8")

    def test_fresh_process_exit_loses_no_output(self, plant_dir, model_path, tmp_path, runner):
        # The group callback freezes the collector's view of the process; a
        # fresh interpreter that then exits must still flush all its output,
        # and an in-process caller keeps the collector on.
        report = tmp_path / "report.json"
        args = diagnose_args(plant_dir, model_path, "--json", str(report))
        in_process = runner.invoke(main, args)
        assert in_process.exit_code == 0, in_process.output
        assert gc.isenabled()
        expected = report.read_bytes()
        report.unlink()
        src = str(Path(rootkgd.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "rootkgd.cli", *args],
                              env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                              check=False, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == b""
        assert done.stdout == in_process.stdout_bytes
        assert report.read_bytes() == expected

    def test_failed_diagnose_writes_no_report(self, plant_dir, model_path, tmp_path, runner):
        # The graph is the last input read: its failure still leaves no report.
        report = tmp_path / "report.json"
        absent = tmp_path / "absent.kg.json"
        args = diagnose_args(plant_dir, model_path, "--json", str(report))
        args[args.index("--graph") + 1] = str(absent)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # handled: no traceback
        assert result.stdout == ""
        assert str(absent) in result.stderr
        assert not report.exists()

    def test_model_path_is_required(self, plant_dir, tmp_path, runner):
        # diagnose never fits: a normal_data_path does not stand in for a model.
        config = {
            "graph_path": str(plant_dir["dir"] / "graph.json"),
            "normal_data_path": str(plant_dir["dir"] / "normal.csv"),
            "fault_data_path": str(plant_dir["dir"] / "fault.csv"),
            "fault_start": 100,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        result = runner.invoke(main, ["diagnose", "--config", str(config_path)])
        assert result.exit_code == 2
        assert result.stderr == "error: model_path is required for diagnosis\n"
        missing = tmp_path / "missing.json"
        result = runner.invoke(
            main, ["diagnose", "--config", str(config_path), "--model", str(missing)]
        )
        # A missing model file is a file error naming it, as a missing graph or CSV is.
        assert result.exit_code == 1
        assert result.stderr == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert not missing.exists()

    def test_jobs_flag_is_rejected(self, plant_dir, model_path, runner):
        result = runner.invoke(main, diagnose_args(plant_dir, model_path, "--jobs", "2"))
        assert result.exit_code == 2
        assert "No such option" in result.stderr and "--jobs" in result.stderr

    def test_flag_overrides_config_overrides_default(self, plant_dir, model_path,
                                                     tmp_path, runner):
        config = {
            "graph_path": str(plant_dir["dir"] / "graph.json"),
            "model_path": str(model_path),
            "fault_data_path": str(plant_dir["dir"] / "fault.csv"),
            "fault_start": 100,
            "top_k": 3,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        from_config = runner.invoke(main, ["diagnose", "--config", str(config_path)])
        assert len(from_config.output.splitlines()) == 1 + 3
        from_flag = runner.invoke(
            main, ["diagnose", "--config", str(config_path), "--top-k", "2"]
        )
        assert len(from_flag.output.splitlines()) == 1 + 2

    def test_unknown_config_key_is_usage_error(self, tmp_path, runner):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"graph": "x.json"}))
        result = runner.invoke(main, ["diagnose", "--config", str(config_path)])
        assert result.exit_code == 2
        assert "unknown config keys" in result.stderr

    def test_jobs_config_key_is_unknown(self, tmp_path, runner):
        config_path = tmp_path / "config.json"
        for key in REMOVED_CONFIG_KEYS:
            config_path.write_text(json.dumps({key: 2}))
            result = runner.invoke(main, ["diagnose", "--config", str(config_path)])
            assert result.exit_code == 2
            assert f"unknown config keys: ['{key}']" in result.stderr


#: Config files whose values have the wrong type or lie out of range, the
#: command they are given to, and the message each must produce.
BAD_CONFIGS = {
    "sigma_r_string": (
        "diagnose", '{"sigma_r": "abc"}', "sigma_r must be positive and finite, got 'abc'"
    ),
    "sigma_r_nan": (
        "diagnose", '{"sigma_r": NaN}', "sigma_r must be positive and finite, got nan"
    ),
    "sigma_r_huge_int": (
        "diagnose", '{"sigma_r": 1%s}' % ("0" * 400), "sigma_r must be positive and finite, got 10"
    ),
    "ratio_null": ("diagnose", '{"delta_s_min_ratio": null}', "delta_s_min_ratio must be"),
    "top_k_overflow": ("diagnose", '{"top_k": 1e400}', "top_k must be an integer"),
    "window_bool": ("diagnose", '{"window": true}', "window must be an integer"),
    "fault_start_float": ("diagnose", '{"fault_start": 1.5}', "fault_start must be an integer"),
    "graph_path_number": ("diagnose", '{"graph_path": 5}', "graph_path must be a string"),
    "fit_r_pc_string": ("fit", '{"r_pc": "x"}', "r_pc must be a finite number"),
    "p_max_zero": ("diagnose", '{"p_max": 0}', "p_max must be at least 1, got 0"),
    "sigma_r_negative": ("diagnose", '{"sigma_r": -1}', "sigma_r must be positive"),
    "ratio_above_one": ("diagnose", '{"delta_s_min_ratio": 2}', "delta_s_min_ratio must be in"),
    "r_pc_above_one": (
        "diagnose", '{"r_pc": 1.5}', "r_pc must be a finite number in (0, 1], got 1.5"
    ),
    "fit_r_pc_zero": ("fit", '{"r_pc": 0}', "r_pc must be a finite number in (0, 1], got 0"),
}


class TestConfigTypes:
    @pytest.mark.parametrize("case", list(BAD_CONFIGS))
    def test_wrong_type_is_usage_error(self, tmp_path, runner, case):
        command, text, message = BAD_CONFIGS[case]
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        result = runner.invoke(main, [command, "--config", str(config_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # handled: no traceback
        assert result.stderr.startswith(f"error: {message}")


#: JSON files no loader can read: bytes that are not UTF-8, nesting too deep
#: for the parser, and an integer past Python's 4,300-digit conversion limit.
UNREADABLE_JSON = {
    "non_utf8": b'{"graph_path": "\xff"}',
    "deep": b"[" * 200_000,
    "huge_int": b'{"window": 1' + b"0" * 5000 + b"}",
}


@pytest.mark.parametrize("content", list(UNREADABLE_JSON))
@pytest.mark.parametrize(
    "role, code, message",
    [
        ("config", 2, "invalid JSON"),
        ("graph", 2, "invalid JSON"),
        ("model", 1, "invalid model file"),
    ],
)
def test_unreadable_json_is_named_error(plant_dir, model_path, tmp_path, runner, content,
                                        role, code, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNREADABLE_JSON[content])
    args = diagnose_args(plant_dir, model_path)
    if role == "config":
        args += ["--config", str(bad)]
    else:
        args[args.index(f"--{role}") + 1] = str(bad)
    result = runner.invoke(main, args)
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)  # handled: no traceback
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {bad}: {message}: ")


class TestTraceCommand:
    def test_chain_edge_event(self, runner):
        result = runner.invoke(main, ["trace", "A", "--graph", str(FIXTURES / "chain.kg.json")])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].split("\t") == [
            "seq", "priority", "head", "relation", "tail", "delta_s", "s_tail",
        ]
        edge_lines = [ln for ln in lines[1:] if ln.split("\t")[3]]
        assert len(edge_lines) == 1
        fields = edge_lines[0].split("\t")
        assert fields[2:5] == ["A", "flow", "B"]
        assert abs(float(fields[5]) - 0.9048374) <= 5e-8

    def test_isolated_node_single_pop(self, tmp_path, runner):
        graph = {
            "entities": [{"id": "solo", "kind": "device", "label": "solo"}],
            "relations": [{"name": "flow", "d": 1, "o": 1}],
            "triples": [],
        }
        path = tmp_path / "solo.json"
        path.write_text(json.dumps(graph))
        result = runner.invoke(main, ["trace", "solo", "--graph", str(path)])
        # validation warnings are fine; the graph has errors=0
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 2  # header + one pop
        assert lines[1].split("\t")[:3] == ["0", "0", "solo"]

    def test_rerun_byte_identical(self, runner):
        args = ["trace", "A", "--graph", str(FIXTURES / "diamond.kg.json")]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_unknown_source(self, runner):
        result = runner.invoke(
            main, ["trace", "ghost", "--graph", str(FIXTURES / "chain.kg.json")]
        )
        assert result.exit_code == 1
        assert "unknown entity" in result.stderr


class TestValidateCommand:
    def test_fixture_graphs_pass(self, runner):
        from importlib.resources import files

        for name in ("tep.kg.json", "mff.kg.json"):
            result = runner.invoke(
                main, ["validate-kg", str(files("rootkgd") / "fixtures" / name)]
            )
            assert result.exit_code == 0, result.output
            assert result.output.startswith("ok:")

    def test_dangling_triple_fails_with_message(self, tmp_path, runner):
        payload = {
            "entities": [{"id": "a", "kind": "device", "label": "a"}],
            "relations": [{"name": "flow", "d": 1, "o": 1}],
            "triples": [["a", "flow", "ghost"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["validate-kg", str(path)])
        assert result.exit_code == 1
        assert "ghost" in result.output

    def test_empty_file_is_parse_error(self, tmp_path, runner):
        path = tmp_path / "empty.json"
        path.write_text("")
        result = runner.invoke(main, ["validate-kg", str(path)])
        assert result.exit_code == 2

    def test_warnings_reported_but_exit_zero(self, tmp_path, runner):
        payload = {
            "entities": [
                {"id": "a", "kind": "device", "label": "a"},
                {"id": "v", "kind": "variable", "label": "v"},
            ],
            "relations": [{"name": "State", "d": 1, "o": 1}],
            "triples": [["a", "State", "v"]],
        }
        path = tmp_path / "warny.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["validate-kg", str(path)])
        assert result.exit_code == 0
        assert "warning:" in result.output

    def test_graph_checked_once_per_call(self, tmp_path, runner, monkeypatch):
        # The warnings come from the check the graph ran when it was built.
        from importlib.resources import files

        from rootkgd import kgraph

        calls = []
        check = kgraph._check
        monkeypatch.setattr(kgraph, "_check", lambda *parts: calls.append(1) or check(*parts))
        warny = tmp_path / "warny.json"
        warny.write_text(json.dumps({
            "entities": [
                {"id": "a", "kind": "device", "label": "a"},
                {"id": "v", "kind": "variable", "label": "v"},
            ],
            "relations": [{"name": "State", "d": 1, "o": 1}, {"name": "idle", "d": 1, "o": 1}],
            "triples": [["a", "State", "v"]],
        }))
        for path in (files("rootkgd") / "fixtures" / "tep.kg.json", warny):
            calls.clear()
            result = runner.invoke(main, ["validate-kg", str(path)])
            assert result.exit_code == 0, result.output
            assert len(calls) == 1
        assert result.output == (
            "warning: variable 'v' has no column binding\n"
            "warning: relation 'idle' is never used\n"
            "ok: 2 entities, 2 relations, 1 triples, 2 warnings\n"
        )

    def test_errors_then_warnings_on_invalid_graph(self, tmp_path, runner):
        # The check interleaves its findings; the report lists every error
        # before any warning.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "entities": [
                {"id": "a", "kind": "device", "label": "a"},
                {"id": "v", "kind": "variable", "label": "v"},
                {"id": "a", "kind": "device", "label": "again"},
            ],
            "relations": [{"name": "State", "d": -1, "o": 1}, {"name": "idle", "d": 1, "o": 1}],
            "triples": [["a", "State", "v"], ["a", "State", "ghost"]],
        }))
        result = runner.invoke(main, ["validate-kg", str(path)])
        assert result.exit_code == 1
        assert result.stdout == (
            "error: duplicate entity id: 'a'\n"
            "error: relation 'State' has negative distance -1.0\n"
            "error: triple (a, State, ghost) references undeclared tail entity 'ghost'\n"
            "warning: variable 'v' has no column binding\n"
            "warning: relation 'idle' is never used\n"
        )
        assert result.stderr == ""

    def test_field_type_error_is_listed_with_other_errors(self, tmp_path, runner):
        # A wrong-typed field is a validation error, as in a direct build,
        # not a parse error that would hide the graph's other errors. The
        # mistyped relation is still declared: only the dangling tail is.
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({
            "entities": [{"id": "a", "kind": "device", "label": "a"}],
            "relations": [{"name": "State", "d": "1", "o": 1}],
            "triples": [["a", "State", "ghost"]],
        }))
        result = runner.invoke(main, ["validate-kg", str(path)])
        assert result.exit_code == 1
        assert result.stdout == (
            "error: relations[0]: distance must be int or float, got str\n"
            "error: triple (a, State, ghost) references undeclared tail entity 'ghost'\n"
        )

    def test_no_graph_given(self, runner):
        result = runner.invoke(main, ["validate-kg"])
        assert result.exit_code == 2

    def test_non_finite_distance_fails(self, plant_dir, model_path, tmp_path, runner):
        payload = json.loads((plant_dir["dir"] / "graph.json").read_text())
        payload["relations"][0]["d"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        name = payload["relations"][0]["name"]
        result = runner.invoke(main, ["validate-kg", str(path)])
        assert result.exit_code == 1
        assert f"error: relation {name!r} has non-finite distance nan" in result.output
        args = diagnose_args(plant_dir, model_path)
        args[args.index("--graph") + 1] = str(path)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "non-finite distance" in result.stderr

    def test_column_bound_by_two_variables_fails(self, plant_dir, model_path, tmp_path,
                                                  runner):
        payload = json.loads((plant_dir["dir"] / "graph.json").read_text())
        first, second = [e for e in payload["entities"] if e.get("column")][:2]
        second["column"] = first["column"]
        path = tmp_path / "shared_column.json"
        path.write_text(json.dumps(payload))
        message = (
            f"error: variables {first['id']!r} and {second['id']!r} "
            f"both bind column {first['column']!r}"
        )
        result = runner.invoke(main, ["validate-kg", str(path)])
        assert result.exit_code == 1
        assert message in result.output.splitlines()
        fit_args = ["fit", "--graph", str(path), "--data", str(plant_dir["dir"] / "normal.csv")]
        diagnose = diagnose_args(plant_dir, model_path)
        diagnose[diagnose.index("--graph") + 1] = str(path)
        for args in (fit_args, diagnose):
            result = runner.invoke(main, args)
            assert result.exit_code == 1
            assert result.stdout == ""
            assert result.stderr == message + "\n"


class TestUsage:
    def test_unknown_option(self, runner):
        result = runner.invoke(main, ["diagnose", "--frobnicate"])
        assert result.exit_code == 2

    def test_log_env_accepted(self, plant_dir, runner):
        result = runner.invoke(
            main,
            ["validate-kg", str(plant_dir["dir"] / "graph.json")],
            env={"ROOTKGD_LOG": "DEBUG"},
        )
        assert result.exit_code == 0


class TestPipelineRoster:
    def diagnose_config(self, plant_dir, tmp_path) -> DiagnosisConfig:
        return DiagnosisConfig(
            graph_path=str(plant_dir["dir"] / "graph.json"),
            model_path=str(tmp_path / "model.npz"),
            normal_data_path=str(tmp_path / "normal.csv"),
            fault_data_path=str(tmp_path / "fault.csv"),
            fault_start=100,
            window=100,
        )

    def test_graph_loads_after_the_window_is_released(self, tmp_path, monkeypatch):
        # The window stage runs first and its arrays and the model are gone
        # before the graph is loaded: when load_graph is entered the window has
        # been read, less than half a window's bytes are still allocated and
        # no model loaded by the run is alive.
        graph_path = str(files("rootkgd") / "fixtures" / "tep.kg.json")
        columns = tuple(load_graph(graph_path).variable_of)
        rng = np.random.default_rng(11)
        fault = rng.normal(size=(400, len(columns)))
        fault[100:, 3] += 10.0
        write_csv(DataMatrix(rng.normal(size=(500, len(columns))), columns),
                  tmp_path / "normal.csv")
        write_csv(DataMatrix(fault, columns), tmp_path / "fault.csv")
        config = DiagnosisConfig(
            graph_path=graph_path,
            model_path=str(tmp_path / "model.npz"),
            normal_data_path=str(tmp_path / "normal.csv"),
            fault_data_path=str(tmp_path / "fault.csv"),
            fault_start=100,
            window=300,
        )
        run_fit(config)
        window_bytes = config.window * len(columns) * 8
        load, entries = pipeline.load_graph, []
        read_model, models = features.load_model, []

        def tracked_load_model(path):
            model = read_model(path)
            models.append(weakref.ref(model))
            return model

        def measured_load(path):
            entries.append(tracemalloc.get_traced_memory())
            assert models and all(model() is None for model in models)
            return load(path)

        monkeypatch.setattr(features, "load_model", tracked_load_model)
        monkeypatch.setattr(pipeline, "load_graph", measured_load)
        run_diagnose(config)  # first-call allocations are not counted
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_diagnose(config)
        finally:
            tracemalloc.stop()
        current, peak = entries[-1]
        assert peak - base >= window_bytes
        assert current - base < window_bytes / 2

    def test_fit_holds_the_parsed_data_once(self, tmp_path):
        # run_fit drops the parsed matrix once select's column-major copy
        # exists, so fit_pca's buffers stack on one copy of the data, not two.
        rng = np.random.default_rng(12)
        data = DataMatrix(rng.normal(size=(1100, 60)), tuple(f"c{i}" for i in range(60)))
        write_csv(data, tmp_path / "normal.csv")
        config = DiagnosisConfig(normal_data_path=str(tmp_path / "normal.csv"))
        run_fit(config)  # first-call allocations are not counted
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_fit(config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * data.values.nbytes

    def test_graph_variable_absent_from_dataset_is_excluded(self, plant_dir, tmp_path):
        # Drop one column from both datasets; the diagnosis roster shrinks
        # instead of failing.
        manifest = plant_dir["manifest"]
        keep = [c for c in manifest["columns"] if c != manifest["root"]]
        for name in ("normal", "fault"):
            data = read_csv(plant_dir["dir"] / f"{name}.csv").select(keep)
            write_csv(data, tmp_path / f"{name}.csv")
        config = self.diagnose_config(plant_dir, tmp_path)
        run_fit(config)
        ranking = run_diagnose(config)
        assert list(load_model(config.model_path).columns) == keep
        assert manifest["root"] in {e.id for e in ranking.entries}  # still a candidate

    def test_model_column_unbound_by_graph_warned_once(self, plant_dir, tmp_path, caplog):
        # Fitted without a graph, the model keeps a column that no variable
        # binds; diagnose names it once, as a model column, and leaves it out.
        rng = np.random.default_rng(0)
        for name in ("normal", "fault"):
            data = read_csv(plant_dir["dir"] / f"{name}.csv")
            spare = rng.standard_normal((len(data.values), 1))
            write_csv(
                DataMatrix(np.hstack([data.values, spare]), data.columns + ("spare",)),
                tmp_path / f"{name}.csv",
            )
        config = self.diagnose_config(plant_dir, tmp_path)
        run_fit(replace(config, graph_path=None))
        assert load_model(config.model_path).columns[-1] == "spare"
        with caplog.at_level(logging.WARNING, logger="rootkgd.pipeline"):
            ranking = run_diagnose(config)
        assert [rec.getMessage() for rec in caplog.records] == [
            "model columns without a variable binding are ignored: ['spare']"
        ]
        variables = {e.id for e in ranking.variables()}
        assert variables == set(plant_dir["manifest"]["columns"])

    def test_each_invocation_warns_on_its_own_stderr(self, plant_dir, tmp_path):
        # The same warning from two in-process runs reaches each run's stderr.
        rng = np.random.default_rng(1)
        for name in ("normal", "fault"):
            data = read_csv(plant_dir["dir"] / f"{name}.csv")
            spare = rng.standard_normal((len(data.values), 1))
            write_csv(
                DataMatrix(np.hstack([data.values, spare]), data.columns + ("spare",)),
                tmp_path / f"{name}.csv",
            )
        config = self.diagnose_config(plant_dir, tmp_path)
        run_fit(replace(config, graph_path=None))
        args = ["diagnose", "--graph", config.graph_path, "--model", config.model_path,
                "--data", config.fault_data_path, "--fault-start", "100"]
        warning = (
            "WARNING rootkgd.pipeline: model columns without a variable binding "
            "are ignored: ['spare']\n"
        )
        handlers = list(logging.getLogger("rootkgd").handlers)
        for _ in range(2):
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 0, result.output
            assert result.stderr == warning
            assert logging.getLogger("rootkgd").handlers == handlers  # none left behind
