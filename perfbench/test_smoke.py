"""Smoke-size self-test of the benchmark.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload on a 6-device plant with the shortest loop, traced and
untraced, and checks the printed result against ``BENCHMARK.json``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

from inputs import Sizes  # noqa: E402  (needs rootkgd on the path)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE = Sizes(
    plant_devices=6, plant_normal_rows=300, fault_rows=200, tep_normal_rows=300,
    plant_episodes=2, setup_reps=2,
)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(tmp_path, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return run.main(argv, sizes=SMOKE, out=tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_passes_its_checks(tmp_path, capsys, workload, trace):
    result = bench(tmp_path, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == result
    assert not any((tmp_path / ".work").iterdir())


def test_propagation_counts_repeat_for_a_seed(tmp_path):
    counts = ("rfpa.runs", "rfpa.pops", "rfpa.reach_ratio", "scoring.candidates")
    first, second = (bench(tmp_path, "plant800-diagnose", 1)["metrics"] for _ in range(2))
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}


def test_every_candidate_is_traced_under_rank_all_even_in_pool_workers(tmp_path):
    bench(tmp_path, "tep-stream", 1)
    spans = json.loads(next((tmp_path / "results").glob("*-spans.json")).read_text())
    ranks = [i for i, s in enumerate(spans) if s["name"] == "scoring.rank_all"]
    assert ranks
    for i in ranks:
        scored = [s for s in spans if s["name"] == "scoring.root_score" and s["parent"] == i]
        assert len(scored) == spans[i]["counts"]["candidates"]


def test_times_and_rates_are_scaled_by_the_run_calibration(tmp_path):
    metrics = bench(tmp_path, "tep-stream", 0)["metrics"]
    record = json.loads(next((tmp_path / "results").glob("*.json")).read_text())
    scale, unscaled = record["scale"], record["unscaled"]
    assert record["probe_times_s"] and scale > 0
    assert metrics["latency_p50_s"]["value"] == pytest.approx(unscaled["latency_p50_s"] * scale)
    assert metrics["ops_per_s"]["value"] == pytest.approx(unscaled["ops_per_s"] / scale)
    assert metrics["peak_rss_mb"]["value"] == unscaled["peak_rss_mb"]


def test_a_score_off_the_reference_path_fails_the_run(tmp_path, monkeypatch):
    from rootkgd import scoring

    rank_all = scoring.rank_all

    def skewed(*args, **kwargs):
        ranking = rank_all(*args, **kwargs)
        top, *rest = ranking.entries
        shifted = scoring.RankEntry(top.id, top.kind, top.score + 1e-9)
        return scoring.RootCauseRanking((shifted, *rest), ranking.metadata)

    monkeypatch.setattr(scoring, "rank_all", skewed)
    result = bench(tmp_path, "tep-stream", 0)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_ops_ratio"]["value"] < 1


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "results"))
    command = [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
