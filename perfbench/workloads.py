"""The benchmark's workloads: set-up, a closed loop of operations, output checks.

Each workload is a closed loop with one caller and one operation in flight.
Set-up is repeated ``Sizes.setup_reps`` times in fresh directories and the
last one is used. Outputs are checked after the loop, outside the timed
region: an operation fails on an exception, a non-zero exit code or a failed
check. The first episode of every run is re-ranked through the reference path
(``scoring.root_score`` per candidate); see ``reference_problem``.

Calls into rootkgd go through module attributes (``features.fit_pca``, not a
name bound at import), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from rootkgd import dataio, features, kgraph, pipeline, scoring
from rootkgd.config import DiagnosisConfig
from rootkgd.features import ContributionVector, DataMatrix, PcaModel
from rootkgd.kgraph import EntityKind, KnowledgeGraph
from rootkgd.rfpa import RfpaParams
from rootkgd.scoring import RankEntry, RootCauseRanking

import inputs
from calibrate import Calibration
from cli_entry import peak_rss_kib
from inputs import FAULT_START, WINDOW, Episode, Sizes
from tracing import CLI_RUN, OP, REFERENCE, SETUP, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TEP_GRAPH = SRC / "rootkgd" / "fixtures" / "tep.kg.json"

SCORE_TOL = 1e-12
#: Documented defaults of ``top_k`` and ``r_pc``; the CLI runs use them too.
TOP_K = 10
R_PC = 0.5
CANDIDATE_KINDS = (EntityKind.VARIABLE, EntityKind.STREAM, EntityKind.DEVICE)
#: Fewest operations in a run: tep-stream needs 100 for its 90th percentile;
#: plant800-diagnose diagnoses each of its three episodes at least once.
TEP_MIN_OPS = 100
PLANT_MIN_OPS = 3


@dataclass
class Loop:
    """Per-operation wall times of a closed loop, and its outputs."""

    latencies: list[float]
    outputs: list[Any]
    elapsed: float


@dataclass
class Outcome:
    """What one run of a workload measured and found."""

    setup_times: list[float]
    loop: Loop
    peak_rss_mb: float
    top1_variable_rate: float
    top3_physical_rate: float
    failures: dict[int, str]
    #: Operations in one pass over the run's distinct inputs.
    cycle: int


@dataclass(frozen=True)
class CliRun:
    returncode: int
    stdout: Path
    stderr: Path
    peak_rss_mb: float


class Cli:
    """Runs ``rootkgd`` in a subprocess through ``cli_entry.py``, traced when the tracer is."""

    def __init__(self, tracer: Tracer, work: Path):
        self.tracer = tracer
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.calls = 0

    def run(self, args: list[Any], stdout: Path) -> CliRun:
        self.calls += 1
        report = self.work / f"cli{self.calls}.json"
        command = [sys.executable, str(HERE / "cli_entry.py"), str(report),
                   str(int(self.tracer.enabled)), *map(str, args)]
        stderr = stdout.with_suffix(".err")
        with self.tracer.span(CLI_RUN):
            with stdout.open("wb") as out, stderr.open("wb") as err:
                returncode = subprocess.run(
                    command, stdout=out, stderr=err, env=self.env, cwd=SRC.parent, check=False
                ).returncode
            peak_kib = 0
            if report.exists():
                done = json.loads(report.read_text(encoding="utf-8"))
                report.unlink()
                peak_kib = done["peak_rss_kib"]
                self.tracer.adopt(done["spans"], self.tracer.current())
        return CliRun(returncode, stdout, stderr, peak_kib / 1024)

    def require(self, args: list[Any], stdout: Path) -> CliRun:
        run = self.run(args, stdout)
        if run.returncode != 0:
            raise RuntimeError(
                f"rootkgd {' '.join(map(str, args))} exited {run.returncode}: "
                f"{run.stderr.read_text(errors='replace').strip()}"
            )
        return run


class Failure:
    """An operation that raised; the traceback is kept for the report."""

    def __init__(self, exc: BaseException):
        self.reason = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        traceback.print_exception(exc, file=sys.stderr)


def repeat_setup(work: Path, sizes: Sizes, tracer: Tracer, calibration: Calibration,
                 prepare: Callable[[Path], Any]):
    """Run ``prepare`` in fresh directories ``setup_reps`` times; keep the last.

    The host is calibrated before each repetition, outside its timing.
    """
    times, state = [], None
    for rep in range(sizes.setup_reps):
        if rep:
            shutil.rmtree(work / f"setup{rep - 1}")
        directory = work / f"setup{rep}"
        directory.mkdir(parents=True)
        calibration.point(force=True)
        with tracer.span(SETUP):
            start = time.perf_counter()
            state = prepare(directory)
            times.append(time.perf_counter() - start)
    return state, times


def closed_loop(op: Callable[[int], Any], min_ops: int, seconds: float, tracer: Tracer,
                calibration: Calibration) -> Loop:
    """Run operations back to back until ``seconds`` passed and ``min_ops`` ran.

    The host is calibrated between operations, at most once per
    ``calibrate.INTERVAL_S``; ``elapsed`` leaves the calibration out.
    """
    loop = Loop([], [], 0.0)
    began = time.perf_counter()
    probing = 0.0
    while len(loop.latencies) < min_ops or time.perf_counter() - began - probing < seconds:
        start = time.perf_counter()
        calibration.point()
        probing += time.perf_counter() - start
        with tracer.span(OP):
            start = time.perf_counter()
            try:
                out = op(len(loop.latencies))
            except Exception as exc:  # a failed operation is counted, not fatal
                out = Failure(exc)
            loop.latencies.append(time.perf_counter() - start)
        loop.outputs.append(out)
    loop.elapsed = time.perf_counter() - began - probing
    calibration.point(force=True)
    return loop


def episode_contributions(model: PcaModel, fault_path: Path) -> ContributionVector:
    """Contribution rates of an episode's window, as ``run_diagnose`` derives them.

    Every benchmark graph names its variables after their columns, so the
    roster is the model's columns; ``restrict`` renormalizes as the pipeline does.
    """
    fault = dataio.read_csv(fault_path).select(model.columns)
    window = DataMatrix(fault.values[FAULT_START : FAULT_START + WINDOW], fault.columns)
    return features.contribution_rate(model, window).restrict(model.columns)


def reference_ranking(graph: KnowledgeGraph, contributions: ContributionVector) -> RootCauseRanking:
    """The reference path: one ``root_score`` call per candidate, then sort."""
    params = RfpaParams()
    entries = [
        RankEntry(e.id, e.kind.value, scoring.root_score(graph, params, contributions, e.id))
        for e in graph.entities_of_kind(*CANDIDATE_KINDS)
    ]
    entries.sort(key=lambda e: (-e.score, e.id))
    return RootCauseRanking(tuple(entries), {})


def reference_problem(ranking: RootCauseRanking, text: str, ref: RootCauseRanking) -> str | None:
    """Why ``ranking`` and its report ``text`` disagree with the reference, or None.

    Every score must be within ``SCORE_TOL`` of the reference score, and the
    order must be the reference order; only candidates whose reference scores
    lie within ``SCORE_TOL`` of each other may appear in either order. The
    text must equal ``format_report`` of the reference ranking in that order.
    """
    expected = {e.id: e for e in ref.entries}
    if sorted(e.id for e in ranking.entries) != sorted(expected):
        return "ranked candidates differ from the reference path"
    worst = max(abs(e.score - expected[e.id].score) for e in ranking.entries)
    if worst > SCORE_TOL:
        return f"scores differ from the reference path by {worst:.3g}"
    for above, below in zip(ranking.entries, ranking.entries[1:]):
        if expected[below.id].score - expected[above.id].score > SCORE_TOL:
            return f"{above.id} ranked above {below.id} against the reference order"
    in_order = RootCauseRanking(tuple(expected[e.id] for e in ranking.entries), {})
    if text != scoring.format_report(in_order, top_k=TOP_K):
        return "report text differs from format_report of the reference ranking"
    return None


def quality(rankings: list[RootCauseRanking | None], episodes: tuple[Episode, ...]):
    """Shares of episodes whose first variable and physical top 3 are acceptable."""
    top1 = top3 = 0
    for ranking, ep in zip(rankings, episodes):
        if ranking is None:
            continue
        top1 += ranking.variables()[0].id in ep.ok_variables
        top3 += bool({e.id for e in ranking.physical()[:3]} & ep.ok_physical)
    return top1 / len(episodes), top3 / len(episodes)


def ranking_from_json(path: Path) -> RootCauseRanking:
    doc = json.loads(path.read_text(encoding="utf-8"))
    entries = tuple(RankEntry(e["id"], e["kind"], float(e["score"])) for e in doc["ranking"])
    return RootCauseRanking(entries, {})


def warm_up(cli: Cli, directory: Path) -> None:
    """Import the CLI once, so that bytecode and file caches are filled."""
    cli.require(["--help"], directory / "help.out")


def tep_stream(work: Path, seed: int, seconds: float, sizes: Sizes, tracer: Tracer,
               calibration: Calibration) -> Outcome:
    """In-process ``run_diagnose`` + ``format_report`` per episode on the TEP graph."""
    cli = Cli(tracer, work)

    def prepare(directory: Path):
        normal, episodes = inputs.tep_inputs(TEP_GRAPH, directory, seed, sizes)
        model = directory / "model.json"
        cli.require(["fit", "--graph", TEP_GRAPH, "--data", normal, "--model", model],
                    directory / "fit.out")
        configs = [
            DiagnosisConfig(
                graph_path=str(TEP_GRAPH),
                model_path=str(model),
                fault_data_path=str(ep.path),
                fault_start=FAULT_START,
                window=WINDOW,
            )
            for ep in episodes
        ]
        pipeline.run_diagnose(configs[0])
        return model, episodes, configs

    (model, episodes, configs), setup_times = repeat_setup(work, sizes, tracer, calibration,
                                                           prepare)

    def op(i: int):
        config = configs[i % len(configs)]
        ranking = pipeline.run_diagnose(config)
        return ranking, scoring.format_report(ranking, top_k=config.top_k)

    loop = closed_loop(op, max(TEP_MIN_OPS, len(episodes)), seconds, tracer, calibration)
    outputs = loop.outputs
    peak_kib = peak_rss_kib()

    with tracer.span("check.inputs"):
        graph = kgraph.load_graph(TEP_GRAPH)
        contributions = episode_contributions(features.load_model(model), episodes[0].path)
    with tracer.span(REFERENCE):
        ref = reference_ranking(graph, contributions)
    with tracer.span("check.outputs"):
        failures = check_tep_outputs(outputs, episodes, ref)
    rankings = [None if isinstance(out, Failure) else out[0] for out in outputs]
    top1, top3 = quality(rankings[: len(episodes)], episodes)
    return Outcome(setup_times, loop, peak_kib / 1024, top1, top3, failures, len(episodes))


def check_tep_outputs(outputs: list[Any], episodes, ref: RootCauseRanking) -> dict[int, str]:
    """Failures of in-process diagnoses: exceptions, wrong size, reruns that differ."""
    failures: dict[int, str] = {}
    first_text: dict[int, str] = {}
    for i, out in enumerate(outputs):
        if isinstance(out, Failure):
            failures[i] = out.reason
            continue
        ranking, text = out
        e = i % len(episodes)
        if len(ranking.entries) != len(ref.entries):
            failures[i] = f"{len(ranking.entries)} candidates ranked, expected {len(ref.entries)}"
        elif first_text.setdefault(e, text) != text:
            failures[i] = f"report for episode {e} differs from its first run"
    if 0 not in failures:
        problem = reference_problem(*outputs[0], ref)
        if problem:
            failures[0] = problem
    return failures


def plant800_diagnose(work: Path, seed: int, seconds: float, sizes: Sizes, tracer: Tracer,
                      calibration: Calibration) -> Outcome:
    """One cold ``rootkgd diagnose`` subprocess per episode on the 800-device plant."""
    cli = Cli(tracer, work)
    ops = work / "ops"

    def prepare(directory: Path):
        plant = inputs.plant_inputs(directory, seed, sizes, sizes.plant_episodes)
        path = directory / "model.json"
        model = features.fit_pca(plant.normal, R_PC)
        features.save_model(model, path)
        warm_up(cli, directory)
        return plant, model, path

    (plant, model, model_path), setup_times = repeat_setup(work, sizes, tracer, calibration,
                                                           prepare)
    episodes = plant.episodes
    ops.mkdir()

    def op(i: int):
        report = ops / f"report{i}.json"
        run = cli.run(
            ["diagnose", "--graph", plant.graph_path, "--model", model_path,
             "--data", episodes[i % len(episodes)].path,
             "--fault-start", FAULT_START, "--window", WINDOW, "--json", report],
            ops / f"op{i}.out",
        )
        return run, report

    loop = closed_loop(op, max(PLANT_MIN_OPS, len(episodes)), seconds, tracer, calibration)

    with tracer.span("check.inputs"):
        # fit_pca's model is bit-identical to what load_model reads back from its file.
        graph = kgraph.load_graph(plant.graph_path)
        contributions = episode_contributions(model, episodes[0].path)
    with tracer.span(REFERENCE):
        ref = reference_ranking(graph, contributions)
    with tracer.span("check.outputs"):
        failures, rankings, rss = check_diagnose_outputs(loop.outputs, episodes, ref)
    top1, top3 = quality(rankings[: len(episodes)], episodes)
    peak = statistics.median(rss) if rss else 0.0
    return Outcome(setup_times, loop, peak, top1, top3, failures, len(episodes))


def check_diagnose_outputs(outputs: list[Any], episodes, ref: RootCauseRanking):
    """Failures, rankings and peak RSS of ``rootkgd diagnose --json`` runs."""
    failures: dict[int, str] = {}
    first: dict[int, RootCauseRanking] = {}
    rankings: list[RootCauseRanking | None] = []
    texts: list[str] = []
    rss: list[float] = []
    for i, out in enumerate(outputs):
        rankings.append(None)
        texts.append("")
        if isinstance(out, Failure):
            failures[i] = out.reason
            continue
        run, report = out
        rss.append(run.peak_rss_mb)
        if run.returncode != 0:
            failures[i] = f"exit code {run.returncode}: {run.stderr.read_text(errors='replace')[-500:]}"
            continue
        ranking = ranking_from_json(report)
        rankings[i] = ranking
        stdout = run.stdout.read_text(encoding="utf-8")
        trailer = f"report written to {report}\n"
        texts[i] = stdout[: -len(trailer)] if stdout.endswith(trailer) else stdout
        e = i % len(episodes)
        if texts[i] != scoring.format_report(ranking, top_k=TOP_K) or not stdout.endswith(trailer):
            failures[i] = "CLI text differs from format_report of its JSON ranking"
        elif len(ranking.entries) != len(ref.entries):
            failures[i] = f"{len(ranking.entries)} candidates ranked, expected {len(ref.entries)}"
        elif first.setdefault(e, ranking) != ranking:
            failures[i] = f"ranking for episode {e} differs from its first run"
    if 0 not in failures:
        problem = reference_problem(rankings[0], texts[0], ref)
        if problem:
            failures[0] = problem
    return failures, rankings, rss


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "tep-stream": tep_stream,
    "plant800-diagnose": plant800_diagnose,
}
