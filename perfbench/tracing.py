"""Spans around calls into rootkgd's public functions, recorded from outside it.

``Tracer.install`` replaces each function listed in ``TRACED``, in every
loaded ``rootkgd`` module that refers to it, with a wrapper that records a
span: name, start, end and the span that was open when the call began. The
program's sources are not changed. Spans are kept in memory and written out
when the run ends; ``layer_metrics`` derives the per-layer numbers from them.

This module imports only the standard library, so the traced CLI bootstrap can
load it before timing the import of the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Iterator

#: Traced public functions, by module: the ones ROADMAP keeps.
TRACED = {
    "rootkgd.kgraph": ("load_graph",),
    "rootkgd.dataio": ("read_csv",),
    "rootkgd.features": ("fit_pca", "save_model", "load_model", "contribution_rate"),
    "rootkgd.rfpa": ("propagate",),
    "rootkgd.scoring": ("root_score", "rank_all", "format_report"),
    "rootkgd.pipeline": ("run_diagnose", "run_fit"),
}

#: Top-level span names the benchmark opens; every other span nests in one.
OP = "op"
SETUP = "setup"
REFERENCE = "check.reference"
CLI_RUN = "cli.run"
CLI_IMPORT = "cli.import"

#: Per-layer metrics and their units, in report order.
LAYER_UNITS = {
    "rfpa.propagate_s": "s",
    "rfpa.runs": "count",
    "rfpa.pops": "count",
    "rfpa.pops_per_run": "count",
    "rfpa.reach_ratio": "ratio",
    "rfpa.us_per_pop": "us",
    "scoring.rank_all_s": "s",
    "scoring.candidates": "count",
    "scoring.self_s": "s",
    "scoring.format_report_s": "s",
    "dataio.read_csv_s": "s",
    "dataio.cells": "count",
    "dataio.cells_per_s": "1/s",
    "features.fit_pca_s": "s",
    "features.save_model_s": "s",
    "features.load_model_s": "s",
    "features.model_bytes": "bytes",
    "features.contribution_rate_s": "s",
    "kgraph.load_graph_s": "s",
    "kgraph.entities": "count",
    "kgraph.triples": "count",
    "pipeline.run_s": "s",
    "pipeline.self_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    """Work counts read off a traced call's arguments and result."""
    if name == "kgraph.load_graph":
        return {"entities": len(result.entities), "triples": len(result.triples)}
    if name == "dataio.read_csv":
        return {"cells": int(result.values.size)}
    if name == "features.save_model":
        return {"model_bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}
    if name == "features.load_model":
        return {"model_bytes": os.path.getsize(args[0] if args else kwargs["path"])}
    if name == "rfpa.propagate":
        graph = args[0] if args else kwargs["graph"]
        reached = sum(1 for q in result.quantities.values() if q != 0.0)
        return {"pops": result.pops, "reached": reached, "entities": len(graph.entities)}
    if name == "scoring.rank_all":
        return {"candidates": len(result.entries)}
    return {}


class Tracer:
    """Records spans while enabled; a disabled tracer only opens no-op spans.

    perf_counter reads the system-wide monotonic clock on Linux, so spans
    recorded in another process can be adopted into this one's timeline.
    A process forked from the tracing one (a scoring pool worker) inherits the
    wrappers; at its first traced call it starts an empty span list of its own,
    and when it exits it writes that list to ``spill/<pid>.json``. After each
    traced call, the tracing process adopts whatever spans its workers spilled
    under the call's span.
    """

    def __init__(self, enabled: bool, spill: str):
        self.enabled = enabled
        self.spill = spill
        self.pid = os.getpid()
        self.worker = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span | None]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._become_worker()
            index = len(self.spans)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            span.counts = _counts(name, args, kwargs, result)  # outside the timed span
            if not self.worker and os.path.isdir(self.spill):
                self._adopt_workers(index)
            return result

        return traced

    def _become_worker(self) -> None:
        from multiprocessing import util  # loaded already in a pool worker

        self.pid, self.worker = os.getpid(), True
        self.spans, self._stack = [], []
        util.Finalize(None, self._write_spill, exitpriority=0)

    def _write_spill(self) -> None:
        os.makedirs(self.spill, exist_ok=True)
        path = os.path.join(self.spill, str(self.pid))
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(self.records(), fh)
        os.replace(path + ".tmp", path + ".json")

    def _adopt_workers(self, parent: int) -> None:
        for entry in sorted(os.scandir(self.spill), key=lambda e: e.name):
            if entry.name.endswith(".json"):
                with open(entry.path, encoding="utf-8") as fh:
                    self.adopt(json.load(fh), parent)
                os.remove(entry.path)
        try:
            os.rmdir(self.spill)
        except OSError:  # a worker is still writing; its spans go to the next call
            pass

    def install(self) -> None:
        """Wrap every traced function wherever a loaded rootkgd module holds it."""
        if not self.enabled or self._patched:
            return
        importlib.import_module("rootkgd")
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            layer = module_name.rsplit(".", 1)[1]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for holder in list(sys.modules.values()):
                    if getattr(holder, "__name__", "").split(".")[0] != "rootkgd":
                        continue
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapped)
                            self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def adopt(self, records: Iterable[dict], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for record in records:
            span = Span(**record)
            span.parent = parent if span.parent < 0 else base + span.parent
            self.spans.append(span)

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _median(values: Iterable[float]) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def _median_ratio(num: dict[int, float], den: dict[int, float]) -> float | None:
    return _median(num[g] / den[g] for g in num if den.get(g))


def _covered(spans: list[Span]) -> float:
    """Wall time during which at least one of ``spans`` was open."""
    total, reach = 0.0, float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        if span.end > reach:
            total += span.end - max(span.start, reach)
            reach = span.end
    return total


def layer_metrics(spans: list[Span], cycle: int) -> dict[str, float]:
    """Per-layer metrics from one run's spans.

    Spans are grouped by their top-level span: one set-up repetition, one
    operation or one check. A layer's time is the median over operations of
    the time its calls took in one operation, summed over the pool's workers.
    Work counts are medians over the first ``cycle`` operations, one pass over
    the run's distinct inputs, so they repeat exactly for a seed. A layer the
    operation does not call is measured, by the same rule, where the
    workload's set-up or checks call it; the serial reference sweep
    (``REFERENCE``) is never used. Self times are span durations minus the
    child spans of other layers. ``scoring.self_s`` is ``rank_all``'s duration
    minus the wall time during which one of its propagations ran: with a
    process pool the propagations overlap, and ``rfpa.propagate_s`` (their
    summed time) can exceed ``scoring.rank_all_s``.
    """
    children: dict[int, list[int]] = defaultdict(list)
    top: list[int] = []
    for i, span in enumerate(spans):
        if span.parent < 0:
            top.append(i)
        else:
            children[span.parent].append(i)
            top.append(top[span.parent])
    first_pass = set([g for g in dict.fromkeys(top) if spans[g].name == OP][:cycle])

    def duration(i: int) -> float:
        return spans[i].duration

    def count(key: str) -> Callable[[int], float]:
        return lambda i: spans[i].counts[key]

    def self_time(i: int, keep: tuple[str, ...] = ()) -> float:
        covered = sum(spans[c].duration for c in children[i] if spans[c].name not in keep)
        return spans[i].duration - covered

    def groups(names: tuple[str, ...], value: Callable[[int], float],
               counts: bool = False) -> dict[int, float]:
        sums: dict[int, float] = defaultdict(float)
        for i, span in enumerate(spans):
            if span.name in names:
                sums[top[i]] += value(i)
        ops = {g: v for g, v in sums.items()
               if spans[g].name == OP and (g in first_pass or not counts)}
        return ops or {g: v for g, v in sums.items() if spans[g].name != REFERENCE}

    def timed(names: tuple[str, ...], value: Callable[[int], float] | None = None):
        return _median(groups(names, value or duration).values())

    def counted(names: tuple[str, ...], key: str):
        return _median(groups(names, count(key), counts=True).values())

    propagations: dict[int, list[Span]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.name == "rfpa.propagate":
            owner = span.parent
            while owner >= 0 and spans[owner].name != "scoring.rank_all":
                owner = spans[owner].parent
            propagations[owner].append(span)

    out: dict[str, float | None] = {}
    prop = ("rfpa.propagate",)
    runs = groups(prop, lambda i: 1, counts=True)
    pops = groups(prop, count("pops"), counts=True)
    out["rfpa.propagate_s"] = timed(prop)
    out["rfpa.runs"] = _median(runs.values())
    out["rfpa.pops"] = _median(pops.values())
    out["rfpa.pops_per_run"] = _median_ratio(pops, runs)
    out["rfpa.reach_ratio"] = _median_ratio(
        groups(prop, count("reached"), counts=True), groups(prop, count("entities"), counts=True)
    )
    out["rfpa.us_per_pop"] = _median_ratio(
        groups(prop, lambda i: duration(i) * 1e6), groups(prop, count("pops"))
    )

    rank = ("scoring.rank_all",)
    out["scoring.rank_all_s"] = timed(rank)
    out["scoring.candidates"] = counted(rank, "candidates")
    out["scoring.self_s"] = timed(rank, lambda i: duration(i) - _covered(propagations[i]))
    out["scoring.format_report_s"] = timed(("scoring.format_report",))

    csv = ("dataio.read_csv",)
    out["dataio.read_csv_s"] = timed(csv)
    out["dataio.cells"] = counted(csv, "cells")
    out["dataio.cells_per_s"] = _median_ratio(groups(csv, count("cells")), groups(csv, duration))

    for fname in ("fit_pca", "save_model", "load_model", "contribution_rate"):
        out[f"features.{fname}_s"] = timed((f"features.{fname}",))
    out["features.model_bytes"] = counted(("features.save_model", "features.load_model"),
                                          "model_bytes")

    graph = ("kgraph.load_graph",)
    out["kgraph.load_graph_s"] = timed(graph)
    out["kgraph.entities"] = counted(graph, "entities")
    out["kgraph.triples"] = counted(graph, "triples")

    pipeline = ("pipeline.run_diagnose", "pipeline.run_fit")
    out["pipeline.run_s"] = timed(pipeline)
    out["pipeline.self_s"] = timed(pipeline, self_time)

    out["cli.import_s"] = timed((CLI_IMPORT,))
    out["cli.self_s"] = timed((CLI_RUN,), lambda i: self_time(i, keep=(CLI_IMPORT,)))

    missing = [name for name in LAYER_UNITS if out.get(name) is None]
    if missing:
        raise RuntimeError(f"the traced run never measured: {missing}")
    return {name: out[name] for name in LAYER_UNITS}
