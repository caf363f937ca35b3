"""Ripple fault propagation over the knowledge graph.

A hypothesized root is seeded with one unit of fault quantity, every other
node starting at zero, and the quantity then spreads along outgoing triples.
Each edge event attenuates the emitted quantity exponentially in the
relation's distance, and a node re-emits the *average* of what it has
received (its accumulated quantity divided by its receipt count), which keeps
cyclic graphs from blowing up. A per-node initiation cap and a minimum-emission
threshold stop the ripple.

The whole walk is deterministic: nodes leave the queue in (priority,
insertion) order and edges are iterated in the graph's canonical order.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

from .kgraph import KnowledgeGraph


def _finite_real(value: object) -> bool:
    """An int or float, not a bool, finite as a float (so not 10**400)."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class RfpaParams:
    """Propagation hyperparameters.

    sigma_r scales the per-relation attenuation exp(-sigma_r * distance);
    p_max caps how many rounds any single node may initiate; an edge emission
    below delta_s_min_ratio (a fraction of the unit seed) is skipped.
    """

    sigma_r: float = 0.1
    p_max: int = 3
    delta_s_min_ratio: float = 1e-4

    def __post_init__(self):
        if not (_finite_real(self.sigma_r) and self.sigma_r > 0):
            raise ValueError(f"sigma_r must be positive and finite, got {self.sigma_r!r}")
        if isinstance(self.p_max, bool) or not isinstance(self.p_max, int):
            raise ValueError(f"p_max must be an integer, got {self.p_max!r}")
        if self.p_max < 1:
            raise ValueError(f"p_max must be at least 1, got {self.p_max}")
        if not (_finite_real(self.delta_s_min_ratio) and 0 < self.delta_s_min_ratio < 1):
            raise ValueError(
                f"delta_s_min_ratio must be in (0, 1), got {self.delta_s_min_ratio!r}"
            )


@dataclass(frozen=True)
class TraceEvent:
    """One log line: a queue pop (relation/tail empty) or an edge emission."""

    seq: int
    priority: int
    head: str
    relation: str | None = None
    tail: str | None = None
    delta: float | None = None
    total: float | None = None


@dataclass(frozen=True)
class PropagationResult:
    """Final fault quantities of one propagation run: only the entities the
    ripple reached, each positive; any other entity holds 0.0."""

    quantities: dict[str, float]
    pops: int


def attenuation(params: RfpaParams, distance: float) -> float:
    """Edge attenuation factor; exactly 1 at distance 0, in (0, 1) otherwise."""
    return math.exp(-params.sigma_r * distance)


def _run(
    graph: KnowledgeGraph,
    params: RfpaParams,
    source: str,
    trace_sink: list[TraceEvent] | None,
) -> PropagationResult:
    start = graph.position[graph.entity(source).id]  # GraphError for unknown ids
    entities, relations = graph.entities, graph.relations

    factor = [attenuation(params, r.distance) for r in relations]
    threshold = params.delta_s_min_ratio

    # The state tables are lists over entity positions. A run takes a zeroed
    # set from the graph's free list (allocating one, about 30 us at 3,199
    # entities, only when the list is empty) and hands it back zeroed, so a
    # run costs time in proportion to its reach, not to the graph's size.
    # ``reached`` holds positions in first-receipt order, the key order of
    # the result; every position a run writes is in it. pop and append are
    # atomic, so no two threads share a set; a run that raises keeps its set.
    try:
        tables = graph._free_tables.pop()
    except IndexError:
        tables = ([0.0] * len(entities), [0] * len(entities), [0] * len(entities))
    quantity, received, initiated = tables
    quantity[start] = 1.0
    received[start] = 1  # the seed assignment counts as one receipt
    reached = [start]
    # A node is queued once per receipt (the seed counts as one), so its
    # receipt count is also its queue-insertion count. Pops beyond the
    # (p_max+1)-th are no-ops: the initiation cap is already exceeded, so
    # they emit nothing and change no quantity. Queuing only the first
    # p_max + 1 receipts leaves results identical and bounds total pops by
    # (p_max + 1) * |entities|.
    p_max = params.p_max
    queue_cap = p_max + 1
    adjacency = graph.adjacency

    # The queue is one FIFO bucket per pending priority plus a heap of those
    # priorities. A bucket leaves ``buckets`` when its draining starts, so a
    # node queued at the priority being drained opens a new bucket there,
    # which the heap yields next: offsets are never negative (a graph
    # invariant), so nodes pop in (priority, insertion) order.
    buckets = {0: [start]}
    pending = [0]
    pops = 0
    event = 0

    while pending:
        priority = heapq.heappop(pending)
        bucket = buckets.pop(priority)
        pops += len(bucket)
        for head in bucket:
            if trace_sink is not None:
                trace_sink.append(TraceEvent(event, priority, entities[head].id))
                event += 1
            rounds = initiated[head] + 1
            initiated[head] = rounds
            if rounds > p_max:
                continue
            # The head re-emits the average of its receipts; only a self-loop
            # emission changes it within this loop.
            average = quantity[head] / received[head]
            for tail, rel, offset in adjacency[head]:
                delta = average * factor[rel]
                if delta < threshold:
                    continue
                total = quantity[tail] = quantity[tail] + delta
                receipts = received[tail] = received[tail] + 1
                if receipts <= queue_cap:
                    if receipts == 1:
                        reached.append(tail)
                    at = priority + offset
                    queued = buckets.get(at)
                    if queued is None:
                        buckets[at] = [tail]
                        heapq.heappush(pending, at)
                    else:
                        queued.append(tail)
                if tail == head:
                    average = total / receipts
                if trace_sink is not None:
                    trace_sink.append(TraceEvent(
                        event, priority, entities[head].id, relations[rel].name,
                        entities[tail].id, delta, total,
                    ))
                    event += 1

    quantities = {entities[i].id: quantity[i] for i in reached}
    for i in reached:
        quantity[i] = 0.0
        received[i] = 0
        initiated[i] = 0
    graph._free_tables.append(tables)
    return PropagationResult(quantities=quantities, pops=pops)


def propagate(graph: KnowledgeGraph, params: RfpaParams, source: str) -> PropagationResult:
    """Run one fault propagation from ``source`` seeded with one unit."""
    return _run(graph, params, source, None)


def trace(
    graph: KnowledgeGraph, params: RfpaParams, source: str
) -> tuple[PropagationResult, tuple[TraceEvent, ...]]:
    """Like propagate, but also returns the full event log."""
    events: list[TraceEvent] = []
    result = _run(graph, params, source, events)
    return result, tuple(events)


def format_trace_tsv(events: tuple[TraceEvent, ...]) -> str:
    """Render an event log as TSV (header + one line per event)."""
    lines = ["seq\tpriority\thead\trelation\ttail\tdelta_s\ts_tail"]
    for ev in events:
        if ev.relation is None:
            lines.append(f"{ev.seq}\t{ev.priority}\t{ev.head}\t\t\t\t")
        else:
            lines.append(
                f"{ev.seq}\t{ev.priority}\t{ev.head}\t{ev.relation}\t{ev.tail}"
                f"\t{ev.delta!r}\t{ev.total!r}"
            )
    return "\n".join(lines) + "\n"
