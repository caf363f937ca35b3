"""Ripple fault propagation over the knowledge graph.

A hypothesized root is seeded with one unit of fault quantity, every other
node starting at zero, and the quantity then spreads along outgoing triples.
Each edge event attenuates the emitted quantity exponentially in the
relation's distance, and a node re-emits the *average* of what it has
received (its accumulated quantity divided by its receipt count), which keeps
cyclic graphs from blowing up. A per-node initiation cap and a minimum-emission
threshold stop the ripple.

The whole walk is deterministic: the queue orders items by (priority,
insertion sequence) and edges are iterated in the graph's canonical order.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

from .kgraph import KnowledgeGraph


def finite_real(value: object) -> bool:
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
        if not (finite_real(self.sigma_r) and self.sigma_r > 0):
            raise ValueError(f"sigma_r must be positive and finite, got {self.sigma_r!r}")
        if isinstance(self.p_max, bool) or not isinstance(self.p_max, int):
            raise ValueError(f"p_max must be an integer, got {self.p_max!r}")
        if self.p_max < 1:
            raise ValueError(f"p_max must be at least 1, got {self.p_max}")
        if not (finite_real(self.delta_s_min_ratio) and 0 < self.delta_s_min_ratio < 1):
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
    graph.entity(source)  # raises GraphError for unknown ids

    factor = {r.name: attenuation(params, r.distance) for r in graph.relations}
    threshold = params.delta_s_min_ratio

    # Every state table holds only the nodes the ripple reaches, so a run
    # costs O(reach log reach), not O(|entities|); an absent node holds 0.
    quantity = {source: 1.0}
    received = {source: 1}  # the seed assignment counts as one receipt
    initiated: dict[str, int] = {}
    # A node is queued once per receipt (the seed counts as one), so its
    # receipt count is also its queue-insertion count. Pops beyond the
    # (p_max+1)-th are no-ops: the initiation cap is already exceeded, so
    # they emit nothing and change no quantity. Queuing only the first
    # p_max + 1 receipts leaves results identical and bounds total pops by
    # (p_max + 1) * |entities|.
    p_max = params.p_max

    heap: list[tuple[int, int, str]] = [(0, 0, source)]
    seq = 1
    pops = 0
    event = 0

    while heap:
        priority, _, head = heapq.heappop(heap)
        pops += 1
        if trace_sink is not None:
            trace_sink.append(TraceEvent(seq=event, priority=priority, head=head))
            event += 1
        rounds = initiated.get(head, 0) + 1
        initiated[head] = rounds
        if rounds > p_max:
            continue
        for rel, tail in graph.out_index[head]:
            delta = quantity[head] / received[head] * factor[rel.name]
            if delta < threshold:
                continue
            total = quantity[tail] = quantity.get(tail, 0.0) + delta
            receipts = received[tail] = received.get(tail, 0) + 1
            if receipts <= p_max + 1:
                heapq.heappush(heap, (priority + rel.priority_offset, seq, tail))
                seq += 1
            if trace_sink is not None:
                trace_sink.append(
                    TraceEvent(
                        seq=event,
                        priority=priority,
                        head=head,
                        relation=rel.name,
                        tail=tail,
                        delta=delta,
                        total=total,
                    )
                )
                event += 1

    return PropagationResult(quantities=quantity, pops=pops)


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
