"""Ripple fault propagation over the knowledge graph.

A hypothesized root is seeded with one unit of fault quantity, every other
node starting at zero, and the quantity then spreads along outgoing triples.
Each edge event attenuates the emitted quantity exponentially in the
relation's distance, and a node re-emits the *average* of what it has
received (its accumulated quantity divided by its receipt count), which keeps
cyclic graphs from blowing up. A per-node initiation cap and a minimum-emission
threshold stop the ripple.

The whole walk is deterministic: nodes leave the queue in (priority,
insertion) order and edges are iterated in the graph's canonical order. So a
run is fixed by the edges it walks, and ``propagate_each`` gives a source
whose run would repeat an earlier run's operations, on other entities, the
earlier run's result relabeled.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Any

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

    # The state tables are lists over entity positions, made for this run
    # alone, so runs on one graph share no state. ``reached`` holds
    # positions in first-receipt order, the key order of the result.
    n = len(entities)
    quantity, received, initiated = [0.0] * n, [0] * n, [0] * n
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
    return PropagationResult(quantities=quantities, pops=pops)


def propagate(graph: KnowledgeGraph, params: RfpaParams, source: str) -> PropagationResult:
    """Run one fault propagation from ``source`` seeded with one unit."""
    return _run(graph, params, source, None)


def propagate_each(
    graph: KnowledgeGraph, params: RfpaParams, sources: Iterable[str]
) -> Iterator[PropagationResult]:
    """Yield ``propagate(graph, params, s)`` for each of ``sources``, in order.

    Each result equals the one ``propagate`` returns: the same quantities, in
    the same key order, bit for bit, and the same ``pops``. ``propagate`` runs
    only for a source whose run is not a relabeling of an earlier source's
    run. Source t reuses the run of an earlier source s when a walk over s's
    reached entities, in first-receipt order from s -> t, maps them
    one-to-one onto entities of the same relation sequence, and the edge at
    each position of a reached entity, where it leads to a reached tail,
    leads at the image to that tail's image. t's run then does s's
    operations, in s's order, on the images: an edge into a tail s's run
    never reached carried only emissions below the threshold, which t's run
    skips too. t's result is then s's quantities, relabeled, and s's pops.

    A source tries one earlier run: the last one made for its key
    (``_seed_keys``). A run is kept while a later source shares its key, and
    no longer.
    """
    sources = list(sources)
    entities, position, adjacency = graph.entities, graph.position, graph.adjacency
    shape = _shapes(adjacency)
    keys = _seed_keys(adjacency, shape, [position.get(s) for s in sources])
    last = {key: i for i, key in enumerate(keys)}
    kept: dict[int, _KeptRun] = {}
    for i, (source, key) in enumerate(zip(sources, keys)):
        later = last[key] > i
        run = kept.get(key) if later else kept.pop(key, None)
        image = run and run.relabeling(adjacency, shape, position[source])
        if image:
            result = PropagationResult(
                dict(zip([entities[at].id for at in image], run.quantities)), run.pops
            )
        else:
            # Looked up in the module at each call, so a wrapper set on
            # ``rfpa.propagate`` sees every run that is made.
            result = propagate(graph, params, source)
            if later:
                kept[key] = _KeptRun(result, position)
        del run  # a run no later source shares is freed now, not at the next result
        yield result


_relation = operator.itemgetter(1)  # of an adjacency edge


def _shapes(adjacency) -> list[int]:
    """A number per entity, equal for entities of equal relation sequence
    (the relations of their edges, in adjacency order)."""
    sequences: dict[tuple[int, ...], int] = {}
    return [sequences.setdefault(tuple(map(_relation, edges)), len(sequences))
            for edges in adjacency]


def _seed_keys(adjacency, shape: list[int], seeds: list[int | None]) -> list[int]:
    """A number per seed, equal for seeds of equal relation sequence whose
    out-edges lead, in order, to tails of equal relation sequence through
    which the same positions lead back to the seed: a source whose run
    relabels another's has that source's number. An unknown seed (None)
    gets 0, and ``propagate`` raises for it in its turn.

    The positions cost a scan of each tail's edges, so they are read only for
    seeds that share the rest of their key; the seeds of a graph without
    repeated structure (a device with many variables) mostly do not. A key
    reads only the seed's and its tails' edges: no index over the whole graph
    is held.
    """
    numbers: dict[Any, int] = {None: 0}
    near = [
        0 if seed is None else numbers.setdefault(
            (shape[seed], tuple([shape[t] for t, _, _ in adjacency[seed]])), len(numbers)
        )
        for seed in seeds
    ]
    shared = {key for key, count in Counter(near).items() if count > 1 and key != 0}
    return [
        numbers.setdefault((key, tuple([
            tuple([j for j, edge in enumerate(adjacency[t]) if edge[0] == seed])
            for t, _, _ in adjacency[seed]
        ])), len(numbers)) if key in shared else key
        for seed, key in zip(seeds, near)
    ]


class _KeptRun:
    """A run kept for relabeling: its quantities and pops, and the walk over
    its reached entities in first-receipt order, built as far as a walk has
    come, so a walk that fails early costs little.

    ``plan[i]`` is ``(relation sequence, maps, checks)`` for ``reached[i]``.
    ``maps`` holds the ``(edge position, slot)`` pairs of its edges that first
    lead to a reached entity (the seed, slot 0, is mapped from the start), and
    ``checks`` those of its other edges into reached entities. An entity is
    first reached along an edge of an entity reached before it, so the walk
    maps each slot before its turn.
    """

    __slots__ = ("quantities", "pops", "reached", "slot", "seen", "plan")

    def __init__(self, result: PropagationResult, position: dict[str, int]):
        self.quantities = list(result.quantities.values())
        self.pops = result.pops
        self.reached = [position[e] for e in result.quantities]
        self.slot = {entity: i for i, entity in enumerate(self.reached)}
        self.seen = [True] + [False] * (len(self.reached) - 1)
        self.plan: list[tuple[int, list[tuple[int, int]], list[tuple[int, int]]]] = []

    def relabeling(self, adjacency, shape: list[int], target: int) -> list[int] | None:
        """The image of each reached entity for a run seeded at ``target``;
        None unless the map is one-to-one, keeps each entity's relation
        sequence, and takes every edge into a reached entity to the edge, at
        the same position, into that entity's image."""
        plan = self.plan
        image = [target] * len(self.reached)
        for i, mapped in enumerate(image):
            if i == len(plan):
                self._extend(adjacency, shape)
            sequence, maps, checks = plan[i]
            if shape[mapped] != sequence:
                return None
            edges = adjacency[mapped]
            for k, j in maps:
                image[j] = edges[k][0]
            for k, j in checks:
                if edges[k][0] != image[j]:
                    return None
        return image if len(set(image)) == len(image) else None

    def _extend(self, adjacency, shape: list[int]) -> None:
        entity = self.reached[len(self.plan)]
        slot, seen = self.slot, self.seen
        maps, checks = [], []
        for k, (tail, _, _) in enumerate(adjacency[entity]):
            j = slot.get(tail)
            if j is None:
                continue
            if seen[j]:
                checks.append((k, j))
            else:
                seen[j] = True
                maps.append((k, j))
        self.plan.append((shape[entity], maps, checks))


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
