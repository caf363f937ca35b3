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
run is fixed by the edges it walks, and ``propagate_groups`` serves every
source whose run would repeat another's operations on other entities with
that run relabeled, checking a group of sources in one numpy pass.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

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
    ripple reached, each positive, at the graph ``positions`` listed in key
    order; any other entity holds 0.0."""

    quantities: dict[str, float]
    pops: int
    positions: tuple[int, ...] = field(compare=False, repr=False)


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
    return PropagationResult(quantities=quantities, pops=pops, positions=tuple(reached))


def propagate(graph: KnowledgeGraph, params: RfpaParams, source: str) -> PropagationResult:
    """Run one fault propagation from ``source`` seeded with one unit."""
    return _run(graph, params, source, None)


#: The fewest sources besides its first that a group needs to be walked: a
#: walk costs about two to five runs of its reach, however many it walks.
MIN_WALKED = 3


def propagate_groups(
    graph: KnowledgeGraph, params: RfpaParams, sources: Iterable[str]
) -> Iterator[tuple[list[int], np.ndarray, np.ndarray]]:
    """Yield ``(served, images, quantities)`` for each propagation run made
    for ``sources``: the indices of the sources the run serves, an int32
    array with one row of entity positions per served source (row 0 is the
    run's own source and reach), and the run's quantities as one float64
    array, in first-receipt order. Each source is served by one run, and
    ``dict(zip(ids of images[r], quantities))`` is what
    ``propagate(graph, params, sources[served[r]])`` returns, bit for bit.

    Sources of one key (``_seed_keys``) form a group. Its first source is
    propagated and, when at least ``MIN_WALKED`` others remain, ``_walk``
    walks the run onto them in one numpy pass. The run serves each source
    whose walk maps its reached entities one-to-one onto entities of the same
    relation sequence, each edge into a reached entity, at its position in
    the edge list, leading at the image to that entity's image: that
    source's run would do the same operations in the same order, as an edge
    into an entity the run never reached carried only emissions below the
    threshold. A smaller group is not walked: its run serves its first
    source alone. Each source a run does not serve runs alone in its turn.
    """
    sources = list(sources)
    position, adjacency = graph.position, graph.adjacency
    shape = _shapes(adjacency)
    tables = _tables(adjacency, shape)
    groups: dict[int, list[int]] = {}
    for i, key in enumerate(_seed_keys(adjacency, shape, [position.get(s) for s in sources])):
        groups.setdefault(key, []).append(i)
    parts = list(groups.values())
    for members in parts:  # each source a run does not serve is appended alone
        # Looked up in the module at each call, so a wrapper set on
        # ``rfpa.propagate`` sees every run that is made.
        result = propagate(graph, params, sources[members[0]])
        count = len(result.positions)
        quantities = np.fromiter(result.quantities.values(), np.float64, count)
        if len(members) <= MIN_WALKED:
            accepted = [True] + [False] * (len(members) - 1)
            images = np.fromiter(result.positions, np.int32, count)[None]
        else:
            # The first source is walked too: its image is the run's reach.
            targets = np.array([position[sources[i]] for i in members], np.int32)
            accepted, images = _walk(adjacency, *tables, result.positions, targets)
            accepted = accepted.tolist()
        parts += [[i] for i, ok in zip(members, accepted) if not ok]
        yield [i for i, ok in zip(members, accepted) if ok], images, quantities
        del images  # freed before the next walk, as the caller frees its own


def _shapes(adjacency) -> list[int]:
    """A number per entity, equal for entities of equal relation sequence
    (the relations of their edges, in adjacency order)."""
    sequences: dict[tuple[int, ...], int] = {}
    return [sequences.setdefault(tuple([rel for _, rel, _ in edges]), len(sequences))
            for edges in adjacency]


def _seed_keys(adjacency, shape: list[int], seeds: list[int | None]) -> list[int]:
    """A number per seed, equal for seeds of equal relation sequence whose
    out-edges lead, in order, to tails of equal relation sequence through
    which the same positions lead back to the seed: a source whose run
    relabels another's has that source's number. An unknown seed (None)
    gets 0, and ``propagate`` raises for it in its turn. The positions come
    from one index over the whole graph, built in one pass over its edges:
    it maps ``entity * len(adjacency) + tail`` to the position of the
    entity's edge to that tail, or to nested pairs ``((j1, j2), j3)`` of the
    positions when it has several. Its entries are ints, not tuples, to keep
    it small: it is built while the graph stage of a diagnosis peaks.
    """
    n = len(adjacency)
    back: dict[int, Any] = {}
    for head, edges in enumerate(adjacency):
        for j, (tail, _, _) in enumerate(edges):
            pair = head * n + tail
            back[pair] = (back[pair], j) if pair in back else j
    numbers: dict[Any, int] = {None: 0}
    return [
        0 if seed is None else numbers.setdefault((shape[seed], tuple([
            (shape[t], back.get(t * n + seed, -1)) for t, _, _ in adjacency[seed]
        ])), len(numbers))
        for seed in seeds
    ]


def _tables(adjacency, shape: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The tail position of each entity's k-th edge as row k of a
    (max degree x entities) int32 array, -1 where an entity has fewer edges,
    and ``shape`` as an array."""
    degree = np.fromiter(map(len, adjacency), np.intp, len(adjacency))
    tails = np.full((int(degree.max(initial=0)), len(adjacency)), -1, np.int32)
    heads = np.repeat(np.arange(len(adjacency)), degree)
    slots = np.arange(len(heads)) - np.repeat(np.cumsum(degree) - degree, degree)
    tails[slots, heads] = [tail for edges in adjacency for tail, _, _ in edges]
    return tails, np.array(shape, np.int32)


def _walk(adjacency, tails: np.ndarray, shapes: np.ndarray, reached: Sequence[int],
          targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk the run that reached ``reached`` onto every one of ``targets``:
    return whether each target is accepted and each accepted target's image
    of ``reached``, one row each.

    At each reached entity, in first-receipt order, the image must have the
    entity's relation sequence (the shape test); the entity's edges that
    first lead to a reached entity map it (an entity is first reached along
    an edge of one reached before it), and its other edges into reached
    entities must lead to their images (the back-edge checks). Last, each
    image must be one-to-one. A refused target's image is still mapped, to
    any positions or -1, and its checks change nothing.
    """
    slot = {entity: j for j, entity in enumerate(reached)}
    seen = [True] + [False] * (len(reached) - 1)
    image = np.empty((len(reached), len(targets)), np.int32)  # one row per reached entity
    image[0] = targets
    accepted = np.ones(len(targets), bool)
    for i, entity in enumerate(reached):
        mapped = image[i]
        accepted &= shapes.take(mapped) == shapes[entity]
        for k, (tail, _, _) in enumerate(adjacency[entity]):
            j = slot.get(tail)
            if j is None:
                continue
            if seen[j]:
                accepted &= tails[k].take(mapped) == image[j]
            else:
                seen[j] = True
                tails[k].take(mapped, out=image[j])
    ordered = image[:, accepted]
    ordered.sort(axis=0)
    accepted[accepted] = (ordered[1:] != ordered[:-1]).all(axis=0)
    del ordered
    return accepted, image[:, accepted].T


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
