"""Root-cause scoring: align simulated fault profiles with observed contributions.

The candidates are every variable, stream and device in the graph. Each is
treated as a hypothetical root: a propagation run is seeded there, its
resulting quantities are read off at the measured variables, and the
candidate is scored by cosine similarity between that profile and the
observed contribution-rate vector. A propagation run scales linearly with its
seed and cosine ignores scale, so any positive seed gives the same score;
every candidate is seeded with one unit. ``rank_all`` takes the candidates'
runs from ``rfpa.propagate_each``, which runs the propagation once per
distinct seed structure and relabels that run for the candidates that repeat
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .features import ContributionVector
from .kgraph import EntityKind, KnowledgeGraph
from .rfpa import PropagationResult, RfpaParams, propagate, propagate_each

#: Entity kinds scored as root-cause candidates. Substances are never
#: candidates: a fault is located on a measured variable or on the devices
#: and streams of the plant.
CANDIDATE_KINDS = (EntityKind.VARIABLE, EntityKind.STREAM, EntityKind.DEVICE)


@dataclass(frozen=True, slots=True)
class RankEntry:
    id: str
    kind: str
    score: float


@dataclass(frozen=True)
class RootCauseRanking:
    """Scored candidates by descending score; only bit-equal scores are ordered
    by ascending id (proportional profiles' scores may differ in the last bit)."""

    entries: tuple[RankEntry, ...]
    metadata: dict[str, Any]

    def variables(self) -> tuple[RankEntry, ...]:
        return tuple(e for e in self.entries if e.kind == EntityKind.VARIABLE.value)

    def physical(self) -> tuple[RankEntry, ...]:
        return tuple(e for e in self.entries if e.kind != EntityKind.VARIABLE.value)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm."""
    norm_a = math.sqrt(float(a @ a))
    norm_b = math.sqrt(float(b @ b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(a @ b) / (norm_a * norm_b)


#: The last (graph, roster) pair that passed ``_check_roster``. Both objects
#: are immutable, so the same pair, compared by identity, passes again: a
#: ranking checks its roster once, not once per candidate. The memo is
#: replaced whole, so callers in other threads can at worst repeat a check.
_roster_checked: tuple[KnowledgeGraph | None, tuple[str, ...] | None] = (None, None)


def _check_roster(graph: KnowledgeGraph, contributions: ContributionVector) -> None:
    """Raise ValueError unless the roster is non-empty, without repeats and
    every id in the graph."""
    global _roster_checked
    roster = contributions.roster
    if _roster_checked[0] is graph and _roster_checked[1] is roster:
        return
    if not roster:
        raise ValueError("contribution roster is empty")
    position = contributions.positions
    if len(position) < len(roster) or not position.keys() <= graph.position.keys():
        bad = [r for i, r in enumerate(roster) if r not in graph.position or position[r] != i]
        raise ValueError(f"roster ids repeated or not in the graph: {bad}")
    _roster_checked = (graph, roster)


def root_score(
    graph: KnowledgeGraph,
    params: RfpaParams,
    contributions: ContributionVector,
    candidate: str,
    result: PropagationResult | None = None,
) -> float:
    """Score one candidate as the root of the observed fault pattern.

    The candidate is seeded with one unit: the propagated profile scales
    linearly with the seed, so any positive seed gives the same cosine.
    ``result`` is the candidate's propagation run; without it the candidate
    is propagated here.
    """
    _check_roster(graph, contributions)
    roster, position = contributions.roster, contributions.positions
    if result is None:
        result = propagate(graph, params, candidate)
    profile = np.zeros(len(roster))
    for entity, quantity in result.quantities.items():
        if entity in position:
            profile[position[entity]] = quantity
    return cosine(profile, contributions.scores)


def rank_all(
    graph: KnowledgeGraph,
    params: RfpaParams,
    contributions: ContributionVector,
    metadata: dict[str, Any] | None = None,
) -> RootCauseRanking:
    """Score every variable, stream and device of the graph and rank them.

    Candidates are scored in graph order in this process, each by one
    ``root_score`` call on its run from ``propagate_each``, and the final
    sort makes the order deterministic.
    """
    candidates = graph.entities_of_kind(*CANDIDATE_KINDS)
    if not candidates:
        raise ValueError("no candidate entities to score")

    # The runs come first in the zip, so the generator is run to its end and
    # what it held is freed before the sort.
    runs = propagate_each(graph, params, [e.id for e in candidates])
    entries = [
        RankEntry(
            id=e.id,
            kind=e.kind.value,
            score=root_score(graph, params, contributions, e.id, result),
        )
        for result, e in zip(runs, candidates)
    ]
    entries.sort(key=lambda e: (-e.score, e.id))
    return RootCauseRanking(entries=tuple(entries), metadata=dict(metadata or {}))


def report_dict(ranking: RootCauseRanking) -> dict[str, Any]:
    """Full ranking in the JSON report schema."""
    meta = ranking.metadata
    return {
        "graph": meta.get("graph", ""),
        "params": meta.get("params", {}),
        "window": meta.get("window", {}),
        "ranking": [{"id": e.id, "kind": e.kind, "score": e.score} for e in ranking.entries],
    }


def format_report(ranking: RootCauseRanking, top_k: int = 10) -> str:
    """Render a ranking as text: the top ``top_k`` variables beside the top
    ``top_k`` streams and devices."""
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    left = ranking.variables()[:top_k]
    right = ranking.physical()[:top_k]
    width = max([12] + [len(e.id) for e in left + right])
    lines = [
        f"{'rank':>4}  {'variable':<{width}}  {'score':>8}  "
        f"{'stream/device':<{width}}  {'score':>8}"
    ]
    for i in range(max(len(left), len(right))):
        lcell = f"{left[i].id:<{width}}  {left[i].score:>8.5f}" if i < len(left) else (
            f"{'':<{width}}  {'':>8}"
        )
        rcell = f"{right[i].id:<{width}}  {right[i].score:>8.5f}" if i < len(right) else (
            f"{'':<{width}}  {'':>8}"
        )
        lines.append(f"{i + 1:>4}  {lcell}  {rcell}")
    return "\n".join(lines) + "\n"
