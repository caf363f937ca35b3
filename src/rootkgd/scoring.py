"""Root-cause scoring: align simulated fault profiles with observed contributions.

The candidates are every variable, stream and device in the graph. Each is
treated as a hypothetical root: a propagation run is seeded there, its
resulting quantities are read off at the measured variables, and the
candidate is scored by cosine similarity between that profile and the
observed contribution-rate vector. A propagation run scales linearly with its
seed and cosine ignores scale, so any positive seed gives the same score;
every candidate is seeded with one unit. ``rank_all`` takes the candidates'
runs from ``rfpa.propagate_groups``, which runs the propagation once per
distinct seed structure and relabels that run for the candidates that repeat
it, and reads each candidate's profile off the run's arrays.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .features import ContributionVector
from .kgraph import EntityKind, KnowledgeGraph
from .rfpa import RfpaParams, propagate, propagate_groups

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


def cosine(a: np.ndarray, b: np.ndarray, norm_b: float | None = None) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm. ``norm_b``,
    when given, is ``b``'s norm as computed here."""
    norm_a = math.sqrt(float(a @ a))
    if norm_b is None:
        norm_b = math.sqrt(float(b @ b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(a @ b) / (norm_a * norm_b)


def _check_roster(graph: KnowledgeGraph, contributions: ContributionVector) -> None:
    """Raise ValueError unless the roster is non-empty, without repeats and
    every id in the graph."""
    roster = contributions.roster
    if not roster:
        raise ValueError("contribution roster is empty")
    position = contributions.positions
    if len(position) < len(roster) or not position.keys() <= graph.position.keys():
        bad = [r for i, r in enumerate(roster) if r not in graph.position or position[r] != i]
        raise ValueError(f"roster ids repeated or not in the graph: {bad}")


def root_score(
    graph: KnowledgeGraph,
    params: RfpaParams,
    contributions: ContributionVector,
    candidate: str,
    profile: np.ndarray | None = None,
) -> float:
    """Score one candidate as the root of the observed fault pattern.

    The candidate is seeded with one unit: the propagated profile scales
    linearly with the seed, so any positive seed gives the same cosine.
    ``profile`` is the candidate's run read off at the roster; without it the
    roster is checked and the candidate propagated here.
    """
    if profile is None:
        _check_roster(graph, contributions)
        position = contributions.positions
        profile = np.zeros(len(contributions.roster))
        for entity, quantity in propagate(graph, params, candidate).quantities.items():
            if entity in position:
                profile[position[entity]] = quantity
    return cosine(profile, contributions.scores, contributions.norm)


def rank_all(
    graph: KnowledgeGraph,
    params: RfpaParams,
    contributions: ContributionVector,
    metadata: dict[str, Any] | None = None,
) -> RootCauseRanking:
    """Score every variable, stream and device of the graph and rank them.

    The runs come from ``propagate_groups``. Each served candidate's
    profile is scattered into one zeroed row over the roster, scored by one
    ``root_score`` call and zeroed again, so no two profiles are held at
    once; the final sort makes the order deterministic.
    """
    candidates = graph.entities_of_kind(*CANDIDATE_KINDS)
    if not candidates:
        raise ValueError("no candidate entities to score")
    _check_roster(graph, contributions)
    width = len(contributions.roster)
    # Each entity position's roster column; an entity off the roster writes
    # to one spare column past the profile.
    column = np.full(len(graph.entities), width, np.intp)
    column[[graph.position[r] for r in contributions.roster]] = np.arange(width)
    profile = np.zeros(width + 1)
    scores = [0.0] * len(candidates)
    for served, images, quantities in propagate_groups(
        graph, params, [e.id for e in candidates]
    ):
        for i, positions in zip(served, images):
            columns = column[positions]
            profile[columns] = quantities
            scores[i] = root_score(graph, params, contributions, candidates[i].id, profile[:width])
            profile[columns] = 0.0
        del images  # freed before the next run's walk
    entries = [RankEntry(e.id, e.kind.value, score) for e, score in zip(candidates, scores)]
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


def report_lines(ranking: RootCauseRanking) -> Iterator[str]:
    """Yield ``json.dumps(report_dict(ranking), indent=2) + "\n"`` in pieces,
    one per entry, so no whole-report string is held.

    The head is dumped by ``json``; each entry is filled into one template
    with json's C string encoder and ``float.__repr__``, which is what
    ``json`` writes for a finite float (every score is a finite cosine).
    """
    head = json.dumps(report_dict(replace(ranking, entries=())), indent=2)
    if not ranking.entries:
        yield head + "\n"
        return
    yield head[:-len("]\n}")]
    separator = ""
    for e in ranking.entries:
        yield (f'{separator}\n    {{\n      "id": {encode_basestring_ascii(e.id)},'
               f'\n      "kind": {encode_basestring_ascii(e.kind)},'
               f'\n      "score": {float.__repr__(e.score)}\n    }}')
        separator = ","
    yield "\n  ]\n}\n"


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
