"""Industrial knowledge graph: typed entities, weighted relations, directed triples.

The graph is loaded from a JSON file, validated once, and then treated as
immutable. Downstream modules only ever read it (adjacency queries), so a
single instance can be shared freely across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterable


class GraphError(Exception):
    """Base class for knowledge-graph failures."""


class GraphParseError(GraphError):
    """The file is not a structurally well-formed graph document."""


class GraphValidationError(GraphError):
    """The document parsed but violates graph invariants."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.errors))
        self.report = report


class EntityKind(str, Enum):
    DEVICE = "device"
    STREAM = "stream"
    SUBSTANCE = "substance"
    VARIABLE = "variable"


#: Kinds that model plant hardware and material rather than measurements.
PHYSICAL_KINDS = (EntityKind.DEVICE, EntityKind.STREAM, EntityKind.SUBSTANCE)


@dataclass(frozen=True)
class Entity:
    """A graph node: a device, stream, substance, or measured variable.

    ``column`` binds a variable entity to a dataset column; physical
    entities never carry one.
    """

    id: str
    kind: EntityKind
    label: str
    column: str | None = None


@dataclass(frozen=True)
class RelationType:
    """An edge type with its attenuation distance and propagation-order offset."""

    name: str
    distance: float
    priority_offset: int


@dataclass(frozen=True)
class Triple:
    """A directed edge (head --relation--> tail) between declared entities."""

    head: str
    relation: str
    tail: str

    def __str__(self) -> str:
        return f"({self.head}, {self.relation}, {self.tail})"


@dataclass
class ValidationReport:
    """Findings from graph validation; errors are fatal, warnings are not."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True, eq=True)
class KnowledgeGraph:
    """Entities, relation types and triples, plus read-only lookup indexes.

    ``by_id``, ``by_relation`` and ``out_index`` are built on construction,
    so a graph built directly works like a loaded one. ``out_index`` groups
    the triple list by head entity; edges are kept in a deterministic order
    (ascending relation distance, then tail id, then relation name) so that
    propagation results never depend on file order.
    """

    entities: tuple[Entity, ...]
    relations: tuple[RelationType, ...]
    triples: tuple[Triple, ...]
    by_id: dict[str, Entity] = field(init=False, compare=False, repr=False)
    by_relation: dict[str, RelationType] = field(init=False, compare=False, repr=False)
    out_index: dict[str, tuple[tuple[RelationType, str], ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        for name in ("entities", "relations", "triples"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # First declaration wins; duplicates are reported by validate().
        by_id: dict[str, Entity] = {}
        for e in self.entities:
            by_id.setdefault(e.id, e)
        by_relation: dict[str, RelationType] = {}
        for r in self.relations:
            by_relation.setdefault(r.name, r)
        object.__setattr__(self, "by_id", by_id)
        object.__setattr__(self, "by_relation", by_relation)
        object.__setattr__(self, "out_index", _build_out_index(by_id, by_relation, self.triples))

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.by_id[entity_id]
        except KeyError:
            raise GraphError(f"unknown entity id: {entity_id!r}") from None

    def entities_of_kind(self, *kinds: EntityKind) -> tuple[Entity, ...]:
        wanted = set(kinds)
        return tuple(e for e in self.entities if e.kind in wanted)

    def variable_roster(self) -> tuple[Entity, ...]:
        """Variable entities bound to a dataset column, in declaration order."""
        return tuple(
            e for e in self.entities if e.kind is EntityKind.VARIABLE and e.column is not None
        )


def _build_out_index(
    by_id: dict[str, Entity],
    by_relation: dict[str, RelationType],
    triples: Iterable[Triple],
) -> dict[str, tuple[tuple[RelationType, str], ...]]:
    grouped: dict[str, list[tuple[RelationType, str]]] = {eid: [] for eid in by_id}
    for t in triples:
        rel = by_relation.get(t.relation)
        # Dangling triples are reported by validate(); skip them here so the
        # index can be built for an invalid graph too.
        if rel is None or t.head not in by_id or t.tail not in by_id:
            continue
        grouped[t.head].append((rel, t.tail))
    return {
        eid: tuple(sorted(edges, key=lambda e: (e[0].distance, e[1], e[0].name)))
        for eid, edges in grouped.items()
    }


def _parse_entity(raw: Any, pos: int) -> Entity:
    if not isinstance(raw, dict):
        raise GraphParseError(f"entities[{pos}]: expected an object, got {type(raw).__name__}")
    for key in ("id", "kind", "label"):
        if key not in raw:
            raise GraphParseError(f"entities[{pos}]: missing required key {key!r}")
        if not isinstance(raw[key], str):
            raise GraphParseError(f"entities[{pos}]: {key!r} must be a string")
    try:
        kind = EntityKind(raw["kind"])
    except ValueError:
        raise GraphParseError(
            f"entities[{pos}] ({raw['id']!r}): unknown kind {raw['kind']!r}; "
            f"expected one of {[k.value for k in EntityKind]}"
        ) from None
    column = raw.get("column")
    if column is not None and not isinstance(column, str):
        raise GraphParseError(f"entities[{pos}] ({raw['id']!r}): 'column' must be a string")
    return Entity(id=raw["id"], kind=kind, label=raw["label"], column=column)


def _parse_relation(raw: Any, pos: int) -> RelationType:
    if not isinstance(raw, dict):
        raise GraphParseError(f"relations[{pos}]: expected an object, got {type(raw).__name__}")
    for key in ("name", "d", "o"):
        if key not in raw:
            raise GraphParseError(f"relations[{pos}]: missing required key {key!r}")
    if not isinstance(raw["name"], str):
        raise GraphParseError(f"relations[{pos}]: 'name' must be a string")
    if not isinstance(raw["d"], (int, float)) or isinstance(raw["d"], bool):
        raise GraphParseError(f"relations[{pos}] ({raw['name']!r}): 'd' must be a number")
    if not isinstance(raw["o"], int) or isinstance(raw["o"], bool):
        raise GraphParseError(f"relations[{pos}] ({raw['name']!r}): 'o' must be an integer")
    try:
        distance = float(raw["d"])
    except OverflowError:  # an integer too large for a float is as infinite as 1e400
        distance = math.inf if raw["d"] > 0 else -math.inf
    return RelationType(name=raw["name"], distance=distance, priority_offset=raw["o"])


def _parse_triple(raw: Any, pos: int) -> Triple:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 3
        or not all(isinstance(x, str) for x in raw)
    ):
        raise GraphParseError(f"triples[{pos}]: expected [head, relation, tail] strings")
    return Triple(head=raw[0], relation=raw[1], tail=raw[2])


def graph_from_dict(payload: Any) -> KnowledgeGraph:
    """Build and validate a graph from a parsed JSON document.

    Raises GraphParseError for structural problems and GraphValidationError
    when the document parses but breaks graph invariants.
    """
    if not isinstance(payload, dict):
        raise GraphParseError("graph document must be a JSON object")
    for key in ("entities", "relations", "triples"):
        if key not in payload:
            raise GraphParseError(f"graph document missing top-level key {key!r}")
        if not isinstance(payload[key], list):
            raise GraphParseError(f"top-level {key!r} must be an array")

    entities = [_parse_entity(raw, i) for i, raw in enumerate(payload["entities"])]
    relations = [_parse_relation(raw, i) for i, raw in enumerate(payload["relations"])]
    triples = [_parse_triple(raw, i) for i, raw in enumerate(payload["triples"])]

    graph = KnowledgeGraph(entities, relations, triples)
    report = validate(graph)
    if not report.ok:
        raise GraphValidationError(report)
    return graph


def load_graph(path: str | Path) -> KnowledgeGraph:
    """Load, parse, and validate a graph file (see graph_from_dict)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise GraphParseError(f"{path}: invalid JSON: {exc}") from exc
    return graph_from_dict(payload)


def serialize(graph: KnowledgeGraph) -> dict[str, Any]:
    """Dump a graph back to the JSON document structure it was loaded from."""
    entities = []
    for e in graph.entities:
        raw: dict[str, Any] = {"id": e.id, "kind": e.kind.value, "label": e.label}
        if e.column is not None:
            raw["column"] = e.column
        entities.append(raw)
    return {
        "entities": entities,
        "relations": [
            {"name": r.name, "d": r.distance, "o": r.priority_offset} for r in graph.relations
        ],
        "triples": [[t.head, t.relation, t.tail] for t in graph.triples],
    }


def save_graph(graph: KnowledgeGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(serialize(graph), indent=2) + "\n", encoding="utf-8")


def validate(graph: KnowledgeGraph) -> ValidationReport:
    """Check graph invariants; returns a report instead of raising.

    Errors: no entities, duplicate ids/names/triples, dangling references,
    negative relation parameters or non-finite distances, column bindings on
    physical entities, a column bound by two variables.
    Warnings: unbound variables, entities that occur in no triple, relation
    types that are never used.
    """
    report = ValidationReport()

    if not graph.entities:
        report.errors.append("no entities declared")
        return report

    seen_ids: set[str] = set()
    column_owner: dict[str, str] = {}
    for e in graph.entities:
        if not e.id:
            report.errors.append("entity with empty id")
        if e.id in seen_ids:
            report.errors.append(f"duplicate entity id: {e.id!r}")
        seen_ids.add(e.id)
        if e.kind in PHYSICAL_KINDS and e.column is not None:
            report.errors.append(
                f"entity {e.id!r} has kind {e.kind.value!r} but carries a column binding"
            )
        if e.kind is EntityKind.VARIABLE and e.column is None:
            report.warnings.append(f"variable {e.id!r} has no column binding")
        elif e.kind is EntityKind.VARIABLE and column_owner.setdefault(e.column, e.id) != e.id:
            report.errors.append(
                f"variables {column_owner[e.column]!r} and {e.id!r} both bind column {e.column!r}"
            )

    seen_rels: set[str] = set()
    for r in graph.relations:
        if r.name in seen_rels:
            report.errors.append(f"duplicate relation name: {r.name!r}")
        seen_rels.add(r.name)
        if not math.isfinite(r.distance):
            report.errors.append(f"relation {r.name!r} has non-finite distance {r.distance}")
        elif r.distance < 0:
            report.errors.append(f"relation {r.name!r} has negative distance {r.distance}")
        if r.priority_offset < 0:
            report.errors.append(
                f"relation {r.name!r} has negative priority offset {r.priority_offset}"
            )

    seen_triples: set[Triple] = set()
    touched: set[str] = set()
    used_relations: set[str] = set()
    for t in graph.triples:
        if t in seen_triples:
            report.errors.append(f"duplicate triple {t}")
        seen_triples.add(t)
        if t.head not in graph.by_id:
            report.errors.append(f"triple {t} references undeclared head entity {t.head!r}")
        if t.tail not in graph.by_id:
            report.errors.append(f"triple {t} references undeclared tail entity {t.tail!r}")
        if t.relation not in graph.by_relation:
            report.errors.append(f"triple {t} references undeclared relation {t.relation!r}")
        touched.update((t.head, t.tail))
        used_relations.add(t.relation)

    for e in graph.entities:
        if e.id not in touched:
            report.warnings.append(f"entity {e.id!r} occurs in no triple")
    for r in graph.relations:
        if r.name not in used_relations:
            report.warnings.append(f"relation {r.name!r} is never used")

    return report
