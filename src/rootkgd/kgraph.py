"""Industrial knowledge graph: typed entities, weighted relations, directed triples.

A graph is checked when it is built, whether loaded from a JSON file or
constructed directly, and is then treated as immutable: every graph object
holds the invariants ``validate`` lists. Downstream modules only ever read it
(adjacency queries), so a single instance can be shared freely across threads.
The one mutable part is a free list of zeroed propagation tables, which
``rfpa`` takes and returns whole with atomic list operations.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any


class GraphError(Exception):
    """Base class for knowledge-graph failures."""


class GraphParseError(GraphError):
    """The file is not a structurally well-formed graph document."""


class GraphValidationError(GraphError):
    """The graph's parts, parsed or built directly, violate its invariants."""

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

    Construction checks the parts as ``validate`` does and raises
    ``GraphValidationError`` on any error, so a graph built directly works
    like a loaded one. ``position`` (entity id to its index in
    ``entities``), ``adjacency`` and the check's ``warnings`` are then kept.
    ``adjacency[i]`` holds the out-edges of ``entities[i]`` as ``(tail
    position, index in relations, priority offset)`` tuples, in a
    deterministic order (ascending relation distance, then tail id, then
    relation name) so that propagation results never depend on file order.
    ``_free_tables`` holds propagation state tables over entity positions,
    each all zeros, for ``rfpa`` to reuse across runs.
    """

    entities: tuple[Entity, ...]
    relations: tuple[RelationType, ...]
    triples: tuple[Triple, ...]
    position: dict[str, int] = field(init=False, compare=False, repr=False)
    adjacency: tuple[tuple[tuple[int, int, int], ...], ...] = field(
        init=False, compare=False, repr=False
    )
    warnings: tuple[str, ...] = field(init=False, compare=False, repr=False)
    _free_tables: list[tuple[list[float], list[int], list[int]]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        for name in ("entities", "relations", "triples"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        report = _check(self.entities, self.relations, self.triples)
        if not report.ok:
            raise GraphValidationError(report)
        position = {e.id: i for i, e in enumerate(self.entities)}
        rel = {r.name: (r.distance, i, r.priority_offset) for i, r in enumerate(self.relations)}
        # One sort of all triples in edge order leaves each head's edges in it.
        grouped: list[list[tuple[int, int, int]]] = [[] for _ in self.entities]
        for t in sorted(self.triples, key=lambda t: (rel[t.relation][0], t.tail, t.relation)):
            _, at, offset = rel[t.relation]
            grouped[position[t.head]].append((position[t.tail], at, offset))
        adjacency = tuple(map(tuple, grouped))
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "warnings", tuple(report.warnings))
        object.__setattr__(self, "_free_tables", [])

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[self.position[entity_id]]
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


def _parse_entity(raw: Any, pos: int) -> Entity:
    if not isinstance(raw, dict):
        raise GraphParseError(f"entities[{pos}]: expected an object, got {type(raw).__name__}")
    for key in ("id", "kind", "label"):
        if key not in raw:
            raise GraphParseError(f"entities[{pos}]: missing required key {key!r}")
        if type(raw[key]) is not str:  # exactly: sys.intern takes no subclass
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
    return Entity(id=sys.intern(raw["id"]), kind=kind, label=raw["label"], column=column)


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
    if isinstance(raw, (list, tuple)) and len(raw) == 3:
        head, relation, tail = raw
        if type(head) is str and type(relation) is str and type(tail) is str:
            return Triple(sys.intern(head), sys.intern(relation), sys.intern(tail))
    raise GraphParseError(f"triples[{pos}]: expected [head, relation, tail] strings")


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

    return KnowledgeGraph(entities, relations, triples)


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
    """The invariant report of a graph (see ``_check``). A constructed graph
    has passed the check, so its ``errors`` are empty; the warnings are the
    ones its construction found."""
    return ValidationReport(warnings=list(graph.warnings))


def _check(
    entities: tuple[Entity, ...],
    relations: tuple[RelationType, ...],
    triples: tuple[Triple, ...],
) -> ValidationReport:
    """Check graph invariants on a graph's parts; returns a report instead of raising.

    Errors: no entities, duplicate ids/names/triples, dangling references,
    negative relation parameters or non-finite distances, column bindings on
    physical entities, a column bound by two variables.
    Warnings: unbound variables, entities that occur in no triple, relation
    types that are never used.
    """
    report = ValidationReport()

    if not entities:
        report.errors.append("no entities declared")
        return report

    seen_ids: set[str] = set()
    column_owner: dict[str, str] = {}
    for e in entities:
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
        elif e.kind is EntityKind.VARIABLE and column_owner.get(e.column, e.id) != e.id:
            report.errors.append(
                f"variables {column_owner[e.column]!r} and {e.id!r} both bind column {e.column!r}"
            )
        elif e.kind is EntityKind.VARIABLE:
            column_owner[e.column] = e.id

    seen_rels: set[str] = set()
    for r in relations:
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

    seen_triples: set[tuple[str, str, str]] = set()  # tuples hash faster than Triples
    touched: set[str] = set()
    used_relations: set[str] = set()
    for t in triples:
        key = (t.head, t.relation, t.tail)
        if key in seen_triples:
            report.errors.append(f"duplicate triple {t}")
        seen_triples.add(key)
        if t.head not in seen_ids:
            report.errors.append(f"triple {t} references undeclared head entity {t.head!r}")
        if t.tail not in seen_ids:
            report.errors.append(f"triple {t} references undeclared tail entity {t.tail!r}")
        if t.relation not in seen_rels:
            report.errors.append(f"triple {t} references undeclared relation {t.relation!r}")
        touched.update((t.head, t.tail))
        used_relations.add(t.relation)

    for e in entities:
        if e.id not in touched:
            report.warnings.append(f"entity {e.id!r} occurs in no triple")
    for r in relations:
        if r.name not in used_relations:
            report.warnings.append(f"relation {r.name!r} is never used")

    return report
