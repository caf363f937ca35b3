"""Industrial knowledge graph: typed entities, weighted relations, directed triples.

A graph is checked when it is built, whether loaded from a JSON file or
constructed directly, and is then treated as immutable: every graph object
holds the invariants ``_check`` lists, and keeps the warnings and column
bindings the check found. No part of a graph changes after construction, so
a single instance can be shared freely across threads.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterator


class GraphError(Exception):
    """Base class for knowledge-graph failures."""


class GraphParseError(GraphError):
    """The file is not a structurally well-formed graph document."""


class GraphValidationError(GraphError):
    """The graph's parts, parsed or built directly, violate its invariants.

    ``errors`` are the broken invariants; ``warnings`` are the check's other
    findings on the same parts.
    """

    def __init__(self, errors: list[str], warnings: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors
        self.warnings = warnings


class EntityKind(str, Enum):
    DEVICE = "device"
    STREAM = "stream"
    SUBSTANCE = "substance"
    VARIABLE = "variable"


#: Kinds that model plant hardware and material rather than measurements.
PHYSICAL_KINDS = (EntityKind.DEVICE, EntityKind.STREAM, EntityKind.SUBSTANCE)


@dataclass(frozen=True, slots=True)
class Entity:
    """A graph node: a device, stream, substance, or measured variable.

    ``column`` binds a variable entity to a dataset column; physical
    entities never carry one.
    """

    id: str
    kind: EntityKind
    label: str
    column: str | None = None


@dataclass(frozen=True, slots=True)
class RelationType:
    """An edge type with its attenuation distance and propagation-order offset."""

    name: str
    distance: float
    priority_offset: int


@dataclass(frozen=True, slots=True)
class Triple:
    """A directed edge (head --relation--> tail) between declared entities."""

    head: str
    relation: str
    tail: str

    def __str__(self) -> str:
        return f"({self.head}, {self.relation}, {self.tail})"


@dataclass(frozen=True, eq=True)
class KnowledgeGraph:
    """Entities, relation types and triples, plus read-only lookup indexes.

    Construction checks the parts (``_check``) and raises
    ``GraphValidationError`` on any error, so a graph built directly works
    like a loaded one. ``position`` (entity id to its index in
    ``entities``), ``adjacency`` and the check's ``warnings`` and
    ``variable_of`` (each bound column to its variable id, in declaration
    order) are then kept.
    ``adjacency[i]`` holds the out-edges of ``entities[i]`` as ``(tail
    position, index in relations, priority offset)`` tuples, in a
    deterministic order (ascending relation distance, then tail id, then
    relation name) so that propagation results never depend on file order.
    The graph is immutable once built and can be shared across threads.
    """

    entities: tuple[Entity, ...]
    relations: tuple[RelationType, ...]
    triples: tuple[Triple, ...]
    position: dict[str, int] = field(init=False, compare=False, repr=False)
    adjacency: tuple[tuple[tuple[int, int, int], ...], ...] = field(
        init=False, compare=False, repr=False
    )
    warnings: tuple[str, ...] = field(init=False, compare=False, repr=False)
    variable_of: dict[str, str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("entities", "relations", "triples"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        errors, warnings, variable_of = _check(self.entities, self.relations, self.triples)
        if errors:
            raise GraphValidationError(errors, warnings)
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
        object.__setattr__(self, "warnings", tuple(warnings))
        object.__setattr__(self, "variable_of", variable_of)

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[self.position[entity_id]]
        except KeyError:
            raise GraphError(f"unknown entity id: {entity_id!r}") from None

    def entities_of_kind(self, *kinds: EntityKind) -> tuple[Entity, ...]:
        wanted = set(kinds)
        return tuple(e for e in self.entities if e.kind in wanted)


def _object_with(raw: Any, key: str, pos: int, required: tuple[str, ...]) -> dict:
    """``raw`` as an object holding the ``required`` keys, else a parse error."""
    if not isinstance(raw, dict):
        raise GraphParseError(f"{key}[{pos}]: expected an object, got {type(raw).__name__}")
    for name in required:
        if name not in raw:
            raise GraphParseError(f"{key}[{pos}]: missing required key {name!r}")
    return raw


def _intern(value: Any) -> Any:
    """An exact ``str`` interned (``sys.intern`` takes no subclass), else ``value``."""
    return sys.intern(value) if type(value) is str else value


def _parse_entity(raw: Any, pos: int) -> Entity:
    raw = _object_with(raw, "entities", pos, ("id", "kind", "label"))
    try:
        kind = EntityKind(raw["kind"])
    except ValueError:
        raise GraphParseError(
            f"entities[{pos}] ({raw['id']!r}): unknown kind {raw['kind']!r}; "
            f"expected one of {[k.value for k in EntityKind]}"
        ) from None
    return Entity(_intern(raw["id"]), kind, raw["label"], raw.get("column"))


def _parse_relation(raw: Any, pos: int) -> RelationType:
    raw = _object_with(raw, "relations", pos, ("name", "d", "o"))
    d = raw["d"]
    return RelationType(raw["name"], _real(d) if type(d) in (int, float) else d, raw["o"])


def _real(number: int | float) -> float:
    """``number`` as a float; an integer too large for one is as infinite as 1e400."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def _parse_triple(raw: Any, pos: int) -> Triple:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 3):
        raise GraphParseError(f"triples[{pos}]: expected a [head, relation, tail] array")
    return Triple(*map(_intern, raw))


def graph_from_dict(payload: Any) -> KnowledgeGraph:
    """Build and validate a graph from a parsed JSON document, which is left
    as it was.

    Raises GraphParseError for structural problems and GraphValidationError,
    as a direct build does, for every other one: field types are ``_check``'s.
    """
    return KnowledgeGraph(*_parse_parts([list(raws) for raws in _sections(payload)]))


def _sections(payload: Any) -> list[list]:
    """A graph document's entity, relation and triple arrays, structure checked."""
    if not isinstance(payload, dict):
        raise GraphParseError("graph document must be a JSON object")
    for key in ("entities", "relations", "triples"):
        if key not in payload:
            raise GraphParseError(f"graph document missing top-level key {key!r}")
        if not isinstance(payload[key], list):
            raise GraphParseError(f"top-level {key!r} must be an array")
    return [payload["entities"], payload["relations"], payload["triples"]]


def _parse_parts(sections: list[list]) -> tuple[list[Entity], list[RelationType], list[Triple]]:
    """The entities, relations and triples parsed from the three arrays, which
    are emptied: each raw item is dropped as soon as its part is built."""
    parts = []
    for raws, parse in zip(sections, (_parse_entity, _parse_relation, _parse_triple)):
        raws.reverse()
        parts.append([parse(raws.pop(), pos) for pos in range(len(raws))])
    return tuple(parts)


def load_graph(path: str | Path) -> KnowledgeGraph:
    """Load, parse, and validate a graph file (see graph_from_dict).

    Only the document's three arrays outlive the parse, and each raw entity,
    relation and triple is dropped from them as soon as its part is built,
    so the document is gone before the graph builds its indexes.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise GraphParseError(f"{path}: invalid JSON: {exc}") from exc
    sections = _sections(payload)
    del payload
    return KnowledgeGraph(*_parse_parts(sections))


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


#: The exact types each field of a graph part accepts: no bool, no str subclass.
_FIELD_TYPES = {
    Entity: {"id": (str,), "kind": (EntityKind,), "label": (str,), "column": (str, type(None))},
    RelationType: {"name": (str,), "distance": (int, float), "priority_offset": (int,)},
    Triple: {"head": (str,), "relation": (str,), "tail": (str,)},
}


def _typed(parts: tuple, cls: type, key: str, errors: list[str]) -> Iterator:
    """Yield the parts whose fields have the ``_FIELD_TYPES``; each other part is an error line."""
    fields = _FIELD_TYPES[cls].items()
    for i, part in enumerate(parts):
        if not isinstance(part, cls):
            errors.append(f"{key}[{i}]: expected {cls.__name__}, got {type(part).__name__}")
            continue
        for name, types in fields:
            value = getattr(part, name)
            if type(value) not in types:
                expected = " or ".join(t.__name__ for t in types)
                errors.append(f"{key}[{i}]: {name} must be {expected}, got {type(value).__name__}")
                break
        else:
            yield part


def _check(
    entities: tuple[Entity, ...],
    relations: tuple[RelationType, ...],
    triples: tuple[Triple, ...],
) -> tuple[list[str], list[str], dict[str, str]]:
    """Check graph invariants on a graph's parts; returns ``(errors, warnings,
    column_owner)`` instead of raising, ``column_owner`` mapping each bound
    column to its variable id in declaration order.

    Errors: no entities, parts or fields of a type ``_FIELD_TYPES`` refuses
    (those parts are then skipped, but still declare their ids and names),
    duplicate ids/names/triples, dangling references, negative relation
    parameters or non-finite distances, column bindings on physical entities,
    a column bound by two variables.
    Warnings: unbound variables, entities that occur in no triple, relation
    types that are never used.
    """
    errors: list[str] = []
    warnings: list[str] = []
    column_owner: dict[str, str] = {}

    if not entities:
        errors.append("no entities declared")
        return errors, warnings, column_owner

    # A part skipped for a mistyped field still declares a str id or name, so
    # a triple naming it is not also reported as undeclared.
    entity_ids = {e.id for e in entities if isinstance(e, Entity) and type(e.id) is str}
    rel_names = {r.name for r in relations if isinstance(r, RelationType) and type(r.name) is str}
    seen_ids: set[str] = set()
    entities = list(_typed(entities, Entity, "entities", errors))
    for e in entities:
        if not e.id:
            errors.append("entity with empty id")
        if e.id in seen_ids:
            errors.append(f"duplicate entity id: {e.id!r}")
        seen_ids.add(e.id)
        if e.kind in PHYSICAL_KINDS and e.column is not None:
            errors.append(
                f"entity {e.id!r} has kind {e.kind.value!r} but carries a column binding"
            )
        if e.kind is EntityKind.VARIABLE and e.column is None:
            warnings.append(f"variable {e.id!r} has no column binding")
        elif e.kind is EntityKind.VARIABLE and column_owner.get(e.column, e.id) != e.id:
            errors.append(
                f"variables {column_owner[e.column]!r} and {e.id!r} both bind column {e.column!r}"
            )
        elif e.kind is EntityKind.VARIABLE:
            column_owner[e.column] = e.id

    seen_rels: set[str] = set()
    relations = list(_typed(relations, RelationType, "relations", errors))
    for r in relations:
        if r.name in seen_rels:
            errors.append(f"duplicate relation name: {r.name!r}")
        seen_rels.add(r.name)
        distance = _real(r.distance)
        if not math.isfinite(distance):
            errors.append(f"relation {r.name!r} has non-finite distance {distance}")
        elif distance < 0:
            errors.append(f"relation {r.name!r} has negative distance {distance}")
        if r.priority_offset < 0:
            errors.append(
                f"relation {r.name!r} has negative priority offset {r.priority_offset}"
            )

    seen_triples: set[tuple[str, str, str]] = set()  # tuples hash faster than Triples
    touched: set[str] = set()
    used_relations: set[str] = set()
    for t in _typed(triples, Triple, "triples", errors):
        key = (t.head, t.relation, t.tail)
        if key in seen_triples:
            errors.append(f"duplicate triple {t}")
        seen_triples.add(key)
        if t.head not in entity_ids:
            errors.append(f"triple {t} references undeclared head entity {t.head!r}")
        if t.tail not in entity_ids:
            errors.append(f"triple {t} references undeclared tail entity {t.tail!r}")
        if t.relation not in rel_names:
            errors.append(f"triple {t} references undeclared relation {t.relation!r}")
        touched.update((t.head, t.tail))
        used_relations.add(t.relation)

    for e in entities:
        if e.id not in touched:
            warnings.append(f"entity {e.id!r} occurs in no triple")
    for r in relations:
        if r.name not in used_relations:
            warnings.append(f"relation {r.name!r} is never used")

    return errors, warnings, column_owner
