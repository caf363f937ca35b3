from __future__ import annotations

import copy
import dataclasses
import gc
import json
from importlib.resources import files

import pytest

from conftest import minimal_payload, out_edges
from rootkgd import kgraph
from rootkgd.kgraph import (
    Entity,
    EntityKind,
    GraphError,
    GraphParseError,
    GraphValidationError,
    KnowledgeGraph,
    RelationType,
    Triple,
    graph_from_dict,
    load_graph,
    save_graph,
    serialize,
)
from rootkgd.rfpa import RfpaParams, propagate


def parts(payload):
    """A graph document's entities, relations and triples as dataclass values."""
    entities = [
        Entity(e["id"], EntityKind(e["kind"]), e["label"], e.get("column"))
        for e in payload["entities"]
    ]
    relations = [RelationType(r["name"], float(r["d"]), r["o"]) for r in payload["relations"]]
    triples = [Triple(*t) for t in payload["triples"]]
    return entities, relations, triples


def kind_counts(graph):
    counts = {}
    for e in graph.entities:
        counts[e.kind.value] = counts.get(e.kind.value, 0) + 1
    return counts


def relation_counts(graph):
    counts = {}
    for t in graph.triples:
        counts[t.relation] = counts.get(t.relation, 0) + 1
    return counts


#: A graph part with a field of the wrong type, the same breakage as a
#: graph document's part, and the first error each must give. A document
#: cannot hold two of them (None): the loader parses every kind string to its
#: EntityKind and every entity object to an Entity.
TYPE_BREAKAGES = {
    "kind_str": ("entities", Entity("v11", "variable", "V", column="v11"), None,
                 "entities[1]: kind must be EntityKind, got str"),
    "column_int": ("entities", Entity("v11", EntityKind.VARIABLE, "V", column=5),
                   {"id": "v11", "kind": "variable", "label": "V", "column": 5},
                   "entities[1]: column must be str or NoneType, got int"),
    "id_list": ("entities", Entity(["v11"], EntityKind.VARIABLE, "V"),
                {"id": ["v11"], "kind": "variable", "label": "V"},
                "entities[1]: id must be str, got list"),
    "label_null": ("entities", Entity("v11", EntityKind.VARIABLE, None, column="v11"),
                   {"id": "v11", "kind": "variable", "label": None, "column": "v11"},
                   "entities[1]: label must be str, got NoneType"),
    "distance_str": ("relations", RelationType("State", "1", 1),
                     {"name": "State", "d": "1", "o": 1},
                     "relations[0]: distance must be int or float, got str"),
    "distance_bool": ("relations", RelationType("State", True, 1),
                      {"name": "State", "d": True, "o": 1},
                      "relations[0]: distance must be int or float, got bool"),
    "distance_huge_int": ("relations", RelationType("State", 10**400, 1),
                          {"name": "State", "d": 10**400, "o": 1},
                          "relation 'State' has non-finite distance inf"),
    "offset_float": ("relations", RelationType("State", 1.0, 1.5),
                     {"name": "State", "d": 1, "o": 1.5},
                     "relations[0]: priority_offset must be int, got float"),
    "name_int": ("relations", RelationType(5, 1.0, 1), {"name": 5, "d": 1, "o": 1},
                 "relations[0]: name must be str, got int"),
    "entity_dict": ("entities", {"id": "v11", "kind": "variable", "label": "V"}, None,
                    "entities[1]: expected Entity, got dict"),
    "triple_head_list": ("triples", Triple(["dev1"], "State", "v11"),
                         [["dev1"], "State", "v11"],
                         "triples[0]: head must be str, got list"),
}


class TestLoadGraph:
    def test_minimal_graph(self, minimal_graph):
        assert len(minimal_graph.entities) == 2
        assert len(minimal_graph.triples) == 1
        assert minimal_graph.entity("v11").column == "v11"

    def test_tep_fixture_counts(self, tep_graph):
        assert kind_counts(tep_graph) == {
            "device": 5,
            "stream": 14,
            "substance": 7,
            "variable": 51,
        }
        assert relation_counts(tep_graph) == {
            "State": 69,
            "State of": 69,
            "Contain": 42,
            "Contained by": 42,
            "Output": 44,
            "Generate": 7,
        }

    def test_mff_fixture_counts(self, mff_graph):
        assert kind_counts(mff_graph) == {
            "device": 16,
            "stream": 14,
            "substance": 3,
            "variable": 24,
        }
        assert relation_counts(mff_graph) == {
            "State": 25,
            "State of": 25,
            "Contain": 40,
            "Contained by": 40,
            "Output": 36,
        }

    def test_dangling_reference_names_triple(self):
        payload = minimal_payload()
        payload["triples"].append(["dev1", "State", "ghost"])
        with pytest.raises(GraphValidationError) as err:
            graph_from_dict(payload)
        assert "(dev1, State, ghost)" in str(err.value)
        assert "ghost" in str(err.value)

    def test_duplicate_entity_id(self):
        payload = minimal_payload()
        payload["entities"].append({"id": "dev1", "kind": "device", "label": "again"})
        with pytest.raises(GraphValidationError, match="duplicate entity id"):
            graph_from_dict(payload)

    def test_duplicate_triple(self):
        payload = minimal_payload()
        payload["triples"].append(["dev1", "State", "v11"])
        with pytest.raises(GraphValidationError, match="duplicate triple"):
            graph_from_dict(payload)

    def test_negative_distance(self):
        payload = minimal_payload()
        payload["relations"][0]["d"] = -1
        with pytest.raises(GraphValidationError, match="negative distance"):
            graph_from_dict(payload)

    @pytest.mark.parametrize("distance", [float("nan"), float("inf"), 10**400, -(10**400)])
    def test_non_finite_distance(self, distance):
        payload = minimal_payload()
        payload["relations"][0]["d"] = distance
        with pytest.raises(GraphValidationError, match="non-finite distance"):
            graph_from_dict(payload)

    def test_unknown_kind_is_parse_error(self):
        payload = minimal_payload()
        payload["entities"][0]["kind"] = "pump"
        with pytest.raises(GraphParseError, match="unknown kind"):
            graph_from_dict(payload)

    @pytest.mark.parametrize("where", ["entity", "triple"])
    def test_string_subclass_id_is_type_error(self, where):
        # Ids are interned, and sys.intern takes only an exact str: the
        # loader passes a subclass on, and the check refuses it by name.
        class Name(str):
            pass

        payload = minimal_payload()
        if where == "entity":
            payload["entities"][0]["id"] = Name("dev1")
            message = "entities[0]: id must be str, got Name"
        else:
            payload["triples"][0][2] = Name("v11")
            message = "triples[0]: tail must be str, got Name"
        with pytest.raises(GraphValidationError) as excinfo:
            graph_from_dict(payload)
        assert excinfo.value.errors[0] == message

    def test_column_bound_by_two_variables(self):
        payload = minimal_payload()
        payload["entities"].append(
            {"id": "v12", "kind": "variable", "label": "Variable 12", "column": "v11"}
        )
        payload["triples"].append(["dev1", "State", "v12"])
        with pytest.raises(GraphValidationError) as excinfo:
            graph_from_dict(payload)
        assert excinfo.value.errors == [
            "variables 'v11' and 'v12' both bind column 'v11'"
        ]

    def test_column_on_physical_entity(self):
        payload = minimal_payload()
        payload["entities"][0]["column"] = "c1"
        with pytest.raises(GraphValidationError, match="column binding"):
            graph_from_dict(payload)

    @pytest.mark.parametrize(
        "breakage", ["dangling_triple", "duplicate_id", "negative_distance", "shared_column"]
    )
    def test_direct_construction_checks_invariants(self, breakage):
        payload = minimal_payload()
        if breakage == "dangling_triple":
            payload["triples"].append(["dev1", "State", "ghost"])
        elif breakage == "duplicate_id":
            payload["entities"].append({"id": "dev1", "kind": "device", "label": "again"})
        elif breakage == "negative_distance":
            payload["relations"][0]["d"] = -1
        else:
            payload["entities"].append(
                {"id": "v12", "kind": "variable", "label": "Variable 12", "column": "v11"}
            )
        with pytest.raises(GraphValidationError) as loaded:
            graph_from_dict(payload)
        with pytest.raises(GraphValidationError) as built:
            KnowledgeGraph(*parts(payload))
        assert built.value.errors == loaded.value.errors
        assert built.value.warnings == loaded.value.warnings
        assert built.value.errors

    @pytest.mark.parametrize("case", list(TYPE_BREAKAGES))
    def test_direct_construction_checks_types(self, case):
        """A part of a type the check refuses is a named error, not a
        TypeError, OverflowError or AttributeError from the check or later;
        the same breakage in a graph document gives the same errors."""
        at, part, raw, message = TYPE_BREAKAGES[case]
        entities, relations, triples = parts(minimal_payload())
        lists = {"entities": entities, "relations": relations, "triples": triples}
        lists[at][-1] = part
        with pytest.raises(GraphValidationError) as built:
            KnowledgeGraph(entities, relations, triples)
        assert built.value.errors[0] == message
        if raw is None:
            return
        payload = minimal_payload()
        payload[at][-1] = raw
        with pytest.raises(GraphValidationError) as loaded:
            graph_from_dict(json.loads(json.dumps(payload)))
        assert loaded.value.errors == built.value.errors
        assert loaded.value.warnings == built.value.warnings

    def test_mistyped_part_still_declares_its_id(self):
        """A part skipped for a mistyped field is one error line: the triples
        naming its id or name are not reported as undeclared as well."""
        payload = minimal_payload()
        payload["entities"][1]["label"] = None
        payload["relations"].append({"name": "Flow", "d": "1", "o": 1})
        payload["triples"].append(["dev1", "Flow", "v11"])
        with pytest.raises(GraphValidationError) as loaded:
            graph_from_dict(payload)
        assert loaded.value.errors == [
            "entities[1]: label must be str, got NoneType",
            "relations[1]: distance must be int or float, got str",
        ]
        entities, relations, triples = parts(minimal_payload())
        entities[1] = Entity("v11", EntityKind.VARIABLE, None, column="v11")
        relations.append(RelationType("Flow", "1", 1))
        triples.append(Triple("dev1", "Flow", "v11"))
        with pytest.raises(GraphValidationError) as built:
            KnowledgeGraph(entities, relations, triples)
        assert built.value.errors == loaded.value.errors

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GraphParseError, match="invalid JSON"):
            load_graph(path)

    def test_missing_top_level_key(self):
        with pytest.raises(GraphParseError, match="missing top-level key"):
            graph_from_dict({"entities": [], "relations": []})

    def test_graph_from_dict_leaves_the_payload_as_it_was(self):
        # The loader empties its own document's arrays part by part; a caller's
        # document is not touched, whether the build succeeds or fails midway.
        payload = json.loads((files("rootkgd") / "fixtures" / "tep.kg.json").read_text())
        original = copy.deepcopy(payload)
        graph_from_dict(payload)
        assert payload == original
        payload["entities"][len(payload["entities"]) // 2]["kind"] = "pump"
        payload["triples"][3] = ["a", "b"]
        before = copy.deepcopy(payload)
        with pytest.raises(GraphParseError, match="unknown kind 'pump'"):
            graph_from_dict(payload)
        assert payload == before
        payload["entities"] = copy.deepcopy(original["entities"])
        before = copy.deepcopy(payload)
        with pytest.raises(GraphParseError, match=r"^triples\[3\]: expected"):
            graph_from_dict(payload)
        assert payload == before

    def test_declaration_order_preserved(self, tep_graph):
        device_ids = [e.id for e in tep_graph.entities[:5]]
        assert device_ids == ["reactor", "condenser", "separator", "stripper", "compressor"]


class TestValidate:
    def test_fixtures_are_clean(self, tep_graph, mff_graph):
        for graph in (tep_graph, mff_graph):
            assert graph.warnings == ()

    def test_missing_inverses_warn_only(self):
        # A declared inverse relation with no triples is a warning, never an
        # error: inverse edges are always explicit, never required.
        payload = minimal_payload()
        payload["relations"].append({"name": "State of", "d": 1, "o": 1})
        graph = graph_from_dict(payload)
        assert any("State of" in w and "never used" in w for w in graph.warnings)

    def test_empty_graph(self):
        with pytest.raises(GraphValidationError, match="no entities"):
            graph_from_dict({"entities": [], "relations": [], "triples": []})

    def test_unbound_variable_warns(self):
        payload = minimal_payload()
        del payload["entities"][1]["column"]
        graph = graph_from_dict(payload)
        assert any("no column binding" in w for w in graph.warnings)

    def test_isolated_entity_warns(self):
        payload = minimal_payload()
        payload["entities"].append({"id": "lonely", "kind": "device", "label": "Lonely"})
        graph = graph_from_dict(payload)
        assert any("lonely" in w and "no triple" in w for w in graph.warnings)


class TestOutEdges:
    def test_single_relation_id_order(self):
        payload = minimal_payload()
        payload["entities"].append(
            {"id": "v12", "kind": "variable", "label": "Variable 12", "column": "v12"}
        )
        payload["triples"].append(["dev1", "State", "v12"])
        graph = graph_from_dict(payload)
        edges = out_edges(graph, "dev1")
        assert [(r.name, t) for r, t in edges] == [("State", "v11"), ("State", "v12")]

    def test_sorted_by_distance(self):
        payload = {
            "entities": [
                {"id": "hub", "kind": "device", "label": "hub"},
                {"id": "a", "kind": "device", "label": "a"},
                {"id": "b", "kind": "device", "label": "b"},
                {"id": "c", "kind": "device", "label": "c"},
            ],
            "relations": [
                {"name": "far", "d": 5, "o": 1},
                {"name": "near", "d": 1, "o": 1},
                {"name": "mid", "d": 3, "o": 1},
            ],
            "triples": [["hub", "far", "a"], ["hub", "near", "b"], ["hub", "mid", "c"]],
        }
        graph = graph_from_dict(payload)
        distances = [r.distance for r, _ in out_edges(graph, "hub")]
        assert distances == [1, 3, 5]

    def test_leaf_has_no_edges(self, minimal_graph):
        assert out_edges(minimal_graph, "v11") == ()
        assert minimal_graph.adjacency[minimal_graph.position["v11"]] == ()

    def test_unknown_entity(self, minimal_graph):
        with pytest.raises(GraphError, match="unknown entity"):
            minimal_graph.entity("nope")

    def test_order_invariant_under_file_permutation(self, tep_graph, tmp_path):
        payload = serialize(tep_graph)
        payload["triples"] = payload["triples"][::-1]
        shuffled = graph_from_dict(payload)
        assert shuffled.adjacency == tep_graph.adjacency
        for entity in tep_graph.entities:
            assert out_edges(shuffled, entity.id) == out_edges(tep_graph, entity.id)

    def test_adjacency_matches_triples(self, tep_graph):
        assert len(tep_graph.adjacency) == len(tep_graph.entities)
        for entity in tep_graph.entities:
            edges = sorted((r.name, t) for r, t in out_edges(tep_graph, entity.id))
            declared = sorted(
                (t.relation, t.tail) for t in tep_graph.triples if t.head == entity.id
            )
            assert edges == declared


class TestRoundTrip:
    def test_loads_of_one_file_share_their_ids(self):
        path = files("rootkgd") / "fixtures" / "tep.kg.json"
        first, second = load_graph(path), load_graph(path)
        assert len(first.entities) == len(second.entities) > 0
        for a, b in zip(first.entities, second.entities):
            assert a.id is b.id
        for a, b in zip(first.triples, second.triples):
            assert a.head is b.head and a.relation is b.relation and a.tail is b.tail
            assert a.head is first.entity(a.head).id
            assert a.head is first.entities[first.position[a.head]].id

    def test_serialize_load_identity(self, tep_graph, tmp_path):
        path = tmp_path / "tep_copy.json"
        save_graph(tep_graph, path)
        again = load_graph(path)
        assert again == tep_graph

    def test_serialize_is_loadable_json(self, mff_graph):
        payload = json.loads(json.dumps(serialize(mff_graph)))
        assert graph_from_dict(payload) == mff_graph

    def test_direct_construction_builds_indexes(self, tep_graph):
        built = KnowledgeGraph(
            list(tep_graph.entities), list(tep_graph.relations), list(tep_graph.triples)
        )
        assert built == tep_graph
        assert built.entities == tep_graph.entities  # lists are coerced to tuples
        assert built.position == tep_graph.position
        assert all(built.entity(e.id) == tep_graph.entity(e.id) for e in tep_graph.entities)
        assert built.adjacency == tep_graph.adjacency
        params = RfpaParams(sigma_r=0.1, p_max=3, delta_s_min_ratio=1e-4)
        for source in ("x4", "reactor", "s4"):
            a = propagate(built, params, source)
            b = propagate(tep_graph, params, source)
            assert list(a.quantities.items()) == list(b.quantities.items())
            assert a.pops == b.pops

    def test_document_released_before_indexes_are_built(self, tmp_path, monkeypatch):
        # No frame holds the parsed document while the graph builds its
        # indexes: only the parts are alive then.
        payload = minimal_payload()
        marker = "dev-released-document"
        payload["entities"][0]["id"] = marker
        payload["triples"][0][0] = marker
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        del payload

        def document_alive():
            return any(
                type(o) is dict and type(o.get("entities")) is list
                and any(type(e) is dict and e.get("id") == marker for e in o["entities"])
                for o in gc.get_objects()
            )

        build, seen = kgraph.KnowledgeGraph, []

        def checked(*parts):
            seen.append(document_alive())
            return build(*parts)

        monkeypatch.setattr(kgraph, "KnowledgeGraph", checked)
        graph = load_graph(path)
        assert graph.entities[0].id == marker
        assert seen == [False]


class TestImmutability:
    def test_frozen_dataclasses(self, minimal_graph):
        with pytest.raises(dataclasses.FrozenInstanceError):
            minimal_graph.entities[0].label = "nope"
        with pytest.raises(dataclasses.FrozenInstanceError):
            minimal_graph.triples = ()

    def test_parts_have_slots(self, minimal_graph):
        # Slotted parts carry no per-instance dict, so a big graph stays small.
        for part in (minimal_graph.entities[0], minimal_graph.relations[0],
                     minimal_graph.triples[0]):
            assert not hasattr(part, "__dict__")
            assert dataclasses.replace(part) == part

    def test_variable_of(self, tep_graph):
        assert len(tep_graph.variable_of) == 51
        for column, variable in tep_graph.variable_of.items():
            entity = tep_graph.entity(variable)
            assert entity.kind is EntityKind.VARIABLE and entity.column == column

    def test_variable_of_skips_unbound_in_declaration_order(self):
        payload = minimal_payload()
        # Neither the ids nor the columns are declared in sorted order.
        payload["entities"][1:1] = [
            {"id": "v13", "kind": "variable", "label": "Variable 13", "column": "c13"},
            {"id": "v12", "kind": "variable", "label": "Variable 12"},
        ]
        payload["entities"].append(
            {"id": "v10", "kind": "variable", "label": "Variable 10", "column": "a10"}
        )
        payload["triples"] += [["dev1", "State", v] for v in ("v13", "v12", "v10")]
        expected = [("c13", "v13"), ("v11", "v11"), ("a10", "v10")]
        loaded = graph_from_dict(payload)
        built = KnowledgeGraph(*parts(payload))
        assert list(loaded.variable_of.items()) == expected
        assert list(built.variable_of.items()) == expected
        assert loaded.warnings == built.warnings == ("variable 'v12' has no column binding",)
