from __future__ import annotations

import gc
import hashlib
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_propagate, random_graph_payload, template_plant_payload
from rootkgd import rfpa, synth
from rootkgd.kgraph import GraphError, graph_from_dict
from rootkgd.rfpa import (
    RfpaParams,
    attenuation,
    format_trace_tsv,
    propagate,
    propagate_groups,
    trace,
)
from rootkgd.scoring import CANDIDATE_KINDS

FIXTURES = Path(__file__).parent / "fixtures"


def graph_of(*triples, relations=None, extra_entities=()):
    """Small device-only graph from (head, relation, tail) tuples."""
    ids = {t[0] for t in triples} | {t[2] for t in triples} | set(extra_entities)
    payload = {
        "entities": [{"id": i, "kind": "device", "label": i} for i in sorted(ids)],
        "relations": relations or [{"name": "flow", "d": 1, "o": 1}],
        "triples": [list(t) for t in triples],
    }
    return graph_from_dict(payload)


DEFAULTS = RfpaParams(sigma_r=0.1, p_max=3, delta_s_min_ratio=1e-6)


def assert_matches_dense(graph, params, source):
    """The run from ``source`` equals the dense oracle: every entity's value
    bit for bit (an absent entity holds 0.0), exactly the reached entities as
    keys, each positive, and the same pops in the same (priority, head)
    order; ``trace`` returns the same result as ``propagate``."""
    result = propagate(graph, params, source)
    quantities, order = dense_propagate(graph, params, source, 1.0)
    assert [result.quantities.get(e.id, 0.0).hex() for e in graph.entities] == [
        quantities[e.id].hex() for e in graph.entities
    ]
    assert set(result.quantities) == {eid for eid, q in quantities.items() if q > 0.0}
    assert all(q > 0.0 for q in result.quantities.values())
    assert result.pops == len(order)
    traced, events = trace(graph, params, source)
    assert traced == result
    assert [(e.priority, e.head) for e in events if e.relation is None] == order
    return result


class TestPropagate:
    def test_isolated_node(self):
        graph = graph_from_dict(
            {
                "entities": [{"id": "solo", "kind": "device", "label": "solo"}],
                "relations": [{"name": "flow", "d": 1, "o": 1}],
                "triples": [],
            }
        )
        result = propagate(graph, DEFAULTS, "solo")
        assert result.quantities == {"solo": 1.0}
        assert result.pops == 1

    def test_two_node_chain(self, chain_graph):
        result = propagate(chain_graph, DEFAULTS, "A")
        assert result.quantities["B"] == math.exp(-0.1)
        assert abs(result.quantities["B"] - 0.9048374) <= 5e-8
        assert result.quantities["A"] == 1.0

    def test_diamond_matches_committed_hand_trace(self, diamond_graph):
        result, events = trace(diamond_graph, DEFAULTS, "A")
        expected = (FIXTURES / "diamond_trace.tsv").read_text().splitlines()[1:]
        lines = format_trace_tsv(events).splitlines()[1:]
        assert len(lines) == len(expected)
        for got_line, want_line in zip(lines, expected):
            got = got_line.split("\t")
            want = want_line.split("\t")
            assert got[:5] == want[:5]  # seq, priority, head, relation, tail
            for g, w in zip(got[5:], want[5:]):  # delta and running total
                if w == "":
                    assert g == ""
                else:
                    assert abs(float(g) - float(w)) <= 1e-12
        assert result.pops == 5
        assert abs(result.quantities["D"] - 1.6374615061559634) <= 1e-12

    def test_receipts_average_downweights_reemission(self):
        # B receives twice before it first emits, so it forwards the average
        # of its receipts, not the sum.
        graph = graph_of(
            ("A", "flow", "B"),
            ("A", "slow", "B"),
            ("B", "flow", "C"),
            relations=[
                {"name": "flow", "d": 1, "o": 1},
                {"name": "slow", "d": 1, "o": 5},
            ],
        )
        result = propagate(graph, DEFAULTS, "A")
        L = math.exp(-0.1)
        # B emits to C twice (popped once per receipt): first with s=2L, n_r=2,
        # then unchanged state again (no new receipts in between).
        assert abs(result.quantities["B"] - 2 * L) <= 1e-15
        assert abs(result.quantities["C"] - 2 * (L * L)) <= 1e-15

    def test_priority_order_follows_offsets(self):
        # far has a large offset, so B's ripple continues before C even starts.
        graph = graph_of(
            ("A", "near", "B"),
            ("A", "far", "C"),
            ("B", "near", "D"),
            ("C", "near", "E"),
            relations=[
                {"name": "near", "d": 1, "o": 1},
                {"name": "far", "d": 1, "o": 10},
            ],
        )
        _, events = trace(graph, DEFAULTS, "A")
        pops = [e.head for e in events if e.relation is None]
        assert pops == ["A", "B", "D", "C", "E"]

    def test_zero_offset_queues_behind_its_priority(self):
        # A's zero-offset emission lands at A's own priority, behind C, which
        # S queued there first: pops follow (priority, insertion).
        graph = graph_of(
            ("S", "next", "A"),
            ("S", "next", "C"),
            ("A", "same", "B"),
            relations=[
                {"name": "next", "d": 1, "o": 1},
                {"name": "same", "d": 1, "o": 0},
            ],
        )
        assert_matches_dense(graph, DEFAULTS, "S")
        _, events = trace(graph, DEFAULTS, "S")
        pops = [(e.priority, e.head) for e in events if e.relation is None]
        assert pops == [(0, "S"), (1, "A"), (1, "C"), (1, "B")]

    def test_threshold_skips_edge_not_remaining(self):
        # The faint edge is skipped while the strong one still propagates,
        # regardless of iteration order.
        graph = graph_of(
            ("A", "faint", "B"),
            ("A", "strong", "C"),
            relations=[
                {"name": "faint", "d": 100, "o": 1},
                {"name": "strong", "d": 1, "o": 1},
            ],
        )
        params = RfpaParams(sigma_r=0.1, p_max=3, delta_s_min_ratio=1e-4)
        result = assert_matches_dense(graph, params, "A")
        assert "B" not in result.quantities
        assert result.quantities["C"] == math.exp(-0.1)

    def test_initiation_cap(self):
        graph = graph_of(("A", "flow", "A"))
        params = RfpaParams(sigma_r=0.1, p_max=3, delta_s_min_ratio=1e-9)
        _, events = trace(graph, params, "A")
        pop_events = [e for e in events if e.relation is None]
        edge_events = [e for e in events if e.relation is not None]
        assert len(pop_events) == params.p_max + 1
        assert len(edge_events) == params.p_max

    def test_unknown_source(self, chain_graph):
        with pytest.raises(GraphError, match="unknown entity"):
            propagate(chain_graph, DEFAULTS, "nope")

    def test_param_validation(self):
        for sigma_r in (0.0, float("nan"), float("inf"), 10**400, "x"):
            with pytest.raises(ValueError, match="sigma_r must be positive and finite"):
                RfpaParams(sigma_r=sigma_r)
        with pytest.raises(ValueError, match="p_max"):
            RfpaParams(p_max=0)
        for p_max in (2.5, 3.0, math.inf, True):
            with pytest.raises(ValueError, match="p_max must be an integer"):
                RfpaParams(p_max=p_max)
        for ratio in (1.5, "x", None):
            with pytest.raises(ValueError, match=r"delta_s_min_ratio must be in \(0, 1\)"):
                RfpaParams(delta_s_min_ratio=ratio)


class TestInvariants:
    def test_termination_bound_and_nonnegativity(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            graph = graph_from_dict(random_graph_payload(rng))
            params = RfpaParams(
                sigma_r=float(rng.uniform(0.1, 1.0)),
                p_max=int(rng.integers(1, 6)),
                delta_s_min_ratio=float(10 ** rng.uniform(-4, -2)),
            )
            source = graph.entities[int(rng.integers(len(graph.entities)))].id
            result = propagate(graph, params, source)
            n = len(graph.entities)
            assert result.pops <= (params.p_max + 1) * n + 1
            values = np.array(list(result.quantities.values()))
            assert np.isfinite(values).all()
            assert (values >= 0).all()
            assert values.max() <= 1.0 * (params.p_max + 1) * n

    def test_linearity_in_seed(self):
        rng = np.random.default_rng(78)
        graph = graph_from_dict(random_graph_payload(rng, max_nodes=40, max_edges=120))
        params = RfpaParams(sigma_r=0.2, p_max=3, delta_s_min_ratio=1e-4)
        source = graph.entities[0].id
        base = propagate(graph, params, source)
        for c in (0.5, 7.3, 1000.0):
            scaled, _ = dense_propagate(graph, params, source, c)
            for eid, q in base.quantities.items():
                expected = c * q
                assert abs(scaled[eid] - expected) <= 1e-12 * max(expected, c)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(79)
        graph = graph_from_dict(random_graph_payload(rng, max_nodes=60, max_edges=200))
        params = RfpaParams(sigma_r=0.15, p_max=4, delta_s_min_ratio=1e-4)
        source = graph.entities[3].id
        first = propagate(graph, params, source)
        second = propagate(graph, params, source)
        assert first.quantities == second.quantities
        assert first.pops == second.pops
        _, events_a = trace(graph, params, source)
        _, events_b = trace(graph, params, source)
        assert format_trace_tsv(events_a) == format_trace_tsv(events_b)

    def test_matches_dense_transcription(self):
        rng = np.random.default_rng(47)
        self_loops = unreached = zero_offsets = 0
        for _ in range(12):
            payload = random_graph_payload(rng, max_nodes=80, max_edges=320)
            self_loops += sum(h == t for h, _, t in payload["triples"])
            level = {r["name"] for r in payload["relations"] if r["o"] == 0}
            zero_offsets += sum(r in level for _, r, _ in payload["triples"])
            graph = graph_from_dict(payload)
            params = RfpaParams(
                sigma_r=float(rng.uniform(0.05, 1.0)),
                p_max=int(rng.integers(1, 5)),
                delta_s_min_ratio=float(10.0 ** rng.uniform(-6, -2)),
            )
            for source in rng.choice([e.id for e in graph.entities], size=4):
                result = assert_matches_dense(graph, params, str(source))
                unreached += len(graph.entities) - len(result.quantities)
        assert self_loops > 0 and unreached > 0 and zero_offsets > 0

    @pytest.mark.parametrize(
        "fixture, digest",
        [
            ("tep_graph", "ccc763db6e5d82f549db0b9bf6de1c55d577b8914cbcd04b8d836ec5b5afcf70"),
            ("mff_graph", "b1e61e69373b7863c2235ff18c6d2014519b19649ba5c95504f904089bed95a5"),
        ],
    )
    def test_fixture_traces_are_pinned(self, fixture, digest, request):
        # The sha256 of the trace TSVs from every entity, in declaration
        # order, under default params: any change to the walk's order or
        # arithmetic on the bundled graphs changes it.
        graph = request.getfixturevalue(fixture)
        h = hashlib.sha256()
        for e in graph.entities:
            h.update(format_trace_tsv(trace(graph, RfpaParams(), e.id)[1]).encode())
        assert h.hexdigest() == digest

    def test_attenuation_range(self):
        params = RfpaParams(sigma_r=0.5)
        assert attenuation(params, 0.0) == 1.0
        for d in (0.1, 1.0, 10.0):
            factor = attenuation(params, d)
            assert 0.0 < factor < 1.0

    def test_run_stopped_midway_leaves_the_graph_as_it_was(self, diamond_graph):
        # A trace sink that raises on its 4th event stops a run with its
        # state half written; the next run on the same graph object still
        # equals the first.
        expected = propagate(diamond_graph, DEFAULTS, "A")

        class Stop(Exception):
            pass

        class Sink(list):
            def append(self, event):
                if len(self) == 3:
                    raise Stop
                super().append(event)

        with pytest.raises(Stop):
            rfpa._run(diamond_graph, DEFAULTS, "A", Sink())
        assert propagate(diamond_graph, DEFAULTS, "A") == expected


#: The params every shared-run check covers: the defaults, the initiation cap
#: at 1 and 5, and a threshold at 1e-6 and 0.05.
PARAM_SETS = (
    RfpaParams(),
    RfpaParams(p_max=1),
    RfpaParams(p_max=5),
    RfpaParams(delta_s_min_ratio=1e-6),
    RfpaParams(delta_s_min_ratio=0.05),
)


@pytest.fixture
def made(monkeypatch) -> list[str]:
    """The sources of the runs made through ``rfpa.propagate``, the module
    attribute that ``propagate_groups`` calls (and a tracer wraps)."""
    sources: list[str] = []
    plain = rfpa.propagate

    def counted(graph, params, source):
        sources.append(source)
        return plain(graph, params, source)

    monkeypatch.setattr(rfpa, "propagate", counted)
    return sources


@pytest.fixture
def walked(monkeypatch) -> list[int]:
    """The number of targets of each walk made through ``rfpa._walk``."""
    counts: list[int] = []
    plain = rfpa._walk

    def counted(*args):
        counts.append(len(args[-1]))
        return plain(*args)

    monkeypatch.setattr(rfpa, "_walk", counted)
    return counts


def named_graph(name: str, request):
    """The fixture graph ``name``, or for ``plantN`` the ``synth`` plant of N
    devices at seed 1."""
    if name.startswith("plant"):
        return synth.generate_plant(synth.PlantSpec(n_devices=int(name[5:]), seed=1))[0]
    return request.getfixturevalue(name)


def shared_runs(graph, params, sources, made) -> int:
    """Check that ``propagate_groups`` serves every source exactly once, in
    one row of one run, with what ``propagate`` returns for it (ids and
    quantity bits in key order), row 0 being the run's own source; return
    how many runs it made."""
    made.clear()
    ids = [e.id for e in graph.entities]
    served: dict[int, list] = {}
    runs = 0
    for indices, images, quantities in propagate_groups(graph, params, sources):
        assert made[runs] == sources[indices[0]]
        runs += 1
        assert images.dtype == np.int32 and quantities.dtype == np.float64
        assert images.shape == (len(indices), len(quantities))
        for i, row in zip(indices, images.tolist()):
            assert i not in served
            served[i] = [(ids[at], q.hex()) for at, q in zip(row, quantities.tolist())]
    assert runs == len(made)
    assert sorted(served) == list(range(len(sources)))
    for i, source in enumerate(sources):  # not counted
        expected = propagate(graph, params, source).quantities
        assert served[i] == [(k, q.hex()) for k, q in expected.items()]
    return runs


def walk(graph, seed: str, targets: list[str], adjacency=None):
    """``rfpa._walk`` of the run from ``seed`` onto ``targets``, reading the
    edges of the reached entities from ``adjacency`` (the graph's by default)."""
    tables = rfpa._tables(graph.adjacency, rfpa._shapes(graph.adjacency))
    reached = propagate(graph, DEFAULTS, seed).positions
    at = np.array([graph.position[t] for t in targets], np.int32)
    return rfpa._walk(graph.adjacency if adjacency is None else adjacency, *tables, reached, at)


def two_onto_one_graph():
    """``s`` reaches ``u1`` and ``u2`` by relations ``p`` and ``q``; ``t``
    reaches ``w`` by both: a walk from ``s`` to ``t`` maps two entities onto ``w``."""
    return graph_of(
        ("s", "p", "u1"), ("s", "q", "u2"), ("t", "p", "w"), ("t", "q", "w"),
        relations=[{"name": "p", "d": 1, "o": 1}, {"name": "q", "d": 2, "o": 0}],
    )


def one_onto_two_graph():
    """``s`` reaches ``u`` by relations ``p`` and ``q``; ``t1``, ``t2`` and
    ``t3`` each reach two entities by them: a walk from ``s`` fails at the
    seed's own second edge."""
    return graph_of(
        ("s", "p", "u"), ("s", "q", "u"),
        *[(f"t{i}", rel, f"w{i}{rel}") for i in (1, 2, 3) for rel in ("p", "q")],
        relations=[{"name": "p", "d": 1, "o": 1}, {"name": "q", "d": 2, "o": 0}],
    )


def far_edge_graph():
    """Two chains of three that differ only in the self-loop on ``b3``, the
    last entity the run from ``b1`` reaches."""
    return graph_of(("a1", "flow", "a2"), ("a2", "flow", "a3"),
                    ("b1", "flow", "b2"), ("b2", "flow", "b3"), ("b3", "flow", "b3"))


def chain_graph_of(length: int):
    """One chain ``c1 -> c2 -> ... -> c<length>``."""
    return graph_of(*[(f"c{i}", "flow", f"c{i + 1}") for i in range(1, length)])


def one_device_graph():
    """One device and its two variables, each tied back to it: the device's
    edge back to ``v1`` is its first, to ``v2`` its second."""
    return graph_from_dict({
        "entities": [
            {"id": "dev", "kind": "device", "label": "dev"},
            {"id": "v1", "kind": "variable", "label": "v1", "column": "v1"},
            {"id": "v2", "kind": "variable", "label": "v2", "column": "v2"},
        ],
        "relations": [{"name": "State", "d": 1, "o": 1}, {"name": "State of", "d": 1, "o": 1}],
        "triples": [["dev", "State", "v1"], ["dev", "State", "v2"],
                    ["v1", "State of", "dev"], ["v2", "State of", "dev"]],
    })


def parallel_edges_graph():
    """Three devices of one relation sequence, each with two of its three
    edges back to its own variable: at positions 0 and 2 to ``a``, 1 and 2
    to ``b``, and 0 and 1 to ``c``."""
    backs = {"a": (0, 2), "b": (1, 2), "c": (0, 1)}
    variables = [*backs, "xa", "xb", "xc"]
    return graph_from_dict({
        "entities": [{"id": f"d{v}", "kind": "device", "label": v} for v in backs]
                    + [{"id": v, "kind": "variable", "label": v, "column": v} for v in variables],
        "relations": [{"name": f"R{k}", "d": k + 1, "o": 1} for k in range(3)]
                     + [{"name": "M", "d": 1, "o": 1}],
        "triples": [[f"d{v}", f"R{k}", v if k in back else f"x{v}"]
                    for v, back in backs.items() for k in range(3)]
                   + [[v, "M", f"d{v}"] for v in backs],
    })


class TestPropagateEach:
    """``propagate_groups`` serves each source with exactly what
    ``propagate`` returns for it, with fewer runs where the graph repeats a
    structure."""

    def test_template_plants_share_runs_exactly(self, made):
        sources = runs = 0
        for seed in range(8):
            graph = graph_from_dict(template_plant_payload(np.random.default_rng(seed), 30))
            ids = [e.id for e in graph.entities]
            for params in PARAM_SETS:
                made_here = shared_runs(graph, params, ids, made)
                if params == RfpaParams():
                    sources, runs = sources + len(ids), runs + made_here
        assert runs < sources

    def test_random_graphs(self, made):
        rng = np.random.default_rng(28)
        for _ in range(10):
            graph = graph_from_dict(random_graph_payload(rng, max_nodes=60, max_edges=240))
            for params in PARAM_SETS:
                shared_runs(graph, params, [e.id for e in graph.entities], made)

    @pytest.mark.parametrize("fixture", ["tep_graph", "mff_graph", "diamond_graph", "chain_graph"])
    def test_fixture_graphs(self, fixture, request, made):
        graph = request.getfixturevalue(fixture)
        for params in PARAM_SETS:
            shared_runs(graph, params, [e.id for e in graph.entities], made)

    @pytest.mark.parametrize("devices", [4, 30])
    def test_synth_plants(self, devices, made):
        graph, _ = synth.generate_plant(synth.PlantSpec(n_devices=devices, seed=1))
        ids = [e.id for e in graph.entities]
        runs = [shared_runs(graph, params, ids, made) for params in PARAM_SETS]
        if devices == 30:
            assert runs[0] <= 63 < len(ids) == 119  # interior devices, streams and variables repeat

    def test_repeated_and_reordered_sources(self, diamond_graph, made):
        ids = [e.id for e in diamond_graph.entities]
        shared_runs(diamond_graph, DEFAULTS, ids[::-1] + ids + ids[:1], made)
        shared_runs(diamond_graph, DEFAULTS, ids[:1] * 5, made)
        assert list(propagate_groups(diamond_graph, DEFAULTS, [])) == []

    def test_unknown_source_raises_in_its_turn(self, chain_graph):
        runs = propagate_groups(chain_graph, DEFAULTS, ["A", "nope", "nope"])
        served, images, quantities = next(runs)
        assert served == [0]
        expected = propagate(chain_graph, DEFAULTS, "A").quantities
        assert quantities.tolist() == list(expected.values())
        with pytest.raises(GraphError, match="unknown entity"):
            next(runs)

    @pytest.mark.parametrize(
        "build, seed, target, step",
        [
            # the device's edge back sits elsewhere: the check at the device
            pytest.param(one_device_graph, "v1", "v2", 1, id="one_device_graph-v1-v2"),
            # the copies differ at the end of the reach: the shape test at b3
            pytest.param(far_edge_graph, "a1", "b1", 2, id="far_edge_graph-a1-b1"),
            # two reached entities onto one: the image is not one-to-one
            pytest.param(two_onto_one_graph, "s", "t", 3, id="two_onto_one_graph-s-t"),
        ],
    )
    def test_walk_refuses(self, build, seed, target, step, made):
        graph = build()
        failed, images = walk(graph, seed, [target] * 4)
        assert failed.tolist() == [step] * 4 and images.shape == (0, 3)
        # The target's first copy runs, and its walk serves the other three.
        assert shared_runs(graph, DEFAULTS, [seed] + [target] * 4, made) == 2

    def test_walk_refuses_a_group_at_different_steps(self, made, walked):
        # On one chain, the run from c1 reaches c7; from c2 to c4 the walk
        # runs off the chain's end one step sooner each, at the shape test.
        graph = chain_graph_of(7)
        failed, images = walk(graph, "c1", ["c2", "c3", "c4"])
        assert failed.tolist() == [5, 4, 3] and images.shape == (0, 7)
        # So each of them runs by itself, and no second walk is made (the
        # one walk takes the run's own source too).
        walked.clear()
        assert shared_runs(graph, DEFAULTS, ["c1", "c2", "c3", "c4"], made) == 4
        assert walked == [4]

    @pytest.mark.parametrize(
        "fixture", ["tep_graph", "mff_graph", "diamond_graph", "chain_graph", "plant30"]
    )
    def test_seed_keys_depend_on_each_seed_alone(self, fixture, request):
        # A seed's number is fixed by its own structure, so the partition of
        # the seeds does not change when the list is repeated and reversed.
        graph = named_graph(fixture, request)
        adjacency = graph.adjacency
        shape = rfpa._shapes(adjacency)

        def partition(seeds):
            groups: dict[int, set[int]] = {}
            for seed, key in zip(seeds, rfpa._seed_keys(adjacency, shape, seeds)):
                groups.setdefault(key, set()).add(seed)
            return {frozenset(group) for group in groups.values()}

        seeds = list(range(len(graph.entities)))
        assert partition(seeds) == partition((seeds * 3)[::-1])

    def test_seed_key_reads_the_edges_back(self):
        # The device's first edge leads back to v1, its second to v2, so v1's
        # run is no relabeling of v2's, however few seeds share their shape.
        graph = one_device_graph()
        adjacency = graph.adjacency
        seeds = [graph.position["v1"], graph.position["v2"]]
        first, second = rfpa._seed_keys(adjacency, rfpa._shapes(adjacency), seeds)
        assert first != second

    def test_seed_key_reads_every_edge_back(self):
        # Each device has two edges back to its variable: a and b share the
        # last of those positions, a and c the first, so every one counts.
        graph = parallel_edges_graph()
        adjacency = graph.adjacency
        seeds = [graph.position[i] for i in ("a", "b", "c")]
        assert len(set(rfpa._seed_keys(adjacency, rfpa._shapes(adjacency), seeds))) == 3

    @pytest.mark.parametrize("fixture, runs, walks", [
        ("tep_graph", 70, 0), ("mff_graph", 54, 0), ("plant30", 63, 4), ("plant800", 63, 4),
    ])
    def test_runs_and_walks_of_a_ranking(self, fixture, runs, walks, request, made, walked):
        # The work of ranking the graphs the benchmark diagnoses (and of a
        # smaller plant): a change to the keys or the walk moves these counts.
        graph = named_graph(fixture, request)
        candidates = [e.id for e in graph.entities_of_kind(*CANDIDATE_KINDS)]
        for _ in propagate_groups(graph, RfpaParams(), candidates):
            pass
        assert (len(made), len(walked)) == (runs, walks)

    def test_walk_stops_when_no_source_is_left(self):
        # Every target fails at the seed's own second edge, so the walk reads
        # the edges of the seed and of no other reached entity.
        graph = one_onto_two_graph()

        class Reads(tuple):
            def __getitem__(self, at):
                read.append(at)
                return super().__getitem__(at)

        read: list[int] = []
        failed, images = walk(graph, "s", ["t1", "t2", "t3"], Reads(graph.adjacency))
        assert failed.tolist() == [0, 0, 0] and images.shape == (0, 2)
        assert read == [graph.position["s"]]

    def test_walk_accepts_a_copy(self, made):
        # Copies of a chain of three whose ids sort in different orders: each
        # run is the first relabeled.
        graph = graph_of(*[(f"{p}1", "flow", f"{q}2") for p, q in ("aa", "zm", "yk", "xj")],
                         *[(f"{q}2", "flow", f"{r}3") for q, r in ("ab", "mb", "kc", "jd")])
        failed, images = walk(graph, "a1", ["z1"])
        assert failed.tolist() == [-1]
        assert [graph.entities[at].id for at in images[0]] == ["z1", "m2", "b3"]
        assert shared_runs(graph, DEFAULTS, ["a1", "z1", "y1", "x1"], made) == 1

    def test_a_run_is_freed_once_the_next_is_asked_for(self):
        graph, _ = synth.generate_plant(synth.PlantSpec(n_devices=30, seed=1))
        runs = propagate_groups(graph, RfpaParams(), [e.id for e in graph.entities])
        served, images, quantities = next(runs)
        assert len(served) > 1  # a walked run
        held = [weakref.ref(images), weakref.ref(quantities)]
        del served, images, quantities
        next(runs)
        gc.collect()
        assert [ref() for ref in held] == [None, None]

    def test_nothing_is_kept_after_the_last_result(self):
        graph, _ = synth.generate_plant(synth.PlantSpec(n_devices=30, seed=1))
        attributes = dict(vars(graph))
        *_, (_, images, _) = propagate_groups(graph, RfpaParams(), [e.id for e in graph.entities])
        held = weakref.ref(images)
        del images
        gc.collect()
        assert held() is None
        assert vars(graph).keys() == attributes.keys()
        assert all(vars(graph)[k] is v for k, v in attributes.items())
