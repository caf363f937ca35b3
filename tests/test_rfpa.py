from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_propagate, random_graph_payload
from rootkgd.kgraph import GraphError, graph_from_dict
from rootkgd.rfpa import (
    RfpaParams,
    attenuation,
    format_trace_tsv,
    propagate,
    trace,
)

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
    keys, each positive, and the same pops."""
    result = propagate(graph, params, source)
    quantities, pops = dense_propagate(graph, params, source, 1.0)
    assert [result.quantities.get(e.id, 0.0).hex() for e in graph.entities] == [
        quantities[e.id].hex() for e in graph.entities
    ]
    assert set(result.quantities) == {eid for eid, q in quantities.items() if q > 0.0}
    assert all(q > 0.0 for q in result.quantities.values())
    assert result.pops == pops
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
        self_loops = unreached = 0
        for _ in range(12):
            payload = random_graph_payload(rng, max_nodes=80, max_edges=320)
            self_loops += sum(h == t for h, _, t in payload["triples"])
            graph = graph_from_dict(payload)
            params = RfpaParams(
                sigma_r=float(rng.uniform(0.05, 1.0)),
                p_max=int(rng.integers(1, 5)),
                delta_s_min_ratio=float(10.0 ** rng.uniform(-6, -2)),
            )
            for source in rng.choice([e.id for e in graph.entities], size=4):
                result = assert_matches_dense(graph, params, str(source))
                unreached += len(graph.entities) - len(result.quantities)
        assert self_loops > 0 and unreached > 0

    def test_attenuation_range(self):
        params = RfpaParams(sigma_r=0.5)
        assert attenuation(params, 0.0) == 1.0
        for d in (0.1, 1.0, 10.0):
            factor = attenuation(params, d)
            assert 0.0 < factor < 1.0

