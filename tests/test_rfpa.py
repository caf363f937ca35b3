from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_propagate, random_graph_payload
from rootkgd.kgraph import GraphError, graph_from_dict
from rootkgd.rfpa import (
    InitMode,
    RfpaParams,
    aligned_sequence,
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


class TestPropagate:
    def test_isolated_node(self):
        graph = graph_from_dict(
            {
                "entities": [{"id": "solo", "kind": "device", "label": "solo"}],
                "relations": [{"name": "flow", "d": 1, "o": 1}],
                "triples": [],
            }
        )
        result = propagate(graph, DEFAULTS, "solo", 2.5)
        assert result.quantities == {"solo": 2.5}
        assert result.pops == 1
        assert result.max_priority == 0

    def test_two_node_chain(self, chain_graph):
        result = propagate(chain_graph, DEFAULTS, "A", 1.0)
        assert result.quantities["B"] == math.exp(-0.1)
        assert abs(result.quantities["B"] - 0.9048374) <= 5e-8
        assert result.quantities["A"] == 1.0

    def test_diamond_matches_committed_hand_trace(self, diamond_graph):
        result, events = trace(diamond_graph, DEFAULTS, "A", 1.0)
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
        assert result.max_priority == 2
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
        result = propagate(graph, DEFAULTS, "A", 1.0)
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
        _, events = trace(graph, DEFAULTS, "A", 1.0)
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
        result = propagate(graph, params, "A", 1.0)
        assert result.quantities["B"] == 0.0
        assert result.quantities["C"] == math.exp(-0.1)

    def test_initiation_cap(self):
        graph = graph_of(("A", "flow", "A"))
        params = RfpaParams(sigma_r=0.1, p_max=3, delta_s_min_ratio=1e-9)
        _, events = trace(graph, params, "A", 1.0)
        pop_events = [e for e in events if e.relation is None]
        edge_events = [e for e in events if e.relation is not None]
        assert len(pop_events) == params.p_max + 1
        assert len(edge_events) == params.p_max

    def test_baseline_init_mode(self, chain_graph):
        params = RfpaParams(
            sigma_r=0.1, p_max=3, delta_s_min_ratio=1e-6, init_mode=InitMode.BASELINE
        )
        result = propagate(chain_graph, params, "A", 1.0)
        L = math.exp(-0.1)
        assert result.quantities["A"] == 1.0
        assert abs(result.quantities["B"] - (1.0 + L)) <= 1e-15

    def test_unknown_source(self, chain_graph):
        with pytest.raises(GraphError, match="unknown entity"):
            propagate(chain_graph, DEFAULTS, "nope", 1.0)

    def test_nonpositive_seed(self, chain_graph):
        for s_0 in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                propagate(chain_graph, DEFAULTS, "A", s_0)

    def test_param_validation(self):
        for sigma_r in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma_r must be positive and finite"):
                RfpaParams(sigma_r=sigma_r)
        with pytest.raises(ValueError, match="p_max"):
            RfpaParams(p_max=0)
        with pytest.raises(ValueError, match="delta_s_min_ratio"):
            RfpaParams(delta_s_min_ratio=1.5)


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
            result = propagate(graph, params, source, 1.0)
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
        base = propagate(graph, params, source, 1.0)
        for c in (0.5, 7.3, 1000.0):
            scaled = propagate(graph, params, source, c)
            for eid, q in base.quantities.items():
                expected = c * q
                assert abs(scaled.quantities[eid] - expected) <= 1e-12 * max(expected, c)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(79)
        graph = graph_from_dict(random_graph_payload(rng, max_nodes=60, max_edges=200))
        params = RfpaParams(sigma_r=0.15, p_max=4, delta_s_min_ratio=1e-4)
        source = graph.entities[3].id
        first = propagate(graph, params, source, 1.0)
        second = propagate(graph, params, source, 1.0)
        assert first.quantities == second.quantities
        assert first.pops == second.pops
        _, events_a = trace(graph, params, source, 1.0)
        _, events_b = trace(graph, params, source, 1.0)
        assert format_trace_tsv(events_a) == format_trace_tsv(events_b)

    @pytest.mark.parametrize("mode", list(InitMode))
    def test_matches_dense_transcription(self, mode):
        rng = np.random.default_rng(47)
        self_loops = 0
        for _ in range(12):
            payload = random_graph_payload(rng, max_nodes=80, max_edges=320)
            self_loops += sum(h == t for h, _, t in payload["triples"])
            graph = graph_from_dict(payload)
            params = RfpaParams(
                sigma_r=float(rng.uniform(0.05, 1.0)),
                p_max=int(rng.integers(1, 5)),
                delta_s_min_ratio=float(10.0 ** rng.uniform(-6, -2)),
                init_mode=mode,
            )
            for source in rng.choice([e.id for e in graph.entities], size=4):
                s_0 = float(rng.uniform(0.1, 10.0))
                result = propagate(graph, params, str(source), s_0)
                quantities, pops, max_priority = dense_propagate(graph, params, str(source), s_0)
                assert list(result.quantities.items()) == list(quantities.items())
                assert (result.pops, result.max_priority) == (pops, max_priority)
        assert self_loops > 0

    def test_attenuation_range(self):
        params = RfpaParams(sigma_r=0.5)
        assert attenuation(params, 0.0) == 1.0
        for d in (0.1, 1.0, 10.0):
            factor = attenuation(params, d)
            assert 0.0 < factor < 1.0


class TestAlignedSequence:
    def test_projection_excludes_physical(self, chain_graph):
        result = propagate(chain_graph, DEFAULTS, "A", 1.0)
        vector = aligned_sequence(result, ("B",))
        assert vector.tolist() == [result.quantities["B"]]

    def test_roster_order_and_permutation(self, diamond_graph):
        result = propagate(diamond_graph, DEFAULTS, "A", 1.0)
        forward = aligned_sequence(result, ("B", "C", "D"))
        backward = aligned_sequence(result, ("D", "C", "B"))
        assert forward.tolist() == backward.tolist()[::-1]

    def test_empty_roster(self, diamond_graph):
        result = propagate(diamond_graph, DEFAULTS, "A", 1.0)
        assert aligned_sequence(result, ()).shape == (0,)

    def test_missing_id(self, diamond_graph):
        result = propagate(diamond_graph, DEFAULTS, "A", 1.0)
        with pytest.raises(ValueError, match="missing"):
            aligned_sequence(result, ("B", "nope"))
