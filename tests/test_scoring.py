from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import cosine_ref, dense_propagate, paper_seed_score, random_graph_payload
from rootkgd.features import ContributionVector
from rootkgd.kgraph import GraphError, graph_from_dict
from rootkgd.rfpa import RfpaParams, propagate
from rootkgd.scoring import cosine, format_report, rank_all, report_dict, root_score

PARAMS = RfpaParams(sigma_r=0.1, p_max=3, delta_s_min_ratio=1e-6)


def two_island_graph():
    """Two disconnected device+variable islands."""
    return graph_from_dict(
        {
            "entities": [
                {"id": "dev1", "kind": "device", "label": "Device 1"},
                {"id": "a", "kind": "variable", "label": "a", "column": "a"},
                {"id": "dev2", "kind": "device", "label": "Device 2"},
                {"id": "b", "kind": "variable", "label": "b", "column": "b"},
            ],
            "relations": [{"name": "State", "d": 1, "o": 1}],
            "triples": [["dev1", "State", "a"], ["dev2", "State", "b"]],
        }
    )


@pytest.fixture(scope="module")
def tep_contributions(tep_graph):
    """A deterministic synthetic contribution-rate vector over the TEP roster."""
    roster = tuple(tep_graph.variable_of.values())
    rng = np.random.default_rng(123)
    scores = rng.exponential(scale=1.0, size=len(roster))
    scores[roster.index("x4")] = 25.0
    return ContributionVector(scores / scores.sum(), roster)


class TestCosine:
    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(0, 5, size=8)
            b = rng.uniform(0, 5, size=8)
            assert abs(cosine(a, b) - cosine_ref(a, b)) <= 1e-14

    def test_zero_norm_guard(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0
        assert cosine(np.ones(3), np.zeros(3)) == 0.0


class TestRootScore:
    def test_parallel_profile_scores_one(self, tep_graph):
        roster = tuple(tep_graph.variable_of.values())
        result = propagate(tep_graph, PARAMS, "s4")
        profile = np.array([result.quantities.get(r, 0.0) for r in roster])
        contributions = ContributionVector(profile / profile.sum(), roster)
        score = root_score(tep_graph, PARAMS, contributions, "s4")
        assert abs(score - 1.0) <= 1e-12

    def test_disjoint_supports_score_zero(self):
        graph = two_island_graph()
        contributions = ContributionVector(np.array([0.0, 1.0]), ("a", "b"))
        assert root_score(graph, PARAMS, contributions, "dev1") == 0.0

    def test_unreachable_roster_scores_zero(self):
        graph = two_island_graph()
        contributions = ContributionVector(np.array([1.0]), ("b",))
        assert root_score(graph, PARAMS, contributions, "dev1") == 0.0

    def test_self_affinity_of_leaf_variable(self):
        graph = graph_from_dict(
            {
                "entities": [
                    {"id": "dev1", "kind": "device", "label": "Device 1"},
                    {"id": "v", "kind": "variable", "label": "v", "column": "v"},
                ],
                "relations": [{"name": "State", "d": 1, "o": 1}],
                "triples": [["dev1", "State", "v"]],
            }
        )
        contributions = ContributionVector(np.array([1.0]), ("v",))
        assert root_score(graph, PARAMS, contributions, "v") == 1.0

    def test_zero_contribution_variable_still_scores(self, tep_graph):
        roster = tuple(tep_graph.variable_of.values())
        scores = np.zeros(len(roster))
        scores[roster.index("x4")] = 1.0
        contributions = ContributionVector(scores, roster)
        # x45 has zero contribution of its own; it is seeded like any candidate.
        assert root_score(tep_graph, PARAMS, contributions, "x45") > 0.0

    def test_empty_roster_rejected(self, tep_graph):
        with pytest.raises(ValueError, match="empty"):
            root_score(tep_graph, PARAMS, ContributionVector(np.zeros(0), ()), "x4")

    def test_unknown_candidate(self, tep_graph, tep_contributions):
        with pytest.raises(GraphError, match="unknown entity"):
            root_score(tep_graph, PARAMS, tep_contributions, "bogus")

    def test_roster_id_not_in_graph(self, chain_graph):
        contributions = ContributionVector(np.array([0.5, 0.5]), ("B", "nope"))
        with pytest.raises(ValueError, match=r"roster ids repeated or not in the graph: \['nope'\]"):
            root_score(chain_graph, PARAMS, contributions, "A")

    def test_repeated_roster_id(self, chain_graph):
        contributions = ContributionVector(np.array([0.5, 0.5]), ("B", "B"))
        with pytest.raises(ValueError, match=r"repeated or not in the graph: \['B'\]"):
            root_score(chain_graph, PARAMS, contributions, "A")

    def test_roster_rechecked_for_a_new_roster_or_graph(self):
        # A ranking checks its roster once; a roster or graph that did not
        # take part in it is still checked in full afterwards.
        graph = two_island_graph()
        good = ContributionVector(np.array([0.5, 0.5]), ("a", "b"))
        rank_all(graph, PARAMS, good)
        stray = ContributionVector(np.array([0.5, 0.5]), ("a", "nope"))
        with pytest.raises(ValueError, match=r"roster ids repeated or not in the graph: \['nope'\]"):
            root_score(graph, PARAMS, stray, "dev1")
        without_b = graph_from_dict(
            {
                "entities": [
                    {"id": "dev1", "kind": "device", "label": "Device 1"},
                    {"id": "a", "kind": "variable", "label": "a", "column": "a"},
                ],
                "relations": [{"name": "State", "d": 1, "o": 1}],
                "triples": [["dev1", "State", "a"]],
            }
        )
        with pytest.raises(ValueError, match=r"roster ids repeated or not in the graph: \['b'\]"):
            root_score(without_b, PARAMS, good, "dev1")

    def test_unrostered_reached_entities_ignored(self, chain_graph):
        # A holds its unit seed, but only B is on the roster.
        contributions = ContributionVector(np.array([1.0]), ("B",))
        assert root_score(chain_graph, PARAMS, contributions, "A") == 1.0

    def test_roster_permutation(self, tep_graph, tep_contributions):
        order = np.random.default_rng(5).permutation(len(tep_contributions.roster))
        permuted = ContributionVector(
            tep_contributions.scores[order],
            tuple(tep_contributions.roster[i] for i in order),
        )
        for candidate in ("x4", "reactor", "s4"):
            base = root_score(tep_graph, PARAMS, tep_contributions, candidate)
            assert abs(root_score(tep_graph, PARAMS, permuted, candidate) - base) <= 1e-15


class TestRankAll:
    def test_substances_excluded_by_default(self, tep_graph, tep_contributions):
        ranking = rank_all(tep_graph, PARAMS, tep_contributions)
        kinds = {e.kind for e in ranking.entries}
        assert kinds == {"variable", "stream", "device"}
        assert len(ranking.entries) == 5 + 14 + 51

    def test_substances_only_graph_has_no_candidates(self):
        graph = graph_from_dict(
            {
                "entities": [
                    {"id": "water", "kind": "substance", "label": "Water"},
                    {"id": "steam", "kind": "substance", "label": "Steam"},
                ],
                "relations": [{"name": "Contain", "d": 1, "o": 1}],
                "triples": [["water", "Contain", "steam"]],
            }
        )
        contributions = ContributionVector(np.array([1.0]), ("water",))
        with pytest.raises(ValueError, match="no candidate entities to score"):
            rank_all(graph, PARAMS, contributions)

    def test_sorted_descending_with_id_tie_break(self, diamond_graph):
        # B and C are mirror images, so their scores are bit-identical.
        payload = {
            "entities": [
                {"id": "A", "kind": "device", "label": "A"},
                {"id": "B", "kind": "device", "label": "B"},
                {"id": "C", "kind": "device", "label": "C"},
                {"id": "vb", "kind": "variable", "label": "vb", "column": "vb"},
                {"id": "vc", "kind": "variable", "label": "vc", "column": "vc"},
            ],
            "relations": [{"name": "State", "d": 1, "o": 1}],
            "triples": [
                ["A", "State", "vb"],
                ["A", "State", "vc"],
                ["B", "State", "vb"],
                ["C", "State", "vc"],
            ],
        }
        graph = graph_from_dict(payload)
        contributions = ContributionVector(np.array([0.5, 0.5]), ("vb", "vc"))
        ranking = rank_all(graph, PARAMS, contributions)
        scores = {e.id: e.score for e in ranking.entries}
        assert scores["B"] == scores["C"]
        order = [e.id for e in ranking.entries]
        assert order.index("B") + 1 == order.index("C")
        assert all(
            ranking.entries[i].score >= ranking.entries[i + 1].score
            for i in range(len(ranking.entries) - 1)
        )

    def test_scale_invariance_of_contributions(self, tep_graph, tep_contributions):
        base = rank_all(tep_graph, PARAMS, tep_contributions)
        scaled_cv = ContributionVector(
            7.3 * tep_contributions.scores, tep_contributions.roster
        )
        scaled = rank_all(tep_graph, PARAMS, scaled_cv)
        assert [e.id for e in scaled.entries] == [e.id for e in base.entries]
        for a, b in zip(base.entries, scaled.entries):
            assert abs(a.score - b.score) <= 1e-12

    def test_unit_seed_matches_paper_seed(self):
        """Seeding with one unit ranks as the paper's seed (own positive
        contribution, else a constant) does, on random graphs."""
        rng = np.random.default_rng(61)
        own_seeded = constant_seeded = 0
        for _ in range(25):
            graph = graph_from_dict(random_graph_payload(rng, max_nodes=60, max_edges=240))
            roster = tuple(graph.variable_of.values())
            if not roster:
                continue
            params = RfpaParams(
                sigma_r=float(rng.uniform(0.05, 1.0)),
                p_max=int(rng.integers(1, 5)),
                delta_s_min_ratio=float(10.0 ** rng.uniform(-6, -2)),
            )
            scores = rng.exponential(size=len(roster)) * (rng.random(len(roster)) < 0.7)
            contributions = ContributionVector(scores, roster)
            constant = float(10.0 ** rng.uniform(-2, 2))
            ranking = rank_all(graph, params, contributions)
            paper = {
                e.id: paper_seed_score(graph, params, contributions, e.id, constant)
                for e in ranking.entries
            }
            for e in ranking.entries:
                assert abs(e.score - paper[e.id]) <= 1e-12
            paper_rank = {
                eid: i for i, eid in enumerate(sorted(paper, key=lambda k: (-paper[k], k)))
            }
            for i, a in enumerate(ranking.entries):
                for b in ranking.entries[i + 1:]:
                    if paper_rank[a.id] > paper_rank[b.id]:
                        assert abs(a.score - b.score) <= 1e-12
            positive = {r for r, v in zip(roster, scores) if v > 0}
            own_seeded += sum(e.id in positive for e in ranking.entries)
            constant_seeded += sum(e.id not in positive for e in ranking.entries)
        assert own_seeded > 0 and constant_seeded > 0

    def test_matches_dense_oracle_profiles(self):
        """Every score is bit-identical to the cosine of the dense oracle's
        profile read off at the roster."""
        rng = np.random.default_rng(62)
        scored = 0
        for _ in range(15):
            graph = graph_from_dict(random_graph_payload(rng, max_nodes=60, max_edges=240))
            roster = tuple(graph.variable_of.values())
            if not roster:
                continue
            params = RfpaParams(
                sigma_r=float(rng.uniform(0.05, 1.0)),
                p_max=int(rng.integers(1, 5)),
                delta_s_min_ratio=float(10.0 ** rng.uniform(-6, -2)),
            )
            contributions = ContributionVector(rng.exponential(size=len(roster)), roster)
            for entry in rank_all(graph, params, contributions).entries:
                quantities, _ = dense_propagate(graph, params, entry.id, 1.0)
                profile = np.array([quantities[r] for r in roster])
                assert entry.score.hex() == cosine(profile, contributions.scores).hex()
                scored += 1
        assert scored > 0

    def test_scores_in_unit_interval(self, tep_graph, tep_contributions):
        ranking = rank_all(tep_graph, PARAMS, tep_contributions)
        for entry in ranking.entries:
            assert -1e-12 <= entry.score <= 1.0 + 1e-12

    def test_deterministic_repeat(self, tep_graph, tep_contributions):
        first = rank_all(tep_graph, PARAMS, tep_contributions)
        second = rank_all(tep_graph, PARAMS, tep_contributions)
        assert first.entries == second.entries

    def test_one_graph_serves_two_threads(self, tep_graph, tep_contributions):
        # A run holds its state tables alone until it hands them back
        # zeroed, so concurrent rankings on one graph object cannot see each
        # other's quantities.
        expected = rank_all(tep_graph, PARAMS, tep_contributions).entries
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside single runs
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                calls = [
                    pool.submit(rank_all, tep_graph, PARAMS, tep_contributions)
                    for _ in range(6)
                ]
                results = [call.result(timeout=60).entries for call in calls]
        finally:
            sys.setswitchinterval(interval)
        assert all(entries == expected for entries in results)


@pytest.fixture(scope="module")
def ranking(tep_graph, tep_contributions):
    return rank_all(
        tep_graph,
        PARAMS,
        tep_contributions,
        metadata={
            "graph": "tep.kg.json",
            "params": {"sigma_r": 0.1},
            "window": {"fault_start": 160, "length": 100},
        },
    )


class TestFormatReport:
    def test_text_layout(self, ranking):
        text = format_report(ranking, top_k=10)
        lines = text.splitlines()
        assert "variable" in lines[0] and "stream/device" in lines[0]
        assert len(lines) == 11
        first = lines[1].split()
        assert first[0] == "1"
        # scores rendered to 5 decimals
        assert all(len(tok.split(".")[1]) == 5 for tok in first if "." in tok)

    def test_top_k_truncation(self, ranking):
        text = format_report(ranking, top_k=1000)
        assert len(text.splitlines()) == 1 + 51  # all variables, no padding rows

    def test_json_round_trip(self, ranking):
        payload = json.loads(json.dumps(report_dict(ranking), indent=2))
        assert set(payload) == {"graph", "params", "window", "ranking"}
        assert payload["graph"] == "tep.kg.json"
        by_id = {e["id"]: e["score"] for e in payload["ranking"]}
        for entry in ranking.entries:
            assert by_id[entry.id] == entry.score  # exact float round trip

    def test_report_dict_schema(self, ranking):
        payload = report_dict(ranking)
        assert isinstance(payload["ranking"], list)
        assert payload["ranking"][0].keys() == {"id", "kind", "score"}

    def test_bad_args(self, ranking):
        with pytest.raises(ValueError, match="top_k"):
            format_report(ranking, top_k=0)
