"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 8 needs real plant benchmark data and is skipped unless
ROOTKGD_TEP_DIR points at a directory with d00.csv/d01.csv/d04.csv/d06.csv/
d12.csv (52 columns named x1..x52, fault onset at sample 160).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import out_edges, random_model
from oracles import dense_projectors, paper_seed_score, random_graph_payload
from rootkgd.config import DiagnosisConfig
from rootkgd.features import ContributionVector, contribution_rate, fit_pca
from rootkgd.kgraph import EntityKind, graph_from_dict
from rootkgd.pipeline import run_diagnose, run_fit
from rootkgd.rfpa import RfpaParams, propagate, trace
from rootkgd.scoring import rank_all
from rootkgd.synth import FaultInjection, PlantSpec, generate_plant, simulate
from test_features import rbc_row, rbc_spe_oracle

FIXTURES = Path(__file__).parent / "fixtures"


def report(num: int, ok: bool, elapsed: float, limit: float, detail: str) -> None:
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[criterion {num}] {status}: {detail} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert in_time, f"criterion {num}: runtime {elapsed:.2f}s exceeds {limit}s"


def test_criterion_1_rbc_defining_property():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 17))
        model = random_model(rng, n=n, m=300)
        raw = model.mean + model.std * rng.normal(size=n) * 3
        scores = rbc_row(model, raw)
        oracle, base = rbc_spe_oracle(model, raw)
        diag = np.diag(dense_projectors(model).proj_res)
        for i in np.flatnonzero(diag >= 1e-6):
            scale = max(scores[i], oracle[i], base)
            rel = abs(scores[i] - oracle[i]) / scale if scale > 0 else 0.0
            worst = max(worst, rel)
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-8,
        elapsed,
        5.0,
        f"reconstruction identity on {checked} scores over 100 models, "
        f"worst relative error {worst:.2e}",
    )


def test_criterion_2_pca_identities():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 14))
        model = random_model(rng, n=n, m=250)
        eye = np.eye(n)
        C, C_res = dense_projectors(model)
        P = model.loadings_principal
        worst = max(
            worst,
            np.abs(C + C_res - eye).max(),
            np.abs(C @ C - C).max(),
            np.abs(C_res @ C_res - C_res).max(),
            np.abs(P.T @ P - np.eye(model.n_pc)).max(),
        )
    elapsed = time.perf_counter() - start
    report(2, worst <= 1e-8, elapsed, 5.0, f"50 random fits, worst identity residual {worst:.2e}")


def test_criterion_3_single_variable_fault_identification():
    start = time.perf_counter()
    hits = 0
    trials = 50
    for seed in range(trials):
        spec = PlantSpec(
            n_devices=5, variables_per_device=(2, 2), noise_scale=0.3, seed=1000 + seed
        )
        _, model = generate_plant(spec)
        assert len(model.columns) == 10
        rng = np.random.default_rng(2000 + seed)
        j = int(rng.integers(10))
        normal = simulate(model, 2000, seed=3000 + seed)
        injection = FaultInjection(
            root=model.columns[j], kind="step", magnitude=10, start=0, duration=100
        )
        faulty = simulate(model, 100, injection=injection, seed=4000 + seed)
        pca = fit_pca(normal, 0.5)
        rate = contribution_rate(pca, faulty)
        if int(np.argmax(rate.scores)) == j:
            hits += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        hits >= int(np.ceil(0.95 * trials)),
        elapsed,
        30.0,
        f"fault variable identified in {hits}/{trials} trials",
    )


def test_criterion_4_rfpa_termination_and_bounds():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_ratio = 0.0
    for _ in range(100):
        graph = graph_from_dict(random_graph_payload(rng))
        params = RfpaParams(
            sigma_r=float(rng.uniform(0.1, 1.0)),
            p_max=int(rng.integers(1, 6)),
            delta_s_min_ratio=float(10 ** rng.uniform(-4, -2)),
        )
        source = graph.entities[int(rng.integers(len(graph.entities)))].id
        result = propagate(graph, params, source)
        n = len(graph.entities)
        bound = (params.p_max + 1) * n + 1
        worst_ratio = max(worst_ratio, result.pops / bound)
        values = np.fromiter(result.quantities.values(), dtype=float)
        assert np.isfinite(values).all(), "non-finite quantity"
        assert (values >= 0).all(), "negative quantity"
        assert values.max() <= (params.p_max + 1) * n, "quantity bound exceeded"
    elapsed = time.perf_counter() - start
    report(
        4,
        worst_ratio <= 1.0,
        elapsed,
        30.0,
        f"100 random graphs terminated, worst pops/bound ratio {worst_ratio:.3f}",
    )


@pytest.fixture(scope="module")
def tep_setup(tep_graph):
    roster = tuple(tep_graph.variable_of.values())
    rng = np.random.default_rng(123)
    scores = rng.exponential(scale=1.0, size=len(roster))
    scores[roster.index("x4")] = 25.0
    contributions = ContributionVector(scores / scores.sum(), roster)
    params = RfpaParams(sigma_r=0.1, p_max=3, delta_s_min_ratio=1e-4)
    return tep_graph, params, contributions


def test_criterion_5_scale_invariances(tep_setup):
    graph, params, contributions = tep_setup
    start = time.perf_counter()

    base = rank_all(graph, params, contributions)
    scaled = rank_all(
        graph, params, ContributionVector(7.3 * contributions.scores, contributions.roster)
    )
    worst_a = max(
        abs(a.score - b.score) for a, b in zip(base.entries, scaled.entries)
    )
    same_order_a = [e.id for e in base.entries] == [e.id for e in scaled.entries]

    # rank_all seeds every candidate with one unit; the paper seeds a variable
    # with its own positive contribution and anything else with a constant.
    base_scores = {e.id: e.score for e in base.entries}
    worst_b = 0.0
    same_order_b = True
    for c in (0.1, 42.0):
        paper = {
            eid: paper_seed_score(graph, params, contributions, eid, c) for eid in base_scores
        }
        order = sorted(paper, key=lambda eid: (-paper[eid], eid))
        same_order_b &= order == [e.id for e in base.entries]
        worst_b = max([worst_b] + [abs(paper[eid] - base_scores[eid]) for eid in paper])
    elapsed = time.perf_counter() - start
    report(
        5,
        worst_a <= 1e-12 and worst_b <= 1e-12 and same_order_a and same_order_b,
        elapsed,
        10.0,
        f"contribution rescale drift {worst_a:.2e}, paper-seed drift {worst_b:.2e}",
    )


def test_criterion_6_hand_trace_equivalence(diamond_graph):
    start = time.perf_counter()
    params = RfpaParams(sigma_r=0.1, p_max=3, delta_s_min_ratio=1e-6)
    result, events = trace(diamond_graph, params, "A")

    expected_lines = (FIXTURES / "diamond_trace.tsv").read_text().splitlines()[1:]
    ok = len(events) == len(expected_lines)
    worst = 0.0
    for event, line in zip(events, expected_lines):
        seq, priority, head, relation, tail, delta, total = line.split("\t")
        ok &= (event.seq, event.priority, event.head) == (int(seq), int(priority), head)
        if relation:
            ok &= (event.relation, event.tail) == (relation, tail)
            worst = max(
                worst,
                abs(event.delta - float(delta)),
                abs(event.total - float(total)),
            )
        else:
            ok &= event.relation is None
    elapsed = time.perf_counter() - start
    report(
        6,
        ok and worst <= 1e-12,
        elapsed,
        1.0,
        f"diamond trace matches committed oracle, worst delta error {worst:.2e}",
    )


def test_criterion_7_end_to_end_synthetic_recovery():
    start = time.perf_counter()
    plants = 20
    variable_hits = 0
    physical_hits = 0
    params = RfpaParams(sigma_r=0.1, p_max=3, delta_s_min_ratio=1e-4)
    for seed in range(plants):
        spec = PlantSpec(
            n_devices=3 + seed % 4,
            streams_per_device=(1, 2),
            variables_per_device=(2, 4),
            noise_scale=0.3,
            seed=500 + seed,
        )
        graph, model = generate_plant(spec)
        rng = np.random.default_rng(600 + seed)
        root = model.columns[int(rng.integers(len(model.columns)))]
        owner = model.owner_device(root)

        normal = simulate(model, 1500, seed=700 + seed)
        injection = FaultInjection(root=root, kind="step", magnitude=10, start=0, duration=100)
        faulty = simulate(model, 100, injection=injection, seed=800 + seed)

        pca = fit_pca(normal, 0.5)
        rate = contribution_rate(pca, faulty)
        ranking = rank_all(graph, params, rate)

        if ranking.variables()[0].id == root:
            variable_hits += 1
        owner_streams = {
            t for r, t in out_edges(graph, owner) if graph.entity(t).kind is EntityKind.STREAM
        } | {
            t.head
            for t in graph.triples
            if t.tail == owner and graph.entity(t.head).kind is EntityKind.STREAM
        }
        acceptable = owner_streams | {owner}
        top3 = {e.id for e in ranking.physical()[:3]}
        if top3 & acceptable:
            physical_hits += 1
    elapsed = time.perf_counter() - start
    need = int(np.ceil(0.9 * plants))
    report(
        7,
        variable_hits >= need and physical_hits >= need,
        elapsed,
        120.0,
        f"root variable first in {variable_hits}/{plants}, "
        f"owning device/stream in physical top-3 in {physical_hits}/{plants}",
    )


TEP_DIR = os.environ.get("ROOTKGD_TEP_DIR", "")
TEP_CASES = {
    "d01.csv": {"variables": {"x4", "x45"}, "physical": "s4"},
    "d04.csv": {"variables": {"x51"}, "physical": "s12"},
    "d06.csv": {"variables": {"x44"}, "physical": "s1"},
    "d12.csv": {"variables": {"x11"}, "physical": "s14"},
}


def _tep_data_present() -> bool:
    if not TEP_DIR:
        return False
    base = Path(TEP_DIR)
    return all((base / name).exists() for name in ["d00.csv", *TEP_CASES])


@pytest.mark.skipif(
    not _tep_data_present(),
    reason="set ROOTKGD_TEP_DIR to a directory with d00/d01/d04/d06/d12 CSVs",
)
def test_criterion_8_tep_benchmark_rank_order(tmp_path):
    from importlib.resources import files

    start = time.perf_counter()
    graph_path = str(files("rootkgd") / "fixtures" / "tep.kg.json")
    model_path = str(tmp_path / "model.json")
    # Fitted without the graph, so x35 (no graph entity) stays in the model.
    run_fit(
        DiagnosisConfig(
            model_path=model_path, normal_data_path=str(Path(TEP_DIR) / "d00.csv"), r_pc=0.5
        )
    )
    ok = True
    details = []
    for name, expect in TEP_CASES.items():
        config = DiagnosisConfig(
            graph_path=graph_path,
            model_path=model_path,
            fault_data_path=str(Path(TEP_DIR) / name),
            sigma_r=0.1,
            p_max=3,
            delta_s_min_ratio=1e-4,
            fault_start=160,
            window=100,
        )
        ranking = run_diagnose(config)
        top_var = ranking.variables()[0].id
        top_phys = ranking.physical()[0].id
        case_ok = top_var in expect["variables"] and top_phys == expect["physical"]
        ok &= case_ok
        details.append(f"{name}: var={top_var} phys={top_phys} {'ok' if case_ok else 'MISS'}")
    elapsed = time.perf_counter() - start
    report(8, ok, elapsed, 600.0, "; ".join(details))
