from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import out_edges
from rootkgd.kgraph import EntityKind, graph_from_dict, serialize
from rootkgd.synth import FaultInjection, PlantSpec, generate_plant, simulate


@pytest.fixture(scope="module")
def plant():
    return generate_plant(PlantSpec(n_devices=3, seed=7))


class TestGeneratePlant:
    def test_seeded_determinism(self):
        spec = PlantSpec(n_devices=3, seed=7)
        g1, m1 = generate_plant(spec)
        g2, m2 = generate_plant(spec)
        assert g1 == g2
        assert m1.columns == m2.columns
        assert np.array_equal(m1.loadings, m2.loadings)
        assert np.array_equal(m1.chain_coeff, m2.chain_coeff)

    def test_different_seeds_differ(self):
        _, m1 = generate_plant(PlantSpec(n_devices=3, seed=1))
        _, m2 = generate_plant(PlantSpec(n_devices=3, seed=2))
        assert not np.array_equal(m1.loadings, m2.loadings)

    def test_generated_graph_validates(self, plant):
        graph, _ = plant
        assert graph.warnings == ()

    @pytest.mark.parametrize(
        "shape",
        [{}, {"streams_per_device": (1, 2), "variables_per_device": (2, 4)}],
        ids=["default", "ranged"],
    )
    def test_graph_survives_json_round_trip(self, shape):
        graph, _ = generate_plant(PlantSpec(n_devices=6, seed=3, **shape))
        assert graph_from_dict(json.loads(json.dumps(serialize(graph)))) == graph

    def test_three_device_chain_topology(self, plant):
        graph, model = plant
        devices = [e.id for e in graph.entities_of_kind(EntityKind.DEVICE)]
        streams = [e.id for e in graph.entities_of_kind(EntityKind.STREAM)]
        assert devices == ["dev1", "dev2", "dev3"]
        assert streams == ["str1", "str2"]
        # chain: dev_i -> str_i -> dev_{i+1}
        for i, sid in enumerate(streams):
            assert (sid, "Output") in {
                (t, r.name) for r, t in out_edges(graph, devices[i])
            }
            tails = {t for r, t in out_edges(graph, sid)}
            assert tails == {devices[i + 1]}
        # two variables per device, wired both ways
        for did in devices:
            vars_of = model.var_of_device[did]
            assert len(vars_of) == 2
            for vid in vars_of:
                assert (vid, "State") in {(t, r.name) for r, t in out_edges(graph, did)}
                assert (did, "State of") in {(t, r.name) for r, t in out_edges(graph, vid)}

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="n_devices"):
            PlantSpec(n_devices=0)
        with pytest.raises(ValueError, match="bounds"):
            PlantSpec(n_devices=2, variables_per_device=(3, 1))
        with pytest.raises(ValueError, match="noise_scale"):
            PlantSpec(n_devices=2, noise_scale=0.0)


class TestSimulate:
    def test_identical_seeds_identical_matrices(self, plant):
        _, model = plant
        a = simulate(model, 200, seed=5)
        b = simulate(model, 200, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_column_means_match_model(self, plant):
        _, model = plant
        m = 20_000
        data = simulate(model, m, seed=3)
        sigma = model.variable_std()
        mean_err = np.abs(data.values.mean(axis=0) - model.baseline)
        assert (mean_err <= 5.0 * sigma / np.sqrt(m)).all()

    def test_column_stds_match_model(self, plant):
        _, model = plant
        data = simulate(model, 20_000, seed=4)
        ratio = data.values.std(axis=0, ddof=1) / model.variable_std()
        assert np.abs(ratio - 1.0).max() <= 0.05

    def test_step_injection_shifts_mean(self, plant):
        _, model = plant
        root = model.columns[2]
        j = model.columns.index(root)
        injection = FaultInjection(root=root, kind="step", magnitude=10, start=100, duration=200)
        data = simulate(model, 400, injection=injection, seed=6)
        clean = simulate(model, 400, seed=6)
        sigma = model.variable_std()[j]
        shift = data.values[100:300, j].mean() - clean.values[100:300, j].mean()
        assert abs(shift - 10 * sigma) <= 1e-9  # same seed, exact additive step
        outside = data.values[:100] - clean.values[:100]
        assert np.abs(outside).max() == 0.0

    def test_device_injection_is_common_mode_and_propagates(self):
        graph, model = generate_plant(PlantSpec(n_devices=3, seed=9))
        injection = FaultInjection(root="dev2", kind="step", magnitude=8, start=50, duration=150)
        data = simulate(model, 300, injection=injection, seed=8)
        clean = simulate(model, 300, seed=8)
        delta = (data.values[50:200] - clean.values[50:200]).mean(axis=0)
        sigma = model.variable_std()
        shifted = np.abs(delta) / sigma
        for vid in model.var_of_device["dev2"]:
            assert shifted[model.columns.index(vid)] > 3.0
        for vid in model.var_of_device["dev3"]:  # downstream of dev2
            assert shifted[model.columns.index(vid)] > 1.0
        for vid in model.var_of_device["dev1"]:  # upstream, untouched
            assert shifted[model.columns.index(vid)] == 0.0

    def test_drift_ramps_up(self, plant):
        _, model = plant
        root = model.columns[0]
        j = model.columns.index(root)
        injection = FaultInjection(root=root, kind="drift", magnitude=10, start=0, duration=300)
        data = simulate(model, 300, injection=injection, seed=10)
        clean = simulate(model, 300, seed=10)
        ramp = data.values[:, j] - clean.values[:, j]
        assert ramp[0] == 0.0
        assert abs(ramp[-1] - 10 * model.variable_std()[j]) <= 1e-9
        assert (np.diff(ramp) >= 0).all()

    def test_random_variation_inflates_variance(self, plant):
        _, model = plant
        root = model.columns[1]
        j = model.columns.index(root)
        injection = FaultInjection(
            root=root, kind="random_variation", magnitude=10, start=0, duration=2000
        )
        data = simulate(model, 2000, injection=injection, seed=11)
        clean = simulate(model, 2000, seed=11)
        assert data.values[:, j].std() > 5 * clean.values[:, j].std()

    def test_injection_window_out_of_range(self, plant):
        _, model = plant
        injection = FaultInjection(root=model.columns[0], start=150, duration=100)
        with pytest.raises(ValueError, match="exceeds"):
            simulate(model, 200, injection=injection)

    def test_unknown_root_rejected(self, plant):
        _, model = plant
        injection = FaultInjection(root="nope", start=0, duration=10)
        with pytest.raises(ValueError, match="not a variable or device"):
            simulate(model, 100, injection=injection)

    def test_injection_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultInjection(root="x1", kind="spike")
        with pytest.raises(ValueError, match="magnitude"):
            FaultInjection(root="x1", magnitude=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
                FaultInjection(root="x1", magnitude=bad)

    def test_data_always_finite(self, plant):
        _, model = plant
        injection = FaultInjection(root=model.columns[0], magnitude=50, start=0, duration=500)
        data = simulate(model, 500, injection=injection, seed=12)
        assert np.isfinite(data.values).all()
