from __future__ import annotations

import json
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, random_model
from oracles import (
    dense_contribution_rate,
    dense_contributions,
    dense_projectors,
    golden_section_min,
    jacobi_eigh,
    residual_projector,
)
from rootkgd.features import (
    ContributionVector,
    DataMatrix,
    PcaModel,
    contribution_rate,
    fit_pca,
    load_model,
    rbc_spe,
    save_model,
)


def make_model(P: np.ndarray, eig_p: np.ndarray, eig_r: np.ndarray) -> PcaModel:
    """Assemble a model from explicit principal loadings (mean 0, std 1)."""
    n = P.shape[0]
    return PcaModel(
        columns=tuple(f"v{i + 1}" for i in range(n)),
        mean=np.zeros(n),
        std=np.ones(n),
        loadings_principal=P,
        eig_principal=eig_p,
        eig_residual=eig_r,
        n_pc=P.shape[1],
        r_pc=0.5,
    )


#: Edits that make a saved 6-variable, 2-component model inconsistent, and
#: the error each must name.
CORRUPTIONS = {
    "zero_eigenvalue": (
        lambda m: m["eig_principal"].__setitem__(0, 0.0), "eig_principal must be positive"
    ),
    "negative_eigenvalue": (
        lambda m: m["eig_principal"].__setitem__(0, -1.0), "eig_principal must be positive"
    ),
    "n_pc_off_by_5": (lambda m: m.update(n_pc=m["n_pc"] + 5), r"n_pc must be in \[1, 6\]"),
    "zero_std": (lambda m: m["std"].__setitem__(0, 0.0), "std must be positive"),
    "nan_mean": (lambda m: m["mean"].__setitem__(0, float("nan")), "mean contains non-finite"),
    "short_mean": (lambda m: m["mean"].pop(), r"mean has shape \(5,\)"),
    "extra_residual_eigenvalue": (
        lambda m: m["eig_residual"].append(0.1), r"eig_residual has shape \(5,\)"
    ),
    "infinite_loading": (
        lambda m: m["loadings_principal"]["data"].__setitem__(0, float("inf")),
        "loadings_principal contains non-finite",
    ),
    "r_pc_nan": (
        lambda m: m.update(r_pc=float("nan")), r"r_pc must be a finite number in \(0, 1\]"
    ),
    "r_pc_above_one": (lambda m: m.update(r_pc=7.0), r"r_pc .* got 7\.0"),
    "r_pc_string": (lambda m: m.update(r_pc="0.5"), r"r_pc .* got '0\.5'"),
    "r_pc_huge_int": (
        lambda m: m.update(r_pc=10**400), r"r_pc must be a finite number in \(0, 1\], got 10+\)$"
    ),
    "n_pc_fraction": (lambda m: m.update(n_pc=2.5), "n_pc must be an integer, got 2.5"),
    "repeated_column": (
        lambda m: m["columns"].__setitem__(3, "v1"), r"\(duplicate column name 'v1'\)$"
    ),
}


def axis_model() -> PcaModel:
    """2-variable model whose principal subspace is exactly the first axis."""
    return make_model(np.array([[1.0], [0.0]]), np.array([2.0]), np.array([1.0]))


def rbc_row(model: PcaModel, row: np.ndarray) -> np.ndarray:
    """The RBC scores of one sample."""
    return rbc_spe(model, DataMatrix(row[None, :], model.columns))[0]


def rbc_spe_oracle(model: PcaModel, sample: np.ndarray):
    """Defining property: score_i = SPE(x) - min_f SPE(x - f * axis_i).

    The minimum is found by golden-section search, independent of the
    closed-form the implementation uses.
    """
    C_res = dense_projectors(model).proj_res
    z = (np.asarray(sample, dtype=float) - model.mean) / model.std
    base = float(z @ C_res @ z)
    scores = []
    for i in range(len(z)):
        c_ii = float(C_res[i, i])
        if c_ii <= 1e-12:
            scores.append(0.0)
            continue

        def residual_energy(f, i=i):
            w = z.copy()
            w[i] -= f
            return float(w @ C_res @ w)

        bound = 2.0 * float(np.linalg.norm(z)) / c_ii + 1.0
        _, minimum = golden_section_min(residual_energy, -bound, bound)
        scores.append(base - minimum)
    return np.array(scores), base


class TestFitPca:
    def test_two_independent_variables_half_variance(self):
        rng = np.random.default_rng(0)
        data = DataMatrix(rng.normal(size=(5000, 2)), ("a", "b"))
        model = fit_pca(data, 0.5)
        assert model.n_pc == 1
        dense = dense_projectors(model)
        identity = dense.proj_pc + dense.proj_res
        assert np.abs(identity - np.eye(2)).max() <= 1e-8

    def test_loadings_match_jacobi_oracle(self):
        for seed in (7, 8, 9, 10):
            rng = np.random.default_rng(seed)
            data = rng.normal(size=(300, 5)) @ rng.normal(size=(5, 5)) + rng.uniform(-3, 3, 5)
            model = fit_pca(DataMatrix(data, tuple("abcde")), 0.8)

            standardized = (data - data.mean(axis=0)) / data.std(axis=0, ddof=1)
            cov = standardized.T @ standardized / (len(data) - 1)
            evals, evecs = jacobi_eigh(cov)

            all_eigs = np.concatenate([model.eig_principal, model.eig_residual])
            assert np.abs(all_eigs - evals).max() <= 1e-7
            for j in range(model.n_pc):
                column = model.loadings_principal[:, j]
                diff_same = np.abs(column - evecs[:, j]).max()
                diff_flip = np.abs(column + evecs[:, j]).max()
                assert min(diff_same, diff_flip) <= 1e-7
            oracle = residual_projector(cov, model.n_pc)
            assert np.abs(dense_projectors(model).proj_res - oracle).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_projection_identities(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n=int(rng.integers(3, 12)))
        n = model.n_variables
        C, C_res = dense_projectors(model)
        assert np.abs(C + C_res - np.eye(n)).max() <= 1e-8
        assert np.abs(C @ C - C).max() <= 1e-8
        assert np.abs(C_res @ C_res - C_res).max() <= 1e-8
        P = model.loadings_principal
        assert np.abs(P.T @ P - np.eye(model.n_pc)).max() <= 1e-8
        assert (np.diff(model.eig_principal) <= 1e-12).all()
        assert model.eig_residual.min() >= -1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, n=6)
        for col in model.loadings_principal.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_constant_column_rejected(self):
        values = np.column_stack([np.ones(50), np.random.default_rng(1).normal(size=50)])
        with pytest.raises(ValueError, match="constant columns.*'const'"):
            fit_pca(DataMatrix(values, ("const", "ok")), 0.5)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            fit_pca(DataMatrix(np.ones((1, 3)), ("a", "b", "c")), 0.5)

    def test_non_finite_rejected(self):
        values = np.ones((4, 2))
        values[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DataMatrix(values, ("a", "b"))

    def test_bad_r_pc(self):
        data = DataMatrix(np.random.default_rng(0).normal(size=(10, 3)), ("a", "b", "c"))
        for r_pc in (0.0, -0.2, 1.5, "x", None):
            with pytest.raises(ValueError, match="r_pc"):
                fit_pca(data, r_pc)

    def test_full_variance_keeps_all_components(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, n=4, r_pc=1.0)
        assert model.n_pc == 4
        assert model.eig_residual.shape == (0,)
        assert np.abs(dense_projectors(model).proj_res).max() <= 1e-12

    def test_fit_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(9)
        data = DataMatrix(rng.normal(size=(100, 4)), ("a", "b", "c", "d"))
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(fit_pca(data, 0.6), p1)
        save_model(fit_pca(data, 0.6), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestStatistics:
    def test_principal_subspace_has_zero_spe(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, n=6, r_pc=0.7)
        coeffs = rng.normal(size=model.n_pc)
        z = model.loadings_principal @ coeffs
        raw = model.mean + model.std * z
        assert (rbc_row(model, raw) <= 1e-9).all()

    def test_length_mismatch(self):
        rng = np.random.default_rng(16)
        model = random_model(rng, n=4)
        window = DataMatrix(np.zeros((3, 5)), tuple("abcde"))
        with pytest.raises(ValueError, match="do not match the model's training columns"):
            rbc_spe(model, window)


class TestRbc:
    def test_zero_sample_zero_scores(self):
        rng = np.random.default_rng(20)
        model = random_model(rng, n=5)
        scores = rbc_row(model, model.mean.copy())
        assert (scores == 0).all()

    def test_defining_property_against_golden_section(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            model = random_model(rng, n=int(rng.integers(4, 10)))
            raw = model.mean + model.std * rng.normal(size=model.n_variables) * 4
            scores = rbc_row(model, raw)
            oracle, base = rbc_spe_oracle(model, raw)
            diag = np.diag(dense_projectors(model).proj_res)
            for i in np.flatnonzero(diag >= 1e-6):
                tol = 1e-8 * max(scores[i], oracle[i], base)
                assert abs(scores[i] - oracle[i]) <= tol

    def test_bias_fault_identified(self):
        rng = np.random.default_rng(23)
        trials = 60
        hits = 0
        for _ in range(trials):
            n = int(rng.integers(4, 12))
            model = random_model(rng, n=n)
            eligible = np.flatnonzero(np.diag(dense_projectors(model).proj_res) >= 0.05)
            # With a one-dimensional residual space proj_res = r rᵀ, so every
            # variable scores exactly (r·z)² and argmax is decided by rounding.
            if eligible.size == 0 or n - model.n_pc == 1:
                hits += 1  # nothing to test; don't count against the rate
                continue
            j = int(rng.choice(eligible))
            raw = model.mean + model.std * rng.normal(size=n)
            raw[j] += 10.0 * model.std[j]
            if int(np.argmax(rbc_row(model, raw))) == j:
                hits += 1
        assert hits >= int(np.ceil(0.95 * trials))

    def test_near_singular_residual_scores_zero(self, caplog):
        rng = np.random.default_rng(24)
        v1 = rng.normal(size=300)
        v2 = rng.normal(size=300)
        data = DataMatrix(np.column_stack([v1, v2, v1]), ("a", "b", "c"))
        model = fit_pca(data, 0.9)
        assert dense_projectors(model).proj_res[1, 1] <= 1e-12
        with caplog.at_level(logging.WARNING, logger="rootkgd.features"):
            scores = rbc_row(model, np.array([1.0, 2.0, 3.0]))
        assert scores[1] == 0.0
        assert any("near-zero" in rec.message for rec in caplog.records)

    def test_window_rate_is_mean_of_one_row_scores(self, caplog):
        # The rate is the mean of each sample's normalized scores, and a
        # near-zero denominator is flagged.
        rng = np.random.default_rng(25)
        v1 = rng.normal(size=300)
        v2 = rng.normal(size=300)
        model = fit_pca(DataMatrix(np.column_stack([v1, v2, v1]), ("a", "b", "c")), 0.9)
        rows = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
        with caplog.at_level(logging.WARNING, logger="rootkgd.features"):
            rate = contribution_rate(model, DataMatrix(rows, model.columns))
        assert any("near-zero" in rec.message for rec in caplog.records)
        one_row = [rbc_row(model, row) for row in rows]
        mean = np.mean([scores / scores.sum() for scores in one_row], axis=0)
        assert rate.scores[1] == 0.0
        np.testing.assert_allclose(rate.scores, mean / mean.sum(), rtol=1e-12)


def random_subspace_model(rng: np.random.Generator, n: int, n_res: int) -> PcaModel:
    """Model with random orthonormal loadings and ``n_res`` residual dimensions."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.sort(rng.uniform(0.05, 5.0, size=n))[::-1]
    return make_model(Q[:, : n - n_res], eigs[: n - n_res], eigs[n - n_res :])


class TestDenseReference:
    """The SPE contributions and the contribution rate, computed through the
    principal loadings, agree with the same quantities through the dense
    n x n residual projector of the model."""

    @pytest.mark.parametrize("n_res", [0, 1, 2, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_matrices(self, seed, n_res):
        rng = np.random.default_rng(seed)
        model = random_subspace_model(rng, n=int(rng.integers(n_res + 2, 14)), n_res=n_res)
        dense = dense_projectors(model)
        rows = model.mean + model.std * rng.normal(size=(25, model.n_variables)) * 3
        worst = 0.0
        for row in rows:
            z = (row - model.mean) / model.std
            # Every contribution to the SPE lies in [0, z·z].
            bound = z @ z
            reference = dense_contributions(model, z[None, :])[0]
            worst = max(worst, np.abs(rbc_row(model, row) - reference).max() / bound)
        reference = dense_contribution_rate(model, rows)
        window = DataMatrix(rows, model.columns)
        if reference is None:
            with pytest.raises(ValueError, match="zero contribution"):
                contribution_rate(model, window)
        else:
            rate = contribution_rate(model, window)
            worst = max(worst, np.abs(rate.scores - reference).max())
        assert worst <= 1e-12


class TestContributionRate:
    def test_one_row_one_hot(self):
        model = axis_model()
        window = DataMatrix(np.array([[0.0, 3.0]]), model.columns)
        rate = contribution_rate(model, window)
        assert np.allclose(rate.scores, [0.0, 1.0], atol=0)

    def test_proportional_rows_equal_single_row(self):
        model = axis_model()
        window = DataMatrix(np.array([[0.0, 3.0], [0.0, 6.0]]), model.columns)
        rate = contribution_rate(model, window)
        single = contribution_rate(model, DataMatrix(np.array([[0.0, 3.0]]), model.columns))
        assert np.allclose(rate.scores, single.scores, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(30)
        model = random_model(rng, n=6)
        window = DataMatrix(
            model.mean + model.std * rng.normal(size=(40, 6)) * 2, model.columns
        )
        rate = contribution_rate(model, window)
        assert abs(rate.scores.sum() - 1.0) <= 1e-9
        assert (rate.scores >= 0).all()

    def test_normalization_orders_differ_on_mixed_scales(self):
        P = np.array([[1.0], [0.0], [0.0]])
        model = make_model(P, np.array([2.0]), np.array([1.0, 0.5]))
        window = DataMatrix(np.array([[0.0, 1.0, 1.0], [0.0, 10.0, 0.0]]), model.columns)
        per_sample = contribution_rate(model, window)
        # Each row counts once, so the large second row does not dominate, as
        # it would if the raw contributions were averaged before normalizing.
        assert np.allclose(per_sample.scores, [0.0, 0.75, 0.25])
        raw_mean = rbc_spe(model, window).mean(axis=0)
        assert not np.allclose(per_sample.scores, raw_mean / raw_mean.sum())

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        base = rng.normal(size=(400, 5)) @ rng.normal(size=(5, 5))
        window_values = base[:30] + 3.0
        columns = tuple("abcde")
        perm = [3, 0, 4, 2, 1]

        model = fit_pca(DataMatrix(base, columns), 0.7)
        rate = contribution_rate(model, DataMatrix(window_values, columns))

        pcols = tuple(columns[i] for i in perm)
        pmodel = fit_pca(DataMatrix(base[:, perm], pcols), 0.7)
        prate = contribution_rate(pmodel, DataMatrix(window_values[:, perm], pcols))
        assert prate.roster == pcols
        assert np.abs(prate.scores - rate.scores[perm]).max() <= 1e-9

    def test_rate_does_not_depend_on_window_layout(self):
        # The pipeline's window is a row slice of a Fortran-ordered matrix; the
        # same numbers in C order give the same rates, bit for bit.
        rng = np.random.default_rng(33)
        model = random_model(rng, n=40)
        values = model.mean + model.std * rng.normal(size=(200, 40)) * 3
        fortran = np.asfortranarray(values)[50:150]
        c_order = np.ascontiguousarray(fortran)
        assert not fortran.flags.c_contiguous and c_order.flags.c_contiguous
        rates = [contribution_rate(model, DataMatrix(v, model.columns)) for v in (fortran, c_order)]
        assert rates[0].scores.tobytes() == rates[1].scores.tobytes()

    def test_all_zero_window_raises(self):
        model = axis_model()
        window = DataMatrix(np.zeros((3, 2)), model.columns)
        with pytest.raises(ValueError, match="zero contribution"):
            contribution_rate(model, window)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scale=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_decomposition_identity(self, seed, scale):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n=int(rng.integers(3, 9)), m=120)
        z = rng.normal(size=model.n_variables) * scale
        C, C_res = dense_projectors(model)
        recombined = C @ z + C_res @ z
        assert np.abs(recombined - z).max() <= 1e-10 * max(1.0, np.abs(z).max())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_rate_normalization_property(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n=int(rng.integers(3, 8)), m=150)
        # A model that retained every component has no residual space and
        # (correctly) rejects rate computation; not the property under test.
        assume(model.n_pc < model.n_variables)
        rows = int(rng.integers(1, 30))
        window = DataMatrix(
            model.mean + model.std * rng.normal(size=(rows, model.n_variables)) * 3,
            model.columns,
        )
        rate = contribution_rate(model, window)
        assert abs(rate.scores.sum() - 1.0) <= 1e-9


class TestModelPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(40)
        model = random_model(rng, n=6)
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert again.columns == model.columns
        sample = model.mean + model.std * rng.normal(size=6)
        assert np.array_equal(rbc_row(again, sample), rbc_row(model, sample))

    @pytest.mark.parametrize("case", list(CORRUPTIONS))
    def test_inconsistent_model_rejected(self, tmp_path, case):
        edit, message = CORRUPTIONS[case]
        path = tmp_path / "model.json"
        save_model(random_model(np.random.default_rng(42), n=6), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message) as excinfo:
            load_model(path)
        assert str(excinfo.value).startswith(f"{path}: malformed model file")

    def test_file_with_residual_loadings_loads(self, tmp_path):
        # Written by an earlier version, which also stored the residual
        # loadings. That block is ignored: the model loaded from it equals
        # the same model saved today, bit for bit.
        old_path = FIXTURES / "model_residual_loadings.json"
        old = load_model(old_path)
        new_path = tmp_path / "model.json"
        save_model(old, new_path)
        assert "loadings_residual" not in json.loads(new_path.read_text())
        new = load_model(new_path)
        for name in ("loadings_principal", "eig_principal", "eig_residual", "mean", "std"):
            assert np.array_equal(getattr(old, name), getattr(new, name))
        block = json.loads(old_path.read_text())["loadings_residual"]
        P_res = np.array(block["data"]).reshape(block["rows"], block["cols"])
        assert np.abs(dense_projectors(old).proj_res - P_res @ P_res.T).max() <= 1e-12

    def test_malformed_model_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="malformed"):
            load_model(path)
        path.write_text("not json")
        with pytest.raises(ValueError, match="invalid"):
            load_model(path)


class TestContributionVector:
    def test_relabel_and_restrict(self):
        cv = ContributionVector(np.array([2.0, 1.0, 1.0]), ("c1", "c2", "c3"))
        relabeled = cv.relabel({"c1": "x1", "c2": "x2"})
        assert relabeled.roster == ("x1", "x2", "c3")
        restricted = relabeled.restrict(["x2", "x1"])
        assert restricted.roster == ("x2", "x1")
        assert np.allclose(restricted.scores, [1.0 / 3.0, 2.0 / 3.0])
        assert abs(restricted.scores.sum() - 1.0) <= 1e-9

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ContributionVector(np.array([-0.1, 1.0]), ("a", "b"))

    def test_json_serializable_round_trip(self):
        cv = ContributionVector(np.array([0.25, 0.75]), ("a", "b"))
        payload = json.loads(json.dumps({"scores": cv.scores.tolist(), "roster": cv.roster}))
        again = ContributionVector(np.array(payload["scores"]), tuple(payload["roster"]))
        assert np.array_equal(again.scores, cv.scores)
