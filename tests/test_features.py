from __future__ import annotations

import itertools
import json
import logging
import re
import tracemalloc
import zipfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_data, random_model, read_members, write_members
from oracles import (
    copying_contribution_rate,
    copying_fit_loadings,
    copying_rbc_spe,
    dense_contribution_rate,
    dense_contributions,
    dense_projectors,
    golden_section_min,
    jacobi_eigh,
    residual_projector,
)
from rootkgd.features import (
    RESIDUAL_DIAG_FLOOR,
    ROW_BLOCK,
    ContributionVector,
    DataMatrix,
    PcaModel,
    contribution_rate,
    fit_pca,
    load_model,
    rbc_spe,
    save_model,
)


#: The keys of a model file, in ``PcaModel`` field order.
KEYS = ("columns", "mean", "std", "loadings_principal", "r_pc", "retained_variance")


def make_model(P: np.ndarray) -> PcaModel:
    """Assemble a model from explicit principal loadings (mean 0, std 1)."""
    n = P.shape[0]
    return PcaModel(
        columns=tuple(f"v{i + 1}" for i in range(n)),
        mean=np.zeros(n),
        std=np.ones(n),
        loadings_principal=P,
        r_pc=0.5,
        retained_variance=0.5,
    )


#: Edits of the members of a saved 6-variable, 2-component model that make
#: it inconsistent, mistyped or unreadable, and the error each must name
#: after the file name.
CORRUPTIONS = {
    "zero_std": (lambda m: m["std"].__setitem__(0, 0.0), r"\(std must be positive\)$"),
    "nan_mean": (lambda m: m["mean"].__setitem__(0, np.nan), r"\(mean contains non-finite"),
    "short_mean": (lambda m: m.update(mean=m["mean"][:5]), r"\(mean has shape \(5,\)"),
    "infinite_loading": (
        lambda m: m["loadings_principal"].__setitem__((0, 0), np.inf),
        r"\(loadings_principal contains non-finite",
    ),
    # A ragged matrix, or one with a row that is no array, is an object array.
    "ragged_row": (
        lambda m: m.update(loadings_principal=np.array(
            [list(row) for row in m["loadings_principal"][:3]] + [[0.5]]
            + [list(row) for row in m["loadings_principal"][4:]], dtype=object)),
        r": invalid model file: Object arrays cannot be loaded when allow_pickle=False$",
    ),
    "loading_row_not_array": (
        lambda m: m.update(loadings_principal=np.array(
            [list(row) for row in m["loadings_principal"][:2]] + [0.5]
            + [list(row) for row in m["loadings_principal"][3:]], dtype=object)),
        r": invalid model file: Object arrays cannot be loaded when allow_pickle=False$",
    ),
    "loadings_1d": (
        lambda m: m.update(loadings_principal=m["loadings_principal"].ravel()),
        r"\(loadings_principal must be a 2-D float64 array, got a 1-D float64 array\)$",
    ),
    "zero_columns": (
        lambda m: m.update(loadings_principal=np.zeros((6, 0))),
        r"loadings_principal has shape \(6, 0\), expected \(6, 1\.\.6\)",
    ),
    "too_many_columns": (
        lambda m: m.update(loadings_principal=np.full((6, 7), 0.1)),
        r"loadings_principal has shape \(6, 7\), expected \(6, 1\.\.6\)",
    ),
    "r_pc_nan": (
        lambda m: m.update(r_pc=np.array(np.nan)), r"r_pc must be a finite number in \(0, 1\]"
    ),
    "r_pc_above_one": (lambda m: m.update(r_pc=np.array(7.0)), r"r_pc .* got 7\.0\)$"),
    "r_pc_string": (
        lambda m: m.update(r_pc=np.array("0.5")),
        r"\(r_pc must be a 0-D float64 array, got a 0-D <U3 array\)$",
    ),
    "r_pc_1d": (
        lambda m: m.update(r_pc=m["r_pc"].reshape(1)),
        r"\(r_pc must be a 0-D float64 array, got a 1-D float64 array\)$",
    ),
    "r_pc_huge_int": (
        lambda m: m.update(r_pc=np.array(10**400, dtype=object)),
        r": invalid model file: Object arrays cannot be loaded when allow_pickle=False$",
    ),
    "retained_variance_zero": (
        lambda m: m.update(retained_variance=np.array(0.0)),
        r"retained_variance must .* \(0, 1\], got 0\.0\)$",
    ),
    "retained_variance_above_one": (
        lambda m: m.update(retained_variance=np.array(1.5)), r"retained_variance .* got 1\.5\)$"
    ),
    "retained_variance_nan": (
        lambda m: m.update(retained_variance=np.array(np.nan)),
        r"retained_variance .* got nan\)$",
    ),
    "retained_variance_string": (
        lambda m: m.update(retained_variance=np.array("0.5")),
        r"\(retained_variance must be a 0-D float64 array, got a 0-D <U3 array\)$",
    ),
    # A stored n_pc is a member of no model file: an extra member is refused.
    "n_pc_fraction": (
        lambda m: m.update(n_pc=np.array(2.5)),
        r"\(members must be columns\.npy, .*, retained_variance\.npy, got columns\.npy, "
        r".*, n_pc\.npy\)$",
    ),
    "missing_member": (
        lambda m: m.pop("retained_variance"),
        r"\(members must be .*, got columns\.npy, mean\.npy, std\.npy, "
        r"loadings_principal\.npy, r_pc\.npy\)$",
    ),
    "repeated_column": (
        lambda m: m["columns"].__setitem__(3, "v1"), r"\(duplicate column name 'v1'\)$"
    ),
    "numeric_column": (
        lambda m: m.update(columns=np.arange(6)),
        r"\(columns must be a 1-D str_ array, got a 1-D int64 array\)$",
    ),
    "object_columns": (
        lambda m: m.update(columns=m["columns"].astype(object)),
        r": invalid model file: Object arrays cannot be loaded when allow_pickle=False$",
    ),
    "string_mean": (
        lambda m: m.update(mean=m["mean"].astype(str)),
        r"\(mean must be a 1-D float64 array, got a 1-D <U\d+ array\)$",
    ),
    "int_mean": (
        lambda m: m.update(mean=m["mean"].astype(np.int64)),
        r"\(mean must be a 1-D float64 array, got a 1-D int64 array\)$",
    ),
    "bool_std": (
        lambda m: m.update(std=m["std"].astype(bool)),
        r"\(std must be a 1-D float64 array, got a 1-D bool array\)$",
    ),
    "string_loading": (
        lambda m: m.update(loadings_principal=m["loadings_principal"].astype(str)),
        r"\(loadings_principal must be a 2-D float64 array, got a 2-D <U\d+ array\)$",
    ),
    "huge_int_mean": (
        lambda m: m.update(mean=np.array([10**400] * 6, dtype=object)),
        r": invalid model file: Object arrays cannot be loaded when allow_pickle=False$",
    ),
    "huge_int_loading": (
        lambda m: m.update(loadings_principal=m["loadings_principal"].astype(object)),
        r": invalid model file: Object arrays cannot be loaded when allow_pickle=False$",
    ),
}

#: Damage to the bytes of a saved model file, and the error each must name
#: after the file name.
DAMAGE = {
    "truncated": (
        lambda raw: raw[: len(raw) // 2], ": invalid model file: File is not a zip file"
    ),
    "empty": (lambda raw: b"", ": invalid model file: File is not a zip file"),
    "bad_crc": (
        lambda raw: raw.replace(b"'descr': '<f8'", b"'descr': '>f8'", 1),
        r": invalid model file: Bad CRC-32 for file 'mean\.npy'",
    ),
    "not_a_zip": (lambda raw: b"not json", ": invalid model file: File is not a zip file"),
}


def axis_model() -> PcaModel:
    """2-variable model whose principal subspace is exactly the first axis."""
    return make_model(np.array([[1.0], [0.0]]))


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


def assert_share_matches_oracle(model: PcaModel, values: np.ndarray) -> None:
    """``n_pc`` is the least count of components whose Jacobi-oracle
    eigenvalue share reaches ``r_pc``, and ``retained_variance`` is that share."""
    z = (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)
    evals, _ = jacobi_eigh(z.T @ z / (len(z) - 1))
    share = np.cumsum(evals) / evals.sum()
    assert model.n_pc == np.flatnonzero(share >= model.r_pc)[0] + 1
    assert abs(model.retained_variance - share[model.n_pc - 1]) <= 1e-12


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

            assert_share_matches_oracle(model, data)
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
        data = random_data(rng, n=int(rng.integers(3, 12)))
        model = fit_pca(data, float(rng.uniform(0.3, 0.9)))
        n = model.n_variables
        C, C_res = dense_projectors(model)
        assert np.abs(C + C_res - np.eye(n)).max() <= 1e-8
        assert np.abs(C @ C - C).max() <= 1e-8
        assert np.abs(C_res @ C_res - C_res).max() <= 1e-8
        P = model.loadings_principal
        assert np.abs(P.T @ P - np.eye(model.n_pc)).max() <= 1e-8
        assert_share_matches_oracle(model, data.values)

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
        # The check reads only the matrix's min and max: NaN carries through
        # both, and an infinity is one of them, wherever the cell sits, in
        # either memory order, and among cells of either sign.
        for bad, i, j, sign in itertools.product(
            (np.nan, np.inf, -np.inf), range(4), range(3), (1.0, -1.0)
        ):
            values = sign * np.arange(1.0, 13.0).reshape(4, 3)
            values[i, j] = bad
            for order in (values, np.asfortranarray(values)):
                with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
                    DataMatrix(order, ("a", "b", "c"))
        DataMatrix(np.full((1, 1), np.finfo(float).max), ("a",))
        DataMatrix(np.full((1, 1), -np.finfo(float).max), ("a",))

    def test_bad_r_pc(self):
        data = DataMatrix(np.random.default_rng(0).normal(size=(10, 3)), ("a", "b", "c"))
        for r_pc in (0.0, -0.2, 1.5, "x", None):
            with pytest.raises(ValueError, match="r_pc"):
                fit_pca(data, r_pc)

    def test_full_variance_keeps_all_components(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, n=4, r_pc=1.0)
        assert model.n_pc == 4
        assert model.retained_variance == 1.0
        assert np.abs(dense_projectors(model).proj_res).max() <= 1e-12

    def test_rank_deficient_share_is_at_most_one(self, tmp_path):
        # Two columns repeat mixtures of the first three, so two eigenvalues
        # are zero up to rounding. On these seeds their sum comes out
        # negative, which put the share at 1.0000000000000002 (or ...04).
        shares = []
        for seed in (4, 8, 9, 24, 212):
            rng = np.random.default_rng(seed)
            base = rng.normal(size=(50, 3))
            values = np.column_stack([base, base @ rng.normal(size=(3, 2))])
            model = fit_pca(DataMatrix(values, tuple("abcde")), 1.0)
            save_model(model, tmp_path / "model.npz")
            shares.append(load_model(tmp_path / "model.npz").retained_variance)
        assert shares == [1.0] * 5

    def test_fit_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(9)
        data = DataMatrix(rng.normal(size=(100, 4)), ("a", "b", "c", "d"))
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(fit_pca(data, 0.6), p1)
        save_model(fit_pca(data, 0.6), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_one_buffer_fit_matches_copying_form(self, layout):
        # The in-place standardization gives the copying form's loadings bit
        # for bit, in either layout, and leaves the caller's data unchanged.
        rng = np.random.default_rng(31)
        values = rng.normal(size=(400, 12)) @ rng.normal(size=(12, 12)) + rng.uniform(-5, 5, 12)
        data = DataMatrix(np.asarray(values, order=layout), tuple(f"c{i}" for i in range(12)))
        before = data.values.copy()
        model = fit_pca(data, 0.7)
        reference = copying_fit_loadings(data.values)[:, : model.n_pc]
        assert model.loadings_principal.tobytes() == np.ascontiguousarray(reference).tobytes()
        assert data.values.tobytes() == before.tobytes()

    def test_fit_peak_memory(self):
        # The fit holds one standardized copy of the data at a time; the
        # copying form held two (``X - mean`` and its division).
        rng = np.random.default_rng(32)
        data = DataMatrix(rng.normal(size=(4000, 40)), tuple(f"c{i}" for i in range(40)))
        fit_pca(data, 0.5)  # first-call allocations are not counted
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit_pca(data, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * data.values.nbytes


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
    return make_model(Q[:, : n - n_res])


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


def floored_model(rng: np.random.Generator, n: int, n_pc: int) -> PcaModel:
    """Model with random mean, std and orthonormal loadings whose span holds a
    random coordinate axis but for a 1e-13 share, so that column's residual
    diagonal is at or below the floor while its residuals are not zero."""
    j = int(rng.integers(n))
    basis = rng.normal(size=(n, n_pc))
    basis[j] = 0.0
    Q = np.linalg.qr(basis)[0]
    tilt = np.arcsin(np.sqrt(1e-13))
    P = np.column_stack([np.cos(tilt) * np.eye(n)[j] + np.sin(tilt) * Q[:, 0], Q[:, 1:]])
    return PcaModel(tuple(f"v{i + 1}" for i in range(n)), rng.normal(size=n),
                    rng.uniform(0.5, 2.0, size=n), P, 0.5, 0.5)


class TestInPlaceContributions:
    """``rbc_spe`` and ``contribution_rate`` give, bit for bit, what the
    out-of-place reference gives, and ``rbc_spe`` returns a C-ordered array."""

    @staticmethod
    def assert_matches(model: PcaModel, window: DataMatrix) -> None:
        raw = rbc_spe(model, window)
        assert raw.flags.c_contiguous
        assert raw.tobytes() == copying_rbc_spe(model, window).tobytes()
        try:
            reference = copying_contribution_rate(model, window)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                contribution_rate(model, window)
        else:
            assert contribution_rate(model, window).scores.tobytes() == reference.tobytes()

    @staticmethod
    def window(rng: np.random.Generator, model: PcaModel, rows: int) -> np.ndarray:
        return model.mean + model.std * rng.normal(size=(rows, model.n_variables)) * 3

    @pytest.mark.parametrize("seed", range(6))
    def test_layouts_and_sizes(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = random_model(rng, n=int(rng.integers(3, 40)))
        values = self.window(rng, model, int(rng.integers(2, 60)))
        for rows in (values, np.asfortranarray(values), values[::2], values[:1]):
            self.assert_matches(model, DataMatrix(rows, model.columns))

    @pytest.mark.parametrize("seed", range(4))
    def test_floored_column_warns_once(self, seed, caplog):
        rng = np.random.default_rng(200 + seed)
        model = floored_model(rng, n=int(rng.integers(3, 30)), n_pc=2)
        diag = 1.0 - (model.loadings_principal**2).sum(axis=1)
        floored = np.flatnonzero(diag <= RESIDUAL_DIAG_FLOOR)
        assert floored.size == 1
        window = DataMatrix(self.window(rng, model, 20), model.columns)
        Z, P = (window.values - model.mean) / model.std, model.loadings_principal
        assert ((Z - Z @ P @ P.T)[:, floored] != 0.0).all()  # zeroed, not zero
        with caplog.at_level(logging.WARNING, logger="rootkgd.features"):
            raw = rbc_spe(model, window)
        assert len(caplog.records) == 1
        assert model.columns[floored[0]] in caplog.records[0].getMessage()
        assert (raw[:, floored] == 0.0).all()
        self.assert_matches(model, window)

    @pytest.mark.parametrize("seed", range(4))
    def test_mean_row_is_not_live(self, seed):
        rng = np.random.default_rng(300 + seed)
        model = random_model(rng, n=int(rng.integers(3, 30)))
        values = self.window(rng, model, 10)
        values[int(rng.integers(10))] = model.mean
        window = DataMatrix(values, model.columns)
        assert (rbc_spe(model, window).sum(axis=1) == 0.0).sum() == 1
        self.assert_matches(model, window)
        self.assert_matches(model, DataMatrix(model.mean[None, :], model.columns))

    @pytest.mark.parametrize("seed", range(4))
    def test_columns_reordered_through_select(self, seed):
        rng = np.random.default_rng(400 + seed)
        model = random_model(rng, n=int(rng.integers(3, 30)))
        perm = rng.permutation(model.n_variables)
        values = self.window(rng, model, 25)[:, perm]
        shuffled = DataMatrix(values, tuple(model.columns[i] for i in perm))
        self.assert_matches(model, shuffled.select(model.columns))

    @pytest.mark.parametrize("rows", [ROW_BLOCK * 5 // 2, ROW_BLOCK * 10, ROW_BLOCK + 1])
    def test_windows_of_many_row_blocks(self, rows, caplog):
        # The residuals are formed ROW_BLOCK rows at a time and each row is
        # summed and added alone: a window of several blocks, a last block of
        # one row, a dead row and a floored column keep the copying form's bits.
        rng = np.random.default_rng(700 + rows)
        model = floored_model(rng, n=int(rng.integers(60, 120)), n_pc=4)
        values = self.window(rng, model, rows)
        values[rows - ROW_BLOCK // 2] = model.mean
        window = DataMatrix(values, model.columns)
        with caplog.at_level(logging.ERROR, logger="rootkgd.features"):
            assert (rbc_spe(model, window).sum(axis=1) == 0.0).sum() == 1
            self.assert_matches(model, window)

    def test_overflowing_row_is_the_same_error(self):
        rng = np.random.default_rng(500)
        model = random_model(rng, n=8)
        values = self.window(rng, model, 5)
        values[3, 2] = 1e308
        # Squaring overflows in rbc_spe as in the reference; contribution_rate
        # ignores it and names the row.
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_matches(model, DataMatrix(values, model.columns))
        with pytest.raises(ValueError, match="^contributions of window row 3 are not finite$"):
            contribution_rate(model, DataMatrix(values, model.columns))

    def test_peak_memory_and_window_unchanged(self):
        # Besides the window, contributions hold one window-sized array at a
        # time (the standardized window, then the product that becomes the
        # residuals and the contributions) and ZP; the copying form held five.
        rng = np.random.default_rng(600)
        model = random_subspace_model(rng, n=200, n_res=150)
        window = DataMatrix(self.window(rng, model, 400), model.columns)
        before = window.values.copy()
        contribution_rate(model, window)  # first-call allocations are not counted
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            contribution_rate(model, window)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * window.values.nbytes
        assert window.values.tobytes() == before.tobytes()


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
        model = make_model(P)
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
        path = tmp_path / "model.json"  # the file is a zip whatever its name
        save_model(model, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert [info.filename for info in infos] == [f"{key}.npy" for key in KEYS]
        assert {(info.date_time, info.compress_type) for info in infos} == {
            ((1980, 1, 1, 0, 0, 0), zipfile.ZIP_STORED)
        }
        members = read_members(path)
        assert members["columns"].dtype == np.dtype("<U2")
        assert [members[key].shape for key in KEYS[1:]] == [(6,), (6,), (6, model.n_pc), (), ()]
        again = load_model(path)
        assert again.columns == model.columns
        assert all(type(name) is str for name in again.columns)
        for name in ("mean", "std", "loadings_principal"):
            assert getattr(again, name).tobytes() == getattr(model, name).tobytes()
        assert (again.r_pc, again.retained_variance) == (model.r_pc, model.retained_variance)
        sample = model.mean + model.std * rng.normal(size=6)
        assert np.array_equal(rbc_row(again, sample), rbc_row(model, sample))

    @pytest.mark.parametrize("case", list(CORRUPTIONS))
    def test_inconsistent_model_rejected(self, tmp_path, case):
        edit, message = CORRUPTIONS[case]
        path = tmp_path / "model.npz"
        save_model(random_model(np.random.default_rng(42), n=6), path)
        members = read_members(path)
        edit(members)
        write_members(path, members)
        with pytest.raises(ValueError, match=message) as excinfo:
            load_model(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("case", list(DAMAGE))
    def test_damaged_file_is_named_error(self, tmp_path, case):
        damage, message = DAMAGE[case]
        path = tmp_path / "model.npz"
        save_model(random_model(np.random.default_rng(43), n=6), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=message) as excinfo:
            load_model(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_column_name_ending_in_nul_is_refused_on_save(self, tmp_path):
        # A .npy string array drops trailing NULs, so "v1\0" would load as "v1".
        model = random_model(np.random.default_rng(44), n=3)
        for columns in (("v1\0", "v2", "v3"), ("v1", "v2", "\0")):
            path = tmp_path / "model.npz"
            with pytest.raises(ValueError, match="column names ending in NUL cannot be saved"):
                save_model(replace(model, columns=columns), path)
            assert not path.exists()
        inner = replace(model, columns=("v\x001", "v2", "v3"))  # an inner NUL is kept
        save_model(inner, tmp_path / "inner.npz")
        assert load_model(tmp_path / "inner.npz").columns == inner.columns

    def test_earlier_version_file_is_named_error(self, tmp_path):
        # Earlier versions wrote JSON: the fields as keys, some with the
        # eigenvalues, n_pc and the loadings as {rows, cols, data}. Such a
        # file must be refitted, and the error says so.
        model = random_model(np.random.default_rng(41), n=5)
        last = {
            "columns": list(model.columns), "mean": model.mean.tolist(),
            "std": model.std.tolist(), "loadings_principal": model.loadings_principal.tolist(),
            "r_pc": model.r_pc, "retained_variance": model.retained_variance,
        }
        earlier = {
            **last,
            "eig_principal": [2.0] * model.n_pc,
            "loadings_principal": {
                "rows": 5, "cols": model.n_pc, "data": model.loadings_principal.ravel().tolist()
            },
            "n_pc": model.n_pc,
        }
        path = tmp_path / "model.json"
        for payload in (last, earlier, {}):
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError) as excinfo:
                load_model(path)
            assert str(excinfo.value) == (
                f"{path}: malformed model file (a JSON model was written by an earlier "
                "version and must be refitted: re-run `rootkgd fit`)"
            )

    def test_malformed_model_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="malformed"):
            load_model(path)
        for text in ("not json", '{"a": 1'):
            path.write_text(text)
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
