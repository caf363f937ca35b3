"""PCA monitoring model and reconstruction-based fault contributions.

A model is fit once on normal-operation data (z-scored by its own training
mean/std), after which all evaluation functions are pure and take a window
of samples: ``rbc_spe`` gives each sample's per-variable reconstruction-based
contributions to the squared prediction error (SPE), and
``contribution_rate`` averages them into the windowed contribution rate of a
fault episode, the one fault feature the diagnosis uses.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

#: Residual diagonal entries at or below this are treated as "no residual
#: information": the variable's contribution is defined as 0.
RESIDUAL_DIAG_FLOOR = 1e-12


def check_unique(columns: Sequence[str]) -> None:
    """Raise ``ValueError`` naming the first repeated column name."""
    seen: set[str] = set()
    for name in columns:
        if name in seen:
            raise ValueError(f"duplicate column name {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class DataMatrix:
    """Samples-by-variables matrix with named, uniquely-labeled columns."""

    values: np.ndarray
    columns: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", tuple(self.columns))
        if values.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"matrix must be non-empty, got shape {values.shape}")
        if values.shape[1] != len(self.columns):
            raise ValueError(
                f"{values.shape[1]} data columns but {len(self.columns)} column names"
            )
        check_unique(self.columns)
        if not np.isfinite(values).all():
            raise ValueError("matrix contains non-finite entries")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    def select(self, columns: Sequence[str]) -> "DataMatrix":
        """Column subset in the requested order."""
        index = {c: i for i, c in enumerate(self.columns)}
        missing = [c for c in columns if c not in index]
        if missing:
            raise ValueError(f"columns not present in data: {missing}")
        idx = [index[c] for c in columns]
        return DataMatrix(self.values[:, idx], tuple(columns))


@dataclass(frozen=True)
class PcaModel:
    """Fitted PCA decomposition: the principal subspace and every eigenvalue.

    The model is what the fit produces and nothing more: the training
    mean/std, the orthonormal principal loadings ``P`` (n x n_pc) and the
    eigenvalues on either side of ``n_pc``. The SPE and its contributions
    are computed from ``P``. Repeated column names, inconsistent shapes,
    non-positive std or principal eigenvalues, non-finite entries, a
    non-integer ``n_pc`` and an ``r_pc`` that is not a finite number in
    (0, 1] raise ``ValueError``.
    """

    columns: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    loadings_principal: np.ndarray
    eig_principal: np.ndarray
    eig_residual: np.ndarray
    n_pc: int
    r_pc: float

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        for name in ("mean", "std", "eig_principal", "eig_residual"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        # A contiguous copy, so contributions computed after a save/load
        # round trip are bit-identical to the ones computed at fit time.
        P = np.array(self.loadings_principal, dtype=float, order="C")
        object.__setattr__(self, "loadings_principal", P)

        check_unique(self.columns)
        n, k = len(self.columns), self.n_pc
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValueError(f"n_pc must be an integer, got {k!r}")
        r = self.r_pc
        if (isinstance(r, bool) or not isinstance(r, (int, float))
                or not math.isfinite(r) or not 0 < r <= 1):
            raise ValueError(f"r_pc must be a finite number in (0, 1], got {r!r}")
        object.__setattr__(self, "r_pc", float(r))
        if not 1 <= k <= n:
            raise ValueError(f"n_pc must be in [1, {n}], got {k}")
        shapes = {
            "mean": (n,),
            "std": (n,),
            "loadings_principal": (n, k),
            "eig_principal": (k,),
            "eig_residual": (n - k,),
        }
        for name, shape in shapes.items():
            values = getattr(self, name)
            if values.shape != shape:
                raise ValueError(f"{name} has shape {values.shape}, expected {shape}")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} contains non-finite entries")
        if (self.std <= 0).any():
            raise ValueError("std must be positive")
        if (self.eig_principal <= 0).any():
            raise ValueError("eig_principal must be positive")

    @property
    def n_variables(self) -> int:
        return len(self.columns)

    @property
    def retained_variance(self) -> float:
        """Share of the training variance held by the principal components."""
        principal = float(self.eig_principal.sum())
        return principal / float(principal + self.eig_residual.sum())

    def standardize_matrix(self, data: DataMatrix) -> np.ndarray:
        if data.columns != self.columns:
            raise ValueError("data columns do not match the model's training columns")
        return np.asfortranarray((data.values - self.mean) / self.std)


@dataclass(frozen=True)
class ContributionVector:
    """Nonnegative per-variable fault contributions aligned to a roster."""

    scores: np.ndarray
    roster: tuple[str, ...]

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "roster", tuple(self.roster))
        if scores.shape != (len(self.roster),):
            raise ValueError("scores and roster lengths differ")
        if not np.isfinite(scores).all():
            raise ValueError("contribution scores contain non-finite entries")
        if (scores < 0).any():
            raise ValueError("contribution scores must be nonnegative")

    @cached_property
    def positions(self) -> dict[str, int]:
        return {r: i for i, r in enumerate(self.roster)}

    def normalized(self) -> "ContributionVector":
        total = self.scores.sum()
        if total <= 0:
            raise ValueError("cannot normalize an all-zero contribution vector")
        return ContributionVector(self.scores / total, self.roster)

    def relabel(self, mapping: dict[str, str]) -> "ContributionVector":
        """Rename roster entries (e.g. CSV column -> entity id); order kept."""
        return ContributionVector(self.scores, tuple(mapping.get(r, r) for r in self.roster))

    def restrict(self, names: Sequence[str]) -> "ContributionVector":
        """Project onto a sub-roster and renormalize to sum 1."""
        missing = [n for n in names if n not in self.positions]
        if missing:
            raise ValueError(f"names not present in roster: {missing}")
        sub = self.scores[[self.positions[n] for n in names]]
        return ContributionVector(sub, tuple(names)).normalized()


def fit_pca(normal_data: DataMatrix, r_pc: float) -> PcaModel:
    """Fit a PCA model on normal data, retaining principal components until
    the cumulative eigenvalue sum reaches ``r_pc`` of the total variance.

    The data is z-scored by its own mean and (sample) standard deviation;
    constant columns are rejected. Loading signs are fixed so the
    largest-magnitude entry of each column is positive, making repeated fits
    byte-identical.
    """
    if not 0 < r_pc <= 1:
        raise ValueError(f"r_pc must be in (0, 1], got {r_pc}")
    X = normal_data.values
    m, n = X.shape
    if m < 2:
        raise ValueError(f"need at least 2 samples to fit, got {m}")
    if n < 2:
        raise ValueError(f"need at least 2 variables to fit, got {n}")

    mean = X.mean(axis=0)
    std = X.std(axis=0, ddof=1)
    constant = np.flatnonzero(std <= 0)
    if constant.size:
        names = [normal_data.columns[i] for i in constant]
        raise ValueError(f"constant columns cannot be standardized: {names}")

    Z = (X - mean) / std
    cov = Z.T @ Z / (m - 1)
    evals, evecs = np.linalg.eigh(cov)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    for j in range(n):
        col = evecs[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            evecs[:, j] = -col

    total = evals.sum()
    cumulative = np.cumsum(evals)
    k = int(np.searchsorted(cumulative, r_pc * total, side="left")) + 1
    k = min(k, n)
    if evals[k - 1] <= RESIDUAL_DIAG_FLOOR * max(evals[0], 1.0):
        raise ValueError(
            f"principal eigenvalue {k} is numerically zero; lower r_pc or drop "
            "collinear columns"
        )

    return PcaModel(
        columns=normal_data.columns,
        mean=mean,
        std=std,
        loadings_principal=evecs[:, :k],
        eig_principal=evals[:k].copy(),
        eig_residual=evals[k:].copy(),
        n_pc=k,
        r_pc=float(r_pc),
    )


def rbc_spe(model: PcaModel, data: DataMatrix) -> np.ndarray:
    """Raw reconstruction contributions to the SPE, one row per sample and
    columns in ``model.columns`` order.

    The score of variable i is the SPE's drop when the sample is optimally
    corrected along coordinate axis i. Variables whose reconstruction
    denominator is near zero score 0, with a warning. Data whose columns
    differ from the model's raise ``ValueError``.
    """
    # The residuals Z (I - P Pᵀ) and diag(I - P Pᵀ), in O(n * n_pc) per
    # sample, with no n x n matrix formed.
    Z = model.standardize_matrix(data)
    P = model.loadings_principal
    mapped, diag = Z - (Z @ P) @ P.T, 1.0 - (P * P).sum(axis=1)
    usable = diag > RESIDUAL_DIAG_FLOOR
    if not usable.all():
        flagged = [model.columns[i] for i in np.flatnonzero(~usable)]
        logger.warning(
            "variables with near-zero reconstruction denominator scored as 0: %s", flagged
        )
    # Fortran-ordered, as Z always is: the row sums' rounding depends on the layout.
    raw = np.zeros_like(Z)
    raw[:, usable] = mapped[:, usable] ** 2 / diag[usable]
    return raw


def contribution_rate(model: PcaModel, fault_window: DataMatrix) -> ContributionVector:
    """Average contribution over a fault window, normalized to sum 1.

    Each sample's raw contributions are normalized before averaging, so no
    single large-error sample dominates. Rows whose contributions are
    identically zero are skipped.
    """
    raw = rbc_spe(model, fault_window)
    row_sums = raw.sum(axis=1)
    live = row_sums > 0
    if not live.any():
        raise ValueError("every sample in the window has zero contribution")

    mean = (raw[live] / row_sums[live, None]).mean(axis=0)
    return ContributionVector(mean / mean.sum(), model.columns)


def save_model(model: PcaModel, path: str | Path) -> None:
    """Persist a model as JSON (row-major loadings with explicit dimensions)."""
    n = model.n_variables
    payload = {
        "columns": list(model.columns),
        "mean": model.mean.tolist(),
        "std": model.std.tolist(),
        "eig_principal": model.eig_principal.tolist(),
        "eig_residual": model.eig_residual.tolist(),
        "loadings_principal": {
            "rows": n,
            "cols": model.n_pc,
            "data": model.loadings_principal.reshape(-1).tolist(),
        },
        "n_pc": model.n_pc,
        "r_pc": model.r_pc,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> PcaModel:
    """Load a model saved by save_model.

    Files written by earlier versions, which also stored the residual
    loadings, load the same way: those are never read. Any missing,
    malformed or inconsistent entry raises ``ValueError`` naming the file.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid model file: {exc}") from exc
    try:
        lp = payload["loadings_principal"]
        P = np.asarray(lp["data"], dtype=float).reshape(lp["rows"], lp["cols"])
        return PcaModel(
            columns=payload["columns"],
            mean=payload["mean"],
            std=payload["std"],
            loadings_principal=P,
            eig_principal=payload["eig_principal"],
            eig_residual=payload["eig_residual"],
            n_pc=payload["n_pc"],
            r_pc=payload["r_pc"],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from exc
