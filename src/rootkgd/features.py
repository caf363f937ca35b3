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
import sys
from dataclasses import dataclass, fields
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


def check_share(name: str, value: object) -> float:
    """``value``, an int or float (not a bool) in (0, 1], as a float; else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= 1:
        raise ValueError(f"{name} must be a finite number in (0, 1], got {value!r}")
    return float(value)


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
    """Fitted PCA model: the training mean/std, the orthonormal principal
    loadings ``P`` (n x n_pc, so ``n_pc`` is its column count) from which the
    SPE contributions are computed, the ``r_pc`` it was fitted with and the
    share of the training variance ``P`` retains. Repeated column names,
    inconsistent shapes, non-positive std, non-finite entries and an ``r_pc``
    or ``retained_variance`` that is not a number in (0, 1] raise ``ValueError``.
    """

    columns: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    loadings_principal: np.ndarray
    r_pc: float
    retained_variance: float

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        # Contiguous copies, so contributions computed after a save/load
        # round trip are bit-identical to the ones computed at fit time.
        for name in ("mean", "std", "loadings_principal"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float, order="C"))

        check_unique(self.columns)
        for name in ("r_pc", "retained_variance"):
            object.__setattr__(self, name, check_share(name, getattr(self, name)))
        n, P = len(self.columns), self.loadings_principal
        if P.ndim != 2 or not 1 <= P.shape[1] <= n:
            raise ValueError(f"loadings_principal has shape {P.shape}, expected ({n}, 1..{n})")
        for name, shape in (("mean", (n,)), ("std", (n,)), ("loadings_principal", (n, self.n_pc))):
            values = getattr(self, name)
            if values.shape != shape:
                raise ValueError(f"{name} has shape {values.shape}, expected {shape}")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} contains non-finite entries")
        if (self.std <= 0).any():
            raise ValueError("std must be positive")

    @property
    def n_variables(self) -> int:
        return len(self.columns)

    @property
    def n_pc(self) -> int:
        return self.loadings_principal.shape[1]

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
    r_pc = check_share("r_pc", r_pc)
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

    principal = float(evals[:k].copy().sum())  # contiguous copies: summed as ever
    share = principal / float(principal + evals[k:].copy().sum())
    return PcaModel(
        columns=normal_data.columns,
        mean=mean,
        std=std,
        loadings_principal=evecs[:, :k],
        r_pc=r_pc,
        retained_variance=min(share, 1.0),  # residual eigenvalues can round below 0
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
    identically zero are skipped; the first row that overflows is a ``ValueError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        raw = rbc_spe(model, fault_window)
        row_sums = raw.sum(axis=1)
    # Contributions are never negative: a finite row sum means a finite row.
    overflow = np.flatnonzero(~np.isfinite(row_sums))
    if overflow.size:
        raise ValueError(f"contributions of window row {overflow[0]} are not finite")
    live = row_sums > 0
    if not live.any():
        raise ValueError("every sample in the window has zero contribution")

    mean = (raw[live] / row_sums[live, None]).mean(axis=0)
    return ContributionVector(mean / mean.sum(), model.columns)


def save_model(model: PcaModel, path: str | Path) -> None:
    """Persist a model as JSON: one key per field, the loadings as a list of rows."""
    payload = {field.name: getattr(model, field.name) for field in fields(model)}
    text = json.dumps(payload, sort_keys=True, default=np.ndarray.tolist)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _array(values: object, field: str, types: set, what: str) -> list:
    """``values``, a JSON array of ``types``; else ``ValueError`` naming its first bad entry."""
    if type(values) is not list:
        raise ValueError(f"{field} must be an array, got {type(values).__name__}")
    if not set(map(type, values)) <= types:
        i = next(i for i, value in enumerate(values) if type(value) not in types)
        raise ValueError(f"{field}[{i}] must be {what}, got {type(values[i]).__name__}")
    return values


def _numbers(values: object, field: str) -> np.ndarray:
    """``values``, a JSON array of numbers (never ``bool``), as a float array."""
    values = _array(values, field, {int, float}, "a number")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        i = next(i for i, value in enumerate(values) if abs(value) > sys.float_info.max)
        raise ValueError(f"{field}[{i}] is an integer beyond the float range") from None


def load_model(path: str | Path) -> PcaModel:
    """Load a model saved by ``save_model``: its keys are the ``PcaModel``
    fields, so a file of an earlier version is refused with the advice to
    re-run ``rootkgd fit``. Any other missing, mistyped or inconsistent entry
    raises ``ValueError`` naming the file; a wrong JSON type also names the
    field and its first bad entry."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise ValueError(f"{path}: invalid model file: {exc}") from exc
    try:
        keys = [field.name for field in fields(PcaModel)]
        if type(payload) is not dict or set(payload) != set(keys):
            raise ValueError(f"keys must be {', '.join(keys)}; a model written by an earlier "
                             "version must be refitted: re-run `rootkgd fit`")
        rows = _array(payload["loadings_principal"], "loadings_principal", {list}, "an array")
        P = [_numbers(row, f"loadings_principal[{i}]") for i, row in enumerate(rows)]
        for i, row in enumerate(P):
            if len(row) != len(P[0]):
                raise ValueError(f"loadings_principal[{i}] has length {len(row)}, not {len(P[0])}")
        payload.update(
            columns=_array(payload["columns"], "columns", {str}, "a string"),
            mean=_numbers(payload["mean"], "mean"),
            std=_numbers(payload["std"], "std"),
            loadings_principal=P,
        )
        return PcaModel(**payload)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from exc
