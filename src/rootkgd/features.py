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
import zipfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

#: Residual diagonal entries at or below this are treated as "no residual
#: information": the variable's contribution is defined as 0.
RESIDUAL_DIAG_FLOOR = 1e-12

#: Rows of the window ``rbc_spe`` standardizes again per step of its residual loop.
ROW_BLOCK = 16


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
        # NaN carries through min and max, and an infinity is one of them: an
        # exact test that, unlike isfinite(values), allocates nothing.
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ValueError("matrix contains non-finite entries")

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

    @cached_property
    def norm(self) -> float:
        """The Euclidean norm of ``scores``, by the expression ``cosine`` uses."""
        return math.sqrt(float(self.scores @ self.scores))

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
    byte-identical. ``normal_data`` is not written.
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

    # One buffer the fit owns, in X's layout (the products' rounding depends on it).
    Z = np.subtract(X, mean, out=np.empty_like(X))
    Z /= std
    cov = Z.T @ Z
    del Z  # the eigensolver's work arrays need the room
    cov /= m - 1
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
    differ from the model's raise ``ValueError``; ``data`` is not written.
    The result, C-ordered, is the one window-sized array held at a time.
    """
    if data.columns != model.columns:
        raise ValueError("data columns do not match the model's training columns")
    P = model.loadings_principal
    diag = 1.0 - (P * P).sum(axis=1)
    usable = diag > RESIDUAL_DIAG_FLOOR
    if not usable.all():
        logger.warning("variables with near-zero reconstruction denominator scored as 0: %s",
                       [model.columns[i] for i in np.flatnonzero(~usable)])
    # The standardized window Z is Fortran-ordered (ZP's rounding depends on the layout)
    # and is gone before the product (ZP)Pᵀ, whose C-ordered array then holds the
    # residuals Z (I - P Pᵀ) and the contributions in place: each block of rows of Z is
    # formed again, which is elementwise and so gives the same bits.
    Z = np.subtract(data.values, model.mean, out=np.empty(data.values.shape, order="F"))
    Z /= model.std
    ZP = Z @ P
    del Z
    R = ZP @ P.T  # no n x n matrix formed
    del ZP
    block = np.empty((min(ROW_BLOCK, len(R)), R.shape[1]))
    for start in range(0, len(R), ROW_BLOCK):
        rows = R[start:start + ROW_BLOCK]
        z = np.subtract(data.values[start:start + ROW_BLOCK], model.mean, out=block[:len(rows)])
        z /= model.std
        np.subtract(z, rows, out=rows)
    R[:, ~usable], diag[~usable] = 0.0, 1.0  # zeroed before squaring: no overflow
    R **= 2
    R /= diag
    return R


def contribution_rate(model: PcaModel, fault_window: DataMatrix) -> ContributionVector:
    """Average contribution over a fault window, normalized to sum 1.

    Each sample's raw contributions are normalized before averaging, so no single
    large-error sample dominates. Rows whose contributions are identically zero are
    skipped; the first row that overflows is a ``ValueError``. The window is not written,
    and besides it only ``rbc_spe``'s array is window-sized.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        raw = rbc_spe(model, fault_window)
    # Each row is summed in column order (pairwise if it is the only one), and each live
    # row, divided by its sum, is added into one total in row order: the orders of a
    # Fortran-ordered array's row sums and of the mean of a C-ordered array's rows, so
    # the bits are theirs and no copy of the rows is made.
    total, live, single = np.zeros(raw.shape[1]), 0, len(raw) == 1
    for i, row in enumerate(raw):
        row_sum = row.sum() if single else np.add.accumulate(row)[-1]
        # Contributions are never negative: a finite row sum means a finite row.
        if not np.isfinite(row_sum):
            raise ValueError(f"contributions of window row {i} are not finite")
        if row_sum > 0:
            total += row / row_sum
            live += 1
    if not live:
        raise ValueError("every sample in the window has zero contribution")
    mean = total / live
    return ContributionVector(mean / mean.sum(), model.columns)


#: A model file's members, one ``.npy`` array per ``PcaModel`` field in field
#: order, each with its array type and number of dimensions.
_MEMBERS = {"columns": (np.str_, 1), "mean": (np.float64, 1), "std": (np.float64, 1),
            "loadings_principal": (np.float64, 2), "r_pc": (np.float64, 0),
            "retained_variance": (np.float64, 0)}


def save_model(model: PcaModel, path: str | Path) -> None:
    """Write a model to ``path`` (no suffix added) as an uncompressed zip of one
    ``.npy`` member per field, in field order with a fixed date: the same model
    gives the same bytes. A column name ending in NUL, which ``.npy`` drops, is
    a ``ValueError``."""
    columns = np.array(model.columns)
    if columns.tolist() != list(model.columns):
        raise ValueError(f"{path}: column names ending in NUL cannot be saved")
    with zipfile.ZipFile(path, "w") as archive:
        for name in _MEMBERS:
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w") as fh:
                value = columns if name == "columns" else np.asarray(getattr(model, name))
                np.lib.format.write_array(fh, value, allow_pickle=False)


def load_model(path: str | Path) -> PcaModel:
    """Load a model written by ``save_model``, whatever the file's name. A file
    that is not such a zip, holds other members, a member of another type or
    number of dimensions, an array that only unpickling reads, or values
    ``PcaModel`` refuses raises ``ValueError`` naming the file; a JSON model,
    which earlier versions wrote, gets the advice to re-run ``rootkgd fit``."""
    names = [f"{name}.npy" for name in _MEMBERS]
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as archive:
                found = archive.namelist()
                same = sorted(found) == sorted(names)
                arrays = [_read_member(archive, name) for name in names] if same else []
        except Exception as exc:  # zipfile and numpy raise many types on corrupt bytes
            fh.seek(0)
            try:
                json.loads(fh.read())
            except (ValueError, RecursionError):  # JSON and UTF-8 errors are ValueErrors
                raise ValueError(f"{path}: invalid model file: {exc}") from exc
            raise ValueError(f"{path}: malformed model file (a JSON model was written by an "
                             "earlier version and must be refitted: re-run `rootkgd fit`)")
    try:
        if not arrays:
            raise ValueError(f"members must be {', '.join(names)}, got {', '.join(found)}")
        for (name, (kind, ndim)), value in zip(_MEMBERS.items(), arrays):
            if value.dtype.type is not kind or value.ndim != ndim:
                raise ValueError(f"{name} must be a {ndim}-D {kind.__name__} array, "
                                 f"got a {value.ndim}-D {value.dtype} array")
        columns, mean, std, loadings, r_pc, share = arrays
        return PcaModel(tuple(columns.tolist()), mean, std, loadings, r_pc.item(), share.item())
    except ValueError as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from exc


def _read_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """A member's array; bytes after it are refused, so its checksum is read."""
    with archive.open(name) as fh:
        value = np.lib.format.read_array(fh, allow_pickle=False)
        if fh.read(1):
            raise ValueError(f"{name} holds bytes after its array")
    return value
