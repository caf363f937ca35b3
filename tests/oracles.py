"""Independent numerical oracles used by the tests.

These deliberately avoid the code paths they check: the eigensolver is a
hand-rolled cyclic Jacobi iteration (not numpy.linalg), and the reconstruction
minimizer is a plain golden-section search. The ``copying_*`` functions keep
the out-of-place form of the fit's standardization and of the contribution
path, one new array per step, as the bit-exact reference for their in-place
forms. ``read_rows`` is the strict csv reader, record by record, that
``read_csv`` must match on quote-free files.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from rootkgd.features import RESIDUAL_DIAG_FLOOR, DataMatrix, check_unique


def jacobi_eigh(matrix: np.ndarray, sweeps: int = 100, tol: float = 1e-14):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue,
    eigenvectors in columns.
    """
    A = np.array(matrix, dtype=float, copy=True)
    n = A.shape[0]
    V = np.eye(n)
    scale = np.abs(A).max() or 1.0
    for _ in range(sweeps):
        off = np.max(np.abs(A - np.diag(np.diag(A))))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + math.hypot(tau, 1.0))
                else:
                    t = -1.0 / (-tau + math.hypot(tau, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
                V = V @ rot
    evals = np.diag(A).copy()
    order = np.argsort(-evals)
    return evals[order], V[:, order]


def residual_projector(matrix: np.ndarray, n_pc: int) -> np.ndarray:
    """E_res E_resᵀ over the Jacobi eigenvectors after the first ``n_pc``."""
    _, evecs = jacobi_eigh(matrix)
    residual = evecs[:, n_pc:]
    return residual @ residual.T


class DenseProjectors(NamedTuple):
    proj_pc: np.ndarray
    proj_res: np.ndarray


def dense_projectors(model) -> DenseProjectors:
    """The n x n projectors of a PCA model, formed densely from its loadings
    P: P Pᵀ and I - P Pᵀ."""
    P = model.loadings_principal
    proj_pc = P @ P.T
    return DenseProjectors(proj_pc=proj_pc, proj_res=np.eye(len(P)) - proj_pc)


def dense_contributions(model, Z: np.ndarray) -> np.ndarray:
    """SPE reconstruction contributions of each standardized row of ``Z``
    through the dense residual projector C: (Z C)ᵢ² / Cᵢᵢ, and 0 where Cᵢᵢ is
    at or below the residual floor."""
    matrix = dense_projectors(model).proj_res
    diag = np.diag(matrix)
    usable = diag > RESIDUAL_DIAG_FLOOR
    raw = np.zeros_like(Z)
    raw[:, usable] = (Z @ matrix)[:, usable] ** 2 / diag[usable]
    return raw


def dense_contribution_rate(model, rows: np.ndarray):
    """Windowed contribution rate over raw sample ``rows`` from the dense
    contributions, each row normalized before averaging; None when every row
    contributes zero."""
    raw = dense_contributions(model, (rows - model.mean) / model.std)
    row_sums = raw.sum(axis=1)
    live = row_sums > 0
    if not live.any():
        return None
    mean = (raw[live] / row_sums[live, None]).mean(axis=0)
    return mean / mean.sum()


def copying_fit_loadings(values: np.ndarray) -> np.ndarray:
    """The sign-fixed eigenvectors, by descending eigenvalue, of the covariance
    of ``values`` z-scored by their own mean and sample std, each step into a
    new array: ``fit_pca``'s principal loadings are their first columns."""
    Z = (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)
    _, evecs = np.linalg.eigh(Z.T @ Z / (len(values) - 1))
    evecs = evecs[:, ::-1]
    flip = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(evecs.shape[1])] < 0
    return np.where(flip, -evecs, evecs)


def copying_standardize(model, data) -> np.ndarray:
    """The window ``data`` z-scored by the model's mean and std, as a new
    Fortran-ordered array."""
    if data.columns != model.columns:
        raise ValueError("data columns do not match the model's training columns")
    return np.asfortranarray((data.values - model.mean) / model.std)


def copying_rbc_spe(model, data) -> np.ndarray:
    """Raw SPE reconstruction contributions of each window row, every step
    into a new array, and 0 where the residual diagonal is at or below the
    floor (logging nothing)."""
    Z = copying_standardize(model, data)
    P = model.loadings_principal
    mapped, diag = Z - (Z @ P) @ P.T, 1.0 - (P * P).sum(axis=1)
    usable = diag > RESIDUAL_DIAG_FLOOR
    raw = np.zeros_like(Z)
    raw[:, usable] = mapped[:, usable] ** 2 / diag[usable]
    return raw


def copying_contribution_rate(model, window) -> np.ndarray:
    """The windowed contribution rate's scores from ``copying_rbc_spe``, each
    live row normalized before averaging; raises the same ``ValueError`` as
    ``contribution_rate`` on an overflowing or all-zero window."""
    with np.errstate(over="ignore", invalid="ignore"):
        raw = copying_rbc_spe(model, window)
        row_sums = raw.sum(axis=1)
    overflow = np.flatnonzero(~np.isfinite(row_sums))
    if overflow.size:
        raise ValueError(f"contributions of window row {overflow[0]} are not finite")
    live = row_sums > 0
    if not live.any():
        raise ValueError("every sample in the window has zero contribution")
    mean = (raw[live] / row_sums[live, None]).mean(axis=0)
    return mean / mean.sum()


def golden_section_min(fn, lo: float, hi: float, iterations: int = 200):
    """Minimize a unimodal function on [lo, hi]; returns (argmin, min)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
        if b - a <= 1e-14 * (1.0 + abs(a) + abs(b)):
            break
    x = 0.5 * (a + b)
    return x, fn(x)


def cosine_ref(a, b) -> float:
    """Loop-based cosine similarity (no numpy reductions)."""
    dot = na = nb = 0.0
    for x, y in zip(a, b):
        dot += float(x) * float(y)
        na += float(x) * float(x)
        nb += float(y) * float(y)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / math.sqrt(na) / math.sqrt(nb)


def paper_seed_score(graph, params, contributions, candidate: str, constant_s0: float) -> float:
    """A candidate's score with the paper's seed: its own contribution when
    that is positive, else ``constant_s0``."""
    own = dict(zip(contributions.roster, contributions.scores)).get(candidate, 0.0)
    s_0 = own if own > 0 else constant_s0
    quantities, _ = dense_propagate(graph, params, candidate, s_0)
    return cosine_ref([quantities[v] for v in contributions.roster], contributions.scores)


def random_graph_payload(rng: np.random.Generator, max_nodes: int = 200, max_edges: int = 800):
    """A random connected-ish directed graph document for propagation tests."""
    n_nodes = int(rng.integers(5, max_nodes + 1))
    n_edges = int(rng.integers(n_nodes, min(max_edges, 4 * n_nodes) + 1))
    n_rels = int(rng.integers(1, 5))
    kinds = ["device", "stream", "variable"]
    entities = []
    for i in range(n_nodes):
        kind = kinds[int(rng.integers(len(kinds)))]
        raw = {"id": f"n{i}", "kind": kind, "label": f"Node {i}"}
        if kind == "variable":
            raw["column"] = f"n{i}"
        entities.append(raw)
    relations = [
        {
            "name": f"r{j}",
            "d": float(rng.uniform(0.5, 5.0)),
            "o": int(rng.integers(0, 6)),
        }
        for j in range(n_rels)
    ]
    seen = set()
    triples = []
    for _ in range(n_edges):
        h = int(rng.integers(n_nodes))
        t = int(rng.integers(n_nodes))
        r = int(rng.integers(n_rels))
        key = (h, r, t)
        if key in seen:
            continue
        seen.add(key)
        triples.append([f"n{h}", f"r{r}", f"n{t}"])
    return {"entities": entities, "relations": relations, "triples": triples}


def template_plant_payload(rng: np.random.Generator, copies: int):
    """A graph document of ``copies`` chained copies of one random unit.

    The unit has devices, streams and variables; each variable is tied to a
    device in both directions (the reverse through a zero-offset relation),
    each stream leads from a device to a device, one entity has a self-loop,
    one head reaches one tail by two relations, and a few random edges are
    added. The unit's last stream feeds the first device of the next copy
    (relation ``link``).
    Ids are a shuffled range, so the tail order of an entity's edges (by id)
    differs between copies.
    """
    n_dev, n_str, n_var = (int(rng.integers(lo, hi)) for lo, hi in ((1, 4), (1, 3), (2, 5)))
    kinds = ["device"] * n_dev + ["stream"] * n_str + ["variable"] * n_var
    size = len(kinds)
    devices, streams = range(n_dev), range(n_dev, n_dev + n_str)
    relations = [{"name": "back", "d": float(rng.uniform(2.0, 8.0)), "o": 0}] + [
        {"name": name, "d": float(rng.uniform(2.0, 8.0)), "o": int(rng.integers(1, 4))}
        for name in ("r1", "r2", "r3", "link")
    ]

    def pick(pool) -> int:
        return int(rng.choice(pool))

    unit = set()
    for v in range(n_dev + n_str, size):
        d = pick(devices)
        unit |= {(d, "r1", v), (v, "back", d)}
    for s in streams:
        unit |= {(pick(devices), "r2", s), (s, "r2", pick(devices))}
    loop = pick(range(size))
    unit.add((loop, "r3", loop))
    head, tail = rng.choice(size, size=2, replace=False)
    unit |= {(int(head), "r1", int(tail)), (int(head), "r3", int(tail))}
    for _ in range(int(rng.integers(0, 3))):
        unit.add((pick(range(size)), f"r{int(rng.integers(1, 4))}", pick(range(size))))

    ids = [f"e{i}" for i in rng.permutation(copies * size)]
    entities, triples = [], []
    for c in range(copies):
        at = c * size
        for i, kind in enumerate(kinds):
            raw = {"id": ids[at + i], "kind": kind, "label": f"{kind} {i} of copy {c}"}
            if kind == "variable":
                raw["column"] = ids[at + i]
            entities.append(raw)
        triples += [[ids[at + h], r, ids[at + t]] for h, r, t in sorted(unit)]
        if c + 1 < copies:
            triples.append([ids[at + n_dev + n_str - 1], "link", ids[at + size]])
    return {"entities": entities, "relations": relations, "triples": triples}


def dense_propagate(graph, params, source: str, s_0: float):
    """Plain transcription of the propagation walk seeded with ``s_0`` at
    ``source``, every state table dense over all entities, queued through a
    ``(priority, seq, id)`` heap; returns (quantities, order), ``order`` being
    the heap's pop sequence as ``(priority, head)`` pairs, one per pop. The
    out-edges are built here from ``graph.triples``, each head's sorted by the
    documented rule (ascending distance, then tail id, then relation name),
    not read from the graph's adjacency."""
    import heapq

    relation = {r.name: r for r in graph.relations}
    edges = {e.id: [] for e in graph.entities}
    for t in graph.triples:
        edges[t.head].append((relation[t.relation], t.tail))
    for out in edges.values():
        out.sort(key=lambda edge: (edge[0].distance, edge[1], edge[0].name))
    factor = {r.name: math.exp(-params.sigma_r * r.distance) for r in graph.relations}
    threshold = params.delta_s_min_ratio * s_0
    quantity = {e.id: 0.0 for e in graph.entities}
    received = {e.id: 0 for e in graph.entities}
    quantity[source] = s_0
    received[source] = 1
    initiated = {e.id: 0 for e in graph.entities}
    pushed = {e.id: 0 for e in graph.entities}
    pushed[source] = 1
    heap = [(0, 0, source)]
    seq = 1
    order = []
    while heap:
        priority, _, head = heapq.heappop(heap)
        order.append((priority, head))
        initiated[head] += 1
        if initiated[head] > params.p_max:
            continue
        for rel, tail in edges[head]:
            delta = quantity[head] / received[head] * factor[rel.name]
            if delta < threshold:
                continue
            quantity[tail] += delta
            received[tail] += 1
            if pushed[tail] <= params.p_max:
                pushed[tail] += 1
                heapq.heappush(heap, (priority + rel.priority_offset, seq, tail))
                seq += 1
    return quantity, order


def read_rows(path: Path, rows: int | None = None) -> DataMatrix:
    """A dataset read by the strict csv reader, one record at a time, with
    ``float()`` converting each cell: the header and at most ``rows`` data
    records. Each line is decoded as UTF-8 on its own and a blank record is
    passed over; the first bad record raises ``ValueError`` naming its line."""
    with path.open("rb") as fh:

        def text():
            offset = 0
            raws = (raw for chunk in fh for raw in chunk.splitlines(keepends=True))
            for number, raw in enumerate(raws, 1):
                try:
                    yield raw.decode("utf-8").removeprefix("\ufeff" if number == 1 else "")
                except UnicodeDecodeError as exc:
                    start, end = offset + exc.start, offset + exc.end - 1
                    where = (f"byte 0x{raw[exc.start]:02x} in position {start}" if start == end
                             else f"bytes in position {start}-{end}")
                    raise ValueError(f"{path}:{number}: not UTF-8: 'utf-8' codec can't decode "
                                     f"{where}: {exc.reason}") from None
                offset += len(raw)

        reader = csv.reader(text(), strict=True)
        line = 0  # the last line of the last complete record
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: file is empty")
            columns = tuple(name.strip() for name in header)
            try:
                check_unique(columns)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            parsed: list[list[float]] = []
            line = reader.line_num
            for row in reader:
                line = reader.line_num
                if not row or (len(row) == 1 and row[0].isspace()):
                    continue
                if len(row) != len(columns):
                    raise ValueError(f"{path}:{line}: expected {len(columns)} fields, "
                                     f"got {len(row)}")
                try:
                    values = [float(cell) for cell in row]
                except ValueError:
                    bad = next(c for c in row if not _is_float(c))
                    raise ValueError(f"{path}:{line}: not a number: {bad!r}") from None
                bad = next((c for c, v in zip(row, values) if not math.isfinite(v)), None)
                if bad is not None:
                    raise ValueError(f"{path}:{line}: not a finite number: {bad!r}")
                parsed.append(values)
                if len(parsed) == rows:
                    break
        except csv.Error as exc:
            if str(exc) == "unexpected end of data":
                raise ValueError(f"{path}:{line + 1}: unclosed quote") from None
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not parsed:
        raise ValueError(f"{path}: no data rows")
    return DataMatrix(np.asarray(parsed, dtype=float), columns)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
