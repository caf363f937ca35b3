"""Independent numerical oracles used by the tests.

These deliberately avoid the code paths they check: the eigensolver is a
hand-rolled cyclic Jacobi iteration (not numpy.linalg), and the reconstruction
minimizer is a plain golden-section search.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from rootkgd.features import RESIDUAL_DIAG_FLOOR


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


def dense_propagate(graph, params, source: str, s_0: float):
    """Plain transcription of the propagation walk seeded with ``s_0`` at
    ``source``, every state table dense over all entities; returns
    (quantities, pops)."""
    import heapq

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
    pops = 0
    while heap:
        priority, _, head = heapq.heappop(heap)
        pops += 1
        initiated[head] += 1
        if initiated[head] > params.p_max:
            continue
        for rel, tail in graph.out_index[head]:
            delta = quantity[head] / received[head] * factor[rel.name]
            if delta < threshold:
                continue
            quantity[tail] += delta
            received[tail] += 1
            if pushed[tail] <= params.p_max:
                pushed[tail] += 1
                heapq.heappush(heap, (priority + rel.priority_offset, seq, tail))
                seq += 1
    return quantity, pops
