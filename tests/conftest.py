from __future__ import annotations

from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from rootkgd.features import DataMatrix, fit_pca
from rootkgd.kgraph import graph_from_dict, load_graph

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def tep_graph():
    return load_graph(files("rootkgd") / "fixtures" / "tep.kg.json")


@pytest.fixture(scope="session")
def mff_graph():
    return load_graph(files("rootkgd") / "fixtures" / "mff.kg.json")


@pytest.fixture(scope="session")
def diamond_graph():
    return load_graph(FIXTURES / "diamond.kg.json")


@pytest.fixture(scope="session")
def chain_graph():
    return load_graph(FIXTURES / "chain.kg.json")


def minimal_payload():
    """Smallest well-formed graph document: one device, one variable."""
    return {
        "entities": [
            {"id": "dev1", "kind": "device", "label": "Device 1"},
            {"id": "v11", "kind": "variable", "label": "Variable 11", "column": "v11"},
        ],
        "relations": [{"name": "State", "d": 1, "o": 1}],
        "triples": [["dev1", "State", "v11"]],
    }


@pytest.fixture
def minimal_graph():
    return graph_from_dict(minimal_payload())


def out_edges(graph, entity_id: str):
    """The out-edges of one entity read from ``graph.adjacency`` as
    ``(RelationType, tail id)`` pairs in adjacency order; each edge's priority
    offset must be its relation's."""
    edges = []
    for tail, rel, offset in graph.adjacency[graph.position[entity_id]]:
        relation = graph.relations[rel]
        assert offset == relation.priority_offset
        edges.append((relation, graph.entities[tail].id))
    return tuple(edges)


def read_members(path) -> dict[str, np.ndarray]:
    """The arrays of a model file by field name, in the file's order."""
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def write_members(path, members: dict) -> None:
    """A model file of ``members``, one ``.npy`` each (object arrays pickled)."""
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def random_data(rng: np.random.Generator, n: int, m: int = 400) -> DataMatrix:
    """Random correlated gaussian data, ``m`` samples of ``n`` variables."""
    n_latent = max(1, n // 2)
    mixing = rng.normal(size=(n_latent, n))
    latent = rng.normal(size=(m, n_latent))
    data = latent @ mixing + 0.5 * rng.normal(size=(m, n)) + rng.uniform(-2, 2, size=n)
    return DataMatrix(data, tuple(f"v{i + 1}" for i in range(n)))


def random_model(rng: np.random.Generator, n: int, m: int = 400, r_pc: float | None = None):
    """A PCA model fit on ``random_data``."""
    data = random_data(rng, n, m)
    if r_pc is None:
        r_pc = float(rng.uniform(0.3, 0.9))
    return fit_pca(data, r_pc)
