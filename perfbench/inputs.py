"""Seeded benchmark inputs: graphs, normal-operation and fault-episode CSVs.

Everything here is a pure function of the workload seed and the sizes, so the
same seed always gives byte-identical files. The program under test only ever
sees the files written here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rootkgd import kgraph, synth
from rootkgd.features import DataMatrix

#: First fault row of every episode and the diagnosed window length.
FAULT_START = 100
WINDOW = 100
#: Fault size, in units of the stepped target's normal sigma.
MAGNITUDE = 10.0
#: Latent factors behind the correlated TEP-like normal data.
TEP_FACTORS = 8


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the benchmark uses the defaults, its self-test a small plant."""

    plant_devices: int = 800
    plant_normal_rows: int = 2000
    fault_rows: int = 400
    tep_normal_rows: int = 1000
    plant_episodes: int = 3
    setup_reps: int = 3


@dataclass(frozen=True)
class Episode:
    """One fault CSV and the answers that count as a correct diagnosis."""

    path: Path
    root: str
    ok_variables: frozenset[str]
    ok_physical: frozenset[str]


@dataclass(frozen=True)
class Plant:
    graph_path: Path
    normal: DataMatrix
    episodes: tuple[Episode, ...]


def write_csv(values: np.ndarray, columns: tuple[str, ...], path: Path) -> None:
    """Header row, then one sample per row with nine significant digits."""
    np.savetxt(path, values, fmt="%.9g", delimiter=",", header=",".join(columns), comments="")


def acceptable(doc: dict, root: str) -> tuple[frozenset[str], frozenset[str]]:
    """Variables that may rank first and entities that may be in the physical top 3.

    The rule of acceptance criterion 7: for a variable root, the variable
    itself and its owning entities (what it is ``State of``) plus the streams
    into and out of an owning device; for a device root, any of its variables,
    and the device or its streams.
    """
    kinds = {e["id"]: e["kind"] for e in doc["entities"]}
    state_of = [(h, t) for h, r, t in doc["triples"] if r == "State of"]
    if kinds[root] == "variable":
        variables = {root}
        owners = {t for h, t in state_of if h == root}
    else:
        variables = {h for h, t in state_of if t == root}
        owners = {root}
    physical = set(owners)
    for head, _, tail in doc["triples"]:
        if head in owners and kinds[head] == "device" and kinds[tail] == "stream":
            physical.add(tail)
        if tail in owners and kinds[tail] == "device" and kinds[head] == "stream":
            physical.add(head)
    return frozenset(variables), frozenset(physical)


def tep_inputs(graph_path: Path, out: Path, seed: int, sizes: Sizes) -> tuple[Path, tuple[Episode, ...]]:
    """Correlated Gaussian data over the graph's bound columns, one episode per variable.

    Each episode steps one variable by ``MAGNITUDE`` sigma from row
    ``FAULT_START`` on; the roots cover every bound variable in a seeded order.
    """
    doc = json.loads(graph_path.read_text(encoding="utf-8"))
    roster = [e for e in doc["entities"] if e["kind"] == "variable" and e.get("column")]
    columns = tuple(e["column"] for e in roster)
    n = len(columns)
    rng = np.random.default_rng([seed, 1])
    mixing = rng.normal(size=(TEP_FACTORS, n))
    scale = rng.uniform(0.5, 2.0, size=n)
    base = rng.uniform(-5.0, 5.0, size=n)
    noise = 0.5
    sigma = scale * np.sqrt((mixing**2).sum(axis=0) + noise**2)

    def draw(m: int) -> np.ndarray:
        latent = rng.normal(size=(m, TEP_FACTORS))
        return base + scale * (latent @ mixing + noise * rng.normal(size=(m, n)))

    normal_path = out / "normal.csv"
    write_csv(draw(sizes.tep_normal_rows), columns, normal_path)
    episodes = []
    for i, j in enumerate(rng.permutation(n)):
        values = draw(sizes.fault_rows)
        values[FAULT_START:, j] += MAGNITUDE * sigma[j]
        path = out / f"fault{i}.csv"
        write_csv(values, columns, path)
        root = roster[j]["id"]
        episodes.append(Episode(path, root, *acceptable(doc, root)))
    return normal_path, tuple(episodes)


def plant_inputs(out: Path, seed: int, sizes: Sizes, n_episodes: int) -> Plant:
    """The synthetic chain plant, its normal data and ``n_episodes`` step faults.

    The plant's size does not depend on the seed. Episode roots alternate
    between variables and devices, starting with a device on odd seeds, and
    are drawn at random within their kind.
    """
    graph, model = synth.generate_plant(synth.PlantSpec(n_devices=sizes.plant_devices, seed=seed))
    graph_path = out / "graph.json"
    kgraph.save_graph(graph, graph_path)
    doc = kgraph.serialize(graph)
    rng = np.random.default_rng([seed, 2])
    normal = synth.simulate(model, sizes.plant_normal_rows, seed=int(rng.integers(2**31)))
    episodes = []
    for i in range(n_episodes):
        pool = model.device_ids if (seed + i) % 2 else model.columns
        root = pool[int(rng.integers(len(pool)))]
        injection = synth.FaultInjection(
            root=root, kind="step", magnitude=MAGNITUDE, start=FAULT_START, duration=WINDOW
        )
        fault = synth.simulate(model, sizes.fault_rows, injection, seed=int(rng.integers(2**31)))
        path = out / f"fault{i}.csv"
        write_csv(fault.values, fault.columns, path)
        episodes.append(Episode(path, root, *acceptable(doc, root)))
    return Plant(graph_path, normal, tuple(episodes))
