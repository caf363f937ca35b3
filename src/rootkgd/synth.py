"""Synthetic plants: a knowledge graph plus matching sensor data.

A plant is a chain of devices connected by streams, each device carrying a
few measured variables. The data generator is a linear-Gaussian structural
model whose dependencies follow the graph: every device has a latent state
driven by its upstream neighbor, and variables observe their device's state
plus sensor noise. Faults are injected at a known root (a variable or a
device), giving the diagnosis pipeline a ground truth to recover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import DataMatrix
from .kgraph import Entity, EntityKind, KnowledgeGraph, RelationType, Triple

FAULT_KINDS = ("step", "drift", "random_variation")

RELATION_PARAMS: dict[str, tuple[float, int]] = {
    "State": (1.0, 1),
    "State of": (1.0, 1),
    "Output": (3.0, 5),
}

#: Sensor noise sigma on every variable, in units of a device's latent state.
#: A study of other noise sets ``PlantModel.noise_scale`` by ``dataclasses.replace``.
NOISE_SCALE = 0.3


@dataclass(frozen=True)
class PlantSpec:
    """Shape and randomness of a generated plant."""

    n_devices: int
    streams_per_device: tuple[int, int] = (1, 1)
    variables_per_device: tuple[int, int] = (2, 2)
    seed: int = 0

    def __post_init__(self):
        if self.n_devices < 1:
            raise ValueError(f"n_devices must be at least 1, got {self.n_devices}")
        for name in ("streams_per_device", "variables_per_device"):
            lo, hi = bounds = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} bounds must satisfy 1 <= lo <= hi, got {bounds}")


@dataclass(frozen=True)
class FaultInjection:
    """A known fault: root entity, shape, size (in units of normal sigma)."""

    root: str
    kind: str = "step"
    magnitude: float = 10.0
    start: int = 0
    duration: int = 100

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if not 0 < self.magnitude < np.inf:
            raise ValueError(f"magnitude must be positive and finite, got {self.magnitude}")
        if self.start < 0 or self.duration < 1:
            raise ValueError("injection window must have start >= 0 and duration >= 1")


@dataclass(frozen=True)
class PlantModel:
    """Generative description produced alongside the graph."""

    device_ids: tuple[str, ...]
    columns: tuple[str, ...]
    var_device: tuple[int, ...]
    chain_coeff: np.ndarray
    loadings: np.ndarray
    baseline: np.ndarray
    noise_scale: float = NOISE_SCALE

    def latent_variance(self) -> np.ndarray:
        var = np.empty(len(self.device_ids))
        for i in range(len(self.device_ids)):
            var[i] = 1.0 if i == 0 else self.chain_coeff[i] ** 2 * var[i - 1] + 1.0
        return var

    def variable_std(self) -> np.ndarray:
        lat = self.latent_variance()[list(self.var_device)]
        return np.sqrt(self.loadings**2 * lat + self.noise_scale**2)

    def owner_device(self, variable_id: str) -> str:
        return self.device_ids[self.var_device[self.columns.index(variable_id)]]


def generate_plant(spec: PlantSpec) -> tuple[KnowledgeGraph, PlantModel]:
    """Build a seeded plant graph and its generative model description."""
    rng = np.random.default_rng(spec.seed)

    entities: list[Entity] = []
    triples: list[Triple] = []
    device_ids = tuple(f"dev{i + 1}" for i in range(spec.n_devices))
    for i, did in enumerate(device_ids):
        entities.append(Entity(did, EntityKind.DEVICE, f"Device {i + 1}"))

    stream_count = 0
    for i in range(spec.n_devices - 1):
        lo, hi = spec.streams_per_device
        for _ in range(int(rng.integers(lo, hi + 1))):
            stream_count += 1
            sid = f"str{stream_count}"
            label = f"Stream {stream_count} (Device {i + 1} to Device {i + 2})"
            entities.append(Entity(sid, EntityKind.STREAM, label))
            triples.append(Triple(device_ids[i], "Output", sid))
            triples.append(Triple(sid, "Output", device_ids[i + 1]))

    columns: list[str] = []
    var_device: list[int] = []
    var_count = 0
    for i, did in enumerate(device_ids):
        lo, hi = spec.variables_per_device
        for _ in range(int(rng.integers(lo, hi + 1))):
            var_count += 1
            vid = f"x{var_count}"
            label = f"Variable {var_count} (Device {i + 1})"
            entities.append(Entity(vid, EntityKind.VARIABLE, label, column=vid))
            triples.append(Triple(did, "State", vid))
            triples.append(Triple(vid, "State of", did))
            columns.append(vid)
            var_device.append(i)

    relations = [RelationType(name, d, o) for name, (d, o) in RELATION_PARAMS.items()]
    graph = KnowledgeGraph(entities, relations, triples)

    n_vars = len(columns)
    model = PlantModel(
        device_ids=device_ids,
        columns=tuple(columns),
        var_device=tuple(var_device),
        chain_coeff=rng.uniform(0.6, 0.95, size=spec.n_devices),
        loadings=rng.uniform(0.7, 1.4, size=n_vars),
        baseline=rng.uniform(-5.0, 5.0, size=n_vars),
    )
    return graph, model


def _fault_shape(injection: FaultInjection, sigma: float, rng) -> np.ndarray:
    amplitude, duration = injection.magnitude * sigma, injection.duration
    if injection.kind == "step":
        return np.full(duration, amplitude)
    if injection.kind == "drift":
        return np.linspace(0.0, amplitude, duration)
    return rng.normal(0.0, amplitude, size=duration)


def simulate(
    model: PlantModel,
    m: int,
    injection: FaultInjection | None = None,
    seed: int = 0,
) -> DataMatrix:
    """Draw ``m`` samples; the same seed always yields the same matrix.

    With an injection, the root variable (or the root device's latent state,
    which perturbs all of its variables and everything downstream) is shifted
    over [start, start+duration).
    """
    if m < 1:
        raise ValueError(f"sample count must be at least 1, got {m}")
    if injection is not None and injection.start + injection.duration > m:
        raise ValueError(
            f"injection window [{injection.start}, "
            f"{injection.start + injection.duration}) exceeds {m} samples"
        )

    rng = np.random.default_rng(seed)
    n_dev = len(model.device_ids)
    n_vars = len(model.columns)
    window = slice(injection.start, injection.start + injection.duration) if injection else None

    shocks = rng.standard_normal((m, n_dev))
    sensor_noise = rng.standard_normal((m, n_vars)) * model.noise_scale

    device_fault = np.zeros((m, n_dev))
    if injection is not None and injection.root in model.device_ids:
        i = model.device_ids.index(injection.root)
        sigma = float(np.sqrt(model.latent_variance()[i]))
        device_fault[window, i] = _fault_shape(injection, sigma, rng)

    latent = np.empty((m, n_dev))
    latent[:, 0] = shocks[:, 0] + device_fault[:, 0]
    for i in range(1, n_dev):
        latent[:, i] = (
            model.chain_coeff[i] * latent[:, i - 1] + shocks[:, i] + device_fault[:, i]
        )

    values = model.baseline + model.loadings * latent[:, list(model.var_device)] + sensor_noise

    if injection is not None and injection.root in model.columns:
        j = model.columns.index(injection.root)
        sigma = float(model.variable_std()[j])
        values[window, j] += _fault_shape(injection, sigma, rng)
    elif injection is not None and injection.root not in model.device_ids:
        raise ValueError(f"injection root {injection.root!r} is not a variable or device")

    return DataMatrix(values, model.columns)
