"""End-to-end orchestration: fit, diagnose, and trace runs driven by a config."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import dataio, features, rfpa, scoring
from .config import ConfigError, DiagnosisConfig
from .features import DataMatrix, PcaModel
from .kgraph import EntityKind, KnowledgeGraph, load_graph
from .scoring import RootCauseRanking

logger = logging.getLogger(__name__)


def resolve_model_columns(
    data_columns: tuple[str, ...],
    graph: KnowledgeGraph | None,
    config: DiagnosisConfig,
) -> tuple[list[str], dict[str, str]]:
    """Pick the dataset columns a model should use and map them to entities.

    Explicit config bindings are strict (a bound column missing from the data
    is an error) and select exactly their keys. Without explicit bindings the
    graph's own column attributes are used, and dataset columns unknown to
    the graph are ignored with a warning.
    """
    if config.column_bindings:
        missing = [c for c in config.column_bindings if c not in data_columns]
        if missing:
            raise ConfigError(f"bound columns missing from dataset: {missing}")
        columns = [c for c in data_columns if c in config.column_bindings]
        roster_map = {
            c: config.column_bindings[c]
            for c in columns
            if config.column_bindings[c] is not None
        }
    elif graph is not None:
        graph_bindings = {e.column: e.id for e in graph.variable_roster()}
        columns = [c for c in data_columns if c in graph_bindings]
        ignored = [c for c in data_columns if c not in graph_bindings]
        if ignored:
            logger.warning("ignoring CSV columns not bound to any variable: %s", ignored)
        roster_map = {c: graph_bindings[c] for c in columns}
    else:
        columns = list(data_columns)
        roster_map = {}

    if not columns:
        raise ConfigError("no dataset columns are usable (check column bindings)")
    if graph is not None:
        for col, eid in roster_map.items():
            entity = graph.entity(eid)  # raises for unknown ids
            if entity.kind is not EntityKind.VARIABLE:
                raise ConfigError(
                    f"column {col!r} is bound to {eid!r}, which is a "
                    f"{entity.kind.value}, not a variable"
                )
    return columns, roster_map


@dataclass(frozen=True)
class FitOutcome:
    model: PcaModel
    retained_variance: float

    def summary(self) -> str:
        return (
            f"fitted PCA model: n={self.model.n_variables} variables, "
            f"k={self.model.n_pc} components, "
            f"retained variance {self.retained_variance:.4f}"
        )


def run_fit(config: DiagnosisConfig) -> FitOutcome:
    """Fit a model on the configured normal-operation dataset."""
    if not config.normal_data_path:
        raise ConfigError("normal_data_path is required to fit a model")
    graph = load_graph(config.graph_path) if config.graph_path else None
    data = dataio.read_csv(config.normal_data_path)
    columns, _ = resolve_model_columns(data.columns, graph, config)
    model = features.fit_pca(data.select(columns), config.r_pc)
    retained = float(model.eig_principal.sum()) / float(
        model.eig_principal.sum() + model.eig_residual.sum()
    )
    if config.model_path:
        features.save_model(model, config.model_path)
    return FitOutcome(model=model, retained_variance=retained)


def _obtain_model(config: DiagnosisConfig) -> PcaModel:
    if config.model_path and Path(config.model_path).exists():
        return features.load_model(config.model_path)
    if config.model_path and not config.normal_data_path:
        raise ConfigError(f"model file not found: {config.model_path}")
    if config.normal_data_path:
        return run_fit(config).model
    raise ConfigError("diagnosis needs a model_path or a normal_data_path to fit from")


def run_diagnose(config: DiagnosisConfig) -> RootCauseRanking:
    """The full pipeline: contributions on the fault window, then ranking."""
    if not config.graph_path:
        raise ConfigError("graph_path is required for diagnosis")
    if not config.fault_data_path:
        raise ConfigError("fault_data_path is required for diagnosis")
    graph = load_graph(config.graph_path)
    model = _obtain_model(config)
    fault = dataio.read_csv(config.fault_data_path)

    missing = [c for c in model.columns if c not in fault.columns]
    if missing:
        raise ValueError(f"fault dataset is missing model columns: {missing}")
    fault = fault.select(model.columns)

    end = config.fault_start + config.window
    if end > fault.n_samples:
        raise ValueError(
            f"window exceeds dataset: rows [{config.fault_start}, {end}) "
            f"requested but only {fault.n_samples} samples present"
        )
    window = DataMatrix(fault.values[config.fault_start : end], fault.columns)
    rate = features.contribution_rate(model, window)

    _, roster_map = resolve_model_columns(model.columns, graph, config)
    unbound = [c for c in model.columns if c not in roster_map]
    if unbound:
        logger.warning("model columns without a variable binding are ignored: %s", unbound)
    roster_ids = [roster_map[c] for c in model.columns if c in roster_map]
    if not roster_ids:
        raise ConfigError("no model columns are bound to graph variables")
    contributions = rate.relabel(roster_map).restrict(roster_ids)

    metadata: dict[str, Any] = {
        "graph": Path(config.graph_path).name,
        # r_pc is the fitted model's: a loaded model may differ from the config.
        "params": {**config.params_dict(), "r_pc": model.r_pc},
        "window": {
            "fault_start": config.fault_start,
            "length": config.window,
            "source": Path(config.fault_data_path).name,
        },
    }
    return scoring.rank_all(graph, config.rfpa_params(), contributions, metadata=metadata)


def run_trace(config: DiagnosisConfig, source: str) -> str:
    """Propagation event log for one source, as TSV."""
    if not config.graph_path:
        raise ConfigError("graph_path is required for tracing")
    graph = load_graph(config.graph_path)
    _, events = rfpa.trace(graph, config.rfpa_params(), source)
    return rfpa.format_trace_tsv(events)
