"""End-to-end orchestration: fit, diagnose, and trace runs driven by a config."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import dataio, features, rfpa, scoring
from .config import ConfigError, DiagnosisConfig
from .features import DataMatrix, PcaModel
from .kgraph import KnowledgeGraph, load_graph
from .scoring import RootCauseRanking

logger = logging.getLogger(__name__)


def resolve_model_columns(
    data_columns: tuple[str, ...], graph: KnowledgeGraph | None
) -> list[str]:
    """Pick the dataset columns a model is fitted on.

    With a graph, these are the columns its variables bind through their
    ``column`` attribute; dataset columns unknown to the graph are ignored
    with a warning. Without a graph, every column is used.
    """
    if graph is None:
        return list(data_columns)
    bound = {e.column for e in graph.variable_roster()}
    columns = [c for c in data_columns if c in bound]
    ignored = [c for c in data_columns if c not in bound]
    if ignored:
        logger.warning("ignoring CSV columns not bound to any variable: %s", ignored)
    if not columns:
        raise ConfigError("no dataset columns are bound to graph variables")
    return columns


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
    columns = resolve_model_columns(data.columns, graph)
    model = features.fit_pca(data.select(columns), config.r_pc)
    retained = float(model.eig_principal.sum()) / float(
        model.eig_principal.sum() + model.eig_residual.sum()
    )
    if config.model_path:
        features.save_model(model, config.model_path)
    return FitOutcome(model=model, retained_variance=retained)


def run_diagnose(config: DiagnosisConfig) -> RootCauseRanking:
    """The full pipeline: contributions on the fault window, then ranking."""
    if not config.graph_path:
        raise ConfigError("graph_path is required for diagnosis")
    if not config.model_path:
        raise ConfigError("model_path is required for diagnosis")
    if not config.fault_data_path:
        raise ConfigError("fault_data_path is required for diagnosis")
    graph = load_graph(config.graph_path)
    if not Path(config.model_path).exists():
        raise ConfigError(f"model file not found: {config.model_path}")
    model = features.load_model(config.model_path)
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

    variable_of = {e.column: e.id for e in graph.variable_roster()}
    unbound = [c for c in model.columns if c not in variable_of]
    if unbound:
        logger.warning("model columns without a variable binding are ignored: %s", unbound)
    bound = [c for c in model.columns if c in variable_of]
    if not bound:
        raise ConfigError("no model columns are bound to graph variables")
    contributions = rate.restrict(bound).relabel(variable_of)

    metadata: dict[str, Any] = {
        "graph": Path(config.graph_path).name,
        # r_pc is the model file's, which may differ from the config's.
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
