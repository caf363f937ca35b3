"""End-to-end orchestration: fit, diagnose, and trace runs driven by a config."""

from __future__ import annotations

import logging
from dataclasses import asdict
from pathlib import Path
from typing import Any, Sequence

from . import dataio, features, rfpa, scoring
from .config import ConfigError, DiagnosisConfig
from .features import PcaModel
from .kgraph import KnowledgeGraph, load_graph
from .scoring import RootCauseRanking

logger = logging.getLogger(__name__)


def bound_columns(columns: Sequence[str], graph: KnowledgeGraph, what: str) -> list[str]:
    """The ``columns`` a graph variable binds, in order; one warning names the
    rest as ``what`` columns, and none bound is a ``ConfigError``."""
    unbound = [c for c in columns if c not in graph.variable_of]
    if unbound:
        logger.warning("%s columns without a variable binding are ignored: %s", what, unbound)
    kept = [c for c in columns if c in graph.variable_of]
    if not kept:
        raise ConfigError(f"no {what} columns are bound to graph variables")
    return kept


def run_fit(config: DiagnosisConfig) -> PcaModel:
    """Fit a model on the configured normal-operation dataset: on the columns
    the graph binds if a graph is given, else on every column."""
    if not config.normal_data_path:
        raise ConfigError("normal_data_path is required to fit a model")
    graph = load_graph(config.graph_path) if config.graph_path else None
    data = dataio.read_csv(config.normal_data_path)
    columns = data.columns if graph is None else bound_columns(data.columns, graph, "dataset")
    data = data.select(columns)  # the column-major copy fit_pca rounds in; the parse is freed
    model = features.fit_pca(data, config.r_pc)
    if config.model_path:
        features.save_model(model, config.model_path)
    return model


def run_diagnose(config: DiagnosisConfig) -> RootCauseRanking:
    """The full pipeline: contributions on the fault window, then ranking.

    The window stage runs first and its arrays are released before the graph
    is loaded, so a cold run holds the larger of the two stages, not both.
    A bad model or window is so reported before a bad graph or binding.
    """
    if not config.graph_path:
        raise ConfigError("graph_path is required for diagnosis")
    if not config.model_path:
        raise ConfigError("model_path is required for diagnosis")
    if not config.fault_data_path:
        raise ConfigError("fault_data_path is required for diagnosis")
    model = features.load_model(config.model_path)
    rate = _window_rate(config, model)

    graph = load_graph(config.graph_path)
    bound = bound_columns(model.columns, graph, "model")
    contributions = rate.restrict(bound).relabel(graph.variable_of)

    params = config.rfpa_params()
    metadata: dict[str, Any] = {
        "graph": Path(config.graph_path).name,
        # r_pc is the model file's, which may differ from the config's.
        "params": {"r_pc": model.r_pc, **asdict(params)},
        "window": {
            "fault_start": config.fault_start,
            "length": config.window,
            "source": Path(config.fault_data_path).name,
        },
    }
    return scoring.rank_all(graph, params, contributions, metadata=metadata)


def _window_rate(config: DiagnosisConfig, model: PcaModel) -> features.ContributionVector:
    """The contribution rate of the configured fault window; the window's
    arrays are gone when this returns."""
    fault = dataio.read_csv(config.fault_data_path, rows=config.window, skip=config.fault_start)
    present = set(fault.columns)
    missing = [c for c in model.columns if c not in present]
    if missing:
        raise ValueError(f"fault dataset is missing model columns: {missing}")
    window = fault if fault.columns == model.columns else fault.select(model.columns)
    try:
        return features.contribution_rate(model, window)
    except ValueError as exc:
        raise ValueError(f"{config.fault_data_path}: {exc}") from None


def run_trace(config: DiagnosisConfig, source: str) -> str:
    """Propagation event log for one source, as TSV."""
    if not config.graph_path:
        raise ConfigError("graph_path is required for tracing")
    graph = load_graph(config.graph_path)
    _, events = rfpa.trace(graph, config.rfpa_params(), source)
    return rfpa.format_trace_tsv(events)
