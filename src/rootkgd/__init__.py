"""Root-cause diagnosis for industrial processes.

Combines a plant knowledge graph with data-driven fault contributions:
candidate roots are simulated as fault-propagation sources through the graph
and ranked by how well their simulated fault profile matches the observed
per-variable contribution pattern.
"""

from .config import ConfigError, DiagnosisConfig
from .features import (
    ContributionVector,
    DataMatrix,
    PcaModel,
    contribution_rate,
    fit_pca,
    load_model,
    rbc_spe,
    save_model,
    spe,
)
from .kgraph import (
    Entity,
    EntityKind,
    GraphError,
    GraphParseError,
    GraphValidationError,
    KnowledgeGraph,
    RelationType,
    Triple,
    ValidationReport,
    load_graph,
    out_edges,
    save_graph,
    serialize,
    validate,
)
from .rfpa import PropagationResult, RfpaParams, propagate, trace
from .scoring import RankEntry, RootCauseRanking, format_report, rank_all, root_score
from .synth import FaultInjection, PlantModel, PlantSpec, generate_plant, simulate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContributionVector",
    "DataMatrix",
    "DiagnosisConfig",
    "Entity",
    "EntityKind",
    "FaultInjection",
    "GraphError",
    "GraphParseError",
    "GraphValidationError",
    "KnowledgeGraph",
    "PcaModel",
    "PlantModel",
    "PlantSpec",
    "PropagationResult",
    "RankEntry",
    "RelationType",
    "RfpaParams",
    "RootCauseRanking",
    "Triple",
    "ValidationReport",
    "contribution_rate",
    "fit_pca",
    "format_report",
    "generate_plant",
    "load_graph",
    "load_model",
    "out_edges",
    "propagate",
    "rank_all",
    "rbc_spe",
    "root_score",
    "save_graph",
    "save_model",
    "serialize",
    "simulate",
    "spe",
    "trace",
    "validate",
]
