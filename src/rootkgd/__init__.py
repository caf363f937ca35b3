"""Root-cause diagnosis for industrial processes.

Combines a plant knowledge graph with data-driven fault contributions:
candidate roots are simulated as fault-propagation sources through the graph
and ranked by how well their simulated fault profile matches the observed
per-variable contribution pattern.

The package exports the names README's library example uses; every other
name is imported from its module (``rootkgd.kgraph``, ``rootkgd.synth``, ...).
"""

from .features import contribution_rate, fit_pca
from .kgraph import load_graph
from .rfpa import RfpaParams
from .scoring import rank_all

__version__ = "0.1.0"

__all__ = ["RfpaParams", "contribution_rate", "fit_pca", "load_graph", "rank_all"]
