"""ontomerge: integrate business-component models through ontology alignment.

Each component model is read as a small ontology, aligned pairwise
against a support (domain) ontology to detect synonym and homonym naming
conflicts, merged into one result component, and the support ontology is
enriched with the relations inferred along the way.

Names outside ``__all__`` are module internals and may change without notice.
"""

from .errors import (
    CyclicComposition,
    EmptyTerm,
    HomonymClusterCollision,
    InfeasibleSpec,
    IntegrationError,
    MalformedFile,
    ScenarioMismatch,
    SchemaViolation,
)
from .model import (
    Association,
    BusinessComponent,
    Cluster,
    ComponentRelation,
    Concept,
    Correspondence,
    EnrichmentRecord,
    Entity,
    Evidence,
    Ontology,
    Relation,
    Report,
    pair_space_of,
)
from .integrator import align, build_clusters, integrate, merge
from .model_io import (
    export_dot,
    parse_component,
    parse_ontology,
    parse_report,
    serialize_component,
    serialize_ontology,
    serialize_report,
)
from .terms import normalize_term

__version__ = "0.1.0"

_SCENARIO_NAMES = ("GroundTruth", "ScenarioSpec", "evaluate", "generate_scenario")


def __getattr__(name: str):
    """Import the scenario generator (``evalgen``) on first use of its names."""
    if name in _SCENARIO_NAMES:
        from . import evalgen

        return getattr(evalgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Association",
    "BusinessComponent",
    "Cluster",
    "ComponentRelation",
    "Concept",
    "Correspondence",
    "CyclicComposition",
    "EmptyTerm",
    "EnrichmentRecord",
    "Entity",
    "Evidence",
    "GroundTruth",
    "HomonymClusterCollision",
    "InfeasibleSpec",
    "IntegrationError",
    "MalformedFile",
    "Ontology",
    "Relation",
    "Report",
    "ScenarioMismatch",
    "ScenarioSpec",
    "SchemaViolation",
    "align",
    "build_clusters",
    "evaluate",
    "export_dot",
    "generate_scenario",
    "integrate",
    "merge",
    "normalize_term",
    "pair_space_of",
    "parse_component",
    "parse_ontology",
    "parse_report",
    "serialize_component",
    "serialize_ontology",
    "serialize_report",
]
