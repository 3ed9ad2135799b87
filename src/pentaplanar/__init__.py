"""pentaplanar: a workbench for the pentagon-maximization problem on planar
graphs.

Builds the extremal families, counts small cycles exactly, enumerates all
planar triangulations up to isomorphism at desk scale, and mechanically
confirms the extremal counts and the supporting structure lemmas.
"""

from .graphs import (
    Graph,
    GraphError,
    common_neighbors,
    induced_subgraph,
    is_path_forest,
    parse_graph6,
    to_graph6,
)
from .counting import (
    CycleCountReport,
    apex_exists,
    count_cycles,
    count_cycles_bruteforce,
    count_face_paths3,
    count_paths3,
    cycle_report,
    g_formula,
)
from .embeddings import (
    Embedding,
    EmbeddingError,
    Face,
    NotPlanar,
    is_triangulation,
    neighborhood_cycle,
    planar_embed,
    triangular_faces,
)
from .canon import are_isomorphic, canonical_form
from .enumeration import (
    EnumerationCertificate,
    corpus,
    enumerate_triangulations,
)
from .families import (
    FamilySpec,
    build_A,
    build_D,
    build_E,
    build_exceptional,
    expand,
)
from .oracles import bruteforce_triangulations
from .verification import (
    VerificationCertificate,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_monotonicity,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "CycleCountReport",
    "Embedding",
    "EmbeddingError",
    "EnumerationCertificate",
    "Face",
    "FamilySpec",
    "Graph",
    "GraphError",
    "NotPlanar",
    "VerificationCertificate",
    "apex_exists",
    "are_isomorphic",
    "build_A",
    "build_D",
    "build_E",
    "build_exceptional",
    "bruteforce_triangulations",
    "canonical_form",
    "common_neighbors",
    "corpus",
    "count_cycles",
    "count_cycles_bruteforce",
    "count_face_paths3",
    "count_paths3",
    "cycle_report",
    "enumerate_triangulations",
    "expand",
    "g_formula",
    "induced_subgraph",
    "is_path_forest",
    "is_triangulation",
    "neighborhood_cycle",
    "parse_graph6",
    "planar_embed",
    "to_graph6",
    "triangular_faces",
    "verify_lemma1",
    "verify_lemma2",
    "verify_lemma3",
    "verify_monotonicity",
    "verify_theorem",
]
