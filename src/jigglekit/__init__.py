"""jigglekit: crystalline subdivision and margin-driven vertex jiggling.

The package takes a triangulated polyhedron, subdivides it crystalline-style
until simplices are small next to how fast a tangent plane field turns, then
nudges vertices within quantified budgets until every simplex of every
dimension sits in general position with respect to the field.  Margins are
measured, not hoped for: each pipeline returns a report with per-simplex
transversality certificates.
"""

from .complexes import (
    SimplicialComplex,
    SubdivisionMap,
    barycentric_subdivide,
    build_complex,
    compose_subdivisions,
    crystalline_subdivide,
    find_interior_overlap,
    shape_stats,
)
from .engine import (
    JigglingConfig,
    JigglingOutcome,
    auto_level,
    jiggle_euclidean,
    jiggle_relative,
    jiggle_subdivision,
    jiggle_tower,
)
from .errors import (
    BudgetViolation,
    CollarTooSmall,
    EmbeddingLost,
    JiggleKitError,
    LevelExhausted,
    PerturbationFailed,
    PreconditionViolated,
    SkeletonViolation,
    StarNotTransverse,
    UnsupportedDimension,
    VolumeMismatch,
)
from .grassmann import Plane, d_proj, is_transverse_planes
from .perturb import avoid_flats, perturb_vertex
from .plmaps import PLMap, SampledMap, is_piecewise_embedding, linearize
from .transversality import (
    Distribution,
    TransversalityReport,
    general_position,
    semitrans_margin,
    simplex_transverse,
    stratified_transverse,
    transversality_report,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetViolation",
    "CollarTooSmall",
    "Distribution",
    "EmbeddingLost",
    "JiggleKitError",
    "JigglingConfig",
    "JigglingOutcome",
    "LevelExhausted",
    "PLMap",
    "PerturbationFailed",
    "Plane",
    "PreconditionViolated",
    "SampledMap",
    "SimplicialComplex",
    "SkeletonViolation",
    "StarNotTransverse",
    "SubdivisionMap",
    "TransversalityReport",
    "UnsupportedDimension",
    "VolumeMismatch",
    "auto_level",
    "avoid_flats",
    "barycentric_subdivide",
    "build_complex",
    "compose_subdivisions",
    "crystalline_subdivide",
    "d_proj",
    "find_interior_overlap",
    "general_position",
    "is_piecewise_embedding",
    "is_transverse_planes",
    "jiggle_euclidean",
    "jiggle_relative",
    "jiggle_subdivision",
    "jiggle_tower",
    "linearize",
    "perturb_vertex",
    "semitrans_margin",
    "shape_stats",
    "simplex_transverse",
    "stratified_transverse",
    "transversality_report",
    "__version__",
]
