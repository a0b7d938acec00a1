"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map them onto stable exit codes.
"""


class JiggleKitError(Exception):
    """Base class for all package-specific errors."""


class FaceIntersectionViolation(JiggleKitError):
    """Two simplices of a complex meet in a set that is not a common face."""


class DegenerateSimplex(JiggleKitError):
    """A simplex is numerically degenerate (rmin below tolerance)."""


class QueryNotInComplex(JiggleKitError):
    """An adjacency query referenced a simplex or vertex that is absent."""


class AmbientMismatch(JiggleKitError):
    """Operands live in different ambient dimensions."""


class RankDeficient(JiggleKitError):
    """A spanning set was linearly dependent beyond tolerance."""


class DomainMismatch(JiggleKitError):
    """Two maps do not share a common refinement we know how to build."""


class PreconditionViolated(JiggleKitError):
    """A documented operation precondition failed."""


class InfeasibleDimensions(JiggleKitError):
    """A flat to avoid fills the whole search domain; no margin can exist."""


class StarNotTransverse(JiggleKitError):
    """A star simplex is not transverse to a foliation it must be joined to."""


class PerturbationFailed(JiggleKitError):
    """A vertex search could not reach the requested margin floor."""


class EmbeddingLost(JiggleKitError):
    """A perturbed map stopped being a piecewise-linear embedding."""


class BudgetViolation(JiggleKitError):
    """The C1 budget cannot accommodate any perturbation (or was exceeded)."""


class LevelExhausted(JiggleKitError):
    """Automatic level selection hit its cap without meeting its criterion."""


class CollarTooSmall(JiggleKitError):
    """A collar or neighborhood cannot contain the transition region."""


class SkeletonViolation(JiggleKitError):
    """A perturbed vertex left the carrier face it must stay inside."""


class VolumeMismatch(JiggleKitError):
    """Image simplices fail to tile their parent with matching volume."""


class UnsupportedDimension(JiggleKitError):
    """The operation is only implemented for a specific ambient dimension."""
