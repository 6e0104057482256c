"""Error taxonomy shared by all modules.

Every domain failure raises a subclass of :class:`DomainError`, carrying a
short machine-readable ``category`` that the CLI surfaces on the diagnostic
stream (exit code 1).  I/O and configuration problems are *not* domain errors
(the CLI maps those to exit code 2).
"""


class DomainError(ValueError):
    """Base class for all domain errors."""

    category = "domain"


class DimensionMismatchError(DomainError):
    category = "dimension-mismatch"


class NotPointedError(DomainError):
    category = "not-pointed"


class NotSolidError(DomainError):
    category = "not-solid"


class MembershipError(DomainError):
    """A point is not in the set it was required to be in."""

    category = "membership"


class RankDeficientError(DomainError):
    category = "rank-deficient"


class NotOrderPointError(DomainError):
    category = "not-order-point"


class GaugeDomainError(DomainError):
    """Gauge requested for a body without 0 in its interior."""

    category = "gauge-domain"


class NotDifferentiableError(DomainError):
    """Gradient requested where the subdifferential is not a singleton."""

    category = "not-differentiable"

    def __init__(self, message, normal_generators=None):
        super().__init__(message)
        self.normal_generators = normal_generators


class ProjectionError(DomainError):
    """Metric projection did not converge; carries the iterate dump."""

    category = "projection"

    def __init__(self, message, iterates=None):
        super().__init__(message)
        self.iterates = iterates


class TrivializationError(DomainError):
    category = "trivialization"


class KernelWindowError(DomainError):
    category = "kernel-window"


class NonFiniteKernelError(DomainError):
    """A kernel sample is NaN or infinite."""

    category = "non-finite-kernel"


class OffLatticeError(DomainError):
    """A sample point is not a point of the window lattice it was given for."""

    category = "off-lattice"


class WindingUndefinedError(DomainError):
    category = "winding-undefined"


class IndexUnresolvedError(DomainError):
    category = "index-unresolved"


class LevelRangeError(DomainError):
    category = "level-range"


class ConfigError(Exception):
    """Bad run configuration or spec file (CLI exit code 2)."""
