"""Exception types shared across the package."""


class FracstabError(Exception):
    """Base class for all package-specific failures."""


class DomainError(FracstabError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class OverflowSignal(FracstabError, OverflowError):
    """Result exceeds the representable double range."""


class QuadratureConvergenceError(FracstabError):
    """Contour or panel quadrature failed its internal error estimate."""


class SectorViolationError(FracstabError, ValueError):
    """Spectrum does not satisfy the stability sector condition."""


class UnsupportedOrderError(FracstabError, ValueError):
    """Derivative or Taylor order above the supported cap."""


class ImagTruncationError(FracstabError):
    """Imaginary residue of a real matrix function too large to truncate."""


class IterationDivergenceError(FracstabError):
    """Fixed-point iteration failed to contract within the iteration cap."""


class NonFiniteStateError(FracstabError):
    """Time stepping produced a non-finite state."""


class NoDecayError(FracstabError):
    """Perturbation envelope never drops below the certificate threshold."""


class TailConvergenceError(FracstabError):
    """Improper-integral truncation point search exceeded its cap."""


class GridError(FracstabError, ValueError):
    """Time grid violates its construction invariants."""


class ConfigError(FracstabError, ValueError):
    """Experiment configuration is malformed."""
