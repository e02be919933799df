"""Exception types shared across the package."""


class StripflowError(Exception):
    """Base class for all package-specific errors."""


class DegenerateDepth(StripflowError):
    """Water column height reached zero or below somewhere."""


class DegenerateDensity(StripflowError):
    """Total density reached zero or below somewhere."""


class DegenerateDiffeo(StripflowError):
    """Vertical coordinate map lost strict monotonicity."""


class GridMismatch(StripflowError):
    """Fields sampled on incompatible grids."""


class InsufficientResolution(StripflowError):
    """Requested vertical derivative order exceeds stencil support."""


class NoConvergence(StripflowError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class TooManySteps(StripflowError):
    """The march to the final time needs more steps than a run may take."""


class CFLViolation(StripflowError):
    """Requested time step exceeds the advective/wave stability bound."""


class BlowUpSuspected(StripflowError):
    """A non-finite value appeared in a tendency or state field."""


class InvalidStreamfunction(StripflowError):
    """Streamfunction is not constant along the bottom image."""


class InterpolationOutOfRange(StripflowError):
    """Coordinate-change resampling left the vertical image interval."""


class PreparationFailed(StripflowError):
    """Well-prepared initialization missed its closeness target."""


class ConfigError(StripflowError):
    """Experiment configuration failed validation."""
