"""Exception types shared across the toolbox."""


class FuseRegError(Exception):
    """Base class for all toolbox errors."""


class GeometryError(FuseRegError):
    """Raster grids are incompatible for the requested operation."""


class ParameterError(FuseRegError):
    """A configuration value or argument is outside its admissible range."""


class IntensityRangeError(FuseRegError):
    """Image intensities violate the [0, 1] normalization contract."""


class DegenerateImageError(FuseRegError):
    """An image is constant (or near-constant) where variation is required."""


class FormatError(FuseRegError):
    """A file on disk does not conform to the expected layout."""


class PlacementError(FuseRegError):
    """Mosaic tiles cannot be placed on a common grid."""


class DivergenceError(FuseRegError):
    """An iterative solver cannot start: the objective is not finite at
    the starting point.  (A solver that finds no decrease stops instead.)

    Carries the partial iteration trace and the pyramid level so callers
    can inspect what happened before the failure.
    """

    def __init__(self, message, trace=None, level=None):
        super().__init__(message)
        self.trace = trace
        self.level = level
