"""Exception types raised by the btangent package, and its integer rule."""

__all__ = [
    "BTangentError", "EvenDimensionError", "ImproperColoringError", "InconsistentGluingError",
    "InvalidArgumentError", "InvalidZError", "ManifoldFormatError", "NonClosedSurfaceError",
    "NonConvergentError", "NonTangentInputError", "NonUnitInputError", "NotColorableError",
    "NotOrientableError", "OddDimensionError", "UnsupportedDimensionError",
    "ZeroOnContourError", "ZeroOnCriticalSetError",
]


class BTangentError(Exception):
    """Base class for all structured errors in this package."""


class NonClosedSurfaceError(BTangentError):
    """The triangle complex is not a closed surface (or has stray vertices)."""


class InvalidZError(BTangentError):
    """The marked edge set is not a disjoint union of embedded cycles."""


class InconsistentGluingError(BTangentError):
    """A sign gluing does not match the graph it claims to decorate."""


class NotOrientableError(BTangentError):
    """Operation requires an orientable ambient manifold."""


class NotColorableError(BTangentError):
    """Operation requires a two-colorable region graph."""


class ImproperColoringError(BTangentError):
    """A supplied coloring is not total or violates an edge constraint."""


class OddDimensionError(BTangentError):
    """Euler-number computation requires even ambient dimension."""


class UnsupportedDimensionError(BTangentError):
    """Requested dimension is outside the supported range."""


class ZeroOnContourError(BTangentError):
    """The vector field is within the zero tolerance at a contour sample."""


class NonConvergentError(BTangentError):
    """Contour refinement hit the sample cap without resolving the field."""


class ZeroOnCriticalSetError(BTangentError):
    """A listed zero lies on (or too close to) the critical hypersurface."""


class NonUnitInputError(BTangentError):
    """Input vector must lie on the unit sphere."""


class NonTangentInputError(BTangentError):
    """Input vector must be tangent to the sphere at the base point."""


class EvenDimensionError(BTangentError):
    """The null-homotopy construction only exists in odd dimensions."""


class InvalidArgumentError(BTangentError, ValueError):
    """An argument the operation does not accept.

    For example a number out of range, an unknown field name, a sign other
    than +1 or -1, or a region graph with missing or repeated labels.
    """


class ManifoldFormatError(BTangentError):
    """A manifold JSON document violates the input schema.

    Attributes:
        pointer: JSON-pointer path of the offending element.
    """

    def __init__(self, message: str, pointer: str = "/"):
        super().__init__(f"{message} (at {pointer})")
        self.pointer = pointer


def _is_int(t: type) -> bool:
    """The package's one integer rule: t is a Python or numpy integer type, and not bool."""
    from numbers import Integral  # numpy registers its integers here; lazy, off the import path

    return issubclass(t, Integral) and not issubclass(t, bool)


def _as_int(value, name: str) -> int:
    """value as a Python int; InvalidArgumentError naming `name` if it is not one."""
    if not _is_int(type(value)):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    return int(value)
