"""Obstruction theory for tangent bundles rescaled along a critical hypersurface.

Given a closed manifold with a marked critical hypersurface, the package
decides when the rescaled tangent bundle is isomorphic to the ordinary one
(a two-colorability question on the region graph), computes the rescaled
Euler number and verifies it against winding-number index sums, and works
out the sphere case explicitly through the degree of the reflection-valued
gluing map.
"""

from . import bgraph, errors, euler, manifold_io, obstructions, windex
from .bgraph import *
from .errors import *
from .euler import *
from .manifold_io import *
from .obstructions import *
from .windex import *

__version__ = "0.1.0"

# spheremap needs numpy, so it is imported on first use (PEP 562)
_SPHEREMAP_NAMES = (
    "CheckItem", "CheckReport", "SphereMapReport", "degree_integral", "degree_preimage",
    "homotopy_endpoints", "north_pole", "pole_map", "pole_map_differential", "reflection",
    "sphere_map_report", "tangent_frame",
)


def __getattr__(name: str):
    if name in _SPHEREMAP_NAMES:
        from . import spheremap

        return getattr(spheremap, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SPHEREMAP_NAMES))


# each module lists its public names in __all__; the package exports exactly those
__all__ = [*bgraph.__all__, *errors.__all__, *euler.__all__, *manifold_io.__all__,
           *obstructions.__all__, *windex.__all__, *_SPHEREMAP_NAMES]
