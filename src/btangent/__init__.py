"""Obstruction theory for tangent bundles rescaled along a critical hypersurface.

Given a closed manifold with a marked critical hypersurface, the package
decides when the rescaled tangent bundle is isomorphic to the ordinary one
(a two-colorability question on the region graph), computes the rescaled
Euler number and verifies it against winding-number index sums, and works
out the sphere case explicitly through the degree of the reflection-valued
gluing map.
"""

from .bgraph import (
    BGraph,
    Coloring,
    HypersurfaceComponent,
    Region,
    TriangulatedSurface,
    build_graph_from_surface,
    sphere_equator_graph,
    surface_euler,
    surface_orientable,
)
from .errors import (
    BTangentError,
    EvenDimensionError,
    ImproperColoringError,
    InconsistentGluingError,
    InvalidArgumentError,
    InvalidZError,
    ManifoldFormatError,
    NonClosedSurfaceError,
    NonConvergentError,
    NonTangentInputError,
    NonUnitInputError,
    NotColorableError,
    NotOrientableError,
    OddDimensionError,
    UnsupportedDimensionError,
    ZeroOnContourError,
    ZeroOnCriticalSetError,
)
from .euler import EulerReport, b_euler_number, classical_euler_number, euler_report
from .manifold_io import BUNDLED_NAMES, bundled_path, load_manifold, parse_manifold
from .obstructions import (
    BmClass,
    ClassificationVerdict,
    EdgeVerdict,
    SignGluing,
    classify_bm,
    edge_obstruction,
    equivalence_report,
    gauge_solvable,
    two_color,
)
from .windex import (
    BPlaneField,
    ChartZero,
    IndexResult,
    PlaneField,
    VerificationReport,
    ZeroIndex,
    b_frame_index,
    default_center,
    default_radius,
    named_b_field,
    named_field,
    sphere_height_example,
    verify_poincare_hopf,
    winding_index,
)

__version__ = "0.1.0"

# spheremap needs numpy, so it is imported on first use (PEP 562)
_SPHEREMAP_NAMES = (
    "CheckItem",
    "CheckReport",
    "SphereMapReport",
    "degree_integral",
    "degree_preimage",
    "homotopy_endpoints",
    "north_pole",
    "pole_map",
    "pole_map_differential",
    "reflection",
    "sphere_map_report",
    "tangent_frame",
)


def __getattr__(name: str):
    if name in _SPHEREMAP_NAMES:
        from . import spheremap

        return getattr(spheremap, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SPHEREMAP_NAMES))


__all__ = [
    "BGraph",
    "BPlaneField",
    "BTangentError",
    "BmClass",
    "BUNDLED_NAMES",
    "ChartZero",
    "ClassificationVerdict",
    "Coloring",
    "EdgeVerdict",
    "EulerReport",
    "EvenDimensionError",
    "HypersurfaceComponent",
    "ImproperColoringError",
    "InconsistentGluingError",
    "IndexResult",
    "InvalidArgumentError",
    "InvalidZError",
    "ManifoldFormatError",
    "NonClosedSurfaceError",
    "NonConvergentError",
    "NonTangentInputError",
    "NonUnitInputError",
    "NotColorableError",
    "NotOrientableError",
    "OddDimensionError",
    "PlaneField",
    "Region",
    "SignGluing",
    "TriangulatedSurface",
    "UnsupportedDimensionError",
    "VerificationReport",
    "ZeroIndex",
    "ZeroOnContourError",
    "ZeroOnCriticalSetError",
    "b_euler_number",
    "b_frame_index",
    "build_graph_from_surface",
    "bundled_path",
    "classical_euler_number",
    "classify_bm",
    "edge_obstruction",
    "equivalence_report",
    "euler_report",
    "gauge_solvable",
    "load_manifold",
    "default_center",
    "default_radius",
    "named_b_field",
    "named_field",
    "parse_manifold",
    "sphere_equator_graph",
    "sphere_height_example",
    "surface_euler",
    "surface_orientable",
    "two_color",
    "verify_poincare_hopf",
    "winding_index",
    *_SPHEREMAP_NAMES,
]
