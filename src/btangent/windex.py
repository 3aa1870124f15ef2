"""Winding-number indices of plane vector fields and index-sum verification.

Indices are computed as sampled winding numbers on small circles.  Fields
near a critical line {x = 0} come in two flavors: the honest field
(x*a(x,y), b(x,y)) and its rescaled frame coefficients (a, b).  Their
indices at a common zero differ exactly by the sign of the region the zero
sits in, which is what makes the signed index sum match the rescaled Euler
number.
"""
from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    InvalidArgumentError,
    NonConvergentError,
    NotColorableError,
    ZeroOnContourError,
    ZeroOnCriticalSetError,
)

if TYPE_CHECKING:  # the index subcommand loads no graph code
    from .bgraph import BGraph, Coloring

__all__ = [
    "BPlaneField", "ChartZero", "IndexResult", "PlaneField", "VerificationReport", "ZeroIndex",
    "b_frame_index", "default_center", "default_radius", "named_b_field", "named_field",
    "sphere_height_example", "verify_poincare_hopf", "winding_index",
]

PlaneField = Callable[[float, float], Tuple[float, float]]

ZERO_TOLERANCE = 1e-12
MIN_SAMPLES = 64
MAX_SAMPLES = 1 << 16
MAX_STEP = math.pi / 2

FIELD_NAMES = ("x_delta", "radial", "saddle", "x0_degenerate", "sphere_height_b")


class BPlaneField(NamedTuple):
    """Coefficients of a field x*a(x,y)*d/dx + b(x,y)*d/dy near the line x = 0."""

    a: Callable[[float, float], float]
    b: Callable[[float, float], float]

    def honest(self) -> PlaneField:
        """The underlying ordinary vector field (x*a, b)."""
        return lambda x, y: (x * self.a(x, y), self.b(x, y))

    def frame(self) -> PlaneField:
        """The coefficient pair (a, b) read in the rescaled frame."""
        return lambda x, y: (self.a(x, y), self.b(x, y))


class IndexResult(NamedTuple):
    index: int  # shadows tuple.index, as namedtuple permits
    radius_used: float
    samples_used: int
    max_step_radians: float

    def to_json_dict(self) -> dict:
        return self._asdict()


def _real(x) -> bool:
    """Whether x is a real number; a bool is not a real here."""
    from numbers import Real  # numpy registers its numbers here; lazy, off the import path

    return isinstance(x, Real) and not isinstance(x, bool)


def _finite_float(x) -> Optional[float]:
    """x as a float if it is a finite real, else None."""
    if not _real(x):
        return None
    try:
        x = float(x)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _contour_radius(radius) -> float:
    """The radius as a float, so the contour is sampled in double precision.

    Raises:
        InvalidArgumentError: radius not a finite positive real.
    """
    r = _finite_float(radius)
    if r is None or r <= 0:
        raise InvalidArgumentError(f"radius must be finite and positive, got {radius!r}")
    return r


def _is_pair(center) -> bool:
    """Whether center (or a field value) is a tuple, a list or a 1-D numpy array of length 2.

    A dict or a set is not, although either unpacks into two values: a
    dict into its keys and a set in an order that depends on hashing.
    """
    numpy = sys.modules.get("numpy")  # an array exists only once numpy is loaded
    sequence = isinstance(center, (tuple, list)) or (
        numpy is not None and isinstance(center, numpy.ndarray) and center.ndim == 1)
    return sequence and len(center) == 2


def winding_index(field: PlaneField, center: Tuple[float, float], radius: float) -> IndexResult:
    """Degree of field/|field| on the circle of given center and radius.

    Sampling starts at 64 points and doubles until every consecutive angle
    step is below pi/2, capped at 2**16 points.  Angle increments are summed
    in fixed sample order, so results are reproducible bit for bit.  The
    radius and center are converted to float first, so the field always
    sees double-precision points, and messages quote the converted values.

    Raises:
        ZeroOnContourError: |field| <= 1e-12 at some sample point.
        NonConvergentError: the cap is reached with steps still >= pi/2.
        InvalidArgumentError: radius not a finite positive real, center not
            a tuple, list or 1-D numpy array of two finite reals (a bool is
            not a real), or a field value at a sample point that is not two
            finite reals by the same rule, or a radius so small against the
            center that center + radius rounds to the center.
    """
    radius = _contour_radius(radius)
    cx, cy = center if _is_pair(center) else (None, None)
    cx, cy = _finite_float(cx), _finite_float(cy)
    if cx is None or cy is None:
        raise InvalidArgumentError(f"center must be two finite reals, got {center!r}")
    center = (cx, cy)
    if cx + radius == cx or cy + radius == cy:
        raise InvalidArgumentError(
            f"radius {radius} vanishes against center {center} in double precision: "
            f"the contour collapses onto its center"
        )
    n = MIN_SAMPLES
    while True:
        angles = [2.0 * math.pi * k / n for k in range(n)]
        values = []
        for k, t in enumerate(angles):
            value = field(cx + radius * math.cos(t), cy + radius * math.sin(t))
            u, v = value if _is_pair(value) else (None, None)
            if not (_real(u) and _real(v)):
                raise InvalidArgumentError(
                    f"field is not two reals at sample {k}/{n} on the contour "
                    f"(center {center}, radius {radius})"
                )
            u, v = _finite_float(u), _finite_float(v)
            if u is None or v is None:
                raise InvalidArgumentError(
                    f"field is not finite at sample {k}/{n} on the contour "
                    f"(center {center}, radius {radius})"
                )
            size = math.hypot(u, v)
            if size <= ZERO_TOLERANCE:
                raise ZeroOnContourError(
                    f"|field| = {size:.3g} is within the zero tolerance {ZERO_TOLERANCE:g} "
                    f"at sample {k}/{n} on the contour (center {center}, radius {radius})"
                )
            values.append(math.atan2(v, u))
        total = 0.0
        max_step = 0.0
        for k in range(n):
            d = values[(k + 1) % n] - values[k]
            while d <= -math.pi:
                d += 2.0 * math.pi
            while d > math.pi:
                d -= 2.0 * math.pi
            total += d
            max_step = max(max_step, abs(d))
        if max_step < MAX_STEP:
            return IndexResult(
                index=round(total / (2.0 * math.pi)),
                radius_used=radius,
                samples_used=n,
                max_step_radians=max_step,
            )
        if n >= MAX_SAMPLES:
            raise NonConvergentError(
                f"angle steps still reach {max_step:.3f} rad at {n} samples"
            )
        n *= 2


def b_frame_index(field: BPlaneField, center: Tuple[float, float], radius: float) -> IndexResult:
    """Winding index of the rescaled-frame coefficients (a, b)."""
    return winding_index(field.frame(), center, radius)


# ---------------------------------------------------------------------------
# named fields
# ---------------------------------------------------------------------------


def _sphere_height_chart(x: float, y: float) -> Tuple[float, float]:
    # height * (minus the height gradient) of the round sphere, written in a
    # stereographic chart; same formula in both charts by symmetry.
    s = x * x + y * y
    f = (1.0 - s) / (1.0 + s)
    return (f * x, f * y)


def named_field(name: str, delta: float = 0.0) -> PlaneField:
    """Look up a built-in plane field by name.

    Known names are FIELD_NAMES; x_delta takes delta.  Each field but
    sphere_height_b is the honest form of its rescaled frame.
    """
    if name == "sphere_height_b":
        return _sphere_height_chart
    if name not in FIELD_NAMES:
        raise InvalidArgumentError(f"unknown field {name!r}")
    return named_b_field(name, delta).honest()


def named_b_field(name: str, delta: float = 0.0) -> BPlaneField:
    """Rescaled-frame version of a built-in field, where one exists."""
    if name == "x_delta":
        return BPlaneField(a=lambda x, y: x - delta, b=lambda x, y: y)
    if name == "radial":
        return BPlaneField(a=lambda x, y: 1.0, b=lambda x, y: y)
    if name == "saddle":
        return BPlaneField(a=lambda x, y: 1.0, b=lambda x, y: -y)
    if name == "x0_degenerate":
        return BPlaneField(a=lambda x, y: x, b=lambda x, y: y)
    raise InvalidArgumentError(f"no rescaled frame for field {name!r}")


def default_center(name: str, delta: float = 0.0) -> Tuple[float, float]:
    """Zero location of a built-in field, used as the default contour center."""
    if name == "x_delta":
        return (delta, 0.0)
    return (0.0, 0.0)


def default_radius(name: str, delta: float = 0.0) -> float:
    """Default contour radius: 0.1, at most |delta|/2 for x_delta with delta != 0.

    x_delta also vanishes at the origin, so a contour around (delta, 0) must
    stay closer than |delta| to enclose only its own zero.
    """
    if name == "x_delta" and delta != 0:
        return min(0.1, abs(delta) / 2)
    return 0.1


# ---------------------------------------------------------------------------
# index-sum verification on the two-chart sphere
# ---------------------------------------------------------------------------


class ChartZero(NamedTuple):
    """A claimed zero of the field: chart name, chart point, region label."""

    chart: str
    point: Tuple[float, float]
    region: str


class ZeroIndex(NamedTuple):
    chart: str
    point: Tuple[float, float]
    region: str
    index: int

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "point": list(self.point)}


class VerificationReport(NamedTuple):
    """Outcome of comparing an index sum with the rescaled Euler number."""

    zeros: Tuple[ZeroIndex, ...]
    colored_sum: int
    b_euler: int
    unsigned_sum: int
    classical_euler: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "zeros": [z.to_json_dict() for z in self.zeros]}


def verify_poincare_hopf(
    zeros: Sequence[ChartZero],
    g: BGraph,
    coloring: Optional[Coloring],
    fields: Mapping[str, PlaneField],
    radius: float = 0.1,
    critical_distance: Optional[Callable[[str, Tuple[float, float]], float]] = None,
) -> VerificationReport:
    """Check sum_p c(p) ind(p) == b-Euler number on caller-supplied zeros.

    Args:
        zeros: the complete zero list of the field, each tagged with the
            chart it is visible in and the region containing it.
        g: region graph of the underlying pair.
        coloring: proper sign coloring used to weight the indices, as
            two_color returns it (None when the graph has none).
        fields: chart name -> plane field giving the honest field there.
        radius: contour radius for every index computation.
        critical_distance: optional (chart, point) -> distance to the
            critical set in chart coordinates.  When given, any zero within
            `radius` of the critical set is rejected.

    Raises:
        NotColorableError: coloring is None; without a global sign choice
            the colored index sum has no meaning.
        InvalidArgumentError: radius not a finite positive real (checked
            before any zero), or a zero names a chart missing from
            `fields`, or a region missing from the graph or the coloring.
        ImproperColoringError: coloring is not a proper coloring of g.
        OddDimensionError: the ambient dimension of g is odd.
        ZeroOnCriticalSetError: a listed zero sits on or too near Z, where
            winding indices of the honest field are not defined.

    The pass flag records exact integer equality of the colored index sum
    with the rescaled Euler number; no tolerance is involved.
    """
    from .euler import b_euler_number, classical_euler_number

    if coloring is None:
        raise NotColorableError("graph is not two-colorable; no global sign choice exists")
    radius = _contour_radius(radius)
    labels = set(g.region_labels())
    for z in zeros:
        if z.chart not in fields:
            raise InvalidArgumentError(f"zero {z.point} is in chart {z.chart!r}, which has no field")
        if z.region not in labels or z.region not in coloring.assignment:
            raise InvalidArgumentError(
                f"zero {z.point} names region {z.region!r}, which the graph or coloring lacks"
            )
    # the sums check the coloring and the dimension before any field is evaluated
    be = b_euler_number(g, coloring)
    classical = classical_euler_number(g)
    results: List[ZeroIndex] = []
    for z in zeros:
        if critical_distance is not None:
            d = critical_distance(z.chart, z.point)
            if d <= radius:
                raise ZeroOnCriticalSetError(
                    f"zero {z.point} in chart {z.chart!r} is within {d:.3g} of the critical set"
                )
        res = winding_index(fields[z.chart], z.point, radius)
        results.append(ZeroIndex(z.chart, z.point, z.region, res.index))
    colored = sum(coloring[r.region] * r.index for r in results)
    unsigned = sum(r.index for r in results)
    return VerificationReport(
        zeros=tuple(results),
        colored_sum=colored,
        b_euler=be,
        unsigned_sum=unsigned,
        classical_euler=classical,
        passed=(colored == be),
    )


def _sphere_critical_distance(chart: str, point: Tuple[float, float]) -> float:
    # the equator is the unit circle of both stereographic charts
    return abs(math.hypot(*point) - 1.0)


def sphere_height_example() -> dict:
    """Everything needed to verify the index sum on the round sphere.

    The field is the height function times its negated gradient: a section
    of the rescaled bundle along the equator, with honest zeros exactly at
    the poles.  Charts are the two stereographic projections; each pole is
    the origin of one chart.
    """
    from .bgraph import sphere_equator_graph

    g = sphere_equator_graph()
    fields = {"north": _sphere_height_chart, "south": _sphere_height_chart}
    zeros = (
        ChartZero("north", (0.0, 0.0), "B+"),
        ChartZero("south", (0.0, 0.0), "B-"),
    )
    return {
        "graph": g,
        "fields": fields,
        "zeros": zeros,
        "critical_distance": _sphere_critical_distance,
    }
