"""Winding-number indices of plane vector fields, and the named fields.

Indices are computed as sampled winding numbers on small circles.  Fields
near a critical line {x = 0} come in two flavors: the honest field
(x*a(x,y), b(x,y)) and its rescaled frame coefficients (a, b).  Their
indices at a common zero differ exactly by the sign of the region the zero
sits in, which is what makes the signed index sum match the rescaled Euler
number (``obstructions.verify_poincare_hopf``).
"""
from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Optional, Tuple

from .errors import InvalidArgumentError, NonConvergentError, ZeroOnContourError

__all__ = [
    "BPlaneField", "IndexResult", "PlaneField", "b_frame_index", "default_center",
    "default_radius", "field_index", "named_b_field", "named_field", "winding_index",
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


def _known(name: str) -> str:
    """name, or InvalidArgumentError if it is not in FIELD_NAMES.

    Tuple membership compares by equality, so an unhashable name gets the
    same error as any other.
    """
    if name not in FIELD_NAMES:
        raise InvalidArgumentError(f"unknown field {name!r}")
    return name


def named_field(name: str, delta: float = 0.0) -> PlaneField:
    """Look up a built-in plane field by name.

    Known names are FIELD_NAMES; x_delta takes delta.  Each field but
    sphere_height_b is the honest form of its rescaled frame.
    """
    if _known(name) == "sphere_height_b":
        return _sphere_height_chart
    return named_b_field(name, delta).honest()


def named_b_field(name: str, delta: float = 0.0) -> BPlaneField:
    """Rescaled-frame version of a built-in field, where one exists.

    Raises:
        InvalidArgumentError: unknown name, or sphere_height_b, which has no
            rescaled frame.
    """
    if _known(name) == "x_delta":
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
    if _known(name) == "x_delta":
        return (delta, 0.0)
    return (0.0, 0.0)


def default_radius(name: str, delta: float = 0.0) -> float:
    """Default contour radius: 0.1, at most |delta|/2 for x_delta with delta != 0.

    Half the bound that ``_own_zero_radius`` puts on any radius.
    """
    if _known(name) == "x_delta" and delta != 0:
        return min(0.1, abs(delta) / 2)
    return 0.1


def _own_zero_radius(name: str, delta: float, radius) -> float:
    """radius as a float, for a contour around the field's zero that meets no other.

    x_delta with delta != 0 also vanishes at the origin, with index
    -sign(delta).  A contour around (delta, 0) of radius >= |delta| meets or
    encloses that zero and crosses the critical line x = 0, in either frame.

    Raises:
        InvalidArgumentError: radius not a finite positive real, or >= |delta| for x_delta.
    """
    r = _contour_radius(radius)
    if _known(name) == "x_delta" and delta != 0 and r >= abs(delta):
        raise InvalidArgumentError(
            f"radius {r} around ({delta}, 0.0) reaches the critical line x = 0 and the zero "
            f"of x_delta at the origin: it must be below |delta| = {abs(delta)}"
        )
    return r


def field_index(name: str, delta: float = 0.0, radius: Optional[float] = None,
                frame: str = "honest") -> IndexResult:
    """Winding index of a built-in field around its own zero, as the
    ``index`` subcommand reports it.

    The contour is centred at ``default_center``, and its radius defaults
    to ``default_radius``.  For x_delta with delta != 0 a radius must stay
    below |delta|, or the contour would meet or enclose the field's second
    zero at the origin; ``winding_index`` itself checks no such rule.
    frame "honest" takes the index of the field itself, "b" that of its
    rescaled frame (``b_frame_index``).

    Raises:
        InvalidArgumentError: unknown frame or name, sphere_height_b in the
            "b" frame, or a radius that is not a finite positive real or
            reaches the other zero of x_delta.
        ZeroOnContourError / NonConvergentError: as ``winding_index``.
    """
    if frame not in ("honest", "b"):
        raise InvalidArgumentError(f"unknown frame {frame!r}; have 'honest' and 'b'")
    radius = default_radius(name, delta) if radius is None else radius
    radius = _own_zero_radius(name, delta, radius)
    center = default_center(name, delta)
    if frame == "b":
        return b_frame_index(named_b_field(name, delta), center, radius)
    return winding_index(named_field(name, delta), center, radius)
