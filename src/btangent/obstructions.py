"""Obstructions read from the region graph of a pair (M, Z).

The graph alone gives four answers about the rescaled tangent bundle:
whether it is isomorphic to TM, which holds exactly when the graph admits a
proper two-coloring by signs; the necessary condition for edge-rescaled
bundles, read from the same coloring in odd codimension; its relative Euler
number, the coloring-weighted sum of region Euler characteristics, beside
the classical plain sum; and the Poincare-Hopf match of that number with
the colored sum of a field's winding indices.  The coloring question is
solved twice on purpose, once by breadth-first search and once as a GF(2)
linear system over the edge constraints, so each route checks the other.
"""
from __future__ import annotations

import math
from enum import Enum
from operator import mul
from typing import TYPE_CHECKING, Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .bgraph import BGraph, Coloring, sphere_equator_graph
from .errors import (
    ImproperColoringError,
    InconsistentGluingError,
    InvalidArgumentError,
    NotColorableError,
    NotOrientableError,
    OddDimensionError,
    ZeroOnCriticalSetError,
    _as_int,
)

# the index-sum check alone reads plane fields: it imports windex where it
# runs, so that analyze, color, edge and euler never load it
if TYPE_CHECKING:
    from .windex import PlaneField

__all__ = [
    "BmClass", "ChartZero", "ClassificationVerdict", "EdgeVerdict", "EulerReport", "SignGluing",
    "VerificationReport", "ZeroIndex", "b_euler_number", "classical_euler_number", "classify_bm",
    "edge_obstruction", "equivalence_report", "euler_report", "gauge_solvable",
    "sphere_height_example", "two_color", "verify_poincare_hopf",
]


class BmClass(Enum):
    """Which classical bundle a tangency-order-m rescaling is isomorphic to."""

    TANGENT_EQUIVALENT = "TangentEquivalent"
    B_TANGENT_EQUIVALENT = "BTangentEquivalent"


class EdgeVerdict(Enum):
    OBSTRUCTED = "Obstructed"
    INCONCLUSIVE = "Inconclusive"


class SignGluing(NamedTuple):
    """The sign gluing of a region graph, which the graph alone determines.

    The rescaling forces the two side signs of every edge to multiply to
    -1, so a graph has exactly one gluing up to which side is called +1.
    """

    graph: BGraph

    @classmethod
    def canonical(cls, g: BGraph) -> "SignGluing":
        """The gluing of g: +1 on side_a, -1 on side_b of every edge."""
        return cls(g)


# Criteria equivalent to two-colorability for an orientable M: each restates
# the one answer through a different invariant, so a verdict reports each
# name with the two_colorable value.
_EQUIVALENT_CRITERIA = (
    "line_bundle_trivial",
    "sw_classes_equal",
    "b_tangent_orientable",
    "global_defining_function",
    "ko_classes_equal",
)


class ClassificationVerdict(NamedTuple):
    """The isomorphism verdict for one region graph, held as its coloring.

    The graph is two-colorable exactly when a proper coloring exists; every
    other criterion in the JSON form restates that same answer.
    """

    coloring: Optional[Coloring]
    pontrjagin_note = "2p(TM) = 2p(bTM) always"  # unannotated, so not a field

    @property
    def two_colorable(self) -> bool:
        return self.coloring is not None

    def to_json_dict(self) -> dict:
        return {
            "two_colorable": self.two_colorable,
            "coloring": None if self.coloring is None else self.coloring.to_json_dict(),
            **dict.fromkeys(_EQUIVALENT_CRITERIA, self.two_colorable),
            "pontrjagin_note": self.pontrjagin_note,
        }


def two_color(g: BGraph) -> Optional[Coloring]:
    """Proper sign coloring of the region graph, or None if none exists.

    Deterministic tie-break: in every connected component the
    lexicographically smallest region label receives +1.  The search runs
    on the graph's integer form, and starts from the regions in sorted
    label order, so each component's first region is its smallest.  That
    root's sign fixes the component's proper coloring, so neighbour order
    is free.  A loop edge meets its own region as a colour conflict.
    Every call runs the search; the analyses of one graph share one result
    through ``_canonical_coloring``.
    """
    labels, a, b = g._columns
    adj: List[List[int]] = [[] for _ in labels]
    for u, w in zip(a, b):
        adj[u].append(w)
        adj[w].append(u)
    color = [0] * len(labels)  # 0 until the search reaches the region
    for start in range(len(labels)):
        if color[start]:
            continue
        color[start] = 1
        queue = [start]
        for u in queue:
            other = -color[u]
            for w in adj[u]:
                if not color[w]:
                    color[w] = other
                    queue.append(w)
                elif color[w] != other:
                    return None
    return Coloring(dict(zip(labels, color)))


def _canonical_coloring(g: BGraph) -> Optional[Coloring]:
    """``two_color(g)``, run once per graph and shared by every analysis of it.

    The one memo of the BFS coloring.  It is kept on the graph outside its
    dataclass fields, so equality, hashing, repr and JSON never see it, and
    a graph built by ``dataclasses.replace`` starts without it.
    ``two_color`` itself always runs the search, and ``gauge_solvable``
    never reads the memo, so the two routes stay independent.
    """
    memo = vars(g)
    if "_two_color" not in memo:
        memo["_two_color"] = two_color(g)
    return memo["_two_color"]


def gauge_solvable(gluing: SignGluing, g: BGraph) -> Optional[Coloring]:
    """Solve the sign system of the graph's gluing as GF(2) linear algebra.

    Each edge's side signs multiply to -1, so it demands opposite signs on
    its two regions.  Encoding -1 as the bit 1 turns this into one linear
    equation x_a + x_b = 1 per edge.  Every equation has exactly two
    unknowns, so Gaussian elimination specializes to a union-find in which
    each region stores its bit relative to its parent.  Each end of an
    edge walks to its root by path halving: it folds its parent's bit into
    its own, points at its grandparent and steps there, and the bits it
    folds restate the equation on the two roots.  Different roots are
    joined by hooking the larger index onto the smaller; a shared root
    checks the restated equation.  Path halving keeps finds O(log V)
    amortized with no rank array (Tarjan and van Leeuwen 1984), in O(V)
    memory, on the graph's integer form.

    Every link points to a smaller index, so one forward pass over the
    regions turns each bit into the bit relative to its class root.  That
    root is the class's smallest index, and labels are sorted, so in
    every class the smallest region label gets +1, matching two_color.

    Raises:
        InconsistentGluingError: the gluing belongs to a different graph.
    """
    if gluing.graph != g:
        raise InconsistentGluingError("the sign gluing belongs to a different region graph")
    labels, a, b = g._columns
    parent = list(range(len(labels)))
    bit = [0] * len(labels)  # x_u + x_parent[u] over GF(2), so 0 at a root
    for u, w in zip(a, b):
        rhs = 1  # the equation x_u + x_w = 1, restated as u and w climb
        while (p := parent[u]) != u:
            bit[u] ^= bit[p]
            rhs ^= bit[u]
            parent[u] = u = parent[p]
        while (p := parent[w]) != w:
            bit[w] ^= bit[p]
            rhs ^= bit[w]
            parent[w] = w = parent[p]
        if u < w:
            parent[w] = u
            bit[w] = rhs
        elif w < u:
            parent[u] = w
            bit[u] = rhs
        elif rhs:
            return None
    for u, p in enumerate(parent):  # p <= u, so bit[p] is already final
        bit[u] ^= bit[p]
    return Coloring(dict(zip(labels, map((1, -1).__getitem__, bit))))


def classify_bm(m: int) -> BmClass:
    """Classify the order-m rescaled tangent bundle up to isomorphism.

    Rescaling by an even power of a defining function can be gauged away
    entirely; an odd power reduces to the order-one case.
    """
    m = _as_int(m, "m")
    if m < 1:
        raise InvalidArgumentError(f"tangency order must be >= 1, got {m}")
    return BmClass.TANGENT_EQUIVALENT if m % 2 == 0 else BmClass.B_TANGENT_EQUIVALENT


def equivalence_report(g: BGraph) -> ClassificationVerdict:
    """Evaluate the full ring of equivalent criteria on one graph.

    Raises:
        NotOrientableError: the ambient manifold is flagged non-orientable;
            the bundle-level reformulations assume orientability of M.
    """
    if not g.orientable:
        raise NotOrientableError("equivalence_report requires an orientable ambient manifold")
    return ClassificationVerdict(_canonical_coloring(g))


def edge_obstruction(g: BGraph, dim_m: int, dim_f: int) -> EdgeVerdict:
    """Necessary-condition test for edge-rescaled bundles.

    The coloring obstruction applies only when dim_m - dim_f, the ambient
    dimension minus the typical fibre dimension, is odd.  In that case a
    non-colorable graph rules the isomorphism out; in every other case the
    test is silent (even codimension genuinely escapes: the circle fibered
    over itself inside the sphere admits an isomorphism despite Z).

    Raises:
        InvalidArgumentError: dim_m or dim_f not an integer, or not
            0 <= dim_f < dim_m.
    """
    dim_m = _as_int(dim_m, "dim_m")
    dim_f = _as_int(dim_f, "dim_f")
    if not 0 <= dim_f < dim_m:
        raise InvalidArgumentError(f"need 0 <= dim_f < dim_m, got dim_f={dim_f}, dim_m={dim_m}")
    if (dim_m - dim_f) % 2 == 1 and _canonical_coloring(g) is None:
        return EdgeVerdict.OBSTRUCTED
    return EdgeVerdict.INCONCLUSIVE


class EulerReport(NamedTuple):
    b_euler: int
    classical_euler: int
    coloring_used: Coloring

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "coloring_used": self.coloring_used.to_json_dict()}


def b_euler_number(g: BGraph, coloring: Coloring) -> int:
    """Signed region sum sum_U c(U) chi(U) for a proper coloring c.

    Raises:
        ImproperColoringError: coloring is not total or violates an edge.
        OddDimensionError: ambient dimension is odd (both Euler numbers
            vanish identically there; the sum would be meaningless).
    """
    if g.ambient_dim % 2 != 0:
        raise OddDimensionError(
            f"b-Euler number needs even ambient dimension, got {g.ambient_dim}"
        )
    if not coloring.is_proper(g):
        raise ImproperColoringError("coloring is not a proper sign coloring of the graph")
    return sum(map(mul, map(coloring.assignment.__getitem__, g._label), g._chi))


def classical_euler_number(g: BGraph) -> int:
    """Euler characteristic of the ambient manifold as the plain region sum.

    This is the one place the sum is taken.  It equals chi(M) in every even
    dimension n: cutting M open along the two-sided hypersurface Z leaves
    the disjoint union of the region closures, bounded by two copies of Z,
    so chi(M) = sum_U chi(closure of U) - chi(Z).  Z is a closed manifold of
    odd dimension n - 1, hence chi(Z) = 0.

    Raises:
        OddDimensionError: ambient dimension is odd.
    """
    if g.ambient_dim % 2 != 0:
        raise OddDimensionError(
            f"classical Euler number needs even ambient dimension, got {g.ambient_dim}"
        )
    return sum(g._chi)


def euler_report(g: BGraph) -> EulerReport:
    """Both Euler numbers under the canonical coloring.

    Raises:
        OddDimensionError: ambient dimension is odd.
        NotColorableError: the graph admits no proper sign coloring, so the
            rescaled bundle has no well-defined relative Euler number.
    """
    classical = classical_euler_number(g)
    coloring = _canonical_coloring(g)
    if coloring is None:
        raise NotColorableError("graph is not two-colorable; no global sign choice exists")
    return EulerReport(b_euler_number(g, coloring), classical, coloring)


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
    from .windex import _contour_radius, winding_index

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
    from .windex import named_field

    g = sphere_equator_graph()
    chart = named_field("sphere_height_b")
    fields = {"north": chart, "south": chart}
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
