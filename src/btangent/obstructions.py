"""Existence tests for rescaled-tangent-bundle isomorphisms.

Whether the tangent bundle of a pair (M, Z) is isomorphic to its singular
variant is a property of the region graph alone: it holds exactly when the
graph admits a proper two-coloring by signs.  The same coloring question is
solved twice on purpose, once by breadth-first search and once as a GF(2)
linear system over the edge constraints, so each route checks the other.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, List, Optional

from .bgraph import BGraph, Coloring
from .errors import InconsistentGluingError, InvalidArgumentError, NotOrientableError, _as_int

__all__ = [
    "BmClass", "ClassificationVerdict", "EdgeVerdict", "SignGluing", "classify_bm",
    "edge_obstruction", "equivalence_report", "gauge_solvable", "two_color",
]


class BmClass(Enum):
    """Which classical bundle a tangency-order-m rescaling is isomorphic to."""

    TANGENT_EQUIVALENT = "TangentEquivalent"
    B_TANGENT_EQUIVALENT = "BTangentEquivalent"


class EdgeVerdict(Enum):
    OBSTRUCTED = "Obstructed"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SignGluing:
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


@dataclass(frozen=True)
class ClassificationVerdict:
    """The isomorphism verdict for one region graph, held as its coloring.

    The graph is two-colorable exactly when a proper coloring exists; every
    other criterion in the JSON form restates that same answer.
    """

    coloring: Optional[Coloring]
    pontrjagin_note: ClassVar[str] = "2p(TM) = 2p(bTM) always"

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
