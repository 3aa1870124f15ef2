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
from operator import attrgetter, eq
from typing import ClassVar, Dict, List, Optional

from .bgraph import BGraph, Coloring
from .errors import InconsistentGluingError, InvalidArgumentError, NotOrientableError


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
    lexicographically smallest region label receives +1.  That root's sign
    fixes the component's proper coloring, so neighbour order is free.
    Every call runs the search; the analyses of one graph share one result
    through ``_canonical_coloring``.
    """
    a = list(map(attrgetter("side_a"), g.edges))
    b = list(map(attrgetter("side_b"), g.edges))
    if any(map(eq, a, b)):  # a loop edge
        return None
    adj: Dict[str, List[str]] = {r.label: [] for r in g.regions}
    for u, w in zip(a, b):
        adj[u].append(w)
        adj[w].append(u)
    color: Dict[str, int] = {}
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 1
        queue = [start]
        for u in queue:
            other = -color[u]
            for w in adj[u]:
                if w not in color:
                    color[w] = other
                    queue.append(w)
                elif color[w] != other:
                    return None
    return Coloring(color)


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
    each region stores its bit relative to its class root: an equation
    either merges two classes or is checked against the class they already
    share.  This takes O(E * alpha(V)) time and O(V) memory.  The returned
    assignment is normalized so that, in every class, the smallest region
    label gets +1, matching two_color.

    Raises:
        InconsistentGluingError: the gluing belongs to a different graph.
    """
    if gluing.graph != g:
        raise InconsistentGluingError("the sign gluing belongs to a different region graph")
    parent = {lab: lab for lab in g.region_labels()}
    bit = dict.fromkeys(parent, 0)  # x_lab + x_parent[lab] over GF(2)
    size = dict.fromkeys(parent, 1)

    def root(lab: str) -> str:
        path = []
        while parent[lab] != lab:
            path.append(lab)
            lab = parent[lab]
        acc = 0
        for node in reversed(path):
            acc ^= bit[node]
            bit[node] = acc
            parent[node] = lab
        return lab

    for e in g.edges:
        ra, rb = e.side_a, e.side_b
        ua, ub = root(ra), root(rb)
        # the equation x_ra + x_rb = 1 restated on the two roots: x_ua + x_ub = rhs
        rhs = bit[ra] ^ bit[rb] ^ 1
        if ua == ub:
            if rhs:
                return None
            continue
        if size[ua] < size[ub]:
            ua, ub = ub, ua
        parent[ub] = ua
        bit[ub] = rhs
        size[ua] += size[ub]

    signs: Dict[str, int] = {}
    flip: Dict[str, int] = {}
    for lab in sorted(parent):
        r = root(lab)
        signs[lab] = -1 if bit[lab] ^ flip.setdefault(r, bit[lab]) else 1
    return Coloring(signs)


def classify_bm(m: int) -> BmClass:
    """Classify the order-m rescaled tangent bundle up to isomorphism.

    Rescaling by an even power of a defining function can be gauged away
    entirely; an odd power reduces to the order-one case.
    """
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


def circle_criterion(k: int) -> bool:
    """Isomorphism criterion for the circle with k marked points: k even."""
    if k < 0:
        raise InvalidArgumentError("k must be >= 0")
    return k % 2 == 0


def edge_obstruction(g: BGraph, dim_m: int, dim_f: int) -> EdgeVerdict:
    """Necessary-condition test for edge-rescaled bundles.

    The coloring obstruction applies only when dim_m - dim_f, the ambient
    dimension minus the typical fibre dimension, is odd.  In that case a
    non-colorable graph rules the isomorphism out; in every other case the
    test is silent (even codimension genuinely escapes: the circle fibered
    over itself inside the sphere admits an isomorphism despite Z).

    Raises:
        InvalidArgumentError: unless 0 <= dim_f < dim_m.
    """
    if not 0 <= dim_f < dim_m:
        raise InvalidArgumentError(f"need 0 <= dim_f < dim_m, got dim_f={dim_f}, dim_m={dim_m}")
    if (dim_m - dim_f) % 2 == 1 and _canonical_coloring(g) is None:
        return EdgeVerdict.OBSTRUCTED
    return EdgeVerdict.INCONCLUSIVE
