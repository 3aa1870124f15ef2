"""Combinatorial model of a closed manifold cut by a critical hypersurface.

The critical hypersurface Z of a pair (M, Z) decomposes M into open regions.
The bookkeeping that the bundle-level questions actually depend on is a
decorated multigraph: one node per region of M \\ Z carrying its Euler
characteristic, one edge per connected component of Z joining the (one or
two) regions it touches.  Components of Z that do not separate their
neighborhood produce loop edges.

Graphs can be written down directly or derived from a triangulated closed
surface with a marked cycle system.
"""
from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import InvalidZError, NonClosedSurfaceError

Edge2 = Tuple[int, int]
Triangle = Tuple[int, int, int]


@dataclass(frozen=True)
class Region:
    """A connected component of the complement of the hypersurface.

    Attributes:
        label: unique name of the region.
        euler_char: Euler characteristic of the closure of the region.
    """

    label: str
    euler_char: int


@dataclass(frozen=True)
class HypersurfaceComponent:
    """A connected component of the critical hypersurface.

    ``side_a == side_b`` encodes a component whose two sides meet the same
    region (a loop edge of the graph).  The component's own Euler
    characteristic is stored for completeness; for curves it is zero.
    """

    label: str
    side_a: str
    side_b: str
    euler_char: int = 0

    @property
    def is_loop(self) -> bool:
        return self.side_a == self.side_b


@dataclass(frozen=True)
class ValidationReport:
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class BGraph:
    """Region graph of a pair (M, Z), with ambient metadata.

    The orientability flag describes M itself and is trusted as given for
    hand-written graphs; graphs built from a triangulation get it computed.
    """

    regions: Tuple[Region, ...]
    edges: Tuple[HypersurfaceComponent, ...]
    ambient_dim: int = 2
    orientable: bool = True

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "edges", tuple(self.edges))

    def region_labels(self) -> Tuple[str, ...]:
        return tuple(r.label for r in self.regions)

    def require_valid(self) -> None:
        report = validate_graph(self)
        if not report.ok:
            raise ValueError("invalid region graph: " + "; ".join(report.violations))

    def to_json_dict(self) -> dict:
        return {
            "regions": [{"label": r.label, "chi": r.euler_char} for r in self.regions],
            "edges": [
                {"label": e.label, "a": e.side_a, "b": e.side_b} for e in self.edges
            ],
            "ambient_dim": self.ambient_dim,
            "orientable": self.orientable,
        }


@dataclass(frozen=True)
class Coloring:
    """An assignment of +1 / -1 to every region label."""

    assignment: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))
        for label, value in self.assignment.items():
            if value not in (1, -1):
                raise ValueError(f"color of {label!r} must be +1 or -1, got {value!r}")

    def __getitem__(self, label: str) -> int:
        return self.assignment[label]

    def negate(self) -> "Coloring":
        return Coloring({k: -v for k, v in self.assignment.items()})

    def is_total(self, g: BGraph) -> bool:
        return set(self.assignment) == set(g.region_labels())

    def is_proper(self, g: BGraph) -> bool:
        """True when every edge (loops included) joins opposite colors."""
        if not self.is_total(g):
            return False
        return all(
            self.assignment[e.side_a] * self.assignment[e.side_b] == -1
            for e in g.edges
        )

    def to_json_dict(self) -> dict:
        return dict(sorted(self.assignment.items()))


def validate_graph(g: BGraph) -> ValidationReport:
    """Check referential integrity of a region graph.

    Returns:
        A report listing every violation found; an empty report means the
        graph is well formed.
    """
    violations: List[str] = []
    labels = [r.label for r in g.regions]
    if not labels:
        violations.append("graph has no regions")
    seen = set()
    for lab in labels:
        if lab in seen:
            violations.append(f"duplicate region label {lab!r}")
        seen.add(lab)
    edge_labels = set()
    for e in g.edges:
        if e.label in edge_labels:
            violations.append(f"duplicate edge label {e.label!r}")
        edge_labels.add(e.label)
        for side in (e.side_a, e.side_b):
            if side not in seen:
                violations.append(f"edge {e.label!r} references missing region {side!r}")
    if g.ambient_dim < 1:
        violations.append(f"ambient_dim must be >= 1, got {g.ambient_dim}")
    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# triangulated surfaces
# ---------------------------------------------------------------------------


def _norm_edge(u: int, v: int) -> Edge2:
    return (u, v) if u < v else (v, u)


def _triangle_edges(t: Triangle) -> Tuple[Edge2, Edge2, Edge2]:
    a, b, c = t
    return (_norm_edge(a, b), _norm_edge(b, c), _norm_edge(a, c))


@dataclass(frozen=True)
class TriangulatedSurface:
    """A closed triangulated surface with a marked system of edge cycles.

    Attributes:
        vertex_count: vertices are the integers 0 .. vertex_count - 1.
        triangles: faces as vertex triples (stored sorted).
        z_edges: marked edges, each a pair of vertex indices.  Together they
            must form a disjoint union of embedded cycles.
    """

    vertex_count: int
    triangles: Tuple[Triangle, ...]
    z_edges: Tuple[Edge2, ...] = ()

    def __post_init__(self):
        tris = tuple(tuple(sorted(t)) for t in self.triangles)
        zs = tuple(sorted(_norm_edge(*e) for e in self.z_edges))
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "z_edges", zs)

    def edge_incidence(self) -> Dict[Edge2, List[int]]:
        inc: Dict[Edge2, List[int]] = defaultdict(list)
        for i, t in enumerate(self.triangles):
            for e in _triangle_edges(t):
                inc[e].append(i)
        return inc


def _check_closed(surf: TriangulatedSurface) -> Dict[Edge2, List[int]]:
    used = set()
    for i, t in enumerate(surf.triangles):
        if len(set(t)) != 3:
            raise NonClosedSurfaceError(f"triangle {i} is degenerate: {t}")
        for v in t:
            if not 0 <= v < surf.vertex_count:
                raise NonClosedSurfaceError(f"triangle {i} uses vertex {v} out of range")
        used.update(t)
    if len(set(surf.triangles)) != len(surf.triangles):
        raise NonClosedSurfaceError("duplicate triangle in complex")
    if used != set(range(surf.vertex_count)):
        missing = sorted(set(range(surf.vertex_count)) - used)
        raise NonClosedSurfaceError(f"isolated vertices: {missing}")
    inc = surf.edge_incidence()
    for e, ts in inc.items():
        if len(ts) != 2:
            raise NonClosedSurfaceError(
                f"edge {e} lies in {len(ts)} triangle(s); a closed surface needs 2"
            )
    return inc


def _check_z(surf: TriangulatedSurface, inc: Dict[Edge2, List[int]]) -> None:
    degree: Dict[int, int] = defaultdict(int)
    for e in surf.z_edges:
        if e not in inc:
            raise InvalidZError(f"marked edge {e} is not an edge of the complex")
        degree[e[0]] += 1
        degree[e[1]] += 1
    for v, d in sorted(degree.items()):
        if d != 2:
            raise InvalidZError(
                f"vertex {v} has degree {d} in the marked edge set; cycles need 2"
            )


def surface_euler(surf: TriangulatedSurface) -> int:
    """Euler characteristic V - E + F of a valid closed surface."""
    inc = _check_closed(surf)
    return surf.vertex_count - len(inc) + len(surf.triangles)


def surface_orientable(surf: TriangulatedSurface) -> bool:
    """Decide orientability by propagating triangle orientations.

    Neighboring triangles are consistently oriented exactly when they
    traverse their shared edge in opposite directions.
    """
    return _orientable(surf, _check_closed(surf))


def _orientable(surf: TriangulatedSurface, inc: Dict[Edge2, List[int]]) -> bool:
    flip: Dict[int, bool] = {}

    def directed(i: int) -> set:
        a, b, c = surf.triangles[i]
        if flip[i]:
            a, b, c = a, c, b
        return {(a, b), (b, c), (c, a)}

    for start in range(len(surf.triangles)):
        if start in flip:
            continue
        flip[start] = False
        queue = deque([start])
        while queue:
            u = queue.popleft()
            du = directed(u)
            for e in _triangle_edges(surf.triangles[u]):
                x, y = inc[e]
                w = y if x == u else x
                shared = next(d for d in du if _norm_edge(*d) == e)
                rev = (shared[1], shared[0])
                if w in flip:
                    if rev not in directed(w):
                        return False
                else:
                    flip[w] = False
                    if rev not in directed(w):
                        flip[w] = True
                        if rev not in directed(w):
                            return False
                    queue.append(w)
    return True


def _region_partition(surf: TriangulatedSurface, inc: Dict[Edge2, List[int]]) -> List[List[int]]:
    """Group triangles by reachability across unmarked edges (BFS)."""
    zset = set(surf.z_edges)
    adj: Dict[int, List[int]] = defaultdict(list)
    for e, (x, y) in inc.items():
        if e in zset:
            continue
        adj[x].append(y)
        adj[y].append(x)
    assigned: Dict[int, int] = {}
    groups: List[List[int]] = []
    for start in range(len(surf.triangles)):
        if start in assigned:
            continue
        rid = len(groups)
        assigned[start] = rid
        members = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in assigned:
                    assigned[w] = rid
                    members.append(w)
                    queue.append(w)
        groups.append(sorted(members))
    return groups


def _closure_euler(surf: TriangulatedSurface, members: Sequence[int]) -> int:
    verts: set = set()
    edges: set = set()
    for i in members:
        t = surf.triangles[i]
        verts.update(t)
        edges.update(_triangle_edges(t))
    return len(verts) - len(edges) + len(members)


def _z_components(surf: TriangulatedSurface) -> List[Tuple[Edge2, ...]]:
    adj: Dict[int, List[Edge2]] = defaultdict(list)
    for e in surf.z_edges:
        adj[e[0]].append(e)
        adj[e[1]].append(e)
    seen: set = set()
    comps: List[Tuple[Edge2, ...]] = []
    for e0 in surf.z_edges:
        if e0 in seen:
            continue
        comp = {e0}
        seen.add(e0)
        queue = deque([e0])
        while queue:
            e = queue.popleft()
            for v in e:
                for e2 in adj[v]:
                    if e2 not in seen:
                        seen.add(e2)
                        comp.add(e2)
                        queue.append(e2)
        comps.append(tuple(sorted(comp)))
    comps.sort()
    return comps


def build_graph_from_surface(surf: TriangulatedSurface) -> BGraph:
    """Derive the region graph of a marked triangulated surface.

    Regions are connected components of triangles glued across unmarked
    edges; each stores the Euler characteristic of its closure subcomplex.
    Every marked cycle becomes one graph edge joining the regions on its two
    sides (a loop when both sides meet the same region).

    Raises:
        NonClosedSurfaceError: some edge is not shared by exactly two
            triangles, or the complex has degenerate/duplicate/stray pieces.
        InvalidZError: the marked edges do not form disjoint embedded cycles.
    """
    inc = _check_closed(surf)
    _check_z(surf, inc)

    groups = _region_partition(surf, inc)
    region_of_triangle: Dict[int, str] = {}
    regions = []
    for rid, members in enumerate(groups):
        label = f"R{rid}"
        regions.append(Region(label, _closure_euler(surf, members)))
        for i in members:
            region_of_triangle[i] = label

    edges = []
    for k, comp in enumerate(_z_components(surf)):
        touching: List[str] = []
        for e in comp:
            for t in inc[e]:
                lab = region_of_triangle[t]
                if lab not in touching:
                    touching.append(lab)
        if len(touching) == 1:
            a = b = touching[0]
        elif len(touching) == 2:
            a, b = sorted(touching)
        else:
            raise InvalidZError(
                f"marked cycle {k} touches {len(touching)} regions; at most 2 possible"
            )
        edges.append(HypersurfaceComponent(f"Z{k}", a, b))

    total = sum(r.euler_char for r in regions)
    if total != surf.vertex_count - len(inc) + len(surf.triangles):
        raise RuntimeError("closure Euler characteristics do not sum to the surface's")

    return BGraph(
        regions=tuple(regions),
        edges=tuple(edges),
        ambient_dim=2,
        orientable=_orientable(surf, inc),
    )


# ---------------------------------------------------------------------------
# stock graphs
# ---------------------------------------------------------------------------


def sphere_equator_graph() -> BGraph:
    """Two disk regions joined along one circle: the round sphere cut by its equator."""
    return BGraph(
        regions=(Region("B+", 1), Region("B-", 1)),
        edges=(HypersurfaceComponent("Z0", "B+", "B-"),),
        ambient_dim=2,
        orientable=True,
    )


def circle_graph(k: int) -> BGraph:
    """The circle with k marked points: a k-cycle of arc regions.

    k = 0 is the unmarked circle (one region, no edges) and k = 1 a single
    arc whose endpoints meet at the one marked point (a loop edge).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return BGraph((Region("A0", 1),), (), ambient_dim=1, orientable=True)
    regions = tuple(Region(f"A{i}", 1) for i in range(k))
    edges = tuple(
        HypersurfaceComponent(f"P{i}", f"A{i}", f"A{(i + 1) % k}") for i in range(k)
    )
    return BGraph(regions, edges, ambient_dim=1, orientable=True)
