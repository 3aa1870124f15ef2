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

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .errors import InvalidArgumentError, InvalidZError, NonClosedSurfaceError

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
    region (a loop edge of the graph).
    """

    label: str
    side_a: str
    side_b: str

    @property
    def is_loop(self) -> bool:
        return self.side_a == self.side_b


@dataclass(frozen=True)
class BGraph:
    """Region graph of a pair (M, Z), with ambient metadata.

    The orientability flag describes M itself and is trusted as given for
    hand-written graphs; graphs built from a triangulation get it computed.

    A graph checks its own referential integrity when it is built, so every
    BGraph in existence is well formed: it has a region, its region and edge
    labels are unique, every edge side names a region, and ambient_dim >= 1.

    Raises:
        InvalidArgumentError: listing every violation found.
    """

    regions: Tuple[Region, ...]
    edges: Tuple[HypersurfaceComponent, ...]
    ambient_dim: int = 2
    orientable: bool = True

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "edges", tuple(self.edges))
        violations: List[str] = []
        if not self.regions:
            violations.append("graph has no regions")
        seen = set()
        for r in self.regions:
            if r.label in seen:
                violations.append(f"duplicate region label {r.label!r}")
            seen.add(r.label)
        edge_labels = set()
        for e in self.edges:
            if e.label in edge_labels:
                violations.append(f"duplicate edge label {e.label!r}")
            edge_labels.add(e.label)
            for side in (e.side_a, e.side_b):
                if side not in seen:
                    violations.append(f"edge {e.label!r} references missing region {side!r}")
        if self.ambient_dim < 1:
            violations.append(f"ambient_dim must be >= 1, got {self.ambient_dim}")
        if violations:
            raise InvalidArgumentError("invalid region graph: " + "; ".join(violations))

    def region_labels(self) -> Tuple[str, ...]:
        return tuple(r.label for r in self.regions)

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
                raise InvalidArgumentError(f"color of {label!r} must be +1 or -1, got {value!r}")

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


# ---------------------------------------------------------------------------
# triangulated surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangulatedSurface:
    """A closed triangulated surface with a marked system of edge cycles.

    Attributes:
        vertex_count: vertices are the integers 0 .. vertex_count - 1.
        triangles: faces as vertex triples (stored sorted).  A stored
            triangle (a, b, c) is oriented a -> b -> c -> a, so it runs along
            its two edges at the middle vertex b and against the edge (a, c).
        z_edges: marked edges, each a pair of vertex indices.  Together they
            must form a disjoint union of embedded cycles.
    """

    vertex_count: int
    triangles: Tuple[Triangle, ...]
    z_edges: Tuple[Edge2, ...] = ()

    def __post_init__(self):
        tris = tuple(tuple(sorted(t)) for t in self.triangles)
        zs = tuple(sorted((min(u, v), max(u, v)) for u, v in self.z_edges))
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "z_edges", zs)


def _check_closed(surf: TriangulatedSurface) -> Dict[Edge2, List[int]]:
    """Check that the complex is a closed surface and return its edge table.

    The table maps every edge (u, v), u < v, to the two triangles sharing it.
    """
    if not surf.triangles:
        raise NonClosedSurfaceError("the complex has no triangles")
    used = set()
    sides: Dict[Edge2, List[int]] = defaultdict(list)
    for i, t in enumerate(surf.triangles):
        if len(set(t)) != 3:
            raise NonClosedSurfaceError(f"triangle {i} is degenerate: {t}")
        for v in t:
            if not 0 <= v < surf.vertex_count:
                raise NonClosedSurfaceError(f"triangle {i} uses vertex {v} out of range")
        used.update(t)
        a, b, c = t
        sides[a, b].append(i)
        sides[b, c].append(i)
        sides[a, c].append(i)
    if len(set(surf.triangles)) != len(surf.triangles):
        raise NonClosedSurfaceError("duplicate triangle in complex")
    if used != set(range(surf.vertex_count)):
        missing = sorted(set(range(surf.vertex_count)) - used)
        raise NonClosedSurfaceError(f"isolated vertices: {missing}")
    for e, ts in sides.items():
        if len(ts) != 2:
            raise NonClosedSurfaceError(
                f"edge {e} lies in {len(ts)} triangle(s); a closed surface needs 2"
            )
    return sides


def _z_cycles(surf: TriangulatedSurface, sides: Dict[Edge2, List[int]]) -> List[List[Edge2]]:
    """Check that the marked edges are distinct and form disjoint cycles; return the cycles.

    Cycles come in the order of their smallest edge.
    """
    nbrs: Dict[int, List[int]] = defaultdict(list)
    for k, (u, v) in enumerate(surf.z_edges):
        if (u, v) not in sides:
            raise InvalidZError(f"marked edge {(u, v)} is not an edge of the complex")
        if k and surf.z_edges[k - 1] == (u, v):  # stored sorted: a repeat is a neighbour
            raise InvalidZError(f"marked edge {(u, v)} is listed twice")
        nbrs[u].append(v)
        nbrs[v].append(u)
    for v, ws in sorted(nbrs.items()):
        if len(ws) != 2:
            raise InvalidZError(
                f"vertex {v} has degree {len(ws)} in the marked edge set; cycles need 2"
            )
    seen: set = set()
    cycles: List[List[Edge2]] = []
    for start, nxt in surf.z_edges:
        if start in seen:
            continue
        cycle = [(start, nxt)]
        prev, v = start, nxt
        seen.add(start)
        while v != start:
            seen.add(v)
            x, y = nbrs[v]
            prev, v = v, (y if x == prev else x)
            cycle.append((min(prev, v), max(prev, v)))
        cycles.append(cycle)
    return cycles


def surface_euler(surf: TriangulatedSurface) -> int:
    """Euler characteristic V - E + F of a valid closed surface."""
    sides = _check_closed(surf)
    return surf.vertex_count - len(sides) + len(surf.triangles)


def surface_orientable(surf: TriangulatedSurface) -> bool:
    """Decide orientability by propagating triangle orientations.

    Neighboring triangles are consistently oriented exactly when they
    traverse their shared edge in opposite directions.
    """
    return _orientable(surf, _check_closed(surf))


def _orientable(surf: TriangulatedSurface, sides: Dict[Edge2, List[int]]) -> bool:
    """Flip-bit BFS: stop at the first triangle that needs both orientations.

    A stored triangle runs along an edge exactly when the edge holds its
    middle vertex, so two neighbors across e need opposite flips exactly
    when both or neither of their middle vertices lie on e.
    """
    tris = surf.triangles
    flip: List[Optional[bool]] = [None] * len(tris)
    for start in range(len(tris)):
        if flip[start] is not None:
            continue
        flip[start] = False
        queue = [start]
        for u in queue:
            a, b, c = tris[u]
            for e in ((a, b), (b, c), (a, c)):
                x, y = sides[e]
                w = y if x == u else x
                want = flip[u] ^ ((b in e) == (tris[w][1] in e))
                if flip[w] is None:
                    flip[w] = want
                    queue.append(w)
                elif flip[w] != want:
                    return False
    return True


def _region_numbers(surf: TriangulatedSurface,
                    sides: Dict[Edge2, List[int]]) -> Tuple[List[int], int]:
    """Number the triangles by region: BFS across unmarked edges.

    Returns the region number of every triangle and the number of regions.
    """
    zset = set(surf.z_edges)
    tris = surf.triangles
    region = [-1] * len(tris)
    count = 0
    for start in range(len(tris)):
        if region[start] >= 0:
            continue
        region[start] = count
        queue = [start]
        for u in queue:
            a, b, c = tris[u]
            for e in ((a, b), (b, c), (a, c)):
                if e in zset:
                    continue
                x, y = sides[e]
                w = y if x == u else x
                if region[w] < 0:
                    region[w] = count
                    queue.append(w)
        count += 1
    return region, count


def _closure_eulers(surf: TriangulatedSurface, sides: Dict[Edge2, List[int]],
                    region: List[int], count: int) -> List[int]:
    """Euler characteristic of each region's closure: corners - edges + faces."""
    chi = [0] * count
    for r in region:
        chi[r] += 1
    for x, y in sides.values():
        chi[region[x]] -= 1
        if region[y] != region[x]:
            chi[region[y]] -= 1
    n = surf.vertex_count  # a corner is a (region, vertex) pair, packed as region * n + vertex
    for key in {region[i] * n + v for i, t in enumerate(surf.triangles) for v in t}:
        chi[key // n] += 1
    return chi


def build_graph_from_surface(surf: TriangulatedSurface) -> BGraph:
    """Derive the region graph of a marked triangulated surface.

    Regions are connected components of triangles glued across unmarked
    edges; each stores the Euler characteristic of its closure subcomplex.
    Every marked cycle becomes one graph edge joining the regions on its two
    sides (a loop when both sides meet the same region).

    Raises:
        NonClosedSurfaceError: some edge is not shared by exactly two
            triangles, the complex is empty or has degenerate/duplicate/
            stray pieces, or the closure Euler characteristics do not add up
            to the surface's (a pinched vertex, whose link is not one cycle).
        InvalidZError: the marked edges repeat or do not form disjoint
            embedded cycles.
    """
    sides = _check_closed(surf)
    cycles = _z_cycles(surf, sides)

    region, count = _region_numbers(surf, sides)
    labels = [f"R{r}" for r in range(count)]
    regions = [Region(lab, chi)
               for lab, chi in zip(labels, _closure_eulers(surf, sides, region, count))]

    edges = []
    for k, cycle in enumerate(cycles):
        touching: List[str] = []
        for e in cycle:
            for t in sides[e]:
                lab = labels[region[t]]
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
    if total != surf.vertex_count - len(sides) + len(surf.triangles):
        raise NonClosedSurfaceError("closure Euler characteristics do not sum to the "
                                    "surface's: the complex is not a surface at some vertex")

    return BGraph(
        regions=tuple(regions),
        edges=tuple(edges),
        ambient_dim=2,
        orientable=_orientable(surf, sides),
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
        raise InvalidArgumentError("k must be >= 0")
    if k == 0:
        return BGraph((Region("A0", 1),), (), ambient_dim=1, orientable=True)
    regions = tuple(Region(f"A{i}", 1) for i in range(k))
    edges = tuple(
        HypersurfaceComponent(f"P{i}", f"A{i}", f"A{(i + 1) % k}") for i in range(k)
    )
    return BGraph(regions, edges, ambient_dim=1, orientable=True)
