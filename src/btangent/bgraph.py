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
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from .errors import InvalidArgumentError, InvalidZError, NonClosedSurfaceError

if TYPE_CHECKING:
    import numpy as np

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


@dataclass(frozen=True)
class _HalfEdges:
    """A checked closed surface as flat arrays.

    Half-edge 3i + s is side s of stored triangle i = (a, b, c): (a, b) for
    s = 0, (b, c) for s = 1 and (a, c) for s = 2.  The first two run along
    their edge and the third against it.
    """

    tris: np.ndarray  # F x 3 vertex numbers, rows sorted
    keys: np.ndarray  # one key u * V + w (u < w) per edge, ascending
    pairs: np.ndarray  # E x 2: the two half-edges of each edge, in key order
    nbr: np.ndarray  # 3F: the triangle across each half-edge
    same: np.ndarray  # 3F: both triangles run the same way along this half-edge's edge


def _half_edges(surf: TriangulatedSurface) -> _HalfEdges:
    """Check that the complex is a closed surface and pair up its half-edges.

    The 3F half-edges are keyed u * V + w and sorted once; the complex is
    closed exactly when every run of equal keys has length two.
    """
    import numpy as np

    tris = surf.triangles
    if not tris:
        raise NonClosedSurfaceError("the complex has no triangles")
    n, f = surf.vertex_count, len(tris)
    # the checks below run on the triangles before the first one without 3 vertices
    short = f if set(map(len, tris)) == {3} else next(
        i for i, tri in enumerate(tris) if len(tri) != 3)
    t = np.array(tris[:short]).reshape(short, 3)  # int64 unless a vertex is a float or past int64
    outside = (t < 0) | (t >= n)
    if t.dtype != np.int64:  # only whole numbers name vertices
        outside |= t % 1 != 0
    a, b, c = t.T
    degenerate = (a == b) | (b == c)
    bad = degenerate | outside.any(axis=1)
    if bad.any() or short < f:
        i = int(bad.argmax()) if bad.any() else short
        if i == short or degenerate[i]:
            raise NonClosedSurfaceError(f"triangle {i} is degenerate: {tris[i]}")
        v = tris[i][int(outside[i].argmax())]
        raise NonClosedSurfaceError(f"triangle {i} uses vertex {v} out of range")
    rows = t[np.lexsort(t.T[::-1])]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise NonClosedSurfaceError("duplicate triangle in complex")
    # every vertex in use bounds V by 3F, so the keys below fit in int64
    if n > 3 * f or not np.bincount(t.astype(np.int64).ravel(), minlength=n).all():
        used = np.unique(t)
        missing = [int(v) for v in np.setdiff1d(np.arange(min(n, used.size + 10)), used)[:10]]
        total = n - used.size
        raise NonClosedSurfaceError(f"isolated vertices: {missing}"
                                    + (f" ({total} in all)" if total > len(missing) else ""))

    t = t.astype(np.int64, copy=False)
    a, b, c = t.T
    keys = (np.stack((a, b, a), axis=1) * n + np.stack((b, c, c), axis=1)).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    runs = np.diff(np.append(starts, 3 * f))
    if (runs != 2).any():
        # a stable sort starts each run at its first half-edge: report the
        # edge met first in triangle order
        bad_runs = np.flatnonzero(runs != 2)
        r = bad_runs[order[starts[bad_runs]].argmin()]
        e = divmod(int(keys[starts[r]]), n)
        raise NonClosedSurfaceError(
            f"edge {e} lies in {runs[r]} triangle(s); a closed surface needs 2"
        )

    pairs = order.reshape(-1, 2)
    h, k = pairs.T
    nbr = np.empty(3 * f, dtype=np.int64)
    nbr[h], nbr[k] = k // 3, h // 3
    same = np.empty(3 * f, dtype=bool)
    same[h] = same[k] = (h % 3 < 2) == (k % 3 < 2)
    return _HalfEdges(t, keys[::2], pairs, nbr, same)


def _z_cycles(surf: TriangulatedSurface, mesh: _HalfEdges) -> Tuple[List[List[int]], np.ndarray]:
    """Check that the marked edges are distinct and form disjoint cycles.

    Returns the cycles, each a list of indices into ``surf.z_edges`` in the
    order of its smallest edge, and the edge number (index into
    ``mesh.keys``) of every marked edge.
    """
    import numpy as np

    z, n = surf.z_edges, surf.vertex_count
    # -1 for a pair that names no edge: out of range, a loop, or not whole numbers
    zkeys = np.array([u * n + v if 0 <= u < v < n and u % 1 == v % 1 == 0 else -1
                      for u, v in z], dtype=np.int64)
    edge = np.searchsorted(mesh.keys, zkeys).clip(max=len(mesh.keys) - 1)
    off = mesh.keys[edge] != zkeys
    repeat = np.zeros(len(z), dtype=bool)  # stored sorted: a repeat is a neighbour
    repeat[1:] = zkeys[1:] == zkeys[:-1]
    if (off | repeat).any():
        k = int((off | repeat).argmax())
        if off[k]:
            raise InvalidZError(f"marked edge {z[k]} is not an edge of the complex")
        raise InvalidZError(f"marked edge {z[k]} is listed twice")

    at: Dict[int, List[int]] = defaultdict(list)  # vertex -> marked edges ending there
    for k, (u, v) in enumerate(z):
        at[u].append(k)
        at[v].append(k)
    for v, ks in sorted(at.items()):
        if len(ks) != 2:
            raise InvalidZError(
                f"vertex {v} has degree {len(ks)} in the marked edge set; cycles need 2"
            )
    seen = [False] * len(z)
    cycles: List[List[int]] = []
    for first in range(len(z)):
        if seen[first]:
            continue
        start, v = z[first]
        k = first
        cycle = [k]
        seen[k] = True
        while v != start:
            x, y = at[v]
            k = y if x == k else x
            cycle.append(k)
            seen[k] = True
            u, w = z[k]
            v = w if u == v else u
        cycles.append(cycle)
    return cycles, edge


def surface_euler(surf: TriangulatedSurface) -> int:
    """Euler characteristic V - E + F of a valid closed surface."""
    mesh = _half_edges(surf)
    return surf.vertex_count - len(mesh.keys) + len(surf.triangles)


def surface_orientable(surf: TriangulatedSurface) -> bool:
    """Decide orientability by propagating triangle orientations.

    Neighboring triangles are consistently oriented exactly when they
    traverse their shared edge in opposite directions.
    """
    return _orientable(_half_edges(surf))


def _orientable(mesh: _HalfEdges) -> bool:
    """Flip-bit BFS: stop at the first triangle that needs both orientations.

    Two neighbors need opposite flips exactly when they run the same way
    along their shared edge.  Each side of a triangle is read as one number,
    2 * neighbor + same.
    """
    side0, side1, side2 = (mesh.nbr * 2 + mesh.same).reshape(-1, 3).T.tolist()
    flip = [-1] * len(mesh.tris)
    for start in range(len(flip)):
        if flip[start] >= 0:
            continue
        flip[start] = 0
        queue = [start]
        for u in queue:
            for x in (side0[u], side1[u], side2[u]):
                w, want = x >> 1, flip[u] ^ (x & 1)
                if flip[w] < 0:
                    flip[w] = want
                    queue.append(w)
                elif flip[w] != want:
                    return False
    return True


def _region_numbers(mesh: _HalfEdges, marked: np.ndarray) -> Tuple[np.ndarray, int]:
    """Number the triangles by region: BFS across unmarked edges.

    ``marked`` holds the half-edges of the marked edges.  Returns the region
    number of every triangle and the number of regions.
    """
    import numpy as np

    across = mesh.nbr.copy()
    across[marked] = marked // 3  # a marked side leads back to its own triangle
    side0, side1, side2 = across.reshape(-1, 3).T.tolist()
    region = [-1] * len(mesh.tris)
    count = 0
    for start in range(len(region)):
        if region[start] >= 0:
            continue
        region[start] = count
        queue = [start]
        for u in queue:
            for w in (side0[u], side1[u], side2[u]):
                if region[w] < 0:
                    region[w] = count
                    queue.append(w)
        count += 1
    return np.array(region), count


def _closure_eulers(mesh: _HalfEdges, n: int, region: np.ndarray, count: int) -> List[int]:
    """Euler characteristic of each region's closure: corners - edges + faces."""
    import numpy as np

    sides = region[mesh.pairs // 3]  # the regions on the two sides of each edge
    edges = np.concatenate((sides[:, 0], sides[sides[:, 0] != sides[:, 1], 1]))
    corners = np.sort(np.repeat(region, 3) * n + mesh.tris.ravel())  # (region, vertex) pairs
    corners = corners[np.concatenate(([True], corners[1:] != corners[:-1]))]
    chi = (np.bincount(region, minlength=count) - np.bincount(edges, minlength=count)
           + np.bincount(corners // n, minlength=count))
    return chi.tolist()


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
    mesh = _half_edges(surf)
    cycles, edge = _z_cycles(surf, mesh)

    region, count = _region_numbers(mesh, mesh.pairs[edge].ravel())
    labels = [f"R{r}" for r in range(count)]
    chis = _closure_eulers(mesh, surf.vertex_count, region, count)
    regions = [Region(lab, chi) for lab, chi in zip(labels, chis)]

    edges = []
    for k, cycle in enumerate(cycles):
        touching = sorted(labels[r] for r in set(region[mesh.pairs[edge[cycle]] // 3].flat))
        if len(touching) == 1:
            a = b = touching[0]
        elif len(touching) == 2:
            a, b = touching
        else:
            raise InvalidZError(
                f"marked cycle {k} touches {len(touching)} regions; at most 2 possible"
            )
        edges.append(HypersurfaceComponent(f"Z{k}", a, b))

    if sum(chis) != surf.vertex_count - len(mesh.keys) + len(surf.triangles):
        raise NonClosedSurfaceError("closure Euler characteristics do not sum to the "
                                    "surface's: the complex is not a surface at some vertex")

    return BGraph(
        regions=tuple(regions),
        edges=tuple(edges),
        ambient_dim=2,
        orientable=_orientable(mesh),
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
