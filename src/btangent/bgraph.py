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

import operator
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import TYPE_CHECKING, List, Mapping, Tuple

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
        # the usual check is a few passes over sets, which run in C; the loop
        # below runs only on failure, to list every violation
        label, side_a, side_b = map(operator.attrgetter, ("label", "side_a", "side_b"))
        labels = set(map(label, self.regions))
        if (self.regions and len(labels) == len(self.regions)
                and len(set(map(label, self.edges))) == len(self.edges)
                and labels.issuperset(map(side_a, self.edges))
                and labels.issuperset(map(side_b, self.edges))
                and self.ambient_dim >= 1):
            return
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
        return tuple(map(operator.attrgetter("label"), self.regions))

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
    """An assignment of +1 / -1 to every region label.

    A sign is a Python or numpy integer, stored as an int; bools are not
    signs.  The assignment is a read-only mapping, because the analyses of
    one graph share its coloring (see ``obstructions._canonical_coloring``).
    """

    assignment: Mapping[str, int]

    def __post_init__(self):
        signs = dict(self.assignment)
        # the usual check is two passes over sets, which run in C; the loop
        # below runs only on failure, to name the bad sign
        if not (set(map(type, signs.values())) <= {int} and set(signs.values()) <= {1, -1}):
            signs = {label: _sign(label, value) for label, value in signs.items()}
        object.__setattr__(self, "assignment", MappingProxyType(signs))

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; its dict can
        return Coloring, (dict(self.assignment),)

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


def _sign(label: str, value) -> int:
    """value as the int +1 or -1, the color of the region label."""
    try:
        sign = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        sign = None
    if sign not in (1, -1):
        raise InvalidArgumentError(f"color of {label!r} must be +1 or -1, got {value!r}")
    return sign


# ---------------------------------------------------------------------------
# triangulated surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangulatedSurface:
    """A closed triangulated surface with a marked system of edge cycles.

    Attributes:
        vertex_count: vertices are the integers 0 .. vertex_count - 1.
        triangles: faces as vertex triples, stored as given.  Each is
            oriented by its sorted order: a triangle with vertices a < b < c
            runs a -> b -> c -> a, along its two edges at the middle vertex b
            and against the edge (a, c).
        z_edges: marked edges, each a pair of vertex indices.  Together they
            must form a disjoint union of embedded cycles.

    A vertex is a Python or numpy integer, as in a surface document; bools
    and floats, whole ones included, are not vertices.

    Raises:
        InvalidArgumentError: naming the first triangle or marked edge with
            a vertex that is not an integer.
    """

    vertex_count: int
    triangles: Tuple[Triangle, ...]
    z_edges: Tuple[Edge2, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "triangles", tuple(map(tuple, self.triangles)))
        _check_vertices(self.triangles, "triangle")
        z = tuple(map(tuple, self.z_edges))
        _check_vertices(z, "marked edge")
        object.__setattr__(self, "z_edges", _marked_edges(z))


def _check_vertices(rows: Tuple[tuple, ...], what: str) -> None:
    """Raise unless every vertex in rows is a Python or numpy integer.

    The usual check is one pass over the set of vertex types, which runs in
    C; the rows are walked only to name the first bad one.
    """
    from numbers import Integral  # numpy registers its integers here

    def is_vertex_type(t: type) -> bool:
        return issubclass(t, Integral) and not issubclass(t, bool)

    if all(map(is_vertex_type, set(map(type, chain.from_iterable(rows))))):
        return
    for i, row in enumerate(rows):
        for v in row:
            if not is_vertex_type(type(v)):
                raise InvalidArgumentError(f"{what} {i} has a vertex that is not an integer: {v!r}")


def _marked_edges(z) -> Tuple[Edge2, ...]:
    """Marked edges as stored: each pair (min, max), the pairs sorted."""
    return tuple(sorted((min(u, v), max(u, v)) for u, v in z))


@dataclass(frozen=True)
class _HalfEdges:
    """A checked closed surface as flat arrays.

    Half-edge 3i + s is side s of triangle i with sorted vertices a < b < c:
    (a, b) for s = 0, (b, c) for s = 1 and (a, c) for s = 2.  The first two
    run along their edge and the third against it.
    """

    tris: np.ndarray  # F x 3 vertex numbers, rows sorted
    keys: np.ndarray  # one key u * V + w (u < w) per edge, ascending
    pairs: np.ndarray  # E x 2: the two half-edges of each edge, in key order


def _triangle_array(n: int, tris) -> np.ndarray:
    """The rows of tris as an F x 3 array, int64 unless numpy cannot read them so.

    Rows that numpy cannot read as int64 (one without three vertices, a
    vertex past int64) are checked here, where a message can quote the row
    as given; ``_half_edges`` checks the rest.
    """
    import numpy as np

    f = len(tris)
    # the checks below run on the triangles before the first one without 3 vertices
    short = f if not tris or set(map(len, tris)) == {3} else next(
        i for i, tri in enumerate(tris) if len(tri) != 3)
    t = np.array(tris[:short]).reshape(short, 3)  # int64 unless a vertex is past int64
    if t.dtype != np.int64 or short < f:
        i, j = _first_bad_row(n, t)
        if i < f:
            raise _bad_row(i, j, tris[i])
    return t


def _first_bad_row(n: int, t: np.ndarray) -> Tuple[int, int]:
    """The first row of t that is degenerate or has a vertex outside 0 .. n-1.

    Returns the row and the column of its first vertex out of range, or -1
    when the row is degenerate; ``(len(t), -1)`` when every row is good.
    """
    outside = (t < 0) | (t >= n)
    a, b, c = t.T
    degenerate = (a == b) | (b == c) | (a == c)
    bad = degenerate | outside.any(axis=1)
    if not bad.any():
        return len(t), -1
    i = int(bad.argmax())
    return i, -1 if degenerate[i] else int(outside[i].argmax())


def _bad_row(i: int, j: int, row) -> NonClosedSurfaceError:
    if j < 0:
        return NonClosedSurfaceError(f"triangle {i} is degenerate: {tuple(row)}")
    return NonClosedSurfaceError(f"triangle {i} uses vertex {row[j]} out of range")


def _check_distinct(t: np.ndarray) -> None:
    """Raise when two rows of t, each sorted, are equal."""
    import numpy as np

    rows = t[np.lexsort(t.T[::-1])]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise NonClosedSurfaceError("duplicate triangle in complex")


def _half_edges(n: int, t: np.ndarray) -> _HalfEdges:
    """Check that the complex is a closed surface and pair up its half-edges.

    ``t`` holds the triangles of a complex on the vertices 0 .. n-1, as
    ``_triangle_array`` returns them.  The 3F half-edges are keyed u * V + w
    and sorted once; the complex is closed exactly when every run of equal
    keys has length two.  The defects are reported in a fixed order:
    degenerate or out-of-range triangles, duplicates, isolated vertices,
    edges not in two triangles.
    """
    import numpy as np

    f = len(t)
    if not f:
        raise NonClosedSurfaceError("the complex has no triangles")
    i, j = _first_bad_row(n, t)
    if i < f:
        raise _bad_row(i, j, t[i].tolist())
    t = np.sort(t, axis=1)
    # every vertex in use bounds V by 3F, so the vertices and the keys below fit in int64
    if n <= 3 * f:
        t = t.astype(np.int64, copy=False)
    if n > 3 * f or not np.bincount(t.ravel(), minlength=n).all():
        _check_distinct(t)
        used = np.unique(t)
        missing = [int(v) for v in np.setdiff1d(np.arange(min(n, used.size + 10)), used)[:10]]
        total = n - used.size
        raise NonClosedSurfaceError(f"isolated vertices: {missing}"
                                    + (f" ({total} in all)" if total > len(missing) else ""))

    a, b, c = t.T
    keys = (np.stack((a, b, a), axis=1) * n + np.stack((b, c, c), axis=1)).ravel()
    # stable, which the report below relies on; on triangles listed in grid
    # order it is also faster than the default sort, which wins on shuffled ones
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    runs = np.diff(np.append(starts, 3 * f))
    if (runs != 2).any():
        _check_distinct(t)
        # a stable sort starts each run at its first half-edge: report the
        # edge met first in triangle order
        bad_runs = np.flatnonzero(runs != 2)
        r = bad_runs[order[starts[bad_runs]].argmin()]
        e = divmod(int(keys[starts[r]]), n)
        raise NonClosedSurfaceError(
            f"edge {e} lies in {runs[r]} triangle(s); a closed surface needs 2"
        )
    pairs = order.reshape(-1, 2)
    # every edge lies in exactly two triangles, so a repeated triangle meets
    # its copy across an edge: the two triangles there share their third
    # vertex, which for half-edge 3i + s is vertex (s + 2) % 3 of triangle i
    third = t.ravel()[pairs - pairs % 3 + (pairs + 2) % 3]
    if (third[:, 0] == third[:, 1]).any():
        raise NonClosedSurfaceError("duplicate triangle in complex")

    return _HalfEdges(t, keys[::2], pairs)


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Label every node 0 .. n-1 with the smallest node of its component.

    Hook and shortcut, as in Shiloach & Vishkin (1982): each round hooks the
    larger root of every edge whose ends still have different roots onto the
    smaller one, then jumps pointers until every node points at a root.
    Roots only ever hook onto smaller roots, so the smallest node of each
    component ends as its root.  Hooking an edge inside one tree changes
    nothing; such edges are dropped after the round.  Each round replaces
    u and v by the edges left, so arrays the caller does not keep are freed.
    """
    import numpy as np

    f = np.arange(n)
    while True:
        fu, fv = f[u], f[v]
        live = fu != fv
        if not live.any():
            return f
        hi = np.maximum(fu, fv)
        np.minimum.at(f, hi, np.minimum(fu, fv, out=fu))
        del fu, fv, hi
        u, v = u[live], v[live]
        jumped = f[f]
        while (jumped != f).any():
            f, jumped = jumped, jumped[jumped]


def _z_cycles(n: int, z: Tuple[Edge2, ...], mesh: _HalfEdges) -> Tuple[np.ndarray, np.ndarray]:
    """Check that the marked edges are distinct and form disjoint cycles.

    ``z`` holds them as ``_marked_edges`` returns them.  Returns, for every
    marked edge, its cycle number (cycles numbered in the order of their
    smallest edge in z) and its edge number (index into ``mesh.keys``).
    """
    import numpy as np

    # -1 for a pair that names no edge: out of range or a loop
    zkeys = np.array([u * n + v if 0 <= u < v < n else -1 for u, v in z], dtype=np.int64)
    edge = np.searchsorted(mesh.keys, zkeys).clip(max=len(mesh.keys) - 1)
    off = mesh.keys[edge] != zkeys
    repeat = np.zeros(len(z), dtype=bool)  # stored sorted: a repeat is a neighbour
    repeat[1:] = zkeys[1:] == zkeys[:-1]
    if (off | repeat).any():
        k = int((off | repeat).argmax())
        if off[k]:
            raise InvalidZError(f"marked edge {z[k]} is not an edge of the complex")
        raise InvalidZError(f"marked edge {z[k]} is listed twice")

    ends = np.stack((zkeys // n, zkeys % n), axis=1).ravel()  # end s of marked edge k at 2k + s
    degree = np.bincount(ends)
    bad = np.flatnonzero((degree != 0) & (degree != 2))
    if bad.size:
        v = int(bad[0])
        raise InvalidZError(
            f"vertex {v} has degree {degree[v]} in the marked edge set; cycles need 2"
        )
    # every vertex ends two marked edges: sorted by vertex, the ends pair up
    at = np.argsort(ends, kind="stable") // 2
    cycle = np.unique(_components(len(z), at[0::2], at[1::2]), return_inverse=True)[1]
    return cycle, edge


def surface_euler(surf: TriangulatedSurface) -> int:
    """Euler characteristic V - E + F of a valid closed surface."""
    n = surf.vertex_count
    mesh = _half_edges(n, _triangle_array(n, surf.triangles))
    return n - len(mesh.keys) + len(mesh.tris)


def surface_orientable(surf: TriangulatedSurface) -> bool:
    """Decide orientability on the orientation double cover.

    Neighboring triangles are consistently oriented exactly when they
    traverse their shared edge in opposite directions.
    """
    n = surf.vertex_count
    return _orientable(_half_edges(n, _triangle_array(n, surf.triangles)))


def _orientable(mesh: _HalfEdges) -> bool:
    """Components of the orientation double cover.

    Node 2i + s is triangle i with its stored orientation (s = 0) or the
    reverse (s = 1).  Across an edge, sheet s meets sheet s of the neighbor,
    or sheet 1 - s when both run the same way along the edge.  The surface
    is orientable exactly when no triangle's two sheets are joined.
    """
    import numpy as np

    h, k = mesh.pairs.T
    sheet = np.arange(2)[:, None]
    same = (h % 3 < 2) == (k % 3 < 2)
    f = _components(2 * len(mesh.tris), (2 * (h // 3) + sheet).ravel(),
                    (2 * (k // 3) + (sheet ^ same)).ravel())
    return bool((f[0::2] != f[1::2]).all())


def _region_numbers(mesh: _HalfEdges, edge: np.ndarray) -> Tuple[np.ndarray, int]:
    """Number the triangles by region: components across unmarked edges.

    ``edge`` holds the edge numbers of the marked edges.  Regions are
    numbered in the order of their smallest triangle.  Returns the region
    number of every triangle and the number of regions.
    """
    import numpy as np

    unmarked = np.ones(len(mesh.pairs), dtype=bool)
    unmarked[edge] = False
    h, k = mesh.pairs[unmarked].T
    roots, region = np.unique(_components(len(mesh.tris), h // 3, k // 3), return_inverse=True)
    return region, len(roots)


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
    n = surf.vertex_count
    return _surface_graph(n, _triangle_array(n, surf.triangles), surf.z_edges)


def _surface_graph(n: int, t: np.ndarray, z: Tuple[Edge2, ...]) -> BGraph:
    """``build_graph_from_surface`` on a complex given as its parts.

    ``t`` holds the triangles as ``_triangle_array`` returns them, and ``z``
    the marked edges as ``_marked_edges`` returns them.
    """
    import numpy as np

    mesh = _half_edges(n, t)
    cycle, edge = _z_cycles(n, z, mesh)

    region, count = _region_numbers(mesh, edge)
    labels = [f"R{r}" for r in range(count)]
    chis = _closure_eulers(mesh, n, region, count)
    regions = [Region(lab, chi) for lab, chi in zip(labels, chis)]

    # the distinct (cycle, region) pairs across every marked edge, by cycle;
    # not np.unique, whose first call without an inverse imports numpy.ma
    # (8 ms of a cold start)
    sides = np.sort(np.repeat(cycle, 2) * count + region[mesh.pairs[edge] // 3].ravel())
    first = np.ones(len(sides), dtype=bool)
    first[1:] = sides[1:] != sides[:-1]
    touching: List[List[str]] = [[] for _ in range(int(cycle.max(initial=-1)) + 1)]
    for k, r in zip(*(x.tolist() for x in np.divmod(sides[first], count))):
        touching[k].append(labels[r])
    edges = []
    for k, near in enumerate(touching):
        if len(near) > 2:
            raise InvalidZError(f"marked cycle {k} touches {len(near)} regions; at most 2 possible")
        a, b = sorted(near) if len(near) == 2 else near * 2
        edges.append(HypersurfaceComponent(f"Z{k}", a, b))

    if sum(chis) != n - len(mesh.keys) + len(mesh.tris):
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
