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
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

from .errors import InvalidArgumentError, InvalidZError, NonClosedSurfaceError, _as_int, _is_int

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

    A graph checks itself when it is built, so every BGraph in existence is
    well formed: ambient_dim is an integer >= 1, orientable is a bool, every
    Euler characteristic is an integer, it has a region, its region and
    edge labels are unique, and every edge side names a region.

    Raises:
        InvalidArgumentError: naming the first value of the wrong type, or
            listing every other violation found.
    """

    regions: Tuple[Region, ...]
    edges: Tuple[HypersurfaceComponent, ...]
    ambient_dim: int = 2
    orientable: bool = True

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "ambient_dim", _as_int(self.ambient_dim, "ambient_dim"))
        if not isinstance(self.orientable, bool):
            raise InvalidArgumentError(f"orientable must be a bool, got {self.orientable!r}")
        # the usual check is a few passes over sets, which run in C; the loops
        # below run only on failure, to name the bad region or list every violation
        label, side_a, side_b, chi = map(operator.attrgetter,
                                         ("label", "side_a", "side_b", "euler_char"))
        if not all(map(_is_int, set(map(type, map(chi, self.regions))))):
            for r in self.regions:
                _as_int(r.euler_char, f"euler_char of region {r.label!r}")
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
        # below runs only to name a bad sign or to store numpy signs as int
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
    if not (_is_int(type(value)) and value in (1, -1)):
        raise InvalidArgumentError(f"color of {label!r} must be +1 or -1, got {value!r}")
    return int(value)


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
        z_edges: marked edges as vertex pairs, stored as given.  Together
            they must form a disjoint union of embedded cycles.

    The vertex count and every vertex are Python or numpy integers, as in a
    surface document; bools and floats, whole ones included, are not.

    Raises:
        InvalidArgumentError: a vertex count that is not an integer, or
            naming the first triangle or marked edge that is not a row of
            3 or 2 integers.
    """

    vertex_count: int
    triangles: Tuple[Triangle, ...]
    z_edges: Tuple[Edge2, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertex_count", _as_int(self.vertex_count, "vertex_count"))
        object.__setattr__(self, "triangles", _vertex_rows(self.triangles, 3, "triangle"))
        object.__setattr__(self, "z_edges", _vertex_rows(self.z_edges, 2, "marked edge"))


def _vertex_rows(rows, k: int, what: str) -> Tuple[tuple, ...]:
    """rows as a tuple of tuples of k integers, or InvalidArgumentError naming a bad row."""
    if not isinstance(rows, Iterable):
        raise InvalidArgumentError(f"{what}s must be rows of {k} vertices, got {rows!r}")
    rows = tuple(rows)  # an iterator is read once, so the fallback below sees every row
    try:
        rows = tuple(map(tuple, rows))
    except TypeError:  # a row that is not iterable stays as given, for _bad_vertex to name
        rows = tuple(tuple(r) if isinstance(r, Iterable) else r for r in rows)
    bad = _bad_vertex(rows, k)
    if bad is None:
        return rows
    i, j = bad
    if j < 0:
        raise InvalidArgumentError(f"{what} {i} does not have {k} vertices: {rows[i]!r}")
    raise InvalidArgumentError(f"{what} {i} has a vertex that is not an integer: {rows[i][j]!r}")


def _bad_vertex(rows, k: int) -> Optional[Tuple[int, int]]:
    """Where rows first fail to be lists or tuples of k integers, or None.

    Returns ``(i, -1)`` for row i of the wrong type or length, or ``(i, j)``
    for entry j of row i that is not an integer.  The usual check is three
    passes over sets of types and lengths, which run in C; the rows are
    walked only to locate a defect.
    """
    if (set(map(type, rows)) <= {list, tuple} and set(map(len, rows)) <= {k}
            and all(map(_is_int, set(map(type, chain.from_iterable(rows)))))):
        return None
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != k:
            return i, -1
        for j, v in enumerate(row):
            if not _is_int(type(v)):
                return i, j
    return None


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


def _vertex_array(rows, k: int) -> np.ndarray:
    """The rows, k integers each, as an N x k int64 array.

    A vertex past int64 makes it an array of the vertices as Python ints,
    so that error messages quote them exactly.
    """
    import numpy as np

    try:
        return np.fromiter(chain.from_iterable(rows), np.int64, k * len(rows)).reshape(-1, k)
    except OverflowError:
        return np.array(list(map(int, chain.from_iterable(rows))), dtype=object).reshape(-1, k)


def _check_rows(n: int, t: np.ndarray) -> None:
    """Raise at the first row of t that is degenerate or has a vertex outside 0 .. n-1."""
    outside = (t < 0) | (t >= n)
    a, b, c = t.T
    degenerate = (a == b) | (b == c) | (a == c)
    bad = degenerate | outside.any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        row = t[i].tolist()
        if degenerate[i]:
            raise NonClosedSurfaceError(f"triangle {i} is degenerate: {tuple(row)}")
        j = int(outside[i].argmax())
        raise NonClosedSurfaceError(f"triangle {i} uses vertex {row[j]} out of range")


def _check_distinct(t: np.ndarray) -> None:
    """Raise when two rows of t, each sorted, are equal."""
    import numpy as np

    rows = t[np.lexsort(t.T[::-1])]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise NonClosedSurfaceError("duplicate triangle in complex")


def _half_edges(n: int, t: np.ndarray) -> _HalfEdges:
    """Check that the complex is a closed surface and pair up its half-edges.

    ``t`` holds the triangles of a complex on the vertices 0 .. n-1, as
    ``_vertex_array`` returns them.  The 3F half-edges are keyed u * V + w
    and sorted once; the complex is closed exactly when every run of equal
    keys has length two.  The defects are reported in a fixed order:
    degenerate or out-of-range triangles, duplicates, isolated vertices,
    edges not in two triangles.
    """
    import numpy as np

    f = len(t)
    if not f:
        raise NonClosedSurfaceError("the complex has no triangles")
    _check_rows(n, t)
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


def _z_cycles(n: int, z: np.ndarray, mesh: _HalfEdges) -> Tuple[np.ndarray, np.ndarray]:
    """Check that the marked edges are distinct and form disjoint cycles.

    ``z`` holds them as ``_vertex_array`` returns them, in any order and
    orientation; here each becomes (min, max), and the pairs are sorted.
    Returns, for every marked edge in that order, its cycle number (cycles
    numbered in the order of their smallest edge) and its edge number
    (index into ``mesh.keys``).
    """
    import numpy as np

    z = np.sort(z, axis=1)
    z = z[np.lexsort(z.T[::-1])]
    u, v = z.T
    # -1 for a pair that names no edge: out of range or a loop
    zkeys = np.where((0 <= u) & (u < v) & (v < n), u * n + v, -1).astype(np.int64)
    edge = np.searchsorted(mesh.keys, zkeys).clip(max=len(mesh.keys) - 1)
    off = mesh.keys[edge] != zkeys
    repeat = np.zeros(len(z), dtype=bool)  # sorted above: a repeat is a neighbour
    repeat[1:] = zkeys[1:] == zkeys[:-1]
    if (off | repeat).any():
        k = int((off | repeat).argmax())
        pair = tuple(z[k].tolist())
        if off[k]:
            raise InvalidZError(f"marked edge {pair} is not an edge of the complex")
        raise InvalidZError(f"marked edge {pair} is listed twice")

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
    mesh = _half_edges(n, _vertex_array(surf.triangles, 3))
    return n - len(mesh.keys) + len(mesh.tris)


def surface_orientable(surf: TriangulatedSurface) -> bool:
    """Decide orientability on the orientation double cover.

    Neighboring triangles are consistently oriented exactly when they
    traverse their shared edge in opposite directions.
    """
    n = surf.vertex_count
    return _orientable(_half_edges(n, _vertex_array(surf.triangles, 3)))


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
    return _surface_graph(n, _vertex_array(surf.triangles, 3), _vertex_array(surf.z_edges, 2))


def _surface_graph(n: int, t: np.ndarray, z: np.ndarray) -> BGraph:
    """``build_graph_from_surface`` on a complex given as its parts.

    ``t`` holds the triangles and ``z`` the marked edges, as
    ``_vertex_array`` returns them.
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
    k = _as_int(k, "k")
    if k < 0:
        raise InvalidArgumentError("k must be >= 0")
    if k == 0:
        return BGraph((Region("A0", 1),), (), ambient_dim=1, orientable=True)
    regions = tuple(Region(f"A{i}", 1) for i in range(k))
    edges = tuple(
        HypersurfaceComponent(f"P{i}", f"A{i}", f"A{(i + 1) % k}") for i in range(k)
    )
    return BGraph(regions, edges, ambient_dim=1, orientable=True)
