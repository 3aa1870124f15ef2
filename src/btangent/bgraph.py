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

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, List, NamedTuple, Tuple

from .errors import InvalidArgumentError, InvalidZError, NonClosedSurfaceError, _as_int, _is_int

if TYPE_CHECKING:
    import numpy as np

Edge2 = Tuple[int, int]
Triangle = Tuple[int, int, int]


class Region(NamedTuple):
    """A connected component of the complement of the hypersurface.

    A record is a named tuple, so it equals the plain tuple of its fields
    and unpacks as one; its fields cannot be assigned to.

    Attributes:
        label: unique name of the region.
        euler_char: Euler characteristic of the closure of the region.
    """

    label: str
    euler_char: int


class HypersurfaceComponent(NamedTuple):
    """A connected component of the critical hypersurface.

    ``side_a == side_b`` encodes a component whose two sides meet the same
    region (a loop edge of the graph).  A named tuple, like ``Region``.
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
    well formed.  In the order checked: its regions and edges are Region and
    HypersurfaceComponent records (a plain tuple is not one), each as wide
    as its type has fields, ambient_dim
    is an integer >= 1, orientable is a bool, it has a region, region labels
    are str and Euler characteristics integers, region labels are unique,
    edge labels and sides are str, edge labels are unique, and every edge
    side names a region.

    The check builds the graph's integer form ``_columns`` (see
    ``_graph_columns``), kept outside the graph's dataclass fields, so
    equality, hashing, repr and JSON never see it.

    Raises:
        InvalidArgumentError: naming the first defect.
    """

    regions: Tuple[Region, ...]
    edges: Tuple[HypersurfaceComponent, ...]
    ambient_dim: int = 2
    orientable: bool = True

    def __post_init__(self):
        # an iterable becomes a tuple; anything else, a lone record included,
        # stays as given, for _graph_columns to name
        regions, edges = (tuple(x) if isinstance(x, Iterable)
                          and not isinstance(x, (Region, HypersurfaceComponent)) else x
                          for x in (self.regions, self.edges))
        columns = _graph_columns(regions, edges, self.ambient_dim, self.orientable)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "ambient_dim", int(self.ambient_dim))
        object.__setattr__(self, "_columns", columns)

    def region_labels(self) -> Tuple[str, ...]:
        return tuple(map(itemgetter(0), self.regions))

    def to_json_dict(self) -> dict:
        return {
            "regions": [{"label": label, "chi": chi} for label, chi in self.regions],
            "edges": [{"label": label, "a": a, "b": b} for label, a, b in self.edges],
            "ambient_dim": self.ambient_dim,
            "orientable": self.orientable,
        }


def _all_of(kind: type, values) -> bool:
    """Whether every value is an instance of kind: one pass over a set of types, in C."""
    return all(issubclass(t, kind) for t in set(map(type, values)))


def _defect(path: str, message: str) -> InvalidArgumentError:
    """The error for a defect of an input, at path: a JSON pointer into the
    input as a document holds it, such as ``/regions/3/chi``, kept as
    ``_path`` so that a document reader can add its own pointer."""
    exc = InvalidArgumentError(message)
    exc._path = path
    return exc


def _graph_columns(regions, edges, ambient_dim, orientable) -> Tuple[tuple, tuple, tuple]:
    """Check a region graph; return the region labels in sorted order and,
    for every edge, the positions of side_a and side_b among them.

    Once the rows are known to be records, each side is split into its
    field columns, and every later condition of the BGraph docstring is
    one pass over a column or a set of its types, in C, in that order.
    Only a pass that fails walks the rows, to raise at the first bad one
    (see ``_defect``; paths are in ``to_json_dict`` form)."""
    columns = []
    for key, rows, kind in (("regions", regions, Region), ("edges", edges, HypersurfaceComponent)):
        if type(rows) is not tuple:  # a lone record is a tuple subclass, not rows
            raise _defect(f"/{key}", f"{key} must be {kind.__name__} records, got {rows!r}")
        if not _all_of(kind, rows):
            i = next(i for i, row in enumerate(rows) if not isinstance(row, kind))
            raise _defect(f"/{key}/{i}", f"{key[:-1]} {i} is not a {kind.__name__}: {rows[i]!r}")
        # a record made with tuple.__new__ may have any width, and its repr then raises
        width = len(kind._fields)
        if not set(map(len, rows)) <= {width}:
            i = next(i for i, row in enumerate(rows) if len(row) != width)
            raise _defect(f"/{key}/{i}", f"{key[:-1]} {i} is a {kind.__name__} of width "
                                         f"{len(rows[i])}, not {width}")
        # one itemgetter pass per field, in C; zip(*rows) would make an
        # iterator per record, and on 10**5 records the garbage collector's
        # passes over those cost about five times the columns themselves
        columns.append([tuple(map(itemgetter(k), rows)) for k in range(width)])
    (label, chi), (edge_label, a, b) = columns
    if not _is_int(type(ambient_dim)):
        raise _defect("/ambient_dim", f"ambient_dim must be an integer, got {ambient_dim!r}")
    if ambient_dim < 1:
        raise _defect("/ambient_dim",
                      f"invalid region graph: ambient_dim must be >= 1, got {ambient_dim}")
    if not isinstance(orientable, bool):
        raise _defect("/orientable", f"orientable must be a bool, got {orientable!r}")
    if not regions:
        raise _defect("/regions", "invalid region graph: graph has no regions")
    if not (_all_of(str, label) and all(map(_is_int, set(map(type, chi))))):
        for i, r in enumerate(regions):
            if not isinstance(r.label, str):
                raise _defect(f"/regions/{i}/label",
                              f"label of region {i} must be a str, got {r.label!r}")
            if not _is_int(type(r.euler_char)):
                raise _defect(f"/regions/{i}/chi", f"euler_char of region {r.label!r} "
                                                   f"must be an integer, got {r.euler_char!r}")
    labels = tuple(sorted(label))
    position = dict(zip(labels, range(len(labels))))
    if len(position) != len(labels):
        _raise_duplicate("regions", regions)
    if not _all_of(str, chain(edge_label, a, b)):
        for i, e in enumerate(edges):
            for field, attr in (("label", "label"), ("a", "side_a"), ("b", "side_b")):
                if not isinstance(getattr(e, attr), str):
                    raise _defect(f"/edges/{i}/{field}",
                                  f"{attr} of edge {i} must be a str, got {getattr(e, attr)!r}")
    if len(set(edge_label)) != len(edges):
        _raise_duplicate("edges", edges)
    try:
        return (labels, tuple(map(position.__getitem__, a)), tuple(map(position.__getitem__, b)))
    except KeyError:  # a side that names no region
        i, field, side = next((i, f, s) for i, e in enumerate(edges)
                              for f, s in (("a", e.side_a), ("b", e.side_b)) if s not in position)
        raise _defect(f"/edges/{i}/{field}", f"invalid region graph: edge {edges[i].label!r} "
                      f"references missing region {side!r}") from None


def _records_of(kind: type, rows):
    """Each row, a tuple of kind's fields in order, as a kind record.

    ``tuple.__new__`` runs in C, where the records' own constructor is a
    Python call per record; the caller fixes the rows' width.
    """
    return map(partial(tuple.__new__, kind), rows)


def _raise_duplicate(key: str, rows: tuple) -> None:
    """Raise at the first row of rows whose label an earlier row has."""
    seen = set()
    for i, row in enumerate(rows):
        if row.label in seen:
            raise _defect(f"/{key}/{i}/label",
                          f"invalid region graph: duplicate {key[:-1]} label {row.label!r}")
        seen.add(row.label)


@dataclass(frozen=True)
class Coloring:
    """An assignment of +1 / -1 to every region label.

    It is given as a mapping from label to sign.  Labels are str, as in a
    graph.  A sign is a Python or numpy integer, stored as an int; bools
    are not signs.  The assignment is kept as a read-only mapping, because
    the analyses of one graph share its coloring (see
    ``obstructions._canonical_coloring``).
    """

    assignment: Mapping[str, int]

    def __post_init__(self):
        if not isinstance(self.assignment, Mapping):
            raise InvalidArgumentError(f"coloring must be a mapping, got {self.assignment!r}")
        signs = dict(self.assignment)
        # the usual check is three passes over sets, which run in C; the loop
        # below runs only to name a bad label or sign, or to store numpy signs as int
        if not (_all_of(str, signs) and set(map(type, signs.values())) <= {int}
                and set(signs.values()) <= {1, -1}):
            signs = {label: _sign(label, value) for label, value in signs.items()}
        object.__setattr__(self, "assignment", MappingProxyType(signs))

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; its dict can
        return Coloring, (dict(self.assignment),)

    def __getitem__(self, label: str) -> int:
        return self.assignment[label]

    def negate(self) -> "Coloring":
        return Coloring({k: -v for k, v in self.assignment.items()})

    def is_proper(self, g: BGraph) -> bool:
        """True when it colors exactly the regions of g, and every edge
        (loops included) joins opposite colors."""
        signs = self.assignment
        return (set(signs) == set(g.region_labels())
                and all(signs[a] * signs[b] == -1 for _, a, b in g.edges))

    def to_json_dict(self) -> dict:
        return dict(sorted(self.assignment.items()))


def _sign(label: str, value) -> int:
    """value as the int +1 or -1, the color of the region label, which must be a str."""
    if not isinstance(label, str):
        raise InvalidArgumentError(f"coloring label must be a str, got {label!r}")
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
    """rows as a tuple of tuples, once ``_check_vertex_rows`` has passed them.

    A row that is not iterable, or is a str, bytes or bytearray, stays as
    given for the check to name at ``/i``, as a document's row is named.
    """
    if not isinstance(rows, Iterable):
        raise InvalidArgumentError(f"{what}s must be rows of {k} vertices, got {rows!r}")
    rows = tuple(rows)  # rows is read twice below, and an iterator only once
    if set(map(type, rows)) <= {list, tuple}:
        rows = tuple(map(tuple, rows))
    else:
        rows = tuple(r if isinstance(r, (str, bytes, bytearray)) or not isinstance(r, Iterable)
                     else tuple(r) for r in rows)
    _check_vertex_rows(rows, k, what)
    return rows


def _check_vertex_rows(rows, k: int, what: str) -> None:
    """Check that rows are lists or tuples of k integers.

    The usual check is three passes over sets of types and lengths, which
    run in C.  The rows are walked only to raise at the first defect, at
    path ``/i`` for row i of the wrong type or length, or ``/i/j`` for its
    entry j that is not an integer (see ``_defect``).  A row is quoted as a
    tuple, as ``TriangulatedSurface`` stores it.
    """
    if (set(map(type, rows)) <= {list, tuple} and set(map(len, rows)) <= {k}
            and all(map(_is_int, set(map(type, chain.from_iterable(rows)))))):
        return
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != k:
            shown = tuple(row) if isinstance(row, list) else row
            raise _defect(f"/{i}", f"{what} {i} does not have {k} vertices: {shown!r}")
        for j, v in enumerate(row):
            if not _is_int(type(v)):
                raise _defect(f"/{i}/{j}", f"{what} {i} has a vertex that is not an integer: {v!r}")


@dataclass(frozen=True)
class _HalfEdges:
    """A checked closed surface as flat arrays.

    Half-edge 3i + s is side s of triangle i with sorted vertices a < b < c:
    (a, b) for s = 0, (b, c) for s = 1 and (a, c) for s = 2.  The first two
    run along their edge and the third against it.

    Half-edges are numbered in int32, which ``_half_edges`` makes room for
    by refusing more than ``_MAX_TRIANGLES`` triangles; vertices and keys
    are int64, since u * V + w passes 2**31 from V = 46 341 vertices on.
    """

    tris: np.ndarray  # F x 3 int64 vertex numbers, rows sorted
    keys: np.ndarray  # one int64 key u * V + w (u < w) per edge, ascending
    pairs: np.ndarray  # E x 2 int32: the two half-edges of each edge, in key order


# the most triangles a surface may have: its 3F half-edges are numbered in int32
_MAX_TRIANGLES = (2**31 - 1) // 3


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
    ``_vertex_array`` returns them; its rows are sorted in place, and it
    becomes the result's ``tris``.  The 3F half-edges are keyed u * V + w
    and sorted once; the complex is closed exactly when every run of equal
    keys has length two.  The defects are reported in a fixed order:
    more than ``_MAX_TRIANGLES`` triangles (before any row is read),
    degenerate or out-of-range triangles, duplicates, isolated vertices,
    edges not in two triangles.
    """
    import numpy as np

    f = len(t)
    if not f:
        raise NonClosedSurfaceError("the complex has no triangles")
    if f > _MAX_TRIANGLES:
        raise InvalidArgumentError(f"a surface has at most {_MAX_TRIANGLES} triangles, got {f}")
    _check_rows(n, t)
    t.sort(axis=1)
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
    keys = np.stack((a, b, a), axis=1)
    keys *= n
    keys += np.stack((b, c, c), axis=1)
    keys = keys.ravel()
    # stable, which the report below relies on; on triangles listed in grid
    # order it is also faster than the default sort, which wins on shuffled ones
    order = np.argsort(keys, kind="stable").astype(np.int32)
    keys = keys.take(order)
    # closed: 3F is even, and every key equals its partner in its pair and
    # differs from the next pair's
    if f % 2 or not ((keys[0::2] == keys[1::2]).all() and (keys[1:-1:2] != keys[2::2]).all()):
        _check_distinct(t)
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        runs = np.diff(np.append(starts, 3 * f))
        # a stable sort starts each run at its first half-edge: report the
        # edge met first in triangle order
        bad_runs = np.flatnonzero(runs != 2)
        r = bad_runs[order[starts[bad_runs]].argmin()]
        e = divmod(int(keys[starts[r]]), n)
        raise NonClosedSurfaceError(
            f"edge {e} lies in {runs[r]} triangle(s); a closed surface needs 2"
        )
    keys = keys[::2].copy()  # not a view, which would keep all 3F keys alive
    pairs = order.reshape(-1, 2)
    # every edge lies in exactly two triangles, so a repeated triangle meets
    # its copy across an edge: the two triangles there share their third
    # vertex, which for half-edge 3i + s is vertex (s + 2) % 3 of triangle i
    third = t.ravel().take(pairs - pairs % 3 + (pairs + 2) % 3)
    if (third[:, 0] == third[:, 1]).any():
        raise NonClosedSurfaceError("duplicate triangle in complex")

    return _HalfEdges(t, keys, pairs)


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Label every node 0 .. n-1 with the smallest node of its component.

    Hook and shortcut, as in Shiloach & Vishkin (1982): each round hooks the
    larger root of every edge whose ends still have different roots onto the
    smaller one, then jumps pointers until every node points at a root.
    Roots only ever hook onto smaller roots, so the smallest node of each
    component ends as its root.  Hooking an edge inside one tree changes
    nothing; such edges are dropped after the round.  Each round replaces
    u and v by the edges left, so arrays the caller does not keep are freed.

    The labels are int32, so n must be below 2**31; every caller's nodes
    are triangles, half-edges or cover nodes, which ``_half_edges`` keeps
    there.  The edge ends u and v may be int32 or int64.  Every gather is an
    ``np.take``: a fancy index would cast int32 indices to intp each time.
    """
    import numpy as np

    f = np.arange(n, dtype=np.int32)
    while True:
        fu, fv = f.take(u), f.take(v)
        live = fu != fv
        if not live.any():
            return f
        hi = np.maximum(fu, fv)
        np.minimum.at(f, hi, np.minimum(fu, fv, out=fu))
        del fu, fv, hi
        u, v = u[live], v[live]
        del live
        jumped = f.take(f)
        while (jumped != f).any():
            f, jumped = jumped, jumped.take(jumped)


def _z_cycles(n: int, z: np.ndarray, mesh: _HalfEdges) -> Tuple[np.ndarray, np.ndarray]:
    """Check that the marked edges are distinct and form disjoint cycles.

    ``z`` holds them as ``_vertex_array`` returns them, in any order and
    orientation; here each row is sorted in place to (min, max), and the
    pairs are sorted.
    Returns, for every marked edge in that order, its cycle number (cycles
    numbered in the order of their smallest edge) and its edge number
    (index into ``mesh.keys``).
    """
    import numpy as np

    z.sort(axis=1)
    u, v = z.T
    # -1 for a pair that names no edge: out of range or a loop
    named = (0 <= u) & (u < v) & (v < n)
    zkeys = np.where(named, u * n + v, -1).astype(np.int64)
    # the keys of pairs in range sort as the pairs do; only a pair that names
    # no edge needs the pairs' own order, so that the first defect is the same
    order = np.argsort(zkeys) if named.all() else np.lexsort(z.T[::-1])
    zkeys = zkeys[order]
    edge = np.searchsorted(mesh.keys, zkeys).clip(max=len(mesh.keys) - 1)
    off = mesh.keys[edge] != zkeys
    repeat = np.zeros(len(z), dtype=bool)  # sorted above: a repeat is a neighbour
    repeat[1:] = zkeys[1:] == zkeys[:-1]
    if (off | repeat).any():
        k = int((off | repeat).argmax())
        pair = tuple(z[order[k]].tolist())
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
    at = np.argsort(ends, kind="stable").astype(np.int32)
    at //= 2
    del ends
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
    sheet = np.arange(2, dtype=np.int32)[:, None]  # int64 here would widen every node
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
    h, k = mesh.pairs.T
    roots, region = np.unique(_components(len(mesh.tris), h[unmarked] // 3, k[unmarked] // 3),
                              return_inverse=True)
    return region, len(roots)


def _closure_eulers(mesh: _HalfEdges, n: int, region: np.ndarray, count: int) -> List[int]:
    """Euler characteristic of each region's closure: corners - edges + faces."""
    import numpy as np

    sides = region.take(mesh.pairs // 3)  # the regions on the two sides of each edge
    edges = np.concatenate((sides[:, 0], sides[sides[:, 0] != sides[:, 1], 1]))
    del sides
    corners = np.repeat(region, 3)  # int64 keys region * V + vertex, one per corner
    corners *= n
    corners += mesh.tris.ravel()
    corners.sort()
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
    ``_vertex_array`` returns them; the rows of both are sorted in place.
    """
    import numpy as np

    mesh = _half_edges(n, t)
    cycle, edge = _z_cycles(n, z, mesh)

    region, count = _region_numbers(mesh, edge)
    labels = [f"R{r}" for r in range(count)]
    chis = _closure_eulers(mesh, n, region, count)
    regions = tuple(_records_of(Region, zip(labels, chis)))

    # the distinct (cycle, region) pairs across every marked edge, by cycle;
    # not np.unique, whose first call without an inverse imports numpy.ma
    # (8 ms of a cold start)
    sides = np.repeat(cycle, 2)  # int64 keys cycle * count + region
    sides *= count
    sides += region.take(mesh.pairs[edge] // 3).ravel()
    del region, edge
    sides.sort()
    first = np.ones(len(sides), dtype=bool)
    first[1:] = sides[1:] != sides[:-1]
    touching: List[List[str]] = [[] for _ in range(int(cycle.max(initial=-1)) + 1)]
    for k, r in zip(*(x.tolist() for x in np.divmod(sides[first], count))):
        touching[k].append(labels[r])
    del cycle, sides, first
    edges = []
    for k, near in enumerate(touching):
        if len(near) > 2:
            raise InvalidZError(f"marked cycle {k} touches {len(near)} regions; at most 2 possible")
        a, b = sorted(near) if len(near) == 2 else near * 2
        edges.append(HypersurfaceComponent(f"Z{k}", a, b))

    if sum(chis) != n - len(mesh.keys) + len(mesh.tris):
        raise NonClosedSurfaceError("closure Euler characteristics do not sum to the "
                                    "surface's: the complex is not a surface at some vertex")

    return BGraph(regions, edges, ambient_dim=2, orientable=_orientable(mesh))


# ---------------------------------------------------------------------------
# stock graphs
# ---------------------------------------------------------------------------


def sphere_equator_graph() -> BGraph:
    """Two disk regions joined along one circle: the round sphere cut by its equator."""
    return BGraph((Region("B+", 1), Region("B-", 1)), (HypersurfaceComponent("Z0", "B+", "B-"),),
                  ambient_dim=2, orientable=True)

