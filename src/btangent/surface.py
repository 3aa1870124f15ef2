"""Triangulated closed surfaces with a marked cycle system, and their region graphs.

A surface is checked and reduced to the region graph of ``bgraph``: its
triangles glued across unmarked edges make the regions, and every marked
cycle makes one edge.  Only surface inputs run this module, so a graph
document's cold start neither compiles nor loads it; numpy loads inside
the functions that use it.

The numeric reader at the end reads a surface document's row arrays
straight from its text (see ``manifold_io``'s module docstring).
"""
from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from .bgraph import BGraph, HypersurfaceComponent, Region, _defect, _records_of
from .errors import InvalidArgumentError, InvalidZError, NonClosedSurfaceError, _as_int, _is_int

__all__ = ["TriangulatedSurface", "build_graph_from_surface", "surface_euler", "surface_orientable"]

if TYPE_CHECKING:
    import numpy as np

Edge2 = Tuple[int, int]
Triangle = Tuple[int, int, int]


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


def _check_distinct(t: np.ndarray) -> None:
    """Raise when two rows of t, each sorted, are equal."""
    import numpy as np

    rows = t[np.lexsort(t.T[::-1])]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise NonClosedSurfaceError("duplicate triangle in complex")


def _half_edges(n: int, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check that the complex is a closed surface and return its edge table.

    ``t`` holds the triangles of a complex on the vertices 0 .. n-1, as
    ``_vertex_array`` returns them; once its rows are known to be good they
    are sorted in place, by three compare-exchanges on whole columns, which
    orients triangle i as a -> b -> c -> a by its sorted row (a, b, c).

    The table has a row per edge, in ascending key order: ``keys``, the
    int64 keys u * V + w (u < w), which pass 2**31 from V = 46 341 on;
    ``faces``, E x 2 int32, the two triangles of each edge; and ``same``,
    true where the two run the same way along it.  Only this function
    numbers half-edges: 3i + s is side (a, b), (b, c) or (a, c) of triangle
    i for s = 0, 1, 2, the first two along their edge and the third against
    it, in int32, which refusing more than ``_MAX_TRIANGLES`` triangles
    makes room for.  The 3F keys are computed in one F x 3 array and sorted
    once; the complex is closed exactly when every run of equal keys has
    length two.  The defects are reported in a fixed order: more than
    ``_MAX_TRIANGLES`` triangles (before any row is read), degenerate or
    out-of-range triangles, duplicates, isolated vertices, edges not in two
    triangles.
    """
    import numpy as np

    f = len(t)
    if not f:
        raise NonClosedSurfaceError("the complex has no triangles")
    if f > _MAX_TRIANGLES:
        raise InvalidArgumentError(f"a surface has at most {_MAX_TRIANGLES} triangles, got {f}")
    # the rows sorted by the comparators (a, b), (b, c), (a, b) into new
    # columns: t keeps its rows as stored until the sorted columns show them
    # good, so that the first bad row is named as stored
    a, b, c = t.T
    lo, mid = np.minimum(a, b), np.maximum(a, b)
    hi = np.maximum(mid, c)
    np.minimum(mid, c, out=mid)
    lo, mid = np.minimum(lo, mid), np.maximum(lo, mid)
    degenerate = (lo == mid) | (mid == hi)
    bad = degenerate | (lo < 0) | (hi >= n)
    if bad.any():
        i = int(bad.argmax())
        row = t[i].tolist()
        if degenerate[i]:
            raise NonClosedSurfaceError(f"triangle {i} is degenerate: {tuple(row)}")
        v = next(v for v in row if not 0 <= v < n)
        raise NonClosedSurfaceError(f"triangle {i} uses vertex {v} out of range")
    t[:, 0], t[:, 1], t[:, 2] = lo, mid, hi  # and so a, b, c, which are views of t
    del lo, mid, hi, degenerate, bad
    # every vertex in use bounds V by 3F, so the vertices and the keys below
    # fit in int64; only a vertex past int64 makes t an object array, and
    # then V is past it too
    if n > 3 * f or not np.bincount(t.ravel(), minlength=n).all():
        _check_distinct(t)
        used = np.unique(t)
        missing = [int(v) for v in np.setdiff1d(np.arange(min(n, used.size + 10)), used)[:10]]
        total = n - used.size
        raise NonClosedSurfaceError(f"isolated vertices: {missing}"
                                    + (f" ({total} in all)" if total > len(missing) else ""))

    keys = np.empty((f, 3), dtype=np.int64)
    for s, (u, w) in enumerate(((a, b), (b, c), (a, c))):
        np.multiply(u, n, out=keys[:, s])
        keys[:, s] += w
    keys = keys.ravel()
    # stable only for speed: on triangles listed in grid order it is faster
    # than the default sort, which wins on shuffled ones
    order = np.argsort(keys, kind="stable").astype(np.int32)
    keys = keys.take(order)
    # closed: 3F is even, and every key equals its partner in its pair and
    # differs from the next pair's
    if f % 2 or not ((keys[0::2] == keys[1::2]).all() and (keys[1:-1:2] != keys[2::2]).all()):
        _check_distinct(t)
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        runs = np.diff(np.append(starts, 3 * f))
        # report the edge met first in triangle order: the bad run holding the
        # smallest half-edge, whatever order the sort left each run in
        bad_runs = np.flatnonzero(runs != 2)
        r = bad_runs[np.minimum.reduceat(order, starts)[bad_runs].argmin()]
        e = divmod(int(keys[starts[r]]), n)
        raise NonClosedSurfaceError(
            f"edge {e} lies in {runs[r]} triangle(s); a closed surface needs 2"
        )
    keys = keys[::2].copy()  # not a view, which would keep all 3F keys alive
    pairs = order.reshape(-1, 2)  # the two half-edges of each edge
    # every edge lies in exactly two triangles, so a repeated triangle meets
    # its copy across an edge: the two triangles there share their third
    # vertex, which for half-edge 3i + s is vertex (s + 2) % 3 of triangle i
    third = t.ravel().take(pairs - pairs % 3 + (pairs + 2) % 3)
    if (third[:, 0] == third[:, 1]).any():
        raise NonClosedSurfaceError("duplicate triangle in complex")
    del third
    along = pairs % 3 < 2  # sides 0 and 1 run along their edge, side 2 against it
    pairs //= 3  # in place: the two triangles of each edge
    return keys, pairs, along[:, 0] == along[:, 1]


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
    are cover nodes, marked edges or region sheets, at most 2F, which
    ``_half_edges`` keeps there.  The edge ends u and v may be int32 or
    int64.  Every gather is an ``np.take``: a fancy index would cast int32
    indices to intp each time.
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


def _z_cycles(n: int, z: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Check that the marked edges are distinct and form disjoint cycles.

    ``z`` holds them as ``_vertex_array`` returns them, in any order and
    orientation; here each row is sorted in place to (min, max), and the
    pairs are sorted.
    Returns, for every marked edge in that order, its cycle number (cycles
    numbered in the order of their smallest edge) and its edge number
    (index into the edge ``keys`` of ``_half_edges``).
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
    edge = np.searchsorted(keys, zkeys).clip(max=len(keys) - 1)
    off = keys[edge] != zkeys
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
    cycle, _ = _numbered(_components(len(z), at[0::2], at[1::2]))
    return cycle, edge


def _numbered(label: np.ndarray) -> Tuple[np.ndarray, int]:
    """Number the classes of a labelling 0, 1, ... in the order of their
    smallest member, where ``label`` gives every member that smallest
    member, as ``_components`` does.

    A class's number is the count of smaller classes, so a cumulative sum
    over the members that label themselves numbers every class; no sort is
    needed.  Returns the int64 number of every member and the count.
    """
    import numpy as np

    number = np.cumsum(label == np.arange(len(label), dtype=label.dtype), dtype=np.int64)
    count = int(number[-1]) if len(number) else 0
    number -= 1
    return number.take(label), count


def surface_euler(surf: TriangulatedSurface) -> int:
    """Euler characteristic V - E + F of a valid closed surface."""
    n, t = surf.vertex_count, _vertex_array(surf.triangles, 3)
    keys, _, _ = _half_edges(n, t)
    return n - len(keys) + len(t)


def surface_orientable(surf: TriangulatedSurface) -> bool:
    """Decide orientability on the orientation double cover.

    Neighboring triangles are consistently oriented exactly when they
    traverse their shared edge in opposite directions.  This is the cover
    pass of ``build_graph_from_surface`` with no edge marked: each connected
    piece of the surface is one region, and the surface is orientable
    exactly when the two sheets of every piece stay apart.
    """
    import numpy as np

    _, faces, same = _half_edges(surf.vertex_count, _vertex_array(surf.triangles, 3))
    return _cover_regions(faces, same, np.empty(0, dtype=np.int64))[2]


def _cover_regions(faces: np.ndarray, same: np.ndarray,
                   edge: np.ndarray) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Regions, the orientability of each and that of the surface, from one
    components pass over the orientation double cover cut along the marked
    edges.

    ``faces`` and ``same`` are the edge table of a closed surface (see
    ``_half_edges``), and ``edge`` holds the edge numbers of the marked edges.
    Node 2i + s of the cover is triangle i with its orientation by its
    sorted vertices (s = 0) or the reverse (s = 1).  Across an
    unmarked edge, sheet s meets sheet s of the neighbor, or sheet 1 - s
    when both run the same way along the edge.  A region is orientable
    exactly when its two sheets stay apart.  Either way, for j the smallest
    triangle of the region, every node of it is labelled 2j or 2j + 1, and
    2j + 1 only on the sheet that 2j is not on: so triangle i lies in
    region f[2i] // 2, and its sheet 0 in sheet f[2i] & 1 of the region.

    The surface is orientable exactly when every region is and the regions'
    sheets can be matched across the marked edges: on the parity cover,
    with node 2r + x for sheet x of region r, the two sheets of every
    region stay apart.

    Returns the int64 region number of every triangle, regions numbered in
    the order of their smallest triangle; whether each region is
    orientable; and whether the surface is.
    """
    import numpy as np

    h, k = faces.T
    unmarked = np.ones(len(faces), dtype=bool)
    unmarked[edge] = False
    sheet = np.arange(2, dtype=np.int32)[:, None]  # int64 here would widen every node
    # 2F nodes, since a closed surface has E = 3F / 2 edges; the ends are
    # passed, not kept, so that _components frees them
    f = _components(4 * len(faces) // 3, (2 * h[unmarked] + sheet).ravel(),
                    (2 * k[unmarked] + (sheet ^ same[unmarked])).ravel())
    del unmarked
    sheet0 = f[0::2]  # the label of every triangle's sheet 0
    region, count = _numbered(sheet0 // 2)
    orientable = np.ones(count, dtype=bool)
    orientable[region[sheet0 == f[1::2]]] = False
    if not orientable.all():
        return region, orientable, False
    # a marked edge joins sheet x of one side's region to sheet x ^ p of the
    # other's, where p is the two triangles' sheet bits and same
    h, k = h.take(edge), k.take(edge)
    p = (sheet0.take(h) ^ sheet0.take(k) ^ same.take(edge)) & 1
    f = _components(2 * count, (2 * region.take(h) + sheet).ravel(),
                    (2 * region.take(k) + (sheet ^ p)).ravel())
    return region, orientable, bool((f[0::2] != f[1::2]).all())


def _closure_eulers(tris: np.ndarray, faces: np.ndarray, n: int, region: np.ndarray,
                    count: int) -> List[int]:
    """Euler characteristic of each region's closure: corners - edges + faces,
    on a surface given by its sorted triangle rows ``tris`` and the
    ``faces`` of its edge table (see ``_half_edges``).

    A corner is a distinct (region, vertex) pair.  A scatter gives every
    vertex one of its regions, which makes one corner each; only the corners
    of a vertex in its other regions are keyed and sorted.
    """
    import numpy as np

    sides = region.take(faces)  # the regions on the two sides of each edge
    edges = np.concatenate((sides[:, 0], sides[sides[:, 0] != sides[:, 1], 1]))
    del sides
    home = np.empty(n, dtype=np.int64)  # every vertex is in use
    home[tris] = region[:, None]
    away = np.flatnonzero(home.take(tris) != region[:, None])
    corners = region.take(away // 3)  # int64 keys region * V + vertex
    corners *= n
    corners += tris.ravel().take(away)
    del away
    corners.sort()
    first = np.ones(len(corners), dtype=bool)
    first[1:] = corners[1:] != corners[:-1]
    chi = (np.bincount(region, minlength=count) - np.bincount(edges, minlength=count)
           + np.bincount(home, minlength=count)
           + np.bincount(corners[first] // n, minlength=count))
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
    ``_vertex_array`` or the numeric reader ``_read_rows`` returns
    them; the rows of both are sorted in place.
    """
    import numpy as np

    keys, faces, same = _half_edges(n, t)
    cycle, edge = _z_cycles(n, z, keys)
    euler = n - len(keys) + len(t)
    del keys  # not read again

    region, region_orientable, orientable = _cover_regions(faces, same, edge)
    del same
    count = len(region_orientable)
    labels = [f"R{r}" for r in range(count)]
    chis = _closure_eulers(t, faces, n, region, count)
    regions = tuple(_records_of(Region, zip(labels, chis)))

    # the distinct (cycle, region) pairs across every marked edge, by cycle;
    # not np.unique, whose first call without an inverse imports numpy.ma
    # (8 ms of a cold start)
    sides = np.repeat(cycle, 2)  # int64 keys cycle * count + region
    sides *= count
    sides += region.take(faces[edge]).ravel()
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

    if sum(chis) != euler:
        raise NonClosedSurfaceError("closure Euler characteristics do not sum to the "
                                    "surface's: the complex is not a surface at some vertex")

    return BGraph(regions, edges, ambient_dim=2, orientable=orientable)


# the numeric reader (see manifold_io's module docstring): rows are checked and
# converted about this many characters at a time, so that its peak memory
# stays a small multiple of the chunk whatever the document's size
_CHUNK = 1 << 16
_WIDTHS = {"triangles": 3, "z_edges": 2}
_DIGITS = b"0123456789"
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")
# a row array's stand-in while the rest of the document is parsed, followed
# by the array's key
_SENTINEL = "btangent:numeric-reader:"


def _span(text: str, key: str):
    """(a, b), with text[a:b] the array under key, when key occurs once in
    text, as "key":[ or "key": [; () when it does not occur; else None.

    The array is taken to end at its first "]]", or to be "[]"; what it
    holds is checked by ``_row_pieces``.
    """
    quoted = f'"{key}"'
    i = text.find(quoted)
    if i < 0:
        return ()
    a = i + len(quoted)
    if text.find(quoted, a) >= 0:
        return None
    colon = ":[" if text.startswith(":[", a) else ": [" if text.startswith(": [", a) else None
    if colon is None:
        return None
    a += len(colon) - 1
    b = a + 2 if text.startswith("[]", a) else text.find("]]", a) + 2
    return (a, b) if b > a else None


def _row_pieces(text: str, a: int, b: int, k: int) -> Optional[List[Tuple[int, int, int]]]:
    """The pieces (p, q, rows) of the array text[a:b]: whole rows text[p:q],
    about _CHUNK characters each, joined by "," or ", ".  None unless each
    piece, with its ", " folded to "," and its digits deleted, is the
    skeleton of its rows, "[,,],[,,],...,[,,]" for k = 3.

    Runs on the stdlib alone, so that a float, sign, exponent, literal,
    stray space or row of the wrong width is declined before numpy loads.
    The digit runs are checked by ``_rows_array``.
    """
    row = b"[" + b"," * (k - 1) + b"],"
    pieces, p, end = [], a + 1, b - 1  # text[end] is the closing bracket
    while p < end:
        q = text.find("]", p + _CHUNK, end) + 1 or end
        piece = text[p:q]
        if not piece.isascii():
            return None
        skeleton = piece.encode("ascii").replace(b", ", b",").translate(None, _DIGITS)
        count = (len(skeleton) + 1) // len(row)
        if skeleton + b"," != row * count:
            return None
        pieces.append((p, q, count))
        if q == end:
            break
        if text[q] != ",":
            return None
        # text[end - 1] is "]", so a row starts before end
        p = q + 2 if text[q + 1] == " " else q + 1
    return pieces


def _rows_array(text: str, pieces: List[Tuple[int, int, int]], k: int):
    """The rows of the pieces as an N x k int64 array, converted a piece at
    a time into one preallocated array; None unless every field of a row
    holds 1 to 18 digits with no leading zero, and no digit lies outside a
    field."""
    import numpy as np

    out = np.empty((sum(count for _, _, count in pieces), k), dtype=np.int64)
    flat = out.reshape(-1)
    at = 0
    for p, q, count in pieces:
        piece = text[p:q].encode("ascii").replace(b", ", b",")
        u = np.frombuffer(piece, dtype=np.uint8)
        # the brackets and commas, k + 2 to a row: "[", k - 1 commas, "]" and
        # the "," after it (past the end for the last row); the digits after
        # each are the row's k fields, then none and none
        marks = np.append(np.flatnonzero(u - np.uint8(48) > 9), len(piece))
        runs = np.diff(marks, append=len(piece) + 1).reshape(count, k + 2) - 1
        fields = runs[:, :k]
        if marks[0] or runs[:, k:].any() or fields.min() < 1 or fields.max() > 18:
            return None
        first = u[marks.reshape(count, k + 2)[:, :k] + 1]
        if ((first == ord("0")) & (fields > 1)).any():
            return None
        flat[at:at + count * k] = np.fromstring(piece.translate(_BLANK_BRACKETS),
                                                dtype=np.int64, sep=",")
        at += count * k
    return out


def _read_rows(text: str) -> Optional[Tuple[Any, tuple]]:
    """The numeric reader: the document in text, parsed with its surface's
    row arrays replaced by sentinels, and those arrays, F x 3 and L x 2
    int64; None when it declines (see ``manifold_io``'s module docstring).

    Text with a backslash is declined, so that no key and no sentinel in it
    can be written with escapes.
    """
    spans = {"triangles": _span(text, "triangles")}
    if not spans["triangles"]:  # absent, as from a graph document, or not an array
        return None
    spans["z_edges"] = _span(text, "z_edges")
    if spans["z_edges"] is None or "\\" in text or _SENTINEL in text:
        return None
    spans = {key: span for key, span in spans.items() if span}  # z_edges may be absent
    pieces = {key: _row_pieces(text, a, b, _WIDTHS[key]) for key, (a, b) in spans.items()}
    if None in pieces.values():
        return None
    parts, at = [], 0
    for a, b, key in sorted((a, b, key) for key, (a, b) in spans.items()):
        parts += text[at:a], f'"{_SENTINEL}{key}"'
        at = b
    parts.append(text[at:])
    try:
        doc = json.loads("".join(parts))
    except (ValueError, RecursionError):
        return None
    surface = doc.get("surface") if isinstance(doc, dict) else None
    if not isinstance(surface, dict) or any(surface.get(key) != _SENTINEL + key for key in spans):
        return None
    rows = tuple(_rows_array(text, pieces.get(key, []), k) for key, k in _WIDTHS.items())
    return None if any(r is None for r in rows) else (doc, rows)
