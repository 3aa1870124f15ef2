"""Triangulated closed surfaces with a marked cycle system, and their region graphs.

A surface is checked and reduced to the region graph of ``bgraph``: its
triangles glued across unmarked edges make the regions, and every marked
cycle makes one edge.  Only surface inputs run this module, so a graph
document's cold start neither compiles nor loads it; numpy loads inside
the functions that use it.

The numeric reader ``_read_rows`` at the end reads a surface document's
row arrays straight from its text, as its docstring states.
"""
from __future__ import annotations

import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from .bgraph import BGraph, _defect
from .errors import InvalidArgumentError, InvalidZError, NonClosedSurfaceError, _as_int, _is_int

__all__ = ["TriangulatedSurface", "build_graph_from_surface", "surface_euler", "surface_orientable"]

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, eq=False)
class TriangulatedSurface:
    """A closed triangulated surface with a marked system of edge cycles.

    Attributes:
        vertex_count: vertices are the integers 0 .. vertex_count - 1.
        triangles: faces, a read-only F x 3 int64 array of the rows given,
            in order.  Each is oriented by its sorted order: a triangle with
            vertices a < b < c runs a -> b -> c -> a, along its two edges at
            the middle vertex b and against the edge (a, c).
        z_edges: marked edges, a read-only L x 2 int64 array, as given.
            Together they must form a disjoint union of embedded cycles.

    Rows are any iterable of rows, or an integer array.  The vertex count
    and every vertex are Python or numpy integers, as in a surface document;
    bools and floats, whole ones included, are not.  Surfaces are equal, and
    hash alike, when their vertex counts and rows are.

    Raises:
        InvalidArgumentError: a vertex count that is not an integer, or
            naming the first triangle or marked edge that is not a row of
            3 or 2 integers.
        NonClosedSurfaceError / InvalidZError: a vertex past int64, with
            the error that ``build_graph_from_surface`` gives it.
    """

    vertex_count: int
    triangles: np.ndarray
    z_edges: np.ndarray = ()

    def __post_init__(self):
        n = _as_int(self.vertex_count, "vertex_count")
        t, z = _vertex_arrays(self.triangles, self.z_edges)
        if object in (t.dtype, z.dtype):  # a vertex past int64, on which the kernel raises
            _surface_graph(n, t, z)
        t.flags.writeable = z.flags.writeable = False
        for name, value in (("vertex_count", n), ("triangles", t), ("z_edges", z)):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return self.vertex_count, self.triangles.tobytes(), self.z_edges.tobytes()

    def __eq__(self, other):
        if not isinstance(other, TriangulatedSurface):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # copies are made, read-only, by the constructor
        return TriangulatedSurface, (self.vertex_count, self.triangles, self.z_edges)


_ROWS = {"triangles": (3, "triangle"), "z_edges": (2, "marked edge")}  # key: width, row name


def _vertex_arrays(triangles, z_edges) -> Tuple[np.ndarray, np.ndarray]:
    """A surface's rows as new F x 3 and L x 2 int64 arrays; numpy loads only
    once ``_check_vertex_rows`` has passed both.  A vertex past int64 makes
    an object array of Python ints, which the kernel refuses, quoting the
    vertex exactly."""
    checked = _check_vertex_rows(triangles, "triangles"), _check_vertex_rows(z_edges, "z_edges")
    import numpy as np

    arrays = []
    for rows, (k, _) in zip(checked, _ROWS.values()):
        try:  # an integer array is cast, and rows are read, into int64
            flat = (np.array(rows, dtype=np.int64, order="C") if isinstance(rows, np.ndarray)
                    else np.fromiter(chain.from_iterable(rows), np.int64, k * len(rows)))
        except OverflowError:
            flat = np.array(list(map(int, chain.from_iterable(rows))), dtype=object)
        arrays.append(flat.reshape(-1, k))
    return tuple(arrays)


def _check_vertex_rows(rows, key: str):
    """The rows under key, checked to be rows of k integers: an integer
    array of width k that fits int64, else a list or tuple of rows; any
    other array is read as its ``tolist()``, so errors quote plain values.

    A list is checked by three C passes over sets of types and lengths, on
    the stdlib alone; it is walked only to raise at the first defect (see
    ``_defect``), at ``/key``, ``/key/i`` for row i of the wrong type or
    length, quoted as a tuple, or ``/key/i/j`` for a non-integer entry j.
    A str, bytes or bytearray is one row, as in a document."""
    k, what = _ROWS[key]
    np = sys.modules.get("numpy")  # an array exists only once numpy is loaded
    if np is not None and isinstance(rows, np.ndarray):
        if (rows.ndim == 2 and rows.shape[1] == k and rows.dtype.kind in "iu"
                and np.can_cast(rows.dtype, np.int64)):
            return rows
        rows = rows.tolist()
    if not isinstance(rows, Iterable):
        raise _defect(f"/{key}", f"{what}s must be rows of {k} vertices, got {rows!r}")
    rows = rows if isinstance(rows, (list, tuple)) else list(rows)  # read more than once
    listed = set(map(type, rows)) <= {list, tuple}
    if not listed:
        rows = [r if isinstance(r, (str, bytes, bytearray)) or not isinstance(r, Iterable)
                else tuple(r) for r in rows]
    if (listed and set(map(len, rows)) <= {k}
            and all(map(_is_int, set(map(type, chain.from_iterable(rows)))))):
        return rows
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != k:
            shown = tuple(row) if isinstance(row, list) else row
            raise _defect(f"/{key}/{i}", f"{what} {i} does not have {k} vertices: {shown!r}")
        for j, v in enumerate(row):
            if not _is_int(type(v)):
                raise _defect(f"/{key}/{i}/{j}",
                              f"{what} {i} has a vertex that is not an integer: {v!r}")
    return rows


# the most triangles a surface may have: its 3F half-edges are numbered in
# int32, and so are the labels 2 * root + parity of _components
_MAX_TRIANGLES = (2**31 - 1) // 3


def _check_distinct(t: np.ndarray) -> None:
    """Raise when two rows of t, each sorted, are equal."""
    import numpy as np

    rows = t[np.lexsort(t.T[::-1])]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise NonClosedSurfaceError("duplicate triangle in complex")


def _half_edges(n: int, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check that the complex is a closed surface and return its edge table.

    ``t`` holds the triangles of a complex on the vertices 0 .. n-1, an
    F x 3 int64 array the caller owns; once its rows are known to be good
    they are sorted in place, by three compare-exchanges on whole columns,
    which orients triangle i as a -> b -> c -> a by its sorted row (a, b, c).

    The table has a row per edge, in ascending key order: ``keys``, the
    int64 keys u * V + w (u < w), which pass 2**31 from V = 46 341 on;
    ``faces``, E x 2 int32, the two triangles of each edge; and ``same``,
    true where the two run the same way along it.  Only this function
    numbers half-edges: 3i + s is side (a, b), (b, c) or (a, c) of triangle
    i for s = 0, 1, 2, the first two along their edge and the third against
    it, in int32, which refusing more than ``_MAX_TRIANGLES`` triangles
    makes room for.  The 3F keys are computed in one F x 3 array and sorted
    once by ``_sorted_keys``: each key, below V**2, is packed with its
    half-edge number, below 3F, into one int64 and sorted in place, which
    fits in its 63 bits up to about 2.1 million triangles (V = F / 2 + chi);
    a larger surface takes a stable ``argsort``, with the same result.  The
    complex is closed exactly when every run of equal keys has length two.
    The defects are reported in a fixed order: more than
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
    keys, order = _sorted_keys(keys.ravel(), n * n)
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
    # side s of half-edge 3i + s, as 3i + s - 3i in one temporary: a % would
    # take several times as long as the division by 3
    side = pairs // 3
    side *= 3
    np.subtract(pairs, side, out=side)
    along = side < 2  # sides 0 and 1 run along their edge, side 2 against it
    del side
    pairs //= 3  # in place: the two triangles of each edge
    # every edge lies in exactly two triangles, so a repeated triangle meets
    # its copy across an edge; the two triangles there share the edge's two
    # vertices, so they share the third exactly when their vertex sums agree
    total = a + b
    total += c
    if (total.take(pairs[:, 0]) == total.take(pairs[:, 1])).any():
        raise NonClosedSurfaceError("duplicate triangle in complex")
    return keys, pairs, along[:, 0] == along[:, 1]


# the bits a packed sort key may use (see _sorted_keys): a key and its index
# share one non-negative int64
_PACK_BITS = 63


def _sorted_keys(keys: np.ndarray, top: int) -> Tuple[np.ndarray, np.ndarray]:
    """The int64 keys, each in 0 .. top - 1, sorted, and the int32 order that
    sorts them stably: key i of the result is keys[order[i]].

    The sort is one in-place ``sort`` of ``key << b | i``, with b the bit
    length of the last index: the packed values are distinct, so they sort
    as the keys do with equal keys in index order, and a mask and a shift
    read the order and the keys back.  The bits of top - 1 and b must fit
    in ``_PACK_BITS`` together, which is decided from top and the length
    alone; past that, a stable ``argsort`` gives the same result.  Besides
    the keys, the packed sort makes only the int32 order, where the
    ``argsort`` also makes an int64 order and a sorted copy of the keys; on
    shuffled keys it is several times faster.  keys is overwritten.
    """
    import numpy as np

    bits = (len(keys) - 1).bit_length()
    if (top - 1).bit_length() + bits > _PACK_BITS:
        order = np.argsort(keys, kind="stable").astype(np.int32)
        return keys.take(order), order
    keys <<= bits
    keys |= np.arange(len(keys))
    keys.sort()
    order = np.empty(len(keys), dtype=np.int32)
    np.bitwise_and(keys, (1 << bits) - 1, out=order, casting="unsafe")
    keys >>= bits
    return keys, order


def _components(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Label every node 0 .. n-1 with the smallest node of its component and
    its parity there: node x gets 2r + b, with r that smallest node and b
    the parity of a path of edges from r to x.

    Edge i joins u[i] to v[i] with parity w[i], 0 or 1, and a path's parity
    is the sum of its edges' mod 2.  The bits are those of a spanning forest
    of the edges.  They are every path's when each cycle of the component
    has even parity, which the caller checks: an edge is consistent exactly
    when the labels of its two ends and its parity xor to 0, as their roots
    cancel.

    Hook and shortcut, as in Shiloach & Vishkin (1982): each round hooks the
    larger root of every edge whose ends still have different roots onto the
    smaller one, then jumps pointers until every node points at a root.  A
    label is a pointer with the parity to it, so a jump is
    ``p.take(p >> 1) ^ (p & 1)``, and a hook takes the parity that makes its
    edge consistent.  Roots only ever hook onto smaller roots, so the
    smallest node of each component ends as its root.  In the first round
    every node is its own root, so that round hooks the larger end of every
    edge onto the smaller straight from u, v and w, with no gather.  Hooking
    an edge inside one tree changes nothing, so a later round hooks only
    the live edges, whose ends have different roots, and then replaces u, v
    and w by them; so arrays the caller does not keep are freed.  The live
    edges are picked by index, with ``np.flatnonzero`` and ``take``: on a
    shuffled 10**6-triangle torus the first later round took half as long
    as with boolean masks.

    The labels are int32, so 2n must be below 2**31; every caller's nodes
    are triangles, marked edges or regions, at most 3F / 2 of them, which
    ``_half_edges`` keeps there.  The ends u and v may be int32 or int64,
    and w bool or an integer type.  Every gather is an ``np.take``: a fancy
    index would cast int32 indices to intp each time.  Each jump pass takes
    all n pointers, roots included: jumping only the nodes not yet at a root
    was 1.8 to 2.2 times slower on grid covers, since scattering them back
    costs more than the whole-array ``take`` it saves.
    """
    import numpy as np

    p = np.arange(0, 2 * n, 2, dtype=np.int32)
    hook = np.minimum(u, v).astype(np.int32, copy=False)
    hook <<= 1
    hook |= w
    np.minimum.at(p, np.maximum(u, v), hook)
    del hook
    while True:
        jumped = _jumped(p)
        while (jumped != p).any():
            p, jumped = jumped, _jumped(jumped)
        pu, pv = p.take(u), p.take(v)
        odd = pu ^ pv  # 2 or more exactly where the roots differ
        live = np.flatnonzero(odd > 1)
        if not live.size:
            return p
        odd ^= w
        odd &= 1  # the parity of the larger root from the smaller
        hi = np.maximum(pu, pv)
        hi >>= 1
        hook = np.minimum(pu, pv, out=pu)
        del pv
        hook &= -2
        hook |= odd
        del odd
        np.minimum.at(p, hi.take(live), hook.take(live))
        del hi, hook
        u, v, w = u.take(live), v.take(live), w.take(live)
        del live


def _jumped(p: np.ndarray) -> np.ndarray:
    """The labels of ``_components`` after one pointer jump: each node
    points at its pointer's pointer, with the parities of both steps."""
    jumped = p.take(p >> 1)
    jumped ^= p & 1
    return jumped


def _z_cycles(n: int, z: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Check that the marked edges are distinct and form disjoint cycles.

    ``z`` holds them as an L x 2 int64 array the caller owns, in any order
    and orientation; here each row is sorted in place to (min, max), and
    the pairs are sorted.
    Returns, for every marked edge in that order, its cycle number (cycles
    numbered in the order of their smallest edge) and its edge number
    (index into the edge ``keys`` of ``_half_edges``).
    """
    import numpy as np

    z.sort(axis=1)
    u, v = z.T
    named = (0 <= u) & (u < v) & (v < n)  # else out of range or a loop, keyed -1
    # named pairs' keys sort as the pairs do; else the pairs' own order names the first defect
    if named.all():
        zkeys, order = _sorted_keys(u * n + v, n * n)
    else:
        order = np.lexsort(z.T[::-1])
        zkeys = np.where(named, u * n + v, -1).astype(np.int64).take(order)
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

    ends = z.take(order, axis=0).ravel()  # end s of marked edge k at 2k + s
    degree = np.bincount(ends)
    bad = np.flatnonzero((degree != 0) & (degree != 2))
    if bad.size:
        v = int(bad[0])
        raise InvalidZError(
            f"vertex {v} has degree {degree[v]} in the marked edge set; cycles need 2"
        )
    # every vertex ends two marked edges: sorted by vertex, the ends pair up
    at = _sorted_keys(ends, n)[1]
    at //= 2
    del ends
    even = np.zeros(len(z), dtype=bool)  # the cycles' labels alone are read, not their parities
    cycle, _ = _numbered(_components(len(z), at[0::2], at[1::2], even) >> 1)
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
    keys, _, _ = _half_edges(surf.vertex_count, surf.triangles.copy())
    return surf.vertex_count - len(keys) + len(surf.triangles)


def surface_orientable(surf: TriangulatedSurface) -> bool:
    """Decide orientability by the parity components pass of
    ``_cover_regions`` with no edge marked: each connected piece of the
    surface is one region, and the surface is orientable when every piece is.
    """
    import numpy as np

    _, faces, same = _half_edges(surf.vertex_count, surf.triangles.copy())
    return bool(_cover_regions(faces, same, np.empty(0, dtype=np.int64))[2].all())


def _cover_regions(faces: np.ndarray, same: np.ndarray,
                   edge: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regions, each triangle's sheet and the orientability of each region,
    from one parity components pass over the triangles glued across the
    unmarked edges.

    ``faces`` and ``same`` are the edge table of a closed surface (see
    ``_half_edges``), and ``edge`` holds the edge numbers of the marked
    edges.  Triangle i is oriented by its sorted vertices, and its sheet
    bit says whether to keep that orientation (0) or reverse it (1).  Two
    triangles glued across an unmarked edge are oriented alike exactly when
    they run the edge opposite ways, so the edge takes parity ``same``.  For
    j the smallest triangle of a region, ``_components`` labels every
    triangle i of it 2j + s: i lies in region j and takes sheet bit s.  A
    region is orientable exactly when these bits orient it, that is when no
    unmarked edge inside it has sheet(h) ^ sheet(k) ^ same = 1 for its
    triangles h and k; only there are the bits read.

    Returns the int64 region number of every triangle, regions numbered in
    the order of their smallest triangle; the int32 sheet bit of every
    triangle; and whether each region is orientable.
    """
    import numpy as np

    h, k = faces.T
    unmarked = np.ones(len(faces), dtype=bool)
    unmarked[edge] = False
    # F nodes, since a closed surface has E = 3F / 2 edges; the ends are
    # passed, not kept, so that _components frees them
    f = _components(2 * len(faces) // 3, h[unmarked], k[unmarked], same[unmarked])
    odd = f.take(h)
    odd ^= f.take(k)
    odd ^= same  # 0 on every consistent unmarked edge, where the roots cancel
    unmarked &= odd != 0
    del odd
    region, count = _numbered(f >> 1)
    orientable = np.ones(count, dtype=bool)
    orientable[region.take(h[unmarked])] = False
    f &= 1
    return region, f, orientable


def _closure_eulers(tris: np.ndarray, n: int, region: np.ndarray, count: int,
                    a: np.ndarray, b: np.ndarray) -> List[int]:
    """Euler characteristic of each region's closure: corners - edges + faces,
    on a closed surface given by its sorted triangle rows ``tris``, with
    ``a`` and ``b`` the regions on the two sides of each marked edge.

    The edges are counted from the F_r triangles of region r and the marked
    edges alone: each of the 3 F_r triangle sides in r lies on an edge, an
    unmarked one with both its sides in r and a marked one with one, so
    region r's closure has (3 F_r - s_r) / 2 + t_r edges, with s_r the
    marked-edge sides in r and t_r the marked edges touching r.

    A corner is a distinct (region, vertex) pair.  A scatter gives every
    vertex one of its regions, which makes one corner each; only the corners
    of a vertex in its other regions are keyed and sorted.
    """
    import numpy as np

    triangles = np.bincount(region, minlength=count)
    on_a, on_b = np.bincount(a, minlength=count), np.bincount(b, minlength=count)
    edges = (3 * triangles - on_a - on_b) // 2 + on_a + np.bincount(b[a != b], minlength=count)
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
    chi = (triangles - edges + np.bincount(home, minlength=count)
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
            embedded cycles, or a marked cycle touches more than two regions
            (at a pinched vertex; this is reported first).
    """
    return _surface_graph(surf.vertex_count, surf.triangles.copy(), surf.z_edges.copy())


def _surface_graph(n: int, t: np.ndarray, z: np.ndarray) -> BGraph:
    """``build_graph_from_surface`` on a complex given as its parts.

    ``t`` holds the triangles and ``z`` the marked edges, F x 3 and L x 2
    int64 arrays that the caller owns; the rows of both are sorted in
    place.  Each marked edge's two
    triangles h, k and their regions a, b are gathered once, and every
    marked-edge fact is read from them: M's orientability, the closure
    Euler characteristics, and each cycle's two sides and stray regions.
    """
    import numpy as np

    keys, faces, same = _half_edges(n, t)
    cycle, edge = _z_cycles(n, z, keys)
    euler = n - len(keys) + len(t)
    del keys  # not read again

    region, sheet, region_orientable = _cover_regions(faces, same, edge)
    count = len(region_orientable)
    h, k = (side.take(edge) for side in faces.T)
    del faces
    a, b = region.take(h), region.take(k)
    orientable = bool(region_orientable.all())
    if orientable:
        # M is orientable exactly when the regions' orientations by their
        # sheet bits can be kept or reversed, each region as a whole, so that
        # they agree across every marked edge: a parity pass over the regions,
        # where a marked edge flips the region across it exactly when p is 1
        p = sheet.take(h) ^ sheet.take(k) ^ same.take(edge)
        f = _components(count, a, b, p)
        orientable = not (f.take(a) ^ f.take(b) ^ p).any()
    del same, sheet, edge, h, k
    labels = [f"R{r}" for r in range(count)]
    chis = _closure_eulers(t, n, region, count, a, b)
    del region

    # each marked cycle's two sides are the smallest and the largest region
    # across its edges, and no edge may touch a third
    cycles = int(cycle.max(initial=-1)) + 1
    lo, hi = np.full(cycles, count, dtype=np.int64), np.zeros(cycles, dtype=np.int64)
    np.minimum.at(lo, cycle, np.minimum(a, b))
    np.maximum.at(hi, cycle, np.maximum(a, b))
    at_lo, at_hi = lo.take(cycle), hi.take(cycle)
    stray = ((a != at_lo) & (a != at_hi)) | ((b != at_lo) & (b != at_hi))
    if stray.any():
        k = int(cycle[stray].min())
        near = np.union1d(a[cycle == k], b[cycle == k]).size
        raise InvalidZError(f"marked cycle {k} touches {near} regions; at most 2 possible")
    lo, hi = ([labels[r] for r in x.tolist()] for x in (lo, hi))

    if sum(chis) != euler:
        raise NonClosedSurfaceError("closure Euler characteristics do not sum to the "
                                    "surface's: the complex is not a surface at some vertex")

    return BGraph._of_columns(labels, chis, [f"Z{k}" for k in range(cycles)],
                              list(map(min, lo, hi)), list(map(max, lo, hi)), 2, orientable)


# the numeric reader (see _read_rows): rows are checked and converted about
# this many characters at a time, so that its peak memory stays a small
# multiple of the chunk whatever the document's size
_CHUNK = 1 << 16
_DIGITS = b"0123456789"
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")


def _span(text: str, key: str, skip: Tuple[int, int] = (0, 0)):
    """((a, b), pieces), with text[a:b] the array under the first "key" of
    text outside text[skip[0]:skip[1]], when it is written "key":[ or
    "key": [, and pieces its rows as ``_row_pieces`` cuts them; () when key
    does not occur there; else None.

    The array is taken to end at its first "]]", or to be "[]".  Whether
    the key occurs more than once is left to ``_read_rows``, which asks it
    of the text outside the arrays only.
    """
    quoted = f'"{key}"'
    i = text.find(quoted, 0, skip[0])
    if i < 0:
        i = text.find(quoted, skip[1])
    if i < 0:
        return ()
    a = i + len(quoted)
    colon = ":[" if text.startswith(":[", a) else ": [" if text.startswith(": [", a) else None
    if colon is None:
        return None
    a += len(colon) - 1
    if text.startswith("[]", a):
        return (a, a + 2), []
    cut = _row_pieces(text, a, _ROWS[key][0])
    return None if cut is None else ((a, cut[1]), cut[0])


def _compact(piece: str) -> bytes:
    """The piece of row text as ASCII bytes, with its ", " folded to ",";
    a compact piece holds no space, and a one-byte search skips the fold."""
    data = piece.encode("ascii")
    return data.replace(b", ", b",") if b" " in data else data


def _skeleton_rows(piece: str, k: int) -> Optional[int]:
    """The number of rows in the piece; None unless the piece, with its ", "
    folded to "," and its digits deleted, is the skeleton of its rows,
    "[,,],[,,],...,[,,]" for k = 3.  Such a piece holds no "]]"."""
    if not piece.isascii():
        return None
    row = b"[" + b"," * (k - 1) + b"],"
    skeleton = _compact(piece).translate(None, _DIGITS)
    count = (len(skeleton) + 1) // len(row)
    return count if skeleton + b"," == row * count else None


def _row_pieces(text: str, a: int, k: int) -> Optional[Tuple[List[Tuple[int, int, int]], int]]:
    """The pieces (p, q, rows) of the array of rows that opens at text[a]
    and ends at its first "]]": whole rows text[p:q], about _CHUNK
    characters each, joined by "," or ", "; and b, the index just past the
    array.  None unless every piece passes ``_skeleton_rows``.

    The walk steps through the array by "]" searches and finds its end on
    the way: a piece that ends at the array's last row is followed by "]",
    and one that runs past it fails its check and is cut at the first "]]"
    within it.  So only that piece is searched for "]]".  Runs on the
    stdlib alone, so that a float, sign, exponent, literal, stray space or
    row of the wrong width is declined before numpy loads.  The digit runs
    are checked by ``_rows_array``.
    """
    pieces, p = [], a + 1
    while True:
        q = text.find("]", p + _CHUNK) + 1 or len(text)
        count = _skeleton_rows(text[p:q], k)
        if count is None:
            q = text.find("]]", p, q) + 1
            count = _skeleton_rows(text[p:q], k) if q else None
            if count is None:
                return None
        pieces.append((p, q, count))
        if text.startswith("]", q):  # the array's closing bracket
            return pieces, q + 1
        if not text.startswith(",", q):
            return None
        p = q + 2 if text.startswith(" ", q + 1) else q + 1


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
        piece = _compact(text[p:q])
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
    row arrays replaced by ``[]``, and those arrays, F x 3 and L x 2 int64;
    None when it declines, which it does without raising.

    It reads rows of plain non-negative integers of 1 to 18 digits, with no
    leading zero, written compactly (``[[0,1,2],[0,2,3]]``) or with
    ``json.dumps``' default separators (``[[0, 1, 2], [0, 2, 3]]``), under
    keys written ``"triangles":[`` or ``"triangles": [`` that occur once
    outside the arrays, in a document with no backslash outside them.
    ``_read`` then gives what it gives on ``json.loads(text)``: the same
    graph, or the same error at the same pointer.
    """
    # on the stdlib alone, so that a row declined here is reported before numpy loads
    triangles = _span(text, "triangles")
    if not triangles:  # absent, as from a graph document, or not an array
        return None
    z_edges = _span(text, "z_edges", triangles[0])
    if z_edges is None:
        return None
    arrays = {"triangles": triangles, "z_edges": z_edges}
    spans = {key: x[0] for key, x in arrays.items() if x}  # z_edges may be absent
    pieces = {key: x[1] for key, x in arrays.items() if x}
    parts, at = [], 0
    for a, b in sorted(spans.values()):
        parts += text[at:a], "[]"
        at = b
    parts.append(text[at:])
    rest = "".join(parts)
    # the pieces hold only digits, brackets, commas and spaces, so every key or
    # backslash of the text is one of the rest's, and the stand-ins add none
    if "\\" in rest or any(rest.count(f'"{key}"') != 1 for key in spans):
        return None
    try:
        doc = json.loads(rest)
    except (ValueError, RecursionError):
        return None
    # with no backslash no key is escaped and every quote opens or closes a
    # string, so each key's one occurrence is the one before its array, and a
    # [] under it in the surface is its stand-in
    surface = doc.get("surface") if isinstance(doc, dict) else None
    if not isinstance(surface, dict) or any(key not in surface for key in spans):
        return None
    rows = tuple(_rows_array(text, pieces.get(key, []), k) for key, (k, _) in _ROWS.items())
    return None if any(r is None for r in rows) else (doc, rows)
