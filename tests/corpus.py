"""Shared fixtures and independent oracles for the test suite.

Every expected value that is not pinned by hand is recomputed here by a
mechanism different from the library's: region counts via union-find instead
of BFS, colorability via brute-force enumeration instead of BFS/GF(2), and
winding numbers via signed axis crossings instead of angle accumulation.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from btangent import BGraph, HypersurfaceComponent, Region, TriangulatedSurface


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


def octahedron(with_equator: bool = True) -> TriangulatedSurface:
    """The octahedron; vertex 0 is the top apex, 5 the bottom, 1-4 the equator."""
    triangles = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
    ]
    z = [(1, 2), (2, 3), (3, 4), (4, 1)] if with_equator else []
    return TriangulatedSurface(6, tuple(triangles), tuple(z))


def pinched_octahedra() -> TriangulatedSurface:
    """Two octahedra sharing vertex 0, the first with its equator marked.

    The complex is not a surface at vertex 0, whose link is two disjoint
    squares; every edge still lies in exactly two triangles.
    """
    first = octahedron()
    second = [[0 if v == 0 else v + 5 for v in t] for t in octahedron(False).triangles.tolist()]
    return TriangulatedSurface(11, first.triangles.tolist() + second, first.z_edges)


def pinched_octahedra_ring(count: int = 3) -> TriangulatedSurface:
    """count >= 3 octahedra pinched in a ring at their poles, octahedron k at
    poles k and k + 1 (mod count), with one marked cycle through them all:
    0-3-1-7-2-11-0 for three.

    The cycle crosses each octahedron from pole to pole, which cuts it
    nowhere, so each octahedron is one region and the cycle touches them all.
    """
    triangles, z_edges = [], []
    for k in range(count):
        top, bottom = k, (k + 1) % count
        ring = [count + 4 * k + i for i in range(4)]
        for i in range(4):
            triangles += [(top, ring[i], ring[i - 1]), (bottom, ring[i - 1], ring[i])]
        z_edges += [(top, ring[0]), (ring[0], bottom)]
    return TriangulatedSurface(5 * count, tuple(triangles), tuple(z_edges))


def torus7(z_edges: Tuple[Tuple[int, int], ...] = ((0, 1), (1, 2), (0, 2))) -> TriangulatedSurface:
    """The 7-vertex torus; the default marked 3-cycle does not separate."""
    tris = [tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    tris += [tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
    return TriangulatedSurface(7, tuple(tris), tuple(z_edges))


def genus2() -> TriangulatedSurface:
    """Two 7-vertex tori glued along the boundary of a removed face."""
    base = torus7(()).triangles.tolist()
    removed = [0, 1, 3]
    first = [t for t in base if t != removed]
    relabel: Dict[int, int] = {}
    nxt = 7
    for v in range(7):
        if v in removed:
            relabel[v] = v
        else:
            relabel[v] = nxt
            nxt += 1
    second = [tuple(sorted((relabel[a], relabel[b], relabel[c])))
              for (a, b, c) in base if [a, b, c] != removed]
    return TriangulatedSurface(nxt, tuple(first + second), ())


def projective_plane() -> TriangulatedSurface:
    """Minimal 6-vertex triangulation of the projective plane (non-orientable)."""
    faces = [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
             (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6)]
    return TriangulatedSurface(6, tuple(tuple(v - 1 for v in f) for f in faces), ())


def grid_surface(n: int, m: int, klein: bool = False,
                 loop_rows: Sequence[int] = ()) -> TriangulatedSurface:
    """An n x m grid of split squares closed up into a torus or a Klein bottle.

    Vertex (i, j) is i + n*j; column n is column 0, and row m is row 0 (read
    backwards on a Klein bottle).  Every row in loop_rows is marked as one
    closed curve of n edges.  Needs n, m >= 3.
    """

    def v(i: int, j: int) -> int:
        if j == m:
            j = 0
            if klein:
                i = -i
        return i % n + n * j

    tris = []
    for j in range(m):
        for i in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            tris += [(a, b, d), (a, d, c)]
    z = [(v(i, r), v(i + 1, r)) for r in loop_rows for i in range(n)]
    return TriangulatedSurface(n * m, tuple(tris), tuple(z))


def subdivide(surf: TriangulatedSurface, faces: Sequence[int]) -> TriangulatedSurface:
    """Cone each listed triangle off a new vertex (stellar subdivision).

    The surface, its marked curves, its regions and its orientability stay
    the same; each new vertex has degree 3, so the dual graph gets odd cycles.
    """
    tris = surf.triangles.tolist()
    n = surf.vertex_count
    for f in sorted(set(faces)):
        a, b, c = tris[f]
        tris[f] = (a, b, n)
        tris += [(b, c, n), (a, c, n)]
        n += 1
    return TriangulatedSurface(n, tuple(tris), surf.z_edges)


def relabel(surf: TriangulatedSurface, perm: Sequence[int]) -> TriangulatedSurface:
    """The same surface with vertex v renamed perm[v]."""
    return TriangulatedSurface(
        surf.vertex_count,
        [[perm[v] for v in t] for t in surf.triangles.tolist()],
        [[perm[v] for v in e] for e in surf.z_edges.tolist()],
    )


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def torus_loop_graph() -> BGraph:
    return BGraph((Region("T", 0),), (HypersurfaceComponent("Z0", "T", "T"),))


def genus2_separating_graph() -> BGraph:
    return BGraph(
        (Region("H1", -1), Region("H2", -1)),
        (HypersurfaceComponent("Z0", "H1", "H2"),),
    )


def empty_z_sphere_graph() -> BGraph:
    return BGraph((Region("M", 2),), ())


def two_annuli_torus_graph() -> BGraph:
    """Torus cut by two parallel essential circles: two annulus regions."""
    return BGraph(
        (Region("A", 0), Region("B", 0)),
        (HypersurfaceComponent("Z0", "A", "B"), HypersurfaceComponent("Z1", "A", "B")),
    )


def circle_graph(k: int) -> BGraph:
    """The circle with k marked points: a k-cycle of arcs, each of χ 1.

    k = 0 is the unmarked circle, one closed region of χ 0, and k = 1 a
    single arc whose endpoints meet at the one marked point (a loop edge).
    """
    if k == 0:
        return BGraph((Region("A0", 0),), (), ambient_dim=1)
    regions = tuple(Region(f"A{i}", 1) for i in range(k))
    edges = tuple(HypersurfaceComponent(f"P{i}", f"A{i}", f"A{(i + 1) % k}") for i in range(k))
    return BGraph(regions, edges, ambient_dim=1)


def random_bgraph(rng, max_regions: int = 12, loop_prob: float = 0.12) -> BGraph:
    n = int(rng.integers(1, max_regions + 1))
    labels = [f"N{i}" for i in range(n)]
    regions = tuple(Region(lab, int(rng.integers(-3, 4))) for lab in labels)
    n_edges = int(rng.integers(0, 2 * n + 1))
    edges = []
    for k in range(n_edges):
        a = labels[int(rng.integers(0, n))]
        if rng.random() < loop_prob:
            b = a
        else:
            b = labels[int(rng.integers(0, n))]
        edges.append(HypersurfaceComponent(f"E{k}", a, b))
    return BGraph(regions, tuple(edges))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def brute_force_two_colorable(g: BGraph) -> Optional[Dict[str, int]]:
    """Try all 2^n sign assignments; first proper one in a fixed order."""
    labels = sorted(g.region_labels())
    for bits in itertools.product((1, -1), repeat=len(labels)):
        colors = dict(zip(labels, bits))
        if all(colors[e.side_a] * colors[e.side_b] == -1 for e in g.edges):
            return colors
    return None


def circle_criterion(k: int) -> bool:
    """The circle with k marked points has the isomorphism exactly when k is even."""
    return k % 2 == 0


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1

    def count(self) -> int:
        return len({self.find(i) for i in range(len(self.parent))})


def edge_table_oracle(surf: TriangulatedSurface) -> Dict[Tuple[int, int], List[Tuple[int, bool]]]:
    """Each edge, as its sorted vertex pair, mapped to the triangles holding
    it, each with whether it runs along the edge from the smaller vertex to
    the larger; a triangle with vertices a < b < c runs a -> b -> c -> a."""
    runs = defaultdict(list)
    for i, t in enumerate(surf.triangles.tolist()):
        a, b, c = sorted(t)
        for x, y in ((a, b), (b, c), (c, a)):
            runs[min(x, y), max(x, y)].append((i, x < y))
    return dict(runs)


def region_count_oracle(surf: TriangulatedSurface) -> int:
    """Number of regions via union-find over triangle adjacency off the marked edges."""
    inc = defaultdict(list)
    for i, t in enumerate(surf.triangles.tolist()):
        a, b, c = t
        for e in ((a, b), (b, c), (a, c)):
            inc[tuple(sorted(e))].append(i)
    uf = UnionFind(len(surf.triangles))
    zset = {tuple(sorted(e)) for e in surf.z_edges.tolist()}
    for e, ts in inc.items():
        if e in zset or len(ts) != 2:
            continue
        uf.union(ts[0], ts[1])
    return uf.count()


def closure_chi_oracle(surf: TriangulatedSurface) -> List[int]:
    """V - E + F of each region's closure, counted from its sets of vertices,
    edges and triangles; the regions are found by union-find over triangle
    adjacency off the marked edges and listed in the order of their smallest
    triangle."""
    inc = defaultdict(list)
    for i, (a, b, c) in enumerate(surf.triangles.tolist()):
        for e in ((a, b), (b, c), (a, c)):
            inc[min(e), max(e)].append(i)
    uf = UnionFind(len(surf.triangles))
    zset = {(min(e), max(e)) for e in surf.z_edges.tolist()}
    for e, ts in inc.items():
        if e not in zset:
            uf.union(ts[0], ts[1])
    closures: Dict[int, Tuple[set, set, set]] = {}
    for i, (a, b, c) in enumerate(surf.triangles.tolist()):
        vertices, edges, faces = closures.setdefault(uf.find(i), (set(), set(), set()))
        vertices.update((a, b, c))
        edges.update((min(e), max(e)) for e in ((a, b), (b, c), (a, c)))
        faces.add(i)
    return [len(v) - len(e) + len(f) for v, e, f in closures.values()]


def orientable_oracle(surf: TriangulatedSurface) -> bool:
    """Orientability via union-find on the orientation double cover.

    Node 2i is triangle i with its stored cyclic order (t0 -> t1 -> t2 -> t0),
    node 2i + 1 the same triangle reversed.  Two triangles that run their
    shared edge in opposite directions are glued sheet to sheet, two that
    run it the same way sheet to opposite sheet.  The surface is orientable
    exactly when no triangle's two sheets end up in one class.
    """
    runs = defaultdict(list)  # directed edge -> triangles running along it
    for i, (a, b, c) in enumerate(surf.triangles.tolist()):
        for x, y in ((a, b), (b, c), (c, a)):
            runs[x, y].append(i)
    uf = UnionFind(2 * len(surf.triangles))
    for (x, y), forward in runs.items():
        for i in forward:
            for j in runs.get((y, x), ()):
                uf.union(2 * i, 2 * j)
                uf.union(2 * i + 1, 2 * j + 1)
        if len(forward) == 2:
            i, j = forward
            uf.union(2 * i, 2 * j + 1)
            uf.union(2 * i + 1, 2 * j)
    return all(uf.find(2 * i) != uf.find(2 * i + 1) for i in range(len(surf.triangles)))


class ParityUnionFind:
    """Union-find whose members carry a parity relative to their class's root.

    A union asks for a given parity between two members; a class in which
    two unions disagree is marked twisted.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n  # parity relative to the parent
        self.twisted = [False] * n  # meaningful at roots

    def find(self, x: int) -> Tuple[int, int]:
        """The root of x and the parity of x relative to it."""
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        relative = 0
        for y in reversed(path):  # from the root down, pointing each at the root
            relative ^= self.parity[y]
            self.parity[y] = relative
            self.parent[y] = x
        return x, relative

    def union(self, x: int, y: int, parity: int) -> None:
        (rx, px), (ry, py) = self.find(x), self.find(y)
        if rx == ry:
            self.twisted[rx] = self.twisted[rx] or (px ^ py) != parity
            return
        self.parent[ry] = rx
        self.parity[ry] = px ^ py ^ parity
        self.twisted[rx] = self.twisted[rx] or self.twisted[ry]


def region_orientable_oracle(surf: TriangulatedSurface) -> List[Tuple[int, bool]]:
    """Each triangle's region and whether that region is orientable.

    Triangles are joined across unmarked edges by a parity union-find: the
    parity of two neighbors is 0 when their stored cyclic orders run the
    shared edge in opposite directions and 1 when they run it the same way.
    A region is orientable exactly when no two joins disagree.  Regions are
    numbered in the order of their smallest triangle.
    """
    runs = defaultdict(list)  # edge -> (triangle, whether it runs the edge upwards)
    for i, (a, b, c) in enumerate(surf.triangles.tolist()):
        for x, y in ((a, b), (b, c), (c, a)):
            runs[min(x, y), max(x, y)].append((i, x < y))
    zset = {tuple(sorted(e)) for e in surf.z_edges.tolist()}
    uf = ParityUnionFind(len(surf.triangles))
    for e, sides in runs.items():
        if e in zset or len(sides) != 2:
            continue
        (i, up_i), (j, up_j) = sides
        uf.union(i, j, int(up_i == up_j))
    number: Dict[int, int] = {}
    result = []
    for i in range(len(surf.triangles)):
        root = uf.find(i)[0]
        result.append((number.setdefault(root, len(number)), not uf.twisted[root]))
    return result


def crossing_winding(field, center: Tuple[float, float], radius: float, samples: int = 40001) -> int:
    """Winding number by counting signed crossings of the negative u-axis."""
    cx, cy = center
    vals = []
    for k in range(samples):
        t = 2.0 * math.pi * k / samples
        vals.append(field(cx + radius * math.cos(t), cy + radius * math.sin(t)))
    total = 0
    for k in range(samples):
        u1, v1 = vals[k]
        u2, v2 = vals[(k + 1) % samples]
        if u1 < 0 and u2 < 0:
            if v1 > 0 >= v2:
                total += 1
            elif v1 <= 0 < v2:
                total -= 1
    return total
