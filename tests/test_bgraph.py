import copy
import json
import pickle
import resource
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from btangent import (
    BGraph,
    BTangentError,
    Coloring,
    HypersurfaceComponent,
    InvalidArgumentError,
    InvalidZError,
    ManifoldFormatError,
    NonClosedSurfaceError,
    Region,
    TriangulatedSurface,
    build_graph_from_surface,
    named_field,
    parse_manifold,
    sphere_equator_graph,
    surface_euler,
    surface_orientable,
    winding_index,
)
from btangent import manifold_io, surface
from btangent.bgraph import _graph_columns
from btangent.surface import _components, _cover_regions, _half_edges, _vertex_array, _z_cycles
from corpus import (
    UnionFind,
    circle_graph,
    edge_table_oracle,
    genus2,
    grid_surface,
    octahedron,
    orientable_oracle,
    pinched_octahedra,
    projective_plane,
    random_bgraph,
    region_count_oracle,
    region_orientable_oracle,
    relabel,
    subdivide,
    torus7,
)


def test_octahedron_euler():
    assert surface_euler(octahedron()) == 2


def test_torus_euler():
    assert surface_euler(torus7()) == 0


def test_genus2_euler():
    # two tori glued along a removed triangle: 11 - 39 + 26
    assert surface_euler(genus2()) == -2


def test_projective_plane_euler():
    assert surface_euler(projective_plane()) == 1


def test_orientability():
    assert surface_orientable(octahedron())
    assert surface_orientable(torus7())
    assert not surface_orientable(projective_plane())


def test_octahedron_graph():
    g = build_graph_from_surface(octahedron())
    assert [(r.label, r.euler_char) for r in g.regions] == [("R0", 1), ("R1", 1)]
    assert len(g.edges) == 1
    e = g.edges[0]
    assert {e.side_a, e.side_b} == {"R0", "R1"} and not e.is_loop
    assert g.ambient_dim == 2 and g.orientable


def test_torus_loop_graph_from_surface():
    g = build_graph_from_surface(torus7())
    assert [(r.label, r.euler_char) for r in g.regions] == [("R0", 0)]
    assert len(g.edges) == 1 and g.edges[0].is_loop


def test_empty_z_single_region():
    g = build_graph_from_surface(octahedron(with_equator=False))
    assert len(g.regions) == 1 and g.regions[0].euler_char == 2
    assert g.edges == ()


def test_closure_characteristics_sum_to_surface():
    for surf in (octahedron(), octahedron(False), torus7(), genus2()):
        g = build_graph_from_surface(surf)
        assert sum(r.euler_char for r in g.regions) == surface_euler(surf)


def test_region_count_matches_union_find_oracle():
    for surf in (octahedron(), octahedron(False), torus7(), genus2()):
        g = build_graph_from_surface(surf)
        assert len(g.regions) == region_count_oracle(surf)


def _expected_graph(surf: TriangulatedSurface):
    """Regions as (label, closure chi) and Z components as (label, a, b).

    Regions are numbered in the order of their smallest triangle and Z
    components in the order of their smallest marked edge, each edge taken
    as (min, max), both found with a union-find.
    """
    z = sorted(tuple(sorted(e)) for e in surf.z_edges)
    zset = set(z)
    by_edge = {}
    for i, t in enumerate(surf.triangles):
        for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
            by_edge.setdefault(tuple(sorted(e)), []).append(i)
    faces = UnionFind(len(surf.triangles))
    for e, (i, j) in by_edge.items():
        if e not in zset:
            faces.union(i, j)
    number = {}
    region = [number.setdefault(faces.find(i), len(number)) for i in range(len(surf.triangles))]
    regions = []
    for r in range(len(number)):
        tris = [t for i, t in enumerate(surf.triangles) if region[i] == r]
        edges = {tuple(sorted(e)) for t in tris for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))}
        regions.append((f"R{r}", len({v for t in tris for v in t}) - len(edges) + len(tris)))

    marked = UnionFind(len(z))
    first_at = {}
    for k, e in enumerate(z):
        for v in e:
            marked.union(first_at.setdefault(v, k), k)
    cycles = {}
    for k in range(len(z)):
        cycles.setdefault(marked.find(k), []).append(k)
    edges = []
    for c, ks in enumerate(cycles.values()):
        near = sorted({f"R{region[i]}" for k in ks for i in by_edge[z[k]]})
        edges.append((f"Z{c}", near[0], near[-1]))
    return regions, edges


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 8),
    m=st.integers(3, 8),
    klein=st.booleans(),
    data=st.data(),
)
def test_grid_surfaces_match_construction_and_oracles(n, m, klein, data):
    rows = sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=m), label="loop rows"))
    faces = data.draw(st.lists(st.integers(0, 2 * n * m - 1), max_size=4), label="coned faces")
    surf = subdivide(grid_surface(n, m, klein, rows), faces)
    perm = data.draw(st.permutations(range(surf.vertex_count)), label="relabelling")
    surf = relabel(surf, perm)
    # rows in any order, each rotated or reversed: the surface stays the same
    order = data.draw(st.permutations(range(len(surf.triangles))), label="triangle order")
    turns = data.draw(st.lists(st.integers(0, 5), min_size=len(order), max_size=len(order)),
                      label="row turns")
    tris = [surf.triangles[i] for i in order]
    tris = [(t[s % 3:] + t[:s % 3])[::1 if s < 3 else -1] for t, s in zip(tris, turns)]
    surf = TriangulatedSurface(surf.vertex_count, tuple(tris), surf.z_edges)
    assert surface_orientable(surf) == (not klein) == orientable_oracle(surf)
    g = build_graph_from_surface(surf)
    assert g.orientable == (not klein)
    assert len(g.regions) == region_count_oracle(surf) == max(len(rows), 1)
    assert len(g.edges) == len(rows)
    assert sum(r.euler_char for r in g.regions) == surface_euler(surf) == 0
    regions, edges = _expected_graph(surf)
    assert [(r.label, r.euler_char) for r in g.regions] == regions
    assert [(e.label, e.side_a, e.side_b) for e in g.edges] == edges


def _smallest_in_component(n, u, v):
    """The smallest node of each node's component, by a plain union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in zip(u, v):
        parent[find(a)] = find(b)
    smallest = {}
    for x in range(n):  # ascending: the first node met in a class is its smallest
        smallest.setdefault(find(x), x)
    return [smallest[find(x)] for x in range(n)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_components_match_union_find(data):
    # small n meets self-loops, repeated edges and isolated nodes often
    n = data.draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 40)), label="nodes")
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=3 * n), label="edges")
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    # equal labels exactly on the union-find's classes, each its class's smallest node
    assert _components(n, u, v).tolist() == _smallest_in_component(n, u.tolist(), v.tolist())


def _lexsorted_cycles(n, z, keys):
    """(cycle, edge) of distinct marked edges forming cycles, listed in the
    lexicographic order of their (min, max) pairs, with a plain union-find:
    cycles numbered in the order of their smallest pair."""
    pairs = np.sort(z, axis=1)
    pairs = pairs[np.lexsort(pairs.T[::-1])].tolist()
    uf = UnionFind(n)
    for u, w in pairs:
        uf.union(u, w)
    number = {}
    cycle = [number.setdefault(uf.find(u), len(number)) for u, _ in pairs]
    return cycle, np.searchsorted(keys, [u * n + w for u, w in pairs]).tolist()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 7), m=st.integers(3, 7), data=st.data())
def test_marked_edges_keep_the_lexicographic_order(n, m, data):
    rows = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m),
                            label="loop rows"))
    surf = relabel(grid_surface(n, m, loop_rows=rows),
                   data.draw(st.permutations(range(n * m)), label="relabelling"))
    order = data.draw(st.permutations(range(len(surf.z_edges))), label="marked edge order")
    flips = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)),
                      label="flips")
    z = [surf.z_edges[i][::-1] if flip else surf.z_edges[i] for i, flip in zip(order, flips)]
    keys, _, _ = _half_edges(n * m, _vertex_array(surf.triangles, 3))
    cycle, edge = _z_cycles(n * m, _vertex_array(z, 2), keys)
    assert (cycle.tolist(), edge.tolist()) == _lexsorted_cycles(n * m, np.array(z), keys)


def _as_multigraph(g: BGraph) -> nx.MultiGraph:
    mg = nx.MultiGraph()
    for r in g.regions:
        mg.add_node(r.label, chi=r.euler_char)
    for e in g.edges:
        mg.add_edge(e.side_a, e.side_b)
    return mg


def test_vertex_relabeling_gives_isomorphic_graph():
    rng = np.random.default_rng(7)
    surf = octahedron()
    relabeled = relabel(surf, rng.permutation(surf.vertex_count).tolist())
    g1 = build_graph_from_surface(surf)
    g2 = build_graph_from_surface(relabeled)
    assert nx.is_isomorphic(
        _as_multigraph(g1), _as_multigraph(g2),
        node_match=lambda a, b: a["chi"] == b["chi"],
    )


def test_non_closed_surface_rejected():
    surf = octahedron()
    for broken in (
        TriangulatedSurface(6, surf.triangles[:-1], ()),
        TriangulatedSurface(0, (), ()),
        TriangulatedSurface(-1, (), ()),
    ):
        with pytest.raises(NonClosedSurfaceError):
            build_graph_from_surface(broken)
        with pytest.raises(NonClosedSurfaceError):
            surface_euler(broken)


def test_pinched_surface_is_structured_error():
    # vertex 0 lies off Z in the closures of two regions, so their chi overcount
    with pytest.raises(NonClosedSurfaceError, match="not a surface at some vertex"):
        build_graph_from_surface(pinched_octahedra())


def _bad_complexes():
    """Each defect alone, as the parts of a surface, with the exact error it raises."""
    oct_ = octahedron()
    tris, z = oct_.triangles, oct_.z_edges
    with_vertex = tris[:3] + ((0, 2, 6),) + tris[3:]
    grid = grid_surface(10, 10)
    # rows 1 and 3 of a 6x6 grid cross column 2 at vertices 8 and 20;
    # swapping vertices 0 and 19 lists the marked edge (0, 20) first
    grid_6x6 = grid_surface(6, 6, loop_rows=(1, 3))
    column = tuple((2 + 6 * j, 2 + 6 * (j + 1) % 36) for j in range(6))
    swap = [19] + list(range(1, 19)) + [0] + list(range(20, 36))
    crossed = relabel(TriangulatedSurface(36, grid_6x6.triangles, grid_6x6.z_edges + column), swap)
    pinched = pinched_octahedra()
    return [
        ("open", (6, tris[:-1], ()), NonClosedSurfaceError,
         "edge (1, 4) lies in 1 triangle(s); a closed surface needs 2"),
        ("empty", (0, (), ()), NonClosedSurfaceError,
         "the complex has no triangles"),
        ("degenerate", (6, tris + ((1, 1, 2),), ()), NonClosedSurfaceError,
         "triangle 8 is degenerate: (1, 1, 2)"),
        ("degenerate, repeat not adjacent", (6, tris + ((1, 2, 1),), ()),
         NonClosedSurfaceError, "triangle 8 is degenerate: (1, 2, 1)"),
        ("four vertices", (6, tris[:2] + ((0, 1, 2, 3),) + tris[2:], ()),
         InvalidArgumentError, "triangle 2 does not have 3 vertices: (0, 1, 2, 3)"),
        ("out of range", (6, with_vertex, ()), NonClosedSurfaceError,
         "triangle 3 uses vertex 6 out of range"),
        ("beyond int64", (6, tris[:3] + ((0, 2, 2**63),) + tris[3:], ()),
         NonClosedSurfaceError, f"triangle 3 uses vertex {2**63} out of range"),
        ("float vertex", (6, tris[:3] + ((0, 2, 2.5),) + tris[3:], ()),
         InvalidArgumentError, "triangle 3 has a vertex that is not an integer: 2.5"),
        ("duplicate", (6, tris + (tris[2],), ()), NonClosedSurfaceError,
         "duplicate triangle in complex"),
        ("duplicate in another order",
         (6, tris[:1] + ((2, 1, 0),) + tris[1:], ()),
         NonClosedSurfaceError, "duplicate triangle in complex"),
        # a second sphere made of one triangle and its copy: every edge lies in
        # two triangles, so only the copy itself shows the defect
        ("pillow", (9, tris + ((6, 7, 8), (8, 7, 6)), ()),
         NonClosedSurfaceError, "duplicate triangle in complex"),
        ("isolated vertex", (7, tris, z), NonClosedSurfaceError,
         "isolated vertices: [6]"),
        ("edge in 3 triangles",
         (7, tris + ((0, 1, 6), (1, 2, 6), (0, 2, 6)), ()),
         NonClosedSurfaceError, "edge (0, 1) lies in 3 triangle(s); a closed surface needs 2"),
        # half-edge 0 is one of three on edge (0, 1), while edges (1, 6) and
        # (0, 6) hold half-edges 1 and 2 alone: a sort that does not start
        # the run at half-edge 0 must not change the edge named
        ("edge in 3 triangles, listed first", (7, ((0, 1, 6),) + tris, ()),
         NonClosedSurfaceError, "edge (0, 1) lies in 3 triangle(s); a closed surface needs 2"),
        # three edges in 3 triangles each: the one met first in triangle order is named
        ("first of several edges in 3 triangles",
         (103, grid.triangles + tuple(
             (t[0], t[1], 100 + j) for j, t in enumerate(grid.triangles[i] for i in (98, 194, 107))
         ), ()),
         NonClosedSurfaceError, "edge (40, 49) lies in 3 triangle(s); a closed surface needs 2"),
        ("marked edge off the complex", (6, tris, ((1, 3), (3, 4), (4, 1))),
         InvalidZError, "marked edge (1, 3) is not an edge of the complex"),
        ("numpy marked edge off the complex", (6, tris, np.array(((1, 3), (3, 4), (4, 1)))),
         InvalidZError, "marked edge (1, 3) is not an edge of the complex"),
        ("marked edge beyond int64", (6, tris, ((1, 2**70),)), InvalidZError,
         f"marked edge (1, {2**70}) is not an edge of the complex"),
        ("reversed marked edge beyond int64", (6, tris, ((2**70, 1),)), InvalidZError,
         f"marked edge (1, {2**70}) is not an edge of the complex"),
        ("marked edge below int64", (6, tris, ((3, -2**64),)), InvalidZError,
         f"marked edge ({-2**64}, 3) is not an edge of the complex"),
        ("degree-4 marked vertex",
         (6, tris, ((0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4))),
         InvalidZError, "vertex 0 has degree 4 in the marked edge set; cycles need 2"),
        ("smallest of two degree-4 marked vertices",
         (crossed.vertex_count, crossed.triangles, crossed.z_edges), InvalidZError,
         "vertex 8 has degree 4 in the marked edge set; cycles need 2"),
        ("repeated marked edge", (6, tris, ((1, 2), (2, 1))),
         InvalidZError, "marked edge (1, 2) is listed twice"),
        ("pinched octahedra", (pinched.vertex_count, pinched.triangles, pinched.z_edges),
         NonClosedSurfaceError, "closure Euler characteristics do not sum to the surface's: "
         "the complex is not a surface at some vertex"),
    ]


@pytest.mark.parametrize("name, parts, error, message", _bad_complexes(),
                         ids=[case[0] for case in _bad_complexes()])
def test_bad_complex_gives_its_exact_error(name, parts, error, message):
    with pytest.raises(error) as exc:
        build_graph_from_surface(TriangulatedSurface(*parts))
    assert type(exc.value) is error and str(exc.value) == message
    if error is NonClosedSurfaceError and name != "pinched octahedra":
        # the checks on the complex come first and are shared by every reader
        for reader in (surface_euler, surface_orientable):
            with pytest.raises(error) as exc:
                reader(TriangulatedSurface(*parts))
            assert str(exc.value) == message
    n, tris, z = parts
    if all(len(t) == 3 and all(type(v) is int for v in t) for t in tris):
        # a document reaches the same checks through its own front door
        with pytest.raises(error) as exc:
            parse_manifold({"surface": {"vertices": n, "triangles": [list(t) for t in tris],
                                        "z_edges": [list(e) for e in z]}})
        assert type(exc.value) is error and str(exc.value) == message


def _tie_break_cases():
    surfaces = {"octahedron": octahedron(), "torus7": torus7(), "genus2": genus2(),
                "projective plane": projective_plane(), "pinched": pinched_octahedra(),
                "marked grid torus": grid_surface(8, 6, loop_rows=(1, 4)),
                "marked grid Klein bottle": grid_surface(8, 6, klein=True, loop_rows=(2,))}
    return [(name, parts) for name, parts, _, _ in _bad_complexes()] + [
        (name, (s.vertex_count, s.triangles, s.z_edges)) for name, s in surfaces.items()]


@pytest.mark.parametrize("name, parts", _tie_break_cases(),
                         ids=[case[0] for case in _tie_break_cases()])
def test_results_do_not_depend_on_how_the_sort_breaks_ties(monkeypatch, name, parts):
    """Every result and every error is the same when 1-D argsort puts equal
    keys in reverse index order, as an unstable sort may."""
    def outcomes():
        out = []
        for reader in (build_graph_from_surface, surface_euler, surface_orientable):
            try:
                out.append(reader(TriangulatedSurface(*parts)))
            except BTangentError as exc:
                out.append((type(exc), str(exc)))
        return out

    argsort = np.argsort

    def reversed_ties(a, *args, **kwargs):
        a = np.asarray(a)
        if a.ndim != 1:
            return argsort(a, *args, **kwargs)
        return np.lexsort((-np.arange(len(a)), a))

    expected = outcomes()
    monkeypatch.setattr(np, "argsort", reversed_ties)
    assert np.argsort(np.zeros(3)).tolist() == [2, 1, 0]
    assert outcomes() == expected


def _document(surf: TriangulatedSurface) -> dict:
    return {"surface": {"vertices": surf.vertex_count,
                        "triangles": [list(t) for t in surf.triangles],
                        "z_edges": [list(e) for e in surf.z_edges]}}


# (key, row, column): the values at (3, 2), (0, 0) and z (0, 0) are 1, 0 and 1,
# so a bool read as a number there would give a valid octahedron
@pytest.mark.parametrize("key, row, col", [("triangles", 3, 1), ("triangles", 3, 2),
                                           ("triangles", 0, 0), ("z_edges", 0, 1),
                                           ("z_edges", 0, 0)])
@pytest.mark.parametrize("value", [True, False])
def test_json_booleans_are_not_vertices(key, row, col, value):
    doc = _document(octahedron())
    doc["surface"][key][row][col] = value
    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold(doc)
    what = "triangle" if key == "triangles" else "marked edge"
    assert exc.value.pointer == f"/surface/{key}/{row}/{col}"
    assert str(exc.value) == (f"{what} {row} has a vertex that is not an integer: {value!r} "
                              f"(at /surface/{key}/{row}/{col})")


@pytest.mark.parametrize("vertex", [2**63, -2**63 - 1, 2**70])
def test_document_vertex_past_int64_is_named(vertex):
    doc = _document(octahedron())
    doc["surface"]["triangles"].insert(3, [0, 2, vertex])
    with pytest.raises(NonClosedSurfaceError) as exc:
        parse_manifold(doc)
    assert str(exc.value) == f"triangle 3 uses vertex {vertex} out of range"
    # in range of a vertex count past int64, it leaves vertices isolated
    doc["surface"]["vertices"] = 2**71
    doc["surface"]["triangles"][3] = [0, 2, abs(vertex)]
    with pytest.raises(NonClosedSurfaceError) as exc:
        parse_manifold(doc)
    assert str(exc.value) == ("isolated vertices: [6, 7, 8, 9, 10, 11, 12, 13, 14, 15] "
                              f"({2**71 - 7} in all)")


@pytest.mark.parametrize("vertex", [2.5, 2.0])
def test_document_float_vertex_is_a_format_error(vertex):
    doc = _document(octahedron())
    doc["surface"]["triangles"].insert(3, [0, 2, vertex])
    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold(doc)
    assert exc.value.pointer == "/surface/triangles/3/2"
    assert str(exc.value) == (f"triangle 3 has a vertex that is not an integer: {vertex!r} "
                              "(at /surface/triangles/3/2)")


# one row defect per case: the key and index of the row, the row put there,
# and the path and message of the error it gets; a row is quoted as a tuple
_ROW_DEFECTS = [
    ("triangles", 2, [0, 1], "/2", "triangle 2 does not have 3 vertices: (0, 1)"),
    ("triangles", 0, [0, 1, 2, 3], "/0", "triangle 0 does not have 3 vertices: (0, 1, 2, 3)"),
    ("triangles", 5, 7, "/5", "triangle 5 does not have 3 vertices: 7"),
    ("triangles", 4, None, "/4", "triangle 4 does not have 3 vertices: None"),
    ("triangles", 3, [0, 2, True], "/3/2", "triangle 3 has a vertex that is not an integer: True"),
    ("triangles", 1, [0.0, 1, 2], "/1/0", "triangle 1 has a vertex that is not an integer: 0.0"),
    ("triangles", 7, [0, "5", 4], "/7/1", "triangle 7 has a vertex that is not an integer: '5'"),
    ("z_edges", 1, [3], "/1", "marked edge 1 does not have 2 vertices: (3,)"),
    ("z_edges", 0, [1, 2, 3], "/0", "marked edge 0 does not have 2 vertices: (1, 2, 3)"),
    ("z_edges", 3, 4, "/3", "marked edge 3 does not have 2 vertices: 4"),
    ("z_edges", 2, [False, 4], "/2/0", "marked edge 2 has a vertex that is not an integer: False"),
    ("z_edges", 0, [1, 2.5], "/0/1", "marked edge 0 has a vertex that is not an integer: 2.5"),
    ("z_edges", 3, ["1", 4], "/3/0", "marked edge 3 has a vertex that is not an integer: '1'"),
    # text is one row on both doors, not a row of characters or of byte values
    ("triangles", 0, "abc", "/0", "triangle 0 does not have 3 vertices: 'abc'"),
    ("triangles", 6, b"abc", "/6", "triangle 6 does not have 3 vertices: b'abc'"),
    ("z_edges", 1, bytearray(b"\x01\x02"), "/1",
     "marked edge 1 does not have 2 vertices: bytearray(b'\\x01\\x02')"),
    ("z_edges", 2, "12", "/2", "marked edge 2 does not have 2 vertices: '12'"),
]


@pytest.mark.parametrize("key, i, row, path, message", _ROW_DEFECTS)
def test_row_defect_has_one_message_on_both_doors(key, i, row, path, message):
    doc = _document(octahedron())
    surface = doc["surface"]
    surface[key][i] = row
    with pytest.raises(InvalidArgumentError) as exc:
        TriangulatedSurface(6, surface["triangles"], surface["z_edges"])
    assert type(exc.value) is InvalidArgumentError
    assert str(exc.value) == message and exc.value._path == path
    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold(doc)
    assert exc.value.pointer == f"/surface/{key}{path}"
    assert str(exc.value) == f"{message} (at /surface/{key}{path})"


_CORPUS = (octahedron(), octahedron(False), torus7(), genus2(), projective_plane(),
           grid_surface(5, 6, True, (1, 3)), subdivide(grid_surface(4, 4, False, (0, 2)), [3]))


def _shuffled(surf: TriangulatedSurface, data) -> TriangulatedSurface:
    """The same surface and marked curves, relabelled, with its triangles and
    marked edges listed in drawn orders and each row rotated or reversed."""
    surf = relabel(surf, data.draw(st.permutations(range(surf.vertex_count)), label="relabelling"))
    order = data.draw(st.permutations(range(len(surf.triangles))), label="triangle order")
    turns = data.draw(st.lists(st.integers(0, 5), min_size=len(order), max_size=len(order)),
                      label="row turns")
    tris = [surf.triangles[i] for i in order]
    tris = [(t[s % 3:] + t[:s % 3])[::1 if s < 3 else -1] for t, s in zip(tris, turns)]
    z = data.draw(st.permutations(surf.z_edges), label="marked edge order")
    flips = data.draw(st.lists(st.booleans(), min_size=len(z), max_size=len(z)), label="flips")
    return TriangulatedSurface(surf.vertex_count, tuple(tris),
                               tuple(e[::-1] if flip else e for e, flip in zip(z, flips)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_document_and_surface_give_the_same_graph(data):
    surf = _shuffled(data.draw(st.sampled_from(_CORPUS), label="surface"), data)
    assert parse_manifold(_document(surf)) == build_graph_from_surface(surf)


# a Klein bottle without loops is one region whose two sheets join; cut along
# k >= 1 rows it falls into annuli, each orientable, while M is not
@pytest.mark.parametrize("kind", ["torus", "klein bottle, no loop", "klein bottle, loops",
                                  "corpus"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cover_pass_matches_the_parity_oracle(kind, data):
    if kind == "corpus":
        surf = data.draw(st.sampled_from(_CORPUS), label="surface")
    else:
        n, m = data.draw(st.integers(3, 8), label="n"), data.draw(st.integers(3, 8), label="m")
        loops = 0 if kind == "klein bottle, no loop" else data.draw(
            st.integers(0 if kind == "torus" else 1, m), label="loops")
        rows = data.draw(st.sets(st.integers(0, m - 1), min_size=loops, max_size=loops),
                         label="loop rows")
        faces = data.draw(st.lists(st.integers(0, 2 * n * m - 1), max_size=4), label="coned faces")
        surf = subdivide(grid_surface(n, m, kind != "torus", sorted(rows)), faces)
    surf = _shuffled(surf, data)
    n = surf.vertex_count
    keys, faces, same = _half_edges(n, _vertex_array(surf.triangles, 3))
    _, edge = _z_cycles(n, _vertex_array(surf.z_edges, 2), keys)
    region, region_orientable, orientable = _cover_regions(faces, same, edge)
    assert region.dtype == np.int64
    assert [(r, bool(region_orientable[r])) for r in region.tolist()] == \
        region_orientable_oracle(surf)
    assert orientable == orientable_oracle(surf)
    if kind == "torus":
        assert orientable and region_orientable.all()
    elif kind == "klein bottle, no loop":
        assert not orientable and region_orientable.tolist() == [False]
    elif kind == "klein bottle, loops":
        assert not orientable and region_orientable.all()


@pytest.mark.parametrize("kind", ["corpus", "torus", "klein bottle"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_edge_table_matches_its_oracle(kind, data):
    if kind == "corpus":
        surf = data.draw(st.sampled_from(_CORPUS), label="surface")
    else:
        n, m = data.draw(st.integers(3, 8), label="n"), data.draw(st.integers(3, 8), label="m")
        surf = grid_surface(n, m, kind == "klein bottle")
    faces = data.draw(st.lists(st.integers(0, len(surf.triangles) - 1), max_size=4),
                      label="coned faces")
    surf = _shuffled(subdivide(surf, faces), data)
    n = surf.vertex_count
    keys, faces, same = _half_edges(n, _vertex_array(surf.triangles, 3))
    table = edge_table_oracle(surf)
    edges = sorted(table)
    assert keys.tolist() == [u * n + w for u, w in edges]
    assert [set(pair) for pair in faces.tolist()] == [{i for i, _ in table[e]} for e in edges]
    assert same.tolist() == [up_i == up_j for (_, up_i), (_, up_j) in map(table.get, edges)]


def _first_row_defect(n: int, rows) -> str:
    """The message for the first bad row, written out: rows in document
    order, a degenerate row before one out of range, and of an out-of-range
    row its first such vertex as stored."""
    for i, row in enumerate(rows):
        if len(set(row)) < 3:
            return f"triangle {i} is degenerate: {tuple(row)}"
        outside = [v for v in row if not 0 <= v < n]
        if outside:
            return f"triangle {i} uses vertex {outside[0]} out of range"
    raise AssertionError("no bad row")


# vertices of a 4 x 4 grid torus (0 .. 15), and vertices outside it: just
# past either end, and past int64, which makes the rows an object array
_IN_RANGE = st.sampled_from([0, 1, 7, 15])
_OUTSIDE = st.sampled_from([16, 17, -1, -5, 2**63, 2**70, -2**63 - 1, -2**64])


def _degenerate(vertex):
    return st.tuples(vertex, vertex).flatmap(lambda p: st.permutations([p[0], p[0], p[1]]))


_BAD_ROWS = st.one_of(
    st.lists(_degenerate(_IN_RANGE), min_size=1, max_size=3),
    st.lists(st.one_of(
        _degenerate(st.one_of(_IN_RANGE, _OUTSIDE)),
        st.lists(st.one_of(_IN_RANGE, _OUTSIDE), min_size=3, max_size=3).filter(
            lambda r: not all(0 <= v < 16 for v in r)),  # out of range, and maybe degenerate
    ), min_size=1, max_size=4),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_first_row_defect_is_named_in_document_order(data):
    rows = [list(t) for t in grid_surface(4, 4).triangles]
    for row in data.draw(_BAD_ROWS, label="bad rows"):
        rows.insert(data.draw(st.integers(0, len(rows)), label="at"), list(row))
    message = _first_row_defect(16, rows)
    for reader in (build_graph_from_surface, surface_euler, surface_orientable):
        with pytest.raises(NonClosedSurfaceError) as exc:
            reader(TriangulatedSurface(16, rows, ()))
        assert str(exc.value) == message
    # a row of integers reaches the same check from a document, and its
    # defect is not a format error, so it has no pointer
    with pytest.raises(NonClosedSurfaceError) as exc:
        parse_manifold({"surface": {"vertices": 16, "triangles": rows}})
    assert type(exc.value) is NonClosedSurfaceError and str(exc.value) == message
    assert not hasattr(exc.value, "pointer")


def test_isolated_vertex_rejected():
    surf = octahedron()
    with pytest.raises(NonClosedSurfaceError):
        build_graph_from_surface(TriangulatedSurface(7, surf.triangles, surf.z_edges))


def test_open_z_path_rejected():
    # two marked edges sharing a vertex leave degree-1 endpoints
    with pytest.raises(InvalidZError):
        build_graph_from_surface(torus7(z_edges=((0, 1), (1, 2))))


def test_z_edge_outside_complex_rejected():
    surf = octahedron()
    with pytest.raises(InvalidZError):
        build_graph_from_surface(
            TriangulatedSurface(6, surf.triangles, ((1, 3), (3, 4), (4, 1)))
        )


def test_repeated_z_edge_rejected():
    # listed once each way, the edge would otherwise pass as the loop 1-2-1
    surf = octahedron()
    with pytest.raises(InvalidZError, match="listed twice"):
        build_graph_from_surface(TriangulatedSurface(6, surf.triangles, ((1, 2), (2, 1))))


@contextmanager
def _address_space_grows_at_most(extra: int):
    """Cap this process's address space at its present size plus extra
    bytes, so that a regression fails with MemoryError instead of taking
    the machine's memory (Linux)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    size = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    cap = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_triangle_count_is_bounded_before_any_row_is_read():
    # 3F half-edges are numbered in int32; a broadcast view holds no rows:
    # reading them would allocate gigabytes, which the cap turns into a
    # MemoryError, and sorting the read-only view would raise
    assert surface._MAX_TRIANGLES == 715_827_882
    assert 3 * surface._MAX_TRIANGLES < 2**31 <= 3 * (surface._MAX_TRIANGLES + 1)
    rows = np.broadcast_to(np.array([0, 1, 2], dtype=np.int64), (715_827_883, 3))
    with pytest.raises(InvalidArgumentError) as exc, _address_space_grows_at_most(256 << 20):
        _half_edges(3, rows)
    assert type(exc.value) is InvalidArgumentError
    assert str(exc.value) == "a surface has at most 715827882 triangles, got 715827883"


def _torus_of_disks(n: int) -> TriangulatedSurface:
    """An n x n grid torus (n even) with row 0 marked, and the boundary of
    one triangle marked in every other square of every other row from row 2
    on: each such triangle is a disk region, and the rest is one region."""
    surf = grid_surface(n, n, loop_rows=(0,))
    disks = [(i + n * j, i + 1 + n * j, i + 1 + n * (j + 1))
             for j in range(2, n - 1, 2) for i in range(0, n, 2)]
    z = surf.z_edges + tuple(e for a, b, d in disks for e in ((a, b), (b, d), (a, d)))
    return TriangulatedSurface(surf.vertex_count, surf.triangles, z)


def test_keys_past_int32_give_the_constructed_graph():
    # V = 102 400: the edge keys u * V + w pass 2**31 from u = 20 972 on, and
    # the corner keys region * V + vertex from region 20 972 on, of 25 441;
    # int32 times a Python int stays int32 under numpy 1.24 and 2 alike, so
    # either key computed in int32 would wrap here
    n = 320
    disks = (n // 2 - 1) * (n // 2)
    assert disks * n * n > 2**31
    g = build_graph_from_surface(_torus_of_disks(n))
    assert g.orientable and len(g.regions) == 1 + disks
    assert g.regions[0] == ("R0", -disks)  # the torus less the disks
    assert {r.euler_char for r in g.regions[1:]} == {1}
    assert [e for e in g.edges if e.is_loop] == [("Z0", "R0", "R0")]  # row 0
    assert sorted(e.side_b for e in g.edges[1:]) == sorted(r.label for r in g.regions[1:])
    assert {e.side_a for e in g.edges[1:]} == {"R0"}


def test_kernel_dtypes_past_int32(monkeypatch):
    # triangles, half-edges and cover nodes are numbered in int32; vertices,
    # edge keys and region and cycle numbers are int64, on a surface whose
    # keys pass 2**31; the edge table's direction bit is a bool
    seen = {}

    def spy(name):
        real = getattr(surface, name)

        def call(*args):
            seen.setdefault(name, []).append((args, real(*args)))
            return seen[name][-1][1]
        monkeypatch.setattr(surface, name, call)

    for name in ("_half_edges", "_z_cycles", "_cover_regions", "_components"):
        spy(name)
    build_graph_from_surface(_torus_of_disks(320))
    ((_, t), (keys, faces, same)), = seen["_half_edges"]
    assert (t.dtype, keys.dtype, faces.dtype, same.dtype) == (np.int64, np.int64, np.int32, bool)
    assert int(keys[-1]) > 2**31
    (_, (cycle, _)), = seen["_z_cycles"]
    (_, (region, region_orientable, orientable)), = seen["_cover_regions"]
    assert cycle.dtype == region.dtype == np.int64 and int(region.max()) * 320**2 > 2**31
    assert region_orientable.all() and orientable
    # the marked edges' cycles, the double cover and the parity cover
    marked, cover, parity = seen["_components"]
    assert [args[0] for args, _ in (marked, cover, parity)] == [
        len(cycle), 2 * len(t), 2 * len(region_orientable)]
    assert {end.dtype for args, _ in (marked, cover) for end in args[1:]} == {np.dtype(np.int32)}
    assert {labels.dtype for _, labels in (marked, cover, parity)} == {np.dtype(np.int32)}


def test_parse_manifold_leaves_the_document_as_it_was():
    surface = _document(grid_surface(6, 6, loop_rows=(0, 3)))
    graph = {"graph": sphere_equator_graph().to_json_dict()}
    for doc in (surface, graph):
        before = copy.deepcopy(doc)
        first = parse_manifold(doc)
        assert doc == before
        assert parse_manifold(doc) == first  # read again, the same graph


def test_load_manifold_lets_the_document_go_before_the_kernel(tmp_path, monkeypatch):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(_document(grid_surface(100, 100, loop_rows=(0, 50)))))
    held = []

    def kernel(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return surface_graph(*args)

    surface_graph = surface._surface_graph
    monkeypatch.setattr(surface, "_surface_graph", kernel)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        doc = json.loads(path.read_text())
        document = tracemalloc.get_traced_memory()[0] - base
        del doc
        base = tracemalloc.get_traced_memory()[0]
        g = manifold_io.load_manifold(path)
    finally:
        tracemalloc.stop()
    assert len(g.regions) == 2
    # the kernel's own arguments, 20 000 x 3 and 200 x 2 int64, are 0.48 MB of
    # the 3.6 MB document's JSON lists
    assert held[0] - base < document / 4


def test_surface_kernel_traced_peak_is_bounded():
    # int32 half-edges and cover nodes, keys computed in place and each array
    # dropped once read: 2.3 MB here, where int64 arrays kept to the end took 4.7
    surf = grid_surface(100, 100, loop_rows=(0, 50))
    n, t, z = surf.vertex_count, _vertex_array(surf.triangles, 3), _vertex_array(surf.z_edges, 2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = surface._surface_graph(n, t, z)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(g.regions) == 2
    assert peak < 3_500_000


def test_invalid_graph_raises_at_construction():
    sphere_equator_graph()
    with pytest.raises(InvalidArgumentError, match="missing") as exc:
        BGraph((Region("A", 1),), (HypersurfaceComponent("E", "A", "missing"),))
    assert "; " not in str(exc.value)  # exactly one violation
    with pytest.raises(InvalidArgumentError, match="duplicate region label"):
        BGraph((Region("A", 1), Region("A", 2)), ())
    with pytest.raises(InvalidArgumentError, match="no regions"):
        BGraph((), ())


def test_coloring_signs_are_integers_not_bools():
    # True == 1 and 1.0 == 1, so a membership test alone would take either for +1
    for value in (True, False, 0, 2, -2, 1.0, -1.0, np.float64(1.0), "1"):
        with pytest.raises(InvalidArgumentError, match="'B\\+' must be \\+1 or -1"):
            Coloring({"B+": value, "B-": -1})
    c = Coloring({"B+": np.int64(1), "B-": np.int8(-1)})
    assert c.is_proper(sphere_equator_graph())
    assert c == Coloring({"B+": 1, "B-": -1}) and {type(v) for v in c.assignment.values()} == {int}


# a bool or a float, whole or not, planted at (row, column) of each field
@pytest.mark.parametrize("field, row, col", [("triangles", 3, 2), ("triangles", 0, 0),
                                             ("z_edges", 2, 1), ("z_edges", 0, 0)])
@pytest.mark.parametrize("value", [2.5, 2.0, True, False])
def test_surface_vertices_are_integers(field, row, col, value):
    parts = {"triangles": list(octahedron().triangles), "z_edges": list(octahedron().z_edges)}
    entry = list(parts[field][row])
    entry[col] = value
    parts[field][row] = tuple(entry)
    what = "triangle" if field == "triangles" else "marked edge"
    with pytest.raises(InvalidArgumentError) as exc:
        TriangulatedSurface(6, parts["triangles"], parts["z_edges"])
    assert str(exc.value) == f"{what} {row} has a vertex that is not an integer: {value!r}"


def test_surface_takes_numpy_integer_vertices():
    oct_ = octahedron()
    surf = TriangulatedSurface(6, np.array(oct_.triangles, dtype=np.int32),
                               np.array(oct_.z_edges, dtype=np.uint8))
    assert build_graph_from_surface(surf) == build_graph_from_surface(oct_)
    # keys u * V + w past 2**16: a 16-bit vertex type must not wrap them
    grid = grid_surface(20, 20, loop_rows=(3, 11))
    expected = build_graph_from_surface(grid)
    for dtype in (np.int16, np.uint16, np.int64):
        surf = TriangulatedSurface(400, grid.triangles, np.array(grid.z_edges, dtype=dtype))
        assert build_graph_from_surface(surf) == expected


def test_surface_stores_its_rows_as_given():
    tris, z = octahedron().triangles, ((2, 1), (4, 3), (3, 2), (1, 4))
    surf = TriangulatedSurface(6, [list(t) for t in tris], [list(e) for e in z])
    assert surf.triangles == tris and surf.z_edges == z
    assert surf != TriangulatedSurface(6, tris, sorted(z))


def _python_door_defects():
    """Malformed arguments to the Python constructors, with the exact error each raises."""
    tris, z = octahedron().triangles, octahedron().z_edges
    equator = (Region("B+", 1), Region("B-", 1)), (HypersurfaceComponent("Z0", "B+", "B-"),)
    radial = named_field("radial")
    cases = [
        ("marked edge of 3", lambda: TriangulatedSurface(3, [(0, 1, 2)], [(0, 1, 2)]),
         "marked edge 0 does not have 2 vertices: (0, 1, 2)"),
        ("marked edge of 1", lambda: TriangulatedSurface(6, tris, [(0,)]),
         "marked edge 0 does not have 2 vertices: (0,)"),
        ("non-iterable triangle", lambda: TriangulatedSurface(6, tris[:2] + (5,) + tris[2:], z),
         "triangle 2 does not have 3 vertices: 5"),
        ("non-iterable marked edge", lambda: TriangulatedSurface(6, tris, [5]),
         "marked edge 0 does not have 2 vertices: 5"),
        ("no triangles", lambda: TriangulatedSurface(6, None, z),
         "triangles must be rows of 3 vertices, got None"),
        ("no marked edges", lambda: TriangulatedSurface(6, tris, 3),
         "marked edges must be rows of 2 vertices, got 3"),
        ("Euler characteristic 1.5", lambda: BGraph((Region("a", 1.5),), ()),
         "euler_char of region 'a' must be an integer, got 1.5"),
        ("Euler characteristic True", lambda: BGraph((Region("a", 2), Region("b", True)), ()),
         "euler_char of region 'b' must be an integer, got True"),
        ("orientable 'no'", lambda: BGraph(*equator, orientable="no"),
         "orientable must be a bool, got 'no'"),
        ("orientable 1", lambda: BGraph(*equator, orientable=1),
         "orientable must be a bool, got 1"),
        ("regions None", lambda: BGraph(None, ()), "regions must be Region records, got None"),
        ("edges 5", lambda: BGraph(equator[0], 5),
         "edges must be HypersurfaceComponent records, got 5"),
        ("lone region", lambda: BGraph(Region("a", 1), ()),
         "regions must be Region records, got Region(label='a', euler_char=1)"),
        ("lone edge", lambda: BGraph(equator[0], equator[1][0]),
         "edges must be HypersurfaceComponent records, got "
         "HypersurfaceComponent(label='Z0', side_a='B+', side_b='B-')"),
        ("region tuple", lambda: BGraph((("a", 1),), ()), "region 0 is not a Region: ('a', 1)"),
        # records made with tuple.__new__, of a width whose repr raises
        ("short region", lambda: BGraph((Region("a", 1), tuple.__new__(Region, ("b",))), ()),
         "region 1 is a Region of width 1, not 2"),
        ("long edge", lambda: BGraph(equator[0], (
            tuple.__new__(HypersurfaceComponent, ("Z0", "B+", "B-", "B+")),)),
         "edge 0 is a HypersurfaceComponent of width 4, not 3"),
        ("edge tuple", lambda: BGraph(equator[0], equator[1] + (("Z1", "B+", "B-"),)),
         "edge 1 is not a HypersurfaceComponent: ('Z1', 'B+', 'B-')"),
        ("region label 3", lambda: BGraph((Region(3, 1),), ()),
         "label of region 0 must be a str, got 3"),
        ("unhashable region label", lambda: BGraph((Region("a", 1), Region(["a"], 1)), ()),
         "label of region 1 must be a str, got ['a']"),
        ("edge label None", lambda: BGraph(equator[0], (HypersurfaceComponent(None, "B+", "B-"),)),
         "label of edge 0 must be a str, got None"),
        ("edge side 1", lambda: BGraph(equator[0], (HypersurfaceComponent("Z0", "B+", 1),)),
         "side_b of edge 0 must be a str, got 1"),
        ("coloring None", lambda: Coloring(None), "coloring must be a mapping, got None"),
        ("coloring 5", lambda: Coloring(5), "coloring must be a mapping, got 5"),
        ("coloring of pairs", lambda: Coloring([("B+", 1)]),
         "coloring must be a mapping, got [('B+', 1)]"),
        ("coloring label 1", lambda: Coloring({1: 1, "a": -1}),
         "coloring label must be a str, got 1"),
        ("radius '0.1'", lambda: winding_index(radial, (0.0, 0.0), "0.1"),
         "radius must be finite and positive, got '0.1'"),
        ("radius None", lambda: winding_index(radial, (0.0, 0.0), None),
         "radius must be finite and positive, got None"),
    ]
    for count in (2.5, True, "6"):
        cases.append((f"vertex_count {count!r}", lambda c=count: TriangulatedSurface(c, tris, z),
                      f"vertex_count must be an integer, got {count!r}"))
    for dim in ("x", None, 2.5, True):
        cases.append((f"ambient_dim {dim!r}", lambda d=dim: BGraph(*equator, ambient_dim=d),
                      f"ambient_dim must be an integer, got {dim!r}"))
    # a dict or a set unpacks into two reals, and a 2 x 1 array into two rows
    for center in ((0.0, 0.0, 0.0), (0.0,), ("a", "b"), 0.0, {0.5: "x", 0.0: "y"}, {0.0, 0.5},
                   np.array([[0.5], [0.0]])):
        cases.append((f"center {center!r}", lambda c=center: winding_index(radial, c, 0.1),
                      f"center must be two finite reals, got {center!r}"))
    return cases


@pytest.mark.parametrize("name, call, message", _python_door_defects(),
                         ids=[case[0] for case in _python_door_defects()])
def test_python_door_defect_gives_its_exact_error(name, call, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert type(exc.value) is InvalidArgumentError and str(exc.value) == message


# values a caller might pass by mistake: bools, floats, strings, None and nesting
_JUNK = st.one_of(st.integers(-2, 9), st.booleans(), st.floats(), st.text(max_size=2),
                  st.none(), st.lists(st.integers(0, 6), max_size=4),
                  st.tuples(st.integers(0, 6)), st.lists(st.lists(st.integers(0, 6))))


@st.composite
def _malformed_surface(draw):
    """The parts of an octahedron with a few values replaced by junk."""
    parts = {"triangles": [list(t) for t in octahedron().triangles],
             "z_edges": [list(e) for e in octahedron().z_edges]}
    n = draw(st.one_of(st.just(6), _JUNK))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(parts)))
        rows = parts[key]
        how = draw(st.sampled_from(("field", "row", "length", "vertex")))
        if how == "field" or not isinstance(rows, list) or not rows:
            parts[key] = draw(_JUNK)
            continue
        i = draw(st.integers(0, len(rows) - 1))
        if how == "row":
            rows[i] = draw(_JUNK)
        elif how == "length":
            rows[i] = draw(st.lists(st.integers(0, 6), max_size=5))
        elif isinstance(rows[i], list) and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_JUNK)
    return n, parts["triangles"], parts["z_edges"]


@st.composite
def _malformed_graph(draw):
    """The parts of a valid graph with one part replaced by junk: the regions
    or the edges, one entry, label, side or Euler characteristic, the ambient
    dimension or the orientability."""
    regions, edges, dim, orientable = draw(_graph_parts())
    if not edges:
        edges = [HypersurfaceComponent("Z0", regions[0].label, regions[0].label)]
    key = draw(st.sampled_from(("regions", "edges", "region", "edge", "label", "side",
                                "euler_char", "ambient_dim", "orientable")))
    i = draw(st.integers(0, len(regions) - 1))
    k = draw(st.integers(0, len(edges) - 1))
    r, e = regions[i], edges[k]
    if key == "regions":
        regions = draw(_JUNK)
    elif key == "edges":
        edges = draw(_JUNK)
    elif key == "region":
        regions[i] = draw(_JUNK)
    elif key == "edge":
        edges[k] = draw(_JUNK)
    elif key == "label":
        regions[i] = Region(draw(_JUNK), r.euler_char)
    elif key == "side":
        edges[k] = HypersurfaceComponent(e.label, e.side_a, draw(_JUNK))
    elif key == "euler_char":
        regions[i] = Region(r.label, draw(_JUNK))
    elif key == "ambient_dim":
        dim = draw(_JUNK)
    else:
        orientable = draw(_JUNK)
    return regions, edges, dim, orientable


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_malformed_surface(), _malformed_graph())
def test_malformed_python_input_raises_only_structured_errors(surface, graph):
    try:
        build_graph_from_surface(TriangulatedSurface(*surface))
    except BTangentError:
        pass
    try:
        BGraph(*graph)
    except BTangentError:
        pass


@st.composite
def _graph_parts(draw):
    """Regions, edges, ambient dimension and orientability of a valid graph."""
    labels = draw(st.lists(st.text("ABCD", min_size=1, max_size=3),
                           min_size=1, max_size=6, unique=True))
    regions = [Region(lab, draw(st.integers(-4, 4))) for lab in labels]
    side = st.sampled_from(labels)
    edges = [HypersurfaceComponent(f"Z{k}", draw(side), draw(side))
             for k in range(draw(st.integers(0, 6)))]
    return regions, edges, draw(st.integers(1, 6)), draw(st.booleans())


def _graph_document(regions, edges, dim, orientable) -> dict:
    return {"graph": {
        "regions": [{"label": r.label, "chi": r.euler_char} for r in regions],
        "edges": [{"label": e.label, "a": e.side_a, "b": e.side_b} for e in edges],
        "ambient_dim": dim,
        "orientable": orientable,
    }}


# every defect a graph document can hold that BGraph finds, in its order
_DEFECTS = ("ambient_dim not an integer", "ambient_dim must be >= 1", "orientable not a bool",
            "no regions", "region label not a str", "euler_char not an integer",
            "duplicate region label", "edge label not a str", "edge side not a str",
            "duplicate edge label", "references missing region")
_NOT_INT = (None, 1.5, 2.0, "1", True, False, [1], {"x": 1})
_NOT_STR = (None, 1.5, 3, True, ["R"], {"label": "R"})


@st.composite
def _one_defect(draw):
    """The parts of a valid graph with one defect of _DEFECTS planted, with
    the path and the message of the error the constructor raises for it."""
    regions, edges, dim, orientable = draw(_graph_parts())
    if not edges:
        edges = [HypersurfaceComponent("Z0", regions[0].label, regions[0].label)]
    defect = draw(st.sampled_from(_DEFECTS))
    i = draw(st.integers(0, len(regions) - 1))
    k = draw(st.integers(0, len(edges) - 1))
    r, e = regions[i], edges[k]
    if defect == "ambient_dim not an integer":
        dim = draw(st.sampled_from(_NOT_INT))
        return (regions, edges, dim, orientable), "/ambient_dim", (
            f"ambient_dim must be an integer, got {dim!r}")
    if defect == "ambient_dim must be >= 1":
        dim = draw(st.integers(-3, 0))
        return (regions, edges, dim, orientable), "/ambient_dim", (
            f"invalid region graph: ambient_dim must be >= 1, got {dim}")
    if defect == "orientable not a bool":
        orientable = draw(st.sampled_from((0, 1, "yes", None)))
        return (regions, edges, dim, orientable), "/orientable", (
            f"orientable must be a bool, got {orientable!r}")
    if defect == "no regions":
        return ([], [], dim, orientable), "/regions", "invalid region graph: graph has no regions"
    if defect == "region label not a str":
        regions[i] = Region(draw(st.sampled_from(_NOT_STR)), r.euler_char)
        return (regions, edges, dim, orientable), f"/regions/{i}/label", (
            f"label of region {i} must be a str, got {regions[i].label!r}")
    if defect == "euler_char not an integer":
        regions[i] = Region(r.label, draw(st.sampled_from(_NOT_INT)))
        return (regions, edges, dim, orientable), f"/regions/{i}/chi", (
            f"euler_char of region {r.label!r} must be an integer, got {regions[i].euler_char!r}")
    if defect == "duplicate region label":
        regions.append(Region(r.label, 0))
        return (regions, edges, dim, orientable), f"/regions/{len(regions) - 1}/label", (
            f"invalid region graph: duplicate region label {r.label!r}")
    if defect == "edge label not a str":
        edges[k] = HypersurfaceComponent(draw(st.sampled_from(_NOT_STR)), e.side_a, e.side_b)
        return (regions, edges, dim, orientable), f"/edges/{k}/label", (
            f"label of edge {k} must be a str, got {edges[k].label!r}")
    key = draw(st.sampled_from(("a", "b")))
    if defect == "edge side not a str":
        side = draw(st.sampled_from(_NOT_STR))
        edges[k] = HypersurfaceComponent(e.label, *((side, e.side_b) if key == "a"
                                                     else (e.side_a, side)))
        return (regions, edges, dim, orientable), f"/edges/{k}/{key}", (
            f"side_{key} of edge {k} must be a str, got {side!r}")
    if defect == "duplicate edge label":
        edges.append(e)
        return (regions, edges, dim, orientable), f"/edges/{len(edges) - 1}/label", (
            f"invalid region graph: duplicate edge label {e.label!r}")
    # region labels are drawn from ABCD
    edges[k] = HypersurfaceComponent(e.label, *(("Q", e.side_b) if key == "a" else (e.side_a, "Q")))
    return (regions, edges, dim, orientable), f"/edges/{k}/{key}", (
        f"invalid region graph: edge {e.label!r} references missing region 'Q'")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_one_defect())
def test_graph_constructor_checks_every_defect(planted):
    # one defect, one message: the document door reports the constructor's
    # message at the pointer of the defect
    parts, path, message = planted
    with pytest.raises(InvalidArgumentError) as exc:
        BGraph(*parts)
    assert str(exc.value) == message and exc.value._path == path
    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold(_graph_document(*parts))
    assert exc.value.pointer == f"/graph{path}"
    assert str(exc.value) == f"{message} (at /graph{path})"


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_graph_parts())
def test_valid_graph_round_trips_through_its_document(parts):
    g = BGraph(*parts)
    labels, a, b = _graph_columns(g.regions, g.edges, g.ambient_dim, g.orientable)
    assert labels == tuple(sorted(g.region_labels())) and g._columns == (labels, a, b)
    assert [(labels[u], labels[w]) for u, w in zip(a, b)] == [(e.side_a, e.side_b) for e in g.edges]
    assert parse_manifold({"graph": g.to_json_dict()}) == g


@st.composite
def _planted_defect(draw):
    """A valid graph document with exactly one defect planted in an entry, and
    the pointer and message of the error it gets."""
    regions, edges, dim, orientable = draw(_graph_parts())
    if not edges:
        edges = [HypersurfaceComponent("Z0", regions[0].label, regions[0].label)]
    doc = _graph_document(regions, edges, dim, orientable)
    graph = doc["graph"]
    kind = draw(st.sampled_from(("non-object", "missing key", "chi type", "label type",
                                 "unknown side", "duplicate label")))
    where = draw(st.sampled_from(("regions", "edges")))
    i = draw(st.integers(0, len(graph[where]) - 1))
    entry = graph[where][i]
    p = f"/graph/{where}/{i}"
    if kind == "non-object":
        graph[where][i] = draw(st.sampled_from((None, 1, "R", [], [entry])))
        return doc, p, f"{where[:-1]} must be an object"
    if kind == "missing key":
        key = draw(st.sampled_from(sorted(entry)))
        del entry[key]
        return doc, p, f"missing required key {key!r}"
    if kind == "chi type":
        i %= len(graph["regions"])
        entry = graph["regions"][i]
        value = draw(st.sampled_from((True, False, 1.0, -2.5, "1")))
        entry["chi"] = value
        return doc, f"/graph/regions/{i}/chi", (f"euler_char of region {entry['label']!r} "
                                                f"must be an integer, got {value!r}")
    if kind == "label type":
        key = "label" if where == "regions" else draw(st.sampled_from(("label", "a", "b")))
        entry[key] = value = draw(st.sampled_from((None, 3, True, ["R"], {"label": "R"})))
        field = {"label": "label", "a": "side_a", "b": "side_b"}[key]
        return doc, f"{p}/{key}", f"{field} of {where[:-1]} {i} must be a str, got {value!r}"
    if kind == "unknown side":
        i %= len(graph["edges"])
        entry = graph["edges"][i]
        key = draw(st.sampled_from(("a", "b")))
        entry[key] = "Q"  # region labels are drawn from ABCD
        return doc, f"/graph/edges/{i}/{key}", (f"invalid region graph: edge {entry['label']!r} "
                                                "references missing region 'Q'")
    # a repeated label, appended so that no edge loses its region
    copy = dict(entry)
    graph[where].append(copy)
    return doc, f"/graph/{where}/{len(graph[where]) - 1}/label", (
        f"invalid region graph: duplicate {where[:-1]} label {copy['label']!r}")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_planted_defect())
def test_malformed_graph_document_reports_its_defect(planted):
    doc, pointer, message = planted
    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold(doc)
    assert exc.value.pointer == pointer
    assert str(exc.value) == f"{message} (at {pointer})"


@pytest.mark.parametrize("value", ["x", 1.5, 6.0, None, True, [6]])
def test_document_vertex_count_is_an_integer(value):
    doc = _document(octahedron())
    doc["surface"]["vertices"] = value
    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold(doc)
    assert str(exc.value) == "'vertices' must be an integer (at /surface/vertices)"


def test_edge_shape_is_checked_before_any_edge_side():
    # every edge's keys and types are checked before any side is looked up,
    # so the missing key of edge 1 is reported, not the unknown side of edge 0
    doc = _graph_document([Region("A", 1)], [HypersurfaceComponent("Z0", "A", "Q"),
                                             HypersurfaceComponent("Z1", "A", "A")], 2, True)
    del doc["graph"]["edges"][1]["b"]
    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold(doc)
    assert str(exc.value) == "missing required key 'b' (at /graph/edges/1)"


def test_circle_graph_shapes():
    g0 = circle_graph(0)
    assert len(g0.regions) == 1 and not g0.edges
    assert g0.regions[0].euler_char == 0  # a closed circle
    g1 = circle_graph(1)
    assert len(g1.edges) == 1 and g1.edges[0].is_loop
    g5 = circle_graph(5)
    assert len(g5.regions) == 5 and len(g5.edges) == 5
    assert all(not e.is_loop for e in g5.edges)
    assert all(r.euler_char == 1 for r in g5.regions)


def test_records_are_named_tuples_on_both_doors():
    doc = {"graph": {"regions": [{"label": "B+", "chi": 1}, {"label": "B-", "chi": 1}],
                     "edges": [{"label": "Z0", "a": "B+", "b": "B-"}],
                     "ambient_dim": 2, "orientable": True}}
    loaded, built = parse_manifold(doc), sphere_equator_graph()
    assert loaded == built
    for g in (loaded, built):
        assert [type(r) for r in g.regions] == [Region, Region]
        assert [type(e) for e in g.edges] == [HypersurfaceComponent]
    region, edge = built.regions[0], built.edges[0]
    assert region == ("B+", 1) and hash(region) == hash(("B+", 1))
    assert repr(region) == "Region(label='B+', euler_char=1)"
    assert repr(edge) == "HypersurfaceComponent(label='Z0', side_a='B+', side_b='B-')"
    label, a, b = edge
    assert (label, a, b) == ("Z0", "B+", "B-") and not edge.is_loop
    assert Region._fields == ("label", "euler_char")
    assert HypersurfaceComponent._fields == ("label", "side_a", "side_b")
    with pytest.raises(AttributeError):
        region.label = "B?"


def test_records_survive_pickle_deepcopy_and_replace():
    g = sphere_equator_graph()
    for record in g.regions + g.edges:
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert twin == record and type(twin) is type(record)
    assert pickle.loads(pickle.dumps(g)) == g == copy.deepcopy(g)
    flipped = g.edges[0]._replace(side_a="B-", side_b="B+")
    assert type(flipped) is HypersurfaceComponent and flipped == ("Z0", "B-", "B+")
    assert BGraph(g.regions, (flipped,))._columns == (("B+", "B-"), (1,), (0,))


def test_record_order_leaves_the_columns_in_step():
    rng = np.random.default_rng(25)
    for _ in range(40):
        g = random_bgraph(rng)
        regions = [g.regions[i] for i in rng.permutation(len(g.regions))]
        order = rng.permutation(len(g.edges)).tolist()
        labels, a, b = g._columns
        assert BGraph(regions, g.edges)._columns == g._columns
        assert BGraph(regions, [g.edges[k] for k in order])._columns == (
            labels, tuple(a[k] for k in order), tuple(b[k] for k in order))
