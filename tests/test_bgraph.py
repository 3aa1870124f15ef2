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
    circle_graph,
    named_field,
    parse_manifold,
    sphere_equator_graph,
    surface_euler,
    surface_orientable,
    winding_index,
)
from btangent.bgraph import _components
from corpus import (
    UnionFind,
    genus2,
    grid_surface,
    octahedron,
    orientable_oracle,
    pinched_octahedra,
    projective_plane,
    region_count_oracle,
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
    with pytest.raises(ManifoldFormatError, match="expected an integer") as exc:
        parse_manifold(doc)
    assert exc.value.pointer == f"/surface/{key}/{row}/{col}"


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
    with pytest.raises(ManifoldFormatError, match="expected an integer") as exc:
        parse_manifold(doc)
    assert exc.value.pointer == "/surface/triangles/3/2"


_CORPUS = (octahedron(), octahedron(False), torus7(), genus2(), projective_plane(),
           grid_surface(5, 6, True, (1, 3)), subdivide(grid_surface(4, 4, False, (0, 2)), [3]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_document_and_surface_give_the_same_graph(data):
    surf = data.draw(st.sampled_from(_CORPUS), label="surface")
    surf = relabel(surf, data.draw(st.permutations(range(surf.vertex_count)), label="relabelling"))
    order = data.draw(st.permutations(range(len(surf.triangles))), label="triangle order")
    turns = data.draw(st.lists(st.integers(0, 5), min_size=len(order), max_size=len(order)),
                      label="row turns")
    tris = [surf.triangles[i] for i in order]
    tris = [(t[s % 3:] + t[:s % 3])[::1 if s < 3 else -1] for t, s in zip(tris, turns)]
    z = data.draw(st.permutations(surf.z_edges), label="marked edge order")
    flips = data.draw(st.lists(st.booleans(), min_size=len(z), max_size=len(z)), label="flips")
    z = [e[::-1] if flip else e for e, flip in zip(z, flips)]
    doc = {"surface": {"vertices": surf.vertex_count, "triangles": [list(t) for t in tris],
                       "z_edges": [list(e) for e in z]}}
    expected = build_graph_from_surface(TriangulatedSurface(surf.vertex_count, tris, z))
    assert parse_manifold(doc) == expected


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
    for center in ((0.0, 0.0, 0.0), (0.0,), ("a", "b"), 0.0):
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
    """The parts of a valid graph with one Euler characteristic, the ambient
    dimension or the orientability replaced by junk."""
    regions, edges, dim, orientable = draw(_graph_parts())
    key = draw(st.sampled_from(("euler_char", "ambient_dim", "orientable")))
    if key == "euler_char":
        i = draw(st.integers(0, len(regions) - 1))
        regions[i] = Region(regions[i].label, draw(_JUNK))
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


_DEFECTS = ("no regions", "duplicate region label", "duplicate edge label",
            "references missing region", "ambient_dim must be >= 1")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_graph_parts(), st.sampled_from(_DEFECTS))
def test_graph_constructor_checks_every_defect(parts, defect):
    regions, edges, dim, orientable = parts
    g = BGraph(regions, edges, dim, orientable)
    assert parse_manifold({"graph": g.to_json_dict()}) == g

    first = regions[0].label
    pointer = "/graph"
    if defect == "no regions":
        regions, edges = [], []
    elif defect == "duplicate region label":
        regions = regions + [Region(first, 0)]
    elif defect == "duplicate edge label":
        edges = edges + [HypersurfaceComponent("Z0", first, first)] * 2
    elif defect == "references missing region":
        pointer = f"/graph/edges/{len(edges)}/a"
        edges = edges + [HypersurfaceComponent("Zx", "Q", first)]
    else:
        dim = 0
    with pytest.raises(InvalidArgumentError, match=defect):
        BGraph(regions, edges, dim, orientable)
    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold(_graph_document(regions, edges, dim, orientable))
    assert exc.value.pointer == pointer
    if pointer == "/graph":
        assert defect in str(exc.value)


@st.composite
def _planted_defect(draw):
    """A valid graph document with exactly one defect planted, and the pointer
    and message of the error that the per-entry loop raises for it."""
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
        entry = graph["regions"][i % len(graph["regions"])]
        p = f"/graph/regions/{i % len(graph['regions'])}"
        value = draw(st.sampled_from((True, False, 1.0, -2.5, "1")))
        entry["chi"] = value
        return doc, f"{p}/chi", ("'chi' must be an integer" if isinstance(value, bool)
                                 else "'chi' must be int")
    if kind == "label type":
        key = "label" if where == "regions" else draw(st.sampled_from(("label", "a", "b")))
        entry[key] = draw(st.sampled_from((None, 3, True, ["R"], {"label": "R"})))
        return doc, f"{p}/{key}", f"{key!r} must be str"
    if kind == "unknown side":
        entry = graph["edges"][i % len(graph["edges"])]
        p = f"/graph/edges/{i % len(graph['edges'])}"
        key = draw(st.sampled_from(("a", "b")))
        entry[key] = "Q"  # region labels are drawn from ABCD
        return doc, f"{p}/{key}", "unknown region 'Q'"
    # a repeated label, appended so that no edge loses its region
    copy = dict(entry)
    graph[where].append(copy)
    return doc, "/graph", (f"invalid region graph: duplicate {where[:-1]} label "
                           f"{copy['label']!r}")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_planted_defect())
def test_malformed_graph_document_reports_its_defect(planted):
    doc, pointer, message = planted
    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold(doc)
    assert exc.value.pointer == pointer
    assert str(exc.value) == f"{message} (at {pointer})"


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
    g1 = circle_graph(1)
    assert len(g1.edges) == 1 and g1.edges[0].is_loop
    g5 = circle_graph(5)
    assert len(g5.regions) == 5 and len(g5.edges) == 5
    assert all(not e.is_loop for e in g5.edges)
    assert all(r.euler_char == 1 for r in g5.regions)
