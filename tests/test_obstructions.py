import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from btangent import (
    BGraph,
    BmClass,
    EdgeVerdict,
    HypersurfaceComponent,
    InconsistentGluingError,
    NotOrientableError,
    Region,
    SignGluing,
    classify_bm,
    edge_obstruction,
    equivalence_report,
    euler_report,
    gauge_solvable,
    obstructions,
    parse_manifold,
    sphere_equator_graph,
    two_color,
)
from corpus import (
    brute_force_two_colorable,
    circle_criterion,
    circle_graph,
    empty_z_sphere_graph,
    genus2_separating_graph,
    random_bgraph,
    torus_loop_graph,
    two_annuli_torus_graph,
)


def test_two_color_sphere():
    c = two_color(sphere_equator_graph())
    assert c.to_json_dict() == {"B+": 1, "B-": -1}


def test_two_color_loop_absent():
    assert two_color(torus_loop_graph()) is None


def test_two_color_odd_cycle_absent():
    assert two_color(circle_graph(3)) is None


def test_two_color_tie_break_smallest_label_positive():
    g = BGraph(
        (Region("b", 1), Region("a", 1), Region("z", 3)),
        (HypersurfaceComponent("E", "b", "a"),),
    )
    c = two_color(g)
    # components {a, b} and {z}: smallest labels a and z get +1
    assert c["a"] == 1 and c["b"] == -1 and c["z"] == 1


def test_two_color_parallel_edges():
    c = two_color(two_annuli_torus_graph())
    assert c["A"] == 1 and c["B"] == -1


def test_two_color_agrees_with_brute_force():
    rng = np.random.default_rng(42)
    graphs = [
        sphere_equator_graph(), torus_loop_graph(), genus2_separating_graph(),
        empty_z_sphere_graph(), two_annuli_torus_graph(),
    ] + [circle_graph(k) for k in range(9)] + [random_bgraph(rng) for _ in range(60)]
    for g in graphs:
        ours = two_color(g)
        oracle = brute_force_two_colorable(g)
        assert (ours is None) == (oracle is None)
        if ours is not None:
            assert ours.is_proper(g)


def test_coloring_negation_also_proper():
    for g in (sphere_equator_graph(), circle_graph(6), two_annuli_torus_graph()):
        c = two_color(g)
        assert c.negate().is_proper(g)


def test_gauge_solver_matches_two_color():
    rng = np.random.default_rng(2024)
    randoms = [random_bgraph(rng) for _ in range(60)]
    graphs = [
        sphere_equator_graph(), torus_loop_graph(), genus2_separating_graph(),
        two_annuli_torus_graph(), circle_graph(10**5), circle_graph(10**5 + 1),
    ] + [circle_graph(k) for k in range(9)] + randoms
    for g in graphs:
        bfs = two_color(g)
        alg = gauge_solvable(SignGluing.canonical(g), g)
        assert (bfs is None) == (alg is None)
        if bfs is not None:
            assert alg.to_json_dict() == bfs.to_json_dict()
    for g in randoms:
        alg = gauge_solvable(SignGluing.canonical(g), g)
        assert (alg is None) == (brute_force_two_colorable(g) is None)


def test_gauge_loop_unsolvable():
    g = torus_loop_graph()
    assert gauge_solvable(SignGluing.canonical(g), g) is None


def test_gauge_two_parallel_edges():
    g = two_annuli_torus_graph()
    # of the four sign assignments exactly two satisfy both edge constraints
    assert len(g.edges) == 2
    signs = [{"A": sa, "B": sb} for sa in (1, -1) for sb in (1, -1)]
    satisfying = [
        (c["A"], c["B"])
        for c in signs
        if all(c[e.side_a] * c[e.side_b] == -1 for e in g.edges)
    ]
    assert satisfying == [(1, -1), (-1, 1)]
    # normalization picks the one with A = +1
    c = gauge_solvable(SignGluing.canonical(g), g)
    assert c.to_json_dict() == {"A": 1, "B": -1}


def test_gauge_takes_only_the_gluing_of_its_own_graph():
    g = sphere_equator_graph()
    assert SignGluing._fields == ("graph",)
    for other in (circle_graph(2), torus_loop_graph(),
                  BGraph(g.regions, g.edges, ambient_dim=3)):
        with pytest.raises(InconsistentGluingError):
            gauge_solvable(SignGluing.canonical(other), g)
    rebuilt = parse_manifold({"graph": g.to_json_dict()})
    assert rebuilt is not g
    assert gauge_solvable(SignGluing.canonical(rebuilt), g).to_json_dict() == {"B+": 1, "B-": -1}


def _gauge(g: BGraph):
    return gauge_solvable(SignGluing.canonical(g), g)


def _assert_routes_agree(g: BGraph):
    """The union-find and the BFS give the same coloring, or both None."""
    alg = _gauge(g)
    assert alg == two_color(g)
    return alg


def _indexed_graph(n: int, pairs) -> BGraph:
    """Regions P000000, P000001, ... (sorted as numbered) joined by the given
    index pairs, with the edges in the order given."""
    labels = [f"P{i:06d}" for i in range(n)]
    return BGraph(tuple(Region(lab, 0) for lab in labels),
                  tuple(HypersurfaceComponent(f"E{k}", labels[u], labels[w])
                        for k, (u, w) in enumerate(pairs)))


PATH_REGIONS = 2 * 10**5


def test_gauge_on_a_long_path_listed_backwards():
    # each edge hooks the next region onto the one before it, so the parent
    # links form one chain through every region
    pairs = [(i, i + 1) for i in reversed(range(PATH_REGIONS - 1))]
    c = _assert_routes_agree(_indexed_graph(PATH_REGIONS, pairs))
    assert [c[f"P{i:06d}"] for i in (0, 1, 2, PATH_REGIONS - 1)] == [1, -1, 1, -1]


@pytest.mark.parametrize("regions", [PATH_REGIONS, PATH_REGIONS + 1], ids=["even", "odd"])
def test_gauge_on_a_long_cycle_closed_last(regions):
    # the closing edge's find climbs the whole chain the path built
    pairs = [(i, i + 1) for i in reversed(range(regions - 1))] + [(regions - 1, 0)]
    c = _assert_routes_agree(_indexed_graph(regions, pairs))
    assert (c is None) == (regions % 2 == 1)


@pytest.mark.parametrize("hub", [0, 500], ids=["smallest hub", "largest hub"])
def test_gauge_on_a_star(hub):
    leaves = [u for u in range(501) if u != hub]
    for pairs in ([(hub, u) for u in leaves], [(u, hub) for u in reversed(leaves)]):
        c = _assert_routes_agree(_indexed_graph(501, pairs))
        assert c[f"P{hub:06d}"] == (1 if hub == 0 else -1)
    # one leaf joined to another closes a triangle through the hub
    assert _assert_routes_agree(_indexed_graph(501, [(hub, u) for u in leaves]
                                               + [(leaves[0], leaves[1])])) is None


def test_gauge_on_components_with_loops():
    # a 4-cycle, a path of 3 and an isolated region; then a loop in any of
    # them, or a separate 5-cycle, leaves no coloring
    pairs = [(3, 1), (1, 0), (0, 2), (2, 3), (6, 5), (4, 5)]
    c = _assert_routes_agree(_indexed_graph(8, pairs))
    assert [c[f"P{i:06d}"] for i in range(8)] == [1, -1, -1, 1, 1, -1, 1, 1]
    for loop in ((7, 7), (5, 5), (0, 0)):
        assert _assert_routes_agree(_indexed_graph(8, pairs + [loop])) is None
        assert _assert_routes_agree(_indexed_graph(8, [loop] + pairs)) is None
    odd = pairs + [(8, 9), (9, 10), (10, 11), (11, 12), (12, 8)]
    assert _assert_routes_agree(_indexed_graph(13, odd)) is None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gauge_matches_two_color_with_edges_shuffled_and_sides_swapped(seed):
    rng = np.random.default_rng(seed)
    g = random_bgraph(rng, max_regions=40)
    edges = [e._replace(side_a=e.side_b, side_b=e.side_a) if rng.random() < 0.5 else e
             for e in g.edges]
    rng.shuffle(edges)
    h = BGraph(g.regions, tuple(edges), g.ambient_dim, g.orientable)
    assert _assert_routes_agree(h) == _gauge(g)


def test_classify_bm_parity():
    for m in range(1, 51):
        want = BmClass.TANGENT_EQUIVALENT if m % 2 == 0 else BmClass.B_TANGENT_EQUIVALENT
        assert classify_bm(m) is want
        if m + 2 <= 50:
            assert classify_bm(m) is classify_bm(m + 2)
    with pytest.raises(ValueError):
        classify_bm(0)


def test_equivalence_report_sphere():
    v = equivalence_report(sphere_equator_graph())
    doc = v.to_json_dict()
    assert v.two_colorable and doc["line_bundle_trivial"] and doc["sw_classes_equal"]
    assert doc["b_tangent_orientable"] and doc["global_defining_function"]
    assert doc["ko_classes_equal"]
    assert v.coloring.to_json_dict() == {"B+": 1, "B-": -1}
    assert "2p(TM)" in v.pontrjagin_note


def test_equivalence_report_torus_loop():
    v = equivalence_report(torus_loop_graph())
    assert not v.two_colorable and v.coloring is None
    doc = v.to_json_dict()
    assert not doc["ko_classes_equal"] and not doc["global_defining_function"]


def test_equivalence_report_empty_z():
    v = equivalence_report(empty_z_sphere_graph())
    assert v.two_colorable and v.coloring.to_json_dict() == {"M": 1}


def test_equivalence_report_refuses_nonorientable():
    g = BGraph((Region("K", 0),), (), orientable=False)
    with pytest.raises(NotOrientableError):
        equivalence_report(g)


def test_circle_criterion_matches_cycle_coloring():
    for k in range(0, 21):
        assert circle_criterion(k) == (k % 2 == 0)
        assert circle_criterion(k) == (two_color(circle_graph(k)) is not None)


def test_edge_obstruction_verdicts():
    loop = torus_loop_graph()
    sphere = sphere_equator_graph()
    assert edge_obstruction(loop, 2, 1) is EdgeVerdict.OBSTRUCTED
    # identity fibration of the equator: point fibres, even codimension
    assert edge_obstruction(sphere, 2, 0) is EdgeVerdict.INCONCLUSIVE
    assert edge_obstruction(loop, 2, 0) is EdgeVerdict.INCONCLUSIVE
    assert edge_obstruction(sphere, 3, 0) is EdgeVerdict.INCONCLUSIVE
    assert edge_obstruction(sphere, 2, 1) is EdgeVerdict.INCONCLUSIVE
    with pytest.raises(ValueError):
        edge_obstruction(loop, 2, 2)
    with pytest.raises(ValueError):
        edge_obstruction(loop, 2, -1)


def test_analyses_of_one_graph_run_one_bfs(monkeypatch):
    real = obstructions.two_color
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(obstructions, "two_color", counted)
    g = genus2_separating_graph()
    verdict = equivalence_report(g)
    assert edge_obstruction(g, 3, 2) is EdgeVerdict.INCONCLUSIVE
    report = euler_report(g)
    assert calls == [g]
    assert report.coloring_used is verdict.coloring
    # a graph built anew, equal or not, runs its own search
    equivalence_report(dataclasses.replace(g))
    assert len(calls) == 2
    # two_color itself is never cached: each call runs a search of its own
    first, second = obstructions.two_color(g), obstructions.two_color(g)
    assert first == second == verdict.coloring and first is not second
    assert len(calls) == 4


def test_shared_coloring_is_read_only():
    g = genus2_separating_graph()
    coloring = equivalence_report(g).coloring
    label = next(iter(coloring.assignment))
    with pytest.raises(TypeError):
        coloring.assignment[label] = -coloring[label]
    assert euler_report(g).coloring_used[label] == coloring[label]


def test_memo_leaves_equality_repr_json_and_pickling_alone():
    g, fresh = genus2_separating_graph(), genus2_separating_graph()
    coloring = equivalence_report(g).coloring
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert g.to_json_dict() == fresh.to_json_dict()
    assert pickle.loads(pickle.dumps(g)) == g
    assert pickle.loads(pickle.dumps(coloring)) == coloring
    # the integer form: carried by a pickle, and built anew by replace
    assert g._columns == (("H1", "H2"), (0,), (1,))
    assert pickle.loads(pickle.dumps(g))._columns == g._columns
    swapped = dataclasses.replace(g, edges=(HypersurfaceComponent("Z0", "H2", "H1"),))
    assert swapped._columns == (("H1", "H2"), (1,), (0,))
    assert "_two_color" not in vars(swapped)


def _shuffled(g: BGraph, rng) -> BGraph:
    """g with its region and edge records in a random order."""
    regions, edges = list(g.regions), list(g.edges)
    rng.shuffle(regions)
    rng.shuffle(edges)
    return BGraph(tuple(regions), tuple(edges), g.ambient_dim, g.orientable)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_routes_read_sorted_labels_not_record_order(seed):
    """Both routes and the report depend on the labels, not on the order of
    the records: a search that started from the first record, not from the
    smallest label, would give some component the opposite signs."""
    rng = np.random.default_rng(seed)
    g = random_bgraph(rng)
    h = _shuffled(g, rng)
    for route in (two_color, lambda x: gauge_solvable(SignGluing(x), x)):
        a, b = route(g), route(h)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.to_json_dict() == b.to_json_dict()
    assert equivalence_report(h).to_json_dict() == equivalence_report(g).to_json_dict()
