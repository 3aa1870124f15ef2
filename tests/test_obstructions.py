from dataclasses import fields

import numpy as np
import pytest

from btangent import (
    BGraph,
    BmClass,
    EdgeVerdict,
    HypersurfaceComponent,
    InconsistentGluingError,
    NotOrientableError,
    Region,
    SignGluing,
    circle_criterion,
    circle_graph,
    classify_bm,
    edge_obstruction,
    equivalence_report,
    gauge_solvable,
    parse_manifold,
    sphere_equator_graph,
    two_color,
)
from corpus import (
    brute_force_two_colorable,
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
    assert [f.name for f in fields(SignGluing)] == ["graph"]
    for other in (circle_graph(2), torus_loop_graph(),
                  BGraph(g.regions, g.edges, ambient_dim=3)):
        with pytest.raises(InconsistentGluingError):
            gauge_solvable(SignGluing.canonical(other), g)
    rebuilt = parse_manifold({"graph": g.to_json_dict()})
    assert rebuilt is not g
    assert gauge_solvable(SignGluing.canonical(rebuilt), g).to_json_dict() == {"B+": 1, "B-": -1}


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
