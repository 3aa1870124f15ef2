"""Acceptance suite.

Each test covers one advertised behavior of the package and prints a single
PASS/FAIL line, so `pytest tests/test_acceptance.py -v -s` doubles as a
checklist.  Tolerances are stated inline; combinatorial results are exact.
"""
import math
import time

import numpy as np
import pytest

from btangent import (
    EdgeVerdict,
    EvenDimensionError,
    b_euler_number,
    b_frame_index,
    classify_bm,
    default_center,
    degree_integral,
    degree_preimage,
    edge_obstruction,
    euler_report,
    homotopy_endpoints,
    load_manifold,
    named_b_field,
    named_field,
    north_pole,
    pole_map,
    pole_map_differential,
    reflection,
    sphere_equator_graph,
    sphere_height_example,
    tangent_frame,
    two_color,
    verify_poincare_hopf,
    winding_index,
)
from btangent.manifold_io import bundled_path

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


def _verdict(number: int, label: str, ok: bool) -> None:
    print(f"acceptance {number:02d} {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"acceptance {number:02d} failed: {label}"


def test_01_sphere_equator_euler_numbers():
    g = load_manifold(bundled_path("sphere_equator"))
    report = euler_report(g)  # warm up
    start = time.perf_counter()
    report = euler_report(g)
    elapsed = time.perf_counter() - start
    ok = report.b_euler == 0 and report.classical_euler == 2 and elapsed < 1e-3
    _verdict(1, "equator-split sphere: rescaled Euler 0, classical 2, under 1 ms", ok)


def test_02_circle_criterion_parity():
    ok = all(
        circle_criterion(k) == (k % 2 == 0) == (two_color(circle_graph(k)) is not None)
        for k in range(21)
    )
    _verdict(2, "circle with k marked points trivializes iff k is even (k = 0..20)", ok)


def test_03_non_colorable_witness_and_brute_force():
    ok = two_color(torus_loop_graph()) is None
    rng = np.random.default_rng(42)
    graphs = [
        torus_loop_graph(),
        sphere_equator_graph(),
        genus2_separating_graph(),
        empty_z_sphere_graph(),
        two_annuli_torus_graph(),
    ] + [circle_graph(k) for k in range(9)] + [
        random_bgraph(rng, max_regions=12) for _ in range(40)
    ]
    for g in graphs:
        assert len(g.regions) <= 12
        ok = ok and (brute_force_two_colorable(g) is not None) == (two_color(g) is not None)
    _verdict(3, "loop graph is not two-colorable; solver matches exhaustion (<= 12 regions)", ok)


def test_04_order_m_rescaling_parity():
    ok = all(
        classify_bm(m).value
        == ("TangentEquivalent" if m % 2 == 0 else "BTangentEquivalent")
        for m in range(1, 51)
    )
    _verdict(4, "order-m rescaled bundle class depends only on parity (m = 1..50)", ok)


def test_05_planar_family_indices():
    ok = True
    timings = []
    for delta, want in ((0.1, 1), (0.5, 1), (1.0, 1), (-0.1, -1), (-0.5, -1), (-1.0, -1)):
        start = time.perf_counter()
        # radius below min |delta| keeps the second zero of the family outside
        res = winding_index(named_field("x_delta", delta), default_center("x_delta", delta), 0.05)
        timings.append(time.perf_counter() - start)
        ok = ok and res.index == want
    start = time.perf_counter()
    ok = ok and winding_index(named_field("x0_degenerate", 0.0), (0.0, 0.0), 0.1).index == 0
    timings.append(time.perf_counter() - start)
    start = time.perf_counter()
    ok = ok and b_frame_index(named_b_field("x0_degenerate", 0.0), (0.0, 0.0), 0.1).index == 1
    timings.append(time.perf_counter() - start)
    ok = ok and max(timings) < 0.05
    _verdict(5, "x-rescaled family: index sign(delta), degenerate 0, frame +1, each < 50 ms", ok)


def test_06_sphere_map_degree_both_routes():
    ok = [degree_preimage(n) for n in (2, 4, 6)] == [2, 2, 2]
    ok = ok and [degree_preimage(n) for n in (3, 5, 7)] == [0, 0, 0]
    start = time.perf_counter()
    for n in range(2, 7):
        target = float(degree_preimage(n))
        for seed in (0, 1, 2):
            value = degree_integral(n, samples=200_000, seed=seed)
            ok = ok and abs(value - target) < 0.1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(6, "pole-map degree: exact count 2/0 by parity, integral within 0.1, < 30 s", ok)


def test_07_differential_against_finite_differences():
    rng = np.random.default_rng(2026)
    eps = 1e-5
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for _ in range(200):
            q = rng.normal(size=n)
            q /= np.linalg.norm(q)
            v = rng.normal(size=n)
            v -= (v @ q) * q
            v /= np.linalg.norm(v)
            plus = pole_map(math.cos(eps) * q + math.sin(eps) * v)
            minus = pole_map(math.cos(-eps) * q + math.sin(-eps) * v)
            fd = (plus - minus) / (2.0 * eps)
            worst = max(worst, float(np.max(np.abs(pole_map_differential(q, v) - fd))))
    ok = worst < 1e-6
    pole = north_pole(4)
    for v in tangent_frame(pole):
        dev = np.max(np.abs(pole_map_differential(pole, v) + 2.0 * v))
        ok = ok and dev <= 1e-12
    _verdict(7, "pole-map differential: matches finite differences (1e-6); -2*id at the pole", ok)


def test_08_null_homotopy_odd_only():
    ok = homotopy_endpoints(3, grid=50).passed
    ok = ok and homotopy_endpoints(5, grid=50).passed
    refused = False
    try:
        homotopy_endpoints(4, grid=50)
    except EvenDimensionError:
        refused = True
    _verdict(8, "null homotopy verifies for n = 3, 5 and refuses n = 4", ok and refused)


def test_09_index_sum_cross_validation():
    kit = sphere_height_example()
    g = kit["graph"]
    coloring = two_color(g)
    report = verify_poincare_hopf(
        kit["zeros"], g, coloring, kit["fields"],
        radius=0.1, critical_distance=kit["critical_distance"],
    )
    indices = [z.index for z in report.zeros]
    ok = (
        indices == [1, 1]
        and report.colored_sum == 0 == report.b_euler
        and report.unsigned_sum == 2 == report.classical_euler
        and report.passed
    )
    _verdict(9, "height field on the sphere: pole indices +1, colored sum 0, plain sum 2", ok)


def test_10_edge_structures():
    ok = edge_obstruction(torus_loop_graph(), 2, 1) is EdgeVerdict.OBSTRUCTED
    ok = ok and edge_obstruction(sphere_equator_graph(), 2, 0) is EdgeVerdict.INCONCLUSIVE
    _verdict(10, "edge case: odd codimension obstructed, point fibre inconclusive", ok)


def test_11_invariant_suites():
    ok = True
    rng = np.random.default_rng(7)
    # coloring negation stays proper; b-Euler flips sign with it
    graphs = [sphere_equator_graph(), genus2_separating_graph(), two_annuli_torus_graph()]
    graphs += [random_bgraph(rng, max_regions=10, loop_prob=0.0) for _ in range(20)]
    for g in graphs:
        c = two_color(g)
        if c is None:
            continue
        ok = ok and c.negate().is_proper(g)
        ok = ok and b_euler_number(g, c.negate()) == -b_euler_number(g, c)
    # winding index does not depend on the contour radius
    for name, delta, center in (
        ("radial", 0.0, (0.0, 0.0)),
        ("saddle", 0.0, (0.0, 0.0)),
        ("x_delta", 0.5, (0.5, 0.0)),
    ):
        values = {
            winding_index(named_field(name, delta), center, r).index
            for r in (0.05, 0.1, 0.2, 0.4)
        }
        ok = ok and len(values) == 1
    # pole map lands on the unit sphere and is even; reflections are involutions
    for n in range(2, 9):
        for _ in range(60):
            q = rng.normal(size=n)
            q /= np.linalg.norm(q)
            image = pole_map(q)
            ok = ok and abs(np.linalg.norm(image) - 1.0) <= 1e-12
            ok = ok and np.array_equal(pole_map(-q), image)
            r = reflection(q)
            ok = ok and np.max(np.abs(r @ r - np.eye(n))) <= 1e-12
            ok = ok and abs(np.linalg.det(r) + 1.0) <= 1e-10
    _verdict(11, "invariants: negation, sign equivariance, radius, unit/even map, involutions", ok)
