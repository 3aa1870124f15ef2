import numpy as np
import pytest

from btangent import (
    BGraph,
    Coloring,
    ImproperColoringError,
    NotColorableError,
    OddDimensionError,
    Region,
    b_euler_number,
    classical_euler_number,
    euler_report,
    sphere_equator_graph,
    two_color,
)
from corpus import (
    empty_z_sphere_graph,
    genus2_separating_graph,
    random_bgraph,
    torus_loop_graph,
    two_annuli_torus_graph,
)


def test_sphere_equator_values():
    report = euler_report(sphere_equator_graph())
    assert report.b_euler == 0
    assert report.classical_euler == 2


def test_genus2_separating_values():
    report = euler_report(genus2_separating_graph())
    assert report.b_euler == 0
    assert report.classical_euler == -2


def test_two_annuli_torus_values():
    report = euler_report(two_annuli_torus_graph())
    assert report.b_euler == 0
    assert report.classical_euler == 0


def test_empty_z_degenerates_to_classical():
    report = euler_report(empty_z_sphere_graph())
    assert report.b_euler == report.classical_euler == 2
    assert report.coloring_used.to_json_dict() == {"M": 1}


def test_sign_equivariance():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 25:
        g = random_bgraph(rng)
        c = two_color(g)
        if c is None:
            continue
        assert b_euler_number(g, c.negate()) == -b_euler_number(g, c)
        checked += 1


def test_parity_matches_classical():
    # the signed and unsigned sums differ by twice the negative part
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 25:
        g = random_bgraph(rng)
        c = two_color(g)
        if c is None:
            continue
        assert (b_euler_number(g, c) - classical_euler_number(g)) % 2 == 0
        checked += 1


def test_improper_coloring_rejected():
    g = sphere_equator_graph()
    with pytest.raises(ImproperColoringError):
        b_euler_number(g, Coloring({"B+": 1, "B-": 1}))
    with pytest.raises(ImproperColoringError):
        b_euler_number(g, Coloring({"B+": 1}))
    # a loop edge admits no proper coloring at all
    with pytest.raises(ImproperColoringError):
        b_euler_number(torus_loop_graph(), Coloring({"T": 1}))


def test_odd_dimension_refused():
    g = BGraph((Region("A", 1),), (), ambient_dim=3)
    with pytest.raises(OddDimensionError):
        b_euler_number(g, Coloring({"A": 1}))
    with pytest.raises(OddDimensionError):
        euler_report(g)


def test_classical_requires_even_dimension():
    g = BGraph((Region("A", 1), Region("B", 1)), (), ambient_dim=4)
    assert classical_euler_number(g) == 2
    with pytest.raises(OddDimensionError):
        classical_euler_number(BGraph((Region("A", 1),), (), ambient_dim=3))
    assert classical_euler_number(empty_z_sphere_graph()) == 2


def test_not_colorable_refused():
    with pytest.raises(NotColorableError):
        euler_report(torus_loop_graph())
