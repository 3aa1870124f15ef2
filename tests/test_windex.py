import json
import math

import numpy as np
import pytest

from btangent import (
    BGraph,
    BPlaneField,
    ChartZero,
    Coloring,
    HypersurfaceComponent,
    ImproperColoringError,
    InvalidArgumentError,
    NonConvergentError,
    NotColorableError,
    OddDimensionError,
    ZeroOnContourError,
    ZeroOnCriticalSetError,
    b_euler_number,
    b_frame_index,
    default_center,
    default_radius,
    field_index,
    named_b_field,
    named_field,
    sphere_height_example,
    two_color,
    verify_poincare_hopf,
    winding_index,
)
from btangent.cli import main
from corpus import crossing_winding, empty_z_sphere_graph


def test_radial_and_saddle():
    assert winding_index(named_field("radial"), (0, 0), 1.0).index == 1
    assert winding_index(named_field("saddle"), (0, 0), 1.0).index == -1


@pytest.mark.parametrize("delta,expected", [(0.5, 1), (-0.5, -1), (1.0, 1), (-1.0, -1)])
def test_x_delta_indices(delta, expected):
    f = named_field("x_delta", delta)
    res = winding_index(f, (delta, 0.0), 0.1)
    assert res.index == expected
    assert res.max_step_radians < math.pi / 2
    assert crossing_winding(f, (delta, 0.0), 0.1) == expected


@pytest.mark.parametrize("lookup", [named_field, named_b_field, default_center, default_radius])
@pytest.mark.parametrize("name", ["bogus", None, ["x_delta"]], ids=["bogus", "None", "list"])
def test_every_lookup_refuses_an_unknown_name(lookup, name):
    with pytest.raises(InvalidArgumentError) as exc:
        lookup(name)
    assert str(exc.value) == f"unknown field {name!r}"


def test_a_known_field_without_a_rescaled_frame_is_named():
    with pytest.raises(InvalidArgumentError) as exc:
        named_b_field("sphere_height_b")
    assert str(exc.value) == "no rescaled frame for field 'sphere_height_b'"


def test_x0_degenerate_honest_index_zero():
    f = named_field("x0_degenerate")
    assert winding_index(f, (0.0, 0.0), 0.1).index == 0
    assert crossing_winding(f, (0.0, 0.0), 0.1) == 0


def test_x0_degenerate_frame_index_one():
    bf = named_b_field("x0_degenerate")
    assert b_frame_index(bf, (0.0, 0.0), 0.1).index == 1


def test_frame_index_off_critical_line():
    # a = x^2 - 1 vanishes on x = +-1; near (1, 0) the frame field looks radial
    bf = BPlaneField(a=lambda x, y: x * x - 1.0, b=lambda x, y: y)
    res = b_frame_index(bf, (1.0, 0.0), 0.1)
    assert res.index == 1
    assert crossing_winding(bf.frame(), (1.0, 0.0), 0.1) == 1


def test_honest_vs_frame_sign_relation():
    # at a zero in {x > 0} the honest and frame indices agree; in {x < 0}
    # they differ by the region sign
    for delta in (0.3, 0.8):
        bf = named_b_field("x_delta", delta)
        honest = winding_index(bf.honest(), (delta, 0.0), 0.1).index
        frame = b_frame_index(bf, (delta, 0.0), 0.1).index
        assert honest == frame == 1
    for delta in (-0.3, -0.8):
        bf = named_b_field("x_delta", delta)
        honest = winding_index(bf.honest(), (delta, 0.0), 0.1).index
        frame = b_frame_index(bf, (delta, 0.0), 0.1).index
        assert frame == 1 and honest == -frame


def test_negation_preserves_index():
    for name, center in (("radial", (0, 0)), ("saddle", (0, 0)), ("x_delta", (0.5, 0))):
        f = named_field(name, 0.5)
        neg = lambda x, y: tuple(-c for c in f(x, y))
        assert winding_index(neg, center, 0.1).index == winding_index(f, center, 0.1).index


def test_radius_independence():
    f = named_field("x_delta", 0.5)
    assert winding_index(f, (0.5, 0), 0.1).index == winding_index(f, (0.5, 0), 0.05).index


@pytest.mark.parametrize("field,center,radius", [
    (named_field("radial"), (0.0, 0.0), math.nan),
    (named_field("radial"), (0.0, 0.0), math.inf),
    (named_field("radial"), (0.0, 0.0), 0.0),
    (named_field("radial"), (math.nan, 0.0), 0.1),
    (named_field("radial"), (0.0, -math.inf), 0.1),
    ((lambda x, y: (math.nan, y)), (0.0, 0.0), 0.1),
    ((lambda x, y: (math.inf, y)), (0.0, 0.0), 0.1),
    pytest.param(lambda x, y: 1.0, (0.0, 0.0), 0.1, id="field value a float"),
    pytest.param(lambda x, y: (1.0, 2.0, 3.0), (0.0, 0.0), 0.1, id="field value of 3 reals"),
    pytest.param(lambda x, y: (1j, 1.0), (0.0, 0.0), 0.1, id="complex field value"),
    pytest.param(lambda x, y: ("a", "b"), (0.0, 0.0), 0.1, id="field value of strings"),
    pytest.param(lambda x, y: (True, 0.0), (0.0, 0.0), 0.1, id="bool field value"),
    pytest.param(lambda x, y: (10**400, 0.0), (0.0, 0.0), 0.1, id="field value past float"),
    (named_field("radial"), (0.0, 0.0), True),
    (named_field("radial"), (True, 0.0), 0.1),
    pytest.param(named_field("radial"), (0.0, 0.0), 10**400, id="radius past float"),
    pytest.param(named_field("radial"), (0.0, 10**400), 0.1, id="center past float"),
])
def test_bad_contour_or_field_value_rejected(field, center, radius):
    with pytest.raises(InvalidArgumentError):
        winding_index(field, center, radius)


def test_a_field_value_that_is_not_two_reals_is_named():
    with pytest.raises(InvalidArgumentError) as exc:
        winding_index(lambda x, y: 1.0, (0, 0), 1)
    assert str(exc.value) == ("field is not two reals at sample 0/64 on the contour "
                              "(center (0.0, 0.0), radius 1.0)")


@pytest.mark.parametrize("center", [(0.5, 0.0), [0.5, 0.0], np.array([0.5, 0.0]),
                                    np.array([0.5, 0.0], dtype=np.float32)],
                         ids=["tuple", "list", "array", "float32 array"])
def test_center_is_a_tuple_list_or_1d_array(center):
    # the field's one zero is (0.5, 0): a centre read as (0, 0.5) gives index 0
    result = winding_index(lambda x, y: (x - 0.5, y), center, 0.1)
    assert result.index == 1


def test_numpy_float_radius_gives_a_json_result():
    result = winding_index(named_field("radial"), (0.0, 0.0), np.float32(0.1))
    assert type(result.radius_used) is float
    assert json.loads(json.dumps(result.to_json_dict()))["radius_used"] == float(np.float32(0.1))


def test_numpy_float32_contour_is_sampled_in_double_precision():
    seen = set()

    def field(x, y):
        seen.update((type(x), type(y)))
        return (x, y)

    result = winding_index(field, (np.float32(0.0), np.float32(0.0)), np.float32(0.1))
    assert result.index == 1
    assert seen == {float}


def test_zero_on_contour_detected():
    # the first contour sample of f = (x - 1, y) around the origin at radius 1
    # lands exactly on the zero
    with pytest.raises(ZeroOnContourError):
        winding_index(lambda x, y: (x - 1.0, y), (0.0, 0.0), 1.0)


def test_contour_below_the_zero_tolerance_states_it():
    # x(x - delta) d/dx + y d/dy is at most delta^2 / 4 at (delta / 2, 0), which every
    # contour around (delta, 0) that leaves out the origin crosses
    for delta in (1e-6, 1.9e-6):
        with pytest.raises(ZeroOnContourError):
            winding_index(named_field("x_delta", delta), (delta, 0.0), delta / 2)
    with pytest.raises(ZeroOnContourError) as exc:
        winding_index(named_field("x_delta", 1e-6), (1e-6, 0.0), 5e-7)
    assert str(exc.value) == ("|field| = 7.5e-13 is within the zero tolerance 1e-12 at sample "
                              "0/64 on the contour (center (1e-06, 0.0), radius 5e-07)")
    assert winding_index(named_field("x_delta", 2.1e-6), (2.1e-6, 0.0), 1.05e-6).index == 1


@pytest.mark.parametrize("center, radius", [((1e308, 0.0), 0.1), ((0.0, 1e16), 0.5),
                                            ((1.0, 1.0), 1e-17)])
def test_a_contour_collapsed_onto_its_center_is_named(center, radius):
    # in at least one coordinate centre + radius rounds to the centre, so the
    # contour flattens; the field is never evaluated
    def field(x, y):
        raise AssertionError("field evaluated")

    with pytest.raises(InvalidArgumentError) as exc:
        winding_index(field, center, radius)
    assert str(exc.value) == (f"radius {radius} vanishes against center {center} in double "
                              "precision: the contour collapses onto its center")


def test_non_convergent_angle_jump():
    # angle jumps by pi across x = 0; no sample count resolves that
    def jumpy(x, y):
        s = 1.0 if x >= 0 else -1.0
        return (s, -s)

    with pytest.raises(NonConvergentError):
        winding_index(jumpy, (0.0, 0.0), 1.0)


def test_refinement_reported():
    # eccentric contour around a linear zero needs more than 64 samples
    f = lambda x, y: (1000.0 * x - 500.0 * y, y)
    res = winding_index(f, (0.0, 0.0), 1.0)
    assert res.index == 1
    assert res.samples_used > 64
    assert res.max_step_radians < math.pi / 2


def test_sphere_verification_passes():
    kit = sphere_height_example()
    g = kit["graph"]
    coloring = two_color(g)
    report = verify_poincare_hopf(
        kit["zeros"], g, coloring, kit["fields"],
        critical_distance=kit["critical_distance"],
    )
    assert [z.index for z in report.zeros] == [1, 1]
    assert report.colored_sum == 0 == report.b_euler
    assert report.unsigned_sum == 2 == report.classical_euler
    assert report.passed


def test_sphere_verification_detects_missing_zero():
    kit = sphere_height_example()
    g = kit["graph"]
    coloring = two_color(g)
    report = verify_poincare_hopf(
        kit["zeros"][:1], g, coloring, kit["fields"],
        critical_distance=kit["critical_distance"],
    )
    assert not report.passed


def test_zero_on_critical_set_rejected():
    kit = sphere_height_example()
    g = kit["graph"]
    coloring = two_color(g)
    bad = (ChartZero("north", (1.0, 0.0), "B+"),)
    with pytest.raises(ZeroOnCriticalSetError):
        verify_poincare_hopf(
            bad, g, coloring, kit["fields"],
            critical_distance=kit["critical_distance"],
        )


@pytest.mark.parametrize("zeros, radius", [
    (None, True),
    (None, -1.0),
    ((), -1.0),
    ((), math.nan),
], ids=["bool radius, sphere zeros", "negative radius, sphere zeros",
        "negative radius, no zeros", "nan radius, no zeros"])
def test_radius_checked_before_any_zero(zeros, radius):
    """A bad radius is one error whatever the zero list: it is not met first
    as a zero too near the critical set, nor missed when there is no zero."""
    kit = sphere_height_example()
    g = kit["graph"]
    calls = []
    with pytest.raises(InvalidArgumentError, match="radius must be finite and positive"):
        verify_poincare_hopf(
            kit["zeros"] if zeros is None else zeros, g, two_color(g),
            _recording_fields(kit, calls), radius=radius,
            critical_distance=kit["critical_distance"],
        )
    assert calls == []


def _recording_fields(kit, calls):
    """The sphere kit's charts, with every evaluation appended to calls."""
    def field(x, y):
        calls.append((x, y))
        return kit["fields"]["north"](x, y)

    return {"north": field, "south": field}


@pytest.mark.parametrize("bad", [
    ChartZero("north", (0.0, 0.0), "B?"),
    ChartZero("east", (0.0, 0.0), "B+"),
])
def test_zero_naming_unknown_region_or_chart_rejected(bad):
    kit = sphere_height_example()
    g = kit["graph"]
    calls = []
    fields = _recording_fields(kit, calls)
    with pytest.raises(InvalidArgumentError):
        verify_poincare_hopf(kit["zeros"] + (bad,), g, two_color(g), fields)
    assert calls == []


def test_graph_without_coloring_rejected_before_any_index():
    kit = sphere_height_example()
    g = kit["graph"]
    looped = BGraph(g.regions, g.edges + (HypersurfaceComponent("Z1", "B+", "B+"),))
    assert two_color(looped) is None
    calls = []
    fields = _recording_fields(kit, calls)
    with pytest.raises(NotColorableError):
        verify_poincare_hopf(kit["zeros"], looped, two_color(looped), fields)
    assert calls == []


@pytest.mark.parametrize("odd_dim, coloring, error", [
    (False, Coloring({"B+": 1, "B-": 1}), ImproperColoringError),
    (True, Coloring({"B+": 1, "B-": -1}), OddDimensionError),
], ids=["improper coloring", "odd dimension"])
def test_coloring_and_dimension_checked_before_any_index(odd_dim, coloring, error):
    kit = sphere_height_example()
    g = kit["graph"]
    if odd_dim:
        g = BGraph(g.regions, g.edges, ambient_dim=3)
    calls = []
    fields = _recording_fields(kit, calls)
    with pytest.raises(error):
        verify_poincare_hopf(kit["zeros"], g, coloring, fields)
    assert calls == []


def test_empty_z_radial_from_poles():
    # plain sphere, no critical set: outward field in both stereographic
    # charts has one source per pole; all-plus coloring gives the classical count
    g = empty_z_sphere_graph()
    coloring = two_color(g)
    fields = {"north": named_field("radial"), "south": named_field("radial")}
    zeros = (
        ChartZero("north", (0.0, 0.0), "M"),
        ChartZero("south", (0.0, 0.0), "M"),
    )
    report = verify_poincare_hopf(zeros, g, coloring, fields)
    assert report.colored_sum == 2 == b_euler_number(g, coloring)
    assert report.passed


def test_field_index_refuses_an_x_delta_radius_that_reaches_the_origin():
    # winding_index on the same contour returns index 0 with no error: the
    # contour encloses the second zero at the origin too
    center = default_center("x_delta", 0.5)
    assert winding_index(named_field("x_delta", 0.5), center, 0.6).index == 0
    with pytest.raises(InvalidArgumentError) as exc:
        field_index("x_delta", 0.5, 0.6)
    assert str(exc.value) == ("radius 0.6 around (0.5, 0.0) reaches the critical line x = 0 and "
                              "the zero of x_delta at the origin: it must be below |delta| = 0.5")
    assert field_index("x_delta", 0.5, 0.4).index == 1


@pytest.mark.parametrize("frame", ["north", None, "B"])
def test_field_index_refuses_an_unknown_frame(frame):
    with pytest.raises(InvalidArgumentError, match="unknown frame"):
        field_index("saddle", frame=frame)


def _contour_by_parts(name: str, frame: str, delta: float = 0.0):
    """The default contour's index, composed from the public pieces."""
    center, radius = default_center(name, delta), default_radius(name, delta)
    if frame == "b":
        return b_frame_index(named_b_field(name, delta), center, radius)
    return winding_index(named_field(name, delta), center, radius)


@pytest.mark.parametrize("frame", ["honest", "b"])
@pytest.mark.parametrize("name, delta", [
    ("x_delta", 0.0), ("x_delta", 0.5), ("x_delta", -0.05), ("radial", 0.0), ("saddle", 0.0),
    ("x0_degenerate", 0.0), ("sphere_height_b", 0.0),
])
def test_field_index_is_the_index_subcommand(capsys, name, delta, frame):
    """Every (field, frame) pair at its default contour: field_index gives the
    composed index, and the CLI's JSON is that index with its inputs."""
    code = main(["index", name, "--delta", repr(delta), "--frame", frame])
    out, err = capsys.readouterr()
    try:
        expected = _contour_by_parts(name, frame, delta)
    except InvalidArgumentError as exc:  # sphere_height_b has no rescaled frame
        with pytest.raises(InvalidArgumentError) as refused:
            field_index(name, delta, frame=frame)
        assert str(refused.value) == str(exc)
        assert (code, out, err) == (1, "", f"error: {exc}\n")
        return
    assert field_index(name, delta, frame=frame) == expected
    assert (code, err) == (0, "")
    assert json.loads(out) == {"field": name, "frame": frame, "delta": delta,
                               "center": list(default_center(name, delta)),
                               **expected.to_json_dict()}
