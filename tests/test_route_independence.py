"""Each pair of dual routes computes its answer without calling its partner."""
from btangent import obstructions, spheremap


def _names(func):
    return set(func.__code__.co_names)


def test_dual_routes_name_no_shared_helper():
    """The two degree routes, and the two colorability routes, stay apart.

    Reads the global and attribute names in each function's own bytecode,
    so it only catches direct references: a shared helper reached through
    another function, a nested function or a local alias is not seen.
    """
    preimage_route = {"tangent_frame", "_tangent_frames", "pole_map_differential",
                      "degree_preimage", "_confirm_preimage_isolation"}
    assert not _names(spheremap.degree_integral) & preimage_route
    assert "degree_integral" not in _names(spheremap.degree_preimage)
    assert "gauge_solvable" not in _names(obstructions.two_color)
    assert "two_color" not in _names(obstructions.gauge_solvable)
