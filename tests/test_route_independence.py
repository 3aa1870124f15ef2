"""Each pair of dual routes computes its answer without calling its partner."""
import corpus
from btangent import bgraph, obstructions, spheremap


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
    assert not _names(spheremap._pullback_density) & preimage_route
    assert "degree_integral" not in _names(spheremap.degree_preimage)
    assert "gauge_solvable" not in _names(obstructions.two_color)
    assert "two_color" not in _names(obstructions.gauge_solvable)
    assert "_canonical_coloring" not in _names(obstructions.gauge_solvable)


def test_surface_oracles_stay_apart_from_the_kernel():
    """The test oracles share nothing with the components kernel.

    The region count and orientability oracles in tests/corpus.py use their
    own union-find; the kernel's callers keep no Python search queue.
    """
    kernel = {"_components", "_half_edges"}
    assert not _names(corpus.region_count_oracle) & kernel
    assert not _names(corpus.orientable_oracle) & kernel
    for func in (bgraph._orientable, bgraph._region_numbers, bgraph._z_cycles):
        code = func.__code__
        assert "_components" in code.co_names
        assert not {"queue", "append", "popleft"} & set(code.co_names + code.co_varnames)
