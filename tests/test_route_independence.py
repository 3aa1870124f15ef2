"""Each pair of dual routes computes its answer without calling its partner.

One registry names every route pair with the only code both routes may
reach, the test oracles and the surface kernel they must stay clear of.
Reach is transitive: a function reaches every function and class its code
names through its module's globals, its nested functions included, and a
class reaches its methods and properties.  A name missing from the globals
(an attribute of a module, or a name imported inside the function) is
looked up in every btangent module.  The walk stays inside btangent and
tests/corpus.py.
"""
import inspect
import sys
import types

import corpus
from btangent import obstructions, spheremap, surface

# the registry.  answer: (its two routes, the only code both may reach)
ROUTE_PAIRS = {
    "colorability": ((obstructions.two_color, obstructions.gauge_solvable),
                     {"Coloring", "_sign", "_all_of", "_is_int", "InvalidArgumentError"}),
    "degree": ((spheremap.degree_preimage, spheremap.degree_integral),
               {"_as_int", "_is_int", "InvalidArgumentError", "UnsupportedDimensionError"}),
}
# the oracles in tests/corpus.py, and the surface kernel none of them may reach
ORACLES = (corpus.region_count_oracle, corpus.orientable_oracle,
           corpus.region_orientable_oracle, corpus.edge_table_oracle, corpus.closure_chi_oracle)
KERNEL = {"_half_edges", "_sorted_keys", "_components", "_z_cycles", "_numbered", "_cover_regions",
          "_closure_eulers", "_surface_graph"}


def _ours(obj) -> bool:
    module = getattr(obj, "__module__", None) or ""
    return module == "corpus" or module.split(".")[0] == "btangent"


def _reached(entry, stop=frozenset()) -> set:
    """The qualified names of the functions and classes entry reaches;
    a name in stop is reached but not walked into."""
    modules = [vars(m) for name, m in list(sys.modules.items())
               if name.split(".")[0] == "btangent" and isinstance(m, types.ModuleType)]
    seen = {}
    todo = [entry]
    while todo:
        obj = todo.pop()
        if isinstance(obj, property):
            todo += [f for f in (obj.fget, obj.fset, obj.fdel) if f is not None]
            continue
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if not (inspect.isclass(obj) or inspect.isfunction(obj)) or not _ours(obj) \
                or obj in seen:
            continue
        seen[obj] = obj.__qualname__
        if obj.__qualname__ in stop:
            continue
        if inspect.isclass(obj):
            todo += vars(obj).values()
            continue
        codes = [obj.__code__]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            for n in code.co_names:
                found = [obj.__globals__] if n in obj.__globals__ else modules
                todo += [scope[n] for scope in found if n in scope]
    return set(seen.values())


def _names(func):
    return set(func.__code__.co_names)


def test_dual_routes_share_only_allowed_code():
    for answer, ((first, second), allowed) in ROUTE_PAIRS.items():
        a, b = _reached(first, allowed), _reached(second, allowed)
        assert second.__name__ not in a and first.__name__ not in b, answer
        assert a & b <= allowed, (answer, sorted(a & b - allowed))


def test_each_route_keeps_to_its_own_code():
    """Each route reaches its own helpers and none of its partner's; the
    colorability routes read the graph only through its integer form."""
    assert not _reached(spheremap.degree_integral) & {"tangent_frame", "pole_map_differential",
                                                      "degree_preimage"}
    assert "_pullback_density" in _reached(spheremap.degree_integral)
    assert "_canonical_coloring" not in _reached(obstructions.gauge_solvable)
    for route in (obstructions.two_color, obstructions.gauge_solvable):
        assert "_columns" in _names(route)
        assert not _names(route) & {"side_a", "side_b", "edges", "region_labels"}


def test_the_walk_follows_calls_methods_and_nested_code():
    """The walk sees what a direct-name check missed, and stops where told."""
    assert {"Coloring.__post_init__", "_sign"} <= _reached(obstructions.two_color)
    assert "Coloring.__post_init__" not in _reached(obstructions.two_color, {"Coloring"})
    assert "UnionFind.find" in _reached(corpus.region_count_oracle)
    assert KERNEL <= _reached(surface.build_graph_from_surface)


def test_graph_oracles_never_read_the_columns():
    """The oracles in tests/corpus.py read a graph through its public
    records, never through the integer form both routes share; the whole
    source is searched, so nested functions and aliases are covered too."""
    assert "_columns" not in inspect.getsource(corpus)


def test_surface_oracles_stay_apart_from_the_kernel():
    """The test oracles share nothing with the components kernel.

    The region count, orientability, per-region orientability and closure
    chi oracles in tests/corpus.py use their own union-finds, and the edge
    table oracle its own dict; the kernel's callers keep no Python search
    queue.
    """
    for oracle in ORACLES:
        assert not _reached(oracle) & KERNEL, oracle.__name__
    for func in (surface._cover_regions, surface._z_cycles):
        code = func.__code__
        assert "_components" in code.co_names
        assert not {"queue", "append", "popleft"} & set(code.co_names + code.co_varnames)
