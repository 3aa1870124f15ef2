"""Obstruction theory for tangent bundles rescaled along a critical hypersurface.

Given a closed manifold with a marked critical hypersurface, the package
decides when the rescaled tangent bundle is isomorphic to the ordinary one
(a two-colorability question on the region graph), computes the rescaled
Euler number and verifies it against winding-number index sums, and works
out the sphere case explicitly through the degree of the reflection-valued
gluing map.
"""

__version__ = "0.1.0"

# `import btangent` loads no submodule: the first public name asked of the
# package, its __all__ or dir() loads all seven (PEP 562), and numpy loads
# only inside the functions that use it
_MODULES = ("bgraph", "errors", "manifold_io", "obstructions", "spheremap", "surface",
            "windex")


def _load() -> None:
    """Import the seven modules and bind here the names each lists in its __all__."""
    from importlib import import_module

    public = []
    for name in _MODULES:
        module = import_module(f"{__name__}.{name}")
        globals().update((key, getattr(module, key)) for key in module.__all__)
        public += module.__all__
    globals()["__all__"] = public


def __getattr__(name: str):
    if name == "__all__" or not name.startswith("_"):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _load()
    return sorted(globals())
