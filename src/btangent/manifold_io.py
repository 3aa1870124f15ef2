"""Reading region graphs and marked surfaces from JSON documents.

A manifold document carries exactly one of two top-level keys:

    {"graph":   {"regions": [{"label": ..., "chi": ...}, ...],
                 "edges":   [{"label": ..., "a": ..., "b": ...}, ...],
                 "ambient_dim": int, "orientable": bool}}

    {"surface": {"vertices": int,
                 "triangles": [[i, j, k], ...],
                 "z_edges":   [[i, j], ...]}}

Schema violations are reported with the JSON-pointer path of the offending
element.  Only the JSON shape of a document is checked here.  The graph and
the surface rows are checked by the constructors' own checks, and their
message is reported at the defect's pointer.

A graph document is read as columns, one pass per key across the entries
(``_key_columns``), and its graph is built from them with no record; the
entries are walked only to name one that is not an object or lacks a key.

``load_manifold`` first tries the numeric reader ``surface._read_rows``,
which reads a surface's row arrays straight from the text into int64
arrays; what it reads, and why its result is that of
``parse_manifold(json.loads(text))``, is stated once, in its docstring.
"""
from __future__ import annotations

import json
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

from .bgraph import BGraph
from .errors import InvalidArgumentError, ManifoldFormatError, _is_int

__all__ = ["BUNDLED_NAMES", "bundled_path", "load_manifold", "parse_manifold"]

BUNDLED_NAMES = (
    "sphere_equator",
    "torus_loop",
    "circle_3_points",
    "circle_4_points",
    "genus2_separating",
)


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled example manifold."""
    if name.endswith(".json"):
        name = name[: -len(".json")]
    if name not in BUNDLED_NAMES:
        raise KeyError(f"no bundled manifold {name!r}; have {', '.join(BUNDLED_NAMES)}")
    return Path(__file__).with_name("data") / f"{name}.json"


def _need(obj: dict, key: str, kind: type, pointer: str) -> Any:
    """obj[key], present and of kind; int means the package's integer rule."""
    if key not in obj:
        raise ManifoldFormatError(f"missing required key {key!r}", pointer)
    value = obj[key]
    if _is_int(type(value)) if kind is int else isinstance(value, kind):
        return int(value) if kind is int else value
    name = "an integer" if kind is int else f"a {kind.__name__}"
    raise ManifoldFormatError(f"{key!r} must be {name}", f"{pointer}/{key}")


def _key_columns(raw: list, keys: Tuple[str, ...], pointer: str, what: str) -> List[tuple]:
    """The values under each of keys, one column per key across the entries
    of raw: one itemgetter pass per key, in C.  The entries are walked only
    to name the first that is not an object or lacks a key."""
    try:
        return [tuple(map(itemgetter(key), raw)) for key in keys]
    except (KeyError, TypeError):  # an entry without a key, or not an object
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ManifoldFormatError(f"{what} must be an object", f"{pointer}/{i}")
            for key in keys:
                _need(entry, key, object, f"{pointer}/{i}")
        raise


def _read_graph(doc: dict, pointer: str) -> Tuple[Callable[..., BGraph], tuple]:
    """The builder of a graph document's region graph, and its record-order
    columns; only the document's JSON shape is checked here."""
    regions_raw = _need(doc, "regions", list, pointer)
    edges_raw = _need(doc, "edges", list, pointer)
    ambient = _need(doc, "ambient_dim", object, pointer)
    orientable = _need(doc, "orientable", object, pointer)
    columns = (*_key_columns(regions_raw, ("label", "chi"), f"{pointer}/regions", "region"),
               *_key_columns(edges_raw, ("label", "a", "b"), f"{pointer}/edges", "edge"))
    return partial(_located, pointer, BGraph._of_columns), (*columns, ambient, orientable)


def _located(pointer: str, check, *args):
    """check(*args), with the InvalidArgumentError of a constructor's check
    reported at pointer plus the path of its defect."""
    try:
        return check(*args)
    except InvalidArgumentError as exc:
        raise ManifoldFormatError(str(exc), pointer + exc._path) from exc


def _read_surface(doc: dict, pointer: str, rows: Optional[tuple] = None
                  ) -> Tuple[Callable[..., BGraph], tuple]:
    """The surface kernel, and a surface document's vertex count and its
    rows as F x 3 and L x 2 int64 arrays: the JSON lists' as
    ``surface._vertex_arrays`` checks and converts them, or the ``rows``
    that the numeric reader read, for which doc holds ``[]`` stand-ins."""
    from .surface import _surface_graph, _vertex_arrays

    vertices = _need(doc, "vertices", int, pointer)
    triangles_raw = _need(doc, "triangles", list, pointer)
    z_raw = _need(doc, "z_edges", list, pointer) if "z_edges" in doc else []
    if rows is None:
        rows = _located(pointer, _vertex_arrays, triangles_raw, z_raw)
    return _surface_graph, (vertices, *rows)


def _read(doc: Any, rows: Optional[tuple] = None) -> Tuple[Callable[..., BGraph], tuple]:
    """Check a parsed manifold document; return the builder of its region
    graph and the builder's arguments, which hold no part of the document
    that the builder does not keep, so that a caller can let the document
    go before the graph is built.  The document is not changed.  ``rows``
    are the surface's triangles and marked edges when ``_read_rows`` read
    them, and stand in for its lists."""
    if not isinstance(doc, dict):
        raise ManifoldFormatError("document must be a JSON object", "/")
    keys = set(doc) & {"graph", "surface"}
    if len(keys) != 1:
        raise ManifoldFormatError(
            "document must contain exactly one of 'graph' or 'surface'", "/"
        )
    key = keys.pop()
    if not isinstance(doc[key], dict):
        raise ManifoldFormatError(f"{key!r} must be an object", f"/{key}")
    if key == "graph":
        return _read_graph(doc[key], "/graph")
    return _read_surface(doc[key], "/surface", rows)


def parse_manifold(doc: Any) -> BGraph:
    """Build a region graph from a parsed manifold document, which is left as it is."""
    build, args = _read(doc)
    return build(*args)


def load_manifold(path) -> BGraph:
    """Load a manifold JSON file into a region graph.

    The result and every error are those of
    ``parse_manifold(json.loads(text))``, whether the numeric reader
    ``surface._read_rows`` reads the text or declines it.  The text and the
    parsed document are let go before the graph is built, so the document
    and the surface kernel's arrays are never held at once.

    Raises:
        ManifoldFormatError: text that is not UTF-8, malformed or too deeply
            nested JSON, or a schema violation (with the JSON-pointer path of
            the problem).
        NonClosedSurfaceError / InvalidZError: structurally invalid surface.
        OSError: unreadable path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ManifoldFormatError(f"not UTF-8 text: {exc}", "/") from exc
    read = None
    # the reader's own first test, made before the surface code loads: a
    # graph document neither compiles nor runs it
    if '"triangles"' in text:
        from .surface import _read_rows

        read = _read_rows(text)
    if read is None:
        try:
            read = json.loads(text), None
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ManifoldFormatError(f"not valid JSON: {exc}", "/") from exc
    del text
    build, args = _read(*read)
    del read  # the graph is built without the document
    return build(*args)
