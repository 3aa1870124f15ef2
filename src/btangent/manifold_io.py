"""Reading region graphs and marked surfaces from JSON documents.

A manifold document carries exactly one of two top-level keys:

    {"graph":   {"regions": [{"label": ..., "chi": ...}, ...],
                 "edges":   [{"label": ..., "a": ..., "b": ...}, ...],
                 "ambient_dim": int, "orientable": bool}}

    {"surface": {"vertices": int,
                 "triangles": [[i, j, k], ...],
                 "z_edges":   [[i, j], ...]}}

Schema violations are reported with the JSON-pointer path of the offending
element.
"""
from __future__ import annotations

import json
from importlib import resources
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, List

from .bgraph import (
    BGraph,
    HypersurfaceComponent,
    Region,
    _bad_vertex,
    _surface_graph,
    _vertex_array,
)
from .errors import InvalidArgumentError, ManifoldFormatError, _is_int

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
    with resources.as_file(resources.files("btangent.data") / f"{name}.json") as p:
        return Path(p)


def _is_kind(t: type, kind: type) -> bool:
    return _is_int(t) if kind is int else issubclass(t, kind)


def _need(obj: dict, key: str, kind: type, pointer: str) -> Any:
    if key not in obj:
        raise ManifoldFormatError(f"missing required key {key!r}", pointer)
    value = obj[key]
    if _is_kind(type(value), kind):
        return int(value) if kind is int else value
    # a bool is named apart, as the one kind of JSON value that Python reads as an int
    name = "an integer" if kind is int and isinstance(value, bool) else kind.__name__
    raise ManifoldFormatError(f"{key!r} must be {name}", f"{pointer}/{key}")


def _columns(raw: list, kinds: Dict[str, type], pointer: str, what: str) -> List[tuple]:
    """The value under each key of kinds in every entry of raw, one tuple per key.

    Every entry must be an object that holds every key, with a value of
    that key's kind.  The usual check is passes over sets of types, which
    run in C; the entries are walked with ``_need`` only to raise at the
    first defect.
    """
    try:
        cols = [tuple(map(itemgetter(key), raw)) for key in kinds]
    except (KeyError, TypeError):  # an entry without a key, or not an object
        cols = None
    if (cols is None or not set(map(type, raw)) <= {dict}
            or not all(_is_kind(t, kind) for col, kind in zip(cols, kinds.values())
                       for t in set(map(type, col)))):
        for i, entry in enumerate(raw):
            p = f"{pointer}/{i}"
            if not isinstance(entry, dict):
                raise ManifoldFormatError(f"{what} must be an object", p)
            for key, kind in kinds.items():
                _need(entry, key, kind, p)
    return cols


def _parse_graph(doc: dict, pointer: str) -> BGraph:
    """Build a region graph from a graph document."""
    regions_raw = _need(doc, "regions", list, pointer)
    edges_raw = _need(doc, "edges", list, pointer)
    ambient = _need(doc, "ambient_dim", int, pointer)
    orientable = _need(doc, "orientable", bool, pointer)

    cols = _columns(regions_raw, {"label": str, "chi": int}, f"{pointer}/regions", "region")
    labels = set(cols[0])
    regions = tuple(map(Region, *cols))
    cols = _columns(edges_raw, {"label": str, "a": str, "b": str}, f"{pointer}/edges", "edge")
    if not (labels.issuperset(cols[1]) and labels.issuperset(cols[2])):
        for i, sides in enumerate(zip(cols[1], cols[2])):
            for key, side in zip("ab", sides):
                if side not in labels:
                    raise ManifoldFormatError(f"unknown region {side!r}",
                                              f"{pointer}/edges/{i}/{key}")
    edges = tuple(map(HypersurfaceComponent, *cols))

    try:
        return BGraph(regions, edges, ambient_dim=ambient, orientable=orientable)
    except InvalidArgumentError as exc:
        raise ManifoldFormatError(str(exc), pointer) from exc


def _int_lists(raw: list, length: int, pointer: str) -> list:
    """raw, once every entry is checked to be a list of `length` integers."""
    bad = _bad_vertex(raw, length)
    if bad is None:
        return raw
    i, j = bad
    if j < 0:
        raise ManifoldFormatError(f"expected a list of {length} integers", f"{pointer}/{i}")
    raise ManifoldFormatError("expected an integer", f"{pointer}/{i}/{j}")


def _parse_surface(doc: dict, pointer: str) -> BGraph:
    """Build the region graph of a surface document.

    The triangles and the marked edges go to the surface kernel as one
    F x 3 and one L x 2 int64 array, read straight from the JSON lists.
    """
    vertices = _need(doc, "vertices", int, pointer)
    triangles_raw = _need(doc, "triangles", list, pointer)
    z_raw = doc.get("z_edges", [])
    if not isinstance(z_raw, list):
        raise ManifoldFormatError("'z_edges' must be a list", f"{pointer}/z_edges")
    rows = _int_lists(triangles_raw, 3, f"{pointer}/triangles")
    z_rows = _int_lists(z_raw, 2, f"{pointer}/z_edges")
    return _surface_graph(vertices, _vertex_array(rows, 3), _vertex_array(z_rows, 2))


def parse_manifold(doc: Any) -> BGraph:
    """Build a region graph from a parsed manifold document."""
    if not isinstance(doc, dict):
        raise ManifoldFormatError("document must be a JSON object", "/")
    keys = set(doc) & {"graph", "surface"}
    if len(keys) != 1:
        raise ManifoldFormatError(
            "document must contain exactly one of 'graph' or 'surface'", "/"
        )
    if "graph" in keys:
        if not isinstance(doc["graph"], dict):
            raise ManifoldFormatError("'graph' must be an object", "/graph")
        return _parse_graph(doc["graph"], "/graph")
    if not isinstance(doc["surface"], dict):
        raise ManifoldFormatError("'surface' must be an object", "/surface")
    return _parse_surface(doc["surface"], "/surface")


def load_manifold(path) -> BGraph:
    """Load a manifold JSON file into a region graph.

    Raises:
        ManifoldFormatError: text that is not UTF-8, malformed or too deeply
            nested JSON, or a schema violation (with the JSON-pointer path of
            the problem).
        NonClosedSurfaceError / InvalidZError: structurally invalid surface.
        OSError: unreadable path.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ManifoldFormatError(f"not UTF-8 text: {exc}", "/") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ManifoldFormatError(f"not valid JSON: {exc}", "/") from exc
    return parse_manifold(doc)
