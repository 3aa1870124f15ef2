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
"""
from __future__ import annotations

import json
from importlib import resources
from operator import itemgetter
from pathlib import Path
from typing import Any, Tuple

from .bgraph import (
    BGraph,
    HypersurfaceComponent,
    Region,
    _check_vertex_rows,
    _records_of,
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


def _need(obj: dict, key: str, kind: type, pointer: str) -> Any:
    """obj[key], present and of kind; int means the package's integer rule."""
    if key not in obj:
        raise ManifoldFormatError(f"missing required key {key!r}", pointer)
    value = obj[key]
    if _is_int(type(value)) if kind is int else isinstance(value, kind):
        return int(value) if kind is int else value
    name = "an integer" if kind is int else f"a {kind.__name__}"
    raise ManifoldFormatError(f"{key!r} must be {name}", f"{pointer}/{key}")


def _records(raw: list, record: type, keys: Tuple[str, ...], pointer: str, what: str) -> tuple:
    """One record per entry of raw, from the values under keys: one itemgetter
    pass, whose tuples become the records, all in C (see ``_records_of``;
    keys are the record's fields in order).  The entries are walked only to
    name an entry that is not an object or lacks a key."""
    try:
        return tuple(_records_of(record, map(itemgetter(*keys), raw)))
    except (KeyError, TypeError):  # an entry without a key, or not an object
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ManifoldFormatError(f"{what} must be an object", f"{pointer}/{i}")
            for key in keys:
                _need(entry, key, object, f"{pointer}/{i}")
        raise


def _parse_graph(doc: dict, pointer: str) -> BGraph:
    """Build a region graph from a graph document; only its JSON shape is checked here."""
    regions_raw = _need(doc, "regions", list, pointer)
    edges_raw = _need(doc, "edges", list, pointer)
    ambient = _need(doc, "ambient_dim", object, pointer)
    orientable = _need(doc, "orientable", object, pointer)
    regions = _records(regions_raw, Region, ("label", "chi"), f"{pointer}/regions", "region")
    edges = _records(edges_raw, HypersurfaceComponent, ("label", "a", "b"),
                     f"{pointer}/edges", "edge")
    return _located(pointer, BGraph, regions, edges, ambient, orientable)


def _located(pointer: str, check, *args):
    """check(*args), with the InvalidArgumentError of a constructor's check
    reported at pointer plus the path of its defect."""
    try:
        return check(*args)
    except InvalidArgumentError as exc:
        raise ManifoldFormatError(str(exc), pointer + exc._path) from exc


def _parse_surface(doc: dict, pointer: str) -> BGraph:
    """Build the region graph of a surface document.

    The triangles and the marked edges go to the surface kernel as one
    F x 3 and one L x 2 int64 array, read straight from the JSON lists.
    """
    vertices = _need(doc, "vertices", int, pointer)
    triangles_raw = _need(doc, "triangles", list, pointer)
    z_raw = _need(doc, "z_edges", list, pointer) if "z_edges" in doc else []
    _located(f"{pointer}/triangles", _check_vertex_rows, triangles_raw, 3, "triangle")
    _located(f"{pointer}/z_edges", _check_vertex_rows, z_raw, 2, "marked edge")
    return _surface_graph(vertices, _vertex_array(triangles_raw, 3), _vertex_array(z_raw, 2))


def parse_manifold(doc: Any) -> BGraph:
    """Build a region graph from a parsed manifold document."""
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
    return (_parse_graph if key == "graph" else _parse_surface)(doc[key], f"/{key}")


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
