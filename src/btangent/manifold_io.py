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
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, List, Optional

from .bgraph import (
    BGraph,
    HypersurfaceComponent,
    Region,
    _marked_edges,
    _surface_graph,
    _triangle_array,
)
from .errors import InvalidArgumentError, ManifoldFormatError

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


def _need(obj: dict, key: str, kind, pointer: str) -> Any:
    if key not in obj:
        raise ManifoldFormatError(f"missing required key {key!r}", pointer)
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ManifoldFormatError(f"{key!r} must be an integer", f"{pointer}/{key}")
    if not isinstance(value, kind):
        raise ManifoldFormatError(
            f"{key!r} must be {getattr(kind, '__name__', kind)}", f"{pointer}/{key}"
        )
    return value


def _columns(raw: list, kinds: Dict[str, type]) -> Optional[List[tuple]]:
    """The value under each key of kinds in every entry of raw, one tuple per key.

    None unless every entry is a dict that holds every key, with a value of
    exactly that key's type.  The checks are passes over sets of types,
    which run in C.
    """
    if not set(map(type, raw)) <= {dict}:
        return None
    try:
        cols = [tuple(map(itemgetter(key), raw)) for key in kinds]
    except KeyError:
        return None
    if all(set(map(type, col)) <= {kind} for col, kind in zip(cols, kinds.values())):
        return cols
    return None


def _parse_graph(doc: dict, pointer: str) -> BGraph:
    """Build a region graph from a graph document.

    Regions and edges are checked and read as columns by ``_columns``.  The
    per-entry loops run only when a check fails, to find the bad entry, or
    to accept a value of a subclass of its type.
    """
    regions_raw = _need(doc, "regions", list, pointer)
    edges_raw = _need(doc, "edges", list, pointer)
    ambient = _need(doc, "ambient_dim", int, pointer)
    orientable = _need(doc, "orientable", bool, pointer)

    cols = _columns(regions_raw, {"label": str, "chi": int})
    if cols is not None:
        regions = list(map(Region, *cols))
        labels = set(cols[0])
    else:
        regions = []
        for i, r in enumerate(regions_raw):
            p = f"{pointer}/regions/{i}"
            if not isinstance(r, dict):
                raise ManifoldFormatError("region must be an object", p)
            regions.append(Region(_need(r, "label", str, p), _need(r, "chi", int, p)))
        labels = {r.label for r in regions}

    cols = _columns(edges_raw, {"label": str, "a": str, "b": str})
    if cols is not None and labels.issuperset(cols[1]) and labels.issuperset(cols[2]):
        edges = list(map(HypersurfaceComponent, *cols))
    else:
        edges = []
        for i, e in enumerate(edges_raw):
            p = f"{pointer}/edges/{i}"
            if not isinstance(e, dict):
                raise ManifoldFormatError("edge must be an object", p)
            label = _need(e, "label", str, p)
            a = _need(e, "a", str, p)
            b = _need(e, "b", str, p)
            for key, side in (("a", a), ("b", b)):
                if side not in labels:
                    raise ManifoldFormatError(f"unknown region {side!r}", f"{p}/{key}")
            edges.append(HypersurfaceComponent(label, a, b))

    try:
        return BGraph(tuple(regions), tuple(edges), ambient_dim=ambient, orientable=orientable)
    except InvalidArgumentError as exc:
        raise ManifoldFormatError(str(exc), pointer) from exc


def _check_int_list(raw: Any, length: int, pointer: str) -> None:
    if not isinstance(raw, list) or len(raw) != length:
        raise ManifoldFormatError(f"expected a list of {length} integers", pointer)
    for j, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ManifoldFormatError("expected an integer", f"{pointer}/{j}")


def _int_lists(raw: list, length: int, pointer: str) -> list:
    """Check that every entry of raw is a list of `length` integers; return raw.

    The check is three passes over sets of types and lengths, which run in
    C.  Entry pointers are built only to locate a bad entry.
    """
    if not (set(map(type, raw)) <= {list} and set(map(len, raw)) <= {length}
            and set(map(type, chain.from_iterable(raw))) <= {int}):
        for i, e in enumerate(raw):
            _check_int_list(e, length, f"{pointer}/{i}")
    return raw


def _parse_surface(doc: dict, pointer: str) -> BGraph:
    """Build the region graph of a surface document.

    The triangles go to the surface kernel as one F x 3 int64 array, read
    straight from the JSON lists.
    """
    import numpy as np

    vertices = _need(doc, "vertices", int, pointer)
    triangles_raw = _need(doc, "triangles", list, pointer)
    z_raw = doc.get("z_edges", [])
    if not isinstance(z_raw, list):
        raise ManifoldFormatError("'z_edges' must be a list", f"{pointer}/z_edges")
    rows = _int_lists(triangles_raw, 3, f"{pointer}/triangles")
    z_edges = _marked_edges(_int_lists(z_raw, 2, f"{pointer}/z_edges"))
    try:
        triangles = np.fromiter(chain.from_iterable(rows), np.int64, 3 * len(rows))
    except OverflowError:  # a vertex past int64: read the rows as given, to quote it
        triangles = _triangle_array(vertices, rows)
    return _surface_graph(vertices, triangles.reshape(-1, 3), z_edges)


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
