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

``load_manifold`` first tries a numeric reader on the file's text, which
reads the ``triangles`` and ``z_edges`` arrays straight into int64 arrays,
so that ``json.loads`` never builds their rows as Python lists.  It reads
only rows of plain non-negative integers, written compactly (``[[0,1,2],
[0,2,3]]`` without the space) or with ``json.dumps``' default separators
(``[[0, 1, 2], [0, 2, 3]]``), under keys that occur once in the text as
``"triangles":[`` or ``"triangles": [``.  Its arrays are used only when the
rest of the document, parsed with each array replaced by a sentinel
string, holds those sentinels at ``/surface/triangles`` and
``/surface/z_edges``.  On any other input it declines, never raising, and
the text is parsed by ``json.loads`` as a whole, so every error has one
source: ``parse_manifold``, which the reader's arrays must equal.
"""
from __future__ import annotations

import json
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

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


def _read_graph(doc: dict, pointer: str) -> Tuple[Callable[..., BGraph], tuple]:
    """The builder of a graph document's region graph, and its records;
    only the document's JSON shape is checked here."""
    regions_raw = _need(doc, "regions", list, pointer)
    edges_raw = _need(doc, "edges", list, pointer)
    ambient = _need(doc, "ambient_dim", object, pointer)
    orientable = _need(doc, "orientable", object, pointer)
    regions = _records(regions_raw, Region, ("label", "chi"), f"{pointer}/regions", "region")
    edges = _records(edges_raw, HypersurfaceComponent, ("label", "a", "b"),
                     f"{pointer}/edges", "edge")
    return partial(_located, pointer, BGraph), (regions, edges, ambient, orientable)


def _located(pointer: str, check, *args):
    """check(*args), with the InvalidArgumentError of a constructor's check
    reported at pointer plus the path of its defect."""
    try:
        return check(*args)
    except InvalidArgumentError as exc:
        raise ManifoldFormatError(str(exc), pointer + exc._path) from exc


def _read_surface(doc: dict, pointer: str, rows: Optional[tuple] = None
                  ) -> Tuple[Callable[..., BGraph], tuple]:
    """The surface kernel, and a surface document's vertex count, triangles
    and marked edges: one F x 3 and one L x 2 int64 array, the ``rows``
    that the numeric reader read from the text, or else read straight from
    the JSON lists."""
    vertices = _need(doc, "vertices", int, pointer)
    if rows is not None:
        return _surface_graph, (vertices, *rows)
    triangles_raw = _need(doc, "triangles", list, pointer)
    z_raw = _need(doc, "z_edges", list, pointer) if "z_edges" in doc else []
    _located(f"{pointer}/triangles", _check_vertex_rows, triangles_raw, 3, "triangle")
    _located(f"{pointer}/z_edges", _check_vertex_rows, z_raw, 2, "marked edge")
    return _surface_graph, (vertices, _vertex_array(triangles_raw, 3), _vertex_array(z_raw, 2))


def _read(doc: Any, rows: Optional[tuple] = None) -> Tuple[Callable[..., BGraph], tuple]:
    """Check a parsed manifold document; return the builder of its region
    graph and the builder's arguments, which hold no part of the document
    that the builder does not keep, so that a caller can let the document
    go before the graph is built.  The document is not changed.  ``rows``
    are the surface's triangles and marked edges when ``_read_rows`` read
    them; the document then holds its sentinels in their place."""
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


# the numeric reader (see the module docstring): rows are checked and
# converted about this many characters at a time, so that its peak memory
# stays a small multiple of the chunk whatever the document's size
_CHUNK = 1 << 16
_WIDTHS = {"triangles": 3, "z_edges": 2}
_DIGITS = b"0123456789"
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")
# a row array's stand-in while the rest of the document is parsed, followed
# by the array's key
_SENTINEL = "btangent:numeric-reader:"


def _span(text: str, key: str):
    """(a, b), with text[a:b] the array under key, when key occurs once in
    text, as "key":[ or "key": [; () when it does not occur; else None.

    The array is taken to end at its first "]]", or to be "[]"; what it
    holds is checked by ``_row_pieces``.
    """
    quoted = f'"{key}"'
    i = text.find(quoted)
    if i < 0:
        return ()
    a = i + len(quoted)
    if text.find(quoted, a) >= 0:
        return None
    colon = ":[" if text.startswith(":[", a) else ": [" if text.startswith(": [", a) else None
    if colon is None:
        return None
    a += len(colon) - 1
    b = a + 2 if text.startswith("[]", a) else text.find("]]", a) + 2
    return (a, b) if b > a else None


def _row_pieces(text: str, a: int, b: int, k: int) -> Optional[List[Tuple[int, int, int]]]:
    """The pieces (p, q, rows) of the array text[a:b]: whole rows text[p:q],
    about _CHUNK characters each, joined by "," or ", ".  None unless each
    piece, with its ", " folded to "," and its digits deleted, is the
    skeleton of its rows, "[,,],[,,],...,[,,]" for k = 3.

    Runs on the stdlib alone, so that a float, sign, exponent, literal,
    stray space or row of the wrong width is declined before numpy loads.
    The digit runs are checked by ``_rows_array``.
    """
    row = b"[" + b"," * (k - 1) + b"],"
    pieces, p, end = [], a + 1, b - 1  # text[end] is the closing bracket
    while p < end:
        q = text.find("]", p + _CHUNK, end) + 1 or end
        piece = text[p:q]
        if not piece.isascii():
            return None
        skeleton = piece.encode("ascii").replace(b", ", b",").translate(None, _DIGITS)
        count = (len(skeleton) + 1) // len(row)
        if skeleton + b"," != row * count:
            return None
        pieces.append((p, q, count))
        if q == end:
            break
        if text[q] != ",":
            return None
        # text[end - 1] is "]", so a row starts before end
        p = q + 2 if text[q + 1] == " " else q + 1
    return pieces


def _rows_array(text: str, pieces: List[Tuple[int, int, int]], k: int):
    """The rows of the pieces as an N x k int64 array, converted a piece at
    a time into one preallocated array; None unless every field of a row
    holds 1 to 18 digits with no leading zero, and no digit lies outside a
    field."""
    import numpy as np

    out = np.empty((sum(count for _, _, count in pieces), k), dtype=np.int64)
    flat = out.reshape(-1)
    at = 0
    for p, q, count in pieces:
        piece = text[p:q].encode("ascii").replace(b", ", b",")
        u = np.frombuffer(piece, dtype=np.uint8)
        # the brackets and commas, k + 2 to a row: "[", k - 1 commas, "]" and
        # the "," after it (past the end for the last row); the digits after
        # each are the row's k fields, then none and none
        marks = np.append(np.flatnonzero(u - np.uint8(48) > 9), len(piece))
        runs = np.diff(marks, append=len(piece) + 1).reshape(count, k + 2) - 1
        fields = runs[:, :k]
        if marks[0] or runs[:, k:].any() or fields.min() < 1 or fields.max() > 18:
            return None
        first = u[marks.reshape(count, k + 2)[:, :k] + 1]
        if ((first == ord("0")) & (fields > 1)).any():
            return None
        flat[at:at + count * k] = np.fromstring(piece.translate(_BLANK_BRACKETS),
                                                dtype=np.int64, sep=",")
        at += count * k
    return out


def _read_rows(text: str) -> Optional[Tuple[Any, tuple]]:
    """The numeric reader: the document in text, parsed with its surface's
    row arrays replaced by sentinels, and those arrays, F x 3 and L x 2
    int64; None when it declines (see the module docstring).

    Text with a backslash is declined, so that no key and no sentinel in it
    can be written with escapes.
    """
    spans = {"triangles": _span(text, "triangles")}
    if not spans["triangles"]:  # absent, as from a graph document, or not an array
        return None
    spans["z_edges"] = _span(text, "z_edges")
    if spans["z_edges"] is None or "\\" in text or _SENTINEL in text:
        return None
    spans = {key: span for key, span in spans.items() if span}  # z_edges may be absent
    pieces = {key: _row_pieces(text, a, b, _WIDTHS[key]) for key, (a, b) in spans.items()}
    if None in pieces.values():
        return None
    parts, at = [], 0
    for a, b, key in sorted((a, b, key) for key, (a, b) in spans.items()):
        parts += text[at:a], f'"{_SENTINEL}{key}"'
        at = b
    parts.append(text[at:])
    try:
        doc = json.loads("".join(parts))
    except (ValueError, RecursionError):
        return None
    surface = doc.get("surface") if isinstance(doc, dict) else None
    if not isinstance(surface, dict) or any(surface.get(key) != _SENTINEL + key for key in spans):
        return None
    rows = tuple(_rows_array(text, pieces.get(key, []), k) for key, k in _WIDTHS.items())
    return None if any(r is None for r in rows) else (doc, rows)


def parse_manifold(doc: Any) -> BGraph:
    """Build a region graph from a parsed manifold document, which is left as it is."""
    build, args = _read(doc)
    return build(*args)


def load_manifold(path) -> BGraph:
    """Load a manifold JSON file into a region graph.

    A surface's ``triangles`` and ``z_edges`` are read by the numeric
    reader straight from the text into the kernel's int64 arrays, when they
    are rows of plain non-negative integers written compactly or with
    ``json.dumps``' default separators (see the module docstring).  On any
    other text the reader declines and the whole text is parsed by
    ``json.loads``, so the result and every error are those of
    ``parse_manifold(json.loads(text))``.  The text and the parsed document
    are let go before the graph is built, so the document and the surface
    kernel's arrays are never held at once.

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
