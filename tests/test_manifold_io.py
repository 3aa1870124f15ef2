"""load_manifold's numeric reader against the reference path.

The reader reads a surface's rows straight from the file's text and
declines whatever it is not sure of, so ``load_manifold(path)`` must give
exactly what ``parse_manifold(json.loads(text))`` gives: the same graph, or
the same error at the same pointer.
"""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from btangent import parse_manifold
from btangent import surface as surface_io
from btangent.errors import BTangentError, InvalidZError, ManifoldFormatError
from btangent.manifold_io import load_manifold

from corpus import (genus2, grid_surface, octahedron, pinched_octahedra, pinched_octahedra_ring,
                    projective_plane, torus7)

_SURFACES = (octahedron(), octahedron(False), torus7(), genus2(), projective_plane(),
             pinched_octahedra(), grid_surface(4, 4, loop_rows=(0, 2)),
             grid_surface(3, 4, klein=True, loop_rows=(1,)))

# (item separator, key separator): json.dumps' compact and default forms,
# which the reader reads, and a layout with line breaks, which it declines
_LAYOUTS = {"compact": (",", ":"), "default": (", ", ": "), "indented": (",\n  ", ": ")}

# entries the reader declines, whether or not json.loads takes them (a space,
# 19 digits); the last is the longest entry it reads
_BAD_VERTICES = ("-1", "-0", "01", "00", "1000000000000000000", "99999999999999999999",
                 "2.0", "1e2", "true", "null", '"1"', '"é"', "١", "１", "4 ",
                 "1 2", " 1", "1 ", "", "999999999999999999")

# what may join two rows in place of the separator
_BAD_JOINS = ("", " ", "] [", "]7,", ",7", "]", "[", " ,", ",,", ",\n", ",  ")

# "old stand-in" is no defect: a string that spells what once stood in for
# a row array is read like any other
_DEFECTS = ("vertex", "join", "wrong width", "duplicate triangles", "duplicate surface",
            "escaped key", "key in a string", "old stand-in", "empty triangles",
            "empty z_edges", "trailing comma")
# what the reader checks once, on the text outside the row arrays: a key
# written twice or in a string, each placed before or after the triangles
# array; a key written with an escape after its real array, with a [] that
# json.loads keeps in the array's place; the marked edges in an object inside
# the surface, where they mark nothing; and a space in one piece of a compact
# document, the only piece whose ", " is folded
_OUTSIDE_DEFECTS = ("duplicate z_edges", "z_edges in a string", "escaped duplicate",
                    "nested z_edges", "stray space")
# each key written with an escape, which only the backslash check tells from
# the key itself
_ESCAPED = {"triangles": '"tri\\u0061ngles"', "z_edges": '"z_\\u0065dges"'}


def _array(rows, item: str) -> str:
    return "[" + item.join("[" + item.join(row) + "]" for row in rows) + "]"


def _object(pairs, item: str, colon: str) -> str:
    return "{" + item.join(f"{key}{colon}{value}" for key, value in pairs) + "}"


def _rows(surf):
    return {"triangles": [[str(v) for v in t] for t in surf.triangles.tolist()],
            "z_edges": [[str(v) for v in e] for e in surf.z_edges.tolist()]}


def _octahedron_text(layout: str, rows=None, join=None) -> str:
    """The octahedron's document, with its rows as given; join replaces the
    separator between triangles 2 and 3."""
    item, colon = _LAYOUTS[layout]
    rows = rows or _rows(octahedron())
    triangles = _array(rows["triangles"], item)
    if join is not None:
        at = len(_array(rows["triangles"][:3], item)) - 1
        triangles = triangles[:at] + join + triangles[at + len(item):]
    surface = _object([('"vertices"', "6"), ('"triangles"', triangles),
                       ('"z_edges"', _array(rows["z_edges"], item))], item, colon)
    return _object([('"surface"', surface)], item, colon)


def _with_vertex(key: str, i: int, j: int, token: str):
    rows = _rows(octahedron())
    rows[key][i][j] = token
    return rows


@st.composite
def _documents(draw, defects=st.one_of(st.none(), st.sampled_from(_DEFECTS + _OUTSIDE_DEFECTS))):
    """The text of a surface document, valid or with one defect drawn from
    defects, and whether the reader must read it."""
    surf = draw(st.sampled_from(_SURFACES))
    layout = draw(st.sampled_from(sorted(_LAYOUTS)))
    rows = _rows(surf)
    keys = {"triangles": '"triangles"', "z_edges": '"z_edges"'}
    defect = draw(defects)
    if defect == "stray space":
        layout = "compact"
    item, colon = _LAYOUTS[layout]
    extra, anywhere = [], None
    target = draw(st.sampled_from(["triangles", "z_edges"] if rows["z_edges"] else ["triangles"]))
    row = rows[target][draw(st.integers(0, len(rows[target]) - 1))]
    if defect == "vertex":
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_BAD_VERTICES[:-1]))
    elif defect == "wrong width":
        if draw(st.booleans()):
            row.append("0")
        else:
            row.pop()
    elif defect in ("empty triangles", "empty z_edges"):
        rows[defect.split()[1]] = []
    elif defect == "escaped key":
        keys["triangles"] = _ESCAPED["triangles"]
    elif defect == "key in a string":
        extra.append(('"note"', json.dumps('"triangles":[[0,1,2]]')))
        if draw(st.booleans()):
            extra.append(('"note2"', '"triangles:[[0,1,2]]"'))
    elif defect == "old stand-in":
        extra.append(('"note"', json.dumps("btangent:numeric-reader:" + target)))
    elif defect == "duplicate triangles":
        extra.append(('"triangles"', _array(rows["triangles"][:2], item)))
    elif defect == "duplicate z_edges":
        anywhere = ('"z_edges"', _array(rows["z_edges"][:2], item))
    elif defect == "z_edges in a string":
        anywhere = ('"note"', draw(st.sampled_from(
            ['"z_edges"', '["z_edges",[[0,1]]]', json.dumps('"z_edges":[[0,1]]')])))
    elif defect == "escaped duplicate":
        extra.append((_ESCAPED[draw(st.sampled_from(sorted(_ESCAPED)))], "[]"))
    elif defect == "nested z_edges":
        anywhere = ('"note"', _object([(keys["z_edges"], _array(rows["z_edges"], item))],
                                      item, colon))
    elif defect == "stray space":
        row[draw(st.sampled_from([0, -1]))] += " "  # [0 ,1,2] or [0,1,2 ]
    pairs = [('"vertices"', str(surf.vertex_count + draw(st.sampled_from([0, 0, 0, 1, -1])))),
             (keys["triangles"], _array(rows["triangles"], item))]
    # an empty z_edges may be absent, unless it is to be listed twice; a nested
    # one is listed only in its note
    if defect != "nested z_edges" and (
            rows["z_edges"] or defect in ("duplicate z_edges", "escaped duplicate")
            or draw(st.booleans())):
        pairs.append((keys["z_edges"], _array(rows["z_edges"], item)))
    pairs = draw(st.permutations(pairs)) + extra
    if anywhere:
        pairs.insert(draw(st.integers(0, len(pairs))), anywhere)
    surface = _object(pairs, item, colon)
    if defect == "trailing comma":
        at = surface.index("]]")
        surface = surface[:at + 1] + "," + surface[at + 1:]
    elif defect == "join":
        at = surface.index("]" + item + "[") + 1
        surface = surface[:at] + draw(st.sampled_from(_BAD_JOINS)) + surface[at + len(item):]
    outer = [('"surface"', surface)]
    if defect == "duplicate surface":
        outer.insert(draw(st.integers(0, 1)), ('"surface"', _object(pairs[:1], item, colon)))
    readable = (defect in (None, "old stand-in", "empty triangles", "empty z_edges")
                and layout != "indented")
    return _object(outer, item, colon), readable


def _outcome(load):
    """load()'s graph, or the class, message and pointer of its error."""
    try:
        return load()
    except BTangentError as exc:
        return type(exc), str(exc), getattr(exc, "pointer", None)


def _reference(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return ManifoldFormatError, str(ManifoldFormatError(f"not valid JSON: {exc}", "/")), "/"
    return _outcome(lambda: parse_manifold(doc))


def _check(tmp_path, text: str) -> None:
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert _outcome(lambda: load_manifold(path)) == _reference(text)


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_documents(), st.sampled_from([1, 40, surface_io._CHUNK]))
def test_load_manifold_matches_the_reference_path(tmp_path, monkeypatch, document, chunk):
    text, readable = document
    monkeypatch.setattr(surface_io, "_CHUNK", chunk)  # rows cut into pieces of about chunk
    _check(tmp_path, text)
    if readable:
        assert surface_io._read_rows(text) is not None


@pytest.mark.parametrize("chunk", [1, 40, surface_io._CHUNK])
@pytest.mark.parametrize("defect", _OUTSIDE_DEFECTS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_each_outside_defect_is_declined(tmp_path, monkeypatch, defect, chunk, data):
    text, _ = data.draw(_documents(st.just(defect)), label="document")
    monkeypatch.setattr(surface_io, "_CHUNK", chunk)
    assert surface_io._read_rows(text) is None
    _check(tmp_path, text)


# every bad entry in a triangle and in a marked edge, and every bad join
_CASES = [(f"{layout} {key} {token!r}", _octahedron_text(layout, _with_vertex(key, i, 1, token)))
          for layout in ("compact", "default") for key, i in (("triangles", 3), ("z_edges", 0))
          for token in _BAD_VERTICES]
_CASES += [(f"{layout} join {join!r}", _octahedron_text(layout, join=join))
           for layout in ("compact", "default") for join in _BAD_JOINS]


# with each row its own piece, and with one piece
@pytest.mark.parametrize("chunk", [1, surface_io._CHUNK])
@pytest.mark.parametrize("text", [text for _, text in _CASES], ids=[name for name, _ in _CASES])
def test_each_bad_entry_and_join_matches_the_reference_path(tmp_path, monkeypatch, text, chunk):
    monkeypatch.setattr(surface_io, "_CHUNK", chunk)
    _check(tmp_path, text)


@pytest.mark.parametrize("chunk", [1, 10, surface_io._CHUNK])
@pytest.mark.parametrize("layout", ["compact", "default"])
def test_reader_reads_compact_and_default_documents(monkeypatch, chunk, layout):
    monkeypatch.setattr(surface_io, "_CHUNK", chunk)
    surf = octahedron()
    doc, (t, z) = surface_io._read_rows(_octahedron_text(layout))
    assert doc == {"surface": {"vertices": 6, "triangles": [], "z_edges": []}}
    assert t.dtype == z.dtype == np.int64
    assert t.tolist() == surf.triangles.tolist()
    assert z.tolist() == surf.z_edges.tolist()
    # the longest entry it reads
    rows = _with_vertex("triangles", 7, 2, "999999999999999999")
    assert surface_io._read_rows(_octahedron_text(layout, rows))[1][0][7, 2] == 10**18 - 1


def test_reader_declines_what_it_cannot_be_sure_of(tmp_path):
    compact = _octahedron_text("compact")
    # an escaped key after the real array: json.loads keeps the later key,
    # whose [] is no stand-in, and makes the triangles or the marked edges empty
    for text in (compact[:-2] + "," + _ESCAPED["triangles"] + ":[]}}",
                 compact[:-2] + "," + _ESCAPED["z_edges"] + ":[]}}",
                 compact.replace('"triangles"', _ESCAPED["triangles"]),
                 # the marked edges in an object inside the surface: none is marked
                 compact.replace('"z_edges":', '"note":{"z_edges":')[:-2] + "}}}",
                 compact[:-1] + ',"label":"triangles"}',  # the key twice in the text
                 compact.replace('"triangles":[', '"triangles" :['),
                 json.dumps({"graph": json.loads(compact)["surface"]}),
                 _octahedron_text("indented")):
        assert surface_io._read_rows(text) is None, text
        _check(tmp_path, text)


def test_the_reader_path_reports_a_marked_cycle_through_three_regions(tmp_path):
    ring = pinched_octahedra_ring()
    text = json.dumps({"surface": {"vertices": ring.vertex_count,
                                   "triangles": ring.triangles.tolist(),
                                   "z_edges": ring.z_edges.tolist()}}, separators=(",", ":"))
    assert surface_io._read_rows(text) is not None
    path = tmp_path / "ring.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InvalidZError) as exc:
        load_manifold(path)
    assert type(exc.value) is InvalidZError
    assert str(exc.value) == "marked cycle 0 touches 3 regions; at most 2 possible"
