import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import btangent
from btangent import (BGraph, HypersurfaceComponent, ManifoldFormatError, Region, obstructions,
                      parse_manifold, surface)
from btangent import cli, windex
from btangent.cli import build_parser, main, run
from btangent.manifold_io import BUNDLED_NAMES, bundled_path, load_manifold

from corpus import octahedron, pinched_octahedra, torus_loop_graph


def _cold_cli(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, as a user would; a CLI that hangs
    fails its test with ``subprocess.TimeoutExpired`` after 120 seconds, or
    after the ``timeout`` given in kwargs."""
    env = dict(os.environ, PYTHONPATH=str(Path(btangent.__file__).resolve().parents[1]))
    kwargs.setdefault("timeout", 120)
    return subprocess.run([sys.executable, "-m", "btangent.cli", *argv],
                          capture_output=True, text=True, env=env, **kwargs)


def test_euler_on_bundled_sphere(capsys):
    code = main(["euler", "sphere_equator"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("\n")
    doc = json.loads(out)
    assert doc["b_euler"] == 0
    assert doc["classical_euler"] == 2


def test_color_torus_loop_is_negative(capsys):
    code = main(["color", "torus_loop"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["verdict"] == "NOT TWO-COLORABLE"
    assert doc["coloring"] is None


def test_analyze_with_bm_classification(capsys):
    code = main(["analyze", "sphere_equator", "--m", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["two_colorable"] is True
    assert doc["bm_classification"] == {"m": 3, "class": "BTangentEquivalent"}


def test_identical_invocations_are_byte_identical():
    args = build_parser().parse_args(["sphere", "--n", "3", "--samples", "10000", "--seed", "7"])
    first = run(args)
    second = run(args)
    assert first == second
    assert first[0] == 0


def test_index_subcommand_values(capsys):
    code = main(["index", "x_delta", "--delta", "0.5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["index"] == 1

    main(["index", "x_delta", "--delta", "-0.5"])
    assert json.loads(capsys.readouterr().out)["index"] == -1

    # the second zero at the origin lies inside the default radius 0.1
    for delta, want in (("0.05", 1), ("-0.05", -1)):
        assert main(["index", "x_delta", "--delta", delta]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["index"] == want
        assert doc["radius_used"] == 0.025

    main(["index", "x0_degenerate"])
    assert json.loads(capsys.readouterr().out)["index"] == 0

    main(["index", "x0_degenerate", "--frame", "b"])
    assert json.loads(capsys.readouterr().out)["index"] == 1


def test_index_refuses_an_x_delta_radius_that_reaches_the_origin(capsys):
    assert main(["index", "x_delta", "--delta", "0.5", "--radius", "0.4"]) == 0
    assert json.loads(capsys.readouterr().out)["index"] == 1
    # the contour of radius |delta| passes through the second zero at the origin
    for frame in ("honest", "b"):
        argv = ["index", "x_delta", "--delta", "0.5", "--radius", "0.5", "--frame", frame]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: radius 0.5 around (0.5, 0.0) reaches the critical line "
                                "x = 0 and the zero of x_delta at the origin: it must be below "
                                "|delta| = 0.5\n")


def test_index_field_choices_read_as_the_field_names_tuple(monkeypatch, capsys):
    """index's FIELD choices, which load windex only when read, print and
    refuse as choices=windex.FIELD_NAMES does on the Python running the
    test: the whole help text, and the message and exit code of an unknown
    field."""
    def texts():
        with pytest.raises(SystemExit) as exc:
            main(["index", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr()
        return help_text, main(["index", "bogus"]), capsys.readouterr()

    lazy = texts()
    monkeypatch.setattr(cli, "_FIELD_CHOICES", windex.FIELD_NAMES)
    assert lazy == texts()
    (help_text, _), code, (out, err) = lazy
    assert f"one of: {', '.join(windex.FIELD_NAMES)}" in " ".join(help_text.split())
    assert code == 1 and out == "" and err.startswith("error: argument FIELD: invalid choice: ")


def test_index_contour_collapsed_onto_its_center_is_named(capsys):
    # 1e308 + 0.1 == 1e308: every sample of the default contour is the centre
    assert main(["index", "x_delta", "--delta", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: radius 0.1 vanishes against center (1e+308, 0.0) in double "
                            "precision: the contour collapses onto its center\n")


def test_edge_subcommand_exit_codes(capsys):
    code = main(["edge", "torus_loop", "--dim-m", "2", "--dim-f", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["verdict"] == "Obstructed"

    code = main(["edge", "sphere_equator", "--dim-m", "2", "--dim-f", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["verdict"] == "Inconclusive"


@pytest.mark.parametrize("dim_m", ["3", "4"])
def test_edge_runs_one_two_coloring(monkeypatch, capsys, dim_m):
    real = obstructions.two_color
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(obstructions, "two_color", counted)
    for name in BUNDLED_NAMES:
        calls.clear()
        main(["edge", name, "--dim-m", dim_m, "--dim-f", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert doc["two_colorable"] is (real(load_manifold(bundled_path(name))) is not None)


def test_ph_verify_passes_on_sphere(capsys):
    code = main(["ph-verify", "sphere_equator"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["passed"] is True
    assert doc["colored_sum"] == doc["b_euler"] == 0
    assert doc["unsigned_sum"] == doc["classical_euler"] == 2


def _sphere_document(regions, sides) -> dict:
    """The equator sphere's graph document, with its regions and edge sides as given."""
    return {"graph": {"regions": [{"label": label, "chi": 1} for label in regions],
                      "edges": [{"label": "Z0", "a": sides[0], "b": sides[1]}],
                      "ambient_dim": 2, "orientable": True}}


@pytest.mark.parametrize("regions, sides", [
    (("B-", "B+"), ("B+", "B-")),
    (("B+", "B-"), ("B-", "B+")),
    (("B-", "B+"), ("B-", "B+")),
], ids=["regions reordered", "sides swapped", "both"])
def test_ph_verify_accepts_the_equator_sphere_in_any_order(tmp_path, capsys, regions, sides):
    assert main(["ph-verify", "sphere_equator"]) == 0
    bundled = capsys.readouterr().out
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(_sphere_document(regions, sides)))
    assert main(["ph-verify", str(path)]) == 0
    assert capsys.readouterr().out == bundled


def test_ph_verify_refuses_the_sphere_with_renamed_regions(tmp_path, capsys):
    # the kit's zeros name the regions B+ and B-
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(_sphere_document(("N", "S"), ("N", "S"))))
    assert main(["ph-verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: ph-verify supports only the sphere cut along its equator "
                            "(bundled sphere_equator)\n")


def test_markdown_format(capsys, tmp_path):
    code = main(["euler", "sphere_equator", "--format", "markdown"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# euler\n")
    assert "| b_euler | 0 |" in out

    # a | in a label is escaped, so every field stays one row of two cells
    code = main(["color", str(_hostile_labels(tmp_path)), "--format", "markdown"])
    rows = capsys.readouterr().out.splitlines()[4:]
    assert code == 0
    cells = [re.split(r"(?<!\\)\|", row)[1:-1] for row in rows]
    assert [len(c) for c in cells] == [2, 2, 2]
    value = dict((key.strip(), text.strip().replace("\\|", "|")) for key, text in cells)
    assert sorted(json.loads(value["coloring"])) == sorted(_HOSTILE_REGIONS)


_HOSTILE_REGIONS = ('A"; x [label=pwn', "B\\", "C|D")
_HOSTILE_EDGES = ('Z"0', "Z1\\")


def _hostile_labels(tmp_path: Path) -> Path:
    """A path of three regions whose labels break unescaped DOT and markdown."""
    a, b, c = _HOSTILE_REGIONS
    g = BGraph((Region(a, 1), Region(b, 0), Region(c, 1)),
               (HypersurfaceComponent(_HOSTILE_EDGES[0], a, b),
                HypersurfaceComponent(_HOSTILE_EDGES[1], b, c)))
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({"graph": g.to_json_dict()}), encoding="utf-8")
    return path


def test_dot_format(capsys, tmp_path):
    main(["analyze", "sphere_equator", "--format", "dot"])
    out = capsys.readouterr().out
    assert out.startswith("graph regions {")
    assert "fillcolor=white" in out and "fillcolor=gray" in out
    assert '"B+" -- "B-" [label="Z0"];' in out

    code = main(["analyze", "torus_loop", "--format", "dot"])
    out = capsys.readouterr().out
    assert code == 2
    assert "// NOT TWO-COLORABLE" in out
    assert '"T" -- "T"' in out

    # labels are escaped: one statement per region and per edge, and undoing
    # the escapes gives back every label
    code = main(["analyze", str(_hostile_labels(tmp_path)), "--format", "dot"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and lines[:2] == ["graph regions {", "  node [style=filled];"]
    assert lines[-1] == "}"
    quoted = r'"((?:[^"\\]|\\.)*)"'
    node = re.compile(rf"  {quoted} \[fillcolor=(?:white|gray) label={quoted[:-1]}\\nchi=-?\d+\"\];")
    edge = re.compile(rf"  {quoted} -- {quoted} \[label={quoted}\];")
    nodes = [node.fullmatch(line) for line in lines[2:5]]
    edges = [edge.fullmatch(line) for line in lines[5:-1]]
    assert all(nodes) and all(edges) and len(edges) == 2

    def unescape(text):
        return re.sub(r"\\(.)", r"\1", text)

    assert [unescape(m[1]) for m in nodes] == [unescape(m[2]) for m in nodes] == list(
        _HOSTILE_REGIONS)
    assert [tuple(map(unescape, m.groups())) for m in edges] == [
        (_HOSTILE_REGIONS[0], _HOSTILE_REGIONS[1], _HOSTILE_EDGES[0]),
        (_HOSTILE_REGIONS[1], _HOSTILE_REGIONS[2], _HOSTILE_EDGES[1])]


def test_dot_rejected_where_meaningless(capsys):
    code = main(["sphere", "--n", "2", "--samples", "10000", "--format", "dot"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_input_is_operational_error(capsys):
    code = main(["euler"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_bundled_name(capsys):
    code = main(["euler", "no_such_manifold"])
    err = capsys.readouterr().err
    assert code == 1
    assert "no bundled manifold" in err
    # a missing path is an error even when its last part names a bundled example
    for argv in (["color", "/nonexistent/dir/torus_loop.json"],
                 ["analyze", "./typo/sphere_equator.json"]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: no such file")
        assert "bundled" not in err


def test_bad_numeric_flag(capsys):
    code = main(["edge", "sphere_equator", "--dim-m", "two", "--dim-f", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "--dim-m" in err and "'two'" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "sphere_equator", "--bogus"],
    ["sphere", "--format", "xml"],
    ["frobnicate"],
    [],
    ["index", "x_delta", "--delta", "abc"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_file_input_and_round_trip(tmp_path, capsys):
    g = torus_loop_graph()
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"graph": g.to_json_dict()}), encoding="utf-8")
    code = main(["analyze", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["two_colorable"] is False


def test_surface_document_input(tmp_path, capsys):
    doc = {
        "surface": {
            "vertices": 6,
            "triangles": [
                [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 2, 5],
                [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 2, 5],
            ],
            "z_edges": [[2, 3], [3, 4], [4, 5], [2, 5]],
        }
    }
    path = tmp_path / "oct.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["euler", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["b_euler"] == 0
    assert report["classical_euler"] == 2


def test_empty_surface_is_structured_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"surface": {"vertices": 0, "triangles": []}}), encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "no triangles" in captured.err
    assert captured.out == ""


def test_surface_past_the_triangle_ceiling_exits_1(tmp_path, capsys, monkeypatch):
    # a document of 715 827 883 triangles is too big to write here; a lower
    # ceiling takes the same path
    monkeypatch.setattr(surface, "_MAX_TRIANGLES", 7)
    path = tmp_path / "oct.json"
    path.write_text(json.dumps({"surface": {"vertices": 6, "triangles": _OCTAHEDRON}}),
                    encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: a surface has at most 7 triangles, got 8\n"
    assert captured.out == ""


def test_malformed_json_reports_pointer(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["euler", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_schema_errors_carry_json_pointers():
    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold({"graph": {"regions": [{"label": "A", "chi": 1}],
                                  "edges": [{"label": "Z", "a": "A", "b": "Q"}],
                                  "ambient_dim": 2, "orientable": True}})
    assert exc.value.pointer == "/graph/edges/0/b"

    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold({"graph": {"regions": [{"label": "A", "chi": 1.5}],
                                  "edges": [], "ambient_dim": 2, "orientable": True}})
    assert exc.value.pointer == "/graph/regions/0/chi"

    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold({"surface": {"vertices": 4, "triangles": [[0, 1]]}})
    assert exc.value.pointer == "/surface/triangles/0"

    with pytest.raises(ManifoldFormatError) as exc:
        parse_manifold({"graph": {}, "surface": {}})
    assert exc.value.pointer == "/"


def test_every_bundled_manifold_loads():
    for name in BUNDLED_NAMES:
        g = load_manifold(bundled_path(name))
        assert g.regions
    with pytest.raises(KeyError):
        bundled_path("unknown")


@pytest.mark.parametrize("argv", [
    ["analyze", "sphere_equator", "--m", "0"],
    ["edge", "sphere_equator", "--dim-m", "1", "--dim-f", "5"],
    ["sphere", "--samples", "100"],
    ["index", "x_delta", "--radius", "-1"],
    ["ph-verify", "genus2_separating"],
    ["ph-verify", "circle_4_points"],
    ["index", "x_delta", "--delta", "nan"],
    ["index", "x_delta", "--radius", "nan"],
    ["ph-verify", "sphere_equator", "--radius", "inf"],
    ["sphere", "--seed", "-1"],
    ["index", "saddle", "--delta", "nan"],
    ["index", "radial", "--delta", "inf"],
    ["index", "sphere_height_b", "--frame", "b"],
    ["sphere", "--samples", "99999999999999999999"],
    ["index", "x_delta", "--delta", "0.5", "--radius", "0.6"],
])
def test_out_of_range_arguments_are_structured_errors(argv):
    proc = _cold_cli(*argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


_OCTAHEDRON = [list(t) for t in octahedron().triangles]


@pytest.mark.parametrize("doc, message", [
    ({"surface": {"vertices": 6, "triangles": _OCTAHEDRON, "z_edges": [[1, 2], [2, 1]]}},
     "listed twice"),
    ({"graph": {"regions": [{"label": "A", "chi": 1}, {"label": "A", "chi": 1}],
                "edges": [], "ambient_dim": 2, "orientable": True}},
     "duplicate region label"),
    ({"surface": {"vertices": 11, "triangles": [list(t) for t in pinched_octahedra().triangles],
                  "z_edges": [list(e) for e in pinched_octahedra().z_edges]}},
     "not a surface at some vertex"),
    pytest.param(b"\xff\xfe" + json.dumps({"surface": {"vertices": 6}}).encode(),
                 "not UTF-8 text", id="doc3-not UTF-8 text"),
    pytest.param(b"[" * 100_000, "not valid JSON", id="doc4-not valid JSON"),
])
def test_invalid_documents_are_structured_errors(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    proc = _cold_cli("analyze", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    if isinstance(doc, bytes):
        with pytest.raises(ManifoldFormatError) as exc:
            load_manifold(path)
        assert exc.value.pointer == "/"


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_huge_vertex_count_is_a_quick_structured_error(tmp_path):
    # the vertex range is never built, so 10**12 vertices cost no memory; the
    # address-space cap and the timeout keep a regression from taking the machine
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"surface": {"vertices": 10**12, "triangles": _OCTAHEDRON}}),
                    encoding="utf-8")
    proc = _cold_cli("analyze", str(path), preexec_fn=_cap_memory, timeout=5)
    assert proc.returncode == 1
    assert proc.stderr == ("error: isolated vertices: [6, 7, 8, 9, 10, 11, 12, 13, 14, 15] "
                           f"({10**12 - 6} in all)\n")
    assert proc.stdout == ""
