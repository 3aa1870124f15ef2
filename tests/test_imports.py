import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import btangent
from btangent import bgraph, errors, manifold_io, obstructions, spheremap, surface, windex

def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(btangent.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env)


# Every subcommand but `sphere`, on every bundled graph, in one fresh
# interpreter: none of them may load numpy, which costs a cold start more
# than the rest of the package together.
_NO_NUMPY = """
import contextlib, io, sys
import btangent
assert "numpy" not in sys.modules, "import btangent"
from btangent.cli import main
from btangent.manifold_io import BUNDLED_NAMES
from btangent.windex import FIELD_NAMES
runs = [["index", field] for field in FIELD_NAMES]
for name in BUNDLED_NAMES:
    runs += [["analyze", name], ["euler", name], ["color", name], ["ph-verify", name],
             ["edge", name, "--dim-m", "2", "--dim-f", "1"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    assert "numpy" not in sys.modules, argv
"""


def test_graph_subcommands_never_load_numpy():
    proc = _fresh(_NO_NUMPY)
    assert proc.returncode == 0, proc.stderr


# What each cold start loads: the package root nothing, `index` no graph code
# and no dataclasses, and a refused `sphere` no numpy.
_ROOT_LOADS_NOTHING = """
import sys
import btangent
loaded = sorted(m for m in sys.modules if m.startswith("btangent.") or m == "numpy")
assert loaded == [], loaded
from btangent import *
assert "numpy" not in sys.modules, "from btangent import *"
names = dir(btangent)
assert "numpy" not in sys.modules, "dir(btangent)"
assert set(btangent.__all__) <= set(names)
"""

_COLD_CLI = """
import contextlib, io, json, sys
from btangent.cli import main
with contextlib.redirect_stdout(io.StringIO()) as report:
    code = main(sys.argv[1:])
loaded = [m for m in ("dataclasses", "numpy", "numpy.ma", "btangent.bgraph",
                      "btangent.manifold_io", "btangent.obstructions", "btangent.spheremap",
                      "btangent.surface", "btangent.windex")
          if m in sys.modules]
print(json.dumps({"code": code, "report": report.getvalue(), "loaded": loaded}))
"""


def test_import_btangent_loads_no_submodule_and_no_numpy():
    proc = _fresh(_ROOT_LOADS_NOTHING)
    assert proc.returncode == 0, proc.stderr


def test_a_cold_index_loads_no_graph_code_and_no_dataclasses():
    proc = _fresh(_COLD_CLI, "index", "saddle")
    run = json.loads(proc.stdout)
    assert run["code"] == 0 and json.loads(run["report"])["index"] == -1, proc.stderr
    assert run["loaded"] == ["btangent.windex"]


# A graph document runs no surface kernel and no plane field, so a cold graph
# subcommand compiles neither module: only ph-verify reads fields.
_GRAPH_LOADS = ["dataclasses", "btangent.bgraph", "btangent.manifold_io", "btangent.obstructions"]


@pytest.mark.parametrize("argv, code, loaded", [
    (["analyze", "sphere_equator"], 0, _GRAPH_LOADS),
    (["color", "circle_4_points"], 0, _GRAPH_LOADS),
    (["edge", "torus_loop", "--dim-m", "3", "--dim-f", "2"], 2, _GRAPH_LOADS),
    (["euler", "genus2_separating"], 0, _GRAPH_LOADS),
    (["ph-verify", "sphere_equator"], 0, _GRAPH_LOADS + ["btangent.windex"]),
], ids=["analyze", "color", "edge", "euler", "ph-verify"])
def test_a_cold_graph_subcommand_loads_no_surface_code(argv, code, loaded):
    proc = _fresh(_COLD_CLI, *argv)
    run = json.loads(proc.stdout)
    assert run["code"] == code, proc.stderr
    assert run["loaded"] == loaded


def test_a_cold_surface_analyze_loads_the_surface_code_and_numpy(tmp_path):
    # one marked cycle, so that every step of the kernel runs; none of them may
    # load numpy.ma, as a first np.unique call does (about 8 ms)
    path = tmp_path / "tetrahedron.json"
    path.write_text('{"surface":{"vertices":4,"triangles":[[0,1,2],[0,1,3],[0,2,3],[1,2,3]],'
                    '"z_edges":[[0,1],[1,2],[0,2]]}}')
    proc = _fresh(_COLD_CLI, "analyze", str(path))
    run = json.loads(proc.stdout)
    assert run["code"] == 0, proc.stderr
    assert len(json.loads(run["report"])["coloring"]) == 2
    assert run["loaded"] == ["dataclasses", "numpy", "btangent.bgraph", "btangent.manifold_io",
                             "btangent.obstructions", "btangent.surface"]


def test_a_refused_sphere_loads_no_numpy():
    proc = _fresh(_COLD_CLI, "sphere", "--samples", "100")
    run = json.loads(proc.stdout)
    assert run["code"] == 1 and run["report"] == ""
    assert proc.stderr == "error: need at least 10**4 samples, got 100\n"
    assert run["loaded"] == ["dataclasses", "btangent.spheremap"]


# A compact surface document with a bad row, which the numeric reader must
# decline without loading numpy, so that the row check reports it; the
# library door, given the document's rows, must refuse them before numpy too.
_BAD_ROW = """
import json, sys
from btangent import InvalidArgumentError, ManifoldFormatError, TriangulatedSurface, load_manifold
door, path = sys.argv[1:]
try:
    if door == "document":
        load_manifold(path)
    else:
        surface = json.loads(open(path).read())["surface"]
        TriangulatedSurface(surface["vertices"], surface["triangles"], surface.get("z_edges", ()))
except (InvalidArgumentError, ManifoldFormatError) as exc:
    print(exc)
assert "numpy" not in sys.modules
"""

# (id, the surface's rows as written, the document door's message)
_BAD_ROWS = [
    ("float", '"triangles":[[0,1,2],[0,1,3],[0,2,3],[1,2.5,3]]',
     "triangle 3 has a vertex that is not an integer: 2.5 (at /surface/triangles/3/1)"),
    ("true", '"triangles":[[0,1,2],[0,1,3],[0,2,3],[1,true,3]]',
     "triangle 3 has a vertex that is not an integer: True (at /surface/triangles/3/1)"),
    ("wrong width", '"triangles":[[0,1,2],[0,1,3],[0,2,3],[1,2]]',
     "triangle 3 does not have 3 vertices: (1, 2) (at /surface/triangles/3)"),
    # a bad marked edge under good triangles
    ("marked float", '"triangles":[[0,1,2],[0,1,3],[0,2,3],[1,2,3]],"z_edges":[[0,1],[1,2.5]]',
     "marked edge 1 has a vertex that is not an integer: 2.5 (at /surface/z_edges/1/1)"),
    ("marked true", '"triangles":[[0,1,2],[0,1,3],[0,2,3],[1,2,3]],"z_edges":[[0,1],[true,2]]',
     "marked edge 1 has a vertex that is not an integer: True (at /surface/z_edges/1/0)"),
    ("marked wrong width", '"triangles":[[0,1,2],[0,1,3],[0,2,3],[1,2,3]],"z_edges":[[0,1],[1]]',
     "marked edge 1 does not have 2 vertices: (1,) (at /surface/z_edges/1)"),
]


@pytest.mark.parametrize(
    "door, rows, message",
    [("document", rows, message) for _, rows, message in _BAD_ROWS]
    + [("library", rows, message.partition(" (at ")[0]) for _, rows, message in _BAD_ROWS],
    ids=[name for name, _, _ in _BAD_ROWS] + [f"library {name}" for name, _, _ in _BAD_ROWS])
def test_a_compact_bad_row_is_reported_without_numpy(tmp_path, door, rows, message):
    path = tmp_path / "row.json"
    path.write_text('{"surface":{"vertices":4,%s}}' % rows)
    proc = _fresh(_BAD_ROW, door, str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == message + "\n"


# the package's public surface: adding or removing a public name changes this set
_PUBLIC_NAMES = {
    "BGraph", "BPlaneField", "BTangentError", "BUNDLED_NAMES", "BmClass", "ChartZero", "CheckItem",
    "CheckReport", "ClassificationVerdict", "Coloring", "EdgeVerdict", "EulerReport",
    "EvenDimensionError", "HypersurfaceComponent", "ImproperColoringError",
    "InconsistentGluingError", "IndexResult", "InvalidArgumentError", "InvalidZError",
    "ManifoldFormatError", "NonClosedSurfaceError", "NonConvergentError", "NonTangentInputError",
    "NonUnitInputError", "NotColorableError", "NotOrientableError", "OddDimensionError",
    "PlaneField", "Region", "SignGluing", "SphereMapReport", "TriangulatedSurface",
    "UnsupportedDimensionError", "VerificationReport", "ZeroIndex", "ZeroOnContourError",
    "ZeroOnCriticalSetError", "b_euler_number", "b_frame_index", "build_graph_from_surface",
    "bundled_path", "classical_euler_number", "classify_bm", "default_center", "default_radius",
    "degree_integral", "degree_preimage", "edge_obstruction", "equivalence_report", "euler_report",
    "field_index", "gauge_solvable", "homotopy_endpoints", "load_manifold", "named_b_field",
    "named_field", "north_pole", "parse_manifold", "pole_map", "pole_map_differential",
    "reflection", "sphere_equator_graph", "sphere_height_example", "sphere_map_report",
    "surface_euler", "surface_orientable", "tangent_frame", "two_color", "verify_poincare_hopf",
    "winding_index",
}


def test_every_public_name_is_reachable():
    assert set(btangent.__all__) == _PUBLIC_NAMES
    star: dict = {}
    exec("from btangent import *", star)
    assert set(star) - {"__builtins__"} == set(btangent.__all__)
    assert set(btangent.__all__) <= set(dir(btangent))
    # each name is declared public once, by the module that defines it, and the
    # package exports that module's object
    declared: dict = {}
    for module in (bgraph, errors, manifold_io, obstructions, spheremap, surface, windex):
        for name in module.__all__:
            assert name in vars(module) and not name.startswith("_"), (module.__name__, name)
            assert declared.setdefault(name, module.__name__) == module.__name__, name
            assert getattr(btangent, name) is getattr(module, name), name
    assert set(declared) == _PUBLIC_NAMES


# A record is a named tuple; it is a frozen dataclass only when its
# __post_init__ checks its fields, as dataclasses.replace runs that check again
# and a named tuple's _replace does not. SphereMapReport is the one exception:
# the benchmark's own tests call dataclasses.replace on it.
def test_a_record_is_a_named_tuple_unless_it_checks_its_fields():
    classes = [c for c in (getattr(btangent, n) for n in btangent.__all__) if isinstance(c, type)]
    checked = {btangent.BGraph, btangent.Coloring, btangent.TriangulatedSurface}
    dataclass_types = {c for c in classes if dataclasses.is_dataclass(c)}
    assert dataclass_types == checked | {btangent.SphereMapReport}
    for c in checked:
        assert "__post_init__" in vars(c), c.__name__
    for c in classes:
        if hasattr(c, "_fields"):
            assert issubclass(c, tuple), c.__name__
    g = btangent.load_manifold(btangent.bundled_path("genus2_separating"))
    for record in (btangent.equivalence_report(g), btangent.euler_report(g)):
        again = pickle.loads(pickle.dumps(record))
        assert type(again) is type(record)
        assert again == record == tuple(getattr(record, f) for f in record._fields)


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_gets_a_report(tmp_path):
    # to report a failing example hypothesis imports libcst, whose deprecation
    # warning must not become an error inside pytest's report hook (exit 3)
    (tmp_path / "test_fails.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(config), "--rootdir",
                           str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout and "1 failed" in proc.stdout
