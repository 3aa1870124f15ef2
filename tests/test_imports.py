import os
import subprocess
import sys
from pathlib import Path

import pytest

import btangent
from btangent import spheremap

# Every subcommand but `sphere`, on every bundled graph, in one fresh
# interpreter: none of them may load numpy, which costs a cold start more
# than the rest of the package together.
_NO_NUMPY = """
import contextlib, io, sys
import btangent
assert "numpy" not in sys.modules, "import btangent"
from btangent.cli import FIELD_NAMES, main
from btangent.manifold_io import BUNDLED_NAMES
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
    env = dict(os.environ, PYTHONPATH=str(Path(btangent.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


# A compact surface document with a bad row, which the numeric reader must
# decline without loading numpy, so that the row check reports it.
_BAD_ROW = """
import sys
from btangent import ManifoldFormatError, load_manifold
try:
    load_manifold(sys.argv[1])
except ManifoldFormatError as exc:
    print(exc)
assert "numpy" not in sys.modules
"""


@pytest.mark.parametrize("row, message", [
    ("[1,2.5,3]", "triangle 3 has a vertex that is not an integer: 2.5 (at /surface/triangles/3/1)"),
    ("[1,true,3]",
     "triangle 3 has a vertex that is not an integer: True (at /surface/triangles/3/1)"),
    ("[1,2]", "triangle 3 does not have 3 vertices: (1, 2) (at /surface/triangles/3)"),
], ids=["float", "true", "wrong width"])
def test_a_compact_bad_row_is_reported_without_numpy(tmp_path, row, message):
    path = tmp_path / "row.json"
    path.write_text('{"surface":{"vertices":4,"triangles":[[0,1,2],[0,1,3],[0,2,3],%s]}}' % row)
    env = dict(os.environ, PYTHONPATH=str(Path(btangent.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _BAD_ROW, str(path)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == message + "\n"


def test_every_public_name_is_reachable():
    star: dict = {}
    exec("from btangent import *", star)
    assert set(btangent.__all__) <= set(star)
    assert set(btangent.__all__) <= set(dir(btangent))
    # every lazily exported name is public and is the spheremap object itself
    assert set(btangent._SPHEREMAP_NAMES) <= set(btangent.__all__)
    for name in btangent._SPHEREMAP_NAMES:
        assert getattr(btangent, name) is getattr(spheremap, name), name


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
