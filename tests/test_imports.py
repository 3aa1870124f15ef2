import os
import subprocess
import sys
from pathlib import Path

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


def test_every_public_name_is_reachable():
    star: dict = {}
    exec("from btangent import *", star)
    assert set(btangent.__all__) <= set(star)
    assert set(btangent.__all__) <= set(dir(btangent))
    # every lazily exported name is public and is the spheremap object itself
    assert set(btangent._SPHEREMAP_NAMES) <= set(btangent.__all__)
    for name in btangent._SPHEREMAP_NAMES:
        assert getattr(btangent, name) is getattr(spheremap, name), name
