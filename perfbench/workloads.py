"""The four workloads: one round of operations each, how an operation calls
the program, how its output is checked, and the extra calls a traced run
makes to split a layer's time from outside.

Every call into the program goes through `call(span_name, fn, *args)`, which
the traced run records as a span and the untraced run passes straight on.
Each workload gives most of its time to different layers:

  surface   manifold_io + bgraph (triangulated surfaces, 2e3 to 8e4 triangles)
  graph     obstructions (dense GF(2) elimination on 400 to 2000 regions)
  sphere    spheremap (numpy kernels only, no graph code)
  cli_cold  interpreter start-up and `import btangent`, plus windex and flags
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import checks as C
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

Call = Callable[..., Any]


def plain_call(name: str, fn: Callable, *args):
    return fn(*args)


def _bt():
    import btangent
    return btangent


@dataclass
class Op:
    label: str
    arg: Any
    expect: Any = None
    known_fault: bool = False
    data: Any = None  # what a traced run needs for its extra calls


class Workload:
    name = ""

    def make_round(self, seed: int, smoke: bool, workdir: Path) -> List[Op]:
        raise NotImplementedError

    def run(self, op: Op, call: Call) -> Any:
        raise NotImplementedError

    def check(self, op: Op, out: Any) -> List[str]:
        raise NotImplementedError

    def split(self, op: Op, out: Any, call: Call, tally: Counter) -> None:
        """Traced runs only: extra calls that time a layer on its own."""

    def split_round(self, call: Call, tally: Counter) -> None:
        """Traced runs only: extra measurements taken once a round."""


def _gauge(g):
    bt = _bt()
    return bt.gauge_solvable(bt.SignGluing.canonical(g), g)


def _tally_gf2(g, tally: Counter) -> None:
    # the dense system gauge_solvable assembles is one uint8 per edge and region
    size = len(g.edges) * len(g.regions)
    key = "obstructions.gf2_matrix_bytes"
    tally[key] = max(tally[key], size)


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

# (Klein bottle?, columns, rows, loop class, disks); a loop class is 0, 1,
# "even" or "odd", and disks=None draws 1 to 4. The one 8e4-triangle torus is
# the slowest operation; the six equal tori below it come next, so the tail
# percentile of a run lands among identical operations for any run of 2 to 10
# rounds. Below them come the four 480x20 Klein bottles and seven small
# surfaces: with three rounds the median lands in the middle of the Klein
# bottles, not at their border with the tori. The Klein bottles are short in
# their flipping direction, so the orientability search meets its
# contradiction early.
SURFACE_ROUND = (
    (False, 200, 200, "even", 6),
    *((False, 96, 96, c, None) for c in (0, 1, "even", "odd", "even", "odd")),
    *((True, 480, 20, c, None) for c in (0, 1, "even", "odd")),
    (False, 32, 32, 0, None),
    (False, 40, 50, 1, None),
    (False, 48, 48, "even", None),
    (True, 120, 16, "odd", None),
    (False, 36, 60, "odd", None),
    (False, 32, 40, "even", None),
    (True, 96, 16, 1, None),
)
SURFACE_SMOKE = (
    (False, 12, 12, 0, 1),
    (False, 12, 12, 1, 1),
    (False, 16, 16, "even", 2),
    (False, 16, 16, "odd", 1),
    (True, 24, 12, 0, 1),
    (True, 24, 16, "odd", 1),
)


def _loop_count(rng: random.Random, cls, rows: int) -> int:
    if cls in (0, 1):
        return cls
    parity = 1 if cls == "odd" else 0
    return rng.choice([k for k in range(2, min((rows - 1) // 4, 6) + 1) if k % 2 == parity])


class Surface(Workload):
    name = "surface"

    def make_round(self, seed, smoke, workdir):
        rng = random.Random(f"surface-{seed}")
        ops = []
        for i, (klein, n, m, cls, disks) in enumerate(SURFACE_SMOKE if smoke else SURFACE_ROUND):
            k = _loop_count(rng, cls, m)
            spec = gen.random_surface(rng, klein, n, m, k, disks or rng.randint(1, 4))
            path = workdir / f"surface-{i:02d}.json"
            gen.write_json(path, gen.surface_document(spec))
            label = f"{'klein' if klein else 'torus'}-{n}x{m}-k{k}-{i}"
            ops.append(Op(label, path, gen.surface_expect(spec), data=spec))
        return ops

    def run(self, op, call):
        bt = _bt()
        g = call("manifold_io.load_manifold", bt.load_manifold, op.arg)
        out = {"graph": g}
        try:
            out["verdict"] = call("obstructions.equivalence_report", bt.equivalence_report, g)
        except bt.NotOrientableError:
            out["verdict"] = "NotOrientableError"
        out["gauge"] = call("obstructions.gauge_solvable", _gauge, g)
        if op.expect.colorable:
            out["euler"] = call("euler.euler_report", bt.euler_report, g)
        return out

    def check(self, op, out):
        return C.check_surface(op.expect, out)

    def split(self, op, out, call, tally):
        bt = _bt()
        if not isinstance(op.data, bt.TriangulatedSurface):  # built once, in the first round
            s = gen.surface_document(op.data)["surface"]
            op.data = bt.TriangulatedSurface(s["vertices"], tuple(map(tuple, s["triangles"])),
                                             tuple(map(tuple, s["z_edges"])))
        surf = op.data
        call("bgraph.build_graph_from_surface", bt.build_graph_from_surface, surf)
        call("bgraph.surface_euler", bt.surface_euler, surf)
        call("bgraph.surface_orientable", bt.surface_orientable, surf)
        g = out["graph"]
        tally["bgraph.triangles"] += len(surf.triangles)
        tally["bgraph.regions"] += len(g.regions)
        tally["bgraph.z_components"] += len(g.edges)
        _tally_gf2(g, tally)


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

# Cycles (circles with k marked points) of both parities, then random
# connected graphs with a planted bipartition, broken by nothing, by one
# same-side edge ("odd") or by a loop. The eight equal 2000-region random
# graphs are the slowest operations and hold the tail percentile; the
# cycles' cost depends on their seeded label order, so the five 1000-region
# random graphs sit where the median lands (ranks 11 and 12 of 22).
GRAPH_CYCLES = (2000, 1999, 1000, 1001, 400, 401)
GRAPH_PLANTED = (
    *((2000, 3000, d) for d in ("none", "none", "none", "odd", "odd", "odd", "loop", "loop")),
    *((1000, 1500, d) for d in ("none", "none", "odd", "odd", "loop")),
    *((400, 600, d) for d in ("none", "odd", "loop")),
)
GRAPH_SMOKE_CYCLES = (40, 41)
GRAPH_SMOKE_PLANTED = ((60, 90, "none"), (60, 90, "odd"), (60, 90, "loop"))


class Graph(Workload):
    name = "graph"

    def make_round(self, seed, smoke, workdir):
        rng = random.Random(f"graph-{seed}")
        made = [(f"cycle-{k}", *gen.cycle_graph(rng, k))
                for k in (GRAPH_SMOKE_CYCLES if smoke else GRAPH_CYCLES)]
        made += [(f"planted-{v}-{e}-{d}", *gen.planted_graph(rng, v, e, d))
                 for v, e, d in (GRAPH_SMOKE_PLANTED if smoke else GRAPH_PLANTED)]
        ops = []
        for i, (label, doc, expect) in enumerate(made):
            path = workdir / f"graph-{i:02d}.json"
            gen.write_json(path, doc)
            ops.append(Op(f"{label}-{i}", path, expect))
        return ops

    def run(self, op, call):
        bt = _bt()
        g = call("manifold_io.load_manifold", bt.load_manifold, op.arg)
        out = {
            "graph": g,
            "verdict": call("obstructions.equivalence_report", bt.equivalence_report, g),
            "gauge": call("obstructions.gauge_solvable", _gauge, g),
            "edge_odd": call("obstructions.edge_obstruction", bt.edge_obstruction, g, 3, 2),
            "edge_even": call("obstructions.edge_obstruction", bt.edge_obstruction, g, 4, 2),
        }
        if op.expect.colorable and op.expect.ambient_dim % 2 == 0:
            out["euler"] = call("euler.euler_report", bt.euler_report, g)
        return out

    def check(self, op, out):
        return C.check_graph(op.expect, out)

    def split(self, op, out, call, tally):
        call("obstructions.two_color", _bt().two_color, out["graph"])
        _tally_gf2(out["graph"], tally)


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------

SPHERE_SAMPLES = 200_000
SPHERE_SMOKE_SAMPLES = 50_000


class Sphere(Workload):
    name = "sphere"

    def make_round(self, seed, smoke, workdir):
        samples = SPHERE_SMOKE_SAMPLES if smoke else SPHERE_SAMPLES
        seeds = (seed,) if smoke else (seed, seed + 1_000_003)
        ops = [Op(f"report-n{n}-s{s}", ("report", n, samples, s))
               for s in seeds for n in range(2, 9)]
        ops += [Op(f"homotopy-n{n}", ("homotopy", n)) for n in (3, 5, 7)]
        return ops

    def run(self, op, call):
        bt = _bt()
        if op.arg[0] == "report":
            _, n, samples, seed = op.arg
            return call("spheremap.sphere_map_report", bt.sphere_map_report, n, samples, seed)
        return call("spheremap.homotopy_endpoints", bt.homotopy_endpoints, op.arg[1])

    def check(self, op, out):
        if op.arg[0] == "report":
            _, n, samples, _ = op.arg
            return C.check_sphere_report(n, samples, out)
        return C.check_homotopy(op.arg[1], out)

    def split(self, op, out, call, tally):
        if op.arg[0] != "report":
            return
        bt = _bt()
        _, n, samples, seed = op.arg
        call("spheremap.degree_integral", bt.degree_integral, n, samples, seed)
        call("spheremap.degree_preimage", bt.degree_preimage, n)
        tally["spheremap.samples"] += samples
        tally["spheremap.reports"] += 1
        tally["spheremap.abs_dev_sum"] += abs(out.degree_integral - C.exact_degree(n))


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

CLI_TIMEOUT_S = 120
IMPORT_TIMER = ("import time; t = time.perf_counter(); import {0}; "
                "print(time.perf_counter() - t)")


def child_env() -> Dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def cold(argv: Sequence[str]) -> subprocess.CompletedProcess:
    """One fresh interpreter, run to its end; killed and reaped on timeout."""
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=CLI_TIMEOUT_S)


@dataclass(frozen=True)
class Invocation:
    argv: Tuple[str, ...]
    check: C.CliCheck
    smoke: bool = False  # also in the smoke round
    fault: bool = False  # fails today because of a known fault in the program
    windex: Optional[Tuple[str, float, float, str]] = None  # field, delta, radius, frame

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _analyze(name: str, colorable: bool, split=None, m: Optional[int] = None, **kw):
    fields = {key: colorable for key in (
        "two_colorable", "line_bundle_trivial", "sw_classes_equal",
        "b_tangent_orientable", "global_defining_function", "ko_classes_equal")}
    argv = ("analyze", name)
    if m is not None:
        argv += ("--m", str(m))
        fields["bm_classification"] = {
            "m": m, "class": "TangentEquivalent" if m % 2 == 0 else "BTangentEquivalent"}
    more = C.split_coloring(split) if split else None
    return Invocation(argv, C.cli_report(0 if colorable else 2, fields, more), **kw)


def _edge(name: str, dim_m: int, dim_f: int, obstructed: bool, **kw):
    argv = ("edge", name, "--dim-m", str(dim_m), "--dim-f", str(dim_f))
    fields = {"verdict": "Obstructed" if obstructed else "Inconclusive",
              "codimension": dim_m - dim_f}
    return Invocation(argv, C.cli_report(2 if obstructed else 0, fields), **kw)


def _index(field: str, want: int, *flags: str, delta=0.0, radius=0.1, frame="honest", **kw):
    return Invocation(("index", field, *flags), C.cli_report(0, {"index": want}),
                      windex=(field, delta, radius, frame), **kw)


def cli_round(seed: int, surface: str, expect: gen.SurfaceExpect) -> List[Invocation]:
    """Every subcommand on the bundled manifolds and on one generated surface.

    Expected exit codes and fields come from theory: the equator splits the
    sphere into two disks (b-Euler 0, chi 2), the torus loop is a loop edge,
    a circle with k points is colorable iff k is even, an index is the sign
    of the Jacobian at an isolated zero, and so on.
    """
    sphere = [["B+"], ["B-"]]
    circle4 = [["A0", "A2"], ["A1", "A3"]]
    genus2 = [["H1"], ["H2"]]
    col = expect.colorable
    if col:
        gen_euler = C.cli_report(0, {"classical_euler": 0}, lambda doc: (
            [] if abs(doc["b_euler"]) == expect.b_euler_abs
            else [f"|b_euler| {abs(doc['b_euler'])}, expected {expect.b_euler_abs}"]))
    else:
        gen_euler = C.cli_report(2, {"two_colorable": False})
    return [
        _analyze("sphere_equator", True, sphere, smoke=True),
        _analyze("torus_loop", False),
        _analyze("circle_4_points", True, circle4),
        _analyze("genus2_separating", True, genus2, m=3),
        Invocation(("analyze", "sphere_equator", "--m", "2", "--format", "markdown"),
                   C.cli_report(0, text=("| two_colorable | True |",
                                         '"class": "TangentEquivalent"'))),
        Invocation(("euler", "sphere_equator"),
                   C.cli_report(0, {"b_euler": 0, "classical_euler": 2},
                                C.split_coloring(sphere)), smoke=True),
        Invocation(("euler", "genus2_separating"),
                   C.cli_report(0, {"b_euler": 0, "classical_euler": -2})),
        Invocation(("euler", "circle_4_points"), C.cli_error()),
        Invocation(("color", "circle_4_points"),
                   C.cli_report(0, {"two_colorable": True}, C.split_coloring(circle4)),
                   smoke=True),
        _edge("torus_loop", 3, 2, True, smoke=True),
        _edge("torus_loop", 4, 2, False),
        _edge("circle_3_points", 2, 1, True),
        Invocation(("ph-verify", "sphere_equator"),
                   C.cli_report(0, {"passed": True, "colored_sum": 0, "b_euler": 0,
                                    "unsigned_sum": 2, "classical_euler": 2}), smoke=True),
        Invocation(("ph-verify", "genus2_separating"),
                   C.cli_fault(C.cli_report(0, {"passed": True, "b_euler": 0,
                                                "unsigned_sum": -2, "classical_euler": -2})),
                   smoke=True, fault=True),
        _index("x_delta", 1, "--delta", "0.5", delta=0.5, smoke=True),
        _index("saddle", -1),
        _index("x0_degenerate", 1, "--frame", "b", frame="b"),
        _index("sphere_height_b", 1, "--radius", "0.3", radius=0.3),
        Invocation(("index", "x_delta", "--delta", "0.05"),
                   C.cli_fault(C.cli_report(0, {"index": 1})), smoke=True, fault=True),
        Invocation(("index", "x_delta", "--delta", "abc"), C.cli_error()),
        Invocation(("sphere",), C.cli_report(0, more=C.degree_report(2, 200_000)), smoke=True),
        Invocation(("sphere", "--n", "3", "--samples", "20000", "--seed", str(seed)),
                   C.cli_report(0, more=C.degree_report(3, 20_000))),
        Invocation(("sphere", "--samples", "100"),
                   C.cli_fault(C.cli_report(0, more=C.degree_report(2, 100))),
                   smoke=True, fault=True),
        _analyze(surface, col, m=2),
        Invocation(("analyze", surface, "--format", "dot"),
                   C.cli_report(0 if col else 2, text=("graph regions {",) + (
                       () if col else ("NOT TWO-COLORABLE",)))),
        Invocation(("euler", surface), gen_euler),
        Invocation(("color", surface),
                   C.cli_report(0 if col else 2, {"two_colorable": col}, (lambda doc: (
                       [] if len(doc["coloring"]) == expect.regions
                       else [f"coloring of {len(doc['coloring'])} regions"])) if col else None)),
        _edge(surface, 3, 2, not col),
        Invocation(("analyze", "no_such_manifold.json"), C.cli_error()),
    ]


class CliCold(Workload):
    name = "cli_cold"

    def __init__(self):
        self._first: Dict[str, bytes] = {}

    def make_round(self, seed, smoke, workdir):
        rng = random.Random(f"cli_cold-{seed}")
        # large enough that its five invocations are the slowest of a round,
        # so the tail percentile lands among them. Two loops and two disks for
        # every seed (the seed places them): the five take the same paths and
        # nearly the same time whatever the seed (torus_loop is the
        # uncolorable case)
        spec = gen.random_surface(rng, False, 64, 80, 2, 2)
        path = workdir / "generated.json"
        gen.write_json(path, gen.surface_document(spec))
        surface = str(path)
        return [Op(inv.label.replace(surface, "generated"), inv.argv, inv.check,
                   known_fault=inv.fault, data=inv.windex)
                for inv in cli_round(seed, surface, gen.surface_expect(spec))
                if inv.smoke or not smoke]

    def run(self, op, call):
        span = "cli." + op.arg[0].replace("-", "_")
        proc = call(span, cold, ["-m", "btangent.cli", *op.arg])
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, out):
        code, stdout, stderr = out
        problems = op.expect(code, stdout, stderr)
        if stdout != self._first.setdefault(op.label, stdout):
            problems.append("stdout differs from an earlier identical invocation")
        return problems

    def split(self, op, out, call, tally):
        bt = _bt()
        if op.arg == ("ph-verify", "sphere_equator"):
            kit = bt.sphere_height_example()
            g = kit["graph"]
            call("windex.verify_poincare_hopf", bt.verify_poincare_hopf, kit["zeros"], g,
                 bt.two_color(g), kit["fields"], 0.1, kit["critical_distance"])
        elif op.data is not None:
            field, delta, radius, frame = op.data
            f = (bt.named_b_field(field, delta).frame() if frame == "b"
                 else bt.named_field(field, delta))
            res = call("windex.winding_index", bt.winding_index, f,
                       bt.default_center(field, delta), radius)
            tally["windex.samples_used"] += res.samples_used

    def split_round(self, call, tally):
        # import cost inside a cold interpreter, apart from its start-up
        for module in ("numpy", "btangent"):
            proc = cold(["-c", IMPORT_TIMER.format(module)])
            tally[f"cli.import_{module}_s"] = float(proc.stdout)


WORKLOADS = {w.name: w for w in (Surface, Graph, Sphere, CliCold)}
