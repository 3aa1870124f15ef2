"""Command-line interface.

Subcommands map onto the library one to one: analyze (equivalence verdict),
euler (both Euler numbers), color (two-coloring), index (winding index of a
named plane field), sphere (degree computations), edge (edge-structure
obstruction test), ph-verify (index-sum check on the two-chart sphere).

Exit codes: 0 success, 2 mathematically negative verdict (not colorable,
obstructed, verification failed), 1 operational error (bad input, and
every usage error such as an unknown or malformed flag).  Reports go to
stdout as UTF-8 and end with a newline; identical invocations with
identical seeds produce byte-identical output.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Tuple

# only what parsing needs loads with the module; each _run_* imports what it
# runs, so a cold start loads the modules of its own subcommand alone
from .errors import BTangentError, InvalidArgumentError, NotColorableError

if TYPE_CHECKING:
    from .bgraph import BGraph


class _FieldNames:
    """windex.FIELD_NAMES as the choices of index's FIELD: windex loads only
    when argparse checks a FIELD or prints the choices, not when it builds
    the parser of every subcommand."""

    def __contains__(self, name) -> bool:
        from .windex import FIELD_NAMES

        return name in FIELD_NAMES

    def __iter__(self):
        from .windex import FIELD_NAMES

        return iter(FIELD_NAMES)


_FIELD_CHOICES = _FieldNames()


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as BTangentError, so they exit 1 like any other."""

    def error(self, message: str):
        raise BTangentError(message)


def _load_input(name: str) -> BGraph:
    from .manifold_io import BUNDLED_NAMES, bundled_path, load_manifold

    p = Path(name)
    if not p.exists():
        if p.name != name:
            raise BTangentError(f"no such file {name!r}")
        try:
            p = bundled_path(name)
        except KeyError:
            raise BTangentError(
                f"no such file {name!r} and no bundled manifold of that name "
                f"(bundled: {', '.join(BUNDLED_NAMES)})"
            ) from None
    return load_manifold(p)


def _render_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _render_markdown(title: str, obj: dict) -> str:
    lines = [f"# {title}", "", "| field | value |", "| --- | --- |"]
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        # labels come from the input document; a bare | would split the cell
        cell = str(value).replace("|", "\\|")
        lines.append(f"| {key} | {cell} |")
    return "\n".join(lines) + "\n"


def _dot_escape(label: str) -> str:
    """label for a DOT quoted string: backslash and double quote escaped."""
    return label.replace("\\", "\\\\").replace('"', '\\"')


def _render_dot(g: BGraph, coloring) -> str:
    lines = ["graph regions {", "  node [style=filled];"]
    if coloring is None:
        lines.insert(1, "  // NOT TWO-COLORABLE")
    for r in g.regions:
        fill = "white"
        if coloring is not None:
            fill = "white" if coloring[r.label] == 1 else "gray"
        label = _dot_escape(r.label)
        lines.append(f'  "{label}" [fillcolor={fill} label="{label}\\nchi={r.euler_char}"];')
    for e in g.edges:
        a, b, label = map(_dot_escape, (e.side_a, e.side_b, e.label))
        lines.append(f'  "{a}" -- "{b}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit(args: argparse.Namespace, obj: dict, g: Optional[BGraph] = None, coloring=None) -> str:
    if args.format == "markdown":
        return _render_markdown(args.subcommand, obj)
    if args.format == "dot":
        return _render_dot(g, coloring)
    return _render_json(obj)


def _run_analyze(args: argparse.Namespace) -> Tuple[int, str]:
    from .obstructions import classify_bm, equivalence_report

    g = _load_input(args.input)
    verdict = equivalence_report(g)
    obj = verdict.to_json_dict()
    if args.m is not None:
        obj["bm_classification"] = {"m": args.m, "class": classify_bm(args.m).value}
    return (0 if verdict.two_colorable else 2), _emit(args, obj, g, verdict.coloring)


def _run_euler(args: argparse.Namespace) -> Tuple[int, str]:
    from .obstructions import euler_report

    g = _load_input(args.input)
    try:
        report = euler_report(g)
    except NotColorableError as exc:
        obj = {"two_colorable": False, "verdict": "NOT TWO-COLORABLE", "error": str(exc)}
        return 2, _emit(args, obj, g)
    return 0, _emit(args, report.to_json_dict(), g, report.coloring_used)


def _run_color(args: argparse.Namespace) -> Tuple[int, str]:
    from .obstructions import two_color

    g = _load_input(args.input)
    coloring = two_color(g)
    if coloring is None:
        obj = {"two_colorable": False, "coloring": None, "verdict": "NOT TWO-COLORABLE"}
        return 2, _emit(args, obj, g)
    obj = {"two_colorable": True, "coloring": coloring.to_json_dict(), "verdict": "TWO-COLORABLE"}
    return 0, _emit(args, obj, g, coloring)


def _run_index(args: argparse.Namespace) -> Tuple[int, str]:
    from .windex import default_center, field_index

    name, delta = args.field_name, args.delta
    if not math.isfinite(delta):
        raise InvalidArgumentError(f"--delta must be finite, got {delta}")
    result = field_index(name, delta, args.radius, args.frame)
    obj = {"field": name, "frame": args.frame, "delta": delta,
           "center": list(default_center(name, delta))}
    obj.update(result.to_json_dict())
    return 0, _emit(args, obj)


def _run_sphere(args: argparse.Namespace) -> Tuple[int, str]:
    from .spheremap import sphere_map_report

    report = sphere_map_report(args.n, samples=args.samples, seed=args.seed)
    return 0, _emit(args, report.to_json_dict())


def _run_edge(args: argparse.Namespace) -> Tuple[int, str]:
    from .obstructions import EdgeVerdict, _canonical_coloring, edge_obstruction

    g = _load_input(args.input)
    verdict = edge_obstruction(g, args.dim_m, args.dim_f)
    obj = {
        "verdict": verdict.value,
        "dim_m": args.dim_m,
        "dim_f": args.dim_f,
        "codimension": args.dim_m - args.dim_f,
        "two_colorable": _canonical_coloring(g) is not None,
    }
    code = 2 if verdict is EdgeVerdict.OBSTRUCTED else 0
    return code, _emit(args, obj)


def _unordered(g: BGraph) -> tuple:
    """g up to the order of its regions, of its edges and of each edge's two sides."""
    edges = sorted((label, *sorted((a, b))) for label, a, b in g.edges)
    return sorted(g.regions), edges, g.ambient_dim, g.orientable


def _run_ph_verify(args: argparse.Namespace) -> Tuple[int, str]:
    from .obstructions import sphere_height_example, two_color, verify_poincare_hopf

    g = _load_input(args.input)
    kit = sphere_height_example()
    if _unordered(g) != _unordered(kit["graph"]):
        raise BTangentError("ph-verify supports only the sphere cut along its equator "
                            "(bundled sphere_equator)")
    report = verify_poincare_hopf(
        kit["zeros"], g, two_color(g), kit["fields"], radius=args.radius,
        critical_distance=kit["critical_distance"],
    )
    return (0 if report.passed else 2), _emit(args, report.to_json_dict())


def run(args: argparse.Namespace) -> Tuple[int, str]:
    """Execute one parsed subcommand; returns (exit code, report text)."""
    return args.runner(args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="btangent",
        description="Isomorphism obstructions and index sums for rescaled tangent bundles.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, summary: str, runner: Callable[[argparse.Namespace], Tuple[int, str]],
                needs_input: bool = True, dot: bool = False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(runner=runner)
        if needs_input:
            p.add_argument("input", metavar="INPUT", help="manifold JSON file (or a bundled name)")
        p.add_argument("--format", default="json",
                       choices=("json", "markdown", "dot") if dot else ("json", "markdown"))
        return p

    p = command("analyze", "full equivalence verdict for a region graph", _run_analyze, dot=True)
    p.add_argument("--m", type=int, help="also classify the order-m rescaling")

    command("euler", "rescaled and classical Euler numbers", _run_euler, dot=True)
    command("color", "two-coloring of the region graph", _run_color, dot=True)

    p = command("index", "winding index of a named plane field", _run_index,
                needs_input=False)
    p.add_argument("field_name", choices=_FIELD_CHOICES, metavar="FIELD",
                   help="one of: %(choices)s")
    p.add_argument("--delta", type=float, default=0.0, help="parameter of the x_delta family")
    p.add_argument("--radius", type=float,
                   help="contour radius (default 0.1, at most |delta|/2 for x_delta)")
    p.add_argument("--frame", default="honest", choices=("honest", "b"),
                   help="compute the index of the honest field or of its rescaled frame")

    p = command("sphere", "degree of the reflection-induced sphere map", _run_sphere,
                needs_input=False)
    p.add_argument("--n", type=int, default=2, help="ambient dimension (sphere S^{n-1}), default 2")
    p.add_argument("--samples", type=int, default=200_000,
                   help="Monte Carlo samples, default 200000")
    p.add_argument("--seed", type=int, default=0, help="generator seed, default 0")

    p = command("edge", "edge-structure obstruction test", _run_edge)
    p.add_argument("--dim-m", type=int, required=True, help="ambient dimension")
    p.add_argument("--dim-f", type=int, required=True, help="typical fibre dimension")

    p = command("ph-verify", "index-sum verification on the two-chart sphere", _run_ph_verify)
    p.add_argument("--radius", type=float, default=0.1, help="contour radius (default 0.1)")

    return parser


def main(argv: Optional[list] = None) -> int:
    # one command per process builds few cycles, and collecting them costs a
    # large load more than it frees; the caller's setting comes back on return
    collecting = gc.isenabled()
    gc.disable()
    try:
        code, text = run(build_parser().parse_args(argv))
    except (BTangentError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        if collecting:
            gc.enable()
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
