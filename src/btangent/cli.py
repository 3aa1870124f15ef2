"""Command-line interface.

Subcommands map onto the library one to one: analyze (equivalence verdict),
euler (both Euler numbers), color (two-coloring), index (winding index of a
named plane field), sphere (degree computations), edge (edge-structure
obstruction test), ph-verify (index-sum check on the two-chart sphere).

Exit codes: 0 success, 2 mathematically negative verdict (not colorable,
obstructed, verification failed), 1 operational error (bad input, bad
flags).  Reports go to stdout as UTF-8 and end with a newline; identical
invocations with identical seeds produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from .bgraph import BGraph, sphere_equator_graph
from .errors import BTangentError, NotColorableError
from .euler import euler_report
from .manifold_io import BUNDLED_NAMES, bundled_path, load_manifold
from .obstructions import EdgeVerdict, classify_bm, edge_obstruction, equivalence_report, two_color
from .spheremap import sphere_map_report
from .windex import (
    b_frame_index,
    default_center,
    named_b_field,
    named_field,
    sphere_height_example,
    verify_poincare_hopf,
    winding_index,
)

FIELD_NAMES = ("x_delta", "radial", "saddle", "x0_degenerate", "sphere_height_b")


@dataclass
class RunConfig:
    subcommand: str
    input_path: Optional[str] = None
    output_format: str = "json"
    n: Optional[str] = None
    m: Optional[str] = None
    delta: Optional[str] = None
    samples: Optional[str] = None
    seed: Optional[str] = None
    radius: Optional[str] = None
    dim_m: Optional[str] = None
    dim_f: Optional[str] = None
    field_name: Optional[str] = None
    frame: str = "honest"


def _decimal(text: Optional[str], default, conv, name: str):
    if text is None:
        return default
    try:
        return conv(text)
    except ValueError as exc:
        raise BTangentError(f"flag --{name} expects a decimal value, got {text!r}") from exc


def _resolve_input(cfg: RunConfig) -> Path:
    if cfg.input_path is None:
        raise BTangentError("this subcommand needs --input (a manifold JSON file)")
    p = Path(cfg.input_path)
    if p.exists():
        return p
    stem = p.name[: -len(".json")] if p.name.endswith(".json") else p.name
    if stem in BUNDLED_NAMES:
        return bundled_path(stem)
    raise BTangentError(
        f"no such file {cfg.input_path!r} and no bundled manifold of that name "
        f"(bundled: {', '.join(BUNDLED_NAMES)})"
    )


def _render_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _render_markdown(title: str, obj: dict) -> str:
    lines = [f"# {title}", "", "| field | value |", "| --- | --- |"]
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"| {key} | {value} |")
    return "\n".join(lines) + "\n"


def _render_dot(g: BGraph, coloring, note: str = "") -> str:
    lines = ["graph regions {", "  node [style=filled];"]
    if note:
        lines.insert(1, f"  // {note}")
    for r in g.regions:
        fill = "white"
        if coloring is not None:
            fill = "white" if coloring[r.label] == 1 else "gray"
        lines.append(f'  "{r.label}" [fillcolor={fill} label="{r.label}\\nchi={r.euler_char}"];')
    for e in g.edges:
        lines.append(f'  "{e.side_a}" -- "{e.side_b}" [label="{e.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit(cfg: RunConfig, title: str, obj: dict, g: Optional[BGraph] = None, coloring=None,
          note: str = "") -> str:
    if cfg.output_format == "json":
        return _render_json(obj)
    if cfg.output_format == "markdown":
        return _render_markdown(title, obj)
    if cfg.output_format == "dot":
        if g is None:
            raise BTangentError(f"subcommand {cfg.subcommand!r} has no DOT form")
        return _render_dot(g, coloring, note)
    raise BTangentError(f"unknown format {cfg.output_format!r}")


def _run_analyze(cfg: RunConfig) -> Tuple[int, str]:
    g = load_manifold(_resolve_input(cfg))
    verdict = equivalence_report(g)
    obj = verdict.to_json_dict()
    if cfg.m is not None:
        m = _decimal(cfg.m, None, int, "m")
        obj["bm_classification"] = {"m": m, "class": classify_bm(m).value}
    code = 0 if verdict.two_colorable else 2
    note = "" if verdict.two_colorable else "NOT TWO-COLORABLE"
    return code, _emit(cfg, "analyze", obj, g, verdict.coloring, note)


def _run_euler(cfg: RunConfig) -> Tuple[int, str]:
    g = load_manifold(_resolve_input(cfg))
    try:
        report = euler_report(g)
    except NotColorableError as exc:
        obj = {"two_colorable": False, "verdict": "NOT TWO-COLORABLE", "error": str(exc)}
        return 2, _emit(cfg, "euler", obj, g, None, "NOT TWO-COLORABLE")
    return 0, _emit(cfg, "euler", report.to_json_dict(), g, report.coloring_used)


def _run_color(cfg: RunConfig) -> Tuple[int, str]:
    g = load_manifold(_resolve_input(cfg))
    coloring = two_color(g)
    if coloring is None:
        obj = {"two_colorable": False, "coloring": None, "verdict": "NOT TWO-COLORABLE"}
        return 2, _emit(cfg, "color", obj, g, None, "NOT TWO-COLORABLE")
    obj = {"two_colorable": True, "coloring": coloring.to_json_dict(), "verdict": "TWO-COLORABLE"}
    return 0, _emit(cfg, "color", obj, g, coloring)


def _run_index(cfg: RunConfig) -> Tuple[int, str]:
    name = cfg.field_name
    if name not in FIELD_NAMES:
        raise BTangentError(f"unknown field {name!r}; choose from {', '.join(FIELD_NAMES)}")
    delta = _decimal(cfg.delta, 0.0, float, "delta")
    radius = _decimal(cfg.radius, 0.1, float, "radius")
    center = default_center(name, delta)
    if cfg.frame == "b":
        result = b_frame_index(named_b_field(name, delta), center, radius)
    else:
        result = winding_index(named_field(name, delta), center, radius)
    obj = {"field": name, "frame": cfg.frame, "delta": delta, "center": list(center)}
    obj.update(result.to_json_dict())
    return 0, _emit(cfg, "index", obj)


def _run_sphere(cfg: RunConfig) -> Tuple[int, str]:
    n = _decimal(cfg.n, 2, int, "n")
    samples = _decimal(cfg.samples, 200_000, int, "samples")
    seed = _decimal(cfg.seed, 0, int, "seed")
    report = sphere_map_report(n, samples=samples, seed=seed)
    return 0, _emit(cfg, "sphere", report.to_json_dict())


def _run_edge(cfg: RunConfig) -> Tuple[int, str]:
    g = load_manifold(_resolve_input(cfg))
    if cfg.dim_m is None or cfg.dim_f is None:
        raise BTangentError("edge needs --dim-m and --dim-f")
    dim_m = _decimal(cfg.dim_m, None, int, "dim-m")
    dim_f = _decimal(cfg.dim_f, None, int, "dim-f")
    verdict = edge_obstruction(g, dim_m, dim_f)
    obj = {
        "verdict": verdict.value,
        "dim_m": dim_m,
        "dim_f": dim_f,
        "codimension": dim_m - dim_f,
        "two_colorable": two_color(g) is not None,
    }
    code = 2 if verdict is EdgeVerdict.OBSTRUCTED else 0
    return code, _emit(cfg, "edge", obj)


def _run_ph_verify(cfg: RunConfig) -> Tuple[int, str]:
    g = load_manifold(_resolve_input(cfg))
    if g != sphere_equator_graph():
        raise BTangentError("ph-verify supports only the sphere cut along its equator "
                            "(bundled sphere_equator)")
    radius = _decimal(cfg.radius, 0.1, float, "radius")
    kit = sphere_height_example()
    coloring = two_color(g)
    if coloring is None:
        obj = {"two_colorable": False, "verdict": "NOT TWO-COLORABLE"}
        return 2, _emit(cfg, "ph-verify", obj, g, None, "NOT TWO-COLORABLE")
    report = verify_poincare_hopf(
        kit["zeros"], g, coloring, kit["fields"], radius=radius,
        critical_distance=kit["critical_distance"],
    )
    return (0 if report.passed else 2), _emit(cfg, "ph-verify", report.to_json_dict())


_RUNNERS = {
    "analyze": _run_analyze,
    "euler": _run_euler,
    "color": _run_color,
    "index": _run_index,
    "sphere": _run_sphere,
    "edge": _run_edge,
    "ph-verify": _run_ph_verify,
}


def run(cfg: RunConfig) -> Tuple[int, str]:
    """Execute one configured subcommand; returns (exit code, report text)."""
    return _RUNNERS[cfg.subcommand](cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btangent",
        description="Isomorphism obstructions and index sums for rescaled tangent bundles.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, needs_input: bool = False):
        if needs_input:
            p.add_argument("input_pos", nargs="?", metavar="INPUT", default=None,
                           help="manifold JSON file (or a bundled name)")
            p.add_argument("--input", default=None, help="manifold JSON file (or a bundled name)")
        p.add_argument("--format", default="json", choices=("json", "markdown", "dot"),
                       dest="output_format")

    p = sub.add_parser("analyze", help="full equivalence verdict for a region graph")
    common(p, needs_input=True)
    p.add_argument("--m", default=None, help="also classify the order-m rescaling")

    p = sub.add_parser("euler", help="rescaled and classical Euler numbers")
    common(p, needs_input=True)

    p = sub.add_parser("color", help="two-coloring of the region graph")
    common(p, needs_input=True)

    p = sub.add_parser("index", help="winding index of a named plane field")
    p.add_argument("field_name", choices=FIELD_NAMES, metavar="FIELD",
                   help=f"one of: {', '.join(FIELD_NAMES)}")
    p.add_argument("--delta", default=None, help="parameter of the x_delta family")
    p.add_argument("--radius", default=None, help="contour radius (default 0.1)")
    p.add_argument("--frame", default="honest", choices=("honest", "b"),
                   help="compute the index of the honest field or of its rescaled frame")
    common(p)

    p = sub.add_parser("sphere", help="degree of the reflection-induced sphere map")
    p.add_argument("--n", default=None, help="ambient dimension (sphere S^{n-1}), default 2")
    p.add_argument("--samples", default=None, help="Monte Carlo samples, default 200000")
    p.add_argument("--seed", default=None, help="generator seed, default 0")
    common(p)

    p = sub.add_parser("edge", help="edge-structure obstruction test")
    common(p, needs_input=True)
    p.add_argument("--dim-m", default=None, dest="dim_m", help="ambient dimension")
    p.add_argument("--dim-f", default=None, dest="dim_f", help="typical fibre dimension")

    p = sub.add_parser("ph-verify", help="index-sum verification on the two-chart sphere")
    common(p, needs_input=True)
    p.add_argument("--radius", default=None, help="contour radius (default 0.1)")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    for name in ("output_format", "n", "m", "delta", "samples", "seed", "radius",
                 "dim_m", "dim_f", "field_name", "frame"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    flag_input = getattr(args, "input", None)
    pos_input = getattr(args, "input_pos", None)
    cfg.input_path = flag_input or pos_input
    return cfg


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = run(config_from_args(args))
    except BTangentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
