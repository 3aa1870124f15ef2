"""Checks of the program's outputs against expectations computed apart from it.

Every check returns a list of problems; an operation with any problem counts
as failed. The checks read results by attribute and never call btangent, so
a wrong answer cannot be confirmed by the code that produced it.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence

DEGREE_TOLERANCE = 0.1  # the program's own agreement threshold
SIGMAS = 5
ROUNDING = 1e-9


def coloring_problems(graph, assignment: Mapping[str, int]) -> List[str]:
    """A coloring must be total, use only +1/-1 and split every edge."""
    labels = {r.label for r in graph.regions}
    if set(assignment) != labels:
        return ["coloring does not cover exactly the regions"]
    if any(c not in (1, -1) for c in assignment.values()):
        return ["coloring uses a value other than +1/-1"]
    bad = [e.label for e in graph.edges if assignment[e.side_a] != -assignment[e.side_b]]
    return [f"coloring is not proper on edges {bad[:3]}"] if bad else []


def euler_problems(graph, report, classical: int, b_abs: int) -> List[str]:
    p = coloring_problems(graph, report.coloring_used.assignment)
    if report.classical_euler != classical:
        p.append(f"classical_euler {report.classical_euler}, expected {classical}")
    chi = {r.label: r.euler_char for r in graph.regions}
    signed = sum(c * chi[lab] for lab, c in report.coloring_used.assignment.items()
                 if lab in chi)
    if report.b_euler != signed:
        p.append(f"b_euler {report.b_euler} is not the colored sum {signed}")
    if abs(report.b_euler) != b_abs:
        p.append(f"|b_euler| {abs(report.b_euler)}, expected {b_abs}")
    return p


def _verdict_problems(graph, verdict, colorable: bool) -> List[str]:
    if verdict.two_colorable != colorable:
        return [f"two_colorable {verdict.two_colorable}, expected {colorable}"]
    if colorable:
        return coloring_problems(graph, verdict.coloring.assignment)
    return [] if verdict.coloring is None else ["a coloring came with a negative verdict"]


def _gauge_problems(graph, gauge, bfs, colorable: bool) -> List[str]:
    if (gauge is not None) != colorable:
        return [f"gauge_solvable found {'a' if gauge is not None else 'no'} solution, "
                f"expected colorable={colorable}"]
    if gauge is None:
        return []
    p = coloring_problems(graph, gauge.assignment)
    if bfs is not None and dict(bfs.assignment) != dict(gauge.assignment):
        p.append("BFS and GF(2) colorings differ")
    return p


def check_surface(expect, out: Dict) -> List[str]:
    """One surface operation: graph shape, verdict, both routes, Euler numbers."""
    g = out["graph"]
    p = []
    if len(g.regions) != expect.regions:
        p.append(f"{len(g.regions)} regions, expected {expect.regions}")
    chi = tuple(sorted(r.euler_char for r in g.regions))
    if chi != expect.chi:
        p.append(f"closure chi {chi}, expected {expect.chi}")
    if len(g.edges) != expect.z_components:
        p.append(f"{len(g.edges)} Z components, expected {expect.z_components}")
    loops = sum(e.side_a == e.side_b for e in g.edges)
    if loops != expect.loops:
        p.append(f"{loops} loop edges, expected {expect.loops}")
    if g.orientable != expect.orientable:
        p.append(f"orientable {g.orientable}, expected {expect.orientable}")
    verdict = out["verdict"]
    bfs = None
    if not expect.orientable:
        if verdict != "NotOrientableError":
            p.append("equivalence_report did not raise NotOrientableError on a Klein bottle")
        if "euler" in out:
            bfs = out["euler"].coloring_used
    elif verdict == "NotOrientableError":
        p.append("equivalence_report raised NotOrientableError on a torus")
    else:
        p += _verdict_problems(g, verdict, expect.colorable)
        bfs = verdict.coloring
    p += _gauge_problems(g, out["gauge"], bfs, expect.colorable)
    if expect.colorable:
        p += euler_problems(g, out["euler"], 0, expect.b_euler_abs)
    return p


def check_graph(expect, out: Dict) -> List[str]:
    """One region-graph operation: verdict, both routes, edge verdicts, Euler."""
    g = out["graph"]
    p = []
    if (len(g.regions), len(g.edges)) != (expect.regions, expect.edges):
        p.append(f"graph has {len(g.regions)} regions and {len(g.edges)} edges, "
                 f"expected {expect.regions} and {expect.edges}")
    verdict = out["verdict"]
    p += _verdict_problems(g, verdict, expect.colorable)
    if expect.side is not None and verdict.coloring is not None:
        a = verdict.coloring.assignment
        if len({a[lab] * (1 if s == 0 else -1) for lab, s in expect.side.items()}) != 1:
            p.append("coloring is not the planted bipartition")
    p += _gauge_problems(g, out["gauge"], verdict.coloring, expect.colorable)
    odd = "Inconclusive" if expect.colorable else "Obstructed"
    if out["edge_odd"].value != odd:
        p.append(f"edge verdict at odd codimension {out['edge_odd'].value}, expected {odd}")
    if out["edge_even"].value != "Inconclusive":
        p.append(f"edge verdict at even codimension {out['edge_even'].value}")
    if "euler" in out:
        p += euler_problems(g, out["euler"], expect.classical_euler, expect.b_euler_abs)
    return p


def _sphere_moment(n: int, power: int) -> Fraction:
    """E[t^power] for t the last coordinate of a uniform point on S^{n-1}."""
    if power % 2:
        return Fraction(0)
    out = Fraction(1)
    for j in range(power // 2):
        out *= Fraction(2 * j + 1, n + 2 * j)
    return out


def exact_degree(n: int) -> int:
    """deg = 2 (-2)^{n-2} E[t^{n-2}]: 2 for even n, 0 for odd n."""
    return int(2 * (-2) ** (n - 2) * _sphere_moment(n, n - 2))


def degree_sigma(n: int, samples: int) -> float:
    """Analytic standard error of the Monte Carlo degree with `samples` draws.

    The integrand equals 2 (-2t)^{n-2}, so its variance is
    4^{n-1} (E[t^{2(n-2)}] - E[t^{n-2}]^2).
    """
    var = 4 ** (n - 1) * (_sphere_moment(n, 2 * (n - 2)) - _sphere_moment(n, n - 2) ** 2)
    return math.sqrt(float(var) / samples)


def degree_problems(n: int, samples: int, integral: float, preimage: int) -> List[str]:
    exact = exact_degree(n)
    p = []
    if preimage != exact:
        p.append(f"degree_preimage {preimage}, expected {exact} at n={n}")
    dev = abs(integral - exact)
    limit = min(DEGREE_TOLERANCE, SIGMAS * degree_sigma(n, samples) + ROUNDING)
    if not dev <= limit:
        p.append(f"degree_integral {integral} is {dev:.4g} from {exact}, allowed {limit:.4g}")
    return p


def check_sphere_report(n: int, samples: int, report) -> List[str]:
    p = degree_problems(n, samples, report.degree_integral, report.degree_preimage)
    if report.n != n:
        p.append(f"report for n={report.n}, expected {n}")
    gap = abs(report.degree_integral - report.degree_preimage)
    if report.agreement != (gap < DEGREE_TOLERANCE):
        p.append("agreement flag does not match the two degrees")
    return p


def check_homotopy(n: int, report) -> List[str]:
    p = []
    if report.name != f"null_homotopy_n{n}":
        p.append(f"homotopy report {report.name!r} for n={n}")
    for item in report.items:
        if not (item.passed and item.value <= item.tolerance):
            p.append(f"homotopy check {item.name} failed: {item.value} > {item.tolerance}")
    return p


# ---------------------------------------------------------------------------
# cold CLI invocations
# ---------------------------------------------------------------------------

CliCheck = Callable[[int, bytes, bytes], List[str]]


def _common(stderr: bytes) -> List[str]:
    return ["traceback on stderr"] if b"Traceback" in stderr else []


def cli_error() -> CliCheck:
    """A structured failure: exit 1, `error: ...` on stderr, nothing on stdout."""
    def check(code: int, out: bytes, err: bytes) -> List[str]:
        p = _common(err)
        if code != 1:
            p.append(f"exit code {code}, expected 1")
        if not err.startswith(b"error: "):
            p.append("stderr does not start with 'error: '")
        if out:
            p.append("stdout is not empty on error")
        return p
    return check


def cli_report(code: int, fields: Optional[Dict] = None,
               more: Optional[Callable[[Dict], List[str]]] = None,
               text: Sequence[str] = ()) -> CliCheck:
    """Exit `code`; JSON stdout holding `fields` (unless `text` lines are given)."""
    def check(rc: int, out: bytes, err: bytes) -> List[str]:
        p = _common(err)
        if rc != code:
            p.append(f"exit code {rc}, expected {code}")
        if text:
            body = out.decode("utf-8", "replace")
            p += [f"output lacks {t!r}" for t in text if t not in body]
            return p
        try:
            doc = json.loads(out)
        except ValueError:
            return p + ["stdout is not JSON"]
        for key, want in (fields or {}).items():
            if doc.get(key) != want:
                p.append(f"{key} = {doc.get(key)!r}, expected {want!r}")
        if more is not None and not p:
            p += more(doc)
        return p
    return check


def cli_fault(report: CliCheck) -> CliCheck:
    """A known fault: it passes once it gives a structured error or a right report."""
    error = cli_error()

    def check(code: int, out: bytes, err: bytes) -> List[str]:
        as_error = error(code, out, err)
        as_report = report(code, out, err)
        if not as_error or not as_report:
            return []
        return as_error + as_report
    return check


def split_coloring(groups: Sequence[Sequence[str]]) -> Callable[[Dict], List[str]]:
    """The coloring is +c on groups[0] and -c on groups[1], for c in {1, -1}."""
    def check(doc: Dict) -> List[str]:
        col = doc.get("coloring") or doc.get("coloring_used") or {}
        signs = {col.get(lab) for lab in groups[0]} | {
            -col.get(lab, 0) for lab in groups[1]}
        labels = set(groups[0]) | set(groups[1])
        if set(col) != labels or len(signs) != 1 or signs - {1, -1}:
            return [f"coloring {col} does not split {groups}"]
        return []
    return check


def degree_report(n: int, samples: int) -> Callable[[Dict], List[str]]:
    def check(doc: Dict) -> List[str]:
        p = degree_problems(n, samples, doc["degree_integral"], doc["degree_preimage"])
        if doc.get("n") != n or doc.get("agreement") is not True:
            p.append(f"n={doc.get('n')} agreement={doc.get('agreement')}")
        return p
    return check
