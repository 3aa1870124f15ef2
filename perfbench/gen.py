"""Seeded input documents for the benchmark, each with its expected answer.

The expectations follow from how an input is built, never from running the
program: a grid surface cut along k parallel essential loops and d small
vertex-link circles has k annuli (one region if k < 2) and d disks, the
disks have closure Euler characteristic 1 and each annulus -1 per disk it
surrounds; a region graph with a planted bipartition is two-colorable, and
one extra same-side edge or a loop edge makes it not.

Nothing here imports btangent.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class SurfaceSpec:
    """A marked grid surface: n columns by m rows of split squares."""

    klein: bool
    n: int
    m: int
    loop_rows: Tuple[int, ...]
    disks: Tuple[Tuple[int, int], ...]  # (column, row) of each link-curve centre


@dataclass(frozen=True)
class SurfaceExpect:
    orientable: bool
    regions: int
    z_components: int
    chi: Tuple[int, ...]  # sorted multiset of closure Euler characteristics
    colorable: bool
    loops: int  # loop edges in the region graph
    b_euler_abs: Optional[int]  # |b-Euler number| when colorable


def surface_expect(spec: SurfaceSpec) -> SurfaceExpect:
    k = len(spec.loop_rows)
    rows = sorted(spec.loop_rows)
    annuli = max(k, 1)
    per_annulus = [0] * annuli
    for _, j in spec.disks:
        per_annulus[_annulus_of(j, rows)] += 1
    chi = sorted([1] * len(spec.disks) + [-d for d in per_annulus])
    colorable = k % 2 == 0
    b_abs = None
    if colorable:
        # a proper coloring alternates along the cycle of annuli and gives
        # every disk the sign opposite to its annulus
        b_abs = 2 * abs(sum((-1) ** i * d for i, d in enumerate(per_annulus)))
    return SurfaceExpect(
        orientable=not spec.klein,
        regions=annuli + len(spec.disks),
        z_components=k + len(spec.disks),
        chi=tuple(chi),
        colorable=colorable,
        loops=1 if k == 1 else 0,
        b_euler_abs=b_abs,
    )


def _annulus_of(row: int, loop_rows: List[int]) -> int:
    """Index of the annulus holding a row that is not a loop row.

    Annulus i lies between loop rows i and i + 1; the last one wraps round.
    """
    for i in range(len(loop_rows) - 1):
        if loop_rows[i] < row < loop_rows[i + 1]:
            return i
    return max(len(loop_rows) - 1, 0)


def surface_document(spec: SurfaceSpec) -> dict:
    """Triangulate the grid; on a Klein bottle row m is row 0 read backwards."""
    n, m = spec.n, spec.m

    def v(i: int, j: int) -> int:
        if j == m:
            j = 0
            if spec.klein:
                i = -i
        return i % n + n * j

    triangles = []
    for j in range(m):
        for i in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            triangles.append([a, b, d])
            triangles.append([a, d, c])
    z_edges = []
    for r in spec.loop_rows:
        z_edges += [[v(i, r), v(i + 1, r)] for i in range(n)]
    for i, j in spec.disks:
        ring = [(i + 1, j), (i + 1, j + 1), (i, j + 1), (i - 1, j), (i - 1, j - 1), (i, j - 1)]
        z_edges += [[v(*ring[t]), v(*ring[(t + 1) % 6])] for t in range(6)]
    return {"surface": {"vertices": n * m, "triangles": triangles, "z_edges": z_edges}}


def random_surface(rng: random.Random, klein: bool, n: int, m: int, k: int,
                   disks: int) -> SurfaceSpec:
    """k loop rows and `disks` link curves at seeded places on an n x m grid.

    Loops sit on rows 1 .. m-1, at least 4 rows apart so that a disk fits
    between two of them. Disk centres sit on rows 1 .. m-2, two rows clear of
    every loop (so the 6-cycle round a centre touches no loop and no seam
    square of a Klein bottle), and three rows or three columns apart from
    each other, so that no two 6-cycles share a vertex.
    """
    if k:
        spacing = (m - 1) // k
        if spacing < 4:
            raise ValueError(f"{k} loops do not fit in {m} rows")
        start = 1 + rng.randrange(spacing - 3)
        loop_rows = tuple(start + spacing * t for t in range(k))
    else:
        loop_rows = ()
    rows = [j for j in range(1, m - 1)
            if all(min((j - r) % m, (r - j) % m) >= 2 for r in loop_rows)]
    picked: List[Tuple[int, int]] = []
    while len(picked) < disks:
        i, j = rng.randrange(n), rng.choice(rows)
        if all(abs(j - pj) >= 3 or min((i - pi) % n, (pi - i) % n) >= 3 for pi, pj in picked):
            picked.append((i, j))
    return SurfaceSpec(klein, n, m, loop_rows, tuple(picked))


@dataclass(frozen=True)
class GraphExpect:
    regions: int
    edges: int
    colorable: bool
    ambient_dim: int
    side: Optional[Dict[str, int]]  # planted two-coloring (0/1 per label), if any
    classical_euler: int
    b_euler_abs: Optional[int]  # when the graph is colorable in even dimension


def cycle_graph(rng: random.Random, k: int) -> Tuple[dict, GraphExpect]:
    """The circle with k marked points, its arcs labelled in seeded order."""
    labels = [f"A{x}" for x in rng.sample(range(k), k)]
    regions = [{"label": lab, "chi": 1} for lab in labels]
    edges = [{"label": f"P{i}", "a": labels[i], "b": labels[(i + 1) % k]} for i in range(k)]
    doc = {"graph": {"regions": regions, "edges": edges, "ambient_dim": 1, "orientable": True}}
    side = {lab: i % 2 for i, lab in enumerate(labels)} if k % 2 == 0 else None
    return doc, GraphExpect(k, k, k % 2 == 0, 1, side, k, None)


def planted_graph(rng: random.Random, regions: int, edges: int,
                  defect: str) -> Tuple[dict, GraphExpect]:
    """A connected random graph on two planted sides, in dimension 2.

    defect is "none" (the graph stays bipartite), "odd" (one extra edge
    inside a side closes an odd cycle) or "loop" (one loop edge).
    """
    labels = [f"U{x}" for x in rng.sample(range(regions), regions)]
    side = [0, 1] + [rng.randrange(2) for _ in range(regions - 2)]
    by_side: List[List[int]] = [[0], [1]]
    pairs = [(0, 1)]
    for u in range(2, regions):
        pairs.append((rng.choice(by_side[1 - side[u]]), u))
        by_side[side[u]].append(u)
    while len(pairs) < edges - (defect != "none"):
        a, b = rng.choice(by_side[0]), rng.choice(by_side[1])
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    if defect == "odd":
        s = rng.randrange(2)
        a, b = rng.sample(by_side[s], 2)
        pairs.append((a, b))
    elif defect == "loop":
        a = rng.randrange(regions)
        pairs.append((a, a))
    rng.shuffle(pairs)
    chi = [rng.randint(-3, 2) for _ in range(regions)]
    doc = {"graph": {
        "regions": [{"label": labels[u], "chi": chi[u]} for u in range(regions)],
        "edges": [{"label": f"Z{i}", "a": labels[a], "b": labels[b]}
                  for i, (a, b) in enumerate(pairs)],
        "ambient_dim": 2,
        "orientable": True,
    }}
    colorable = defect == "none"
    diff = sum(c if s == 0 else -c for c, s in zip(chi, side))
    return doc, GraphExpect(
        regions=regions,
        edges=len(pairs),
        colorable=colorable,
        ambient_dim=2,
        side={labels[u]: side[u] for u in range(regions)} if colorable else None,
        classical_euler=sum(chi),
        b_euler_abs=abs(diff) if colorable else None,
    )


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
