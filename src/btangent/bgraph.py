"""Combinatorial model of a closed manifold cut by a critical hypersurface.

The critical hypersurface Z of a pair (M, Z) decomposes M into open regions.
The bookkeeping that the bundle-level questions actually depend on is a
decorated multigraph: one node per region of M \\ Z carrying its Euler
characteristic, one edge per connected component of Z joining the (one or
two) regions it touches.  Components of Z that do not separate their
neighborhood produce loop edges.

Graphs can be written down directly or derived from a triangulated closed
surface with a marked cycle system (``surface``).  This module holds only
graph code, so that a graph document's cold start compiles no surface
kernel.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple, Tuple

from .errors import InvalidArgumentError, _is_int

__all__ = ["BGraph", "Coloring", "HypersurfaceComponent", "Region", "sphere_equator_graph"]


class Region(NamedTuple):
    """A connected component of the complement of the hypersurface.

    A record is a named tuple, so it equals the plain tuple of its fields
    and unpacks as one; its fields cannot be assigned to.

    Attributes:
        label: unique name of the region.
        euler_char: Euler characteristic of the closure of the region.
    """

    label: str
    euler_char: int


class HypersurfaceComponent(NamedTuple):
    """A connected component of the critical hypersurface.

    ``side_a == side_b`` encodes a component whose two sides meet the same
    region (a loop edge of the graph).  A named tuple, like ``Region``.
    """

    label: str
    side_a: str
    side_b: str

    @property
    def is_loop(self) -> bool:
        return self.side_a == self.side_b


@dataclass(frozen=True)
class BGraph:
    """Region graph of a pair (M, Z), with ambient metadata.

    The orientability flag describes M itself and is trusted as given for
    hand-written graphs; graphs built from a triangulation get it computed.

    A graph checks itself when it is built, so every BGraph in existence is
    well formed.  In the order checked: its regions and edges are Region and
    HypersurfaceComponent records (a plain tuple is not one), each as wide
    as its type has fields, ambient_dim
    is an integer >= 1, orientable is a bool, it has a region, region labels
    are str and Euler characteristics integers, region labels are unique,
    edge labels and sides are str, edge labels are unique, and every edge
    side names a region.

    The check builds the graph's integer form ``_columns`` (see
    ``_graph_columns``), kept outside the graph's dataclass fields, so
    equality, hashing, repr and JSON never see it.

    Raises:
        InvalidArgumentError: naming the first defect.
    """

    regions: Tuple[Region, ...]
    edges: Tuple[HypersurfaceComponent, ...]
    ambient_dim: int = 2
    orientable: bool = True

    def __post_init__(self):
        # an iterable becomes a tuple; anything else, a lone record included,
        # stays as given, for _graph_columns to name
        regions, edges = (tuple(x) if isinstance(x, Iterable)
                          and not isinstance(x, (Region, HypersurfaceComponent)) else x
                          for x in (self.regions, self.edges))
        columns = _graph_columns(regions, edges, self.ambient_dim, self.orientable)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "ambient_dim", int(self.ambient_dim))
        object.__setattr__(self, "_columns", columns)

    def region_labels(self) -> Tuple[str, ...]:
        return tuple(map(itemgetter(0), self.regions))

    def to_json_dict(self) -> dict:
        return {
            "regions": [{"label": label, "chi": chi} for label, chi in self.regions],
            "edges": [{"label": label, "a": a, "b": b} for label, a, b in self.edges],
            "ambient_dim": self.ambient_dim,
            "orientable": self.orientable,
        }


def _all_of(kind: type, values) -> bool:
    """Whether every value is an instance of kind: one pass over a set of types, in C."""
    return all(issubclass(t, kind) for t in set(map(type, values)))


def _defect(path: str, message: str) -> InvalidArgumentError:
    """The error for a defect of an input, at path: a JSON pointer into the
    input as a document holds it, such as ``/regions/3/chi``, kept as
    ``_path`` so that a document reader can add its own pointer."""
    exc = InvalidArgumentError(message)
    exc._path = path
    return exc


def _graph_columns(regions, edges, ambient_dim, orientable) -> Tuple[tuple, tuple, tuple]:
    """Check a region graph; return the region labels in sorted order and,
    for every edge, the positions of side_a and side_b among them.

    Once the rows are known to be records, each side is split into its
    field columns, and every later condition of the BGraph docstring is
    one pass over a column or a set of its types, in C, in that order.
    Only a pass that fails walks the rows, to raise at the first bad one
    (see ``_defect``; paths are in ``to_json_dict`` form)."""
    columns = []
    for key, rows, kind in (("regions", regions, Region), ("edges", edges, HypersurfaceComponent)):
        if type(rows) is not tuple:  # a lone record is a tuple subclass, not rows
            raise _defect(f"/{key}", f"{key} must be {kind.__name__} records, got {rows!r}")
        if not _all_of(kind, rows):
            i = next(i for i, row in enumerate(rows) if not isinstance(row, kind))
            raise _defect(f"/{key}/{i}", f"{key[:-1]} {i} is not a {kind.__name__}: {rows[i]!r}")
        # a record made with tuple.__new__ may have any width, and its repr then raises
        width = len(kind._fields)
        if not set(map(len, rows)) <= {width}:
            i = next(i for i, row in enumerate(rows) if len(row) != width)
            raise _defect(f"/{key}/{i}", f"{key[:-1]} {i} is a {kind.__name__} of width "
                                         f"{len(rows[i])}, not {width}")
        # one itemgetter pass per field, in C; zip(*rows) would make an
        # iterator per record, and on 10**5 records the garbage collector's
        # passes over those cost about five times the columns themselves
        columns.append([tuple(map(itemgetter(k), rows)) for k in range(width)])
    (label, chi), (edge_label, a, b) = columns
    if not _is_int(type(ambient_dim)):
        raise _defect("/ambient_dim", f"ambient_dim must be an integer, got {ambient_dim!r}")
    if ambient_dim < 1:
        raise _defect("/ambient_dim",
                      f"invalid region graph: ambient_dim must be >= 1, got {ambient_dim}")
    if not isinstance(orientable, bool):
        raise _defect("/orientable", f"orientable must be a bool, got {orientable!r}")
    if not regions:
        raise _defect("/regions", "invalid region graph: graph has no regions")
    if not (_all_of(str, label) and all(map(_is_int, set(map(type, chi))))):
        for i, r in enumerate(regions):
            if not isinstance(r.label, str):
                raise _defect(f"/regions/{i}/label",
                              f"label of region {i} must be a str, got {r.label!r}")
            if not _is_int(type(r.euler_char)):
                raise _defect(f"/regions/{i}/chi", f"euler_char of region {r.label!r} "
                                                   f"must be an integer, got {r.euler_char!r}")
    labels = tuple(sorted(label))
    position = dict(zip(labels, range(len(labels))))
    if len(position) != len(labels):
        _raise_duplicate("regions", regions)
    if not _all_of(str, chain(edge_label, a, b)):
        for i, e in enumerate(edges):
            for field, attr in (("label", "label"), ("a", "side_a"), ("b", "side_b")):
                if not isinstance(getattr(e, attr), str):
                    raise _defect(f"/edges/{i}/{field}",
                                  f"{attr} of edge {i} must be a str, got {getattr(e, attr)!r}")
    if len(set(edge_label)) != len(edges):
        _raise_duplicate("edges", edges)
    try:
        return (labels, tuple(map(position.__getitem__, a)), tuple(map(position.__getitem__, b)))
    except KeyError:  # a side that names no region
        i, field, side = next((i, f, s) for i, e in enumerate(edges)
                              for f, s in (("a", e.side_a), ("b", e.side_b)) if s not in position)
        raise _defect(f"/edges/{i}/{field}", f"invalid region graph: edge {edges[i].label!r} "
                      f"references missing region {side!r}") from None


def _records_of(kind: type, rows):
    """Each row, a tuple of kind's fields in order, as a kind record.

    ``tuple.__new__`` runs in C, where the records' own constructor is a
    Python call per record; the caller fixes the rows' width.
    """
    return map(partial(tuple.__new__, kind), rows)


def _raise_duplicate(key: str, rows: tuple) -> None:
    """Raise at the first row of rows whose label an earlier row has."""
    seen = set()
    for i, row in enumerate(rows):
        if row.label in seen:
            raise _defect(f"/{key}/{i}/label",
                          f"invalid region graph: duplicate {key[:-1]} label {row.label!r}")
        seen.add(row.label)


@dataclass(frozen=True)
class Coloring:
    """An assignment of +1 / -1 to every region label.

    It is given as a mapping from label to sign.  Labels are str, as in a
    graph.  A sign is an integer by the package's rule (``errors._is_int``),
    stored as an int; bools are not signs.  The assignment is kept as a
    read-only mapping, because the analyses of one graph share its coloring
    (see ``obstructions._canonical_coloring``).
    """

    assignment: Mapping[str, int]

    def __post_init__(self):
        if not isinstance(self.assignment, Mapping):
            raise InvalidArgumentError(f"coloring must be a mapping, got {self.assignment!r}")
        signs = dict(self.assignment)
        # the usual check is three passes over sets, which run in C; the loop
        # below runs only to name a bad label or sign, or to store a sign of
        # another integer type as an int
        if not (_all_of(str, signs) and set(map(type, signs.values())) <= {int}
                and set(signs.values()) <= {1, -1}):
            signs = {label: _sign(label, value) for label, value in signs.items()}
        object.__setattr__(self, "assignment", MappingProxyType(signs))

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; its dict can
        return Coloring, (dict(self.assignment),)

    def __getitem__(self, label: str) -> int:
        return self.assignment[label]

    def negate(self) -> "Coloring":
        return Coloring({k: -v for k, v in self.assignment.items()})

    def is_proper(self, g: BGraph) -> bool:
        """True when it colors exactly the regions of g, and every edge
        (loops included) joins opposite colors."""
        signs = self.assignment
        return (set(signs) == set(g.region_labels())
                and all(signs[a] * signs[b] == -1 for _, a, b in g.edges))

    def to_json_dict(self) -> dict:
        return dict(sorted(self.assignment.items()))


def _sign(label: str, value) -> int:
    """value as the int +1 or -1, the color of the region label, which must be a str."""
    if not isinstance(label, str):
        raise InvalidArgumentError(f"coloring label must be a str, got {label!r}")
    if not (_is_int(type(value)) and value in (1, -1)):
        raise InvalidArgumentError(f"color of {label!r} must be +1 or -1, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# stock graphs
# ---------------------------------------------------------------------------


def sphere_equator_graph() -> BGraph:
    """Two disk regions joined along one circle: the round sphere cut by its equator."""
    return BGraph((Region("B+", 1), Region("B-", 1)), (HypersurfaceComponent("Z0", "B+", "B-"),),
                  ambient_dim=2, orientable=True)

