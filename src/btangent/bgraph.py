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

A graph's state is its columns: region labels, Euler characteristics and
edge labels, and the sorted integer form the analyses read.  A graph read
from a document or built from a surface builds its ``regions`` and
``edges`` records on their first read; ``dataclasses.replace``, ``asdict``
and pickle work on it as on any dataclass.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter, ne
from types import MappingProxyType
from typing import List, NamedTuple, Tuple

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


@dataclass(frozen=True, eq=False)
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

    A graph's state is its columns: the region labels, the Euler
    characteristics and the edge labels in record order, and the integer
    form ``_columns`` that the check builds (see ``_graph_columns``).  A
    graph built from records keeps the records it was given.  One that a
    document or a surface builds from columns (``_of_columns``) builds its
    ``regions`` and ``edges`` records on the first read of either, both at
    once, and keeps them.  They are the dataclass fields all the same, so
    ``dataclasses.replace``, ``fields`` and ``asdict``, repr, pickle and
    deepcopy work as on any dataclass.  Equality and hashing read the
    columns, ambient_dim and orientable, so comparing graphs builds no
    record.

    Raises:
        InvalidArgumentError: naming the first defect.
    """

    regions: Tuple[Region, ...]
    edges: Tuple[HypersurfaceComponent, ...]
    ambient_dim: int = 2
    orientable: bool = True

    def __post_init__(self):
        # an iterable becomes a tuple; anything else, a lone record included,
        # stays as given, for _record_columns to name
        regions, edges = (tuple(x) if isinstance(x, Iterable)
                          and not isinstance(x, (Region, HypersurfaceComponent)) else x
                          for x in (self.regions, self.edges))
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "edges", edges)
        self._store(*_record_columns(regions, edges), self.ambient_dim, self.orientable)

    @classmethod
    def _of_columns(cls, label, chi, edge_label, side_a, side_b, ambient_dim,
                    orientable) -> "BGraph":
        """The graph of the record-order columns of its regions and edges,
        checked as the constructor checks the same records, with no record
        built."""
        g = object.__new__(cls)
        g._store(label, chi, edge_label, side_a, side_b, ambient_dim, orientable)
        return g

    def _store(self, label, chi, edge_label, side_a, side_b, ambient_dim, orientable) -> None:
        columns = _graph_columns(label, chi, edge_label, side_a, side_b, ambient_dim, orientable)
        vars(self).update(ambient_dim=int(ambient_dim), orientable=orientable, _label=tuple(label),
                          _chi=tuple(chi), _edge_label=tuple(edge_label), _columns=columns)

    def __getattr__(self, name: str):
        # runs only for a name the instance lacks; any name but the records'
        # is missing, as unpickling's look-up of __setstate__ must find
        if name != "regions" and name != "edges":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}",
                                 name=name, obj=self)
        labels, a, b = self._columns
        state = vars(self)
        state["regions"] = tuple(_records_of(Region, zip(self._label, self._chi)))
        state["edges"] = tuple(_records_of(HypersurfaceComponent, zip(
            self._edge_label, map(labels.__getitem__, a), map(labels.__getitem__, b))))
        return state[name]

    def _key(self) -> tuple:
        # the fields' values: labels equal, sides are equal when their
        # positions among the sorted labels are
        _, a, b = self._columns
        return self._label, self._chi, self._edge_label, a, b, self.ambient_dim, self.orientable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def region_labels(self) -> Tuple[str, ...]:
        return self._label

    def to_json_dict(self) -> dict:
        labels, a, b = self._columns
        return {
            "regions": [{"label": label, "chi": chi} for label, chi in zip(self._label, self._chi)],
            "edges": [{"label": label, "a": labels[u], "b": labels[w]}
                      for label, u, w in zip(self._edge_label, a, b)],
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


def _record_columns(regions, edges) -> List[tuple]:
    """The record-order columns of a graph's records: region label and
    euler_char, then edge label, side_a and side_b; checked first to be
    tuples of records of their type's width (see ``_graph_columns``)."""
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
        columns += (tuple(map(itemgetter(k), rows)) for k in range(width))
    return columns


def _graph_columns(label, chi, edge_label, side_a, side_b, ambient_dim,
                   orientable) -> Tuple[tuple, tuple, tuple]:
    """Check a region graph given as the record-order columns of its regions
    (label, euler_char) and edges (label, side_a, side_b); return the region
    labels in sorted order and, for every edge, the positions of side_a and
    side_b among them.

    Every condition of the BGraph docstring after the records' own is one
    pass over a column or a set of its types, in C, in that order.  Only a
    pass that fails walks the rows, to raise at the first bad one (see
    ``_defect``; paths are in ``to_json_dict`` form)."""
    if not _is_int(type(ambient_dim)):
        raise _defect("/ambient_dim", f"ambient_dim must be an integer, got {ambient_dim!r}")
    if ambient_dim < 1:
        raise _defect("/ambient_dim",
                      f"invalid region graph: ambient_dim must be >= 1, got {ambient_dim}")
    if not isinstance(orientable, bool):
        raise _defect("/orientable", f"orientable must be a bool, got {orientable!r}")
    if not label:
        raise _defect("/regions", "invalid region graph: graph has no regions")
    if not (_all_of(str, label) and all(map(_is_int, set(map(type, chi))))):
        for i, (name, value) in enumerate(zip(label, chi)):
            if not isinstance(name, str):
                raise _defect(f"/regions/{i}/label",
                              f"label of region {i} must be a str, got {name!r}")
            if not _is_int(type(value)):
                raise _defect(f"/regions/{i}/chi", f"euler_char of region {name!r} "
                                                   f"must be an integer, got {value!r}")
    labels = tuple(sorted(label))
    position = dict(zip(labels, range(len(labels))))
    if len(position) != len(labels):
        _raise_duplicate("regions", label)
    if not _all_of(str, chain(edge_label, side_a, side_b)):
        for i, row in enumerate(zip(edge_label, side_a, side_b)):
            for field, attr, value in zip(("label", "a", "b"), HypersurfaceComponent._fields, row):
                if not isinstance(value, str):
                    raise _defect(f"/edges/{i}/{field}",
                                  f"{attr} of edge {i} must be a str, got {value!r}")
    if len(set(edge_label)) != len(edge_label):
        _raise_duplicate("edges", edge_label)
    try:
        return (labels, tuple(map(position.__getitem__, side_a)),
                tuple(map(position.__getitem__, side_b)))
    except KeyError:  # a side that names no region
        i, field, side = next((i, f, s) for i, sides in enumerate(zip(side_a, side_b))
                              for f, s in zip("ab", sides) if s not in position)
        raise _defect(f"/edges/{i}/{field}", f"invalid region graph: edge {edge_label[i]!r} "
                      f"references missing region {side!r}") from None


def _records_of(kind: type, rows):
    """Each row, a tuple of kind's fields in order, as a kind record.

    ``tuple.__new__`` runs in C, where the records' own constructor is a
    Python call per record; the caller fixes the rows' width.
    """
    return map(partial(tuple.__new__, kind), rows)


def _raise_duplicate(key: str, labels) -> None:
    """Raise at the first of the labels of key's rows that an earlier row has."""
    seen = set()
    for i, label in enumerate(labels):
        if label in seen:
            raise _defect(f"/{key}/{i}/label",
                          f"invalid region graph: duplicate {key[:-1]} label {label!r}")
        seen.add(label)


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

    def __hash__(self):
        # a mappingproxy has no hash; equal colorings have equal items
        return hash(frozenset(self.assignment.items()))

    def __getitem__(self, label: str) -> int:
        return self.assignment[label]

    def negate(self) -> "Coloring":
        return Coloring({k: -v for k, v in self.assignment.items()})

    def is_proper(self, g: BGraph) -> bool:
        """True when it colors exactly the regions of g, and every edge
        (loops included) joins opposite colors."""
        signs = self.assignment
        labels, a, b = g._columns
        if set(signs) != set(labels):
            return False
        # signs are +1 and -1, so opposite colors are different signs
        sign = list(map(signs.__getitem__, labels))
        return all(map(ne, map(sign.__getitem__, a), map(sign.__getitem__, b)))

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

