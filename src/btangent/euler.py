"""Euler numbers of the rescaled tangent bundle from region data alone.

In even ambient dimension the rescaled bundle's relative Euler number is the
coloring-weighted sum of region Euler characteristics; the classical Euler
characteristic is the unweighted sum.  That sum is chi(M) in every even
dimension n: cutting M open along the two-sided hypersurface Z leaves the
disjoint union of the region closures, bounded by two copies of Z, so
chi(M) = sum_U chi(closure of U) - chi(Z).  Z is a closed manifold of odd
dimension n - 1, hence chi(Z) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bgraph import BGraph, Coloring
from .errors import ImproperColoringError, NotColorableError, OddDimensionError
from .obstructions import _canonical_coloring


@dataclass(frozen=True)
class EulerReport:
    b_euler: int
    classical_euler: int
    coloring_used: Coloring

    def to_json_dict(self) -> dict:
        return {
            "b_euler": self.b_euler,
            "classical_euler": self.classical_euler,
            "coloring_used": self.coloring_used.to_json_dict(),
        }


def b_euler_number(g: BGraph, coloring: Coloring) -> int:
    """Signed region sum sum_U c(U) chi(U) for a proper coloring c.

    Raises:
        ImproperColoringError: coloring is not total or violates an edge.
        OddDimensionError: ambient dimension is odd (both Euler numbers
            vanish identically there; the sum would be meaningless).
    """
    if g.ambient_dim % 2 != 0:
        raise OddDimensionError(
            f"b-Euler number needs even ambient dimension, got {g.ambient_dim}"
        )
    if not coloring.is_proper(g):
        raise ImproperColoringError("coloring is not a proper sign coloring of the graph")
    return sum(coloring[r.label] * r.euler_char for r in g.regions)


def classical_euler_number(g: BGraph) -> int:
    """Euler characteristic of the ambient manifold as the plain region sum.

    This is the one place the sum is taken.  It equals chi(M) in every even
    ambient dimension, where Z contributes chi(Z) = 0 (see the module note).

    Raises:
        OddDimensionError: ambient dimension is odd.
    """
    if g.ambient_dim % 2 != 0:
        raise OddDimensionError(
            f"classical Euler number needs even ambient dimension, got {g.ambient_dim}"
        )
    return sum(r.euler_char for r in g.regions)


def euler_report(g: BGraph) -> EulerReport:
    """Both Euler numbers under the canonical coloring.

    Raises:
        OddDimensionError: ambient dimension is odd.
        NotColorableError: the graph admits no proper sign coloring, so the
            rescaled bundle has no well-defined relative Euler number.
    """
    classical = classical_euler_number(g)
    coloring = _canonical_coloring(g)
    if coloring is None:
        raise NotColorableError("graph is not two-colorable; no global sign choice exists")
    return EulerReport(
        b_euler=b_euler_number(g, coloring),
        classical_euler=classical,
        coloring_used=coloring,
    )
