"""The reflection-valued gluing map on spheres and its degree.

Reflecting across the hyperplane orthogonal to q and applying the result to
the north pole defines a self-map of the unit sphere,

    q  |->  p_n - 2 <q, p_n> q.

Its degree decides whether the sign obstruction on the sphere can be undone:
the degree is 2 in even dimensions and 0 in odd ones, where the map is in
fact null-homotopic by an explicit construction through a cylinder model.
This module holds the map, its differential and oriented tangent frames.
It computes the degree two independent ways, side by side in
sphere_map_report: a Monte Carlo change of variables, and a signed count at
the poles, the only preimages of -p_n since |f(q) + p_n|^2 = 4(1 - q_n^2).
The change of variables needs t = q_n alone: the pulled-back density is
c^(n-2) det(cI_2 + V^T U) with c = -2t (see degree_integral), and
det(cI_2 + V^T U) = 2 on the unit sphere, so it is 2 c^(n-2).  After the
normal draws, each chunk of samples takes one n-wide pass, its row sums q.q.
homotopy_endpoints checks the odd-dimensional null homotopy on a grid.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, NamedTuple, Tuple

from .errors import (
    EvenDimensionError,
    InvalidArgumentError,
    NonTangentInputError,
    NonUnitInputError,
    UnsupportedDimensionError,
    _as_int,
)

if TYPE_CHECKING:  # numpy loads where a function first needs it, after its argument checks
    import numpy as np

__all__ = [
    "CheckItem", "CheckReport", "SphereMapReport", "degree_integral", "degree_preimage",
    "homotopy_endpoints", "north_pole", "pole_map", "pole_map_differential", "reflection",
    "sphere_map_report", "tangent_frame",
]

UNIT_TOLERANCE = 1e-12
TANGENT_TOLERANCE = 1e-10


def north_pole(n: int) -> np.ndarray:
    import numpy as np

    p = np.zeros(n)
    p[-1] = 1.0
    return p


def _as_unit(q) -> np.ndarray:
    import numpy as np

    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or q.size < 2:
        raise NonUnitInputError("q must be a vector of dimension >= 2")
    dev = abs(np.linalg.norm(q) - 1.0)
    # written so that a NaN deviation fails the check
    if not dev <= UNIT_TOLERANCE:
        raise NonUnitInputError(f"q is off the unit sphere by {dev:.3e}")
    return q


def reflection(q) -> np.ndarray:
    """Reflection across the hyperplane orthogonal to the unit vector q.

    Returns I - 2 q q^T: an involutive orthogonal matrix of determinant -1.
    """
    import numpy as np

    q = _as_unit(q)
    return np.eye(q.size) - 2.0 * np.outer(q, q)


def _pole_image(q: np.ndarray) -> np.ndarray:
    """pole_map along the last axis of q, with no input checks."""
    return north_pole(q.shape[-1]) - 2.0 * q[..., -1:] * q


def pole_map(q) -> np.ndarray:
    """Image of the north pole under reflection across q-perp."""
    return _pole_image(_as_unit(q))


def pole_map_differential(q, v) -> np.ndarray:
    """Differential of pole_map at q applied to a tangent vector v.

    Raises:
        NonTangentInputError: v is not orthogonal to q (within 1e-10).
    """
    import numpy as np

    q = _as_unit(q)
    v = np.asarray(v, dtype=float)
    dot = float(q @ v)
    if not abs(dot) <= TANGENT_TOLERANCE:
        raise NonTangentInputError(f"<q, v> = {dot:.3e} exceeds tangency tolerance")
    return -2.0 * v[-1] * q - 2.0 * q[-1] * v


def tangent_frame(q) -> np.ndarray:
    """Positively oriented orthonormal basis of the tangent space at q.

    With k the index of the largest |q_k| and s = -sign(q_k), the
    Householder reflection H = I - 2 w w^T / |w|^2 along w = s e_k - q sends
    s e_k to q.  Since |w|^2 = 2 + 2|q_k| >= 2, it is well conditioned
    everywhere, the poles included.  Row k of H is s q, so the other rows,
    in index order, are an orthonormal basis of the tangent space.  As
    det H = -1, det[q | v_1 | ... | v_{n-1}] = -s (-1)^k: the last vector is
    flipped where that sign is negative.
    """
    import numpy as np

    q = _as_unit(q)
    k = int(np.argmax(np.abs(q)))
    s = -np.sign(q[k])
    w = -q
    w[k] += s
    h = np.eye(q.size) - (2.0 / float(w @ w)) * np.outer(w, w)
    frame = np.delete(h, k, axis=0)
    if s * (-1.0) ** k > 0:
        frame[-1] *= -1.0
    return frame


def _pullback_density(q: np.ndarray) -> np.ndarray:
    """Pulled-back density det A for each unit row q, from t = q_n alone.

    With t = q_n, A = 2t(qq^T - I) - 2q e_n^T + e_n q^T is dF + f q^T for
    the degree-0 extension F(x) = p_n - 2 x_n x / |x|^2, so Aq = f and
    Av = df(v) for tangent v; det[q | v_1 | ...] = 1, hence det A is the
    density det[f(q) | df(v_1) | ... ].  It equals c^(n-2) det K with
    K = cI_2 + V^T U (see degree_integral), and on the unit sphere, where
    q.q = 1, det K = (-2t)(-t) - (2t^2 - 2) = 2.  So the density is
    2 c^(n-2) with c = -2t: only the last column of q and its width are read.
    """
    import numpy as np

    c = -2.0 * q[:, -1]
    density = np.full(c.shape, 2.0)    # det K = 2 on the unit sphere
    for _ in range(q.shape[1] - 2):    # c^(n-2) by multiplication: a float ** goes to pow()
        density *= c
    return density


def degree_integral(n: int, samples: int = 200_000, seed: int = 0) -> float:
    """Monte Carlo estimate of the mapping degree of pole_map on S^{n-1}.

    Averages the pulled-back volume density det[f(q) | df(v_1) | ... ] over
    uniform q, where (v_i) is any positively oriented orthonormal tangent
    frame at q.  No frame and no n x n matrix is built: the density is
    det A for the rank-2 update A = cI_n + UV^T of a multiple of the
    identity, with t = q_n, c = -2t, U = [q, e_n] and V = [2tq - 2e_n, q]
    (see _pullback_density).  The matrix determinant lemma gives

        det(cI_n + UV^T) = c^(n-2) det(cI_2 + V^T U),

    and det(cI_2 + V^T U) = 2 on the unit sphere, so the density is
    2 c^(n-2), a function of t alone.  After the draws each chunk makes one
    n-wide pass, the row sums q.q; only the last column is scaled by
    1/sqrt(q.q).  Uses a counter-based generator and fixed-size chunks, so
    a given (n, samples, seed) always reproduces the same value.

    Raises:
        UnsupportedDimensionError: n outside 2..8.
        InvalidArgumentError: n, samples or seed not an integer, fewer than
            10**4 or more than 10**9 samples, or a negative seed.
    """
    n = _as_int(n, "n")
    samples = _as_int(samples, "samples")
    seed = _as_int(seed, "seed")
    if not 2 <= n <= 8:
        raise UnsupportedDimensionError(f"degree_integral supports 2 <= n <= 8, got {n}")
    if samples < 10_000:
        raise InvalidArgumentError(f"need at least 10**4 samples, got {samples}")
    if samples > 10**9:
        raise InvalidArgumentError(f"samples must be at most 10**9, got {samples}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
    import numpy as np

    rng = np.random.Generator(np.random.Philox(seed))
    chunk = 8192
    # one buffer for every chunk's draws: standard_normal gives the values
    # that normal(0, 1), which returns 0 + 1 * x, gives for the same draws x
    buf = np.empty((chunk, n))
    total = 0.0
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        q = rng.standard_normal(out=buf[:m])
        # the density reads t = q_n alone, so only the last column is scaled
        q[:, -1] *= 1.0 / np.sqrt(np.einsum("ij,ij->i", q, q))
        total += float(np.sum(_pullback_density(q)))
        done += m
    return total / samples


def degree_preimage(n: int) -> int:
    """Degree of pole_map via preimage counting at the regular value -p_n.

    With t = q_n, |f(q) + p_n|^2 = |2 p_n - 2 t q|^2 = 4 (1 - t^2), so the
    two poles are the only preimages.  At each the orientation sign is the
    sign of det[-p_n | df(v_1) | ... | df(v_{n-1})] for a positively
    oriented frame (v_i); tangent spaces at image and preimage are oriented
    by the same outward-normal-first convention, which is what makes the two
    pole contributions cancel in odd dimensions.

    Raises:
        UnsupportedDimensionError: n outside 2..8.
        InvalidArgumentError: n not an integer.
    """
    n = _as_int(n, "n")
    if not 2 <= n <= 8:
        raise UnsupportedDimensionError(f"degree_preimage supports 2 <= n <= 8, got {n}")
    import numpy as np

    south = -north_pole(n)
    deg = 0
    for q in (north_pole(n), -north_pole(n)):
        frame = tangent_frame(q)
        images = [pole_map_differential(q, v) for v in frame]
        d = float(np.linalg.det(np.column_stack([south] + images)))
        deg += 1 if d > 0 else -1
    return deg


# ---------------------------------------------------------------------------
# cylinder model and the odd-dimensional null homotopy
# ---------------------------------------------------------------------------


def _collapse(direction: np.ndarray, height: np.ndarray) -> np.ndarray:
    """Cylinder collapse (v, y) -> (sqrt(1 - y^2) v, y) along the last axis.

    Batched over the leading axes of direction and height; no input checks.
    """
    import numpy as np

    radial = np.sqrt(np.clip(1.0 - height * height, 0.0, None))[..., None] * direction
    return np.concatenate(
        [radial, np.broadcast_to(height[..., None], radial.shape[:-1] + (1,))], axis=-1
    )


class CheckItem(NamedTuple):
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


class CheckReport(NamedTuple):
    name: str
    items: Tuple[CheckItem, ...]
    metrics: Dict[str, float]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


def _paired_rotation(v: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Simultaneous rotation in the coordinate planes (0,1), (2,3), ...

    The angle has cosine c and sine s, broadcast against the leading axes of
    v.  The vector dimension must be even (homotopy_endpoints passes n - 1
    for odd n); rotating every plane by pi gives -identity, which is why
    this connects the antipodal map to the identity.
    """
    import numpy as np

    d = v.shape[-1]
    out = np.empty(np.broadcast_shapes(v.shape, c.shape + (d,)))
    even = v[..., 0::2]
    odd = v[..., 1::2]
    out[..., 0::2] = c[..., None] * even - s[..., None] * odd
    out[..., 1::2] = s[..., None] * even + c[..., None] * odd
    return out


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1), bit for bit, for a last axis of 1..7.

    The squares are added column by column, in order, as add.reduce adds a
    last axis shorter than 8; from 8 on numpy's pairwise sum unrolls into
    eight partial sums, and the bits would differ.  Working on columns skips
    the n-wide square array and the reduction over a short axis.
    """
    import numpy as np

    total = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        total += x[..., k] * x[..., k]
    return np.sqrt(total)


def homotopy_endpoints(n: int, grid: int = 50) -> CheckReport:
    """Evaluate the odd-dimensional null homotopy of pole_map on a grid.

    The first half rotates the upper-half cylinder image of pole_map until
    the antipodal twist is undone; the second half slides everything down to
    the south pole.  Checked on a grid of (direction, height, time) samples:
    the time-0 slice reproduces pole_map to 1e-9, the time-1 slice is
    constantly the south pole to 1e-12, and every intermediate image is a
    unit vector to 1e-12.  The largest displacement between adjacent grid
    samples is reported as a metric, not asserted.  The images are built
    one time slice of grid^2 x n floats at a time, keeping the previous
    slice for the time step, so memory is O(grid^2 n) and the work
    O(grid^3 n).

    Raises:
        EvenDimensionError: n is even (the degree is 2 there; no null
            homotopy exists).
        UnsupportedDimensionError: n outside 3..7.
        InvalidArgumentError: n or grid not an integer, or grid outside
            3..100 (grid^3 (n - 1) rotated directions are evaluated).
    """
    n = _as_int(n, "n")
    grid = _as_int(grid, "grid")
    if n % 2 == 0:
        raise EvenDimensionError(f"no null homotopy in even dimension n = {n}")
    if not 3 <= n <= 7:
        raise UnsupportedDimensionError(f"homotopy_endpoints supports odd 3 <= n <= 7, got {n}")
    if not 3 <= grid <= 100:
        raise InvalidArgumentError(f"grid must be in 3..100, got {grid}")
    import numpy as np

    rng = np.random.Generator(np.random.Philox(0))
    vs = rng.normal(size=(grid, n - 1))
    vs /= _row_norms(vs)[:, None]
    xs = np.linspace(-1.0, 1.0, grid)
    ts = np.linspace(0.0, 1.0, grid)

    # t in [0, 1/2]: s1 turns the upper half's direction from -v back to v;
    # t in [1/2, 1]: s2 slides every height from 1 - 2x^2 down to -1.
    # What depends on (x, t) alone is one (X, T) array.
    x2 = xs[:, None]
    s1 = np.clip(2.0 * ts, 0.0, 1.0)
    s2 = np.clip(2.0 * ts - 1.0, 0.0, 1.0)
    angle = math.pi * (1.0 - s1) * (x2 > 0)
    cos, sin = np.cos(angle), np.sin(angle)
    heights = (1.0 - s2) * (1.0 - 2.0 * x2 * x2) - s2

    v3 = vs[:, None, :]                            # (V,1,n-1)
    start = _pole_image(_collapse(v3, xs[None, :]))
    south = -north_pole(n)
    # each check is the largest of its elementwise values over the slices
    norm_devs = []
    steps = []
    prev = None
    for k in range(grid):
        h = _collapse(_paired_rotation(v3, cos[:, k], sin[:, k]), heights[:, k])  # (V,X,n)
        norm_devs.append(np.max(np.abs(_row_norms(h) - 1.0)))
        steps.append(np.max(_row_norms(np.diff(h, axis=1))))
        if prev is None:
            start_dev = float(np.max(_row_norms(h - start)))
        else:
            steps.append(np.max(_row_norms(h - prev)))
        prev = h
    end_dev = float(np.max(_row_norms(prev - south)))

    items = (
        CheckItem("time0_matches_pole_map", start_dev, 1e-9),
        CheckItem("time1_constant_south_pole", end_dev, 1e-12),
        CheckItem("images_unit_norm", float(np.max(norm_devs)), 1e-12),
    )
    metrics = {"max_adjacent_step": float(np.max(steps)), "grid": float(grid)}
    return CheckReport(f"null_homotopy_n{n}", items, metrics)


@dataclass(frozen=True)
class SphereMapReport:
    """Side-by-side degree computations for one sphere dimension."""

    n: int
    degree_integral: float
    degree_preimage: int
    agreement: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def sphere_map_report(n: int, samples: int = 200_000, seed: int = 0) -> SphereMapReport:
    di = degree_integral(n, samples=samples, seed=seed)
    dp = degree_preimage(n)
    return SphereMapReport(
        n=n, degree_integral=di, degree_preimage=dp, agreement=abs(di - dp) < 0.1
    )
