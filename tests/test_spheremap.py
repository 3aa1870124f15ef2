import math
import tracemalloc

import numpy as np
import pytest

from btangent import spheremap
from btangent import (
    EvenDimensionError,
    InvalidArgumentError,
    NonTangentInputError,
    NonUnitInputError,
    UnsupportedDimensionError,
    classify_bm,
    degree_integral,
    degree_preimage,
    edge_obstruction,
    homotopy_endpoints,
    north_pole,
    pole_map,
    pole_map_differential,
    reflection,
    sphere_map_report,
    tangent_frame,
)
from corpus import circle_graph


def _unit(rng, n):
    q = rng.normal(size=n)
    return q / np.linalg.norm(q)


def test_reflection_hand_value():
    q = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    expected = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(reflection(q), expected, atol=1e-15)


def test_reflection_involution_and_det():
    rng = np.random.default_rng(3)
    for n in range(2, 9):
        for _ in range(20):
            q = _unit(rng, n)
            r = reflection(q)
            assert np.allclose(r @ r, np.eye(n), atol=1e-12)
            assert abs(np.linalg.det(r) + 1.0) < 1e-10


def test_reflection_rejects_non_unit():
    with pytest.raises(NonUnitInputError):
        reflection(np.array([1.0, 1.0]))


def test_pole_map_values():
    assert np.allclose(pole_map(north_pole(3)), -north_pole(3), atol=1e-15)
    assert np.allclose(pole_map(np.array([1.0, 0.0, 0.0])), north_pole(3), atol=1e-15)
    t = math.pi / 4
    q = np.array([math.sin(t), math.cos(t)])
    assert np.allclose(pole_map(q), np.array([-1.0, 0.0]), atol=1e-15)


def test_pole_map_unit_output_and_evenness():
    rng = np.random.default_rng(4)
    for n in range(2, 9):
        for _ in range(100):
            q = _unit(rng, n)
            image = pole_map(q)
            assert abs(np.linalg.norm(image) - 1.0) <= 1e-12
            assert np.array_equal(pole_map(-q), image)
            assert np.allclose(reflection(q) @ north_pole(n), image, atol=1e-14)


def test_differential_closed_form():
    n = 4
    pn = north_pole(n)
    frame = tangent_frame(pn)
    for v in frame:
        assert np.allclose(pole_map_differential(pn, v), -2.0 * v, atol=1e-12)
        assert np.allclose(pole_map_differential(-pn, v), 2.0 * v, atol=1e-12)
    q = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(pole_map_differential(q, pn), -2.0 * q, atol=1e-15)


def test_differential_rejects_non_tangent():
    q = north_pole(3)
    with pytest.raises(NonTangentInputError):
        pole_map_differential(q, q)


def test_nan_fails_the_unit_and_tangency_checks():
    with pytest.raises(NonUnitInputError):
        pole_map(np.array([math.nan, 0.0]))
    with pytest.raises(NonUnitInputError):
        reflection(np.array([math.nan, math.nan]))
    with pytest.raises(NonTangentInputError):
        pole_map_differential(np.array([1.0, 0.0]), np.array([math.nan, 0.0]))


def test_differential_matches_finite_differences():
    rng = np.random.default_rng(5)
    eps = 1e-5
    for _ in range(300):
        n = int(rng.integers(2, 7))
        q = _unit(rng, n)
        v = rng.normal(size=n)
        v -= (v @ q) * q
        v /= np.linalg.norm(v)
        plus = pole_map(math.cos(eps) * q + math.sin(eps) * v)
        minus = pole_map(math.cos(-eps) * q + math.sin(-eps) * v)
        fd = (plus - minus) / (2.0 * eps)
        assert np.max(np.abs(pole_map_differential(q, v) - fd)) < 1e-6


def test_tangent_frame_orthonormal_and_oriented():
    rng = np.random.default_rng(6)
    for n in range(2, 9):
        eye = np.eye(n)
        axes = [sign * e for e in eye for sign in (1.0, -1.0)]
        # rows whose largest |q_k| is tied: the diagonal, and a +/- pair at either end
        ties = [np.full(n, 1.0 / math.sqrt(n)), (eye[1] - eye[0]) / math.sqrt(2.0),
                (eye[-2] - eye[-1]) / math.sqrt(2.0)]
        for q in [_unit(rng, n) for _ in range(50)] + axes + ties:
            frame = tangent_frame(q)
            mat = np.vstack([q[None, :], frame])
            assert np.allclose(mat @ mat.T, np.eye(n), atol=1e-12)
            assert np.linalg.det(mat.T) > 0
    # stable at the poles too
    for q in (north_pole(5), -north_pole(5)):
        frame = tangent_frame(q)
        assert np.allclose(frame @ q, 0.0, atol=1e-14)


def test_pole_map_jacobian_matches_closed_form():
    # per sample, det[f(q) | df(v_1) | ... | df(v_{n-1})] = 2 (-2 t)^(n-2) with t = q_n,
    # so a wrong frame orientation and a wrong differential fail here separately
    rng = np.random.default_rng(14)
    for n in range(2, 9):
        for _ in range(200):
            q = _unit(rng, n)
            cols = [pole_map(q)] + [pole_map_differential(q, v) for v in tangent_frame(q)]
            expected = 2.0 * (-2.0 * q[-1]) ** (n - 2)
            assert abs(np.linalg.det(np.column_stack(cols)) - expected) <= 1e-12
            # |f(q) + p_n|^2 = 4 (1 - q_n^2): only the poles reach the south pole
            gap = float(np.sum((pole_map(q) + north_pole(n)) ** 2))
            assert abs(gap - 4.0 * (1.0 - q[-1] ** 2)) <= 1e-12
        for pole in (north_pole(n), -north_pole(n)):
            assert np.array_equal(pole_map(pole), -north_pole(n))


def test_degree_preimage_parity():
    assert [degree_preimage(n) for n in range(2, 9)] == [2, 0, 2, 0, 2, 0, 2]
    with pytest.raises(UnsupportedDimensionError):
        degree_preimage(9)


def test_degree_integral_small():
    assert abs(degree_integral(2, samples=20_000, seed=1) - 2.0) < 0.1
    assert abs(degree_integral(3, samples=20_000, seed=1)) < 0.1
    assert abs(degree_integral(5, samples=40_000, seed=1)) < 0.1


@pytest.mark.parametrize("n", range(2, 9))
def test_degree_integral_is_the_mean_of_the_closed_form_density(n):
    # the same Philox draws in the same 8192-row chunks; per sample the density
    # is 2 (-2 t)^(n-2), so a sign error shows even for odd n, where the degree
    # is 0 and the 0.1 agreement check cannot see it
    for samples in (10_000, 20_000):
        for seed in (0, 1, 7):
            rng = np.random.Generator(np.random.Philox(seed))
            total = 0.0
            for start in range(0, samples, 8192):
                q = rng.normal(size=(min(8192, samples - start), n))
                q /= np.linalg.norm(q, axis=1, keepdims=True)
                total += float(np.sum(2.0 * (-2.0 * q[:, -1]) ** (n - 2)))
            assert abs(degree_integral(n, samples, seed) - total / samples) <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_degree_integral_draws_what_rng_normal_draws(n):
    # the reused buffer of standard normal draws against a fresh rng.normal
    # array per chunk, with the same arithmetic after it: equal to the bit
    for samples in (10_000, 20_000, 200_000):
        for seed in (0, 5):
            rng = np.random.Generator(np.random.Philox(seed))
            total = 0.0
            for start in range(0, samples, 8192):
                q = rng.normal(size=(min(8192, samples - start), n))
                q *= (1.0 / np.sqrt(np.einsum("ij,ij->i", q, q)))[:, None]
                total += float(np.sum(spheremap._pullback_density(q)))
            assert degree_integral(n, samples, seed) == total / samples


def _density_matrices(q):
    # A = 2t(qq^T - I) - 2q e_n^T + e_n q^T, assembled term by term from its definition
    n = q.shape[1]
    t = q[:, -1, None, None]
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    return (2.0 * t * (q[:, :, None] * q[:, None, :] - np.eye(n))
            - 2.0 * q[:, :, None] * e_n[None, None, :]
            + e_n[None, :, None] * q[:, None, :])


@pytest.mark.parametrize("n", range(2, 9))
def test_pullback_density_matches_the_full_determinant(n):
    rng = np.random.Generator(np.random.Philox(n))
    q = rng.normal(size=(3000, n))
    equator = rng.normal(size=(50, n))
    equator[:, -1] = 0.0
    q = np.vstack([q, equator, north_pole(n), -north_pole(n), np.eye(n)])
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    assert np.any(q[:, -1] == 0.0) and np.any(q[:, -1] == 1.0) and np.any(q[:, -1] == -1.0)
    full = np.linalg.det(_density_matrices(q))
    lemma = spheremap._pullback_density(q)
    assert np.all(np.abs(lemma - full) <= 1e-12 * np.maximum(1.0, np.abs(full)))


def test_degree_integral_memory_stays_per_chunk():
    # a per-sample n x n tensor over one 8192-row chunk at n = 8 alone takes 4.2 MB
    tracemalloc.start()
    try:
        degree_integral(8, 200_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("samples", [10**9 + 1, 99999999999999999999])
def test_degree_integral_sample_count_is_bounded(samples):
    # refused before any sample is drawn; 10**20 samples would run for days
    with pytest.raises(InvalidArgumentError, match=rf"^samples must be at most 10\*\*9, got {samples}$"):
        degree_integral(3, samples)


def test_degree_integral_reproducible():
    a = degree_integral(3, samples=20_000, seed=9)
    b = degree_integral(3, samples=20_000, seed=9)
    assert a == b


def test_degree_integral_input_gates():
    with pytest.raises(UnsupportedDimensionError):
        degree_integral(1)
    with pytest.raises(UnsupportedDimensionError):
        degree_integral(9)
    with pytest.raises(ValueError):
        degree_integral(3, samples=100)
    with pytest.raises(InvalidArgumentError):
        degree_integral(3, samples=10_000, seed=-1)
    assert degree_integral(2, np.int64(10_000), np.uint8(3)) == degree_integral(2, 10_000, 3)


@pytest.mark.parametrize("func, args, name", [
    (degree_integral, (2, 20000.5), "samples"),
    (degree_integral, (2.5,), "n"),
    (degree_integral, (2, 20000, 1.5), "seed"),
    (degree_preimage, (4.0,), "n"),
    (homotopy_endpoints, (3, 10.5), "grid"),
    (homotopy_endpoints, (3.0,), "n"),
    (classify_bm, (2.5,), "m"),
    (edge_obstruction, (circle_graph(3), 3.5, 2), "dim_m"),
    (edge_obstruction, (circle_graph(3), 3, 2.0), "dim_f"),
    (classify_bm, (np.float64(3.0),), "m"),
    (homotopy_endpoints, (3, 10.0), "grid"),
    # a bool is not an integer, although operator.index(True) is 1
    (classify_bm, (True,), "m"),
    (degree_preimage, (False,), "n"),
    (homotopy_endpoints, (3, True), "grid"),
    (edge_obstruction, (circle_graph(3), True, 0), "dim_m"),
    (degree_integral, (True,), "n"),
])
def test_sizes_must_be_integers(func, args, name):
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer"):
        func(*args)


def test_sphere_map_report_agreement():
    report = sphere_map_report(2, samples=20_000, seed=0)
    assert report.agreement
    assert report.degree_preimage == 2


def _collapse(v, y):
    # the cylinder collapse S^{n-2} x [-1, 1] -> S^{n-1}, lids to the poles
    return np.append(math.sqrt(max(0.0, 1.0 - y * y)) * v, y)


def test_cylinder_lift_commutes_with_projection():
    # pole_map lifts through the collapse to (v, x) -> (-v, 1 - 2x^2) on the
    # upper half and (v, 1 - 2x^2) on the lower; the jump at x = 0 is lost in
    # the north lid
    rng = np.random.default_rng(8)
    for n in (3, 4, 5):
        for x in np.linspace(-1.0, 1.0, 21):
            v = _unit(rng, n - 1)
            lift = (-v if x > 0 else v), 1.0 - 2.0 * x * x
            assert np.max(np.abs(_collapse(*lift) - pole_map(_collapse(v, x)))) <= 1e-12


def test_homotopy_endpoints_odd_dimensions():
    for n, grid in ((3, 50), (5, 30), (7, 12)):
        report = homotopy_endpoints(n, grid=grid)
        assert report.passed, report
        assert report.metrics["max_adjacent_step"] < math.pi / 2


def test_homotopy_refinement_shrinks_steps():
    coarse = homotopy_endpoints(3, grid=20).metrics["max_adjacent_step"]
    fine = homotopy_endpoints(3, grid=80).metrics["max_adjacent_step"]
    assert fine < coarse


def _whole_grid_homotopy(n, grid):
    # the null homotopy evaluated on the whole (direction, height, time) grid at
    # once, every image in one grid^3 x n array: (time-0, time-1, unit-norm
    # deviations, largest adjacent step)
    def collapse(direction, height):
        radial = np.sqrt(np.clip(1.0 - height * height, 0.0, None))[..., None] * direction
        return np.concatenate(
            [radial, np.broadcast_to(height[..., None], radial.shape[:-1] + (1,))], axis=-1)

    rng = np.random.Generator(np.random.Philox(0))
    vs = rng.normal(size=(grid, n - 1))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    xs = np.linspace(-1.0, 1.0, grid)
    ts = np.linspace(0.0, 1.0, grid)
    v4 = vs[:, None, None, :]
    x3 = xs[None, :, None]
    t3 = ts[None, None, :]
    s1 = np.clip(2.0 * t3, 0.0, 1.0)
    s2 = np.clip(2.0 * t3 - 1.0, 0.0, 1.0)
    angle = math.pi * (1.0 - s1) * (x3 > 0)
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    direction = np.empty(np.broadcast_shapes(v4.shape, angle.shape + (n - 1,)))
    direction[..., 0::2] = c * v4[..., 0::2] - s * v4[..., 1::2]
    direction[..., 1::2] = s * v4[..., 0::2] + c * v4[..., 1::2]
    h = collapse(direction, (1.0 - s2) * (1.0 - 2.0 * x3 * x3) - s2)
    base = collapse(vs[:, None, :], xs[None, :])
    image = north_pole(n) - 2.0 * base[..., -1:] * base
    start_dev = float(np.max(np.linalg.norm(h[:, :, 0, :] - image, axis=-1)))
    end_dev = float(np.max(np.linalg.norm(h[:, :, -1, :] + north_pole(n), axis=-1)))
    norm_dev = float(np.max(np.abs(np.linalg.norm(h, axis=-1) - 1.0)))
    step_t = float(np.max(np.linalg.norm(np.diff(h, axis=2), axis=-1)))
    step_x = float(np.max(np.linalg.norm(np.diff(h, axis=1), axis=-1)))
    return start_dev, end_dev, norm_dev, max(step_t, step_x)


@pytest.mark.parametrize("n, grid", [(3, 20), (5, 12), (7, 7)])
def test_sliced_homotopy_equals_the_whole_grid(n, grid):
    report = homotopy_endpoints(n, grid)
    *values, step = _whole_grid_homotopy(n, grid)
    assert [item.value for item in report.items] == values
    assert report.metrics["max_adjacent_step"] == step


def test_homotopy_memory_stays_per_slice():
    # one grid^3 x (n - 1) float array alone takes 48 MB at grid 100 and n = 7
    tracemalloc.start()
    try:
        homotopy_endpoints(7, grid=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


@pytest.mark.parametrize("grid", [2, 101, 10**6])
def test_homotopy_grid_is_bounded(grid):
    # grid 10**6 would ask for grid^3 x (n - 1) rotated directions: it is refused
    # before any is drawn
    with pytest.raises(InvalidArgumentError, match=f"^grid must be in 3..100, got {grid}$"):
        homotopy_endpoints(3, grid)


def test_homotopy_refuses_even_dimension():
    with pytest.raises(EvenDimensionError):
        homotopy_endpoints(4)
    with pytest.raises(UnsupportedDimensionError):
        homotopy_endpoints(9)


def test_local_trivialization_consistency():
    # on the upper band 0 < q_n < 1/sqrt(2), the reflection at q factors as the
    # rotation sending the pole to pole_map(q), after the reflection at the
    # normalized equatorial part of q
    rng = np.random.default_rng(12)
    band = 0.0
    count = 0
    while count < 200:
        n = int(rng.integers(2, 7))
        q = _unit(rng, n)
        height = abs(float(q[-1]))
        if not 0.01 < height < 1.0 / math.sqrt(2.0) - 0.01:
            continue
        q[-1] = height
        q /= np.linalg.norm(q)
        image = pole_map(q)
        pole = north_pole(n)
        w = image - image[-1] * pole
        s = float(np.linalg.norm(w))
        w /= s
        rotation = (np.eye(n) + (image[-1] - 1.0) * (np.outer(pole, pole) + np.outer(w, w))
                    + s * (np.outer(w, pole) - np.outer(pole, w)))
        assert np.allclose(rotation @ pole, image, atol=1e-12)
        assert np.allclose(rotation @ rotation.T, np.eye(n), atol=1e-12)
        assert abs(np.linalg.det(rotation) - 1.0) < 1e-10
        qe = q.copy()
        qe[-1] = 0.0
        qe /= np.linalg.norm(qe)
        band = max(band, float(np.max(np.abs(reflection(q) - rotation @ reflection(qe)))))
        count += 1
    assert band <= 1e-10
