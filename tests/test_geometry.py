import math

import numpy as np
import pytest

from safesynth.errors import GeometryError
from safesynth.geometry import (
    Box,
    RegionUnion,
    SampleSpace,
    box_grid,
    distance_to_region,
    gamma_half_plus_one,
    grid_halfstep,
    in_region,
    sample_uniform,
    u_inverse,
    u_of_r,
    volume,
)


def test_volume_room_product_box(room_space):
    assert volume(room_space.box) == pytest.approx(4.0)


def test_volume_unit_square():
    assert volume(Box.from_intervals([[0, 1], [0, 1]])) == 1.0


def test_volume_degenerate_axis_is_zero():
    assert volume(Box.from_intervals([[0, 1], [2, 2]])) == 0.0


def test_sample_space_rejects_degenerate_volume():
    with pytest.raises(GeometryError):
        SampleSpace(Box.from_intervals([[0, 1], [2, 2]]))


def test_box_validation():
    with pytest.raises(GeometryError):
        Box((0.0, 1.0), (1.0,))
    with pytest.raises(GeometryError):
        Box((2.0,), (1.0,))
    with pytest.raises(GeometryError):
        Box((float("nan"),), (1.0,))


def test_gamma_half_integer_matches_gamma_function():
    for n in range(0, 12):
        assert gamma_half_plus_one(n) == pytest.approx(
            math.gamma(n / 2 + 1), rel=1e-13
        )


def test_u_of_r_room_value(room_space):
    # n=2, Vol=4: mass of a radius-r ball is pi r^2 / 16
    assert u_of_r(6.177e-3, room_space) == pytest.approx(
        math.pi / 16 * 6.177e-3**2, rel=1e-12
    )
    assert u_of_r(6.177e-3, room_space) == pytest.approx(7.49e-6, rel=1e-3)


def test_u_of_r_zero_radius(room_space):
    assert u_of_r(0.0, room_space) == 0.0


def test_u_of_r_one_dimensional_identity():
    # n=1 on a unit interval: the half-integer gamma cancels and U(r) = r
    space = SampleSpace(Box.from_intervals([[0.0, 1.0]]))
    for r in (0.0, 0.1, 0.5, 0.9):
        assert u_of_r(r, space) == pytest.approx(r, rel=1e-12, abs=1e-15)


def test_u_of_r_clamps_to_one(room_space):
    assert u_of_r(1e6, room_space) == 1.0


def test_u_of_r_rejects_negative_radius(room_space):
    with pytest.raises(GeometryError):
        u_of_r(-1e-9, room_space)


def test_u_of_r_monotone(room_space):
    radii = np.linspace(0, 5, 400)
    values = [u_of_r(r, room_space) for r in radii]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_u_inverse_case_study_slack(room_space):
    assert 11.63 * u_inverse(7.492e-6, room_space) == pytest.approx(0.0718, abs=1e-3)


def test_u_inverse_posterior_margin_arithmetic(room_space):
    slack = 11.63 * u_inverse(1 - 0.9999723, room_space)
    assert slack == pytest.approx(0.138, abs=2e-3)
    assert -0.149 + slack == pytest.approx(-0.011, abs=2e-3)


def test_u_inverse_roundtrip(room_space):
    for eps in (1e-9, 1e-6, 1e-3, 0.1, 0.9):
        assert u_of_r(u_inverse(eps, room_space), room_space) == pytest.approx(
            eps, rel=1e-12
        )
    assert u_inverse(u_of_r(0.5, room_space), room_space) == pytest.approx(0.5, rel=1e-12)


def test_u_inverse_domain(room_space):
    with pytest.raises(GeometryError):
        u_inverse(-0.1, room_space)
    with pytest.raises(GeometryError):
        u_inverse(1.1, room_space)


def test_sample_uniform_count_zero(room_space):
    assert sample_uniform(room_space, 0, 7).shape == (0, 2)


def test_sample_uniform_containment(room_space):
    pts = sample_uniform(room_space, 5000, 123)
    assert np.all(pts >= room_space.box.lower_arr)
    assert np.all(pts <= room_space.box.upper_arr)


def test_sample_uniform_deterministic(room_space):
    a = sample_uniform(room_space, 1000, 42)
    b = sample_uniform(room_space, 1000, 42)
    assert np.array_equal(a, b)
    c = sample_uniform(room_space, 1000, 43)
    assert not np.array_equal(a, c)


def test_sample_uniform_prefix_stable(room_space):
    # sample i depends only on (seed, i), not on how many points are drawn
    a = sample_uniform(room_space, 100, 42)
    b = sample_uniform(room_space, 1000, 42)
    assert np.array_equal(a, b[:100])


def test_sample_uniform_mean_matches_uniform(room_space):
    n = 100_000
    pts = sample_uniform(room_space, n, 2024)
    mid = room_space.box.midpoint()
    sigma = room_space.box.sides() / math.sqrt(12) / math.sqrt(n)
    assert np.all(np.abs(pts.mean(axis=0) - mid) < 3 * sigma)


def test_region_contains_case_study_values(room_regions):
    unsafe = room_regions["unsafe"]
    assert in_region([22.7], unsafe)
    assert not in_region([24.5], unsafe)
    assert in_region([23.0], unsafe)  # closed boundaries
    # any leading shape of points, one answer per point
    points = np.array([[[22.7], [24.5]], [[23.0], [26.4]]])
    assert in_region(points, unsafe).tolist() == [[True, False], [True, True]]


def test_region_contains_dimension_mismatch(room_regions):
    with pytest.raises(GeometryError):
        in_region([22.7, 1.0], room_regions["unsafe"])
    with pytest.raises(GeometryError):
        distance_to_region([22.7, 1.0], room_regions["unsafe"])


def test_membership_is_exact_on_the_boundary(room_regions):
    unsafe = room_regions["unsafe"]
    edges = np.array([[23.0], [26.0], [np.nextafter(23.0, 24.0)], [np.nextafter(26.0, 25.0)]])
    assert in_region(edges, unsafe).tolist() == [True, True, False, False]
    # the distance underflows to 0 for a point just outside; membership does not
    unit = RegionUnion.from_intervals([[[0.0, 1.0]]])
    assert distance_to_region([-1e-170], unit) == 0.0
    assert not in_region([-1e-170], unit)
    assert in_region([0.0], unit)


def test_region_union_requires_parts():
    with pytest.raises(GeometryError):
        RegionUnion(())


def test_region_intersection_closed_boundary():
    a = RegionUnion.from_intervals([[[0.0, 1.0]]])
    b = RegionUnion.from_intervals([[[1.0, 2.0]]])
    assert a.intersects(b)  # touching closed sets intersect
    c = RegionUnion.from_intervals([[[1.5, 2.0]]])
    assert not a.intersects(c)


def test_volume_product_decomposes():
    rng = np.random.default_rng(5)
    for _ in range(20):
        lo = rng.uniform(-3, 0, size=3)
        hi = lo + rng.uniform(0, 2, size=3)
        full = Box(tuple(lo), tuple(hi))
        partial = math.prod(
            volume(Box((lo[i],), (hi[i],))) for i in range(3)
        )
        assert volume(full) == pytest.approx(partial, rel=1e-12)


def test_box_grid_shape_and_bounds():
    box = Box.from_intervals([[0, 1], [2, 4]])
    grid = box_grid(box, 5)
    assert grid.shape == (25, 2)
    assert np.all(grid >= box.lower_arr) and np.all(grid <= box.upper_arr)
    assert grid_halfstep(box, 5) == pytest.approx(0.5 * (0.25 + 0.5))


def test_distance_to_region(room_regions):
    unsafe = room_regions["unsafe"]
    assert distance_to_region(np.array([24.5]), unsafe) == pytest.approx(1.5)
    assert distance_to_region(np.array([22.7]), unsafe) == 0.0
    dist = distance_to_region(np.array([[24.5], [22.7], [25.5], [27.0]]), unsafe)
    assert dist.shape == (4,)
    assert dist.tolist() == pytest.approx([1.5, 0.0, 0.5, 0.5])
    square = RegionUnion.from_intervals([[[0.0, 1.0], [0.0, 1.0]]])
    assert distance_to_region(np.array([4.0, 5.0]), square) == pytest.approx(5.0)
