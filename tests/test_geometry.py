"""Geometry module tests: rotations, mirrors, reflection points, AoA, delays."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stripeloc.errors import DegenerateGeometry
from stripeloc.geometry import (
    SPEED_OF_LIGHT,
    PathKind,
    Stripe,
    Wall,
    aoa,
    d_rot_z_at_zero,
    enumerate_paths,
    mirror_ue,
    path_delay,
    reflection_point,
    rot_z,
    wrap_angle,
)

import oracles
from conftest import toy_scene


# ---------------------------------------------------------------------------
# rot_z / d_rot_z_at_zero
# ---------------------------------------------------------------------------


def test_rot_z_identity():
    assert_allclose(rot_z(0.0), np.eye(3), atol=1e-15)


def test_rot_z_quarter_turn():
    assert_allclose(rot_z(math.pi / 2) @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)


def test_rot_z_inverse():
    assert_allclose(rot_z(0.7) @ rot_z(-0.7), np.eye(3), atol=1e-15)


def test_rot_z_orthogonal_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        beta = rng.uniform(-math.pi, math.pi)
        R = rot_z(beta)
        assert_allclose(R @ R.T, np.eye(3), atol=1e-14)
        assert np.isclose(np.linalg.det(R), 1.0)
        assert_allclose(R, oracles.rotation_matrix_z(beta), atol=1e-15)


def test_d_rot_z_closed_form():
    assert_allclose(
        d_rot_z_at_zero(),
        np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )


def test_d_rot_z_action():
    r = np.array([0.3, -1.2, 0.0])
    assert_allclose(d_rot_z_at_zero() @ r, [1.2, 0.3, 0.0], atol=1e-15)
    assert_allclose(d_rot_z_at_zero() @ [0.0, 0.0, 1.0], np.zeros(3))


def test_d_rot_z_matches_finite_difference():
    assert_allclose(d_rot_z_at_zero(), oracles.fd_rotz_derivative(), atol=1e-9)


# ---------------------------------------------------------------------------
# mirror_ue
# ---------------------------------------------------------------------------


def test_mirror_fixed_point_on_plane():
    wall = Wall((1.0, 2.0, 0.0), (0.0, 1.0, 0.0))
    p = np.array([5.0, 2.0, 1.3])  # lies on y=2
    assert_allclose(mirror_ue(p, wall), p)


def test_mirror_sign_flip():
    wall = Wall((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert_allclose(mirror_ue([3.03, 2.87, 1.0], wall), [3.03, -2.87, 1.0])


def test_mirror_involution_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        wall = Wall(rng.standard_normal(3), n)
        p = rng.standard_normal(3) * 4
        assert_allclose(mirror_ue(mirror_ue(p, wall), wall), p, atol=1e-12)
        # midpoint of (p, mirror) lies on the plane
        mid = 0.5 * (p + mirror_ue(p, wall))
        assert oracles.plane_offset(mid, wall.point, wall.normal) < 1e-12
        # a (..., 3) batch mirrors every point bit for bit as the single call
        pts = rng.standard_normal((2, 4, 3)) * 4
        batch = mirror_ue(pts, wall)
        assert batch.shape == pts.shape
        for idx in np.ndindex(pts.shape[:-1]):
            np.testing.assert_array_equal(batch[idx], mirror_ue(pts[idx], wall))


# ---------------------------------------------------------------------------
# reflection_point
# ---------------------------------------------------------------------------


def test_reflection_point_example():
    wall = Wall((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    p_rs = np.array([0.0, 1.0, 2.75])
    p = np.array([4.0, 2.0, 1.0])
    rp = reflection_point(p_rs, p, wall)
    assert abs(rp[1]) < 1e-12
    assert oracles.specular_angle_residual(p, rp, p_rs, wall.normal) < 1e-9
    assert_allclose(
        rp, oracles.reflection_point_unit_ray(p_rs, p, wall.point, wall.normal), atol=1e-12
    )


def test_reflection_point_symmetric_config():
    # UE directly "behind" the foot of the stripe's perpendicular: the RP is
    # that foot point.
    wall = Wall((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    p_rs = np.array([2.0, 3.0, 1.5])
    p = np.array([2.0, 1.0, 1.5])
    rp = reflection_point(p_rs, p, wall)
    # both points share x/z, so the specular point is on the same vertical line
    assert_allclose(rp, [2.0, 0.0, 1.5], atol=1e-12)


def test_reflection_point_random_properties():
    rng = np.random.default_rng(17)
    count = 0
    while count < 100:
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        wall = Wall(rng.standard_normal(3), n)
        p_rs = rng.standard_normal(3) * 3
        p = rng.standard_normal(3) * 3
        s1 = wall.signed_distance(p_rs)
        s2 = wall.signed_distance(p)
        if s1 * s2 <= 0 or min(abs(s1), abs(s2)) < 1e-3:
            continue
        count += 1
        rp = reflection_point(p_rs, p, wall)
        assert oracles.plane_offset(rp, wall.point, wall.normal) < 1e-9
        assert oracles.specular_angle_residual(p, rp, p_rs, wall.normal) < 1e-9
        assert_allclose(
            rp,
            oracles.reflection_point_unit_ray(p_rs, p, wall.point, wall.normal),
            atol=1e-12,
        )
        # the RP lies between the stripe and the mirror image
        pm = mirror_ue(p, wall)
        t = np.dot(rp - p_rs, pm - p_rs) / np.dot(pm - p_rs, pm - p_rs)
        assert 0.0 <= t <= 1.0


def test_reflection_point_straddle_raises():
    wall = Wall((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(DegenerateGeometry):
        reflection_point([0.0, 1.0, 0.0], [1.0, -1.0, 0.0], wall)


def test_reflection_point_parallel_raises():
    wall = Wall((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(DegenerateGeometry):
        reflection_point([0.0, 1e-13, 0.0], [1.0, 1e-13, 0.0], wall)


# ---------------------------------------------------------------------------
# aoa
# ---------------------------------------------------------------------------


def test_aoa_boresight_and_endfire():
    stripe = Stripe([0.0, 0.0, 0.0], 0.0, 4, 0.04)
    assert np.isclose(aoa([0.0, 2.0, 0.0], stripe), 0.0)
    assert np.isclose(aoa([2.0, 0.0, 0.0], stripe), math.pi / 2)
    assert np.isclose(aoa([-2.0, 0.0, 0.0], stripe), -math.pi / 2)


def test_aoa_frame_invariance():
    rng = np.random.default_rng(23)
    for _ in range(100):
        pc = rng.standard_normal(3)
        beta = rng.uniform(-math.pi, math.pi)
        stripe = Stripe(pc, beta, 4, 0.04)
        target = pc + rng.standard_normal(3) * 2
        theta = aoa(target, stripe)
        dbeta = rng.uniform(-math.pi, math.pi)
        stripe2 = Stripe(pc, beta + dbeta, 4, 0.04)
        target2 = pc + rot_z(dbeta) @ (target - pc)
        theta2 = aoa(target2, stripe2)
        assert abs(wrap_angle(theta - theta2)) < 1e-12
        assert -math.pi < theta <= math.pi


def test_aoa_coincident_raises():
    stripe = Stripe([1.0, 2.0, 3.0], 0.3, 4, 0.04)
    with pytest.raises(DegenerateGeometry):
        aoa([1.0, 2.0, 3.0], stripe)


# ---------------------------------------------------------------------------
# path_delay
# ---------------------------------------------------------------------------


def test_path_delay_los_reduction():
    p = np.array([3.0, 0.0, 0.0])
    p_rs = np.zeros(3)
    assert np.isclose(path_delay(p, p, p_rs), 3.0 / SPEED_OF_LIGHT)
    assert np.isclose(path_delay(p, p, p_rs), 1.0007e-8, rtol=1e-4)


def test_path_delay_collinear_and_reciprocal():
    p = np.array([4.0, 0.0, 0.0])
    via = np.array([2.5, 0.0, 0.0])
    p_rs = np.zeros(3)
    assert np.isclose(path_delay(p, via, p_rs), 4.0 / SPEED_OF_LIGHT)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, v, y = rng.standard_normal((3, 3))
        assert np.isclose(path_delay(x, v, y), path_delay(y, v, x))


# ---------------------------------------------------------------------------
# enumerate_paths
# ---------------------------------------------------------------------------


def test_enumerate_paths_canonical_counts():
    scene = toy_scene(n_stripes=4, n_sp=2)
    for n in range(4):
        paths = enumerate_paths(scene, n)
        kinds = [q.kind for q in paths]
        assert kinds == [PathKind.LOS] + [PathKind.RP] * 3 + [PathKind.SP] * 2
        # mounted wall is skipped, remaining wall indices ascend
        rp_walls = [q.index for q in paths if q.kind is PathKind.RP]
        assert scene.stripes[n].mounted_wall not in rp_walls
        assert rp_walls == sorted(rp_walls)
        # LoS delay is the minimum
        assert paths[0].delay == min(q.delay for q in paths)
        # LoS via point is the UE itself
        assert_allclose(paths[0].via_point, scene.ue_position)


def test_enumerate_paths_empty_scene():
    scene = toy_scene(n_stripes=1, n_sp=0)
    scene.walls = ()
    scene.stripes = (Stripe([3.0, 0.0, 2.75], 0.0, 4, 0.04, mounted_wall=None),)
    paths = enumerate_paths(scene, 0)
    assert len(paths) == 1 and paths[0].kind is PathKind.LOS


def test_enumerate_paths_pseudo_delay_offset():
    scene = toy_scene(n_stripes=2, clock_offset=0.0)
    for q in enumerate_paths(scene, 1):
        assert q.pseudo_delay == q.delay
    scene = toy_scene(n_stripes=2, clock_offset=16.66e-9)
    for q in enumerate_paths(scene, 1):
        assert np.isclose(q.pseudo_delay - q.delay, 16.66e-9)


def test_rp_via_points_on_walls():
    scene = toy_scene(n_stripes=4, n_sp=0)
    for n in range(4):
        for q in enumerate_paths(scene, n):
            if q.kind is PathKind.RP:
                wall = scene.walls[q.index]
                assert oracles.plane_offset(q.via_point, wall.point, wall.normal) < 1e-9
