"""Deterministic scene geometry.

Rotations, mirror images, specular reflection points, angles of arrival and
propagation (pseudo-)delays for a single-antenna transmitter observed by
wall-mounted antenna stripes.  Everything here is a pure function of its
inputs; randomness and physics (amplitudes, noise) live elsewhere.

Conventions
-----------
* Angles of arrival are measured from the stripe boresight (local +y axis),
  positive toward local +x, and wrapped to (-pi, pi].
* Walls are infinite planes given by a point and a unit normal; no occlusion
  or aperture test is performed.
* A stripe mounted on a wall sees no reflection off that wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DegenerateGeometry

SPEED_OF_LIGHT = 299792458.0  # m/s

_PLANE_TOL = 1e-12


def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(3)
    return v


@dataclass(frozen=True)
class Wall:
    """Infinite planar reflector: a point on the plane plus a unit normal."""

    point: np.ndarray
    normal: np.ndarray
    material_id: str = "default"

    def __post_init__(self):
        object.__setattr__(self, "point", _as_vec3(self.point))
        n = _as_vec3(self.normal)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("wall normal must be a unit vector")
        object.__setattr__(self, "normal", n)

    def signed_distance(self, p) -> float:
        """Signed distance of point ``p`` from the wall plane (along the normal)."""
        return float((_as_vec3(p) - self.point) @ self.normal)


@dataclass(frozen=True)
class Stripe:
    """Uniform linear antenna array (a "stripe") with a known phase center.

    Parameters
    ----------
    phase_center : array_like
        Position of antenna element 0 in global coordinates (m).
    azimuth : float
        Rotation of the local frame about global z, counter-clockwise from
        the x-axis (rad).  Elements extend along the local +x axis; the
        boresight is local +y.
    num_antennas : int
        Number of elements M.
    spacing : float
        Inter-element spacing d (m).
    mounted_wall : int, optional
        Index of the wall the stripe is mounted on (that wall contributes no
        reflected path for this stripe), or None for a free-standing stripe.
    """

    phase_center: np.ndarray
    azimuth: float
    num_antennas: int
    spacing: float
    mounted_wall: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "phase_center", _as_vec3(self.phase_center))
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be >= 1")
        if self.spacing <= 0.0:
            raise ValueError("spacing must be positive")


class PathKind(Enum):
    LOS = "los"
    RP = "rp"
    SP = "sp"


@dataclass(frozen=True)
class PathGeometry:
    """Geometry of one propagation path as seen from one stripe.

    ``index`` is the wall index for RP paths, the scatterer index for SP
    paths, and -1 for the LoS path.  ``via_point`` is the UE position itself
    for LoS, the reflection point for RPs, and the scatterer position for SPs.
    """

    kind: PathKind
    index: int
    via_point: np.ndarray
    aoa: float
    delay: float
    pseudo_delay: float


def wrap_angle(x):
    """Wrap an angle, or each entry of an array of angles, to (-pi, pi]."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


def rot_z(beta: float) -> np.ndarray:
    """Counter-clockwise rotation about the z-axis by ``beta`` radians."""
    c, s = math.cos(beta), math.sin(beta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def d_rot_z_at_zero() -> np.ndarray:
    """Derivative of :func:`rot_z` with respect to the angle, at angle zero.

    Maps [x, y, z] to [-y, x, 0]; its action on a horizontal vector is a
    quarter-turn, which is what couples angle errors to position errors.
    """
    return np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def mirror_ue(p, wall: Wall) -> np.ndarray:
    """Mirror images of (..., 3) points ``p`` across the wall plane.

    The plane offset is one dot product per point, so a point gets the same
    bits in a batch as alone (a matrix-vector product over the batch
    rounds differently).
    """
    p = np.asarray(p, dtype=float)
    return p - 2.0 * wall.normal * ((p - wall.point)[..., None, :] @ wall.normal)


def reflection_point(p_rs, p, wall: Wall) -> np.ndarray:
    """Specular reflection point on ``wall`` for the path ``p`` -> wall -> ``p_rs``.

    Computed by intersecting the segment from the stripe position ``p_rs`` to
    the mirror image of ``p`` with the wall plane.

    Raises
    ------
    DegenerateGeometry
        If ``p`` and ``p_rs`` do not lie strictly on the same side of the
        wall, or the mirrored ray is (numerically) parallel to the plane.
    """
    p_rs = _as_vec3(p_rs)
    p = _as_vec3(p)
    s_rs = wall.signed_distance(p_rs)
    s_ue = wall.signed_distance(p)
    if s_rs * s_ue <= 0.0:
        raise DegenerateGeometry(
            "UE and stripe must lie strictly on the same side of the wall "
            f"(signed distances {s_ue:.3e}, {s_rs:.3e})"
        )
    p_m = mirror_ue(p, wall)
    ray = p_m - p_rs
    denom = ray @ wall.normal
    if abs(denom) < _PLANE_TOL:
        raise DegenerateGeometry("mirrored ray is parallel to the wall plane")
    t = ((wall.point - p_rs) @ wall.normal) / denom
    return p_rs + t * ray


def aoa(target, stripe: Stripe) -> float:
    """Angle of arrival of ``target`` at ``stripe``, in the stripe's local frame.

    Zero at boresight (local +y), +pi/2 at endfire along the array axis
    (local +x); wrapped to (-pi, pi].
    """
    r = _as_vec3(target) - stripe.phase_center
    if not np.any(r):
        raise DegenerateGeometry("target coincides with the stripe phase center")
    # rot_z(beta)^-1 = rot_z(beta)^T
    local = rot_z(stripe.azimuth).T @ r
    return wrap_angle(0.5 * math.pi - math.atan2(local[1], local[0]))


def path_delay(p, via, p_rs) -> float:
    """Propagation delay of the path ``p`` -> ``via`` -> ``p_rs`` in seconds."""
    p = _as_vec3(p)
    via = _as_vec3(via)
    p_rs = _as_vec3(p_rs)
    return (np.linalg.norm(p - via) + np.linalg.norm(via - p_rs)) / SPEED_OF_LIGHT


def reflecting_walls(walls, stripe: Stripe) -> list[int]:
    """Indices of the walls that reflect to ``stripe``: all but its mounted wall."""
    return [w for w in range(len(walls)) if w != stripe.mounted_wall]


def enumerate_paths(scenario, stripe_index: int) -> list[PathGeometry]:
    """All propagation paths from the UE to one stripe, in canonical order.

    Order: LoS first, then one reflected path per wall (wall-index order,
    skipping the stripe's mounted wall), then one scattered path per
    scatterer (scatterer-index order).  Pseudo-delays include the scenario's
    clock offset.
    """
    stripe: Stripe = scenario.stripes[stripe_index]
    p = _as_vec3(scenario.ue_position)
    p_rs = stripe.phase_center
    dtau = float(scenario.clock_offset)
    walls = reflecting_walls(scenario.walls, stripe)
    routes = [(PathKind.LOS, -1, p.copy())]
    routes += [(PathKind.RP, w, reflection_point(p_rs, p, scenario.walls[w])) for w in walls]
    routes += [(PathKind.SP, j, _as_vec3(s.position)) for j, s in enumerate(scenario.scatterers)]
    paths = []
    for kind, index, via in routes:
        tau = path_delay(p, via, p_rs)
        paths.append(PathGeometry(kind, index, via, aoa(via, stripe), tau, tau + dtau))
    return paths
