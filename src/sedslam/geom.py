"""Rotation/pose arithmetic, pinhole camera model and epipolar primitives.

Conventions used throughout the package:

* a relative pose (R, t) between frames i and j maps points as
  ``x_j = R @ x_i + t``; for unit-baseline two-view poses t is a unit vector;
* epipolar lines are homogeneous 3-vectors ``l`` satisfying
  ``l_x * x + l_y * y + l_z = 0`` in pixel coordinates;
* depth of a point is its z-coordinate in the camera frame, so
  ``backproject(a, d)`` has z equal to d.

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError

# Threshold below which the Taylor branch of exp/log is used.
SMALL_ANGLE = 1e-8
# (l_x^2 + l_y^2) at or below this marks a degenerate epipolar line.
LINE_EPS = 1e-12
# Rays closer than this angle (radians) cannot be triangulated.
MIN_RAY_ANGLE = 1e-4

_ORTHO_TOL = 1e-9


def skew(v) -> np.ndarray:
    """3x3 matrix with ``skew(v) @ w == cross(v, w)``."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee(m) -> np.ndarray:
    """Inverse of :func:`skew` (antisymmetric part is taken for robustness)."""
    m = np.asarray(m, dtype=float)
    return 0.5 * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])


def so3_exp(xi) -> np.ndarray:
    """Rodrigues' formula mapping an axis-angle vector to a rotation matrix.

    Uses a second-order Taylor branch for angles below ``SMALL_ANGLE``.
    """
    xi = np.asarray(xi, dtype=float)
    theta = float(np.linalg.norm(xi))
    k = skew(xi)
    kk = k @ k
    if theta < SMALL_ANGLE:
        return np.eye(3) + k + 0.5 * kk
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * k + b * kk


def so3_log(rot) -> np.ndarray:
    """Axis-angle vector of a rotation matrix, with angle in [0, pi].

    Goes through the quaternion, which stays accurate for angles near 0 and
    near pi where trace/sine based formulas lose precision.
    """
    q = quat_from_rotation(rot)
    vn = float(np.linalg.norm(q[:3]))
    if vn < 1e-30:
        return 2.0 * q[:3]
    theta = 2.0 * float(np.arctan2(vn, q[3]))
    return (theta / vn) * q[:3]


def rotation_angle(rot) -> float:
    """Geodesic angle (radians) of a rotation matrix."""
    cos_theta = np.clip((np.trace(np.asarray(rot, dtype=float)) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.arccos(cos_theta))


def quat_from_rotation(rot) -> np.ndarray:
    """Unit quaternion (qx, qy, qz, qw) of a rotation matrix, with qw >= 0."""
    r = np.asarray(rot, dtype=float)
    tr = np.trace(r)
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([(r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s, 0.25 * s])
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array([0.25 * s, (r[0, 1] + r[1, 0]) / s,
                      (r[0, 2] + r[2, 0]) / s, (r[2, 1] - r[1, 2]) / s])
    elif r[1, 1] > r[2, 2]:
        s = np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = np.array([(r[0, 1] + r[1, 0]) / s, 0.25 * s,
                      (r[1, 2] + r[2, 1]) / s, (r[0, 2] - r[2, 0]) / s])
    else:
        s = np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = np.array([(r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s,
                      0.25 * s, (r[1, 0] - r[0, 1]) / s])
    q = q / np.linalg.norm(q)
    if q[3] < 0.0:
        q = -q
    return q


def rotation_from_quat(q) -> np.ndarray:
    """Rotation matrix of a quaternion given as (qx, qy, qz, qw); an (..., 4)
    array of quaternions gives an (..., 3, 3) array of matrices."""
    x, y, z, w = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    n = np.sqrt(x * x + y * y + z * z + w * w)
    x, y, z, w = x / n, y / n, z / n, w / n
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)], -1),
        np.stack([2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)], -1),
        np.stack([2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)], -1),
    ], -2)


def _as_rotation(rot) -> np.ndarray:
    rot = np.array(rot, dtype=float)
    if rot.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {rot.shape}")
    entries = rot.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise ValueError("rotation must be finite")
    a, b, c, d, e, f, g, h, i = entries
    # Entries of R Rᵀ - I, diagonal first: an off-diagonal NaN (inf - inf)
    # needs an entry whose row already has an infinite squared norm.
    gram = (a * a + b * b + c * c - 1.0, d * d + e * e + f * f - 1.0,
            g * g + h * h + i * i - 1.0, a * d + b * e + c * f, a * g + b * h + c * i,
            d * g + e * h + f * i)
    if max(map(abs, gram)) > _ORTHO_TOL:
        raise ValueError("rotation matrix is not orthonormal")
    if abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) > _ORTHO_TOL:
        raise ValueError("rotation matrix must have det +1")
    rot.flags.writeable = False
    return rot


def _as_vector(v, name="vector") -> np.ndarray:
    v = np.array(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError(f"{name} must be finite")
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class RelativePose:
    """Rotation plus unit translation direction, mapping frame i into frame j.

    ``x_j = rotation @ x_i + translation_dir`` up to the unobservable
    baseline length (5 observable degrees of freedom).
    """

    rotation: np.ndarray
    translation_dir: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_rotation(self.rotation))
        t = np.array(self.translation_dir, dtype=float)
        if t.shape != (3,):
            raise ValueError("translation_dir must be a 3-vector")
        n = np.linalg.norm(t)
        if not np.isfinite(n) or abs(n - 1.0) > 1e-6:
            raise ValueError(f"translation_dir must be unit length, |t| = {n}")
        t = t / n
        t.flags.writeable = False
        object.__setattr__(self, "translation_dir", t)

    def inverse(self) -> "RelativePose":
        rot = self.rotation.T
        t = -rot @ self.translation_dir
        return RelativePose(rot, t / np.linalg.norm(t))


@dataclass(frozen=True, eq=False)
class Se3Pose:
    """Rigid transform ``x_out = rotation @ x_in + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_rotation(self.rotation))
        object.__setattr__(self, "translation", _as_vector(self.translation, "translation"))

    @staticmethod
    def identity() -> "Se3Pose":
        return Se3Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "Se3Pose") -> "Se3Pose":
        """self applied after other."""
        return Se3Pose(self.rotation @ other.rotation,
                       self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Se3Pose":
        rot = self.rotation.T
        return Se3Pose(rot, -rot @ self.translation)

    def apply(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation


@dataclass(frozen=True, eq=False)
class Sim3Transform:
    """Similarity transform ``x_out = scale * rotation @ x_in + translation``."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "rotation", _as_rotation(self.rotation))
        object.__setattr__(self, "translation", _as_vector(self.translation, "translation"))

    @staticmethod
    def identity() -> "Sim3Transform":
        return Sim3Transform(1.0, np.eye(3), np.zeros(3))

    @staticmethod
    def from_se3(pose: Se3Pose) -> "Sim3Transform":
        return Sim3Transform(1.0, pose.rotation, pose.translation)

    def compose(self, other: "Sim3Transform") -> "Sim3Transform":
        return Sim3Transform(self.scale * other.scale,
                             self.rotation @ other.rotation,
                             self.scale * self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Sim3Transform":
        rot = self.rotation.T
        s = 1.0 / self.scale
        return Sim3Transform(s, rot, -s * (rot @ self.translation))

    def apply(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return self.scale * (points @ self.rotation.T) + self.translation

    def transform_pose(self, pose: Se3Pose) -> Se3Pose:
        """Map a world-from-camera pose into this transform's output frame.

        Camera coordinates are rescaled by ``scale``, so per-camera depths
        must be multiplied by ``scale`` alongside this operation.
        """
        return Se3Pose(self.rotation @ pose.rotation,
                       self.scale * (self.rotation @ pose.translation) + self.translation)


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera with focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy))):
            raise ValueError("intrinsics must be finite")
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]])

    def inv_matrix(self) -> np.ndarray:
        return np.array([[1.0 / self.fx, 0.0, -self.cx / self.fx],
                         [0.0, 1.0 / self.fy, -self.cy / self.fy],
                         [0.0, 0.0, 1.0]])


def essential_from_pose(pose: RelativePose) -> np.ndarray:
    """Essential matrix of a relative pose.

    With the ``x_j = R x_i + t`` convention the matrix E = [t]x R satisfies
    ``x̄_jᵀ E x̄_i = 0`` for calibrated rays, i.e. it maps frame-i points to
    frame-j epipolar lines.
    """
    return skew(pose.translation_dir) @ pose.rotation


def fundamental_from_essential(e, k1: Intrinsics, k2: Intrinsics) -> np.ndarray:
    """F = K2^-T E K1^-1; K1 calibrates the anchor frame, K2 the match frame."""
    return k2.inv_matrix().T @ np.asarray(e, dtype=float) @ k1.inv_matrix()


def essential_from_fundamental(f, k1: Intrinsics, k2: Intrinsics) -> np.ndarray:
    """Inverse of :func:`fundamental_from_essential`: E = K2ᵀ F K1."""
    return k2.matrix().T @ np.asarray(f, dtype=float) @ k1.matrix()


def project(points, k: Intrinsics) -> np.ndarray:
    """Pinhole projection of points (..., 3) in camera coordinates."""
    points = np.asarray(points, dtype=float)
    z = points[..., 2]
    if np.any(z <= 0.0):
        raise BehindCameraError("cannot project a point with non-positive depth")
    u = k.fx * points[..., 0] / z + k.cx
    v = k.fy * points[..., 1] / z + k.cy
    return np.stack([u, v], axis=-1)


def backproject(a, depth, k: Intrinsics) -> np.ndarray:
    """3D point of pixel ``a`` at the given depth; z of the result equals depth."""
    a = np.asarray(a, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if np.any(depth <= 0.0):
        raise ValueError("depth must be positive")
    x = (a[..., 0] - k.cx) / k.fx
    y = (a[..., 1] - k.cy) / k.fy
    return np.stack([x, y, np.ones_like(x)], axis=-1) * depth[..., None]


def calibrated_rays(pixels, k: Intrinsics) -> np.ndarray:
    """Rays ``K^-1 (x, y, 1)`` of pixel rows (n, 2), with z = 1."""
    return np.concatenate([pixels, np.ones((len(pixels), 1))], axis=1) @ k.inv_matrix().T


def triangulate_batch(pose: RelativePose, anchors, matches,
                      k1: Intrinsics, k2: Intrinsics):
    """Midpoint triangulation of anchor/match pixel pairs.

    Returns (depth1, depth2, valid): signed depths of the midpoint in both
    camera frames at unit-baseline scale, and a mask of pairs whose rays
    subtend at least ``MIN_RAY_ANGLE``.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    matches = np.atleast_2d(np.asarray(matches, dtype=float))
    rot, t = pose.rotation, pose.translation_dir

    u = calibrated_rays(anchors, k1)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = calibrated_rays(matches, k2) @ rot  # rows become Rᵀ @ ray, the direction in frame 1
    v /= np.linalg.norm(v, axis=1, keepdims=True)

    # Camera 2 center in frame 1 is -Rᵀ t, so the center offset is Rᵀ t.
    w0 = rot.T @ t
    b = np.sum(u * v, axis=1)
    d = u @ w0
    e = v @ w0
    denom = 1.0 - b * b
    valid = np.sqrt(np.clip(denom, 0.0, None)) >= np.sin(MIN_RAY_ANGLE)
    denom = np.where(valid, denom, 1.0)

    s1 = (b * e - d) / denom
    s2 = (e - b * d) / denom
    mid = 0.5 * (s1[:, None] * u + (-w0)[None, :] + s2[:, None] * v)
    depth1 = mid[:, 2]
    depth2 = mid @ rot.T[:, 2] + t[2]  # z-row of R @ mid + t
    return depth1, depth2, valid
