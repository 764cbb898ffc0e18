"""Rotation/pose arithmetic, pinhole camera model and epipolar primitives.

Conventions used throughout the package:

* a relative pose (R, t) between frames i and j maps points as
  ``x_j = R @ x_i + t``; for unit-baseline two-view poses t is a unit vector;
* epipolar lines are homogeneous 3-vectors ``l`` satisfying
  ``l_x * x + l_y * y + l_z = 0`` in pixel coordinates;
* depth of a point is its z-coordinate in the camera frame, so the point
  of pixel ``a`` at depth d is ``d * K^-1 (a, 1)``;
* points enter and leave as rows (n, k); per-match kernels work on them
  component-major, (k, n), so each elementwise step runs over length-n rows.

All types are immutable values and all operations are pure functions.
Public constructors check their values; values a solve derives from checked
ones are built unchecked (:func:`_unchecked`), with the same arithmetic.
:func:`skew` and :func:`so3_exp` take one vector or a stack, each row rounded as it is alone;
:func:`rotation_angle`, the norm of :func:`so3_log`, is within 1e-15 relative down to 1e-12 rad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError, SedSlamError

# Threshold below which the Taylor branch of exp/log is used.
SMALL_ANGLE = 1e-8
# (l_x^2 + l_y^2) at or below this marks a degenerate epipolar line.
LINE_EPS = 1e-12
# Rays closer than this angle (radians) cannot be triangulated.
MIN_RAY_ANGLE = 1e-4

_ORTHO_TOL = 1e-9
_EYE3 = np.eye(3)
# Row p holds the generator skew(e_p), flattened: skew(v) is v @ _SKEW.
_SKEW = np.cross(_EYE3[:, None], _EYE3).transpose(0, 2, 1).reshape(3, 9)


def _norm(v) -> float:
    """``np.linalg.norm`` of a 1-D float array, with its arithmetic and less dispatch."""
    return math.sqrt(v.dot(v))


def _unchecked(cls, *values):
    """An instance of the frozen dataclass ``cls`` holding ``values``, arrays made
    read-only, without the checks and copies of its ``__post_init__``."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


def skew(v) -> np.ndarray:
    """3x3 matrix with ``skew(v) @ w == cross(v, w)``, for each vector of an (..., 3) ``v``."""
    v = np.asarray(v, dtype=float)
    return (v @ _SKEW).reshape(v.shape + (3,))


def vee(m) -> np.ndarray:
    """Inverse of :func:`skew` (antisymmetric part is taken for robustness)."""
    m = np.asarray(m, dtype=float)
    return 0.5 * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])


def so3_exp(xi) -> np.ndarray:
    """Rodrigues' formula mapping axis-angle vectors (..., 3) to rotation matrices
    (..., 3, 3), with a second-order Taylor branch for each vector whose angle, one
    BLAS dot per vector as in :func:`_norm`, is below ``SMALL_ANGLE``."""
    xi = np.asarray(xi, dtype=float)
    k = skew(xi)
    theta = np.sqrt(xi[..., None, :] @ xi[..., :, None])
    big = theta >= SMALL_ANGLE
    theta = np.maximum(theta, SMALL_ANGLE)  # keeps the unused general branch finite
    a = np.where(big, np.sin(theta) / theta, 1.0)
    b = np.where(big, (1.0 - np.cos(theta)) / (theta * theta), 0.5)
    return _EYE3 + a * k + b * (k @ k)


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
    """Geodesic angle (radians) of a rotation matrix, the norm of :func:`so3_log`."""
    return _norm(so3_log(rot))


def quat_from_rotation(rot) -> np.ndarray:
    """Unit quaternion (qx, qy, qz, qw) of a rotation matrix, with qw >= 0; an
    (..., 3, 3) array of matrices gives an (..., 4) array of quaternions.

    Each matrix takes the branch it would alone (trace > 0, else its largest
    diagonal entry) and the same floating-point operations; the norm is one
    BLAS dot per quaternion, as for a single vector.
    """
    r = np.asarray(rot, dtype=float)
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = np.moveaxis(
        r.reshape(r.shape[:-2] + (9,)), -1, 0)
    tr = r00 + r11 + r22
    case = np.where(tr > 0.0, 0, np.where((r00 > r11) & (r00 > r22), 1,
                                          np.where(r11 > r22, 2, 3)))
    big = np.stack([tr + 1.0, 1.0 + r00 - r11 - r22, 1.0 + r11 - r00 - r22,
                    1.0 + r22 - r00 - r11])
    s = np.sqrt(np.take_along_axis(big, case[None], 0)[0]) * 2.0
    ax, ay, az = r21 - r12, r02 - r20, r10 - r01
    bxy, bxz, byz = r01 + r10, r02 + r20, r12 + r21
    # Per case, the numerators over s of (qx, qy, qz, qw); the case's own
    # component, where tr stands, is s / 4 instead.
    num = np.stack([np.stack(c, -1) for c in ((ax, ay, az, tr), (tr, bxy, bxz, ax),
                                              (bxy, tr, byz, ay), (bxz, byz, tr, az))])
    q = np.take_along_axis(num, case[None, ..., None], 0)[0] / s[..., None]
    q = np.where(case[..., None] == (1, 2, 3, 0), 0.25 * s[..., None], q)
    q = q / np.sqrt(q[..., None, :] @ q[..., :, None])[..., 0]
    return np.where(q[..., 3:] < 0.0, -q, q)


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


def _rotation_residuals(a, b, c, d, e, f, g, h, i):
    """The entries of R Rᵀ - I, diagonal first, and det R - 1 of the matrix
    with rows (a, b, c), (d, e, f), (g, h, i), given as floats or as arrays.

    An off-diagonal NaN (inf - inf) needs an entry whose row already has an
    infinite squared norm, so a matrix with one fails on the diagonal too.
    """
    gram = (a * a + b * b + c * c - 1.0, d * d + e * e + f * f - 1.0,
            g * g + h * h + i * i - 1.0, a * d + b * e + c * f, a * g + b * h + c * i,
            d * g + e * h + f * i)
    return gram, a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0


def _as_rotation(rot) -> np.ndarray:
    rot = np.array(rot, dtype=float)
    if rot.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {rot.shape}")
    entries = rot.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise ValueError("rotation must be finite")
    gram, det = _rotation_residuals(*entries)
    if max(map(abs, gram)) > _ORTHO_TOL:
        raise ValueError("rotation matrix is not orthonormal")
    if abs(det) > _ORTHO_TOL:
        raise ValueError("rotation matrix must have det +1")
    rot.flags.writeable = False
    return rot


def _rotation_defects(rot) -> np.ndarray:
    """(n,) mask of the matrices of an (n, 3, 3) stack that fail a check of
    :func:`_as_rotation` after its shape check: not finite, not orthonormal
    or det not +1. The arithmetic is that of the single check."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram, det = _rotation_residuals(*rot.reshape(-1, 9).T)
        return (~np.isfinite(rot).all(axis=(1, 2)) | (np.abs(gram) > _ORTHO_TOL).any(axis=0)
                | (np.abs(det) > _ORTHO_TOL))


def _finite_svd(m, what, stage=None, **kwargs):
    """``np.linalg.svd`` of ``m``, which must be finite: on inf LAPACK may never return."""
    if not np.isfinite(m).all():
        raise SedSlamError(f"{what} is not finite", stage)
    return np.linalg.svd(m, **kwargs)


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
        return _derived_pose(rot, t / _norm(t))


def _derived_pose(rot, t) -> RelativePose:
    """``RelativePose(rot, t)`` of values derived from checked ones, unchecked."""
    return _unchecked(RelativePose, np.array(rot, dtype=float), t / _norm(t))


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
        return Se3Pose(*self._map_poses(pose.rotation, pose.translation))

    def _map_poses(self, rot, trans):
        """:meth:`transform_pose` of stacked rotations (..., 3, 3) and translations (..., 3)."""
        return (self.rotation @ rot,
                self.scale * (self.rotation @ trans[..., None])[..., 0] + self.translation)


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


def essential_from_fundamental(f, k1: Intrinsics, k2: Intrinsics) -> np.ndarray:
    """Essential matrix of a fundamental matrix F = K2^-T E K1^-1: E = K2ᵀ F K1,
    where K1 calibrates the anchor frame and K2 the match frame."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf in E is refused at its SVD
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


def calibrated_rays(pixels, k: Intrinsics) -> np.ndarray:
    """Rays ``K^-1 (x, y, 1)`` of pixel rows (n, 2), with z = 1."""
    return np.concatenate([pixels, np.ones((len(pixels), 1))], axis=1) @ k.inv_matrix().T


def triangulate_batch(pose, anchors, matches, k1: Intrinsics, k2: Intrinsics):
    """Midpoint triangulation of anchor/match pixel pairs.

    ``pose`` is one :class:`RelativePose` or a sequence of P of them, all
    triangulated in one pass; a sequence adds a leading axis of length P to
    every output. Returns (depth1, depth2, valid): signed depths of the
    midpoint in both camera frames at unit-baseline scale, and a mask of
    pairs whose rays subtend at least ``MIN_RAY_ANGLE``.
    """
    single = isinstance(pose, RelativePose)
    poses = [pose] if single else pose
    rot = np.array([p.rotation for p in poses])
    t = np.array([p.translation_dir for p in poses])
    # Rays are component-major: u is (3, n), v and the midpoints (P, 3, n).
    # Products over components are per-candidate matmuls, so a candidate rounds
    # alike alone and in a batch. Camera 2 center in frame 1 is -Rᵀ t, so the
    # center offset is Rᵀ t.
    w0 = np.array([p.rotation.T @ p.translation_dir for p in poses])[:, None]
    u = np.ascontiguousarray(calibrated_rays(np.atleast_2d(np.asarray(anchors, float)), k1).T)
    u /= np.sqrt(np.sum(u * u, axis=0))
    v = calibrated_rays(np.atleast_2d(np.asarray(matches, dtype=float)), k2).T
    v = rot.transpose(0, 2, 1) @ v  # Rᵀ @ ray, the direction in frame 1
    v /= np.sqrt(np.sum(v * v, axis=1, keepdims=True))

    b = np.sum(u * v, axis=1)
    d = (w0 @ u)[:, 0]
    e = (w0 @ v)[:, 0]
    denom = 1.0 - b * b
    valid = np.sqrt(np.clip(denom, 0.0, None)) >= np.sin(MIN_RAY_ANGLE)
    denom = np.where(valid, denom, 1.0)

    s1 = (b * e - d) / denom
    s2 = (e - b * d) / denom
    mid = 0.5 * (s1[:, None] * u + (-w0).transpose(0, 2, 1) + s2[:, None] * v)
    depth2 = (rot[:, 2:] @ mid)[:, 0] + t[:, 2:]  # z-row of R @ mid + t
    out = mid[:, 2], depth2, valid
    return tuple(a[0] for a in out) if single else out
