"""Reference implementations that the tests compare the library against.

Each is the direct form (quadratic, line by line or element by element) of
a rule that the library computes a faster way. The geometry helpers take one
element at a time; the others are written in the same floating-point
arithmetic so that results must be equal, not merely close.
"""

import math
from dataclasses import replace

import numpy as np

from sedslam.ba import _observations, _project, _state
from sedslam.errors import (BehindCameraError, SedSlamError, TimestampCollisionError,
                            TrajectoryFileError)
from sedslam.files import read_depth_sidecar
from sedslam.geom import (LINE_EPS, MIN_RAY_ANGLE, SMALL_ANGLE, Intrinsics, RelativePose, Se3Pose,
                          calibrated_rays, project, rotation_angle, skew, triangulate_batch)
from sedslam.sim3 import TIMESTAMP_DECIMALS, Keyframe, ScaleEstimate, Trajectory, timestamp_key
from sedslam.twoview import _epipolar


class DegenerateLineError(SedSlamError):
    """Epipolar line with (l_x, l_y) ~ (0, 0); point-to-line error undefined."""


class ParallelRaysError(SedSlamError):
    """Triangulation rays are (near) parallel; no finite intersection."""


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


def backproject(a, depth, k: Intrinsics) -> np.ndarray:
    """3D point of pixel ``a`` at the given depth; z of the result equals depth."""
    a = np.asarray(a, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if np.any(depth <= 0.0):
        raise ValueError("depth must be positive")
    x = (a[..., 0] - k.cx) / k.fx
    y = (a[..., 1] - k.cy) / k.fy
    return np.stack([x, y, np.ones_like(x)], axis=-1) * depth[..., None]


def epipolar_line(a, pose: RelativePose, k1: Intrinsics, k2: Intrinsics) -> np.ndarray:
    """Epipolar line in image 2 of the anchor pixel ``a`` in image 1."""
    f = fundamental_from_essential(essential_from_pose(pose), k1, k2)
    ax, ay = np.asarray(a, dtype=float)
    return f @ np.array([ax, ay, 1.0])


def is_degenerate_line(line, eps: float = LINE_EPS) -> bool:
    line = np.asarray(line, dtype=float)
    return bool(line[0] * line[0] + line[1] * line[1] <= eps)


def point_line_error(m, line) -> np.ndarray:
    """2D point-to-line error vector.

    ``err = ((l_x m_x + l_y m_y + l_z) / (l_x^2 + l_y^2)) * (l_x, l_y)``;
    its norm is the perpendicular distance from m to the line.
    """
    line = np.asarray(line, dtype=float)
    mx, my = np.asarray(m, dtype=float)
    d = line[0] * line[0] + line[1] * line[1]
    if d <= LINE_EPS:
        raise DegenerateLineError(f"degenerate epipolar line {line}")
    zeta = line[0] * mx + line[1] * my + line[2]
    return (zeta / d) * line[:2]


def triangulate(pose: RelativePose, a, m, k1: Intrinsics, k2: Intrinsics) -> float:
    """Signed unit-baseline depth of anchor ``a`` in its own frame.

    Negative depths are returned as-is; chirality tests consume the sign.
    Raises :class:`ParallelRaysError` when the two rays are near parallel.
    """
    depth1, _, valid = triangulate_batch(pose, a, m, k1, k2)
    if not valid[0]:
        raise ParallelRaysError("triangulation rays are parallel")
    return float(depth1[0])


def triangulate_rows(pose, anchors, matches, k1: Intrinsics, k2: Intrinsics):
    """Midpoint triangulation on row-major rays, (n, 3) and (P, n, 3): the
    library's :func:`~sedslam.geom.triangulate_batch`, with its outputs, as
    it was before it moved to component-major (3, P, n) arrays."""
    single = isinstance(pose, RelativePose)
    poses = [pose] if single else pose
    rot = np.array([p.rotation for p in poses])
    t = np.array([p.translation_dir for p in poses])
    w0 = np.array([p.rotation.T @ p.translation_dir for p in poses])[:, :, None]
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    matches = np.atleast_2d(np.asarray(matches, dtype=float))

    u = calibrated_rays(anchors, k1)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = calibrated_rays(matches, k2) @ rot  # rows become Rᵀ @ ray, the direction in frame 1
    v /= np.linalg.norm(v, axis=2, keepdims=True)

    b = np.sum(u * v, axis=2)
    d = (u @ w0)[:, :, 0]
    e = (v @ w0)[:, :, 0]
    denom = 1.0 - b * b
    valid = np.sqrt(np.clip(denom, 0.0, None)) >= np.sin(MIN_RAY_ANGLE)
    denom = np.where(valid, denom, 1.0)

    s1 = (b * e - d) / denom
    s2 = (e - b * d) / denom
    mid = 0.5 * (s1[:, :, None] * u + (-w0).transpose(0, 2, 1) + s2[:, :, None] * v)
    depth1 = mid[:, :, 2]
    depth2 = (mid @ rot[:, 2, :, None])[:, :, 0] + t[:, 2:]  # z-row of R @ mid + t
    if single:
        return depth1[0], depth2[0], valid[0]
    return depth1, depth2, valid


_GEN = [skew(e) for e in np.eye(3)]  # so(3) generators


def sed_jacobian_einsum(pose: RelativePose, mset):
    """SED residuals and Jacobian blocks with d E / d xi built one generator
    at a time and the chain rule applied as two einsums, per row."""
    rot, t = pose.rotation, pose.translation_dir
    rays, k_invt, matches, sw = mset._rows
    lines, d, zeta, good, err = _epipolar(rot, t, mset)
    lx, ly = lines[0], lines[1]
    mx, my = matches[0], matches[1]
    inv_d = 1.0 / d
    inv_d2 = inv_d * inv_d
    j_l = np.empty((len(lx), 2, 3))
    j_l[:, 0, 0] = -2.0 * lx * lx * zeta * inv_d2 + lx * mx * inv_d + zeta * inv_d
    j_l[:, 0, 1] = -2.0 * lx * ly * zeta * inv_d2 + lx * my * inv_d
    j_l[:, 0, 2] = lx * inv_d
    j_l[:, 1, 0] = -2.0 * ly * lx * zeta * inv_d2 + ly * mx * inv_d
    j_l[:, 1, 1] = -2.0 * ly * ly * zeta * inv_d2 + ly * my * inv_d + zeta * inv_d
    j_l[:, 1, 2] = ly * inv_d
    tx = skew(t)
    d_e = np.empty((2, 6, 3, 3))
    for p, gen in enumerate(_GEN):
        gt_vec = skew(gen @ t)
        d_e[:, p] = tx @ gen @ rot, -rot.T @ gen @ tx
        d_e[:, 3 + p] = gt_vec @ rot, rot.T @ gt_vec
    d_lines = np.concatenate([np.einsum("pij,jn->npi", k @ de, x)
                              for x, k, de in zip(rays, k_invt, d_e)])
    jac = np.einsum("nij,npj->nip", j_l, d_lines)
    return (sw * err).T[good], (sw[:, None, None] * jac)[good]


def reprojection_residual(graph, edge_index: int, k: int) -> np.ndarray:
    """Pixel residual of anchor k of one edge: proj[G_j^-1 G_i unproj(a_k, d_k)] - m_kj."""
    edge = graph.edges[edge_index]
    p = backproject(graph.anchors[edge.i][k], graph.depths[edge.i][k], graph.intrinsics[edge.i])
    q = graph.poses[edge.j].inverse().apply(graph.poses[edge.i].apply(p))
    if q[2] <= 0.0:
        raise BehindCameraError(
            f"anchor {k} of edge {edge_index} reprojects behind camera {edge.j}")
    return project(q, graph.intrinsics[edge.j]) - edge.matches[k]


def _scatter(index, values, size):
    """Sum ``values`` into a zero vector of length ``size`` at ``index``."""
    return np.bincount(index.ravel(), values.ravel(), minlength=size)


def assemble_rows(obs, poses, depths):
    """BA normal equations (h_pp, h_pd, h_dd, g_p, g_d) scattered row by row:
    every observation row adds its own 4 × 36 h_pp and 2 × 6 g_p entries."""
    rot, trans = poses
    y, q, z, ok, pixels = _project(obs, poses, depths)
    sw = np.sqrt(obs.weights * ok)
    dpi = np.zeros((len(z), 2, 3))
    dpi[:, 0, 0] = obs.cams[:, 0] / z
    dpi[:, 1, 1] = obs.cams[:, 1] / z
    dpi[:, :, 2] = -obs.cams[:, :2] * q[:, :2] / (z * z)[:, None]
    j_y = np.einsum("nac,nbc->nab", dpi, rot[obs.j]) * sw[:, None, None]
    j_i = np.concatenate([np.cross(y[:, None, :], j_y), j_y], axis=2)
    j_d = np.einsum("nab,nb->na", j_y, -(y - trans[obs.i]) * depths[obs.d, None])
    rw = (pixels - obs.matches) * sw[:, None]

    n_pose, n_depth = 6 * len(rot), len(depths)
    own = 6 * obs.i[:, None] + np.arange(6)
    tgt = 6 * obs.j[:, None] + np.arange(6)
    both = np.concatenate([own, tgt])
    jj = np.einsum("nap,naq->npq", j_i, j_i)
    h_pp = _scatter(np.concatenate([own, tgt, own, tgt])[:, :, None] * n_pose
                    + np.concatenate([own, tgt, tgt, own])[:, None, :],
                    np.concatenate([jj, jj, -jj, -jj]), n_pose * n_pose).reshape(n_pose, -1)
    jd = np.einsum("nap,na->np", j_i, j_d)
    h_pd = _scatter(both * n_depth + np.tile(obs.d, 2)[:, None], np.concatenate([jd, -jd]),
                    n_pose * n_depth).reshape(n_pose, -1)
    jr = np.einsum("nap,na->np", j_i, rw)
    g_p = _scatter(both, np.concatenate([jr, -jr]), n_pose)
    h_dd = _scatter(obs.d, np.sum(j_d * j_d, axis=1), n_depth)
    g_d = _scatter(obs.d, np.sum(j_d * rw, axis=1), n_depth)
    return h_pp[6:, 6:], h_pd[6:], h_dd, g_p[6:], g_d


def extrapolate_pose(history) -> Se3Pose:
    """Linear-motion prediction: apply the latest relative motion once more."""
    if len(history) < 2:
        raise ValueError("pose extrapolation needs at least 2 poses")
    prev, last = history[-2], history[-1]
    return last.compose(prev.inverse().compose(last))


def reproject_matches(graph) -> int:
    """Reset every edge's matches to the reprojection of its anchors.

    After the reset all residuals are exactly zero, making the operation
    idempotent. Returns the number of behind-camera anchors, whose matches
    are left unchanged.
    """
    obs = _observations(graph)
    *_, ok, pixels = _project(obs, *_state(graph))
    matches = np.where(ok[:, None], pixels, obs.matches)
    ends = np.cumsum([len(e.matches) for e in graph.edges])
    for edge, m in zip(graph.edges, np.split(matches, ends[:-1])):
        edge.matches = m
    return int(np.sum(~ok))


def select_by_ground_truth(candidates, gt: RelativePose) -> RelativePose:
    """Candidate closest to gt: geodesic rotation angle plus translation
    direction angle; ties break to the lowest index."""
    dists = []
    for cand in candidates:
        rot = rotation_angle(cand.rotation.T @ gt.rotation)
        cos_t = np.clip(np.dot(cand.translation_dir, gt.translation_dir), -1.0, 1.0)
        dists.append(rot + float(np.arccos(cos_t)))
    return candidates[int(np.argmin(dists))]


def brute_force_scale(map_depths, tri_depths, ratio_bound=1.05):
    """Score every candidate ``s = d_k / d'_k`` against every pair."""
    d = np.asarray(map_depths, dtype=float).reshape(-1)
    dp = np.asarray(tri_depths, dtype=float).reshape(-1)
    candidates = d / dp
    ratios = d[None, :] / (candidates[:, None] * dp[None, :])
    counts = np.sum((ratios > 1.0 / ratio_bound) & (ratios < ratio_bound), axis=1)
    best_count = int(counts.max())
    best = float(np.min(candidates[counts == best_count]))
    return ScaleEstimate(best, best_count, best_count / d.size)


def associate_all_pairs(ts_a, ts_b, max_dt):
    """Greedy mutual nearest-neighbor association over all n·m pairs."""
    ts_a = np.asarray(ts_a, dtype=float)
    ts_b = np.asarray(ts_b, dtype=float)
    pairs = [(abs(a - b), i, j) for i, a in enumerate(ts_a) for j, b in enumerate(ts_b)
             if abs(a - b) <= max_dt]
    pairs.sort()
    used_a, used_b, matches = set(), set(), []
    for _, i, j in pairs:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        matches.append((i, j))
    matches.sort()
    return matches


def rotation_from_quat_scalar(q):
    """Rotation matrix of one quaternion (qx, qy, qz, qw), element by element."""
    x, y, z, w = np.asarray(q, dtype=float)
    n = np.sqrt(x * x + y * y + z * z + w * w)
    x, y, z, w = x / n, y / n, z / n, w / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def skew_scalar(v):
    """3x3 matrix with ``skew(v) @ w == cross(v, w)`` of one vector, entry by entry."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp_scalar(xi):
    """Rodrigues' formula for one axis-angle vector, with the second-order
    Taylor branch below ``SMALL_ANGLE``."""
    xi = np.asarray(xi, dtype=float)
    theta = math.sqrt(xi.dot(xi))
    k = skew_scalar(xi)
    kk = k @ k
    if theta < SMALL_ANGLE:
        return np.eye(3) + k + 0.5 * kk
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * k + b * kk


def rotation_angle_arccos(rot):
    """Geodesic angle of a rotation matrix as ``arccos((tr R - 1) / 2)``, which
    is flat at 0: it reads 0 below about 1.8e-8 rad."""
    cos_theta = np.clip((np.trace(np.asarray(rot, dtype=float)) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.arccos(cos_theta))


def quat_from_rotation_scalar(rot):
    """Unit quaternion (qx, qy, qz, qw), qw >= 0, of one rotation matrix, by
    branches on the trace and the diagonal."""
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


def rotation_rejection(rot, tol=1e-9):
    """Why the numpy form of the rotation check rejects ``rot``, or None."""
    rot = np.array(rot, dtype=float)
    if not np.all(np.isfinite(rot)):
        return "rotation must be finite"
    if np.max(np.abs(rot @ rot.T - np.eye(3))) > tol:
        return "rotation matrix is not orthonormal"
    if abs(np.linalg.det(rot) - 1.0) > tol:
        return "rotation matrix must have det +1"
    return None


def read_trajectory_lines(path, depth_path=None):
    """TUM trajectory read one line at a time, one pose per line, with the
    depths of its optional sidecar as the library reads them."""
    depths = read_depth_sidecar(depth_path) if depth_path else {}
    keyframes = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise TrajectoryFileError(f"line {lineno}: expected 8 fields, got {len(parts)}")
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise TrajectoryFileError(f"line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, vals)):
                raise TrajectoryFileError(f"line {lineno}: non-finite value")
            ts, tx, ty, tz, qx, qy, qz, qw = vals
            qn = np.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
            if abs(qn - 1.0) > 1e-6:
                raise TrajectoryFileError(f"line {lineno}: quaternion norm {qn} is not 1")
            pose = Se3Pose(rotation_from_quat_scalar((qx, qy, qz, qw)), (tx, ty, tz))
            keyframes.append(Keyframe(ts, pose, depths.pop(timestamp_key(ts), np.zeros(0))))
    if not keyframes:
        raise TrajectoryFileError("trajectory file holds no poses")
    if depths:
        first = next(iter(depths))
        raise TrajectoryFileError(
            f"{sum(len(d) for d in depths.values())} depth-sidecar rows match no pose "
            f"timestamp (first: {first:.{TIMESTAMP_DECIMALS}f})")
    stamps = [timestamp_key(kf.timestamp) for kf in keyframes]
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        raise TrajectoryFileError(
            f"timestamps must be strictly increasing at {TIMESTAMP_DECIMALS} decimals")
    return Trajectory(tuple(keyframes))


def merge_keyframes(traj_a, traj_b, sim3):
    """Trajectory b mapped through ``sim3`` and merged with a, one keyframe
    at a time: each mapped pose and keyframe is built and checked on its own."""
    common = ({timestamp_key(t) for t in traj_a.timestamps}
              & {timestamp_key(t) for t in traj_b.timestamps})
    if common:
        raise TimestampCollisionError(
            f"{len(common)} timestamps appear in both trajectories "
            f"at {TIMESTAMP_DECIMALS} decimals")
    mapped = [replace(k, pose=sim3.transform_pose(k.pose), depths=sim3.scale * k.depths)
              for k in traj_b.keyframes]
    merged = sorted(list(traj_a.keyframes) + mapped, key=lambda k: k.timestamp)
    return Trajectory(tuple(merged))
