"""Reference implementations that the tests compare the library against.

Each is the direct form (quadratic, line by line or element by element) of
a rule that the library computes a faster way. The geometry helpers take one
element at a time; the others are written in the same floating-point
arithmetic so that results must be equal, not merely close.
"""

import math

import numpy as np

from sedslam.ba import _project
from sedslam.errors import BehindCameraError, SedSlamError, TrajectoryFileError
from sedslam.geom import (LINE_EPS, Intrinsics, RelativePose, Se3Pose, backproject,
                          essential_from_pose, fundamental_from_essential, project,
                          rotation_angle, triangulate_batch)
from sedslam.sim3 import TIMESTAMP_DECIMALS, Keyframe, ScaleEstimate, Trajectory, timestamp_key


class DegenerateLineError(SedSlamError):
    """Epipolar line with (l_x, l_y) ~ (0, 0); point-to-line error undefined."""


class ParallelRaysError(SedSlamError):
    """Triangulation rays are (near) parallel; no finite intersection."""


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


def read_depth_sidecar_lines(path):
    """Depth sidecar read one line at a time, with a dict per timestamp key."""
    per_ts = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise TrajectoryFileError(f"line {lineno}: expected 3 fields")
            try:
                ts = float(parts[0])
                idx = int(parts[1])
                depth = float(parts[2])
            except ValueError as exc:
                raise TrajectoryFileError(f"line {lineno}: {exc}") from exc
            if not 0.0 < depth < math.inf:
                raise TrajectoryFileError(f"line {lineno}: depth must be finite and positive")
            key = timestamp_key(ts)
            entries = per_ts.get(key)
            if entries is None:
                if not math.isfinite(ts):
                    raise TrajectoryFileError(f"line {lineno}: timestamp must be finite")
                entries = per_ts[key] = {}
            if idx in entries:
                raise TrajectoryFileError(f"line {lineno}: duplicate anchor id {idx}")
            entries[idx] = depth
    out = {}
    for ts, entries in per_ts.items():
        ids = sorted(entries)
        if ids != list(range(len(ids))):
            raise TrajectoryFileError(
                f"anchor ids for timestamp {ts} must be contiguous from 0")
        out[ts] = np.array([entries[i] for i in ids])
    return out


def read_trajectory_lines(path, depth_path=None):
    """TUM trajectory read one line at a time, one pose per line."""
    depths = read_depth_sidecar_lines(depth_path) if depth_path else {}
    keyframes = []
    with open(path) as fh:
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
