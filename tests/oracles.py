"""Reference implementations that the tests compare the library against.

Each is the direct form (quadratic, line by line or element by element) of
a rule that the library computes a faster way, written in the same
floating-point arithmetic so that results must be equal, not merely close.
"""

import math

import numpy as np

from sedslam.errors import TrajectoryFileError
from sedslam.geom import Se3Pose
from sedslam.sim3 import TIMESTAMP_DECIMALS, Keyframe, ScaleEstimate, Trajectory, timestamp_key


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
