"""Line-oriented text formats: two-view match files, TUM trajectories and
per-keyframe depth sidecars.

Match file layout (``#`` comments and blank lines are ignored)::

    intrinsics 0 <fx> <fy> <cx> <cy> <width> <height>
    intrinsics 1 <fx> <fy> <cx> <cy> <width> <height>
    <frame_id> <anchor_x> <anchor_y> <match_x> <match_y> <weight>
    ...

Trajectories use the TUM convention ``timestamp tx ty tz qx qy qz qw``
(world-from-camera); the optional depth sidecar holds lines
``timestamp anchor_id depth`` where anchor ids are contiguous from 0 per
timestamp and row order pairs them with the match-file rows of that frame.
Every sidecar timestamp must match a pose, and timestamps are written and
compared at ``sim3.TIMESTAMP_DECIMALS`` decimals.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import MatchFileError, TrajectoryFileError
from .geom import Intrinsics, Se3Pose, quat_from_rotation, rotation_from_quat
from .sim3 import TIMESTAMP_DECIMALS, Keyframe, Trajectory, timestamp_key
from .twoview import AnchorMatchSet


def write_match_file(path, mset: AnchorMatchSet) -> None:
    lines = ["# two-view anchor/match set"]
    for fid, k, size in ((0, mset.intrinsics0, mset.size0), (1, mset.intrinsics1, mset.size1)):
        lines.append(f"intrinsics {fid} {k.fx:.9f} {k.fy:.9f} {k.cx:.9f} {k.cy:.9f} "
                     f"{size[0]:.9f} {size[1]:.9f}")
    for fid, anchors, matches, weights in ((0, mset.anchors0, mset.matches0, mset.weights0),
                                           (1, mset.anchors1, mset.matches1, mset.weights1)):
        for a, m, w in zip(anchors, matches, weights):
            lines.append(f"{fid} {a[0]:.9f} {a[1]:.9f} {m[0]:.9f} {m[1]:.9f} {w:.9f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_match_file(path) -> AnchorMatchSet:
    intr = {}
    sizes = {}
    rows = {0: [], 1: []}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "intrinsics":
                if len(parts) != 8:
                    raise MatchFileError(f"line {lineno}: intrinsics needs 7 values")
                try:
                    fid = int(parts[1])
                    vals = [float(p) for p in parts[2:]]
                except ValueError as exc:
                    raise MatchFileError(f"line {lineno}: {exc}") from exc
                if fid not in (0, 1):
                    raise MatchFileError(f"line {lineno}: frame id must be 0 or 1")
                try:
                    intr[fid] = Intrinsics(*vals[:4])
                except ValueError as exc:
                    raise MatchFileError(f"line {lineno}: {exc}") from exc
                sizes[fid] = (vals[4], vals[5])
                continue
            if len(parts) != 6:
                raise MatchFileError(f"line {lineno}: expected 6 fields, got {len(parts)}")
            try:
                fid = int(parts[0])
                ax, ay, mx, my, w = (float(p) for p in parts[1:])
            except ValueError as exc:
                raise MatchFileError(f"line {lineno}: {exc}") from exc
            if fid not in (0, 1):
                raise MatchFileError(f"line {lineno}: frame id must be 0 or 1")
            if not 0.0 < w <= 1.0:
                raise MatchFileError(f"line {lineno}: weight {w} outside (0, 1]")
            rows[fid].append((lineno, ax, ay, mx, my, w))
    if 0 not in intr or 1 not in intr:
        raise MatchFileError("missing intrinsics header for frame 0 and/or 1")
    for fid in (0, 1):
        own_w, own_h = sizes[fid]
        other_w, other_h = sizes[1 - fid]
        for lineno, ax, ay, mx, my, _ in rows[fid]:
            if not (0.0 <= ax <= own_w and 0.0 <= ay <= own_h):
                raise MatchFileError(f"line {lineno}: anchor ({ax}, {ay}) outside image bounds")
            if not (0.0 <= mx <= other_w and 0.0 <= my <= other_h):
                raise MatchFileError(f"line {lineno}: match ({mx}, {my}) outside image bounds")

    def unpack(fid):
        data = np.array([(r[1], r[2], r[3], r[4], r[5]) for r in rows[fid]], dtype=float)
        if len(data) == 0:
            return np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0)
        return data[:, 0:2], data[:, 2:4], data[:, 4]

    a0, m0, w0 = unpack(0)
    a1, m1, w1 = unpack(1)
    return AnchorMatchSet(a0, m0, w0, a1, m1, w1, intr[0], intr[1], sizes[0], sizes[1])


def write_trajectory(path, traj: Trajectory) -> None:
    lines = ["# timestamp tx ty tz qx qy qz qw"]
    for kf in traj.keyframes:
        t = kf.pose.translation
        q = quat_from_rotation(kf.pose.rotation)
        lines.append(f"{kf.timestamp:.{TIMESTAMP_DECIMALS}f} {t[0]:.9f} {t[1]:.9f} {t[2]:.9f} "
                     f"{q[0]:.9f} {q[1]:.9f} {q[2]:.9f} {q[3]:.9f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_depth_sidecar(path, traj: Trajectory) -> None:
    lines = ["# timestamp anchor_id depth"]
    for kf in traj.keyframes:
        for idx, d in enumerate(kf.depths):
            lines.append(f"{kf.timestamp:.{TIMESTAMP_DECIMALS}f} {idx} {d:.9f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_depth_sidecar(path) -> dict:
    per_ts: dict[float, dict[int, float]] = {}
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


def read_trajectory(path, depth_path=None) -> Trajectory:
    depths = read_depth_sidecar(depth_path) if depth_path else {}
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
            pose = Se3Pose(rotation_from_quat((qx, qy, qz, qw)), (tx, ty, tz))
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


def sim3_to_dict(sim3) -> dict:
    q = quat_from_rotation(sim3.rotation)
    return {
        "scale": sim3.scale,
        "rotation_quat_xyzw": [float(v) for v in q],
        "translation": [float(v) for v in sim3.translation],
    }


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
