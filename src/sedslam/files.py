"""File formats: match files and TUM trajectories as text, depth sidecars
as numpy ``.npz`` archives.

Match file layout (``#`` comments and blank lines are ignored)::

    intrinsics 0 <fx> <fy> <cx> <cy> <width> <height>
    intrinsics 1 <fx> <fy> <cx> <cy> <width> <height>
    <frame_id> <anchor_x> <anchor_y> <match_x> <match_y> <weight>
    ...

Trajectories use the TUM convention ``timestamp tx ty tz qx qy qz qw``
(world-from-camera), read into and written from the columns of
:class:`~sedslam.sim3.Trajectory`. A depth sidecar holds three 1-d arrays:
``timestamps`` (float64, increasing), ``counts`` (int64, depths per keyframe)
and ``depths`` (float64, keyframe after keyframe, each in match-file row
order). Every sidecar timestamp must match a pose, at
``sim3.TIMESTAMP_DECIMALS`` decimals. Text files are UTF-8. Each text format
has one line reader, and the first defective line decides its error.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

from .errors import MatchFileError, TrajectoryFileError
from .geom import Intrinsics, quat_from_rotation, rotation_from_quat
from .sim3 import TIMESTAMP_DECIMALS, Trajectory, timestamp_key
from .twoview import AnchorMatchSet, _as_size

def write_match_file(path, mset: AnchorMatchSet) -> None:
    """Write ``mset`` at 9 decimals. A weight printed outside (0, 1], or any
    other printed value that ``read_match_file`` rejects, raises before opening."""
    lines = ["# two-view anchor/match set"]
    for fid, k, size in ((0, mset.intrinsics0, mset.size0), (1, mset.intrinsics1, mset.size1)):
        lines.append(f"intrinsics {fid} {k.fx:.9f} {k.fy:.9f} {k.cx:.9f} {k.cy:.9f} "
                     f"{size[0]:.9f} {size[1]:.9f}")
    for fid, anchors, matches, weights in ((0, mset.anchors0, mset.matches0, mset.weights0),
                                           (1, mset.anchors1, mset.matches1, mset.weights1)):
        for a, m, w in zip(anchors, matches, weights):
            printed = f"{w:.9f}"
            if not 0.0 < float(printed) <= 1.0:
                raise ValueError(f"frame-{fid} weight {w} prints as {printed}, outside (0, 1]")
            lines.append(f"{fid} {a[0]:.9f} {a[1]:.9f} {m[0]:.9f} {m[1]:.9f} {printed}")
    try:
        _parse_match_lines(lines)
    except MatchFileError as exc:
        raise ValueError(f"match set would not read back: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_match_file(path) -> AnchorMatchSet:
    with open(path, encoding="utf-8") as fh:
        return _parse_match_lines(fh)


def _data_lines(lines):
    """(line number from 1, fields) of each line that is not blank and does
    not start with ``#`` once stripped."""
    for n, line in enumerate(lines, start=1):
        fields = line.split()
        if fields and fields[0][0] != "#":
            yield n, fields


def _parse_match_lines(lines) -> AnchorMatchSet:
    """The match set of match-file ``lines``; errors name the first bad line, from 1."""
    intr, sizes, rows = {}, {}, []
    for lineno, parts in _data_lines(lines):
        try:
            if parts[0] == "intrinsics":
                if len(parts) != 8:
                    raise ValueError("intrinsics needs 7 values")
                fid = int(parts[1])
                vals = [float(p) for p in parts[2:]]
                if fid not in (0, 1):
                    raise ValueError("frame id must be 0 or 1")
                if fid in intr:
                    raise ValueError(f"duplicate intrinsics for frame {fid}")
                intr[fid] = Intrinsics(*vals[:4])
                sizes[fid] = _as_size(vals[4:])
                continue
            if len(parts) != 6:
                raise ValueError(f"expected 6 fields, got {len(parts)}")
            fid = int(parts[0])
            ax, ay, mx, my, w = (float(p) for p in parts[1:])
            if fid not in (0, 1):
                raise ValueError("frame id must be 0 or 1")
            if not 0.0 < w <= 1.0:
                raise ValueError(f"weight {w} outside (0, 1]")
        except ValueError as exc:
            raise MatchFileError(str(exc), f"line {lineno}") from exc
        rows.append((fid, lineno, ax, ay, mx, my, w))
    if 0 not in intr or 1 not in intr:
        raise MatchFileError("missing intrinsics header for frame 0 and/or 1")
    rows.sort(key=lambda r: r[0])  # stable: frame-0 rows first, each frame in file order
    for fid, lineno, ax, ay, mx, my, _ in rows:
        (own_w, own_h), (other_w, other_h) = sizes[fid], sizes[1 - fid]
        if not (0.0 <= ax <= own_w and 0.0 <= ay <= own_h):
            raise MatchFileError(f"anchor ({ax}, {ay}) outside image bounds", f"line {lineno}")
        if not (0.0 <= mx <= other_w and 0.0 <= my <= other_h):
            raise MatchFileError(f"match ({mx}, {my}) outside image bounds", f"line {lineno}")
    n0 = len(rows) - sum(r[0] for r in rows)
    t = np.array([r[2:] for r in rows], dtype=float).reshape(-1, 5)
    return AnchorMatchSet(t[:n0, 0:2], t[:n0, 2:4], t[:n0, 4], t[n0:, 0:2], t[n0:, 2:4], t[n0:, 4],
                          intr[0], intr[1], sizes[0], sizes[1])


def _check_stamps(traj: Trajectory) -> None:
    """Raise ``ValueError`` if two keyframe timestamps print alike."""
    for k in np.flatnonzero(np.diff(traj.timestamp_keys) == 0.0)[:1].tolist():
        a, b = traj.timestamps[k:k + 2].tolist()
        raise ValueError(f"timestamps {a!r} and {b!r} both print as {a:.{TIMESTAMP_DECIMALS}f}")


def write_trajectory(path, traj: Trajectory) -> None:
    """Write ``traj``; no keyframes, or timestamps that print alike, raise before opening."""
    if not len(traj):
        raise ValueError("trajectory holds no keyframes")
    _check_stamps(traj)
    rows = np.concatenate([traj.timestamps[:, None], traj.translations,
                           quat_from_rotation(traj.rotations)], axis=1)
    line = f"%.{TIMESTAMP_DECIMALS}f" + " %.9f" * 7 + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# timestamp tx ty tz qx qy qz qw\n")
        fh.writelines(map(line.__mod__, map(tuple, rows.tolist())))


def write_depth_sidecar(path, traj: Trajectory) -> None:
    """Write the depths of ``traj`` as an ``.npz`` archive, built in memory because
    ``np.savez`` appends ``.npz`` to a path; stamps that print alike raise first."""
    _check_stamps(traj)
    archive = io.BytesIO()
    np.savez(archive, timestamps=traj.timestamps,
             counts=np.diff(traj.depth_offsets).astype(np.int64), depths=traj.depths)
    with open(path, "wb") as fh:
        fh.write(archive.getbuffer())


# The arrays of a sidecar archive, in order, with their dtypes; each is 1-d.
_SIDECAR_ARRAYS = {"timestamps": np.float64, "counts": np.int64, "depths": np.float64}


def read_depth_sidecar(path) -> dict:
    """Depth arrays by timestamp key, in order, none empty, of the writer's archive."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise TrajectoryFileError("depth sidecar is not an .npz archive of timestamps, "
                                      "counts and depths; text sidecars are no longer read")
        fh.seek(0)
        try:  # a member that is not .npy reads as bytes, a 0-d array here
            with np.load(fh, allow_pickle=False) as archive:
                arrays = [np.asarray(archive[name]) for name in _SIDECAR_ARRAYS]
        except Exception as exc:  # corrupt bytes raise BadZipFile, KeyError, EOFError, ...
            raise TrajectoryFileError(f"depth sidecar archive is unreadable: {exc!r}") from exc
    for (name, dtype), a in zip(_SIDECAR_ARRAYS.items(), arrays):
        if a.dtype != dtype or a.ndim != 1:
            raise TrajectoryFileError(f"depth sidecar array {name!r} must be 1-d "
                                      f"{np.dtype(dtype)}, got {a.ndim}-d {a.dtype}")
    stamps, counts, depths = arrays
    listed = counts.tolist()  # Python ints, whose sum cannot wrap
    if len(counts) != len(stamps) or min(listed, default=0) < 0 or sum(listed) != len(depths):
        raise TrajectoryFileError(
            f"depth counts must be {len(stamps)} non-negative integers summing to {len(depths)}, "
            f"got {len(counts)} summing to {sum(listed)}, least {min(listed, default=0)}")
    ts, offsets = stamps.tolist(), np.cumsum([0] + listed).tolist()
    for k in np.flatnonzero(~np.isfinite(stamps))[:1].tolist():
        raise TrajectoryFileError(f"timestamp {ts[k]} must be finite")
    for k in np.flatnonzero(~((depths > 0.0) & (depths < math.inf)))[:1].tolist():
        t = ts[np.searchsorted(offsets, k, side="right") - 1]
        raise TrajectoryFileError(f"depth {depths[k]} at timestamp {t} must be finite and positive")
    keys = [timestamp_key(t) for t in ts]
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise TrajectoryFileError(
            f"timestamps must be strictly increasing at {TIMESTAMP_DECIMALS} decimals")
    return {key: depths[lo:hi] for key, lo, hi in zip(keys, offsets, offsets[1:]) if hi > lo}


def read_trajectory(path, depth_path=None) -> Trajectory:
    """TUM trajectory with the depths of its optional sidecar. The first
    defective pose, else the first refused line, decides the error."""
    depths = read_depth_sidecar(depth_path) if depth_path else {}
    rows, numbers, error = [], [], None
    try:
        with open(path, encoding="utf-8") as fh:
            for n, fields in _data_lines(fh):
                try:
                    if len(fields) != 8:
                        raise ValueError(f"expected 8 fields, got {len(fields)}")
                    rows.append([float(f) for f in fields])
                except ValueError as exc:
                    raise TrajectoryFileError(str(exc), f"line {n}") from exc
                numbers.append(n)
    except (ValueError, TrajectoryFileError) as exc:  # an undecodable or unparsable line
        error = exc
    values = np.array(rows).reshape(-1, 8)
    qx, qy, qz, qw = values[:, 4:].T
    with np.errstate(over="ignore"):
        norm = np.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
    finite = np.isfinite(values).all(axis=1)
    # The poses are checked at once: the first defective one wins over a later error.
    for k in np.flatnonzero(~finite | (np.abs(norm - 1.0) > 1e-6))[:1].tolist():
        raise TrajectoryFileError(f"quaternion norm {norm[k]} is not 1" if finite[k]
                                  else "non-finite value", f"line {numbers[k]}")
    if error:
        raise error
    if not rows:
        raise TrajectoryFileError("trajectory file holds no poses")
    keys = [timestamp_key(t) for t in values[:, 0].tolist()]
    posed = set(keys)
    if orphans := [k for k in depths if k not in posed]:
        raise TrajectoryFileError(
            f"{sum(len(depths[k]) for k in orphans)} depth-sidecar rows match no pose "
            f"timestamp (first: {orphans[0]:.{TIMESTAMP_DECIMALS}f})")
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise TrajectoryFileError(
            f"timestamps must be strictly increasing at {TIMESTAMP_DECIMALS} decimals")
    no_depths = np.zeros(0)
    per_pose = [depths.get(k, no_depths) for k in keys]
    traj = Trajectory.from_columns(values[:, 0], rotation_from_quat(values[:, 4:]),
                                   values[:, 1:4], np.concatenate([no_depths] + per_pose),
                                   np.cumsum([0] + list(map(len, per_pose))))
    traj.__dict__["timestamp_keys"] = keys  # seed the cached property
    return traj


def sim3_to_dict(sim3) -> dict:
    return {"scale": sim3.scale, "rotation_quat_xyzw": quat_from_rotation(sim3.rotation).tolist(),
            "translation": sim3.translation.tolist()}


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
