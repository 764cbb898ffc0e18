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
compared at ``sim3.TIMESTAMP_DECIMALS`` decimals. Trajectories are read into
and written from the columns of :class:`~sedslam.sim3.Trajectory`, with no
keyframe object per pose.

numpy's C text reader parses trajectory and sidecar rows after the leading
blank and comment lines and keeps what passes array checks: finite poses with
unit quaternions, and sidecars in the writers' layout (one run of rows per
timestamp key, ids 0..n-1, finite positive depths). Any other file is read
again by a line reader: a refused or defective one, shuffled sidecar rows, a
key split across runs or stamps equal at 6 decimals, a ``#`` line mid-file,
an id ``1_0`` or beyond int64. It decides every error, the first defective
line's, holding one dict entry per sidecar row (100,000 shuffled rows peak at
3.5x the memory of the same rows in order) or one list of values per pose.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import defaultdict
from itertools import chain, dropwhile, repeat

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
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_match_file(path) -> AnchorMatchSet:
    with open(path) as fh:
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
    alike = np.flatnonzero(np.diff(traj.timestamp_keys) == 0.0)
    if alike.size:
        a, b = traj.timestamps[alike[0]:alike[0] + 2].tolist()
        raise ValueError(f"timestamps {a!r} and {b!r} both print as {a:.{TIMESTAMP_DECIMALS}f}")


def write_trajectory(path, traj: Trajectory) -> None:
    """Write ``traj``; no keyframes, or timestamps that print alike, raise before opening."""
    if not len(traj):
        raise ValueError("trajectory holds no keyframes")
    _check_stamps(traj)
    rows = np.concatenate([traj.timestamps[:, None], traj.translations,
                           quat_from_rotation(traj.rotations)], axis=1)
    line = f"%.{TIMESTAMP_DECIMALS}f" + " %.9f" * 7 + "\n"
    with open(path, "w") as fh:
        fh.write("# timestamp tx ty tz qx qy qz qw\n")
        fh.writelines(map(line.__mod__, map(tuple, rows.tolist())))


def write_depth_sidecar(path, traj: Trajectory) -> None:
    """Write the depths of ``traj`` at 9 decimals; timestamps that print
    alike, or a depth printed as 0, raise before opening."""
    _check_stamps(traj)
    offsets, depths = traj.depth_offsets, traj.depths
    # Only a depth below 1e-9 can print as 0; the first is in the first such keyframe.
    for k in np.flatnonzero(depths < 1e-9).tolist():
        if f"{depths[k]:.9f}" == "0.000000000":
            row = int(np.searchsorted(offsets, k, side="right")) - 1
            raise ValueError(f"depth {depths[offsets[row]:offsets[row + 1]].min()} at timestamp "
                             f"{traj.timestamps[row]:.{TIMESTAMP_DECIMALS}f} prints as 0.000000000")
    counts = np.diff(offsets).tolist()
    stamps = (f"{t:.{TIMESTAMP_DECIMALS}f}" for t in traj.timestamps.tolist())
    with open(path, "w") as fh:
        fh.write("# timestamp anchor_id depth\n")
        fh.writelines(map("{} {} {:.9f}\n".format, chain.from_iterable(map(repeat, stamps, counts)),
                          chain.from_iterable(map(range, counts)), depths.tolist()))


def _c_rows(path, dtype, ndmin):
    """The rows of ``path`` by numpy's C text reader, or None if it refuses
    them or warns (on no rows; numpy 1.23-1.25 on an int written "2.0")."""
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(dropwhile(lambda s: s.strip()[:1] in ("", "#"), fh), dtype,
                              comments=None, ndmin=ndmin)
        except (ValueError, Warning):
            return None


def _read_sidecar_lines(path) -> dict:
    """``read_depth_sidecar`` one line at a time; the first defective line, else
    the first timestamp whose ids are not contiguous from 0, decides the error."""
    per_key, keys = defaultdict(dict), {}  # {anchor id: depth} by key; key by stamp token
    with open(path) as fh:
        for n, fields in _data_lines(fh):
            try:
                if len(fields) != 3:
                    raise ValueError("expected 3 fields")
                key = keys.get(fields[0])
                if key is None:
                    key = keys[fields[0]] = timestamp_key(float(fields[0]))
                idx, depth = int(fields[1]), float(fields[2])
                if not 0.0 < depth < math.inf:
                    raise ValueError("depth must be finite and positive")
                if not math.isfinite(key):  # a key is finite exactly when its stamp is
                    raise ValueError("timestamp must be finite")
                entries = per_key[key]
                if idx in entries:
                    raise ValueError(f"duplicate anchor id {idx}")
            except ValueError as exc:
                raise TrajectoryFileError(str(exc), f"line {n}") from exc
            entries[idx] = depth
    out = {}
    for key in list(per_key):  # each dict is freed once its array is built
        entries = per_key.pop(key)
        try:  # ids are distinct, so they are contiguous from 0 if all of 0..n-1 are there
            out[key] = np.array([entries[i] for i in range(len(entries))])
        except KeyError:
            raise TrajectoryFileError(
                f"anchor ids for timestamp {key} must be contiguous from 0") from None
    return out


def read_depth_sidecar(path) -> dict:
    """Depth arrays by timestamp key, in order of first appearance: the C
    reader's rows if they have the writers' layout, else the line reader's."""
    rows = _c_rows(path, [("t", float), ("i", np.int64), ("d", float)], 1)
    if rows is not None:
        t, ids, d = rows["t"], rows["i"], rows["d"]
        starts = np.flatnonzero(np.concatenate([[True], t[1:] != t[:-1]]))
        keys = [timestamp_key(s) for s in t[starts].tolist()]
        run_ids = np.arange(len(t)) - np.repeat(starts, np.diff(starts, append=len(t)))
        if (len(set(keys)) == len(keys) and np.array_equal(ids, run_ids)
                and np.isfinite(t).all() and np.all((d > 0.0) & (d < math.inf))):
            return dict(zip(keys, np.split(d, starts[1:])))
    return _read_sidecar_lines(path)


def _pose_defect(values):
    """(index, defect) of the first bad row of (n, 8) trajectory values, or None."""
    qx, qy, qz, qw = values[:, 4:].T
    with np.errstate(over="ignore"):
        norm = np.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
    finite = np.isfinite(values).all(axis=1)
    for k in np.flatnonzero(~finite | (np.abs(norm - 1.0) > 1e-6))[:1].tolist():
        return k, f"quaternion norm {norm[k]} is not 1" if finite[k] else "non-finite value"


def read_trajectory(path, depth_path=None) -> Trajectory:
    """TUM trajectory with the depths of its optional sidecar; the C
    reader's rows if they pass the checks, else the line reader's."""
    depths = read_depth_sidecar(depth_path) if depth_path else {}
    values = _c_rows(path, float, 2)
    if values is None or values.shape[1] != 8 or _pose_defect(values):
        rows, numbers, error = [], [], None  # the line reader, which decides every refusal
        try:
            with open(path) as fh:
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
        # The poses are checked at once: the first defective one wins over a later error.
        if defect := _pose_defect(np.array(rows).reshape(-1, 8)):
            raise TrajectoryFileError(defect[1], f"line {numbers[defect[0]]}")
        if error:
            raise error
        if not rows:
            raise TrajectoryFileError("trajectory file holds no poses")
        values = np.array(rows)
    keys = [timestamp_key(t) for t in values[:, 0].tolist()]
    posed = set(keys)
    orphans = [k for k in depths if k not in posed]
    if orphans:
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
