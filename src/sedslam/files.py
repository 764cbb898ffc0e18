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
object per pose.

numpy's C text reader parses trajectory and sidecar rows after the leading
blank and comment lines, checked then as arrays. A file it refuses (a comment
mid-file, ``1_0``, an id beyond int64) or that fails a check is read again in
blocks of ``_BLOCK_LINES`` lines, which decide every error: the first
defective line's. Readers hold the parsed rows and a few per-row arrays.
"""

from __future__ import annotations

import json
import math
import warnings
from functools import partial
from itertools import chain, compress, dropwhile, islice, repeat

import numpy as np

from .errors import MatchFileError, TrajectoryFileError
from .geom import Intrinsics, quat_from_rotation, rotation_from_quat
from .sim3 import TIMESTAMP_DECIMALS, Trajectory, timestamp_key
from .twoview import AnchorMatchSet, _as_size

# Lines the trajectory and sidecar readers take from a file at a time.
_BLOCK_LINES = 1024
# Stored anchor ids from here up stand for ids that can never be valid
# (negative ones, and ones beyond int64), so that every stored id fits int64.
_ODD_ID = 2 ** 62


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


def _parse_match_lines(lines) -> AnchorMatchSet:
    """The match set of match-file ``lines``; errors name the first bad line, from 1."""
    intr = {}
    sizes = {}
    rows = []
    for lineno, raw in enumerate(lines, start=1):
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
            if fid in intr:
                raise MatchFileError(f"line {lineno}: duplicate intrinsics for frame {fid}")
            try:
                intr[fid] = Intrinsics(*vals[:4])
                sizes[fid] = _as_size(vals[4:])
            except ValueError as exc:
                raise MatchFileError(f"line {lineno}: {exc}") from exc
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
        rows.append((fid, lineno, ax, ay, mx, my, w))
    if 0 not in intr or 1 not in intr:
        raise MatchFileError("missing intrinsics header for frame 0 and/or 1")
    rows.sort(key=lambda r: r[0])  # stable: frame-0 rows first, each frame in file order
    for fid, lineno, ax, ay, mx, my, _ in rows:
        (own_w, own_h), (other_w, other_h) = sizes[fid], sizes[1 - fid]
        if not (0.0 <= ax <= own_w and 0.0 <= ay <= own_h):
            raise MatchFileError(f"line {lineno}: anchor ({ax}, {ay}) outside image bounds")
        if not (0.0 <= mx <= other_w and 0.0 <= my <= other_h):
            raise MatchFileError(f"line {lineno}: match ({mx}, {my}) outside image bounds")
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
    counts = np.diff(offsets)
    stamps = (f"{t:.{TIMESTAMP_DECIMALS}f}" for t in traj.timestamps.tolist())
    ids = np.arange(len(depths)) - np.repeat(offsets[:-1], counts)
    with open(path, "w") as fh:
        fh.write("# timestamp anchor_id depth\n")
        fh.writelines(map("{} {} {:.9f}\n".format,
                          chain.from_iterable(map(repeat, stamps, counts.tolist())), ids, depths))


def _blocks(fh):
    """The data lines of ``fh``, stripped, as (line numbers, lines) blocks.

    At most ``_BLOCK_LINES`` lines are read at a time. Blank lines and lines
    whose stripped text starts with ``#`` are dropped.
    """
    first = 1
    while lines := list(islice(fh, _BLOCK_LINES)):
        stripped = list(map(str.strip, lines))
        keep = [s != "" and s[0] != "#" for s in stripped]
        numbers = range(first, first + len(lines))
        first += len(lines)
        if all(keep):
            yield numbers, stripped
        elif any(keep):
            yield list(compress(numbers, keep)), list(compress(stripped, keep))


def _fields(lines, n):
    """The fields of ``lines``, row after row, or None if their number is
    not ``n`` per line.

    The block is split at once, with a ``#`` token between lines. If a line
    has another number of fields, the total is off or some ``#`` lands on a
    field position; callers convert every field with ``float`` or ``int``,
    which reject ``#``.
    """
    tokens = " # ".join(lines).split()
    if len(tokens) != (n + 1) * len(lines) - 1:
        return None
    del tokens[n::n + 1]
    return tokens


def _first_defect(convert, lines):
    """Index and error of the first line that ``convert`` rejects on its own."""
    for k, line in enumerate(lines):
        try:
            convert([line])
        except ValueError as exc:
            return k, exc
    raise AssertionError("a block was rejected but none of its lines is")


def _sidecar_columns(lines, groups: dict, odd: dict):
    """(group numbers, anchor ids, depths) of sidecar lines.

    Each timestamp key gets its group number in ``groups``, in order of
    first appearance; ``float``, ``int`` and ``timestamp_key`` run once per
    distinct token. An id outside [0, _ODD_ID) is stored as ``_ODD_ID`` plus
    its index in ``odd``: stored ids are equal exactly when the ids are, and
    all of these fail the contiguity check. Raises ``ValueError`` if any
    line has a defect of its own, with the message of the first for a
    single line.
    """
    tokens = _fields(lines, 3)
    if tokens is None:
        raise ValueError("expected 3 fields")
    stamps, ids = tokens[0::3], tokens[1::3]
    keys = {t: timestamp_key(float(t)) for t in dict.fromkeys(stamps)}
    id_of = {t: int(t) for t in dict.fromkeys(ids)}
    depths = np.fromiter(map(float, tokens[2::3]), float, len(lines))
    if not np.all((depths > 0.0) & (depths < math.inf)):
        raise ValueError("depth must be finite and positive")
    if not all(map(math.isfinite, keys.values())):
        raise ValueError("timestamp must be finite")
    group_of = {t: groups.setdefault(k, len(groups)) for t, k in keys.items()}
    for t, i in id_of.items():
        if not 0 <= i < _ODD_ID:
            id_of[t] = _ODD_ID + odd.setdefault(i, len(odd))
    return (np.fromiter(map(group_of.__getitem__, stamps), np.intp, len(lines)),
            np.fromiter(map(id_of.__getitem__, ids), np.int64, len(lines)), depths)


def _order_rows(group, ids, numbers, odd: dict) -> np.ndarray:
    """Row order by (group, anchor id); raises for the first line whose
    (timestamp key, anchor id) an earlier line already has. ``numbers``
    holds the line numbers of each block."""
    order = np.lexsort((ids, group))  # stable, so repeats stay in file order
    g, i = group[order], ids[order]
    repeat = (g[1:] == g[:-1]) & (i[1:] == i[:-1])
    if repeat.any():
        row = order[1:][repeat].min()
        idx = int(ids[row])
        if idx >= _ODD_ID:
            idx = list(odd)[idx - _ODD_ID]
        line = next(islice(chain.from_iterable(numbers), row, None))
        raise TrajectoryFileError(f"line {line}: duplicate anchor id {idx}")
    return order


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


def read_depth_sidecar(path) -> dict:
    """Depth arrays by timestamp key, in order of first appearance; the C
    reader's rows if they pass the checks, else the block reader's."""
    rows = _c_rows(path, [("t", float), ("i", np.int64), ("d", float)], 1)
    if rows is not None:
        t, ids, d = rows["t"], rows["i"], rows["d"]
        starts = np.flatnonzero(np.concatenate([[True], t[1:] != t[:-1]]))
        groups = {}  # equal stamps share a key: one key per run of them
        group = np.repeat([groups.setdefault(timestamp_key(s), len(groups))
                           for s in t[starts].tolist()], np.diff(starts, append=len(t)))
        counts = np.bincount(group)
        first = np.cumsum(counts) - counts
        expected = np.arange(len(t)) - np.repeat(first, counts)
        in_order = np.all(group[1:] >= group[:-1]) and np.array_equal(ids, expected)
        order = np.arange(len(t)) if in_order else np.lexsort((ids, group))
        if (np.all((d > 0.0) & (d < math.inf)) and np.isfinite(t).all()
                and (in_order or np.array_equal(ids[order], expected))):
            return dict(zip(groups, np.split(d[order], first[1:])))
    groups: dict[float, int] = {}  # the block reader, which decides every refusal
    odd: dict[int, int] = {}
    convert = partial(_sidecar_columns, groups=groups, odd=odd)
    blocks, numbers = [], []
    with open(path) as fh:
        for block_numbers, lines in _blocks(fh):
            try:
                blocks.append(convert(lines))
            except ValueError:
                k, exc = _first_defect(convert, lines)
                if k:
                    blocks.append(convert(lines[:k]))
                    numbers.append(block_numbers[:k])
                if blocks:
                    group, ids, _ = map(np.concatenate, zip(*blocks))
                    _order_rows(group, ids, numbers, odd)
                raise TrajectoryFileError(f"line {block_numbers[k]}: {exc}") from exc
            numbers.append(block_numbers)
    if not blocks:
        return {}
    group, ids, depths = map(np.concatenate, zip(*blocks))
    del blocks
    order = _order_rows(group, ids, numbers, odd)
    counts = np.bincount(group, minlength=len(groups))
    first = np.cumsum(counts) - counts
    bad = ids[order] != np.arange(len(order)) - np.repeat(first, counts)
    if bad.any():
        key = list(groups)[group[order[np.argmax(bad)]]]
        raise TrajectoryFileError(f"anchor ids for timestamp {key} must be contiguous from 0")
    return dict(zip(groups, np.split(depths[order], first[1:])))


def _pose_defect(values):
    """The defect of the first bad row of (n, 8) trajectory values, or None."""
    if not np.isfinite(values).all():
        return "non-finite value"
    qx, qy, qz, qw = values[:, 4:].T
    norm = np.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
    off = np.abs(norm - 1.0) > 1e-6
    return f"quaternion norm {norm[off][0]} is not 1" if off.any() else None


def _pose_values(lines) -> np.ndarray:
    """(n, 8) values of trajectory lines. Raises ``ValueError`` if any line
    has a defect of its own, with the message of the first for a single line."""
    tokens = _fields(lines, 8)
    if tokens is None:
        raise ValueError(f"expected 8 fields, got {len(lines[0].split())}")
    values = np.fromiter(map(float, tokens), float, len(tokens)).reshape(-1, 8)
    if defect := _pose_defect(values):
        raise ValueError(defect)
    return values


def read_trajectory(path, depth_path=None) -> Trajectory:
    """TUM trajectory with the depths of its optional sidecar; the C
    reader's rows if they pass the checks, else the block reader's."""
    depths = read_depth_sidecar(depth_path) if depth_path else {}
    values = _c_rows(path, float, 2)
    if values is None or values.shape[1] != 8 or _pose_defect(values):
        blocks = []
        with open(path) as fh:
            for numbers, lines in _blocks(fh):
                try:
                    blocks.append(_pose_values(lines))
                except ValueError:
                    k, exc = _first_defect(_pose_values, lines)
                    raise TrajectoryFileError(f"line {numbers[k]}: {exc}") from exc
        if not blocks:
            raise TrajectoryFileError("trajectory file holds no poses")
        values = np.concatenate(blocks)
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
