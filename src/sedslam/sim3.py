"""Joining disjoint trajectories through a relative Sim(3).

Given a cross-trajectory two-view pose, the translation magnitude and the
inter-session scale are recovered by depth-ratio voting: for each side,
every candidate scale ``s = d_k / d'_k`` (map depth over unit-baseline
triangulated depth) is scored by the number of pairs with
``1/lam < d_k / (s d'_k) < lam``, and the maximizer wins. The vote bisects
over the sorted candidates in O(n log n) time and O(n) memory for any input,
and returns exactly what scoring every pair would. The two per-side
magnitudes combine with the solved rotation into a similarity transform
that maps one trajectory into the other's reference frame.

Trajectories are held as read-only columns (see :class:`Trajectory`); the
merge maps all of trajectory b's poses and depths at once and interleaves
the two by one stable sort of the timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InsufficientInliersError, TimestampCollisionError, TooFewDepthsError, _staged
from .geom import RelativePose, Se3Pose, Sim3Transform, _rotation_defects, _unchecked
from .twoview import AnchorMatchSet, SedSolveReport, front_depths, solve_two_view

# Default inlier band of the depth-ratio vote.
RATIO_BOUND = 1.05
# Minimum per-side inlier fraction before a candidate pair is rejected.
INLIER_THRESHOLD = 0.3
# Minimum number of valid triangulated depths across both sides.
MIN_VALID_DEPTHS = 10
# Decimals of every timestamp written to a file; keyframe timestamps must
# stay distinct at this precision to survive a write and read.
TIMESTAMP_DECIMALS = 6


@dataclass(frozen=True, eq=False)
class Keyframe:
    """A keyframe's timestamp, world-from-camera pose and anchor depths, checked
    and copied when built; :class:`Trajectory` hands out views of its columns
    in this form."""

    timestamp: float
    pose: Se3Pose
    depths: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.timestamp):
            raise ValueError(f"keyframe timestamp must be finite, got {self.timestamp}")
        d = np.array(self.depths, dtype=float).reshape(-1)
        # min() and max() propagate NaN, which fails both comparisons.
        if d.size and not (d.min() > 0.0 and d.max() < math.inf):
            raise ValueError("keyframe depths must be finite and positive")
        d.flags.writeable = False
        object.__setattr__(self, "depths", d)


@dataclass(frozen=True, eq=False, init=False)
class Trajectory:
    """Timestamp-ordered keyframes with world-from-camera poses, held as
    read-only columns.

    ``timestamps`` (N,), ``rotations`` (N, 3, 3) and ``translations`` (N, 3)
    hold one row per keyframe; ``depths`` holds every keyframe's depths in
    one flat array, keyframe i's from ``depth_offsets[i]`` up to
    ``depth_offsets[i + 1]``. ``Trajectory(keyframes)`` gathers keyframes
    into columns and :meth:`from_columns` takes columns; either way each
    column is checked once, and the first keyframe that fails a check of
    :class:`Se3Pose` or :class:`Keyframe` raises what building it would.
    :meth:`keyframe` and ``keyframes`` are views of the columns.
    """

    timestamps: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray
    depths: np.ndarray
    depth_offsets: np.ndarray

    def __init__(self, keyframes):
        kfs = tuple(keyframes)
        self._set_columns(np.array([k.timestamp for k in kfs], dtype=float),
                          np.array([k.pose.rotation for k in kfs], dtype=float).reshape(-1, 3, 3),
                          np.array([k.pose.translation for k in kfs], dtype=float).reshape(-1, 3),
                          np.concatenate([np.zeros(0)] + [k.depths for k in kfs]),
                          np.cumsum([0] + [len(k.depths) for k in kfs]))

    @classmethod
    def from_columns(cls, timestamps, rotations, translations, depths,
                     depth_offsets) -> "Trajectory":
        """The trajectory of copies of the given columns."""
        traj = cls.__new__(cls)
        traj._set_columns(np.array(timestamps, dtype=float).reshape(-1),
                          np.array(rotations, dtype=float), np.array(translations, dtype=float),
                          np.array(depths, dtype=float).reshape(-1), np.array(depth_offsets))
        return traj

    def _set_columns(self, ts, rot, trans, d, off):
        """Check the columns and keep them, read-only; they are not copied."""
        n = len(ts)
        if rot.shape != (n, 3, 3) or trans.shape != (n, 3):
            raise ValueError(f"{n} timestamps need rotations of shape ({n}, 3, 3) and "
                             f"translations of shape ({n}, 3), got {rot.shape} and {trans.shape}")
        if not (off.dtype.kind in "iu" and off.shape == (n + 1,) and off[0] == 0
                and off[-1] == len(d) and np.all(off[1:] >= off[:-1])):
            raise ValueError(f"depth offsets must be {n + 1} integers rising from 0 "
                             f"to the {len(d)} depths")
        _check_rows(ts, rot, trans, d, off)
        if n > 1 and np.any(np.diff(ts) <= 0.0):
            raise ValueError("keyframe timestamps must be strictly increasing")
        for name, column in (("timestamps", ts), ("rotations", rot), ("translations", trans),
                             ("depths", d), ("depth_offsets", off.astype(np.intp))):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self):
        return len(self.timestamps)

    def keyframe(self, i: int) -> Keyframe:
        """Keyframe ``i`` as a read-only view of the columns."""
        i = range(len(self))[i]
        pose = _unchecked(Se3Pose, self.rotations[i], self.translations[i])
        lo, hi = self.depth_offsets[i:i + 2]
        return _unchecked(Keyframe, float(self.timestamps[i]), pose, self.depths[lo:hi])

    @cached_property
    def keyframes(self) -> tuple[Keyframe, ...]:
        """Every keyframe as a read-only view, built on first use."""
        return tuple(map(self.keyframe, range(len(self))))

    @cached_property
    def timestamp_keys(self) -> list[float]:
        """:func:`timestamp_key` of every timestamp."""
        return list(map(timestamp_key, self.timestamps.tolist()))


def _check_rows(ts, rot, trans, depths, offsets) -> None:
    """Build the first keyframe flagged by one mask of the checks of :class:`Se3Pose`
    and :class:`Keyframe`, with their arithmetic, so that its constructors raise."""
    bad_before = np.cumsum(np.concatenate([[0], ~((depths > 0.0) & (depths < math.inf))]))
    bad = (_rotation_defects(rot) | ~np.isfinite(trans).all(axis=1) | ~np.isfinite(ts)
           | (bad_before[offsets[1:]] > bad_before[offsets[:-1]]))
    for row in np.flatnonzero(bad).tolist():  # the first flagged row raises
        Keyframe(float(ts[row]), Se3Pose(rot[row], trans[row]),
                 depths[offsets[row]:offsets[row + 1]])


@dataclass(frozen=True, eq=False)
class JoinCandidate:
    """A retrieved cross-trajectory frame pair with its match set.

    ``anchor_ids0``/``anchor_ids1`` index the per-keyframe depth arrays,
    aligning each anchor of the match set with its map depth.
    """

    frame_a: int
    frame_b: int
    matches: AnchorMatchSet
    anchor_ids0: np.ndarray
    anchor_ids1: np.ndarray


@dataclass(frozen=True)
class ScaleEstimate:
    scale: float
    inlier_count: int
    inlier_fraction: float

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class TriangulatedDepths:
    depths0: np.ndarray
    valid0: np.ndarray
    depths1: np.ndarray
    valid1: np.ndarray
    n_dropped: int


def triangulated_depths(pose: RelativePose, mset: AnchorMatchSet) -> TriangulatedDepths:
    """Unit-baseline depths of every anchor of ``mset`` under ``pose``, from
    :func:`~sedslam.twoview.front_depths`; anchors not in front of both
    cameras are dropped (marked invalid) and counted.
    """
    d0, valid0, d1, valid1 = front_depths(pose, mset)
    n_valid = int(np.sum(valid0) + np.sum(valid1))
    n_dropped = len(d0) + len(d1) - n_valid
    if n_valid < MIN_VALID_DEPTHS:
        raise TooFewDepthsError(
            f"only {n_valid} valid triangulated depths (need {MIN_VALID_DEPTHS})")
    return TriangulatedDepths(d0, valid0, d1, valid1, n_dropped)


def estimate_scale(map_depths, tri_depths, ratio_bound: float = RATIO_BOUND) -> ScaleEstimate:
    """Depth-ratio vote recovering the translation magnitude.

    Every candidate ``s = d_k / d'_k`` is scored by how many pairs satisfy
    ``1/ratio_bound < d_j / (s d'_j) < ratio_bound``; the maximizer wins and
    ties break to the smaller s. The result equals that of scoring all n²
    pairs, bit for bit: rounding is monotone, so pair j's rounded ratio never
    grows with s, even where ``s d'_j`` overflows or underflows, and pair j
    is an inlier for one run of the sorted candidates. Bisection finds both
    ends of every run, in O(n log n) time and O(n) memory for any input. A
    depth pair whose ratio leaves the normal floating-point range is rejected.
    """
    d = np.asarray(map_depths, dtype=float).reshape(-1)
    dp = np.asarray(tri_depths, dtype=float).reshape(-1)
    if d.size == 0 or d.size != dp.size:
        raise ValueError("paired non-empty depth lists required")
    if not 1.0 < ratio_bound < math.inf:
        raise ValueError(f"ratio bound must be finite and exceed 1, got {ratio_bound}")
    if not (np.all(np.isfinite(d) & (d > 0.0)) and np.all(np.isfinite(dp) & (dp > 0.0))):
        raise ValueError("depths must be finite and positive")
    with np.errstate(over="ignore", under="ignore"):
        ratio = d / dp
    outside = ~((ratio >= np.finfo(float).tiny) & (ratio < np.inf))
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"map depth {float(d[k])!r} over triangulated depth {float(dp[k])!r} "
                         "gives a ratio outside the normal floating-point range")
    s = np.sort(ratio)
    s = s[np.append(True, s[1:] != s[:-1])]  # equal candidates score alike
    # Padded with inf (ratio 0, never counted) to a power of two above len(s).
    cand = np.append(s, np.full((1 << len(s).bit_length()) - len(s), np.inf))
    # Pair j counts for the candidates from end[0, j], the number with
    # r >= ratio_bound, up to end[1, j], the number with r > 1/ratio_bound.
    edge = np.array([[ratio_bound], [np.nextafter(1.0 / ratio_bound, np.inf)]])
    end = np.zeros((2, d.size), dtype=np.intp)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        for step in reversed([1 << k for k in range(len(s).bit_length())]):
            end += step * (d / (cand[end + (step - 1)] * dp) >= edge)
    counts = np.cumsum(np.bincount(end[0], minlength=len(s) + 1)
                       - np.bincount(end[1], minlength=len(s) + 1))[:-1]
    best = int(np.argmax(counts))  # first maximum, so the smallest scale
    best_count = int(counts[best])
    return ScaleEstimate(float(s[best]), best_count, best_count / d.size)


def build_sim3(pose: RelativePose, scale_a: ScaleEstimate, scale_b: ScaleEstimate,
               inlier_threshold: float = INLIER_THRESHOLD) -> Sim3Transform:
    """Similarity mapping frame-b camera coordinates into frame a's.

    ``pose`` is the a-to-b relative pose of the solved match set; ``scale_a``
    and ``scale_b`` are the baseline magnitudes in each trajectory's units.
    The output has scale s_a/s_b and translation -s_a Rᵀ t, the variant
    validated by the synthetic round-trip oracle (the translation must be
    expressed in trajectory-a units). ``inlier_threshold`` must lie in [0, 1].
    """
    if not 0.0 <= inlier_threshold <= 1.0:
        raise ValueError(f"inlier threshold must lie in [0, 1], got {inlier_threshold}")
    if scale_a.inlier_fraction < inlier_threshold or scale_b.inlier_fraction < inlier_threshold:
        raise InsufficientInliersError(
            "scale voting inlier fractions "
            f"({scale_a.inlier_fraction:.3f}, {scale_b.inlier_fraction:.3f}) "
            f"below {inlier_threshold}; retry with another candidate pair")
    rot_ba = pose.rotation.T
    t_ba = -scale_a.scale * (rot_ba @ pose.translation_dir)
    return Sim3Transform(scale_a.scale / scale_b.scale, rot_ba, t_ba)


@dataclass
class JoinEstimate:
    world_sim3: Sim3Transform
    camera_sim3: Sim3Transform
    scale_a: ScaleEstimate
    scale_b: ScaleEstimate
    report: SedSolveReport
    candidate: JoinCandidate
    n_dropped: int  # anchors whose triangulation was not in front of both cameras


def estimate_join(traj_a: Trajectory, traj_b: Trajectory, candidate: JoinCandidate,
                  ratio_bound: float = RATIO_BOUND,
                  inlier_threshold: float = INLIER_THRESHOLD,
                  max_iters: int = 50) -> JoinEstimate:
    """Solve a candidate pair and lift the result to a world-level Sim(3).

    Runs the two-view solver, triangulates, votes the two scales, builds the
    camera-level transform and conjugates it with the keyframe poses:
    ``S_world = G_a . S_cam . G_b^-1`` maps trajectory b's world frame into
    trajectory a's. A ``SedSlamError`` names its stage: a two-view sub-stage,
    else ``two_view``, ``triangulate`` or ``sim3``. The candidate is left
    unchanged; the solved pose is the result's ``report.pose``.
    """
    with _staged("two_view"):
        report = solve_two_view(candidate.matches, max_iters)
    kf_a = traj_a.keyframe(candidate.frame_a)
    kf_b = traj_b.keyframe(candidate.frame_b)
    with _staged("triangulate"):
        tri = triangulated_depths(report.pose, candidate.matches)
        vo_a = kf_a.depths[candidate.anchor_ids0][tri.valid0]
        vo_b = kf_b.depths[candidate.anchor_ids1][tri.valid1]
        if vo_a.size == 0 or vo_b.size == 0:
            raise TooFewDepthsError("no valid depths on one side of the candidate pair")
    with _staged("sim3"):
        scale_a = estimate_scale(vo_a, tri.depths0[tri.valid0], ratio_bound)
        scale_b = estimate_scale(vo_b, tri.depths1[tri.valid1], ratio_bound)
        cam = build_sim3(report.pose, scale_a, scale_b, inlier_threshold)
    world = (Sim3Transform.from_se3(kf_a.pose)
             .compose(cam)
             .compose(Sim3Transform.from_se3(kf_b.pose).inverse()))
    return JoinEstimate(world, cam, scale_a, scale_b, report, candidate, tri.n_dropped)


def timestamp_key(ts: float) -> float:
    """``ts`` rounded to ``TIMESTAMP_DECIMALS`` decimals, the digits the
    file writers print: two timestamps share a key exactly when they are
    written alike."""
    return round(float(ts), TIMESTAMP_DECIMALS)


def check_disjoint(traj_a: Trajectory, traj_b: Trajectory) -> None:
    """Raise :class:`TimestampCollisionError` if the two trajectories share a
    timestamp at ``TIMESTAMP_DECIMALS`` decimals, so that their merge could
    not be written."""
    common = set(traj_a.timestamp_keys).intersection(traj_b.timestamp_keys)
    if common:
        raise TimestampCollisionError(
            f"{len(common)} timestamps appear in both trajectories "
            f"at {TIMESTAMP_DECIMALS} decimals")


def merge_trajectories(traj_a: Trajectory, traj_b: Trajectory,
                       sim3: Sim3Transform) -> Trajectory:
    """Map trajectory b through a world-level Sim(3) and interleave by time.

    Depths of b scale by ``sim3.scale`` since camera coordinates rescale
    alongside the world. The poses of b are mapped as
    :meth:`Sim3Transform.transform_pose` maps one, and the result is checked
    as any trajectory is.
    """
    check_disjoint(traj_a, traj_b)
    rot_b, trans_b = sim3._map_poses(traj_b.rotations, traj_b.translations)
    rot = np.concatenate([traj_a.rotations, rot_b])
    trans = np.concatenate([traj_a.translations, trans_b])
    stamps = np.concatenate([traj_a.timestamps, traj_b.timestamps])
    order = np.argsort(stamps, kind="stable")
    depths = np.concatenate([traj_a.depths, sim3.scale * traj_b.depths])
    starts = np.concatenate([traj_a.depth_offsets[:-1],
                             traj_b.depth_offsets[:-1] + len(traj_a.depths)])[order]
    counts = np.concatenate([np.diff(traj_a.depth_offsets), np.diff(traj_b.depth_offsets)])[order]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    # Merged keyframe k copies its depths from starts[k] on, in order.
    take = np.arange(len(depths)) + np.repeat(starts - offsets[:-1], counts)
    merged = Trajectory.from_columns(stamps[order], rot[order], trans[order], depths[take], offsets)
    keys = traj_a.timestamp_keys + traj_b.timestamp_keys  # seed the cached property
    merged.__dict__["timestamp_keys"] = list(map(keys.__getitem__, order.tolist()))
    return merged
