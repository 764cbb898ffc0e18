"""Joining disjoint trajectories through a relative Sim(3).

Given a cross-trajectory two-view pose, the translation magnitude and the
inter-session scale are recovered by depth-ratio voting: for each side,
every candidate scale ``s = d_k / d'_k`` (map depth over unit-baseline
triangulated depth) is scored by the number of pairs with
``1/lam < d_k / (s d'_k) < lam``, and the maximizer wins. The vote counts
over the sorted candidates, in O(n log n) time and O(n) memory unless many
ratios crowd a band edge, and returns exactly what scoring every pair
would. The two per-side
magnitudes combine with the solved rotation into a similarity transform
that maps one trajectory into the other's reference frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientInliersError, TimestampCollisionError, TooFewDepthsError
from .geom import RelativePose, Se3Pose, Sim3Transform
from .twoview import AnchorMatchSet, SedSolveReport, front_depths, solve_two_view

# Default inlier band of the depth-ratio vote.
RATIO_BOUND = 1.05
# Minimum per-side inlier fraction before a candidate pair is rejected.
INLIER_THRESHOLD = 0.3
# Minimum number of valid triangulated depths across both sides.
MIN_VALID_DEPTHS = 10
# Relative distance from a band edge within which a ratio's side of the edge
# is decided by the vote's own arithmetic rather than by its sorted position.
# Rounding moves a ratio by a few ulps (about 1e-15), far inside this margin.
_EDGE_MARGIN = 1e-9
# Decimals of every timestamp written to a file; keyframe timestamps must
# stay distinct at this precision to survive a write and read.
TIMESTAMP_DECIMALS = 6


@dataclass(frozen=True, eq=False)
class Keyframe:
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Timestamp-ordered keyframes with world-from-camera poses."""

    keyframes: tuple[Keyframe, ...]

    def __post_init__(self):
        object.__setattr__(self, "keyframes", tuple(self.keyframes))
        ts = self.timestamps()
        if len(ts) > 1 and np.any(np.diff(ts) <= 0.0):
            raise ValueError("keyframe timestamps must be strictly increasing")

    def __len__(self):
        return len(self.keyframes)

    def timestamps(self) -> np.ndarray:
        return np.array([k.timestamp for k in self.keyframes])

    def positions(self) -> np.ndarray:
        return np.array([k.pose.translation for k in self.keyframes])


@dataclass
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
    pose: RelativePose | None = None


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


def triangulated_depths(candidate: JoinCandidate) -> TriangulatedDepths:
    """Unit-baseline depths of every anchor under the candidate's pose, from
    :func:`~sedslam.twoview.front_depths`; anchors not in front of both
    cameras are dropped (marked invalid) and counted.
    """
    if candidate.pose is None:
        raise ValueError("candidate has no solved pose")
    d0, valid0, d1, valid1 = front_depths(candidate.pose, candidate.matches)
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
    pairs, bit for bit. The candidates are sorted once, the ratios well
    inside each band are counted with ``searchsorted``, and only those
    within ``_EDGE_MARGIN`` of a band edge are re-checked in the arithmetic
    above, so the vote takes O(n log n) time and O(n) memory unless many
    ratios sit that close to an edge. A candidate whose band, or whose
    products with the triangulated depths, leave the normal floating-point
    range, where rounding has no relative bound, is re-checked against
    every pair. A depth pair whose ratio leaves that range is rejected.
    """
    d = np.asarray(map_depths, dtype=float).reshape(-1)
    dp = np.asarray(tri_depths, dtype=float).reshape(-1)
    if d.size == 0 or d.size != dp.size:
        raise ValueError("paired non-empty depth lists required")
    if not 1.0 < ratio_bound < math.inf:
        raise ValueError(f"ratio bound must be finite and exceed 1, got {ratio_bound}")
    if not (np.all(np.isfinite(d) & (d > 0.0)) and np.all(np.isfinite(dp) & (dp > 0.0))):
        raise ValueError("depths must be finite and positive")
    n = d.size
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    with np.errstate(over="ignore", under="ignore"):
        ratio = d / dp
    outside = ~((ratio >= tiny) & (ratio <= huge))
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"map depth {float(d[k])!r} over triangulated depth {float(dp[k])!r} "
                         "gives a ratio outside the normal floating-point range")
    order = np.argsort(ratio)
    # Sorted pairs; pair j under candidate s has a ratio of about ratio[j] / s.
    ratio, d, dp = ratio[order], d[order], dp[order]
    s = ratio[np.append(True, ratio[1:] != ratio[:-1])]  # equal candidates score alike
    lo, hi = s / ratio_bound, s * ratio_bound
    lo_out, lo_in = lo * (1.0 - _EDGE_MARGIN), lo * (1.0 + _EDGE_MARGIN)
    hi_in, hi_out = hi * (1.0 - _EDGE_MARGIN), hi * (1.0 + _EDGE_MARGIN)
    outer_lo = np.searchsorted(ratio, lo_out, side="right")
    inner_lo = np.searchsorted(ratio, lo_in, side="left")
    inner_hi = np.searchsorted(ratio, hi_in, side="right")
    outer_hi = np.searchsorted(ratio, hi_out, side="left")
    normal = ((s * dp.min() >= tiny) & (s * dp.max() <= huge)
              & (lo_out >= tiny) & (hi_out <= huge))
    outer_lo[~normal], outer_hi[~normal] = 0, n
    # An empty inner window (ratio_bound within about 2e-9 of 1, or an
    # abnormal candidate) leaves the whole outer window to the re-check.
    empty = ~normal | (inner_hi <= inner_lo)
    inner_lo[empty] = inner_hi[empty] = outer_hi[empty]

    # Re-check [outer_lo, inner_lo) and [inner_hi, outer_hi) of every
    # candidate as one flat list of (candidate, pair) indices.
    starts = np.concatenate([outer_lo, inner_hi])
    lengths = np.concatenate([inner_lo - outer_lo, outer_hi - inner_hi])
    cand = np.repeat(np.tile(np.arange(len(s)), 2), lengths)
    pair = np.arange(len(cand)) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    r = d[pair] / (s[cand] * dp[pair])
    inside = (r > 1.0 / ratio_bound) & (r < ratio_bound)
    counts = (inner_hi - inner_lo) + np.bincount(cand[inside], minlength=len(s))
    best = int(np.argmax(counts))  # first maximum, so the smallest scale
    best_count = int(counts[best])
    return ScaleEstimate(float(s[best]), best_count, best_count / n)


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


def estimate_join(traj_a: Trajectory, traj_b: Trajectory, candidate: JoinCandidate,
                  ratio_bound: float = RATIO_BOUND,
                  inlier_threshold: float = INLIER_THRESHOLD,
                  max_iters: int = 50) -> JoinEstimate:
    """Solve a candidate pair and lift the result to a world-level Sim(3).

    Runs the two-view solver, triangulates, votes the two scales, builds the
    camera-level transform and conjugates it with the keyframe poses:
    ``S_world = G_a . S_cam . G_b^-1`` maps trajectory b's world frame into
    trajectory a's.
    """
    report = solve_two_view(candidate.matches, max_iters)
    candidate.pose = report.pose
    tri = triangulated_depths(candidate)

    kf_a = traj_a.keyframes[candidate.frame_a]
    kf_b = traj_b.keyframes[candidate.frame_b]
    vo_a = kf_a.depths[candidate.anchor_ids0][tri.valid0]
    vo_b = kf_b.depths[candidate.anchor_ids1][tri.valid1]
    if vo_a.size == 0 or vo_b.size == 0:
        raise TooFewDepthsError("no valid depths on one side of the candidate pair")
    scale_a = estimate_scale(vo_a, tri.depths0[tri.valid0], ratio_bound)
    scale_b = estimate_scale(vo_b, tri.depths1[tri.valid1], ratio_bound)

    cam = build_sim3(report.pose, scale_a, scale_b, inlier_threshold)
    world = (Sim3Transform.from_se3(kf_a.pose)
             .compose(cam)
             .compose(Sim3Transform.from_se3(kf_b.pose).inverse()))
    return JoinEstimate(world, cam, scale_a, scale_b, report, candidate)


def timestamp_key(ts: float) -> float:
    """``ts`` rounded to ``TIMESTAMP_DECIMALS`` decimals, the digits the
    file writers print: two timestamps share a key exactly when they are
    written alike."""
    return round(float(ts), TIMESTAMP_DECIMALS)


def merge_trajectories(traj_a: Trajectory, traj_b: Trajectory,
                       sim3: Sim3Transform) -> Trajectory:
    """Map trajectory b through a world-level Sim(3) and interleave by time.

    Depths of b scale by ``sim3.scale`` since camera coordinates rescale
    alongside the world.
    """
    common = ({timestamp_key(t) for t in traj_a.timestamps()}
              & {timestamp_key(t) for t in traj_b.timestamps()})
    if common:
        raise TimestampCollisionError(
            f"{len(common)} timestamps appear in both trajectories "
            f"at {TIMESTAMP_DECIMALS} decimals")
    mapped = [replace(k, pose=sim3.transform_pose(k.pose), depths=sim3.scale * k.depths)
              for k in traj_b.keyframes]
    merged = sorted(list(traj_a.keyframes) + mapped, key=lambda k: k.timestamp)
    return Trajectory(tuple(merged))
