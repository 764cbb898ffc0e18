"""Ground-truth oracles: random two-view scenes, multi-view graphs,
trajectory pairs, and the convergence-basin experiment.

All generators are pure functions of (seed, parameters): the same seed
produces bit-identical output. Scene geometry follows indoor-scale
statistics: 90-degree field of view, 512x512 images, points in a depth
range of 1 to 4 baseline units.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .ba import Edge, FactorGraph
from .geom import Intrinsics, RelativePose, Se3Pose, Sim3Transform, project, so3_exp
from .metrics import pose_error
from .sim3 import JoinCandidate, Keyframe, Trajectory
from .twoview import AnchorMatchSet, lm_refine_sed, solve_two_view

IMAGE_SIZE = 512.0
FOCAL = IMAGE_SIZE / 2.0  # 90 degree field of view
DEFAULT_INTRINSICS = Intrinsics(FOCAL, FOCAL, IMAGE_SIZE / 2.0, IMAGE_SIZE / 2.0)
VISIBILITY_MARGIN = 24.0
MAX_SAMPLING_ROUNDS = 50
# Anchors kept per trajectory keyframe, the anchor budget of a video frame.
ANCHORS_PER_FRAME = 96


@dataclass(frozen=True)
class NoiseModel:
    """Controlled corruption of synthetic matches.

    ``gaussian_sigma`` is clipped at 3 sigma per component so inlier
    point-to-line residuals stay bounded by construction. Outliers are
    redrawn uniformly over the image; inliers get weight 1 and outliers
    ``outlier_weight`` (1.0 weighs every match alike).
    """

    gaussian_sigma: float = 0.0
    outlier_fraction: float = 0.0
    outlier_weight: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must lie in [0, 1)")
        if self.gaussian_sigma < 0.0:
            raise ValueError("noise magnitudes must be non-negative")


def _look_at(center, target, up, roll_rng=None):
    """World-from-camera rotation of a camera at ``center`` looking at ``target``."""
    z = target - center
    z = z / np.linalg.norm(z)
    x = np.cross(up, z)
    n = np.linalg.norm(x)
    if n < 1e-9:
        x = np.cross(np.array([1.0, 0.0, 0.0]), z)
        n = np.linalg.norm(x)
    x = x / n
    y = np.cross(z, x)
    rot = np.stack([x, y, z], axis=1)
    if roll_rng is not None:
        rot = rot @ so3_exp(np.array([0.0, 0.0, roll_rng.uniform(-0.2, 0.2)]))
    return rot


def _visible(local, k, z_min):
    """Mask of camera-frame points (n, 3) deeper than ``z_min`` whose
    projections lie at least ``VISIBILITY_MARGIN`` inside the image."""
    ok = local[:, 2] > z_min
    uv = np.full((len(local), 2), -1.0)
    uv[ok] = project(local[ok], k)
    lo, hi = VISIBILITY_MARGIN, IMAGE_SIZE - VISIBILITY_MARGIN
    return ok & np.all((uv >= lo) & (uv <= hi), axis=1)


def _corrupt_matches(matches, rng, noise, width, height):
    """Apply Gaussian noise with the displacement norm clipped at 3 sigma,
    so inlier point-to-line residuals stay below 3 sigma by construction."""
    if noise.gaussian_sigma > 0.0:
        delta = rng.normal(0.0, noise.gaussian_sigma, size=matches.shape)
        norms = np.linalg.norm(delta, axis=-1, keepdims=True)
        cap = 3.0 * noise.gaussian_sigma
        delta = delta * np.minimum(1.0, cap / np.maximum(norms, 1e-300))
        matches = matches + delta
    return np.clip(matches, [0.0, 0.0], [width, height])


def make_two_view(seed: int, n_points: int = 96, baseline: float = 1.0,
                  noise: NoiseModel | None = None):
    """Random wide-baseline camera pair with bi-directional anchor matches.

    Returns (AnchorMatchSet, ground-truth RelativePose). Anchors are exact
    projections split evenly between the frames (96 per pair by default, the
    anchor budget of a video frame); matches are the exact projections in
    the other frame corrupted per the noise model, with exactly
    ``floor(outlier_fraction * n)`` matches redrawn uniformly.
    """
    if n_points < 8:
        raise ValueError("need at least 8 points")
    noise = noise or NoiseModel()
    rng = np.random.default_rng(seed)
    k = DEFAULT_INTRINSICS
    w = h = IMAGE_SIZE

    # Second camera on a sphere of radius `baseline` with a mostly lateral
    # offset, the dominant motion pattern of the handheld/drone trajectories
    # this solver serves, looking back at the cloud.
    while True:
        u = rng.normal(size=3)
        u = u / np.linalg.norm(u)
        if abs(u[2]) <= 0.3:
            break
    center2 = baseline * u
    cloud_center = np.array([0.0, 0.0, 2.5 * baseline])
    r2_wc = _look_at(center2, cloud_center, np.array([0.0, 1.0, 0.0]), rng)
    r01 = r2_wc.T
    t01 = -r2_wc.T @ center2
    gt = RelativePose(r01, t01 / np.linalg.norm(t01))

    # Rejection-sample points visible in both frustums with a pixel margin.
    pts: list[np.ndarray] = []
    lo, hi = VISIBILITY_MARGIN, IMAGE_SIZE - VISIBILITY_MARGIN
    for _ in range(MAX_SAMPLING_ROUNDS):
        m = 4 * n_points
        z = rng.uniform(1.0, 4.0, size=m) * baseline
        px = rng.uniform(lo, hi, size=m)
        py = rng.uniform(lo, hi, size=m)
        cand = np.stack([(px - k.cx) / k.fx * z, (py - k.cy) / k.fy * z, z], axis=1)
        ok = _visible(cand @ r01.T + t01, k, 0.2 * baseline)
        pts.extend(cand[ok])
        if len(pts) >= n_points:
            break
    if len(pts) < n_points:
        raise RuntimeError("visibility sampling exhausted; geometry too extreme")
    pts = np.array(pts[:n_points])

    proj0 = project(pts, k)
    proj1 = project(pts @ r01.T + t01, k)

    n0 = (n_points + 1) // 2
    anchors0, matches0 = proj0[:n0], proj1[:n0].copy()
    anchors1, matches1 = proj1[n0:], proj0[n0:].copy()

    n_out = int(np.floor(noise.outlier_fraction * n_points))
    out_idx = rng.choice(n_points, size=n_out, replace=False) if n_out else np.array([], dtype=int)
    for idx in out_idx:
        redraw = np.array([rng.uniform(0.0, w), rng.uniform(0.0, h)])
        if idx < n0:
            matches0[idx] = redraw
        else:
            matches1[idx - n0] = redraw

    matches0 = _corrupt_matches(matches0, rng, noise, w, h)
    matches1 = _corrupt_matches(matches1, rng, noise, w, h)

    weights0 = np.ones(n0)
    weights1 = np.ones(n_points - n0)
    for idx in out_idx:
        if idx < n0:
            weights0[idx] = noise.outlier_weight
        else:
            weights1[idx - n0] = noise.outlier_weight

    mset = AnchorMatchSet(anchors0, matches0, weights0, anchors1, matches1, weights1,
                          k, k, (w, h), (w, h))
    return mset, gt


def make_ba_graph(seed: int, n_frames: int = 4, n_anchors: int = 50,
                  match_sigma: float = 0.0, pose_perturb_deg: float = 0.0,
                  pose_perturb_rel: float = 0.0, depth_perturb_rel: float = 0.0):
    """Multi-view factor graph over a shared cloud with all-pairs edges.

    Matches come from the ground-truth geometry (plus optional pixel noise);
    the graph's poses and depths can be perturbed away from ground truth for
    convergence tests. Returns (graph, gt_poses, gt_depths).
    """
    rng = np.random.default_rng(seed)
    k = DEFAULT_INTRINSICS

    radius = 3.0
    arc = np.radians(12.0)
    centers = []
    poses = []
    for f in range(n_frames):
        ang = arc * (f - (n_frames - 1) / 2.0)
        c = np.array([radius * np.sin(ang), 0.3 * np.sin(2.0 * ang),
                      radius - radius * np.cos(ang)])
        centers.append(c)
        poses.append(Se3Pose(_look_at(c, np.array([0.0, 0.0, radius]), np.array([0.0, 1.0, 0.0])), c))

    # Per-frame anchor points, each visible in every frame.
    counts = [n_anchors // n_frames] * n_frames
    for f in range(n_anchors % n_frames):
        counts[f] += 1
    anchors, depths, points = [], [], []
    for f in range(n_frames):
        own: list[np.ndarray] = []
        for _ in range(MAX_SAMPLING_ROUNDS):
            m = 4 * counts[f]
            cand = np.stack([rng.uniform(-1.1, 1.1, m), rng.uniform(-1.1, 1.1, m),
                             radius + rng.uniform(-1.1, 1.1, m)], axis=1)
            ok = np.ones(m, dtype=bool)
            for g in range(n_frames):
                ok &= _visible(poses[g].inverse().apply(cand), k, 0.5)
            own.extend(cand[ok])
            if len(own) >= counts[f]:
                break
        if len(own) < counts[f]:
            raise RuntimeError("visibility sampling exhausted for the multi-view graph")
        own = np.array(own[:counts[f]])
        points.append(own)
        local = poses[f].inverse().apply(own)
        anchors.append(project(local, k))
        depths.append(local[:, 2])

    edges = []
    for i in range(n_frames):
        for j in range(n_frames):
            if i == j:
                continue
            local = poses[j].inverse().apply(points[i])
            matches = project(local, k)
            if match_sigma > 0.0:
                matches = matches + np.clip(rng.normal(0.0, match_sigma, matches.shape),
                                            -3.0 * match_sigma, 3.0 * match_sigma)
            edges.append(Edge(i, j, matches, np.ones(len(matches))))

    gt_poses = list(poses)
    gt_depths = [d.copy() for d in depths]

    init_poses = [poses[0]]
    for pose in poses[1:]:
        if pose_perturb_deg > 0.0 or pose_perturb_rel > 0.0:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            d_rot = so3_exp(np.radians(pose_perturb_deg) * axis)
            d_t = pose_perturb_rel * radius * rng.normal(size=3) / np.sqrt(3.0)
            init_poses.append(Se3Pose(d_rot @ pose.rotation, pose.translation + d_t))
        else:
            init_poses.append(pose)
    init_depths = []
    for d in depths:
        if depth_perturb_rel > 0.0:
            init_depths.append(d * (1.0 + depth_perturb_rel * rng.uniform(-1.0, 1.0, d.shape)))
        else:
            init_depths.append(d.copy())

    graph = FactorGraph(init_poses, [k] * n_frames, anchors, init_depths, edges)
    return graph, gt_poses, gt_depths


@dataclass(frozen=True, eq=False)
class TrajectoryPair:
    """Two overlapping synthetic trajectories plus everything needed to join
    them: covisible frame pairs, the shared cloud, and the ground truth
    world-level Sim(3) mapping trajectory b into trajectory a.
    ``anchors_a``/``anchors_b`` hold each keyframe's anchor pixels, one per
    depth."""

    traj_a: Trajectory
    traj_b: Trajectory
    pairs: tuple[tuple[int, int], ...]
    gt_sim3: Sim3Transform
    anchors_a: tuple[np.ndarray, ...] = field(repr=False)
    anchors_b: tuple[np.ndarray, ...] = field(repr=False)
    points: np.ndarray = field(repr=False)
    point_ids_a: tuple[np.ndarray, ...] = field(repr=False)
    point_ids_b: tuple[np.ndarray, ...] = field(repr=False)
    poses_b_metric: tuple[Se3Pose, ...] = field(repr=False)


def _arc_trajectory(rng, n_frames, start_deg, step_deg, radius, t0):
    poses, stamps = [], []
    for f in range(n_frames):
        ang = np.radians(start_deg + f * step_deg)
        c = np.array([radius * np.sin(ang), 0.25 * np.sin(3.0 * ang),
                      -radius * np.cos(ang)])
        poses.append(Se3Pose(_look_at(c, np.zeros(3), np.array([0.0, 1.0, 0.0])), c))
        stamps.append(t0 + 0.1 * f)
    return poses, stamps


def _visible_ids(pose, points, k):
    return np.flatnonzero(_visible(pose.inverse().apply(points), k, 0.5))


def make_trajectory_pair(seed: int, n_frames: int = 8, overlap: float = 0.5,
                         sim3: Sim3Transform | None = None) -> TrajectoryPair:
    """Two smooth trajectories observing a shared cloud, the second stored in
    a frame related to the first by the given Sim(3)."""
    if not 0.0 < overlap <= 1.0:
        raise ValueError("overlap must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    k = DEFAULT_INTRINSICS
    sim3 = sim3 or Sim3Transform.identity()

    points = rng.uniform(-1.4, 1.4, size=(220, 3))
    radius = 5.0
    step = 5.0
    span = step * (n_frames - 1)
    poses_a, ts_a = _arc_trajectory(rng, n_frames, -90.0, step, radius, 100.0)
    start_b = -90.0 + span * (1.0 - overlap)
    poses_b, ts_b = _arc_trajectory(rng, n_frames, start_b, step, radius, 200.0)

    def build_keyframes(poses, stamps, scale, stored_pose):
        kfs, anchors, ids = [], [], []
        for pose, ts in zip(poses, stamps):
            vis = _visible_ids(pose, points, k)
            if len(vis) < 12:
                raise RuntimeError("trajectory keyframe sees too few points")
            take = vis[rng.permutation(len(vis))[:ANCHORS_PER_FRAME]]
            take = np.sort(take)
            local = pose.inverse().apply(points[take])
            kfs.append(Keyframe(ts, stored_pose(pose), local[:, 2] / scale))
            anchors.append(project(local, k))
            ids.append(take)
        return Trajectory(tuple(kfs)), tuple(anchors), ids

    traj_a, anchors_a, ids_a = build_keyframes(poses_a, ts_a, 1.0, lambda pose: pose)
    traj_b, anchors_b, ids_b = build_keyframes(poses_b, ts_b, sim3.scale,
                                               sim3.inverse().transform_pose)

    # A pair is covisible when enough of each frame's anchors project into
    # the other camera and the baseline is wide but not extreme.
    vis_a = [_visible_ids(p, points, k) for p in poses_a]
    vis_b = [_visible_ids(p, points, k) for p in poses_b]
    pairs = []
    for ia in range(n_frames):
        for ib in range(n_frames):
            sep = abs((-90.0 + ia * step) - (start_b + ib * step))
            n_ab = int(np.sum(np.isin(ids_a[ia], vis_b[ib])))
            n_ba = int(np.sum(np.isin(ids_b[ib], vis_a[ia])))
            if 4.0 <= sep <= 16.0 and n_ab >= 24 and n_ba >= 24:
                pairs.append((ia, ib))

    return TrajectoryPair(traj_a, traj_b, tuple(pairs), sim3, anchors_a, anchors_b, points,
                          tuple(ids_a), tuple(ids_b), tuple(poses_b))


def build_join_candidate(pair: TrajectoryPair, frame_a: int, frame_b: int,
                         noise: NoiseModel | None = None, seed: int = 0) -> JoinCandidate:
    """Anchor/match set for one covisible frame pair of a trajectory pair.

    Anchors come from the stored keyframes, restricted to points visible in
    both views; matches are the exact projections into the other camera,
    corrupted per the noise model.
    """
    noise = noise or NoiseModel()
    rng = np.random.default_rng(seed)
    k = DEFAULT_INTRINSICS
    pose_a = pair.traj_a.keyframes[frame_a].pose
    pose_b = pair.poses_b_metric[frame_b]

    ids_a = pair.point_ids_a[frame_a]
    ids_b = pair.point_ids_b[frame_b]
    vis_in_b = _visible_ids(pose_b, pair.points, k)
    vis_in_a = _visible_ids(pose_a, pair.points, k)

    sel_a = np.flatnonzero(np.isin(ids_a, vis_in_b))
    sel_b = np.flatnonzero(np.isin(ids_b, vis_in_a))

    m0 = project(pose_b.inverse().apply(pair.points[ids_a[sel_a]]), k)
    m1 = project(pose_a.inverse().apply(pair.points[ids_b[sel_b]]), k)
    m0 = _corrupt_matches(m0, rng, noise, IMAGE_SIZE, IMAGE_SIZE)
    m1 = _corrupt_matches(m1, rng, noise, IMAGE_SIZE, IMAGE_SIZE)

    mset = AnchorMatchSet(pair.anchors_a[frame_a][sel_a], m0, np.ones(len(sel_a)),
                          pair.anchors_b[frame_b][sel_b], m1, np.ones(len(sel_b)),
                          k, k, (IMAGE_SIZE, IMAGE_SIZE), (IMAGE_SIZE, IMAGE_SIZE))
    return JoinCandidate(frame_a, frame_b, mset, sel_a, sel_b)


def perturb_pose(pose: RelativePose, angle_deg: float, rng) -> RelativePose:
    """Rotate both the orientation and the translation direction by a fixed
    angle about random axes (the translation axis is drawn orthogonal to t
    so its direction error is exactly the requested angle)."""
    angle = np.radians(angle_deg)
    axis_r = rng.normal(size=3)
    axis_r /= np.linalg.norm(axis_r)
    rot = so3_exp(angle * axis_r) @ pose.rotation
    t = pose.translation_dir
    v = rng.normal(size=3)
    v -= np.dot(v, t) * t
    n = np.linalg.norm(v)
    if n < 1e-12:
        v = np.array([1.0, 0.0, 0.0]) - t[0] * t
        n = np.linalg.norm(v)
    t_new = so3_exp(angle * v / n) @ t
    return RelativePose(rot, t_new / np.linalg.norm(t_new))


@dataclass(frozen=True)
class BasinRow:
    init_deg: float
    seed: int
    mode: str
    final_rot_deg: float
    final_trans_deg: float
    converged: bool


def basin_experiment(n_seeds: int, init_error_grid, mode: str,
                     base_seed: int = 0, max_iters: int = 50) -> list[BasinRow]:
    """Convergence-basin sweep on noise-free 96-point scenes.

    For every grid angle and seed, the ground-truth pose is perturbed by the
    angle about random axes and the selected pipeline is run: "sed_only"
    refines from the perturbed initialization, "preconditioned" runs the
    full solve and ignores the initialization.
    """
    if mode not in ("sed_only", "preconditioned"):
        raise ValueError(f"unknown basin mode {mode!r}")
    rows = []
    for s in range(n_seeds):
        seed = base_seed + s
        mset, gt = make_two_view(seed)
        for init_deg in init_error_grid:
            if mode == "sed_only":
                rng = np.random.default_rng((seed, int(round(init_deg * 1000.0)), 17))
                init = perturb_pose(gt, float(init_deg), rng)
                report = lm_refine_sed(init, mset, max_iters)
            else:
                report = solve_two_view(mset, max_iters)
            err = pose_error(report.pose, gt)
            rows.append(BasinRow(float(init_deg), seed, mode,
                                 err.rot_deg, err.trans_deg, report.converged))
    return rows


def write_basin_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["init_deg", "seed", "mode", "final_rot_deg",
                         "final_trans_deg", "converged"])
        for r in rows:
            writer.writerow([f"{r.init_deg:.6g}", r.seed, r.mode,
                             f"{r.final_rot_deg:.9g}", f"{r.final_trans_deg:.9g}",
                             str(r.converged).lower()])
