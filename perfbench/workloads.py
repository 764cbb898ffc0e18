"""The four benchmark workloads: input generators, the timed call, and the
ground-truth check of each operation's output.

Every workload exposes ``make(op_seed)`` (untimed: builds one operation's
inputs from its own seed), ``run(case)`` (the timed call into sedslam) and
``errors(case, out)`` (accuracy measures against ground truth). An operation
passes its gate when every measure is at most the workload's tolerance.

Calls into sedslam go through module attributes (``twoview.x``, not a
name imported here), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

from sedslam import ba, cli, files, geom, metrics, sim3, synth, twoview


def _pose_err_deg(est, gt) -> float:
    """Max of the rotation and translation-direction errors, degrees."""
    err = metrics.pose_error(est, gt)
    return max(err.rot_deg, err.trans_deg)


@dataclass(frozen=True)
class Size:
    """Problem sizes; ``FULL`` is the benchmark, ``SMOKE`` the smoke test."""

    ba_windows: int
    ba_frames: int
    ba_anchors_per_frame: int
    join_points: int
    session_keyframes: int
    min_ops: int


FULL = Size(ba_windows=4, ba_frames=6, ba_anchors_per_frame=40, join_points=4000,
            session_keyframes=150, min_ops=100)
SMOKE = Size(ba_windows=1, ba_frames=4, ba_anchors_per_frame=10, join_points=1000,
             session_keyframes=12, min_ops=1)

# The criterion-4 noise model: sigma 0.5 px, 30% outliers at weight 0.01.
TWOVIEW_NOISE = synth.NoiseModel(gaussian_sigma=0.5, outlier_fraction=0.3, outlier_weight=0.01)
JOIN_NOISE = synth.NoiseModel(gaussian_sigma=0.5, outlier_fraction=0.1, outlier_weight=0.01)
SESSION_NOISE = synth.NoiseModel(gaussian_sigma=0.5)
# Position noise of the stored session poses, metres in trajectory A's frame.
SESSION_POSE_SIGMA = 0.02


class TwoView96:
    name = "twoview-96"
    why = ("96-point solves whose cost is numpy dispatch: 8-point, chirality, LM and clamp; "
           "no BA, scale vote, association or parsing")
    tolerances = {"pose_err_deg": 20.0}
    reported = {"pose_err_deg": ("pose_err_deg_p50", "deg")}

    def __init__(self, size: Size):
        self.size = size

    def make(self, seed):
        return synth.make_two_view(seed, n_points=96, noise=TWOVIEW_NOISE)

    def run(self, case):
        return twoview.solve_two_view(case[0])

    def errors(self, case, out):
        return {"pose_err_deg": _pose_err_deg(out.pose, case[1])}


class BaWindow:
    name = "ba-window"
    why = ("BA to convergence on sliding windows (edges |i-j| <= 2): the per-edge Python "
           "loop and dense h_pd block, no two-view or file code")
    tolerances = {"reproj_rmse_px": 0.6, "rot_err_deg": 1.5}
    reported = {"reproj_rmse_px": ("reproj_rmse_px_p50", "px")}

    def __init__(self, size: Size):
        self.size = size

    def make(self, seed):
        """``ba_windows`` independent window graphs. One solve takes 6 to 24
        iterations; summing several per operation narrows the spread of
        operation times, so that op_ms_p90 over one run is steady."""
        n = self.size.ba_frames
        windows = []
        for k in range(self.size.ba_windows):
            graph, gt_poses, _ = synth.make_ba_graph(
                seed * self.size.ba_windows + k, n_frames=n,
                n_anchors=self.size.ba_anchors_per_frame * n, match_sigma=0.5,
                pose_perturb_deg=1.0, pose_perturb_rel=0.01, depth_perturb_rel=0.05)
            graph.edges = [e for e in graph.edges if abs(e.i - e.j) <= 2]
            windows.append((graph, gt_poses))
        return windows

    def run(self, case):
        return [ba.ba_solve(graph) for graph, _ in case]

    def errors(self, case, out):
        rot = max(np.degrees(geom.rotation_angle(p.rotation.T @ g.rotation))
                  for (graph, gt_poses) in case for p, g in zip(graph.poses, gt_poses))
        return {"reproj_rmse_px": max(r.final_rmse for r in out), "rot_err_deg": float(rot)}


def _join_geometry(seed, n_points, noise):
    """A two-view match set plus exact unit-baseline depths on both sides.

    make_two_view draws the scene before any noise, so the noise-free call
    with the same seed yields the exact matches of the noisy set.
    """
    mset, gt = synth.make_two_view(seed, n_points=n_points, noise=noise)
    clean, _ = synth.make_two_view(seed, n_points=n_points)
    d0, _, _ = geom.triangulate_batch(gt, clean.anchors0, clean.matches0,
                                      clean.intrinsics0, clean.intrinsics1)
    d1, _, _ = geom.triangulate_batch(gt.inverse(), clean.anchors1, clean.matches1,
                                      clean.intrinsics1, clean.intrinsics0)
    return mset, gt, d0, d1


def _random_pose(rng, spread=1.0):
    return geom.Se3Pose(geom.so3_exp(0.3 * rng.normal(size=3)), spread * rng.normal(size=3))


def _world_sim3(gt, scale_a, scale_b, pose_a, pose_b):
    """Ground-truth Sim(3) mapping trajectory b's world into trajectory a's."""
    rot_ba = gt.rotation.T
    cam = geom.Sim3Transform(scale_a / scale_b, rot_ba, -scale_a * (rot_ba @ gt.translation_dir))
    return (geom.Sim3Transform.from_se3(pose_a).compose(cam)
            .compose(geom.Sim3Transform.from_se3(pose_b).inverse()))


class DenseJoin:
    name = "dense-join"
    why = ("estimate_join on dense candidates: two-view compute-bound not dispatch-bound, "
           "plus the O(n^2) scale vote and its memory")
    tolerances = {"pose_err_deg": 0.5, "scale_err_rel": 0.15}
    reported = {"pose_err_deg": ("pose_err_deg_p50", "deg"),
                "scale_err_rel": ("scale_err_rel_p50", "1")}

    def __init__(self, size: Size):
        self.size = size

    def make(self, seed):
        rng = np.random.default_rng((seed, 1))
        mset, gt, d0, d1 = _join_geometry(seed, self.size.join_points, JOIN_NOISE)
        scale_a, scale_b = rng.uniform(0.5, 2.0, size=2)
        pose_a, pose_b = _random_pose(rng), _random_pose(rng)
        traj_a = sim3.Trajectory((sim3.Keyframe(1.0, pose_a, scale_a * d0),))
        traj_b = sim3.Trajectory((sim3.Keyframe(2.0, pose_b, scale_b * d1),))
        cand = sim3.JoinCandidate(0, 0, mset, np.arange(len(d0)), np.arange(len(d1)))
        return traj_a, traj_b, cand, gt, _world_sim3(gt, scale_a, scale_b, pose_a, pose_b)

    def run(self, case):
        return sim3.estimate_join(case[0], case[1], case[2])

    def errors(self, case, out):
        gt, world = case[3], case[4]
        return {"pose_err_deg": _pose_err_deg(out.report.pose, gt),
                "scale_err_rel": abs(out.world_sim3.scale / world.scale - 1.0)}


def _session(rng, n, t0, join_index, join_pose, join_depths, n_depths):
    """Smooth random-walk keyframes whose join keyframe has the given pose
    and depths; every other keyframe carries ``n_depths`` random depths."""
    steps = rng.normal(0.0, 0.05, size=(n, 3)) + np.array([0.05, 0.0, 0.0])
    offsets = np.cumsum(steps, axis=0)
    offsets -= offsets[join_index]
    turns = np.cumsum(rng.normal(0.0, 0.02, size=(n, 3)), axis=0)
    turns -= turns[join_index]
    kfs = []
    for f in range(n):
        pose = geom.Se3Pose(geom.so3_exp(turns[f]) @ join_pose.rotation,
                            join_pose.translation + offsets[f])
        depths = join_depths if f == join_index else rng.uniform(1.0, 4.0, n_depths)
        kfs.append(sim3.Keyframe(t0 + 0.1 * f, pose, depths))
    return kfs


def _noisy(kfs, rng, sigma):
    return sim3.Trajectory(tuple(
        sim3.Keyframe(k.timestamp, geom.Se3Pose(k.pose.rotation, k.pose.translation
                                                + rng.normal(0.0, sigma, 3)), k.depths)
        for k in kfs))


class CliSession:
    name = "cli-session"
    why = ("in-process CLI join then ate on TUM sessions with depth sidecars: the only "
           "workload through files, cli, merge and association")
    tolerances = {"ate_m": 0.2, "scale_err_rel": 0.15}
    reported = {"ate_m": ("ate_m_p50", "m")}

    def __init__(self, size: Size, workdir):
        self.size = size
        self.workdir = workdir

    def make(self, seed):
        rng = np.random.default_rng((seed, 2))
        mset, gt, d0, d1 = _join_geometry(seed, 192, SESSION_NOISE)
        scale_a, scale_b = rng.uniform(0.5, 2.0, size=2)
        n = self.size.session_keyframes
        frame_a, frame_b = (int(v) for v in rng.integers(0, n, size=2))
        pose_a, pose_b = _random_pose(rng), _random_pose(rng)
        world = _world_sim3(gt, scale_a, scale_b, pose_a, pose_b)
        kfs_a = _session(rng, n, 100.0, frame_a, pose_a, scale_a * d0, len(d0))
        kfs_b = _session(rng, n, 200.0, frame_b, pose_b, scale_b * d1, len(d1))
        truth = sim3.Trajectory(tuple(kfs_a) + tuple(
            sim3.Keyframe(k.timestamp, world.transform_pose(k.pose), k.depths) for k in kfs_b))
        # Noise is drawn in trajectory A's metres, so trajectory B gets it
        # divided by the scale that maps it into A.
        traj_a = _noisy(kfs_a, rng, SESSION_POSE_SIGMA)
        traj_b = _noisy(kfs_b, rng, SESSION_POSE_SIGMA / world.scale)

        d = os.path.join(self.workdir, f"op{seed}")
        os.makedirs(d, exist_ok=True)
        path = {k: os.path.join(d, k) for k in ("a.txt", "a.depths", "b.txt", "b.depths",
                                                 "m.txt", "gt.txt", "merged.txt", "sim3.json")}
        files.write_trajectory(path["a.txt"], traj_a)
        files.write_depth_sidecar(path["a.depths"], traj_a)
        files.write_trajectory(path["b.txt"], traj_b)
        files.write_depth_sidecar(path["b.depths"], traj_b)
        files.write_match_file(path["m.txt"], mset)
        files.write_trajectory(path["gt.txt"], truth)
        join = ["join", path["a.txt"], path["b.txt"], path["m.txt"],
                "--depths-a", path["a.depths"], "--depths-b", path["b.depths"],
                "--frame-a", str(frame_a), "--frame-b", str(frame_b),
                "--out", path["merged.txt"], "--sim3-out", path["sim3.json"]]
        ate = ["ate", path["merged.txt"], path["gt.txt"], "--mode", "sim3"]
        return join, ate, world, d

    def run(self, case):
        join, ate, _, _ = case
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = (cli.main(join), cli.main(ate))
        return codes, out.getvalue(), err.getvalue()

    def errors(self, case, out):
        codes, stdout, stderr = out
        if codes != (0, 0):
            raise RuntimeError(f"cli exit codes {codes}: {stderr.strip()}")
        with open(os.path.join(case[3], "sim3.json")) as fh:
            scale = json.load(fh)["scale"]
        return {"ate_m": float(stdout.strip().splitlines()[-1]),
                "scale_err_rel": abs(scale / case[2].scale - 1.0)}

    def discard(self, case):
        shutil.rmtree(case[3], ignore_errors=True)


NAMES = ("twoview-96", "ba-window", "dense-join", "cli-session")


def build(name: str, size: Size, workdir: str):
    if name == "twoview-96":
        return TwoView96(size)
    if name == "ba-window":
        return BaWindow(size)
    if name == "dense-join":
        return DenseJoin(size)
    if name == "cli-session":
        return CliSession(size, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
