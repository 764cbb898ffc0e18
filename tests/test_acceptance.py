"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured margins.
"""

import json
import time

import numpy as np
import pytest

from sedslam.ba import FactorGraph, ba_cost, ba_solve
from sedslam.cli import main
from sedslam.files import write_match_file
from sedslam.geom import (
    Intrinsics,
    RelativePose,
    Se3Pose,
    Sim3Transform,
    rotation_angle,
    so3_exp,
)
from sedslam.metrics import ate_rmse, pose_auc, pose_error
from sedslam.sim3 import Keyframe, Trajectory, estimate_join, estimate_scale, merge_trajectories
from sedslam.synth import (
    NoiseModel,
    basin_experiment,
    build_join_candidate,
    make_ba_graph,
    make_trajectory_pair,
    make_two_view,
)
from sedslam.twoview import AnchorMatchSet, sed_jacobian, solve_two_view
from sedslam.twoview import _evaluate, _retract


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    return ok


def random_config(rng):
    k1 = Intrinsics(rng.uniform(100, 600), rng.uniform(100, 600),
                    rng.uniform(200, 300), rng.uniform(200, 300))
    k2 = Intrinsics(rng.uniform(100, 600), rng.uniform(100, 600),
                    rng.uniform(200, 300), rng.uniform(200, 300))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    t = rng.normal(size=3)
    pose = RelativePose(so3_exp(rng.uniform(0.0, 2.5) * axis), t / np.linalg.norm(t))
    n0, n1 = 2, 2
    mset = AnchorMatchSet(rng.uniform(0, 512, (n0, 2)), rng.uniform(0, 512, (n0, 2)),
                          rng.uniform(0.05, 1.0, n0),
                          rng.uniform(0, 512, (n1, 2)), rng.uniform(0, 512, (n1, 2)),
                          rng.uniform(0.05, 1.0, n1),
                          k1, k2, (512.0, 512.0), (512.0, 512.0))
    return pose, mset


def test_criterion_1_jacobian_fidelity():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    checked = 0
    while checked < 1000:
        pose, mset = random_config(rng)
        res, jac = sed_jacobian(pose, mset)
        if res.shape[0] < 4:
            continue  # a degenerate line was skipped; draw a fresh config
        num = np.zeros_like(jac)
        for p in range(6):
            xi = np.zeros(6)
            xi[p] = h
            rp = _evaluate(_retract(pose, xi), mset)[1].residuals
            xi[p] = -h
            rm = _evaluate(_retract(pose, xi), mset)[1].residuals
            num[:, :, p] = (rp - rm) / (2.0 * h)
        rel = np.linalg.norm(jac - num) / max(np.linalg.norm(num), np.linalg.norm(jac), 1e-9)
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    assert report(1, "jacobian fidelity", ok,
                  f"worst rel err {worst:.2e} over {checked} configs, {elapsed:.1f}s")


def test_criterion_2_two_view_exactness():
    t0 = time.perf_counter()
    hits = 0
    worst = (0.0, 0.0)
    for seed in range(100):
        mset, gt = make_two_view(seed)
        rep = solve_two_view(mset)
        err = pose_error(rep.pose, gt)
        worst = max(worst, (err.rot_deg, err.trans_deg))
        if err.rot_deg < 0.01 and err.trans_deg < 0.05:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 99 and elapsed < 5.0
    assert report(2, "two-view exactness", ok,
                  f"{hits}/100 scenes, worst {worst[0]:.2e}/{worst[1]:.2e} deg, {elapsed:.1f}s")


def test_criterion_3_convergence_basin():
    t0 = time.perf_counter()
    rows = basin_experiment(100, [5.0, 60.0], "sed_only")
    success = {5.0: 0, 60.0: 0}
    for row in rows:
        if max(row.final_rot_deg, row.final_trans_deg) < 0.5:
            success[row.init_deg] += 1
    pre = basin_experiment(100, [45.0], "preconditioned")
    pre_ok = sum(1 for row in pre if max(row.final_rot_deg, row.final_trans_deg) < 0.1)
    elapsed = time.perf_counter() - t0
    ok = success[5.0] > 2 * success[60.0] and pre_ok >= 99 and elapsed < 60.0
    assert report(3, "Fig.-5 basin reproduction", ok,
                  f"sed_only {success[5.0]}/100 at 5deg vs {success[60.0]}/100 at 60deg, "
                  f"preconditioned {pre_ok}/100, {elapsed:.1f}s")


def test_criterion_4_outlier_robustness():
    noise = NoiseModel(gaussian_sigma=0.5, outlier_fraction=0.3, outlier_weight=0.01)
    errs = []
    for seed in range(100):
        mset, gt = make_two_view(seed, noise=noise)
        rep = solve_two_view(mset)
        errs.append(pose_error(rep.pose, gt).trans_deg)
    med = float(np.median(errs))
    ok = med < 2.0
    assert report(4, "outlier robustness", ok, f"median trans err {med:.3f} deg over 100 seeds")


def test_criterion_5_bundle_adjustment():
    graph, gt_poses, _ = make_ba_graph(2, n_frames=4, n_anchors=50, pose_perturb_deg=2.0,
                                       pose_perturb_rel=0.02, depth_perturb_rel=0.05)
    rep = ba_solve(graph)
    rot_errs = [np.degrees(rotation_angle(p.rotation.T @ g.rotation))
                for p, g in zip(graph.poses, gt_poses)]
    trace = np.array(rep.cost_trace)
    monotone = bool(np.all(np.diff(trace) < 0.0))

    probe, _, _ = make_ba_graph(3, pose_perturb_deg=2.0, depth_perturb_rel=0.05)
    base = ba_cost(probe)
    w = Se3Pose(so3_exp([0.3, -0.2, 0.5]), np.array([2.0, -1.0, 1.5]))
    moved = FactorGraph([w.compose(p) for p in probe.poses], probe.intrinsics,
                        probe.anchors, probe.depths, probe.edges)
    rigid_dev = abs(ba_cost(moved) - base)
    scaled = FactorGraph([Se3Pose(p.rotation, 3.0 * p.translation) for p in probe.poses],
                         probe.intrinsics, probe.anchors,
                         [3.0 * d for d in probe.depths], probe.edges)
    scale_dev = abs(ba_cost(scaled) - base)

    ok = (rep.final_rmse < 1e-6 and max(rot_errs) < 0.01 and monotone
          and rigid_dev < 1e-9 * (1.0 + base) and scale_dev < 1e-9 * (1.0 + base))
    assert report(5, "bundle adjustment", ok,
                  f"rmse {rep.initial_rmse:.2f} -> {rep.final_rmse:.2e} px, "
                  f"max rot err {max(rot_errs):.2e} deg, monotone {monotone}, "
                  f"gauge devs {rigid_dev:.1e}/{scale_dev:.1e}")


def test_criterion_6_sim3_join_round_trip():
    in_band = rot_ok = ate_ok = 0
    n = 50
    for seed in range(n):
        rng = np.random.default_rng(1000 + seed)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        gt = Sim3Transform(rng.uniform(0.5, 2.0), so3_exp(rng.uniform(0.1, 0.5) * axis),
                           rng.uniform(-2.0, 2.0, 3))
        pair = make_trajectory_pair(seed, sim3=gt)
        cand = build_join_candidate(pair, *pair.pairs[0])
        est = estimate_join(pair.traj_a, pair.traj_b, cand)
        merged = merge_trajectories(pair.traj_a, pair.traj_b, est.world_sim3)

        ratio = est.world_sim3.scale / gt.scale
        in_band += 1.0 / 1.05 < ratio < 1.05
        rot_ok += np.degrees(rotation_angle(est.world_sim3.rotation.T @ gt.rotation)) < 1.0

        gt_kfs = list(pair.traj_a.keyframes) + [
            Keyframe(k.timestamp, p, k.depths * gt.scale)
            for k, p in zip(pair.traj_b.keyframes, pair.poses_b_metric)]
        reference = Trajectory(tuple(sorted(gt_kfs, key=lambda k: k.timestamp)))
        pos = reference.translations
        diam = max(np.linalg.norm(pos[i] - pos[j])
                   for i in range(len(pos)) for j in range(len(pos)))
        ate_ok += ate_rmse(merged, reference, mode="sim3", max_dt=1e-6) < 0.01 * diam
    ok = in_band == n and rot_ok == n and ate_ok == n
    assert report(6, "Sim(3) join round-trip", ok,
                  f"scale in band {in_band}/{n}, rot<1deg {rot_ok}/{n}, ATE<1% {ate_ok}/{n}")


def test_criterion_7_scale_vote_matches_brute_force():
    rng = np.random.default_rng(7)
    agreements = 0
    n_instances = 1000
    for _ in range(n_instances):
        n = int(rng.integers(2, 48))
        dp = rng.uniform(0.3, 6.0, size=n)
        d = rng.uniform(0.2, 8.0, size=n) * dp
        est = estimate_scale(d, dp)
        best_count, best_s, best_mask = -1, None, None
        for k in range(n):
            s = d[k] / dp[k]
            mask = []
            for j in range(n):
                r = d[j] / (s * dp[j])
                mask.append(1.0 / 1.05 < r < 1.05)
            count = sum(mask)
            if count > best_count or (count == best_count and s < best_s):
                best_count, best_s, best_mask = count, s, mask
        est_mask = [bool(1.0 / 1.05 < d[j] / (est.scale * dp[j]) < 1.05) for j in range(n)]
        if est.scale == best_s and est.inlier_count == best_count and est_mask == best_mask:
            agreements += 1
    ok = agreements == n_instances
    assert report(7, "scale vote equals brute force", ok,
                  f"{agreements}/{n_instances} instances identical")


def test_criterion_8_metrics_sanity():
    auc_ok = (pose_auc([0.0], 5.0) == pytest.approx(100.0)
              and pose_auc([2.5], 5.0) == pytest.approx(50.0)
              and pose_auc([5.0], 5.0) == pytest.approx(0.0)
              and pose_auc([17.0], 5.0) == pytest.approx(0.0))

    rng = np.random.default_rng(8)
    kfs = []
    for i in range(60):
        kfs.append(Keyframe(0.1 * i, Se3Pose(so3_exp(0.01 * rng.normal(size=3)),
                                             np.array([0.2 * i, np.sin(0.2 * i), 0.1])),
                            np.zeros(0)))
    traj = Trajectory(tuple(kfs))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    s = Sim3Transform(1.8, so3_exp(0.9 * axis), rng.normal(size=3))
    moved = Trajectory(tuple(Keyframe(k.timestamp, s.transform_pose(k.pose), k.depths)
                             for k in traj.keyframes))
    gauge_rmse = ate_rmse(moved, traj, mode="sim3")

    sigma = 0.02
    kfs_gt, kfs_noisy = [], []
    for i in range(1000):
        pos = np.array([0.01 * i, np.cos(0.01 * i), 0.5])
        kfs_gt.append(Keyframe(0.05 * i, Se3Pose(np.eye(3), pos), np.zeros(0)))
        kfs_noisy.append(Keyframe(0.05 * i, Se3Pose(np.eye(3), pos + rng.normal(0, sigma, 3)),
                                  np.zeros(0)))
    noise_rmse = ate_rmse(Trajectory(tuple(kfs_noisy)), Trajectory(tuple(kfs_gt)), mode="sim3")
    expected = sigma * np.sqrt(3.0)

    ok = auc_ok and gauge_rmse < 1e-9 and abs(noise_rmse - expected) < 0.1 * expected
    assert report(8, "metrics sanity", ok,
                  f"auc hand cases {auc_ok}, gauged-copy ate {gauge_rmse:.1e}, "
                  f"noise ate {noise_rmse:.4f} vs {expected:.4f}")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, f"{argv} exited {code}"
        return out

    results = {}
    for tag in ("x", "y"):
        d = tmp_path / tag
        d.mkdir()
        outputs = {}

        run(["synth", "two-view", "--seed", "7", "--sigma", "0.5", "--outliers", "0.2",
             "--out", str(d / "m.txt"), "--gt-json", str(d / "gt.json")])
        outputs["synth.m"] = (d / "m.txt").read_bytes()
        outputs["synth.gt"] = (d / "gt.json").read_bytes()

        outputs["two_view.stdout"] = run(["two-view", str(d / "m.txt"),
                                          "--json", str(d / "rep.json")])
        outputs["two_view.json"] = (d / "rep.json").read_bytes()

        run(["basin", "--mode", "sed_only", "--grid", "0:40:20", "--seeds", "3",
             "--out", str(d / "basin.csv")])
        outputs["basin.csv"] = (d / "basin.csv").read_bytes()

        run(["synth", "traj-pair", "--seed", "5", "--scale", "1.5", "--out-dir", str(d / "tp")])
        gt_payload = json.loads((d / "tp" / "gt.json").read_text())
        for name in ("trajA.txt", "trajA.depths", "trajB.txt", "trajB.depths",
                     "matches.txt", "gt.json"):
            outputs["tp." + name] = (d / "tp" / name).read_bytes()

        run(["join", str(d / "tp" / "trajA.txt"), str(d / "tp" / "trajB.txt"),
             str(d / "tp" / "matches.txt"),
             "--depths-a", str(d / "tp" / "trajA.depths"),
             "--depths-b", str(d / "tp" / "trajB.depths"),
             "--frame-a", str(gt_payload["frame_a"]), "--frame-b", str(gt_payload["frame_b"]),
             "--out", str(d / "merged.txt"), "--sim3-out", str(d / "sim3.json")])
        outputs["join.merged"] = (d / "merged.txt").read_bytes()
        outputs["join.sim3"] = (d / "sim3.json").read_bytes()

        outputs["ate.stdout"] = run(["ate", str(d / "tp" / "trajA.txt"),
                                     str(d / "tp" / "trajA.txt"), "--mode", "sim3"])
        results[tag] = outputs

    mismatched = [k for k in results["x"] if results["x"][k] != results["y"][k]]
    ok = not mismatched
    assert report(9, "CLI determinism", ok,
                  f"{len(results['x'])} artifacts compared, mismatches: {mismatched}")
