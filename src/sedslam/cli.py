"""Batch command-line frontend.

Thin adapters over the library: solve two-view match files, run convergence
basin sweeps, join and evaluate trajectories, generate synthetic fixtures.
Exit codes: 0 success; on an error, its type's ``exit_code`` (1 input/IO
error, 2 solver failure, 3 insufficient inliers), and 1 for any other
``OSError`` or ``ValueError``. All randomness derives from the --seed flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import files, synth
from .errors import SedSlamError, TrajectoryFileError
from .geom import Sim3Transform, quat_from_rotation, so3_exp
from .metrics import ate_rmse
from .sim3 import JoinCandidate, Trajectory, check_disjoint, estimate_join, merge_trajectories
from .twoview import solve_two_view


def cmd_two_view(args) -> int:
    mset = files.read_match_file(args.matches)
    report = solve_two_view(mset, args.max_iters)
    payload = {
        "rotation_quat_xyzw": [float(v) for v in quat_from_rotation(report.pose.rotation)],
        "translation_dir": [float(v) for v in report.pose.translation_dir],
        "sed_cost_initial": report.initial_cost,
        "sed_cost_final": report.final_cost,
        "candidate_index": report.candidate_index,
        "converged": report.converged,
        "iterations": report.iterations,
    }
    for key, value in payload.items():  # json spells the flag and the ints
        text = (" ".join(f"{v:.9f}" for v in value) if isinstance(value, list)
                else f"{value:.9e}" if isinstance(value, float) else json.dumps(value))
        print(f"{key}: {text}")
    if args.json:
        files.write_json(args.json, payload)
    return 0


# The most points a basin grid may have; far more would exhaust memory in the list.
_MAX_GRID_POINTS = 100_000


def _parse_grid(text: str):
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"grid must be start:stop:step, got {text!r}") from exc
    steps = (stop - start) / step + 0.5  # from start to stop, rounded half up
    # Also rejects non-finite bounds and grids above _MAX_GRID_POINTS points.
    if not (0.0 < step < math.inf and stop >= start and steps < _MAX_GRID_POINTS):
        raise ValueError(f"invalid grid {text!r}")
    return [start + i * step for i in range(int(steps) + 1)]


def cmd_basin(args) -> int:
    grid = _parse_grid(args.grid)
    rows = synth.basin_experiment(args.seeds, grid, args.mode, base_seed=args.seed,
                                  max_iters=args.max_iters)
    synth.write_basin_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_join(args) -> int:
    traj_a = files.read_trajectory(args.traj_a, args.depths_a)
    traj_b = files.read_trajectory(args.traj_b, args.depths_b)
    mset = files.read_match_file(args.matches)
    if not (0 <= args.frame_a < len(traj_a) and 0 <= args.frame_b < len(traj_b)):
        raise TrajectoryFileError("join frame index out of range")
    n0, n1 = len(mset.anchors0), len(mset.anchors1)
    for name, traj, frame, n in (("A", traj_a, args.frame_a, n0), ("B", traj_b, args.frame_b, n1)):
        n_depths = int(traj.depth_offsets[frame + 1] - traj.depth_offsets[frame])
        if n_depths != n:
            raise TrajectoryFileError(
                f"frame {frame} of trajectory {name} has {n_depths} depths for {n} matches")
    check_disjoint(traj_a, traj_b)
    candidate = JoinCandidate(args.frame_a, args.frame_b, mset,
                              np.arange(n0), np.arange(n1))
    est = estimate_join(traj_a, traj_b, candidate, ratio_bound=args.ratio_bound,
                        inlier_threshold=args.inlier_thresh, max_iters=args.max_iters)
    merged = merge_trajectories(traj_a, traj_b, est.world_sim3)
    files.write_trajectory(args.out, merged)
    payload = files.sim3_to_dict(est.world_sim3)
    payload.update({
        "scale_a": est.scale_a.scale,
        "scale_b": est.scale_b.scale,
        "inlier_fraction_a": est.scale_a.inlier_fraction,
        "inlier_fraction_b": est.scale_b.inlier_fraction,
        "sed_cost_initial": est.report.initial_cost,
        "sed_cost_final": est.report.final_cost,
        "converged": est.report.converged,
    })
    files.write_json(args.sim3_out, payload)
    s = est.world_sim3
    print(f"scale: {s.scale:.9f}")
    print(f"inliers: {est.scale_a.inlier_fraction:.3f} {est.scale_b.inlier_fraction:.3f}")
    print(f"wrote {args.out} and {args.sim3_out}")
    return 0


def cmd_ate(args) -> int:
    est = files.read_trajectory(args.est)
    gt = files.read_trajectory(args.gt)
    rmse = ate_rmse(est, gt, mode=args.mode)
    print(f"{rmse:.6f}")
    return 0


def cmd_synth_two_view(args) -> int:
    noise = synth.NoiseModel(gaussian_sigma=args.sigma, outlier_fraction=args.outliers,
                             outlier_weight=args.outlier_weight)
    mset, gt = synth.make_two_view(args.seed, n_points=args.n_points,
                                   baseline=args.baseline, noise=noise)
    files.write_match_file(args.out, mset)
    if args.gt_json:
        q = quat_from_rotation(gt.rotation)
        files.write_json(args.gt_json, {
            "seed": args.seed,
            "n_points": args.n_points,
            "baseline": args.baseline,
            "sigma": args.sigma,
            "outlier_fraction": args.outliers,
            "outlier_weight": args.outlier_weight,
            "rotation_quat_xyzw": [float(v) for v in q],
            "translation_dir": [float(v) for v in gt.translation_dir],
        })
    print(f"wrote {args.out}")
    return 0


def _random_sim3(rng, scale: float) -> Sim3Transform:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rot = so3_exp(rng.uniform(0.1, 0.5) * axis)
    return Sim3Transform(scale, rot, rng.uniform(-2.0, 2.0, size=3))


def cmd_synth_traj_pair(args) -> int:
    import os

    rng = np.random.default_rng(args.seed)
    gt_sim3 = _random_sim3(rng, args.scale)
    noise = synth.NoiseModel(gaussian_sigma=args.sigma)
    pair = synth.make_trajectory_pair(args.seed, n_frames=args.n_frames,
                                      overlap=args.overlap, sim3=gt_sim3)
    if not pair.pairs:
        raise SedSlamError("generated trajectory pair has no covisible frames")
    frame_a, frame_b = pair.pairs[0]
    candidate = synth.build_join_candidate(pair, frame_a, frame_b, noise, seed=args.seed)

    # The two join keyframes keep only the covisible anchor subset so the
    # sidecar rows pair positionally with the match-file rows.
    def restrict(traj, frame, ids):
        kfs = list(traj.keyframes)
        kfs[frame] = replace(kfs[frame], depths=kfs[frame].depths[ids])
        return Trajectory(tuple(kfs))

    traj_a = restrict(pair.traj_a, frame_a, candidate.anchor_ids0)
    traj_b = restrict(pair.traj_b, frame_b, candidate.anchor_ids1)
    payload = {
        "seed": args.seed,
        "n_frames": args.n_frames,
        "overlap": args.overlap,
        "scale": args.scale,
        "sigma": args.sigma,
        "frame_a": int(frame_a),
        "frame_b": int(frame_b),
        "sim3_world": files.sim3_to_dict(gt_sim3),
    }
    fixtures = (("trajA.txt", files.write_trajectory, traj_a),
                ("trajA.depths", files.write_depth_sidecar, traj_a),
                ("trajB.txt", files.write_trajectory, traj_b),
                ("trajB.depths", files.write_depth_sidecar, traj_b),
                ("matches.txt", files.write_match_file, candidate.matches),
                ("gt.json", files.write_json, payload))
    # Writers refuse before opening, so a null-device pass checks every fixture first.
    for _, write, value in fixtures:
        write(os.devnull, value)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, write, value in fixtures:
        write(os.path.join(args.out_dir, name), value)
    print(f"wrote fixtures to {args.out_dir} (join pair {frame_a}, {frame_b})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedslam",
        description="Two-view pose, bundle adjustment and trajectory joining tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("two-view", help="solve a two-view match file")
    p.add_argument("matches")
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.add_argument("--max-iters", type=int, default=50)
    p.set_defaults(func=cmd_two_view)

    p = sub.add_parser("basin", help="convergence-basin sweep")
    p.add_argument("--mode", choices=("sed_only", "preconditioned"), required=True)
    p.add_argument("--grid", default="0:90:10", help="init error degrees as start:stop:step")
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_basin)

    p = sub.add_parser("join", help="align and merge two trajectories")
    p.add_argument("traj_a")
    p.add_argument("traj_b")
    p.add_argument("matches")
    p.add_argument("--depths-a", required=True)
    p.add_argument("--depths-b", required=True)
    p.add_argument("--frame-a", type=int, default=0)
    p.add_argument("--frame-b", type=int, default=0)
    p.add_argument("--lambda", dest="ratio_bound", type=float, default=1.05,
                   help="depth-ratio inlier band")
    p.add_argument("--inlier-thresh", type=float, default=0.3)
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--out", required=True, help="merged trajectory path")
    p.add_argument("--sim3-out", required=True, help="estimated transform JSON path")
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("ate", help="ATE RMSE after global alignment")
    p.add_argument("est")
    p.add_argument("gt")
    p.add_argument("--mode", choices=("sim3", "se3"), default="sim3")
    p.set_defaults(func=cmd_ate)

    p = sub.add_parser("synth", help="generate synthetic fixtures")
    ssub = p.add_subparsers(dest="synth_command", required=True)

    q = ssub.add_parser("two-view", help="write a synthetic match file")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--n-points", type=int, default=96)
    q.add_argument("--baseline", type=float, default=1.0)
    q.add_argument("--sigma", type=float, default=0.0)
    q.add_argument("--outliers", type=float, default=0.0)
    q.add_argument("--outlier-weight", type=float, default=1e-6)
    q.add_argument("--out", required=True)
    q.add_argument("--gt-json", default=None)
    q.set_defaults(func=cmd_synth_two_view)

    q = ssub.add_parser("traj-pair", help="write a synthetic trajectory pair")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--n-frames", type=int, default=8)
    q.add_argument("--overlap", type=float, default=0.5)
    q.add_argument("--scale", type=float, default=2.0)
    q.add_argument("--sigma", type=float, default=0.0)
    q.add_argument("--out-dir", required=True)
    q.set_defaults(func=cmd_synth_traj_pair)

    return parser


# main's parser, built on first use.
_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        # By name, so that a command replaced on this module (a tracer's wrapper) runs.
        return globals()[args.func.__name__](args)
    except (SedSlamError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
