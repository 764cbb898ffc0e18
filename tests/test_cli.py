import json

import numpy as np
import pytest

from sedslam.cli import main
from sedslam.files import read_match_file, write_depth_sidecar, write_match_file, write_trajectory
from sedslam.geom import RelativePose, Se3Pose, Sim3Transform, rotation_from_quat, so3_exp
from sedslam.metrics import pose_error
from sedslam.sim3 import Keyframe, Trajectory
from sedslam.synth import build_join_candidate, make_trajectory_pair, make_two_view


def parse_report(out):
    vals = {}
    for line in out.splitlines():
        if ":" in line:
            key, rest = line.split(":", 1)
            vals[key.strip()] = rest.strip()
    return vals


def reported_pose(vals):
    q = np.array([float(v) for v in vals["rotation_quat_xyzw"].split()])
    t = np.array([float(v) for v in vals["translation_dir"].split()])
    return RelativePose(rotation_from_quat(q), t / np.linalg.norm(t))


def write_join_fixture(tmp_path, seed=3, sim3=None, shuffle_matches=False):
    pair = make_trajectory_pair(seed, sim3=sim3)
    frame_a, frame_b = pair.pairs[0]
    cand = build_join_candidate(pair, frame_a, frame_b)
    mset = cand.matches
    if shuffle_matches:
        rng = np.random.default_rng(0)
        mset = mset.with_matches(mset.matches0[rng.permutation(len(mset.matches0))],
                                 mset.matches1[rng.permutation(len(mset.matches1))])

    def restrict(traj, frame, ids):
        kfs = list(traj.keyframes)
        kf = kfs[frame]
        kfs[frame] = Keyframe(kf.timestamp, kf.pose, kf.depths[ids])
        return Trajectory(tuple(kfs))

    traj_a = restrict(pair.traj_a, frame_a, cand.anchor_ids0)
    traj_b = restrict(pair.traj_b, frame_b, cand.anchor_ids1)
    paths = {}
    for name, obj in (("trajA", traj_a), ("trajB", traj_b)):
        paths[name] = str(tmp_path / f"{name}.txt")
        paths[name + "_d"] = str(tmp_path / f"{name}.depths")
        write_trajectory(paths[name], obj)
        write_depth_sidecar(paths[name + "_d"], obj)
    paths["matches"] = str(tmp_path / "matches.txt")
    write_match_file(paths["matches"], mset)
    return pair, (frame_a, frame_b), paths


class TestTwoViewCommand:
    def test_solves_fixture_close_to_ground_truth(self, tmp_path, capsys):
        mset, gt = make_two_view(7)
        path = tmp_path / "m.txt"
        write_match_file(path, mset)
        assert main(["two-view", str(path)]) == 0
        vals = parse_report(capsys.readouterr().out)
        err = pose_error(reported_pose(vals), gt)
        assert err.rot_deg < 0.01
        assert err.trans_deg < 0.05
        assert vals["converged"] == "true"

    def test_malformed_weight_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("intrinsics 0 256 256 256 256 512 512\n"
                        "intrinsics 1 256 256 256 256 512 512\n"
                        "0 10 10 20 20 1.5\n")
        assert main(["two-view", str(path)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_too_few_rows_exits_2(self, tmp_path, capsys):
        mset, _ = make_two_view(1, 16)
        lines = ["intrinsics 0 256 256 256 256 512 512",
                 "intrinsics 1 256 256 256 256 512 512"]
        for a, m in zip(mset.anchors0[:5], mset.matches0[:5]):
            lines.append(f"0 {a[0]:.4f} {a[1]:.4f} {m[0]:.4f} {m[1]:.4f} 1.0")
        path = tmp_path / "few.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["two-view", str(path)]) == 2
        assert "insufficient matches" in capsys.readouterr().err

    def test_negative_max_iters_exits_1(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_match_file(path, make_two_view(7)[0])
        assert main(["two-view", str(path), "--max-iters", "-3"]) == 1
        assert "max_iters" in capsys.readouterr().err

    def test_max_iters_caps_iterations(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_match_file(path, make_two_view(7)[0])
        assert main(["two-view", str(path), "--max-iters", "1"]) == 0
        assert parse_report(capsys.readouterr().out)["iterations"] == "1"

    def test_json_report(self, tmp_path, capsys):
        mset, _ = make_two_view(2, 32)
        path = tmp_path / "m.txt"
        out = tmp_path / "r.json"
        write_match_file(path, mset)
        assert main(["two-view", str(path), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert len(payload["rotation_quat_xyzw"]) == 4


class TestBasinCommand:
    def test_row_count_matches_grid_times_seeds(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["basin", "--mode", "sed_only", "--grid", "0:90:10",
                     "--seeds", "5", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 10 * 5

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["basin", "--mode", "sed_only", "--grid", "0:30:15",
                         "--seeds", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("grid", ["0:inf:10", "-inf:90:10", "0:90:inf", "nan:90:10",
                                      "0:nan:10", "0:90:nan", "-1e308:1e308:1"])
    def test_non_finite_grid_exits_1(self, tmp_path, capsys, grid):
        assert main(["basin", "--mode", "sed_only", f"--grid={grid}",
                     "--out", str(tmp_path / "b.csv")]) == 1
        assert capsys.readouterr().err == f"error: invalid grid {grid!r}\n"

    def test_preconditioned_rows_converge(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["basin", "--mode", "preconditioned", "--grid", "0:60:30",
                     "--seeds", "5", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        flags = [row.split(",")[5] for row in rows]
        assert all(f == "true" for f in flags)


class TestJoinCommand:
    def test_recovers_scale_two(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        gt_sim3 = Sim3Transform(2.0, so3_exp(0.3 * axis), rng.uniform(-1, 1, 3))
        pair, (fa, fb), paths = write_join_fixture(tmp_path, seed=4, sim3=gt_sim3)
        merged = str(tmp_path / "merged.txt")
        sim3_out = str(tmp_path / "s.json")
        code = main(["join", paths["trajA"], paths["trajB"], paths["matches"],
                     "--depths-a", paths["trajA_d"], "--depths-b", paths["trajB_d"],
                     "--frame-a", str(fa), "--frame-b", str(fb),
                     "--out", merged, "--sim3-out", sim3_out])
        assert code == 0
        payload = json.loads((tmp_path / "s.json").read_text())
        assert abs(payload["scale"] / 2.0 - 1.0) < 0.05

    def test_self_join_gives_identity(self, tmp_path, capsys):
        pair, (fa, fb), paths = write_join_fixture(
            tmp_path, seed=11, sim3=Sim3Transform.identity())
        merged = str(tmp_path / "merged.txt")
        sim3_out = str(tmp_path / "s.json")
        code = main(["join", paths["trajA"], paths["trajB"], paths["matches"],
                     "--depths-a", paths["trajA_d"], "--depths-b", paths["trajB_d"],
                     "--frame-a", str(fa), "--frame-b", str(fb),
                     "--out", merged, "--sim3-out", sim3_out])
        assert code == 0
        payload = json.loads((tmp_path / "s.json").read_text())
        assert abs(payload["scale"] - 1.0) < 1e-6
        q = payload["rotation_quat_xyzw"]
        assert abs(q[3] - 1.0) < 1e-6
        assert np.linalg.norm(payload["translation"]) < 1e-6

    def test_orphan_sidecar_rows_exit_1(self, tmp_path, capsys):
        pair, (fa, fb), paths = write_join_fixture(tmp_path, seed=4)
        with open(paths["trajB_d"], "a") as fh:
            fh.write("99999.5 0 1.0\n")
        code = main(["join", paths["trajA"], paths["trajB"], paths["matches"],
                     "--depths-a", paths["trajA_d"], "--depths-b", paths["trajB_d"],
                     "--frame-a", str(fa), "--frame-b", str(fb),
                     "--out", str(tmp_path / "m.txt"), "--sim3-out", str(tmp_path / "s.json")])
        assert code == 1
        assert "1 depth-sidecar rows match no pose" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_depth_count_mismatch_exits_1(self, tmp_path, capsys, side):
        pair, (fa, fb), paths = write_join_fixture(tmp_path, seed=4)
        frame, traj = (fa, pair.traj_a) if side == "A" else (fb, pair.traj_b)
        stamp = f"{traj.keyframes[frame].timestamp:.6f}"
        sidecar = tmp_path / f"traj{side}.depths"
        rows = sidecar.read_text().splitlines(keepends=True)
        mine = [i for i, row in enumerate(rows) if row.split()[0] == stamp]
        del rows[mine[-1]]  # the frame's highest anchor id
        sidecar.write_text("".join(rows))
        code = main(["join", paths["trajA"], paths["trajB"], paths["matches"],
                     "--depths-a", paths["trajA_d"], "--depths-b", paths["trajB_d"],
                     "--frame-a", str(fa), "--frame-b", str(fb),
                     "--out", str(tmp_path / "m.txt"), "--sim3-out", str(tmp_path / "s.json")])
        assert code == 1
        n = len(mine)
        assert (capsys.readouterr().err
                == f"error: frame {frame} of trajectory {side} has {n - 1} depths for {n} matches\n")

    @pytest.mark.parametrize("flag, value", [
        ("--lambda", "nan"), ("--lambda", "inf"), ("--lambda", "1.0"),
        ("--inlier-thresh", "nan"), ("--inlier-thresh", "inf"),
        ("--inlier-thresh", "-0.1"), ("--inlier-thresh", "1.5")])
    def test_invalid_vote_setting_exits_1(self, tmp_path, capsys, flag, value):
        pair, (fa, fb), paths = write_join_fixture(tmp_path, seed=4)
        code = main(["join", paths["trajA"], paths["trajB"], paths["matches"],
                     "--depths-a", paths["trajA_d"], "--depths-b", paths["trajB_d"],
                     "--frame-a", str(fa), "--frame-b", str(fb), flag, value,
                     "--out", str(tmp_path / "m.txt"), "--sim3-out", str(tmp_path / "s.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert ("ratio bound" if flag == "--lambda" else "inlier threshold") in err

    def test_non_covisible_pair_exits_3(self, tmp_path, capsys):
        pair, (fa, fb), paths = write_join_fixture(tmp_path, seed=6, shuffle_matches=True)
        code = main(["join", paths["trajA"], paths["trajB"], paths["matches"],
                     "--depths-a", paths["trajA_d"], "--depths-b", paths["trajB_d"],
                     "--frame-a", str(fa), "--frame-b", str(fb),
                     "--out", str(tmp_path / "m.txt"), "--sim3-out", str(tmp_path / "s.json")])
        assert code == 3


class TestAteCommand:
    def _write(self, tmp_path, name, traj):
        path = str(tmp_path / name)
        write_trajectory(path, traj)
        return path

    def _line_trajectory(self, n=1000, sigma=0.0, seed=0):
        rng = np.random.default_rng(seed)
        kfs = []
        for i in range(n):
            pos = np.array([0.01 * i, np.sin(0.01 * i), 0.2])
            if sigma > 0.0:
                pos = pos + rng.normal(0.0, sigma, 3)
            kfs.append(Keyframe(0.05 * i, Se3Pose(np.eye(3), pos), np.zeros(0)))
        return Trajectory(tuple(kfs))

    def test_identity_is_zero(self, tmp_path, capsys):
        traj = self._line_trajectory(n=50)
        p = self._write(tmp_path, "t.txt", traj)
        assert main(["ate", p, p, "--mode", "sim3"]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_sim3_copy_is_zero(self, tmp_path, capsys):
        traj = self._line_trajectory(n=50)
        rng = np.random.default_rng(1)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        s = Sim3Transform(1.6, so3_exp(0.7 * axis), rng.normal(size=3))
        moved = Trajectory(tuple(
            Keyframe(k.timestamp, s.transform_pose(k.pose), k.depths) for k in traj.keyframes))
        pa = self._write(tmp_path, "a.txt", moved)
        pb = self._write(tmp_path, "b.txt", traj)
        assert main(["ate", pa, pb, "--mode", "sim3"]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_gaussian_noise_matches_sigma_sqrt3(self, tmp_path, capsys):
        gt = self._line_trajectory(n=1000)
        noisy = self._line_trajectory(n=1000, sigma=0.01, seed=2)
        pa = self._write(tmp_path, "est.txt", noisy)
        pb = self._write(tmp_path, "gt.txt", gt)
        assert main(["ate", pa, pb, "--mode", "sim3"]) == 0
        rmse = float(capsys.readouterr().out.strip())
        assert abs(rmse - 0.01 * np.sqrt(3.0)) < 0.1 * 0.01 * np.sqrt(3.0)

    def test_association_failure_exits_1(self, tmp_path, capsys):
        a = self._line_trajectory(n=10)
        b = Trajectory(tuple(Keyframe(k.timestamp + 500.0, k.pose, k.depths)
                             for k in a.keyframes))
        pa = self._write(tmp_path, "a.txt", a)
        pb = self._write(tmp_path, "b.txt", b)
        assert main(["ate", pa, pb, "--mode", "sim3"]) == 1


class TestSynthCommand:
    def test_two_view_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for out in (a, b):
            assert main(["synth", "two-view", "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_closed_loop_with_two_view_command(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        g = tmp_path / "g.json"
        assert main(["synth", "two-view", "--seed", "7", "--out", str(m),
                     "--gt-json", str(g)]) == 0
        capsys.readouterr()
        assert main(["two-view", str(m)]) == 0
        vals = parse_report(capsys.readouterr().out)
        gt_payload = json.loads(g.read_text())
        gt = RelativePose(rotation_from_quat(gt_payload["rotation_quat_xyzw"]),
                          gt_payload["translation_dir"])
        err = pose_error(reported_pose(vals), gt)
        assert err.rot_deg < 0.01

    def test_outlier_fraction_recorded(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        g = tmp_path / "g.json"
        assert main(["synth", "two-view", "--seed", "3", "--outliers", "0.3",
                     "--outlier-weight", "0.01", "--out", str(m), "--gt-json", str(g)]) == 0
        payload = json.loads(g.read_text())
        assert payload["outlier_fraction"] == 0.3
        mset = read_match_file(m)
        n_down = int(np.sum(mset.weights0 == 0.01) + np.sum(mset.weights1 == 0.01))
        assert n_down == int(np.floor(0.3 * 96))

    def test_traj_pair_deterministic(self, tmp_path, capsys):
        d1 = tmp_path / "p1"
        d2 = tmp_path / "p2"
        for d in (d1, d2):
            assert main(["synth", "traj-pair", "--seed", "5", "--scale", "1.5",
                         "--out-dir", str(d)]) == 0
        for name in ("trajA.txt", "trajA.depths", "trajB.txt", "trajB.depths",
                     "matches.txt", "gt.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_traj_pair_fixture_joins(self, tmp_path, capsys):
        d = tmp_path / "p"
        assert main(["synth", "traj-pair", "--seed", "9", "--scale", "2.0",
                     "--out-dir", str(d)]) == 0
        gt_payload = json.loads((d / "gt.json").read_text())
        code = main(["join", str(d / "trajA.txt"), str(d / "trajB.txt"),
                     str(d / "matches.txt"),
                     "--depths-a", str(d / "trajA.depths"),
                     "--depths-b", str(d / "trajB.depths"),
                     "--frame-a", str(gt_payload["frame_a"]),
                     "--frame-b", str(gt_payload["frame_b"]),
                     "--out", str(tmp_path / "merged.txt"),
                     "--sim3-out", str(tmp_path / "s.json")])
        assert code == 0
        payload = json.loads((tmp_path / "s.json").read_text())
        assert abs(payload["scale"] / gt_payload["sim3_world"]["scale"] - 1.0) < 0.05
