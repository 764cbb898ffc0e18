import io
import json
import os
import subprocess
import sys
import warnings
import zipfile
from dataclasses import replace

import numpy as np
import pytest

import sedslam
from sedslam import synth
from sedslam.cli import build_parser, main
from sedslam.files import (
    read_depth_sidecar,
    read_match_file,
    write_depth_sidecar,
    write_match_file,
    write_trajectory,
)
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


def sidecar_arrays(path):
    """The (timestamps, counts, depths) arrays of the sidecar at ``path``, as
    read, so that a test can edit them and write them back with ``_archive``."""
    source = read_depth_sidecar(path)
    counts = np.array([len(d) for d in source.values()], dtype=np.int64)
    return np.array(list(source)), counts, np.concatenate(list(source.values()))


def write_sidecar_arrays(path, timestamps, counts, depths):
    with open(path, "wb") as fh:
        fh.write(_archive(timestamps, counts, depths))


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
                                      "0:nan:10", "0:90:nan", "-1e308:1e308:1", "0:90:1e-12"])
    def test_non_finite_grid_exits_1(self, tmp_path, capsys, grid):
        assert main(["basin", "--mode", "sed_only", f"--grid={grid}",
                     "--out", str(tmp_path / "b.csv")]) == 1
        assert capsys.readouterr().err == f"error: invalid grid {grid!r}\n"

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_fewer_than_one_seed_exits_1(self, tmp_path, capsys, seeds):
        out = tmp_path / "b.csv"
        assert main(["basin", "--mode", "sed_only", "--seeds", seeds, "--out", str(out)]) == 1
        assert f"need at least 1 seed, got {seeds}" in capsys.readouterr().err
        assert not out.exists()

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
        t, c, d = sidecar_arrays(paths["trajB_d"])
        write_sidecar_arrays(paths["trajB_d"], np.append(t, 99999.5), np.append(c, 1),
                             np.append(d, 1.0))
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
        t, c, d = sidecar_arrays(sidecar)
        k = [f"{key:.6f}" for key in t.tolist()].index(stamp)
        n = int(c[k])
        # The frame's count falls by one and its last depth goes.
        write_sidecar_arrays(sidecar, t, _with(c, k, n - 1), np.delete(d, c[:k + 1].sum() - 1))
        code = main(["join", paths["trajA"], paths["trajB"], paths["matches"],
                     "--depths-a", paths["trajA_d"], "--depths-b", paths["trajB_d"],
                     "--frame-a", str(fa), "--frame-b", str(fb),
                     "--out", str(tmp_path / "m.txt"), "--sim3-out", str(tmp_path / "s.json")])
        assert code == 1
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

    def test_timestamp_collision_exits_2_before_the_solve(self, tmp_path, capsys, monkeypatch):
        tp = tmp_path / "tp"
        assert main(["synth", "traj-pair", "--seed", "1", "--out-dir", str(tp)]) == 0
        gt = json.loads((tp / "gt.json").read_text())
        # Trajectory B retimed onto trajectory A's stamps: 200.x becomes 100.x.
        (tp / "trajB.txt").write_text((tp / "trajB.txt").read_text().replace("\n200.", "\n100."))
        t, c, d = sidecar_arrays(tp / "trajB.depths")
        write_sidecar_arrays(tp / "trajB.depths", t - 100.0, c, d)

        def no_solve(*args, **kwargs):
            raise AssertionError("the join was solved")

        monkeypatch.setattr("sedslam.cli.estimate_join", no_solve)
        merged, sim3_out = tmp_path / "merged.txt", tmp_path / "s.json"
        code = main(["join", str(tp / "trajA.txt"), str(tp / "trajB.txt"), str(tp / "matches.txt"),
                     "--depths-a", str(tp / "trajA.depths"), "--depths-b", str(tp / "trajB.depths"),
                     "--frame-a", str(gt["frame_a"]), "--frame-b", str(gt["frame_b"]),
                     "--out", str(merged), "--sim3-out", str(sim3_out)])
        assert code == 2
        assert (capsys.readouterr().err
                == "error: 8 timestamps appear in both trajectories at 6 decimals\n")
        assert not merged.exists() and not sim3_out.exists()

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

    def test_non_finite_rmse_exits_2(self, tmp_path, capsys):
        traj = self._line_trajectory(n=50)
        far = Trajectory(tuple(Keyframe(k.timestamp, Se3Pose(np.eye(3), 1e160 * k.pose.translation),
                                        k.depths) for k in traj.keyframes))
        pa = self._write(tmp_path, "far.txt", far)
        pb = self._write(tmp_path, "gt.txt", traj)
        assert main(["ate", pa, pb, "--mode", "se3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: rmse: RMSE is inf\n"

    def test_overflowed_source_variance_exits_2(self, tmp_path, capsys):
        # The cross-covariance stays finite, but the squared offsets of the
        # source positions overflow, which once collapsed the scale to 0.
        assert main(["synth", "traj-pair", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
        a, gt = tmp_path / "A.txt", tmp_path / "trajA.txt"
        a.write_text(gt.read_text())
        _set_field(str(a), lambda n, fields: n == 2, 1, "1e160")
        capsys.readouterr()
        assert main(["ate", str(a), str(gt)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: align: source variance is not finite\n"


def _set_field(path, keep, index, value):
    """Set field ``index`` of the data lines of ``path`` that ``keep`` picks."""
    with open(path) as fh:
        text = fh.read()
    lines = []
    for n, line in enumerate(text.splitlines()):
        fields = line.split()
        if fields and not line.startswith("#") and keep(n, fields):
            fields[index] = value
            line = " ".join(fields)
        lines.append(line)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_cli(*argv):
    """The CLI in a child process, which a hang cannot stall for more than 10 s."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sedslam.__file__)))
    return subprocess.run([sys.executable, "-m", "sedslam.cli", *argv], capture_output=True,
                          text=True, timeout=10, env=env)


# A session through every command that reads or writes a text file, in a child
# process where opening one in the locale's encoding raises EncodingWarning
# and the C locale makes that encoding ASCII. `ate` reads a trajectory whose
# fields are separated by U+2003, which str.split splits at.
_UTF8_SESSION = """
import json, sys
from pathlib import Path
from sedslam.cli import main

d = Path(sys.argv[1])
def run(*argv):
    assert main([str(a) for a in argv]) == 0, argv
run("synth", "two-view", "--seed", 1, "--out", d / "m.txt")
run("two-view", d / "m.txt", "--json", d / "r.json")
run("synth", "traj-pair", "--seed", 3, "--out-dir", d)
gt = json.loads((d / "gt.json").read_text(encoding="utf-8"))
run("join", d / "trajA.txt", d / "trajB.txt", d / "matches.txt",
    "--depths-a", d / "trajA.depths", "--depths-b", d / "trajB.depths",
    "--frame-a", gt["frame_a"], "--frame-b", gt["frame_b"],
    "--out", d / "merged.txt", "--sim3-out", d / "s.json")
spaced = (d / "trajA.txt").read_text(encoding="utf-8").replace(" ", "\\u2003")
(d / "spaced.txt").write_text(spaced, encoding="utf-8")
run("ate", d / "merged.txt", d / "spaced.txt")
run("basin", "--mode", "sed_only", "--grid", "0:20:20", "--seeds", 1, "--out", d / "b.csv")
"""


def test_text_files_are_utf8_whatever_the_locale(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sedslam.__file__)),
               LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    run = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                          "-W", "error::EncodingWarning", "-c", _UTF8_SESSION, str(tmp_path)],
                         capture_output=True, text=True, timeout=30, env=env)
    assert (run.returncode, run.stderr) == (0, "")


class TestNoHang:
    """Finite inputs whose products overflow to inf once hung LAPACK's SVD."""

    def test_two_view_with_huge_focal_lengths_exits_2(self, tmp_path):
        m = str(tmp_path / "m.txt")
        assert main(["synth", "two-view", "--seed", "1", "--sigma", "1", "--outliers", "0.2",
                     "--out", m]) == 0
        for index in (2, 3):  # fx and fy of both intrinsics lines
            _set_field(m, lambda n, fields: fields[0] == "intrinsics", index, "1e160")
        run = _run_cli("two-view", m)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == "error: decompose: essential matrix is not finite\n"

    def test_ate_with_a_huge_translation_exits_2(self, tmp_path):
        assert main(["synth", "traj-pair", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
        a = str(tmp_path / "trajA.txt")
        _set_field(a, lambda n, fields: n == 2, 1, "1e160")
        run = _run_cli("ate", a, a)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == "error: align: cross-covariance is not finite\n"


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

    @pytest.mark.parametrize("flags, message", [
        (["--outliers", "0.3", "--outlier-weight", "1e-10"], "prints as 0.000000000"),
        (["--outliers", "0.3", "--outlier-weight", "0"], "prints as 0.000000000"),
        (["--outlier-weight", "nan"], "outlier_weight must lie in [0, 1]"),
        (["--sigma", "nan"], "gaussian_sigma must be finite and >= 0"),
        (["--sigma", "inf"], "gaussian_sigma must be finite and >= 0"),
        (["--baseline", "0"], "baseline must be finite and positive"),
        (["--baseline", "nan"], "baseline must be finite and positive"),
        (["--baseline", "-1"], "baseline must be finite and positive"),
        (["--baseline", "1e-300"], "lies outside [1e-150, 1e150]"),
    ])
    def test_two_view_rejects_bad_input_and_writes_nothing(self, tmp_path, capsys, flags,
                                                          message):
        m = tmp_path / "m.txt"
        g = tmp_path / "g.json"
        assert main(["synth", "two-view", *flags, "--out", str(m), "--gt-json", str(g)]) == 1
        assert message in capsys.readouterr().err
        assert not m.exists() and not g.exists()

    def test_traj_pair_deterministic(self, tmp_path, capsys):
        d1 = tmp_path / "p1"
        d2 = tmp_path / "p2"
        for d in (d1, d2):
            assert main(["synth", "traj-pair", "--seed", "5", "--scale", "1.5",
                         "--out-dir", str(d)]) == 0
        for name in ("trajA.txt", "trajA.depths", "trajB.txt", "trajB.depths",
                     "matches.txt", "gt.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    # Depths scale as 1 / S, to about 1e-12 at S = 1e12; they read back bit for bit.
    @pytest.mark.parametrize("scale", ["1e-6", "1e4", "1e8", "1e12"])
    def test_traj_pair_join_recovers_the_scale(self, tmp_path, capsys, scale):
        d = tmp_path / "p"
        assert main(["synth", "traj-pair", "--seed", "3", "--scale", scale,
                     "--out-dir", str(d)]) == 0
        gt = json.loads((d / "gt.json").read_text())
        assert main(["join", str(d / "trajA.txt"), str(d / "trajB.txt"), str(d / "matches.txt"),
                     "--depths-a", str(d / "trajA.depths"), "--depths-b", str(d / "trajB.depths"),
                     "--frame-a", str(gt["frame_a"]), "--frame-b", str(gt["frame_b"]),
                     "--out", str(tmp_path / "merged.txt"),
                     "--sim3-out", str(tmp_path / "s.json")]) == 0
        estimated = json.loads((tmp_path / "s.json").read_text())["scale"]
        assert abs(estimated / float(scale) - 1.0) < 1e-10

    def test_traj_pair_refused_fixture_leaves_no_fixture_files(self, tmp_path, capsys,
                                                               monkeypatch):
        # Trajectory b's first two stamps print alike, so trajB.txt is refused;
        # the fixtures before it must not be written either.
        make_pair = synth.make_trajectory_pair

        def colliding(*args, **kwargs):
            pair = make_pair(*args, **kwargs)
            b = pair.traj_b
            stamps = b.timestamps.copy()
            stamps[1] = stamps[0] + 1e-7
            return replace(pair, traj_b=Trajectory.from_columns(
                stamps, b.rotations, b.translations, b.depths, b.depth_offsets))

        monkeypatch.setattr("sedslam.synth.make_trajectory_pair", colliding)
        d = tmp_path / "p"
        assert main(["synth", "traj-pair", "--seed", "3", "--out-dir", str(d)]) == 1
        assert "both print as 200.000000" in capsys.readouterr().err
        assert not d.exists()

    def test_traj_pair_with_one_frame_exits_1(self, tmp_path, capsys):
        d = tmp_path / "p"
        assert main(["synth", "traj-pair", "--n-frames", "1", "--out-dir", str(d)]) == 1
        assert "need at least 2 frames per trajectory, got 1" in capsys.readouterr().err
        assert not d.exists()

    # From about 1e154 the norm of the noise overflows and its 3-sigma clip
    # scales it to 0, which once wrote a noise-free fixture with exit 0.
    @pytest.mark.parametrize("command, out", [("two-view", "--out"), ("traj-pair", "--out-dir")])
    @pytest.mark.parametrize("sigma", ["1e154", "1e300"])
    def test_huge_sigma_exits_1_with_no_file_and_no_warning(self, tmp_path, capsys, command,
                                                             out, sigma):
        path = tmp_path / "fixture"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["synth", command, "--seed", "3", "--sigma", sigma, out, str(path)]) == 1
        assert caught == []
        assert capsys.readouterr().err == (f"error: gaussian_sigma {float(sigma)} lies outside "
                                           "[0, 1e150], where the norm of its noise overflows\n")
        assert not path.exists()

    @pytest.mark.parametrize("command, out", [("two-view", "--out"), ("traj-pair", "--out-dir")])
    def test_sigma_at_the_bound_still_writes(self, tmp_path, capsys, command, out):
        path = tmp_path / "fixture"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["synth", command, "--seed", "3", "--sigma", "1e150", out, str(path)]) == 0
        assert caught == [] and path.exists()

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


class TestParserReuse:
    """``main`` builds its parser once per process; no call may see another's
    arguments."""

    def _join_then_ate(self, paths, out, capsys, extra=()):
        merged, sim3_out = out / "merged.txt", out / "s.json"
        codes = (main(["join", paths["trajA"], paths["trajB"], paths["matches"],
                       "--depths-a", paths["trajA_d"], "--depths-b", paths["trajB_d"],
                       "--out", str(merged), "--sim3-out", str(sim3_out), *extra]),
                 main(["ate", str(merged), paths["trajA"]]))
        assert codes == (0, 0)
        return capsys.readouterr().out, merged.read_bytes(), sim3_out.read_bytes()

    def test_bad_argv_does_not_affect_the_next_call(self, tmp_path, capsys):
        _, (fa, fb), paths = write_join_fixture(tmp_path, seed=4)
        frames = ["--frame-a", str(fa), "--frame-b", str(fb)]
        first = self._join_then_ate(paths, tmp_path, capsys, frames)
        # Values parsed before the error must not stick as defaults.
        for bad in (["join", paths["trajA"], paths["trajB"], paths["matches"], "--lambda", "1.5",
                     "--max-iters", "1", "--frame-a", "oops"],
                    ["ate", "est.txt", "gt.txt", "--mode", "other"],
                    ["synth"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
        capsys.readouterr()
        assert self._join_then_ate(paths, tmp_path, capsys, frames) == first

    def test_join_then_ate_twice_print_identical_stdout(self, tmp_path, capsys):
        _, (fa, fb), paths = write_join_fixture(tmp_path, seed=4)
        frames = ["--frame-a", str(fa), "--frame-b", str(fb)]
        first = self._join_then_ate(paths, tmp_path, capsys, frames)
        assert first[0].strip()
        assert self._join_then_ate(paths, tmp_path, capsys, frames) == first

    def test_a_command_replaced_on_the_module_is_the_one_that_runs(self, tmp_path, capsys,
                                                                    monkeypatch):
        assert main(["synth", "two-view", "--out", str(tmp_path / "m.txt")]) == 0
        calls = []
        monkeypatch.setattr("sedslam.cli.cmd_ate", lambda args: calls.append(args.est) or 0)
        assert main(["ate", "e.txt", "g.txt"]) == 0
        assert calls == ["e.txt"]
        monkeypatch.undo()
        assert main(["ate", "e.txt", "g.txt"]) == 1
        assert "e.txt" in capsys.readouterr().err

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()



# One case per place a reader refuses a line, mutated from `synth two-view --seed 1`
# (two_view.txt) and `synth traj-pair --seed 3` (trajA.txt): the file, its line
# from 1, that line's new text, and the message `main` prints. Each exits 1.
REFUSALS = {
    "intrinsics-too-few": ("two_view.txt", 2, "intrinsics 0 256 256 256 256 512",
                           "line 2: intrinsics needs 7 values"),
    "intrinsics-unparsable": ("two_view.txt", 2, "intrinsics 0 256 256 x 256 512 512",
                              "line 2: could not convert string to float: 'x'"),
    "intrinsics-frame-id": ("two_view.txt", 3, "intrinsics 2 256 256 256 256 512 512",
                            "line 3: frame id must be 0 or 1"),
    "intrinsics-duplicate": ("two_view.txt", 3, "intrinsics 0 256 256 256 256 512 512",
                             "line 3: duplicate intrinsics for frame 0"),
    "intrinsics-focal": ("two_view.txt", 2, "intrinsics 0 0 256 256 256 512 512",
                         "line 2: focal lengths must be positive"),
    "intrinsics-size": ("two_view.txt", 3, "intrinsics 1 256 256 256 256 0 512",
                        "line 3: image size must be finite and positive"),
    "row-field-count": ("two_view.txt", 10, "0 323.85 146.62 334.63 133.51",
                        "line 10: expected 6 fields, got 5"),
    "row-unparsable": ("two_view.txt", 10, "0 323.85 146.62 334.63 133.51 one",
                       "line 10: could not convert string to float: 'one'"),
    "row-frame-id": ("two_view.txt", 10, "2 323.85 146.62 334.63 133.51 1",
                     "line 10: frame id must be 0 or 1"),
    "row-weight": ("two_view.txt", 10, "0 323.85 146.62 334.63 133.51 1.5",
                   "line 10: weight 1.5 outside (0, 1]"),
    "row-anchor-bounds": ("two_view.txt", 60, "1 600.5 54.64 99.30 141.15 1",
                          "line 60: anchor (600.5, 54.64) outside image bounds"),
    "row-match-bounds": ("two_view.txt", 11, "0 354.07 208.12 -1.5 224.13 1",
                         "line 11: match (-1.5, 224.13) outside image bounds"),
    "traj-field-count": ("trajA.txt", 3, "100.1 -4.98 0.24 -0.43 0.017 0.67 -0.016",
                         "line 3: expected 8 fields, got 7"),
    "traj-unparsable": ("trajA.txt", 3, "100.1 -4.98 0.24 -0.43 0.017 0.67 -0.016 0.7.3",
                        "line 3: could not convert string to float: '0.7.3'"),
    "traj-nan": ("trajA.txt", 4, "100.2 nan 0.2 -0.8 0.016 0.64 -0.013 0.76",
                 "line 4: non-finite value"),
    "traj-quaternion": ("trajA.txt", 4, "100.2 -4.9 0.2 -0.8 0 0 0 3",
                        "line 4: quaternion norm 3.0 is not 1"),
    # Undecodable text is refused by the codec, which names a byte and no line.
    "not-utf8": ("trajA.txt", 3, b"100.1 -4.98 \xff 0.24",
                 "'utf-8' codec can't decode byte 0xff in position 143: invalid start byte"),
}


@pytest.fixture(scope="module")
def refusal_sources(tmp_path_factory):
    src = tmp_path_factory.mktemp("refusal-sources")
    assert main(["synth", "two-view", "--seed", "1", "--out", str(src / "two_view.txt")]) == 0
    assert main(["synth", "traj-pair", "--seed", "3", "--out-dir", str(src)]) == 0
    return src


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused_line_prints_its_message_and_exits_1(case, refusal_sources, tmp_path, capsys):
    name, lineno, text, message = REFUSALS[case]
    lines = (refusal_sources / name).read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = (text if isinstance(text, bytes) else text.encode()) + b"\n"
    (tmp_path / name).write_bytes(b"".join(lines))
    argv = {"two_view.txt": ["two-view", str(tmp_path / name)],
            "trajA.txt": ["ate", str(tmp_path / name), str(refusal_sources / "trajB.txt")]}[name]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _join_argv(path, out):
    return ["join", path["trajA.txt"], path["trajB.txt"], path["matches.txt"],
            "--depths-a", path["trajA.depths"], "--depths-b", path["trajB.depths"],
            "--frame-a", "1", "--out", str(out / "merged.txt"),
            "--sim3-out", str(out / "sim3.json")]


def _archive(timestamps, counts, depths, drop=None):
    """The bytes of a sidecar archive of these arrays, without array ``drop``."""
    arrays = {"timestamps": timestamps, "counts": counts, "depths": depths}
    arrays.pop(drop, None)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _raw_counts(timestamps, counts, depths):
    """A sidecar archive whose member ``counts`` holds raw bytes, not an array."""
    buffer = io.BytesIO(_archive(timestamps, counts, depths, drop="counts"))
    with zipfile.ZipFile(buffer, "a") as archive:
        archive.writestr("counts", counts.tobytes())
    return buffer.getvalue()


def _with(a, k, value):
    a = a.copy()
    a[k] = value
    return a


# One case per refusal of a malformed sidecar, built from the arrays of
# `synth traj-pair --seed 3`'s trajA.depths (8 keyframes from 100.0, 0.1 s apart,
# 96 depths each): the file's bytes from (timestamps, counts, depths), and the
# message `main` prints. Each exits 1 and writes no output file.
ARCHIVE_REFUSALS = {
    "truncated": (lambda t, c, d: _archive(t, c, d)[:1000],
                  "depth sidecar archive is unreadable: BadZipFile('File is not a zip file')"),
    "missing-array": (lambda t, c, d: _archive(t, c, d, drop="counts"),
                      "depth sidecar archive is unreadable: "
                      "KeyError('counts is not a file in the archive')"),
    "object-array": (lambda t, c, d: _archive(t, c, d.astype(object)),
                     "depth sidecar archive is unreadable: "
                     "ValueError('Object arrays cannot be loaded when allow_pickle=False')"),
    "member-not-npy": (_raw_counts,
                       "depth sidecar array 'counts' must be 1-d int64, got 0-d |S64"),
    "dtype": (lambda t, c, d: _archive(t, c.astype(float), d),
              "depth sidecar array 'counts' must be 1-d int64, got 1-d float64"),
    "ndim": (lambda t, c, d: _archive(t, c, d[:, None]),
             "depth sidecar array 'depths' must be 1-d float64, got 2-d float64"),
    "negative-count": (lambda t, c, d: _archive(t, _with(c, [0, 2], [-1, c[2] + c[0] + 1]), d),
                       "depth counts must be 8 non-negative integers summing to 768, "
                       "got 8 summing to 768, least -1"),
    "count-sum": (lambda t, c, d: _archive(t, _with(c, 0, c[0] + 1), d),
                  "depth counts must be 8 non-negative integers summing to 768, "
                  "got 8 summing to 769, least 96"),
    "count-length": (lambda t, c, d: _archive(t, c[:-1], d[:-int(c[-1])]),
                     "depth counts must be 8 non-negative integers summing to 672, "
                     "got 7 summing to 672, least 96"),
    "stamp": (lambda t, c, d: _archive(_with(t, 3, np.inf), c, d),
              "timestamp inf must be finite"),
    "depth": (lambda t, c, d: _archive(t, c, _with(d, 100, -1.0)),
              "depth -1.0 at timestamp 100.1 must be finite and positive"),
    "stamps-alike": (lambda t, c, d: _archive(_with(t, 1, t[0] + 1e-7), c, d),
                     "timestamps must be strictly increasing at 6 decimals"),
    # The text sidecar that earlier versions wrote.
    "text": (lambda t, c, d: b"100.000000 0 4.7\n",
             "depth sidecar is not an .npz archive of timestamps, counts and depths; "
             "text sidecars are no longer read"),
}


@pytest.mark.parametrize("case", sorted(ARCHIVE_REFUSALS))
def test_malformed_sidecar_archive_prints_its_message_and_exits_1(case, refusal_sources,
                                                                   tmp_path, capsys):
    build, message = ARCHIVE_REFUSALS[case]
    (tmp_path / "trajA.depths").write_bytes(
        build(*sidecar_arrays(refusal_sources / "trajA.depths")))
    path = {n: str(refusal_sources / n) for n in ("trajA.txt", "trajB.txt", "trajB.depths",
                                                  "matches.txt")}
    path["trajA.depths"] = str(tmp_path / "trajA.depths")
    capsys.readouterr()
    assert main(_join_argv(path, tmp_path)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "merged.txt").exists() and not (tmp_path / "sim3.json").exists()
