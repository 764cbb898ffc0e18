import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedslam.errors import MatchFileError, TimestampCollisionError, TrajectoryFileError
from sedslam.files import (
    read_depth_sidecar,
    read_match_file,
    read_trajectory,
    write_depth_sidecar,
    write_match_file,
    write_trajectory,
)
from sedslam.geom import Intrinsics, Se3Pose, Sim3Transform, so3_exp
from sedslam.sim3 import Keyframe, Trajectory, merge_trajectories
from sedslam.synth import NoiseModel, make_two_view
from sedslam.twoview import AnchorMatchSet


def simple_trajectory(n=5, t0=0.0, seed=0, depths=True):
    rng = np.random.default_rng(seed)
    kfs = []
    for i in range(n):
        pose = Se3Pose(so3_exp(0.3 * rng.normal(size=3)), rng.normal(size=3))
        d = rng.uniform(0.5, 4.0, size=3) if depths else np.zeros(0)
        kfs.append(Keyframe(t0 + 0.25 * i, pose, d))
    return Trajectory(tuple(kfs))


class TestMatchFile:
    def test_round_trip(self, tmp_path):
        mset, _ = make_two_view(7, 40, noise=NoiseModel(gaussian_sigma=0.5,
                                                        outlier_fraction=0.2,
                                                        outlier_weight=0.01))
        path = tmp_path / "m.txt"
        write_match_file(path, mset)
        back = read_match_file(path)
        assert np.allclose(back.anchors0, mset.anchors0, atol=1e-8)
        assert np.allclose(back.matches0, mset.matches0, atol=1e-8)
        assert np.allclose(back.weights0, mset.weights0, atol=1e-8)
        assert np.allclose(back.anchors1, mset.anchors1, atol=1e-8)
        assert back.intrinsics0.fx == pytest.approx(mset.intrinsics0.fx)
        assert back.size1 == mset.size1

    def test_weight_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("intrinsics 0 256 256 256 256 512 512\n"
                        "intrinsics 1 256 256 256 256 512 512\n"
                        "0 10 10 20 20 0.5\n"
                        "0 11 11 21 21 1.5\n")
        with pytest.raises(MatchFileError) as exc:
            read_match_file(path)
        assert "line 4" in str(exc.value)
        assert "1.5" in str(exc.value)

    def test_coordinates_outside_bounds(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("intrinsics 0 256 256 256 256 512 512\n"
                        "intrinsics 1 256 256 256 256 512 512\n"
                        "0 10 10 600 20 0.5\n")
        with pytest.raises(MatchFileError) as exc:
            read_match_file(path)
        assert "line 3" in str(exc.value)

    @pytest.mark.parametrize("values", ["256 256 nan 256", "inf 256 256 256"])
    def test_non_finite_intrinsics_name_line(self, tmp_path, values):
        path = tmp_path / "bad.txt"
        path.write_text("intrinsics 1 256 256 256 256 512 512\n"
                        f"intrinsics 0 {values} 512 512\n"
                        "0 10 10 20 20 0.5\n")
        with pytest.raises(MatchFileError, match="line 2: intrinsics must be finite"):
            read_match_file(path)

    def test_missing_intrinsics(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("intrinsics 0 256 256 256 256 512 512\n0 1 1 2 2 0.5\n")
        with pytest.raises(MatchFileError):
            read_match_file(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("intrinsics 0 256 256 256 256 512 512\n"
                        "intrinsics 1 256 256 256 256 512 512\n"
                        "0 1 1 2 2\n")
        with pytest.raises(MatchFileError) as exc:
            read_match_file(path)
        assert "line 3" in str(exc.value)


class TestTrajectoryFile:
    def test_round_trip(self, tmp_path):
        traj = simple_trajectory()
        tp = tmp_path / "t.txt"
        dp = tmp_path / "t.depths"
        write_trajectory(tp, traj)
        write_depth_sidecar(dp, traj)
        back = read_trajectory(tp, dp)
        assert len(back) == len(traj)
        for a, b in zip(traj.keyframes, back.keyframes):
            assert a.timestamp == pytest.approx(b.timestamp, abs=1e-6)
            assert np.max(np.abs(a.pose.rotation - b.pose.rotation)) < 1e-7
            assert np.linalg.norm(a.pose.translation - b.pose.translation) < 1e-8
            assert np.allclose(a.depths, b.depths, atol=1e-8)

    def test_bad_quaternion_norm(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 0 0 0 0.5 0.5 0.5 0.6\n")
        with pytest.raises(TrajectoryFileError) as exc:
            read_trajectory(path)
        assert "line 1" in str(exc.value)

    def test_non_increasing_timestamps(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n")
        with pytest.raises(TrajectoryFileError):
            read_trajectory(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# nothing\n")
        with pytest.raises(TrajectoryFileError):
            read_trajectory(path)

    @pytest.mark.parametrize("row", ["nan 0 0 0 0 0 0 1", "inf 0 0 0 0 0 0 1",
                                     "1.0 nan 0 0 0 0 0 1", "1.0 0 0 -inf 0 0 0 1",
                                     "1.0 0 0 0 nan 0 0 1"])
    def test_non_finite_field_names_line(self, tmp_path, row):
        path = tmp_path / "bad.txt"
        path.write_text("0.5 0 0 0 0 0 0 1\n" + row + "\n")
        with pytest.raises(TrajectoryFileError, match="line 2: non-finite"):
            read_trajectory(path)

    def test_orphan_sidecar_rows_raise(self, tmp_path):
        tp = tmp_path / "t.txt"
        dp = tmp_path / "t.depths"
        tp.write_text("1.0 0 0 0 0 0 0 1\n")
        dp.write_text("1.0 0 2.0\n3.5 0 2.0\n3.5 1 2.5\n")
        with pytest.raises(TrajectoryFileError) as exc:
            read_trajectory(tp, dp)
        assert "2 depth-sidecar rows" in str(exc.value)
        assert "3.500000" in str(exc.value)


class TestDepthSidecar:
    def test_duplicate_anchor_id(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.0 0 1.0\n0.0 0 2.0\n")
        with pytest.raises(TrajectoryFileError):
            read_depth_sidecar(path)

    def test_non_contiguous_ids(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.0 0 1.0\n0.0 2 2.0\n")
        with pytest.raises(TrajectoryFileError):
            read_depth_sidecar(path)

    def test_non_positive_depth(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.0 0 -1.0\n")
        with pytest.raises(TrajectoryFileError):
            read_depth_sidecar(path)

    @pytest.mark.parametrize("row", ["0.0 1 nan", "0.0 1 inf", "nan 0 1.0", "-inf 0 1.0"])
    def test_non_finite_field_names_line(self, tmp_path, row):
        path = tmp_path / "d.txt"
        path.write_text("0.0 0 1.0\n" + row + "\n")
        with pytest.raises(TrajectoryFileError, match="line 2: .* must be finite"):
            read_depth_sidecar(path)


# A keyframe's rotation vector, translation and depths. Timestamps lie on a
# 0.25 s grid, and trajectory B's offset puts its stamps between A's
# (0.125 s), within file precision of them (1e-7, 4e-7) or just beyond it
# (6e-7, 2e-6).
_KEYFRAME = st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
                      st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
                      st.lists(st.floats(0.05, 80.0), max_size=3))


def _trajectory(ticks, offset, keyframes):
    return Trajectory(tuple(Keyframe(0.25 * t + offset, Se3Pose(so3_exp(w), p), d)
                            for t, (w, p, d) in zip(sorted(ticks), keyframes)))


def _round_trip(traj, directory):
    tp, dp = os.path.join(directory, "t.txt"), os.path.join(directory, "t.depths")
    write_trajectory(tp, traj)
    write_depth_sidecar(dp, traj)
    back = read_trajectory(tp, dp)
    assert [f"{k.timestamp:.6f}" for k in back.keyframes] == \
        [f"{k.timestamp:.6f}" for k in traj.keyframes]
    for a, b in zip(traj.keyframes, back.keyframes):
        assert np.max(np.abs(a.pose.rotation - b.pose.rotation)) < 1e-8
        assert np.max(np.abs(a.pose.translation - b.pose.translation)) < 1e-9
        assert len(a.depths) == len(b.depths)
        assert np.all(np.abs(a.depths - b.depths) <= 5e-10 + 1e-15 * a.depths)
    return back


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ticks_a=st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True),
       ticks_b=st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True),
       offset=st.sampled_from([0.125, 1e-7, 4e-7, 6e-7, 2e-6]),
       keyframes=st.lists(_KEYFRAME, min_size=10, max_size=10),
       scale=st.floats(0.5, 2.0))
def test_write_read_and_merge_round_trip(ticks_a, ticks_b, offset, keyframes, scale):
    traj_a = _trajectory(ticks_a, 0.0, keyframes[:5])
    traj_b = _trajectory(ticks_b, offset, keyframes[5:])
    sim3 = Sim3Transform(scale, so3_exp([0.1, -0.2, 0.3]), np.array([1.0, 2.0, -0.5]))
    with tempfile.TemporaryDirectory() as directory:
        _round_trip(traj_a, directory)
        _round_trip(traj_b, directory)
        written_a = {f"{t:.6f}" for t in traj_a.timestamps()}
        written_b = {f"{t:.6f}" for t in traj_b.timestamps()}
        if written_a & written_b:
            with pytest.raises(TimestampCollisionError):
                merge_trajectories(traj_a, traj_b, sim3)
        else:
            merged = merge_trajectories(traj_a, traj_b, sim3)
            assert len(_round_trip(merged, directory)) == len(traj_a) + len(traj_b)


# Values k / 10**9 print at 9 decimals as k * 1e-9 and parse back to the
# same float, so a write and read must reproduce them exactly.
def _nano(lo, hi):
    return st.integers(int(lo * 10 ** 9), int(hi * 10 ** 9)).map(lambda k: k / 10 ** 9)


@st.composite
def _match_set(draw):
    cams = [Intrinsics(draw(_nano(1.0, 2000.0)), draw(_nano(1.0, 2000.0)),
                       draw(_nano(-500.0, 1500.0)), draw(_nano(-500.0, 1500.0)))
            for _ in range(2)]
    sizes = [(draw(_nano(1.0, 1000.0)), draw(_nano(1.0, 1000.0))) for _ in range(2)]
    sides = []
    for own, other in (sizes, sizes[::-1]):
        rows = draw(st.lists(st.tuples(_nano(0.0, own[0]), _nano(0.0, own[1]),
                                       _nano(0.0, other[0]), _nano(0.0, other[1]),
                                       _nano(1e-9, 1.0)), max_size=8))
        table = np.array(rows, dtype=float).reshape(-1, 5)
        sides += [table[:, 0:2], table[:, 2:4], table[:, 4]]
    return AnchorMatchSet(*sides, *cams, *sizes)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mset=_match_set())
def test_match_file_round_trip(mset):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "m.txt")
        write_match_file(path, mset)
        back = read_match_file(path)
    for name in ("anchors0", "matches0", "weights0", "anchors1", "matches1", "weights1"):
        assert np.array_equal(getattr(back, name), getattr(mset, name)), name
    assert (back.intrinsics0, back.intrinsics1) == (mset.intrinsics0, mset.intrinsics1)
    assert (back.size0, back.size1) == (mset.size0, mset.size1)
