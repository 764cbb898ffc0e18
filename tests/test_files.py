import io
import os
import tempfile
import zipfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import read_trajectory_lines

from sedslam.errors import MatchFileError, TimestampCollisionError, TrajectoryFileError
from sedslam.files import (
    read_depth_sidecar,
    read_match_file,
    read_trajectory,
    write_depth_sidecar,
    write_match_file,
    write_trajectory,
)
from sedslam.geom import Intrinsics, Se3Pose, Sim3Transform, quat_from_rotation, so3_exp
from sedslam.sim3 import Keyframe, Trajectory, merge_trajectories, timestamp_key
from sedslam.synth import NoiseModel, make_two_view
from sedslam.twoview import AnchorMatchSet, apply_homography, normalize_transform


def simple_trajectory(n=5, t0=0.0, seed=0, depths=True):
    rng = np.random.default_rng(seed)
    kfs = []
    for i in range(n):
        pose = Se3Pose(so3_exp(0.3 * rng.normal(size=3)), rng.normal(size=3))
        d = rng.uniform(0.5, 4.0, size=3) if depths else np.zeros(0)
        kfs.append(Keyframe(t0 + 0.25 * i, pose, d))
    return Trajectory(tuple(kfs))


def normalized(mset):
    """``mset`` with its four point arrays mapped to [-1, 1], its intrinsics and
    image sizes kept in pixels: a set whose anchors lie outside the image."""
    t0, t1 = normalize_transform(*mset.size0), normalize_transform(*mset.size1)
    return replace(mset, anchors0=apply_homography(t0, mset.anchors0),
                   matches0=apply_homography(t1, mset.matches0),
                   anchors1=apply_homography(t1, mset.anchors1),
                   matches1=apply_homography(t0, mset.matches1))


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

    @pytest.mark.parametrize("weight", [0.0, 1e-10, 4.9e-10])
    def test_write_refuses_weight_printed_as_zero(self, tmp_path, weight):
        mset, _ = make_two_view(7, 16)
        w1 = mset.weights1.copy()
        w1[2] = weight
        path = tmp_path / "m.txt"
        message = f"frame-1 weight {weight} prints as 0.000000000, outside"
        with pytest.raises(ValueError, match=message):
            write_match_file(path, replace(mset, weights1=w1))
        assert not path.exists()

    def test_smallest_printable_weight_reads_back(self, tmp_path):
        mset, _ = make_two_view(7, 16)
        w0 = mset.weights0.copy()
        w0[0] = 5e-10
        path = tmp_path / "m.txt"
        write_match_file(path, replace(mset, weights0=w0))
        assert read_match_file(path).weights0[0] == 1e-9

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

    @pytest.mark.parametrize("size", ["inf 512", "512 nan", "0 512", "512 -5"])
    def test_image_size_must_be_finite_and_positive(self, tmp_path, size):
        path = tmp_path / "bad.txt"
        path.write_text("intrinsics 0 256 256 256 256 512 512\n"
                        f"intrinsics 1 256 256 256 256 {size}\n"
                        "0 10 10 20 20 0.5\n")
        with pytest.raises(MatchFileError) as exc:
            read_match_file(path)
        assert str(exc.value) == "line 2: image size must be finite and positive"

    def test_duplicate_intrinsics_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("intrinsics 0 256 256 256 256 512 512\n"
                        "intrinsics 1 256 256 256 256 512 512\n"
                        "intrinsics 0 100 100 10 10 512 512\n"
                        "0 1 1 2 2 0.5\n")
        with pytest.raises(MatchFileError, match="^line 3: duplicate intrinsics for frame 0$"):
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

    @pytest.mark.parametrize("change, message", [
        (normalized,
         "line 4: anchor (-0.749140102, -0.884663599) outside image bounds"),
        (lambda m: replace(m, anchors0=np.vstack([[512.0000000006, 10.0], m.anchors0[1:]])),
         "line 4: anchor (512.000000001, 10.0) outside image bounds"),
        (lambda m: replace(m, matches0=np.vstack([[400.0, 10.0], m.matches0[1:]]),
                           size1=(300.0, 600.0)),
         "line 4: match (400.0, 10.0) outside image bounds"),
        (lambda m: replace(m, intrinsics0=Intrinsics(1e-10, 256.0, 256.0, 256.0)),
         "line 2: focal lengths must be positive"),
        (lambda m: replace(m, intrinsics1=Intrinsics(256.0, 4e-10, 256.0, 256.0)),
         "line 3: focal lengths must be positive"),
        (lambda m: replace(m, size1=(512.0, 1e-10)),
         "line 3: image size must be finite and positive"),
    ])
    def test_write_refuses_values_the_reader_rejects_once_printed(self, tmp_path, change,
                                                                  message):
        path = tmp_path / "m.txt"
        with pytest.raises(ValueError) as exc:
            write_match_file(path, change(make_two_view(0)[0]))
        assert str(exc.value) == f"match set would not read back: {message}"
        assert not path.exists()

    def test_coordinate_printed_at_the_bound_reads_back(self, tmp_path):
        mset, _ = make_two_view(0)
        path = tmp_path / "m.txt"
        write_match_file(path, replace(mset, anchors0=np.vstack([[512.0000000004, 10.0],
                                                                 mset.anchors0[1:]])))
        assert read_match_file(path).anchors0[0].tolist() == [512.0, 10.0]


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

    def test_write_refuses_empty_trajectory(self, tmp_path):
        path = tmp_path / "t.txt"
        with pytest.raises(ValueError, match="^trajectory holds no keyframes$"):
            write_trajectory(path, Trajectory(()))
        assert not path.exists()

    @pytest.mark.parametrize("row", ["nan 0 0 0 0 0 0 1", "inf 0 0 0 0 0 0 1",
                                     "1.0 nan 0 0 0 0 0 1", "1.0 0 0 -inf 0 0 0 1",
                                     "1.0 0 0 0 nan 0 0 1"])
    def test_non_finite_field_names_line(self, tmp_path, row):
        path = tmp_path / "bad.txt"
        path.write_text("0.5 0 0 0 0 0 0 1\n" + row + "\n")
        with pytest.raises(TrajectoryFileError, match="line 2: non-finite"):
            read_trajectory(path)

    @pytest.mark.parametrize("row, message", [
        ("1.0 0 0 0 0 0 1", "expected 8 fields, got 7"),
        ("1.0 0 0 0 0 0 0 1 0", "expected 8 fields, got 9"),
        ("1.0 0 0 x 0 0 0 1", "could not convert string to float: 'x'"),
        ("1.0 0 0 0 0 0 0 0x1", "could not convert string to float: '0x1'"),
        ("1.0 0 0 0 0 0 0 2", "quaternion norm 2.0 is not 1"),
        ("1.0 0 0 0 0 0 0 0", "quaternion norm 0.0 is not 1"),
    ])
    def test_line_defect_message(self, tmp_path, row, message):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n0.5 0 0 0 0 0 0 1\n" + row + "\n")
        with pytest.raises(TrajectoryFileError) as exc:
            read_trajectory(path)
        assert str(exc.value) == f"line 3: {message}"

    @pytest.mark.parametrize("first, second", [(1, 2), (1000, 1030), (1100, 1900)])
    def test_reports_the_earlier_of_two_defects(self, tmp_path, first, second):
        lines = [f"{i}.0 0 0 0 0 0 0 1" for i in range(2000)]
        lines[first - 1] = f"{first}.0 0 0 0 0 0 0 2"
        lines[second - 1] = f"{second}.0 0 nan 0 0 0 0 1"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFileError, match=f"^line {first}: quaternion norm 2.0 "):
            read_trajectory(path)
        lines[first - 1] = f"{first}.0 0 0 0 0 0 1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFileError, match=f"^line {first}: expected 8 fields"):
            read_trajectory(path)

    def test_non_increasing_at_file_precision(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0000001 0 0 0 0 0 0 1\n1.0000002 0 0 0 0 0 0 1\n")
        with pytest.raises(TrajectoryFileError,
                           match="^timestamps must be strictly increasing at 6 decimals$"):
            read_trajectory(path)

    @pytest.mark.parametrize("write", [write_trajectory, write_depth_sidecar])
    def test_write_refuses_stamps_printed_alike(self, tmp_path, write):
        traj = Trajectory((Keyframe(1.0000001, Se3Pose.identity(), [1.0]),
                           Keyframe(1.0000002, Se3Pose.identity(), [1.0])))
        path = tmp_path / "t.txt"
        with pytest.raises(ValueError, match="both print as 1.000000$"):
            write(path, traj)
        assert not path.exists()

    def test_orphan_sidecar_rows_raise(self, tmp_path):
        tp = tmp_path / "t.txt"
        dp = tmp_path / "t.depths"
        tp.write_text("1.0 0 0 0 0 0 0 1\n")
        dp.write_bytes(_archive_bytes(timestamps=np.array([1.0, 3.5]),
                                      counts=np.array([1, 2], dtype=np.int64),
                                      depths=np.array([2.0, 2.0, 2.5])))
        with pytest.raises(TrajectoryFileError) as exc:
            read_trajectory(tp, dp)
        assert "2 depth-sidecar rows" in str(exc.value)
        assert "3.500000" in str(exc.value)


class TestDepthSidecar:
    def test_non_positive_depth(self, tmp_path):
        path = tmp_path / "d.depths"
        path.write_bytes(_archive_bytes(timestamps=np.array([0.0]),
                                        counts=np.array([1], dtype=np.int64),
                                        depths=np.array([-1.0])))
        with pytest.raises(TrajectoryFileError) as exc:
            read_depth_sidecar(path)
        assert str(exc.value) == "depth -1.0 at timestamp 0.0 must be finite and positive"

    # Keys follow the archive's timestamps; a timestamp with no depths has none.
    def test_keys_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "d.depths"
        path.write_bytes(_archive_bytes(timestamps=np.array([1.0, 1.5, 2.0]),
                                        counts=np.array([1, 0, 2], dtype=np.int64),
                                        depths=np.array([3.0, 5.0, 4.0])))
        depths = read_depth_sidecar(path)
        assert list(depths) == [1.0, 2.0]
        assert depths[2.0].tolist() == [5.0, 4.0]
        assert depths[1.0].tolist() == [3.0]


# A sidecar archive of three empty arrays, as written for a trajectory whose
# keyframes hold no depths, reads as no entries.
def test_header_only_sidecar_reads_as_empty(tmp_path):
    path = tmp_path / "d.depths"
    path.write_bytes(_archive_bytes(timestamps=np.zeros(0), counts=np.zeros(0, dtype=np.int64),
                                    depths=np.zeros(0)))
    assert read_depth_sidecar(path) == {}
    write_depth_sidecar(path, simple_trajectory(depths=False))
    assert read_depth_sidecar(path) == {}


# 25,000 depths, 8 per timestamp, with one defect in the keyframe that holds
# depth 20,000: the message names the defective value and its timestamp.
@pytest.mark.parametrize("kind", ["count", "depth", "dup", "stamp"])
def test_defect_at_row_20000_of_a_long_sidecar(tmp_path, kind):
    stamps = np.arange(3125) + 0.5
    counts = np.full(3125, 8, dtype=np.int64)
    depths = 1.25 + np.arange(25_000) % 7
    if kind == "count":
        counts[2499] = 7
        message = ("depth counts must be 3125 non-negative integers summing to 25000, "
                   "got 3125 summing to 24999, least 7")
    elif kind == "depth":
        depths[19_999] = 0.0
        message = "depth 0.0 at timestamp 2499.5 must be finite and positive"
    elif kind == "dup":
        stamps[2499] = stamps[2498]
        message = "timestamps must be strictly increasing at 6 decimals"
    else:
        stamps[2499] = np.inf
        message = "timestamp inf must be finite"
    path = tmp_path / "d.depths"
    path.write_bytes(_archive_bytes(timestamps=stamps, counts=counts, depths=depths))
    with pytest.raises(TrajectoryFileError) as exc:
        read_depth_sidecar(path)
    assert str(exc.value) == message


# Trajectory values on binary grids print exactly, 180-degree rotations about
# the axes have quaternions of 0 and 1, and the sidecar is binary, so the
# columns read back bit for bit.
def test_writer_output_never_reaches_the_line_reader(tmp_path):
    rotations = np.array([np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
                          np.diag([-1.0, -1.0, 1.0])] * 3)
    counts = [3, 0, 96, 1, 5, 0, 2, 7, 4, 0, 8, 6]
    traj = Trajectory.from_columns(100.0 + 0.25 * np.arange(12), rotations,
                                   np.arange(36.0).reshape(12, 3) / 8.0 - 2.0,
                                   1.0 + np.arange(sum(counts)) / 4.0, np.cumsum([0] + counts))
    tp, dp = tmp_path / "t.txt", tmp_path / "t.depths"
    write_trajectory(tp, traj)
    write_depth_sidecar(dp, traj)
    back = read_trajectory(tp, dp)
    for name in ("timestamps", "rotations", "translations", "depths", "depth_offsets"):
        assert np.array_equal(getattr(back, name), getattr(traj, name)), name


# Depths from 1e-300 to 1e300 and keyframes without depths, in 0 to 5
# keyframes: the sidecar archive reads back bit for bit, with an entry for
# each keyframe that has depths.
_DEPTH = st.floats(1e-300, 1e300) | st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=200)
@given(offset=st.floats(-1e3, 1e3), data=st.data(),
       counts=st.lists(st.integers(0, 4), max_size=5))
def test_depth_sidecar_round_trips_bit_for_bit(offset, data, counts):
    depths = data.draw(st.lists(_DEPTH, min_size=sum(counts), max_size=sum(counts)))
    n = len(counts)
    traj = Trajectory.from_columns(offset + 0.25 * np.arange(n), np.tile(np.eye(3), (n, 1, 1)),
                                   np.zeros((n, 3)), depths, np.cumsum([0] + counts))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.depths")
        write_depth_sidecar(path, traj)
        back = read_depth_sidecar(path)
    expected = [(timestamp_key(t), traj.depths[lo:hi]) for t, lo, hi in
                zip(traj.timestamps.tolist(), traj.depth_offsets[:-1], traj.depth_offsets[1:])
                if hi > lo]
    assert list(back) == [key for key, _ in expected]
    for key, d in expected:
        assert back[key].dtype == np.float64 and np.array_equal(back[key], d)


def _archive_bytes(**arrays):
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


# Every truncation of a small sidecar archive, from 0 bytes, and one flipped
# bit in each of its bytes, the zip magic included, either reads or raises
# TrajectoryFileError: never another error.
def test_damaged_sidecar_archive_is_a_trajectory_file_error(tmp_path):
    data = _archive_bytes(timestamps=np.array([0.5, 1.0, 1.5]),
                          counts=np.array([2, 0, 1], dtype=np.int64),
                          depths=np.array([1.5, 2.5, 3.5]))
    rng = np.random.default_rng(0)
    damaged = [data[:n] for n in range(len(data))]
    for k in range(len(data)):
        flipped = bytearray(data)
        flipped[k] ^= 1 << int(rng.integers(8))
        damaged.append(bytes(flipped))
    path = tmp_path / "d.depths"
    outcomes = set()
    for blob in damaged:
        path.write_bytes(blob)
        try:
            outcomes.add(type(read_depth_sidecar(path)))
        except TrajectoryFileError:
            outcomes.add(TrajectoryFileError)
    assert TrajectoryFileError in outcomes and outcomes <= {dict, TrajectoryFileError}


# Every member of a written sidecar carries the fixed zip date of 1980-01-01,
# not the clock's, so two writes of one trajectory are byte-identical even
# when they fall in different 2-second DOS time slots.
def test_sidecar_bytes_do_not_depend_on_the_clock(tmp_path):
    traj = simple_trajectory()
    first, second = tmp_path / "a.depths", tmp_path / "b.depths"
    write_depth_sidecar(first, traj)
    with zipfile.ZipFile(first) as archive:
        members = archive.infolist()
    assert [m.filename for m in members] == ["timestamps.npy", "counts.npy", "depths.npy"]
    assert {m.date_time for m in members} == {(1980, 1, 1, 0, 0, 0)}
    write_depth_sidecar(second, traj)
    assert first.read_bytes() == second.read_bytes()


# Generated trajectory text: valid files with a few injected defects, comment,
# blank and whitespace-only lines, CRLF line endings and the whitespace that
# str.split splits at. The reader must raise what the reference reader in
# oracles.py raises, or return bit-identical keyframes.
_STAMPS = ["0.5", "1.0000001", "1.0000002", "2.25", "-0.0", "0.0", "1e1", "10.0", "3.5"]
_DEPTHS = [1.5, 0.25, 3.0, 2e-3, 7.000000001, 4.5]
_JUNK = ["x", "1.0", "nan", "inf", "-inf", "0", "-1", "1e400", "99999999999999999999",
         "+2", "1_0", "#", "0x1", "-0.0", "1.0000003", "2.0", "1e2", "-0"]
_FILLER = ["#", "# note", "", " \t", "  # indented"]
_SEPARATORS = [" ", "\t", "  ", "\x0c", "\u2003", "\x85"]


@st.composite
def _text(draw, rows):
    """``rows`` (lists of fields) as file text, after up to four edits."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["junk", "junk", "junk", "drop", "extra", "copy",
                                     "delete", "swap", "filler", "filler"]))
        k = draw(st.integers(0, max(len(rows) - 1, 0)))
        if kind == "filler" or not rows:
            rows.insert(k, [draw(st.sampled_from(_FILLER))])
        elif kind == "junk" and rows[k]:
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(st.sampled_from(_JUNK))
        elif kind in ("junk", "extra"):
            rows[k].append(draw(st.sampled_from(_JUNK)))
        elif kind == "drop":
            del rows[k][-1:]
        elif kind == "copy":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[k]))
        elif kind == "delete":
            del rows[k]
        else:
            j = draw(st.integers(0, len(rows) - 1))
            rows[k], rows[j] = rows[j], rows[k]
    sep = draw(st.sampled_from(_SEPARATORS))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(sep.join(row) for row in rows) + draw(st.sampled_from(["", newline]))


@st.composite
def _sidecar(draw, stamps):
    """The archive bytes of 0 to 4 depths at each of ``stamps``."""
    counts = [draw(st.integers(0, 4)) for _ in stamps]
    depths = draw(st.lists(st.sampled_from(_DEPTHS), min_size=sum(counts),
                           max_size=sum(counts)))
    return _archive_bytes(timestamps=np.array([float(t) for t in stamps]),
                          counts=np.array(counts, dtype=np.int64), depths=np.array(depths))


_QUATS = ["0 0 0 1", "0 0 0 1.0000005", "0.5 0.5 0.5 0.5", "-0.5 0.5 -0.5 0.5"]


@st.composite
def _trajectory_text(draw, stamps):
    rows = []
    for stamp in stamps:
        t = [f"{v:.9f}" for v in draw(st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3))]
        w = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
        q = draw(st.sampled_from(_QUATS + [" ".join(f"{v:.9f}" for v in
                                                    quat_from_rotation(so3_exp(w)))]))
        rows.append([stamp, *t, *q.split()])
    return draw(_text(rows))


def _outcome(read, *paths):
    try:
        return read(*paths)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc), str(exc)


def _write(directory, name, data: bytes):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


@settings(max_examples=400)
@given(data=st.data())
def test_trajectory_reader_equals_line_reader(data):
    stamps = sorted(data.draw(st.lists(st.sampled_from(_STAMPS + ["5.75", "7.0"]),
                                       min_size=1, max_size=5, unique=True)), key=float)
    traj_text = data.draw(_trajectory_text(stamps))
    side_stamps = sorted(data.draw(st.lists(st.sampled_from(stamps + ["6.125"]), max_size=3,
                                            unique=True)), key=float)
    sidecar = data.draw(st.none() | _sidecar(side_stamps))
    with tempfile.TemporaryDirectory() as directory:
        paths = [_write(directory, "t.txt", traj_text.encode())]
        if sidecar is not None:
            paths.append(_write(directory, "t.depths", sidecar))
        got = _outcome(read_trajectory, *paths)
        expected = _outcome(read_trajectory_lines, *paths)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert len(got) == len(expected)
    for a, b in zip(got.keyframes, expected.keyframes):
        assert type(a.timestamp) is type(b.timestamp) and a.timestamp == b.timestamp
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.translation, b.pose.translation)
        assert np.array_equal(a.depths, b.depths) and a.depths.dtype == b.depths.dtype


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


@settings(max_examples=60)
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
        written_a = {f"{t:.6f}" for t in traj_a.timestamps}
        written_b = {f"{t:.6f}" for t in traj_b.timestamps}
        if written_a & written_b:
            with pytest.raises(TimestampCollisionError):
                merge_trajectories(traj_a, traj_b, sim3)
        else:
            merged = merge_trajectories(traj_a, traj_b, sim3)
            assert len(_round_trip(merged, directory)) == len(traj_a) + len(traj_b)


@settings(max_examples=100)
@given(ticks=st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True),
       offset=st.floats(-1e3, 1e3),
       keyframes=st.lists(_KEYFRAME, min_size=8, max_size=8))
def test_read_write_round_trips_columns(ticks, offset, keyframes):
    traj = _trajectory(ticks, offset, keyframes)
    with tempfile.TemporaryDirectory() as directory:
        tp, dp = os.path.join(directory, "t.txt"), os.path.join(directory, "t.depths")
        write_trajectory(tp, traj)
        write_depth_sidecar(dp, traj)
        back = read_trajectory(tp, dp)
    assert [f"{t:.6f}" for t in back.timestamps] == [f"{t:.6f}" for t in traj.timestamps]
    assert np.all(np.abs(back.timestamps - traj.timestamps) <= 5e-7 + 1e-15 * abs(offset))
    assert np.max(np.abs(back.rotations - traj.rotations)) < 1e-8
    assert np.max(np.abs(back.translations - traj.translations)) <= 5e-10 + 1e-13
    assert np.array_equal(back.depth_offsets, traj.depth_offsets)
    assert np.all(np.abs(back.depths - traj.depths) <= 5e-10 + 1e-15 * traj.depths)


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


@settings(max_examples=100)
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


@pytest.mark.parametrize("read, text, error, stage", [
    (read_match_file, "intrinsics 0 1 1 0 0 2 2\n\nintrinsics 2 1 1 0 0 2 2\n",
     MatchFileError, "line 3"),
    (read_match_file, "intrinsics 0 1 1 0 0 2 2\n", MatchFileError, None),
    (read_trajectory, "# t x y z qx qy qz qw\n0 0 0 0 0 0 0 1\n1 0 0 0 0 0 0 2\n",
     TrajectoryFileError, "line 3"),
    (read_trajectory, "1 0 0 0 0 0 0 1\n0 0 0 0 0 0 0 1\n", TrajectoryFileError, None),
    (read_depth_sidecar, "0 1 1.0\n", TrajectoryFileError, None),
], ids=["match-line", "match-file", "trajectory-line", "trajectory-file", "sidecar-file"])
def test_a_refused_line_is_the_stage_of_its_error(tmp_path, read, text, error, stage):
    path = tmp_path / "refused.txt"
    path.write_text(text)
    with pytest.raises(error) as exc:
        read(str(path))
    assert exc.value.stage == stage
    assert str(exc.value) == (f"{stage}: " if stage else "") + exc.value.args[0]


# A pose with quaternion norm 2 on line 3, then a later refusal: the poses are
# checked together after the lines are read, and the defective one still wins.
# The 0xff byte sits beyond the text reader's first 8 KiB chunk.
_GOOD_POSE = "{} 0 0 0 0 0 0 1\n"


@pytest.mark.parametrize("later", [
    b"9 0 0 0 0 0 0\n",
    b"9 0 0 0 0 0 0 x\n",
    b"9 0 0 0 0 0 nan 1\n",
    b"# pad\n" * 2000 + b"9 0 0 \xff 0 0 0 1\n",
], ids=["field-count", "unparsable", "non-finite", "undecodable"])
def test_first_defective_pose_wins_over_a_later_refusal(tmp_path, later):
    text = (_GOOD_POSE.format(1) + "# comment\n" + "2 0 0 0 0 0 0 2\n"
            + _GOOD_POSE.format(3)).encode() + later
    path = tmp_path / "t.txt"
    path.write_bytes(text)
    with pytest.raises(TrajectoryFileError) as exc:
        read_trajectory(str(path))
    assert str(exc.value) == "line 3: quaternion norm 2.0 is not 1"
    with pytest.raises(TrajectoryFileError) as exc:
        read_trajectory_lines(str(path))
    assert str(exc.value) == "line 3: quaternion norm 2.0 is not 1"


# Counts whose int64 sum wraps to the number of depths are still refused.
def test_sidecar_counts_whose_int64_sum_wraps_are_refused(tmp_path):
    path = tmp_path / "d.depths"
    path.write_bytes(_archive_bytes(timestamps=np.array([0.5, 1.0, 1.5]),
                                    counts=np.array([2 ** 63 - 1, 2 ** 63 - 1, 2],
                                                    dtype=np.int64),
                                    depths=np.zeros(0)))
    with pytest.raises(TrajectoryFileError, match=r"got 3 summing to 18446744073709551616, "
                                                  r"least 2$"):
        read_depth_sidecar(path)
