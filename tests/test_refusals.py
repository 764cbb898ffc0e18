"""Input checks that refuse a malformed value where it enters: each row of the
tables builds one bad input and names the exception type and exact message."""

import numpy as np
import pytest

from sedslam.ba import Edge, FactorGraph, ba_solve
from sedslam.cli import main
from sedslam.geom import Intrinsics, RelativePose, Se3Pose
from sedslam.metrics import ate_rmse
from sedslam.sim3 import ScaleEstimate
from sedslam.synth import make_trajectory_pair
from sedslam.twoview import AnchorMatchSet

K = Intrinsics(256.0, 256.0, 256.0, 256.0)
SIZE = (512.0, 512.0)
IDENTITY = Se3Pose(np.eye(3), np.zeros(3))


def graph(n_anchors=(3, 3), n_depths=None, edges=(), n_intrinsics=2):
    """Two-frame factor graph with the given anchors and depths per frame."""
    n_depths = n_depths or n_anchors
    return FactorGraph([IDENTITY, IDENTITY], [K] * n_intrinsics,
                       [np.full((n, 2), 100.0) for n in n_anchors],
                       [np.ones(n) for n in n_depths], list(edges))


def match_set(n0=5, n1=5, **change):
    """Valid-by-default match set with ``change`` substituted per field."""
    fields = {"anchors0": np.full((n0, 2), 100.0), "matches0": np.full((n0, 2), 200.0),
              "weights0": np.ones(n0), "anchors1": np.full((n1, 2), 100.0),
              "matches1": np.full((n1, 2), 200.0), "weights1": np.ones(n1)}
    fields.update(change)
    return AnchorMatchSet(**fields, intrinsics0=K, intrinsics1=K, size0=SIZE, size1=SIZE)


@pytest.mark.parametrize("build, message", [
    (lambda: Edge(0, 1, np.zeros((3, 2)), np.ones(2)), "one weight per match required"),
    (lambda: graph(n_intrinsics=1), "per-frame lists must have equal length"),
    (lambda: graph(n_depths=(3, 2)), "one depth per anchor required"),
    (lambda: graph(edges=[Edge(0, 5, np.zeros((3, 2)), np.ones(3))]),
     "edge (0, 5) references a missing frame"),
    (lambda: graph(edges=[Edge(0, 1, np.zeros((2, 2)), np.ones(2))]),
     "edge must carry one match per owner-frame anchor"),
    (lambda: ba_solve(graph(n_anchors=(3, 2))), "bundle adjustment needs at least 6 anchors"),
    (lambda: RelativePose(np.eye(2), [1.0, 0.0, 0.0]), "rotation must be 3x3, got (2, 2)"),
    (lambda: Se3Pose(np.eye(3), [0.0, 0.0]), "translation must be a 3-vector, got (2,)"),
    (lambda: RelativePose(np.eye(3), [1.0, 0.0]), "translation_dir must be a 3-vector"),
    (lambda: ate_rmse(*[make_trajectory_pair(0).traj_a] * 2, mode="se2"),
     "unknown alignment mode 'se2'"),
    (lambda: ScaleEstimate(0.0, 10, 1.0), "scale must be positive"),
    (lambda: make_trajectory_pair(0, overlap=0.0), "overlap must lie in (0, 1]"),
    (lambda: make_trajectory_pair(0, overlap=1.5), "overlap must lie in (0, 1]"),
    (lambda: match_set(anchors0=np.full((5, 2), np.nan)), "anchors0 must be finite"),
    (lambda: match_set(weights0=np.ones(4)), "weights0 must have one entry per anchor"),
    (lambda: match_set(weights1=np.full(5, 1.5)), "weights1 must lie in [0, 1]"),
    (lambda: match_set(matches0=np.zeros((4, 2))), "every anchor needs exactly one match"),
])
def test_library_refusal(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


def test_basin_grid_without_a_step_exits_1(tmp_path, capsys):
    out = tmp_path / "basin.csv"
    assert main(["basin", "--mode", "sed_only", "--grid", "0:90", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: grid must be start:stop:step, got '0:90'\n"
    assert not out.exists()


def test_join_frame_out_of_range_exits_1(tmp_path, capsys):
    assert main(["synth", "traj-pair", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    d = {name: str(tmp_path / name) for name in ("trajA.txt", "trajA.depths", "trajB.txt",
                                                  "trajB.depths", "matches.txt")}
    out, sim3_out = tmp_path / "merged.txt", tmp_path / "sim3.json"
    assert main(["join", d["trajA.txt"], d["trajB.txt"], d["matches.txt"],
                 "--depths-a", d["trajA.depths"], "--depths-b", d["trajB.depths"],
                 "--frame-a", "99", "--out", str(out), "--sim3-out", str(sim3_out)]) == 1
    assert capsys.readouterr().err == "error: join frame index out of range\n"
    assert not out.exists() and not sim3_out.exists()
