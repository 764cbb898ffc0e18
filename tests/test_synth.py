import numpy as np
import pytest
from oracles import epipolar_line, point_line_error

from sedslam.synth import (
    NoiseModel,
    basin_experiment,
    build_join_candidate,
    make_ba_graph,
    make_trajectory_pair,
    make_two_view,
    write_basin_csv,
)


class TestMakeTwoView:
    def test_deterministic_under_seed(self):
        a, gta = make_two_view(42, 40, noise=NoiseModel(gaussian_sigma=0.5, outlier_fraction=0.2))
        b, gtb = make_two_view(42, 40, noise=NoiseModel(gaussian_sigma=0.5, outlier_fraction=0.2))
        assert np.array_equal(a.anchors0, b.anchors0)
        assert np.array_equal(a.matches0, b.matches0)
        assert np.array_equal(a.matches1, b.matches1)
        assert np.array_equal(a.weights0, b.weights0)
        assert np.array_equal(gta.rotation, gtb.rotation)

    def test_noise_free_epipolar_constraint(self):
        mset, gt = make_two_view(1, 48)
        for a, m in zip(mset.anchors0, mset.matches0):
            line = epipolar_line(a, gt, mset.intrinsics0, mset.intrinsics1)
            assert np.linalg.norm(point_line_error(m, line)) < 1e-9
        inv = gt.inverse()
        for a, m in zip(mset.anchors1, mset.matches1):
            line = epipolar_line(a, inv, mset.intrinsics1, mset.intrinsics0)
            assert np.linalg.norm(point_line_error(m, line)) < 1e-9

    def test_exact_outlier_count(self):
        n = 50
        noise = NoiseModel(outlier_fraction=0.3, outlier_weight=0.01)
        mset, _ = make_two_view(2, n, noise=noise)
        n_out = int(np.sum(mset.weights0 == 0.01) + np.sum(mset.weights1 == 0.01))
        assert n_out == int(np.floor(0.3 * n))

    def test_inlier_residuals_bounded_by_three_sigma(self):
        sigma = 0.8
        for seed in range(5):
            noise = NoiseModel(gaussian_sigma=sigma, outlier_fraction=0.25, outlier_weight=1e-6)
            mset, gt = make_two_view(10 + seed, 40, noise=noise)
            for a, m, w in zip(mset.anchors0, mset.matches0, mset.weights0):
                if w != 1.0:
                    continue
                line = epipolar_line(a, gt, mset.intrinsics0, mset.intrinsics1)
                assert np.linalg.norm(point_line_error(m, line)) <= 3.0 * sigma + 1e-9

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            make_two_view(0, 4)


class TestMakeBaGraph:
    def test_deterministic(self):
        g1, _, _ = make_ba_graph(5, pose_perturb_deg=2.0)
        g2, _, _ = make_ba_graph(5, pose_perturb_deg=2.0)
        for a, b in zip(g1.anchors, g2.anchors):
            assert np.array_equal(a, b)
        for a, b in zip(g1.poses, g2.poses):
            assert np.array_equal(a.rotation, b.rotation)

    def test_depths_positive(self):
        graph, _, _ = make_ba_graph(6, depth_perturb_rel=0.05)
        for d in graph.depths:
            assert np.all(d > 0.0)


class TestMakeTrajectoryPair:
    def test_deterministic(self):
        p1 = make_trajectory_pair(7)
        p2 = make_trajectory_pair(7)
        assert p1.pairs == p2.pairs
        for a, b in zip(p1.traj_a.keyframes, p2.traj_a.keyframes):
            assert np.array_equal(a.depths, b.depths)

    def test_positive_depths_everywhere(self):
        pair = make_trajectory_pair(8)
        for kf in pair.traj_a.keyframes + pair.traj_b.keyframes:
            assert np.all(kf.depths > 0.0)

    def test_candidate_generation_deterministic(self):
        pair = make_trajectory_pair(9)
        c1 = build_join_candidate(pair, *pair.pairs[0], seed=3)
        c2 = build_join_candidate(pair, *pair.pairs[0], seed=3)
        assert np.array_equal(c1.matches.anchors0, c2.matches.anchors0)
        assert np.array_equal(c1.matches.matches0, c2.matches.matches0)

    def test_has_covisible_pairs(self):
        for seed in range(5):
            pair = make_trajectory_pair(20 + seed)
            assert len(pair.pairs) > 0


class TestBasinExperiment:
    def test_zero_init_error_is_accurate(self):
        rows = basin_experiment(5, [0.0], "sed_only")
        for row in rows:
            assert max(row.final_rot_deg, row.final_trans_deg) < 1e-3

    def test_preconditioned_ignores_init(self):
        rows = basin_experiment(5, [0.0, 60.0], "preconditioned")
        for row in rows:
            assert max(row.final_rot_deg, row.final_trans_deg) < 0.1
            assert row.converged

    def test_failure_transition(self):
        rows = basin_experiment(100, [5.0, 60.0], "sed_only")
        ok = {5.0: 0, 60.0: 0}
        for row in rows:
            if max(row.final_rot_deg, row.final_trans_deg) < 0.5:
                ok[row.init_deg] += 1
        assert ok[5.0] >= 2 * ok[60.0]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            basin_experiment(1, [0.0], "newton")

    def test_csv_rows_and_determinism(self, tmp_path):
        rows = basin_experiment(3, [0.0, 10.0], "sed_only")
        assert len(rows) == 6
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_basin_csv(rows, p1)
        write_basin_csv(basin_experiment(3, [0.0, 10.0], "sed_only"), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(outlier_fraction=1.2)
        with pytest.raises(ValueError):
            NoiseModel(gaussian_sigma=-0.1)

    def test_uniform_policy_keeps_unit_weights(self):
        noise = NoiseModel(outlier_fraction=0.3, outlier_weight=1.0)
        mset, _ = make_two_view(3, 40, noise=noise)
        assert np.all(mset.weights0 == 1.0)
        assert np.all(mset.weights1 == 1.0)
