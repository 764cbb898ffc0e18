import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import epipolar_line, point_line_error

from sedslam import synth
from sedslam.synth import (
    NoiseModel,
    basin_experiment,
    build_join_candidate,
    make_ba_graph,
    make_trajectory_pair,
    make_two_view,
    write_basin_csv,
)
from sedslam.twoview import solve_two_view


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

    @pytest.mark.parametrize("baseline", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_non_positive_or_non_finite_baseline(self, baseline):
        with pytest.raises(ValueError, match="baseline must be finite and positive"):
            make_two_view(0, baseline=baseline)

    @pytest.mark.parametrize("baseline", [1e-300, 1e-160, 1e160, 1e300])
    def test_rejects_baseline_whose_distances_underflow_or_overflow(self, baseline):
        # Raised before any arithmetic, so no RuntimeWarning comes first.
        with pytest.raises(ValueError, match=r"outside \[1e-150, 1e150\]"):
            make_two_view(0, n_points=8, baseline=baseline)

    @pytest.mark.parametrize("baseline", [1e-150, 1e150])
    def test_extreme_accepted_baselines_build(self, baseline):
        mset, gt = make_two_view(0, n_points=8, baseline=baseline)
        assert np.all(np.isfinite(mset.matches0)) and np.all(np.isfinite(gt.translation_dir))


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n0=st.integers(0, 12), n1=st.integers(0, 12),
       sigma=st.sampled_from([0.0, 0.5, 2.0]), out_frac=st.floats(0.0, 1.0))
def test_stacked_draws_equal_per_direction_draws(seed, n0, n1, sigma, out_frac):
    """One outlier redraw and one ``_corrupt_matches`` call over the stacked
    rows draw what per-row redraws and per-direction calls draw."""
    rows = np.random.default_rng(seed).uniform(0.0, 512.0, size=(n0 + n1, 2))
    noise = NoiseModel(gaussian_sigma=sigma)
    n_out = int(out_frac * (n0 + n1))
    stacked_rng, split_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

    out_idx = stacked_rng.choice(n0 + n1, size=n_out, replace=False)
    stacked = rows.copy()
    stacked[out_idx] = stacked_rng.uniform(0.0, (512.0, 512.0), size=(n_out, 2))
    stacked = synth._corrupt_matches(stacked, stacked_rng, noise)

    split = rows.copy()
    for idx in split_rng.choice(n0 + n1, size=n_out, replace=False):
        split[idx] = [split_rng.uniform(0.0, 512.0), split_rng.uniform(0.0, 512.0)]
    split = np.concatenate([synth._corrupt_matches(split[:n0], split_rng, noise),
                            synth._corrupt_matches(split[n0:], split_rng, noise)])

    assert np.array_equal(stacked, split)
    assert stacked_rng.random() == split_rng.random()


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

    @pytest.mark.parametrize("n_frames", [1, 0, -2])
    def test_rejects_fewer_than_two_frames(self, n_frames):
        with pytest.raises(ValueError, match=f"need at least 2 frames, got n_frames={n_frames}"):
            make_ba_graph(0, n_frames=n_frames)

    @pytest.mark.parametrize("n_anchors", [3, 0, -1])
    def test_rejects_fewer_anchors_than_frames(self, n_anchors):
        with pytest.raises(ValueError, match=f"got n_anchors={n_anchors} for 4 frames"):
            make_ba_graph(0, n_frames=4, n_anchors=n_anchors)

    def test_one_anchor_per_frame_builds(self):
        graph, _, _ = make_ba_graph(0, n_frames=4, n_anchors=4)
        assert [len(a) for a in graph.anchors] == [1, 1, 1, 1]


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

    @pytest.mark.parametrize("n_frames", [1, 0, -2])
    def test_rejects_fewer_than_two_frames(self, n_frames):
        with pytest.raises(ValueError, match="need at least 2 frames per trajectory"):
            make_trajectory_pair(0, n_frames=n_frames)

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

    def test_preconditioned_solves_each_seed_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_two_view(*args)

        monkeypatch.setattr(synth, "solve_two_view", counted)
        rows = basin_experiment(3, [0.0, 30.0, 60.0], "preconditioned")
        assert len(calls) == 3
        assert len(rows) == 9

    @pytest.mark.parametrize("n_seeds", [0, -3])
    def test_rejects_fewer_than_one_seed(self, n_seeds):
        with pytest.raises(ValueError, match="need at least 1 seed"):
            basin_experiment(n_seeds, [0.0], "sed_only")

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

    @pytest.mark.parametrize("kwargs, message", [
        ({"gaussian_sigma": np.nan}, "gaussian_sigma must be finite and >= 0"),
        ({"gaussian_sigma": np.inf}, "gaussian_sigma must be finite and >= 0"),
        ({"outlier_weight": np.nan}, r"outlier_weight must lie in \[0, 1\]"),
        ({"outlier_weight": -0.5}, r"outlier_weight must lie in \[0, 1\]"),
        ({"outlier_weight": 1.5}, r"outlier_weight must lie in \[0, 1\]"),
        ({"outlier_fraction": np.nan}, r"outlier_fraction must lie in \[0, 1\)"),
        ({"gaussian_sigma": np.nextafter(1e150, np.inf)}, r"lies outside \[0, 1e150\]"),
    ])
    def test_rejects_non_finite_or_out_of_range_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            NoiseModel(**kwargs)

    def test_uniform_policy_keeps_unit_weights(self):
        noise = NoiseModel(outlier_fraction=0.3, outlier_weight=1.0)
        mset, _ = make_two_view(3, 40, noise=noise)
        assert np.all(mset.weights0 == 1.0)
        assert np.all(mset.weights1 == 1.0)
