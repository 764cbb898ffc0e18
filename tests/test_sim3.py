import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_scale

from sedslam.errors import InsufficientInliersError, TimestampCollisionError, TooFewDepthsError
from sedslam.geom import RelativePose, Se3Pose, Sim3Transform, rotation_angle, so3_exp
from sedslam.metrics import ate_rmse
from sedslam.sim3 import (
    JoinCandidate,
    Keyframe,
    ScaleEstimate,
    Trajectory,
    build_sim3,
    estimate_join,
    estimate_scale,
    merge_trajectories,
    triangulated_depths,
)
from sedslam.synth import build_join_candidate, make_trajectory_pair
from sedslam.twoview import AnchorMatchSet
from sedslam.geom import Intrinsics

K = Intrinsics(256.0, 256.0, 256.0, 256.0)
SIZE = (512.0, 512.0)


def random_sim3(rng, scale=None):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Sim3Transform(scale if scale is not None else rng.uniform(0.5, 2.0),
                         so3_exp(rng.uniform(0.1, 0.5) * axis),
                         rng.uniform(-2.0, 2.0, size=3))


def gt_relative_pose(pose_a: Se3Pose, pose_b: Se3Pose):
    """Metric a-camera to b-camera transform and its baseline length."""
    rel = pose_b.inverse().compose(pose_a)
    baseline = float(np.linalg.norm(rel.translation))
    return RelativePose(rel.rotation, rel.translation / baseline), baseline


def gt_merged_trajectory(pair):
    kfs = list(pair.traj_a.keyframes)
    for kf, pose in zip(pair.traj_b.keyframes, pair.poses_b_metric):
        kfs.append(Keyframe(kf.timestamp, pose, kf.depths * pair.gt_sim3.scale))
    return Trajectory(tuple(sorted(kfs, key=lambda k: k.timestamp)))


def scene_diameter(traj):
    pos = traj.positions()
    return max(np.linalg.norm(pos[i] - pos[j])
               for i in range(len(pos)) for j in range(len(pos)))


class TestTriangulatedDepths:
    def test_noise_free_depths_match_ground_truth(self):
        pair = make_trajectory_pair(0, sim3=random_sim3(np.random.default_rng(0), 2.0))
        ia, ib = pair.pairs[0]
        cand = build_join_candidate(pair, ia, ib)
        pose, baseline = gt_relative_pose(pair.traj_a.keyframes[ia].pose,
                                          pair.poses_b_metric[ib])
        cand.pose = pose
        tri = triangulated_depths(cand)
        vo_a = pair.traj_a.keyframes[ia].depths[cand.anchor_ids0]
        err_a = np.abs(tri.depths0[tri.valid0] * baseline - vo_a[tri.valid0])
        assert err_a.max() < 1e-6
        # b side is stored at 1/scale, so metric depth is stored * scale
        vo_b = pair.traj_b.keyframes[ib].depths[cand.anchor_ids1] * pair.gt_sim3.scale
        err_b = np.abs(tri.depths1[tri.valid1] * baseline - vo_b[tri.valid1])
        assert err_b.max() < 1e-6

    def test_pure_rotation_pair_has_no_valid_depths(self):
        # Matches generated by a camera rotating about its own center obey a
        # homography; with the true rotation every ray pair is parallel.
        rng = np.random.default_rng(1)
        rot = so3_exp(np.radians(6.0) * np.array([0.0, 1.0, 0.0]))
        pts = np.stack([rng.uniform(-0.8, 0.8, 30), rng.uniform(-0.8, 0.8, 30),
                        rng.uniform(1.5, 3.0, 30)], axis=1)
        km = K.matrix()
        p1 = pts @ km.T
        u1 = p1[:, :2] / p1[:, 2:3]
        p2 = (pts @ rot.T) @ km.T
        u2 = p2[:, :2] / p2[:, 2:3]
        mset = AnchorMatchSet(u1[:15], u2[:15], np.ones(15), u2[15:], u1[15:], np.ones(15),
                              K, K, SIZE, SIZE)
        cand = JoinCandidate(0, 0, mset, np.arange(15), np.arange(15),
                             pose=RelativePose(rot, [1.0, 0.0, 0.0]))
        with pytest.raises(TooFewDepthsError):
            triangulated_depths(cand)

    def test_mirrored_pose_drops_behind_camera_points(self):
        pair = make_trajectory_pair(2)
        ia, ib = pair.pairs[0]
        cand = build_join_candidate(pair, ia, ib)
        pose, _ = gt_relative_pose(pair.traj_a.keyframes[ia].pose, pair.poses_b_metric[ib])
        cand.pose = RelativePose(pose.rotation, -pose.translation_dir)
        with pytest.raises(TooFewDepthsError):
            triangulated_depths(cand)


class TestKeyframe:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_depth_raises(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            Keyframe(0.0, Se3Pose.identity(), [1.0, bad, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_timestamp_raises(self, bad):
        with pytest.raises(ValueError, match="timestamp must be finite"):
            Keyframe(bad, Se3Pose.identity(), [1.0])


class TestEstimateScale:
    def test_exact_ratio(self):
        rng = np.random.default_rng(3)
        dp = rng.uniform(0.5, 5.0, size=40)
        est = estimate_scale(2.0 * dp, dp)
        assert est.scale == pytest.approx(2.0, rel=1e-12)
        assert est.inlier_fraction == 1.0

    def test_mixture_recovers_dominant_ratio(self):
        rng = np.random.default_rng(4)
        n = 50
        dp = rng.uniform(0.5, 5.0, size=n)
        d = 3.0 * dp
        n_out = 20
        d[:n_out] = rng.uniform(0.1, 10.0, size=n_out) * dp[:n_out]
        est = estimate_scale(d, dp)
        assert 3.0 / 1.05 < est.scale < 3.0 * 1.05
        assert est.inlier_count >= 30

    def test_singleton(self):
        est = estimate_scale([4.2], [2.1])
        assert est.scale == pytest.approx(2.0)
        assert est.inlier_count == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            estimate_scale([], [])

    @pytest.mark.parametrize("ratio_bound", [np.nan, np.inf, 1.0, 0.5])
    def test_ratio_bound_must_be_finite_and_exceed_1(self, ratio_bound):
        with pytest.raises(ValueError, match="ratio bound must be finite and exceed 1"):
            estimate_scale([1.0, 2.0], [1.0, 2.0], ratio_bound)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("side", ["map", "triangulated"])
    def test_non_finite_or_non_positive_depth_raises(self, side, bad):
        d = np.array([1.0, 2.0, 2.0, 3.0])
        dp = np.array([0.5, 1.0, 1.0, 1.5])
        (d if side == "map" else dp)[1] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            estimate_scale(d, dp)

    def test_equivariance_under_depth_scaling(self):
        rng = np.random.default_rng(5)
        dp = rng.uniform(0.5, 5.0, size=30)
        d = rng.uniform(0.2, 8.0, size=30) * dp
        base = estimate_scale(d, dp)
        for c in (2.0, 0.5, 4.0):  # dyadic factors scale floats exactly
            scaled = estimate_scale(c * d, dp)
            assert scaled.scale == c * base.scale
            assert scaled.inlier_count == base.inlier_count

    def test_matches_naive_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = rng.integers(3, 40)
            dp = rng.uniform(0.3, 6.0, size=n)
            d = rng.uniform(0.2, 8.0, size=n) * dp
            est = estimate_scale(d, dp)
            best_count, best_s = -1, None
            for k in range(n):
                s = d[k] / dp[k]
                count = 0
                for j in range(n):
                    r = d[j] / (s * dp[j])
                    if 1.0 / 1.05 < r < 1.05:
                        count += 1
                if count > best_count or (count == best_count and s < best_s):
                    best_count, best_s = count, s
            assert est.scale == best_s
            assert est.inlier_count == best_count

    @pytest.mark.parametrize("d, dp, named", [
        ([1e-300], [1e100], "map depth 1e-300 over triangulated depth 1e+100"),
        ([1e-300, 1.0], [1e100, 1.0], "map depth 1e-300 over triangulated depth 1e+100"),
        ([1.0, 1e300], [1.0, 1e-100], "map depth 1e+300 over triangulated depth 1e-100"),
        ([1.0, 1e-310], [1.0, 2.0], "map depth 1e-310 over triangulated depth 2.0"),
    ])
    def test_ratio_outside_normal_range_names_depths(self, d, dp, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                estimate_scale(d, dp)
        assert str(exc.value) == (
            f"{named} gives a ratio outside the normal floating-point range")

    def test_abnormal_magnitudes_match_brute_force(self):
        # Products of depths and candidate scales that underflow or overflow
        # round without a relative bound, so no band margin covers them.
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            d = np.maximum(10.0 ** rng.uniform(-320.0, 300.0, size=n), 5e-324)
            dp = np.maximum(10.0 ** rng.uniform(-320.0, 300.0, size=n), 5e-324)
            with np.errstate(over="ignore", under="ignore"):
                ratio = d / dp
            normal = (ratio >= np.finfo(float).tiny) & (ratio <= np.finfo(float).max)
            for ratio_bound in (1.0 + 2.0 ** -52, 1.05, 1e300):
                if not normal.all():
                    with pytest.raises(ValueError, match="normal floating-point range"):
                        estimate_scale(d, dp, ratio_bound)
                if not normal.any():
                    continue
                with np.errstate(divide="ignore", over="ignore"):
                    expected = brute_force_scale(d[normal], dp[normal], ratio_bound)
                    assert estimate_scale(d[normal], dp[normal], ratio_bound) == expected

    def test_memory_stays_linear_at_100k_depths(self):
        rng = np.random.default_rng(14)
        n = 100_000
        dp = rng.uniform(0.3, 6.0, size=n)
        d = 2.0 * dp * rng.lognormal(0.0, 0.03, size=n)
        d[: n // 10] = rng.uniform(0.1, 10.0, size=n // 10) * dp[: n // 10]
        tracemalloc.start()
        try:
            est = estimate_scale(d, dp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Scoring every pair would take n² float64 ratios, about 80 GB.
        assert peak < 64 * 2 ** 20
        assert 2.0 / 1.05 < est.scale < 2.0 * 1.05


@st.composite
def _vote_inputs(draw):
    ratio_bound = draw(st.sampled_from([1.0 + 1e-12, 1.05, 2.0]))
    base = draw(st.floats(0.1, 10.0))
    # Ratios base * ratio_bound**k lie on each other's band edges.
    on_edge = st.integers(-3, 3).map(lambda k: base * ratio_bound ** k)
    pool = draw(st.lists(st.tuples(st.one_of(on_edge, st.floats(0.1, 10.0)),
                                   st.floats(0.3, 6.0)), min_size=1, max_size=12))
    # Drawing pairs from a small pool repeats ratios and ties counts.
    pairs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    dp = np.array([t for _, t in pairs])
    return np.array([r for r, _ in pairs]) * dp, dp, ratio_bound


@settings(max_examples=300)
@given(inputs=_vote_inputs())
@example(inputs=(np.array([4.2]), np.array([2.1]), 1.0 + 1e-12))
@example(inputs=(np.array([1.0, 1.05, 1.05 ** 2]), np.ones(3), 1.05))
def test_vote_equals_brute_force(inputs):
    d, dp, ratio_bound = inputs
    assert estimate_scale(d, dp, ratio_bound) == brute_force_scale(d, dp, ratio_bound)


class TestBuildSim3:
    def test_equal_scales_give_unit_scale(self):
        pose = RelativePose(so3_exp([0.1, 0.2, 0.3]), np.array([0.0, 0.0, 1.0]))
        s = build_sim3(pose, ScaleEstimate(1.7, 10, 1.0), ScaleEstimate(1.7, 10, 1.0))
        assert s.scale == pytest.approx(1.0)

    def test_round_trip_against_known_transform(self):
        rng = np.random.default_rng(7)
        gt = random_sim3(rng, 2.0)
        pair = make_trajectory_pair(8, sim3=gt)
        ia, ib = pair.pairs[0]
        cand = build_join_candidate(pair, ia, ib)
        est = estimate_join(pair.traj_a, pair.traj_b, cand)
        # camera-level reference: G_a^-1 . S_world . G_b
        gt_cam = (Sim3Transform.from_se3(pair.traj_a.keyframes[ia].pose).inverse()
                  .compose(gt)
                  .compose(Sim3Transform.from_se3(pair.traj_b.keyframes[ib].pose)))
        cam = est.camera_sim3
        assert abs(cam.scale / gt_cam.scale - 1.0) < 0.05
        assert np.degrees(rotation_angle(cam.rotation.T @ gt_cam.rotation)) < 1.0
        baseline = est.scale_a.scale
        assert np.linalg.norm(cam.translation - gt_cam.translation) < 0.05 * baseline

    def test_translation_uses_side_a_magnitude(self):
        # The alternative reading of the transform (translation scaled by the
        # b-side magnitude) breaks the round trip whenever the scales differ.
        rng = np.random.default_rng(9)
        gt = random_sim3(rng, 2.0)
        pair = make_trajectory_pair(10, sim3=gt)
        ia, ib = pair.pairs[0]
        cand = build_join_candidate(pair, ia, ib)
        est = estimate_join(pair.traj_a, pair.traj_b, cand)
        gt_cam = (Sim3Transform.from_se3(pair.traj_a.keyframes[ia].pose).inverse()
                  .compose(gt)
                  .compose(Sim3Transform.from_se3(pair.traj_b.keyframes[ib].pose)))
        pose = est.candidate.pose
        alt_translation = -est.scale_b.scale * (pose.rotation.T @ pose.translation_dir)
        good_err = np.linalg.norm(est.camera_sim3.translation - gt_cam.translation)
        alt_err = np.linalg.norm(alt_translation - gt_cam.translation)
        assert alt_err > 10.0 * good_err

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -0.1, 1.5])
    def test_inlier_threshold_must_lie_in_unit_interval(self, threshold):
        pose = RelativePose(np.eye(3), [1.0, 0.0, 0.0])
        est = ScaleEstimate(1.0, 30, 1.0)
        with pytest.raises(ValueError, match=r"inlier threshold must lie in \[0, 1\]"):
            build_sim3(pose, est, est, threshold)

    def test_low_inlier_fraction_raises(self):
        pose = RelativePose(np.eye(3), [1.0, 0.0, 0.0])
        good = ScaleEstimate(1.0, 30, 0.9)
        bad = ScaleEstimate(1.0, 3, 0.1)
        with pytest.raises(InsufficientInliersError):
            build_sim3(pose, good, bad)
        with pytest.raises(InsufficientInliersError):
            build_sim3(pose, bad, good)


class TestMerge:
    def _simple_trajectory(self, t0=0.0, n=6, seed=0):
        rng = np.random.default_rng(seed)
        kfs = []
        for i in range(n):
            pose = Se3Pose(so3_exp(0.1 * rng.normal(size=3)), rng.normal(size=3))
            kfs.append(Keyframe(t0 + 0.1 * i, pose, rng.uniform(1.0, 3.0, size=4)))
        return Trajectory(tuple(kfs))

    def test_identity_merge_is_sorted_concatenation(self):
        a = self._simple_trajectory(0.0, seed=1)
        b = self._simple_trajectory(10.0, seed=2)
        merged = merge_trajectories(a, b, Sim3Transform.identity())
        assert len(merged) == len(a) + len(b)
        ts = merged.timestamps()
        assert np.all(np.diff(ts) > 0.0)
        assert np.allclose(merged.positions()[: len(a)], a.positions())
        assert np.allclose(merged.positions()[len(a):], b.positions())

    def test_split_and_rejoin_round_trip(self):
        full = self._simple_trajectory(0.0, n=10, seed=3)
        first = Trajectory(full.keyframes[:5])
        second = Trajectory(full.keyframes[5:])
        s = random_sim3(np.random.default_rng(4))
        stored = Trajectory(tuple(
            Keyframe(k.timestamp, s.inverse().transform_pose(k.pose), k.depths / s.scale)
            for k in second.keyframes))
        merged = merge_trajectories(first, stored, s)
        assert ate_rmse(merged, full, mode="se3", max_dt=1e-6) < 1e-6

    def test_depths_scale_with_transform(self):
        a = self._simple_trajectory(0.0, seed=5)
        b = self._simple_trajectory(10.0, seed=6)
        s = random_sim3(np.random.default_rng(7), scale=2.0)
        merged = merge_trajectories(a, b, s)
        for kf_m, kf_b in zip(merged.keyframes[len(a):], b.keyframes):
            assert np.array_equal(kf_m.depths, 2.0 * kf_b.depths)

    def test_timestamp_collision_raises(self):
        a = self._simple_trajectory(0.0, seed=8)
        b = self._simple_trajectory(0.0, seed=9)
        with pytest.raises(TimestampCollisionError):
            merge_trajectories(a, b, Sim3Transform.identity())

    def test_collision_below_file_precision_raises(self):
        pose = Se3Pose.identity()
        a = Trajectory((Keyframe(1.0, pose, [1.0]),))
        b = Trajectory((Keyframe(1.0000001, pose, [1.0]),))
        with pytest.raises(TimestampCollisionError):
            merge_trajectories(a, b, Sim3Transform.identity())


class TestJoinPipeline:
    def test_identical_trajectories_give_identity(self):
        pair = make_trajectory_pair(11, sim3=Sim3Transform.identity(), overlap=1.0)
        cand = build_join_candidate(pair, *pair.pairs[0])
        est = estimate_join(pair.traj_a, pair.traj_b, cand)
        s = est.world_sim3
        assert abs(s.scale - 1.0) < 1e-6
        assert rotation_angle(s.rotation) < 1e-6
        assert np.linalg.norm(s.translation) < 1e-6

    def test_round_trip_ate_below_one_percent_of_diameter(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            gt = random_sim3(rng)
            pair = make_trajectory_pair(seed, sim3=gt)
            cand = build_join_candidate(pair, *pair.pairs[0])
            est = estimate_join(pair.traj_a, pair.traj_b, cand)
            merged = merge_trajectories(pair.traj_a, pair.traj_b, est.world_sim3)
            reference = gt_merged_trajectory(pair)
            ate = ate_rmse(merged, reference, mode="sim3", max_dt=1e-6)
            assert ate < 0.01 * scene_diameter(reference)

    def test_sim3_inverse_round_trip_on_trajectory(self):
        traj = TestMerge()._simple_trajectory(0.0, n=8, seed=10)
        s = random_sim3(np.random.default_rng(11))
        mapped = Trajectory(tuple(
            Keyframe(k.timestamp, s.transform_pose(k.pose), s.scale * k.depths)
            for k in traj.keyframes))
        back = Trajectory(tuple(
            Keyframe(k.timestamp, s.inverse().transform_pose(k.pose), k.depths / s.scale)
            for k in mapped.keyframes))
        for kf_a, kf_b in zip(traj.keyframes, back.keyframes):
            assert np.max(np.abs(kf_a.pose.rotation - kf_b.pose.rotation)) < 1e-9
            assert np.linalg.norm(kf_a.pose.translation - kf_b.pose.translation) < 1e-9
            assert np.max(np.abs(kf_a.depths - kf_b.depths)) < 1e-9
