import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_scale, merge_keyframes

from sedslam.errors import (
    InsufficientInliersError,
    InsufficientMatchesError,
    RankDeficiencyError,
    TimestampCollisionError,
    TooFewDepthsError,
)
from sedslam.geom import (RelativePose, Se3Pose, Sim3Transform, calibrated_rays, rotation_angle,
                          so3_exp)
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
from sedslam.synth import NoiseModel, build_join_candidate, make_trajectory_pair
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
    pos = traj.translations
    return max(np.linalg.norm(pos[i] - pos[j])
               for i in range(len(pos)) for j in range(len(pos)))


class TestTriangulatedDepths:
    def test_noise_free_depths_match_ground_truth(self):
        pair = make_trajectory_pair(0, sim3=random_sim3(np.random.default_rng(0), 2.0))
        ia, ib = pair.pairs[0]
        cand = build_join_candidate(pair, ia, ib)
        pose, baseline = gt_relative_pose(pair.traj_a.keyframes[ia].pose,
                                          pair.poses_b_metric[ib])
        tri = triangulated_depths(pose, cand.matches)
        vo_a = pair.traj_a.keyframes[ia].depths[cand.anchor_ids0]
        err_a = np.abs(tri.depths0[tri.valid0] * baseline - vo_a[tri.valid0])
        assert err_a.max() < 1e-6
        # b side is stored at 1/scale, so metric depth is stored * scale
        vo_b = pair.traj_b.keyframes[ib].depths[cand.anchor_ids1] * pair.gt_sim3.scale
        err_b = np.abs(tri.depths1[tri.valid1] * baseline - vo_b[tri.valid1])
        assert err_b.max() < 1e-6

    def test_join_reports_dropped_depths(self):
        # A match on its anchor's rotated ray has no parallax, so its depth is
        # dropped; zero weights keep the solve itself unchanged.
        pair = make_trajectory_pair(8)
        ia, ib = pair.pairs[0]
        cand = build_join_candidate(pair, ia, ib)
        pose, _ = gt_relative_pose(pair.traj_a.keyframes[ia].pose, pair.poses_b_metric[ib])
        m = cand.matches
        on_ray = calibrated_rays(m.anchors0[:3], m.intrinsics0) @ pose.rotation.T
        on_ray = on_ray @ m.intrinsics1.matrix().T
        matches0, weights0 = m.matches0.copy(), m.weights0.copy()
        matches0[:3], weights0[:3] = on_ray[:, :2] / on_ray[:, 2:], 0.0
        cand = dataclasses.replace(cand, matches=dataclasses.replace(m, matches0=matches0,
                                                                     weights0=weights0))
        est = estimate_join(pair.traj_a, pair.traj_b, cand)
        assert est.n_dropped == triangulated_depths(est.report.pose, cand.matches).n_dropped == 3

    def test_join_leaves_the_frozen_candidate_unchanged(self):
        pair = make_trajectory_pair(0)
        cand = build_join_candidate(pair, *pair.pairs[0])
        fields = {f.name: getattr(cand, f.name) for f in dataclasses.fields(cand)}
        est = estimate_join(pair.traj_a, pair.traj_b, cand)
        assert est.candidate is cand and "pose" not in fields
        assert all(getattr(cand, name) is value for name, value in fields.items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            cand.matches = cand.matches

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
        with pytest.raises(TooFewDepthsError):
            triangulated_depths(RelativePose(rot, [1.0, 0.0, 0.0]), mset)

    def test_mirrored_pose_drops_behind_camera_points(self):
        pair = make_trajectory_pair(2)
        ia, ib = pair.pairs[0]
        cand = build_join_candidate(pair, ia, ib)
        pose, _ = gt_relative_pose(pair.traj_a.keyframes[ia].pose, pair.poses_b_metric[ib])
        with pytest.raises(TooFewDepthsError):
            triangulated_depths(RelativePose(pose.rotation, -pose.translation_dir), cand.matches)


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


def _ulp_chain(x, steps):
    """``x`` moved ``steps`` ulps up (or down, for negative steps)."""
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.inf if steps > 0 else 0.0))
    return x


@st.composite
def _vote_inputs(draw):
    ratio_bound = draw(st.sampled_from([1.0 + 2.0 ** -52, 1.0 + 1e-12, 1.05, 2.0, 1e300]))
    base = draw(st.floats(0.1, 10.0))
    # Ratios base * ratio_bound**k lie on each other's band edges; at 1e300
    # only k in [-1, 1] keeps them finite and normal.
    k_max = 1 if ratio_bound > 1e100 else 3
    on_edge = st.integers(-k_max, k_max).map(lambda k: base * ratio_bound ** k)
    # Ratios packed a few ulps apart crowd the band edges between them.
    packed = st.tuples(on_edge, st.integers(-4, 4)).map(lambda t: _ulp_chain(*t))
    pool = draw(st.lists(st.tuples(st.one_of(on_edge, packed, st.floats(0.1, 10.0)),
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
    # Scoring every pair at ratio_bound = 1e300 overflows and underflows.
    with np.errstate(over="ignore", under="ignore"):
        expected = brute_force_scale(d, dp, ratio_bound)
    assert estimate_scale(d, dp, ratio_bound) == expected


def test_vote_on_crowded_band_edges_stays_linear():
    # Every ratio lies within 1e-9 of every other's band edge, so a vote that
    # re-checks the ratios near an edge does n² work here.
    d = 1.0 + 8.8e-16 * np.arange(2000)
    dp = np.ones_like(d)
    ratio_bound = 1.0 + 1e-12
    tracemalloc.start()
    try:
        est = estimate_scale(d, dp, ratio_bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert est.inlier_count == 2000
    head = slice(0, 400)
    assert (estimate_scale(d[head], dp[head], ratio_bound)
            == brute_force_scale(d[head], dp[head], ratio_bound))


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
        pose = est.report.pose
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
        ts = merged.timestamps
        assert np.all(np.diff(ts) > 0.0)
        assert np.allclose(merged.translations[: len(a)], a.translations)
        assert np.allclose(merged.translations[len(a):], b.translations)

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

    @staticmethod
    def _one_sided(cand, n):
        """The candidate cut to its first ``n`` frame-0 anchors and no frame-1 anchors."""
        m = cand.matches
        none = np.zeros((0, 2))
        mset = AnchorMatchSet(m.anchors0[:n], m.matches0[:n], m.weights0[:n], none, none,
                              np.zeros(0), m.intrinsics0, m.intrinsics1, m.size0, m.size1)
        return JoinCandidate(cand.frame_a, cand.frame_b, mset, cand.anchor_ids0[:n],
                             cand.anchor_ids1[:0])

    @pytest.mark.parametrize("n, error, stage, message", [
        (7, InsufficientMatchesError, "two_view", "need at least 8 usable"),
        (9, TooFewDepthsError, "triangulate", "only 9 valid triangulated depths"),
        (20, TooFewDepthsError, "triangulate", "no valid depths on one side"),
    ])
    def test_error_names_its_stage(self, n, error, stage, message):
        pair = make_trajectory_pair(3)
        cand = self._one_sided(build_join_candidate(pair, *pair.pairs[0]), n)
        with pytest.raises(error, match=message) as exc_info:
            estimate_join(pair.traj_a, pair.traj_b, cand)
        assert exc_info.value.stage == stage

    def test_two_view_sub_stage_is_kept(self):
        # Eight copies of one correspondence: the 8-point design has rank 1.
        none = np.zeros((0, 2))
        mset = AnchorMatchSet(np.full((8, 2), 100.0), np.full((8, 2), 200.0), np.ones(8),
                              none, none, np.zeros(0), K, K, SIZE, SIZE)
        pair = make_trajectory_pair(3)
        cand = JoinCandidate(0, 0, mset, np.arange(8), np.arange(0))
        with pytest.raises(RankDeficiencyError) as exc_info:
            estimate_join(pair.traj_a, pair.traj_b, cand)
        assert exc_info.value.stage == "eight_point"

    def test_scale_vote_failure_names_sim3_stage(self):
        pair = make_trajectory_pair(3)
        ia, ib = pair.pairs[0]
        cand = build_join_candidate(pair, ia, ib)
        # Map depths spread over five decades leave the vote almost no inliers.
        kfs = list(pair.traj_a.keyframes)
        rng = np.random.default_rng(0)
        kfs[ia] = Keyframe(kfs[ia].timestamp, kfs[ia].pose,
                           np.exp(rng.uniform(-6.0, 6.0, len(kfs[ia].depths))))
        with pytest.raises(InsufficientInliersError) as exc_info:
            estimate_join(Trajectory(tuple(kfs)), pair.traj_b, cand)
        assert exc_info.value.stage == "sim3"
        assert str(exc_info.value).startswith("sim3: scale voting inlier fractions")

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


# Trajectory columns. A row is a timestamp step, a rotation vector, a
# translation and the keyframe's depths.
_ROW = st.tuples(st.floats(0.01, 10.0), st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
                 st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
                 st.lists(st.floats(1e-3, 1e3), max_size=4))
_COLUMNS = ("timestamps", "rotations", "translations", "depths", "depth_offsets")


@st.composite
def _rows(draw, min_size=0):
    """(timestamps, rotations, translations, per-keyframe depth lists)."""
    rows = draw(st.lists(_ROW, min_size=min_size, max_size=6))
    ts = draw(st.floats(-1e3, 1e3)) + np.cumsum([r[0] for r in rows])
    return (ts.tolist(), np.reshape([so3_exp(r[1]) for r in rows], (-1, 3, 3)),
            np.reshape([r[2] for r in rows], (-1, 3)), [list(r[3]) for r in rows])


def _from_columns(ts, rot, trans, depths):
    return Trajectory.from_columns(ts, rot, trans, [d for ds in depths for d in ds],
                                   np.cumsum([0] + [len(ds) for ds in depths]))


def _from_keyframes(ts, rot, trans, depths):
    return Trajectory(tuple(Keyframe(t, Se3Pose(r, p), d)
                            for t, r, p, d in zip(ts, rot, trans, depths)))


def _outcome(build):
    try:
        return build()
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc), str(exc)


def _assert_same(a, b):
    for name in _COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert len(a) == len(b) == len(a.keyframes) == len(b.keyframes)
    for i, (ka, kb) in enumerate(zip(a.keyframes, b.keyframes)):
        for k in (ka, kb, a.keyframe(i), b.keyframe(i)):
            assert type(k.timestamp) is float and k.timestamp == a.timestamps[i]
            assert np.array_equal(k.pose.rotation, a.rotations[i])
            assert np.array_equal(k.pose.translation, a.translations[i])
            assert np.array_equal(k.depths, a.depths[a.depth_offsets[i]:a.depth_offsets[i + 1]])


@settings(max_examples=100)
@given(rows=_rows())
def test_columns_and_keyframes_build_equal_trajectories(rows):
    traj = _from_columns(*rows)
    _assert_same(traj, _from_keyframes(*rows))
    _assert_same(traj, Trajectory(traj.keyframes))
    assert [k.depths.tolist() for k in traj.keyframes] == rows[3]


@settings(max_examples=300)
@given(rows=_rows(min_size=1), data=st.data())
def test_bad_columns_raise_what_bad_keyframes_raise(rows, data):
    ts, rot, trans, depths = rows
    rot, trans = rot.copy(), trans.copy()
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(ts) - 1))
        kind = data.draw(st.sampled_from(["stamp", "order", "rotation", "translation", "depth"]))
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if kind == "stamp":
            ts[k] = bad
        elif kind == "order":
            ts[k] = ts[k - 1] - data.draw(st.sampled_from([0.0, 1.0]))
        elif kind == "translation":
            trans[k, data.draw(st.integers(0, 2))] = bad
        elif kind == "depth":
            depths[k] = depths[k] + [data.draw(st.sampled_from([0.0, -1.0, bad]))]
        else:
            how = data.draw(st.sampled_from(["entry", "noise", "flip", "huge"]))
            if how == "entry":
                rot[k, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))] = bad
            elif how == "noise":
                rot[k] += data.draw(st.sampled_from([1e-10, 2e-9, 1e-3])) * np.array(
                    data.draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))).reshape(3, 3)
            elif how == "flip":
                rot[k, 0] = -rot[k, 0]
            else:
                rot[k] *= 1e200
    got = _outcome(lambda: _from_columns(ts, rot, trans, depths))
    expected = _outcome(lambda: _from_keyframes(ts, rot, trans, depths))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        _assert_same(got, expected)


@settings(max_examples=200)
@given(rows_a=_rows(min_size=1), rows_b=_rows(min_size=1),
       shift=st.sampled_from([0.0, 0.005, 4e-7, 6e-7, 1e3]),
       scale=st.sampled_from([1e-320, 1e-3, 0.7, 1.0, 3.0, 1e306]),
       w=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       t=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
def test_merge_equals_keyframe_by_keyframe_merge(rows_a, rows_b, shift, scale, w, t):
    ts_b = [v + shift for v in rows_a[0][:1] + rows_b[0][1:]]
    traj_a = _from_columns(*rows_a)
    traj_b = _from_columns(sorted(set(ts_b)), *(c[:len(set(ts_b))] for c in rows_b[1:]))
    sim3 = Sim3Transform(scale, so3_exp(w), t)
    with np.errstate(over="ignore"):
        got = _outcome(lambda: merge_trajectories(traj_a, traj_b, sim3))
        expected = _outcome(lambda: merge_keyframes(traj_a, traj_b, sim3))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        _assert_same(got, expected)


def test_columns_and_keyframe_views_are_read_only():
    rows = ([0.0, 1.0], np.stack([np.eye(3), so3_exp([0.1, 0.2, 0.3])]),
            np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), [[1.0, 2.0], [3.0]])
    traj = _from_columns(*rows)
    for name in _COLUMNS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(traj, name)[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(traj, name, getattr(traj, name).copy())
    for kf in traj.keyframes + (traj.keyframe(-1),):
        for array in (kf.depths, kf.pose.rotation, kf.pose.translation):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            kf.timestamp = 2.0
    # The columns are copies: changing what they were built from changes nothing.
    rows[1][0, 0, 0] = 5.0
    rows[2][0, 0] = 5.0
    assert traj.rotations[0, 0, 0] == 1.0 and traj.translations[0, 0] == 1.0


@pytest.mark.parametrize("columns, message", [
    (([0.0, 1.0], np.eye(3)[None], np.zeros((2, 3)), [], [0, 0, 0]),
     "rotations of shape \\(2, 3, 3\\)"),
    (([0.0], np.eye(3)[None], np.zeros((1, 2)), [], [0, 0]), "translations of shape \\(1, 3\\)"),
    (([0.0], np.eye(3)[None], np.zeros((1, 3)), [1.0], [0, 2]), "rising from 0 to the 1 depths"),
    (([0.0], np.eye(3)[None], np.zeros((1, 3)), [1.0], [0.0, 1.0]), "2 integers"),
    (([0.0, 1.0], np.stack([np.eye(3)] * 2), np.zeros((2, 3)), [1.0], [0, 1, 0]), "rising"),
])
def test_inconsistent_columns_raise(columns, message):
    with pytest.raises(ValueError, match=message):
        Trajectory.from_columns(*columns)


# Measured on make_trajectory_pair seeds 0-1199, half with 0.5 px match noise, G of
# scale 0.5-1000 and any rotation: scales within 4.5e-16 relative, rotations within
# 2.0e-16 rad, translations within 7.9e-15 of max(1, |t|).
@settings(max_examples=60)
@given(seed=st.integers(0, 10_000), noisy=st.booleans(), scale=st.floats(0.5, 1000.0),
       rotvec=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_join_follows_a_sim3_of_trajectory_b(seed, noisy, scale, rotvec, shift):
    g = Sim3Transform(scale, so3_exp(rotvec), np.array(shift))
    pair = make_trajectory_pair(seed, sim3=random_sim3(np.random.default_rng(seed)))
    noise = NoiseModel(gaussian_sigma=0.5) if noisy else None
    moved_b = Trajectory(Keyframe(k.timestamp, g.transform_pose(k.pose), g.scale * k.depths)
                         for k in pair.traj_b.keyframes)
    t = estimate_join(pair.traj_a, pair.traj_b,
                      build_join_candidate(pair, *pair.pairs[0], noise, seed)).world_sim3
    moved = estimate_join(pair.traj_a, moved_b,
                          build_join_candidate(pair, *pair.pairs[0], noise, seed)).world_sim3
    want = t.compose(g.inverse())
    assert abs(moved.scale / want.scale - 1.0) < 1e-14
    assert rotation_angle(moved.rotation.T @ want.rotation) < 1e-14
    assert (np.linalg.norm(moved.translation - want.translation)
            < 1e-13 * max(1.0, np.linalg.norm(want.translation)))
