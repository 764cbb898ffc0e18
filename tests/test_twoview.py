import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (epipolar_line, essential_from_pose, is_degenerate_line, point_line_error,
                     sed_jacobian_einsum, select_by_ground_truth)
from test_acceptance import random_config

import sedslam
from sedslam import twoview
from sedslam.errors import (AmbiguityError, InsufficientMatchesError, RankDeficiencyError,
                            SedSlamError)
from sedslam.geom import (
    Intrinsics,
    RelativePose,
    _derived_pose,
    essential_from_fundamental,
    rotation_angle,
    so3_exp,
)
from sedslam.metrics import pose_error
from sedslam.synth import NoiseModel, make_two_view, perturb_pose
from sedslam.twoview import (
    AnchorMatchSet,
    apply_homography,
    chirality_scores,
    clamp_to_epipolar,
    decompose_essential,
    lm_refine_sed,
    normalize_transform,
    sed_cost,
    sed_jacobian,
    select_by_chirality,
    solve_two_view,
    weighted_eight_point,
)

K = Intrinsics(256.0, 256.0, 256.0, 256.0)
SIZE = (512.0, 512.0)


def preconditioned_pose(mset):
    """8-point -> essential -> chirality, without LM refinement."""
    e = essential_from_fundamental(weighted_eight_point(mset), mset.intrinsics0, mset.intrinsics1)
    return select_by_chirality(decompose_essential(e), mset)


def swap_frames(mset):
    return AnchorMatchSet(mset.anchors1, mset.matches1, mset.weights1,
                          mset.anchors0, mset.matches0, mset.weights0,
                          mset.intrinsics1, mset.intrinsics0, mset.size1, mset.size0)


def naive_sed_cost(pose, mset):
    """Per-match loop over both directions, independent of the solver path."""
    total = 0.0
    for a, m, w in zip(mset.anchors0, mset.matches0, mset.weights0):
        line = epipolar_line(a, pose, mset.intrinsics0, mset.intrinsics1)
        total += w * float(np.sum(point_line_error(m, line) ** 2))
    inv = pose.inverse()
    for a, m, w in zip(mset.anchors1, mset.matches1, mset.weights1):
        line = epipolar_line(a, inv, mset.intrinsics1, mset.intrinsics0)
        total += w * float(np.sum(point_line_error(m, line) ** 2))
    return total


def retract(pose, xi):
    rot = so3_exp(xi[:3]) @ pose.rotation
    t = so3_exp(xi[3:]) @ pose.translation_dir
    return RelativePose(rot, t / np.linalg.norm(t))


class TestNormalize:
    def test_corner_maps_to_minus_one(self):
        t = normalize_transform(512.0, 512.0)
        assert np.allclose(t @ [0.0, 0.0, 1.0], [-1.0, -1.0, 1.0])

    def test_center_maps_to_zero(self):
        t = normalize_transform(640.0, 480.0)
        assert np.allclose(t @ [320.0, 240.0, 1.0], [0.0, 0.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        t = normalize_transform(512.0, 512.0)
        t_inv = np.linalg.inv(t)
        for _ in range(50):
            p = rng.uniform(0.0, 512.0, size=3)
            p[2] = 1.0
            assert np.linalg.norm(t_inv @ (t @ p) - p) < 1e-12

    def test_normalized_set_bounds(self):
        # The four arrays the 8-point estimator maps to [-1, 1] before its solve.
        mset, _ = make_two_view(0, 32)
        t0, t1 = normalize_transform(*mset.size0), normalize_transform(*mset.size1)
        for t, points in ((t0, mset.anchors0), (t1, mset.matches0),
                          (t1, mset.anchors1), (t0, mset.matches1)):
            arr = apply_homography(t, points)
            assert np.all(arr >= -1.0) and np.all(arr <= 1.0)


class TestWeightedEightPoint:
    def test_noise_free_recovery(self):
        for seed in range(5):
            mset, gt = make_two_view(seed, 64)
            pose, _ = preconditioned_pose(mset)
            err = pose_error(pose, gt)
            assert err.rot_deg < 0.5
            assert err.trans_deg < 1.0

    def test_downweighted_outliers_match_inlier_only_estimate(self):
        noise = NoiseModel(outlier_fraction=0.3, outlier_weight=1e-6)
        mset, _ = make_two_view(3, 60, noise=noise)
        inl0 = mset.weights0 == 1.0
        inl1 = mset.weights1 == 1.0
        clean = AnchorMatchSet(mset.anchors0[inl0], mset.matches0[inl0], mset.weights0[inl0],
                               mset.anchors1[inl1], mset.matches1[inl1], mset.weights1[inl1],
                               K, K, SIZE, SIZE)
        # Pixel F's are not unit-norm and their entries span orders of
        # magnitude: compare them scaled to unit Frobenius norm.
        f_full, f_clean = (f / np.linalg.norm(f) for f in (weighted_eight_point(mset),
                                                             weighted_eight_point(clean)))
        if np.sum(f_full * f_clean) < 0.0:
            f_clean = -f_clean
        assert np.linalg.norm(f_full - f_clean) < 1e-6

    def test_pure_rotation_planar_scene_is_degenerate(self):
        # Points on the plane z=2 seen by two cameras sharing a center: the
        # correspondences obey a homography, leaving a >=3-dim null space.
        gx, gy = np.meshgrid(np.linspace(-0.8, 0.8, 5), np.linspace(-0.8, 0.8, 5))
        pts = np.stack([gx.ravel(), gy.ravel(), np.full(25, 2.0)], axis=1)
        rot = so3_exp(np.radians(5.0) * np.array([0.0, 1.0, 0.0]))
        km = K.matrix()
        p1 = pts @ km.T
        u1 = p1[:, :2] / p1[:, 2:3]
        p2 = (pts @ rot.T) @ km.T
        u2 = p2[:, :2] / p2[:, 2:3]
        mset = AnchorMatchSet(u1[:13], u2[:13], np.ones(13), u2[13:], u1[13:], np.ones(12),
                              K, K, SIZE, SIZE)
        with pytest.raises(RankDeficiencyError):
            weighted_eight_point(mset)

    def test_too_few_matches(self):
        mset, _ = make_two_view(1, 32)
        starved = AnchorMatchSet(mset.anchors0[:4], mset.matches0[:4], mset.weights0[:4],
                                 mset.anchors1[:3], mset.matches1[:3], mset.weights1[:3],
                                 K, K, SIZE, SIZE)
        with pytest.raises(InsufficientMatchesError):
            weighted_eight_point(starved)

    # An anchor and its match far outside the image overflow the design
    # matrix to inf, on which LAPACK's SVD once never returned; the solve
    # runs in a child process, which such a hang stalls for at most 10 s.
    def test_overflowing_design_matrix_is_refused(self):
        script = "\n".join([
            "from dataclasses import replace",
            "from sedslam.synth import make_two_view",
            "from sedslam.twoview import solve_two_view",
            "mset, _ = make_two_view(1, 32)",
            "far = mset.anchors0.copy()",
            "far[0] = 1e300",
            "try:",
            "    solve_two_view(replace(mset, anchors0=far, matches0=far))",
            "except Exception as exc:",
            "    print(type(exc).__name__, exc)",
        ])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sedslam.__file__)))
        run = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                             text=True, timeout=10, env=env)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == "SedSlamError eight_point: weighted design matrix is not finite\n"

    def test_overflowing_normalization_is_refused_without_a_warning(self):
        mset, _ = make_two_view(0, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SedSlamError) as exc_info:
                solve_two_view(replace(mset, size0=(1e-306, 512)))
        assert exc_info.value.stage == "eight_point"

    # Below about 1e-154 px per side, T1ᵀ F T0 overflows although the
    # normalized points and their F are finite.
    def test_overflowing_pixel_fundamental_is_refused_without_a_warning(self):
        mset, _ = make_two_view(0, 32)
        k = 1e-160 / 512.0
        tiny = replace(mset, anchors0=k * mset.anchors0, matches0=k * mset.matches0,
                       anchors1=k * mset.anchors1, matches1=k * mset.matches1,
                       size0=(1e-160, 1e-160), size1=(1e-160, 1e-160))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SedSlamError) as exc_info:
                solve_two_view(tiny)
        assert str(exc_info.value) == "decompose: essential matrix is not finite"


class TestDecomposeEssential:
    def test_round_trip_contains_pose(self):
        mset, gt = make_two_view(5, 32)
        cands = decompose_essential(essential_from_pose(gt))
        hits = [c for c in cands
                if np.max(np.abs(c.rotation - gt.rotation)) < 1e-6
                and np.linalg.norm(c.translation_dir - gt.translation_dir) < 1e-6]
        assert len(hits) == 1

    def test_candidates_pair_structure(self):
        _, gt = make_two_view(6, 32)
        c = decompose_essential(essential_from_pose(gt))
        assert np.allclose(c[0].rotation, c[2].rotation)
        assert np.allclose(c[1].rotation, c[3].rotation)
        assert np.allclose(c[0].translation_dir, -c[2].translation_dir)
        assert np.allclose(c[1].translation_dir, -c[3].translation_dir)
        assert np.allclose(c[0].translation_dir, c[1].translation_dir)

    def test_all_candidates_reproduce_essential(self):
        _, gt = make_two_view(7, 32)
        e = essential_from_pose(gt)
        e = e / np.linalg.norm(e)
        for cand in decompose_essential(e):
            e_cand = essential_from_pose(cand)
            e_cand = e_cand / np.linalg.norm(e_cand)
            if np.sum(e_cand * e) < 0.0:
                e_cand = -e_cand
            assert np.linalg.norm(e_cand - e) < 1e-6


class TestChirality:
    def test_selects_ground_truth_with_full_support(self):
        mset, gt = make_two_view(8, 40)
        cands = decompose_essential(essential_from_pose(gt))
        pose, idx = select_by_chirality(cands, mset)
        err = pose_error(pose, gt)
        # the translation angle is an arccos, which quantizes at ~8.5e-7 deg near zero
        assert err.rot_deg < 1e-9 and err.trans_deg < 1e-5
        scores = chirality_scores(cands, mset)
        assert scores[idx] == pytest.approx(float(np.sum(mset.weights0) + np.sum(mset.weights1)))

    def test_mirrored_candidate_has_zero_support(self):
        mset, gt = make_two_view(9, 40)
        mirrored = RelativePose(gt.rotation, -gt.translation_dir)
        scores = chirality_scores([gt, mirrored], mset)
        assert scores[1] == 0.0

    def test_only_ground_truth_has_support(self):
        # The twisted-pair candidates put points in front of one camera only.
        for seed in range(3):
            mset, gt = make_two_view(40 + seed, 40)
            scores = chirality_scores(decompose_essential(essential_from_pose(gt)), mset)
            assert sorted(scores) == [0.0, 0.0, 0.0, 40.0]

    def test_empty_direction_scores_zero(self):
        # Every anchor in frame 0: the reverse direction has no anchors.
        m, gt = make_two_view(33, 48)
        one = AnchorMatchSet(np.concatenate([m.anchors0, m.matches1]),
                             np.concatenate([m.matches0, m.anchors1]),
                             np.concatenate([m.weights0, m.weights1]),
                             np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), K, K, SIZE, SIZE)
        cands = decompose_essential(essential_from_pose(gt))
        for cand, score in zip(cands, chirality_scores(cands, one)):
            depths0, front0, depths1, front1 = twoview.front_depths(cand, one)
            assert depths0.shape == front0.shape == (48,)
            assert depths1.shape == front1.shape == (0,)
            assert score == float(np.sum(one.weights0[front0]))
        assert pose_error(solve_two_view(one).pose, gt).max_deg < 1e-5

    def test_zero_weight_set_is_ambiguous(self):
        mset, gt = make_two_view(10, 16)
        dead = AnchorMatchSet(mset.anchors0, mset.matches0, np.zeros(len(mset.anchors0)),
                              mset.anchors1, mset.matches1, np.zeros(len(mset.anchors1)),
                              K, K, SIZE, SIZE)
        cands = decompose_essential(essential_from_pose(gt))
        with pytest.raises(AmbiguityError):
            select_by_chirality(cands, dead)


class TestSelectByGroundTruth:
    def test_returns_exact_match(self):
        mset, gt = make_two_view(11, 24)
        cands = decompose_essential(essential_from_pose(gt))
        chosen = select_by_ground_truth(cands, gt)
        assert pose_error(chosen, gt).max_deg < 1e-5

    def test_agrees_with_chirality_on_noise_free_data(self):
        for seed in range(5):
            mset, gt = make_two_view(20 + seed, 32)
            cands = decompose_essential(essential_from_pose(gt))
            by_gt = select_by_ground_truth(cands, gt)
            by_chir, _ = select_by_chirality(cands, mset)
            assert pose_error(by_gt, by_chir).max_deg < 1e-9

    def test_tie_breaks_to_lowest_index(self):
        _, gt = make_two_view(12, 24)
        cands = [gt, gt]
        assert select_by_ground_truth(cands, gt) is cands[0]


class TestSedCost:
    def test_zero_at_ground_truth(self):
        mset, gt = make_two_view(13, 48)
        assert sed_cost(gt, mset) < 1e-12

    def test_linear_in_weights(self):
        mset, gt = make_two_view(14, 32, noise=NoiseModel(gaussian_sigma=1.0))
        half = AnchorMatchSet(mset.anchors0, mset.matches0, 0.5 * mset.weights0,
                              mset.anchors1, mset.matches1, 0.5 * mset.weights1,
                              K, K, SIZE, SIZE)
        pose = perturb_pose(gt, 2.0, np.random.default_rng(0))
        assert sed_cost(pose, mset) == pytest.approx(2.0 * sed_cost(pose, half), rel=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(15)
        for seed in range(5):
            mset, gt = make_two_view(30 + seed, 24, noise=NoiseModel(gaussian_sigma=0.8))
            pose = perturb_pose(gt, 3.0, rng)
            fast = sed_cost(pose, mset)
            slow = naive_sed_cost(pose, mset)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_bidirectional_symmetry(self):
        rng = np.random.default_rng(16)
        for seed in range(5):
            mset, gt = make_two_view(40 + seed, 24, noise=NoiseModel(gaussian_sigma=0.5))
            pose = perturb_pose(gt, 4.0, rng)
            swapped = swap_frames(mset)
            assert abs(sed_cost(pose, mset) - sed_cost(pose.inverse(), swapped)) < 1e-10


class TestSedJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for seed in range(25):
            mset, gt = make_two_view(50 + seed, 8, noise=NoiseModel(gaussian_sigma=1.5))
            pose = perturb_pose(gt, rng.uniform(0.5, 20.0), rng)
            res, jac = sed_jacobian(pose, mset)
            h = 1e-6
            num = np.zeros_like(jac)
            for p in range(6):
                xi = np.zeros(6)
                xi[p] = h
                rp, _ = sed_jacobian(retract(pose, xi), mset)
                xi[p] = -h
                rm, _ = sed_jacobian(retract(pose, xi), mset)
                num[:, :, p] = (rp - rm) / (2.0 * h)
            denom = max(np.linalg.norm(num), 1e-9)
            assert np.linalg.norm(jac - num) / denom < 1e-5

    def test_gradient_vanishes_at_zero_cost(self):
        mset, gt = make_two_view(18, 40)
        res, jac = sed_jacobian(gt, mset)
        grad = jac.reshape(-1, 6).T @ res.reshape(-1)
        # residuals at the optimum are float noise (~1e-13) scaled by
        # Jacobian entries of order 1e2
        assert np.linalg.norm(grad) < 1e-8

    def test_rotation_about_t_is_gauge_direction(self):
        mset, gt = make_two_view(19, 24, noise=NoiseModel(gaussian_sigma=1.0))
        pose = perturb_pose(gt, 5.0, np.random.default_rng(1))
        _, jac = sed_jacobian(pose, mset)
        xi = np.concatenate([np.zeros(3), pose.translation_dir])
        assert np.max(np.abs(jac.reshape(-1, 6) @ xi)) < 1e-10


class TestLmRefine:
    def test_ground_truth_init_converges_immediately(self):
        mset, gt = make_two_view(21, 48)
        report = lm_refine_sed(gt, mset)
        assert report.converged
        assert report.iterations <= 2
        assert pose_error(report.pose, gt).max_deg < 1e-6

    def test_small_perturbation_recovers(self):
        rng = np.random.default_rng(22)
        for seed in range(5):
            mset, gt = make_two_view(60 + seed, 48)
            init = perturb_pose(gt, 5.0, rng)
            report = lm_refine_sed(init, mset)
            err = pose_error(report.pose, gt)
            assert err.rot_deg < 0.1 and err.trans_deg < 0.1

    def test_large_perturbation_fails(self):
        # 90 degrees is far outside the convergence basin; at least one of
        # these seeds must fail to reach the global minimum.
        rng = np.random.default_rng(23)
        outcomes = []
        for seed in range(5):
            mset, gt = make_two_view(70 + seed, 48)
            init = perturb_pose(gt, 90.0, rng)
            report = lm_refine_sed(init, mset)
            err = pose_error(report.pose, gt)
            outcomes.append((not report.converged) or err.max_deg > 0.5)
        assert any(outcomes)

    def test_converged_cost_never_increases(self):
        rng = np.random.default_rng(24)
        for seed in range(8):
            mset, gt = make_two_view(80 + seed, 32, noise=NoiseModel(gaussian_sigma=0.7))
            init = perturb_pose(gt, rng.uniform(0.0, 40.0), rng)
            report = lm_refine_sed(init, mset)
            if report.converged:
                assert report.final_cost <= report.initial_cost

    def test_gauge_rotation_of_t_keeps_cost_and_steps_finite(self):
        mset, gt = make_two_view(25, 32, noise=NoiseModel(gaussian_sigma=0.5))
        pose = perturb_pose(gt, 3.0, np.random.default_rng(2))
        base = sed_cost(pose, mset)
        for alpha in (0.3, -1.2, 2.0):
            spun = RelativePose(pose.rotation,
                                so3_exp(alpha * pose.translation_dir) @ pose.translation_dir)
            assert abs(sed_cost(spun, mset) - base) < 1e-10
        report = lm_refine_sed(pose, mset)
        assert np.all(np.isfinite(report.pose.rotation))
        assert np.all(np.isfinite(report.pose.translation_dir))

    def test_linearizes_only_at_accepted_points(self, monkeypatch):
        # A step is accepted exactly when its cost is below every cost
        # evaluated before it. That a rejected step is re-solved without
        # linearizing is pinned in test_lm.py on a cost that rejects for certain.
        evaluate, normal_equations, epipolar = (twoview._evaluate, twoview._normal_equations,
                                                twoview._epipolar)
        costs, evaluated, linearized, epipolar_calls = [], [], [], []

        def recording_evaluate(pose, mset):
            cost, terms = evaluate(pose, mset)
            costs.append(cost)
            evaluated.append(terms)
            return cost, terms

        def recording_normal_equations(pose, terms, mset):
            linearized.append(terms)
            return normal_equations(pose, terms, mset)

        def recording_epipolar(*args):
            epipolar_calls.append(1)
            return epipolar(*args)

        monkeypatch.setattr(twoview, "_evaluate", recording_evaluate)
        monkeypatch.setattr(twoview, "_normal_equations", recording_normal_equations)
        monkeypatch.setattr(twoview, "_epipolar", recording_epipolar)
        noise = NoiseModel(gaussian_sigma=0.5, outlier_fraction=0.3, outlier_weight=0.01)
        report = solve_two_view(make_two_view(0, 96, noise=noise)[0])
        accepted = sum(costs[i] < min(costs[:i]) for i in range(1, len(costs)))
        assert min(costs) == report.final_cost
        assert len(linearized) <= 1 + accepted
        # Each linearization reuses the terms of the point's evaluation, so the
        # epipolar lines are computed once per evaluated pose plus once to clamp.
        assert all(any(terms is seen for seen in evaluated) for terms in linearized)
        assert len(epipolar_calls) == len(costs) + 1

    def test_criterion_4_inputs_all_converge(self):
        # SED costs near 1e4 round in steps above COST_TOL; the decrease test
        # scales with the cost, so no solve runs on until the damping overflows.
        noise = NoiseModel(gaussian_sigma=0.5, outlier_fraction=0.3, outlier_weight=0.01)
        reasons = {solve_two_view(make_two_view(seed, noise=noise)[0]).reason
                   for seed in range(100)}
        assert reasons <= {"step", "cost"}


class TestClamp:
    def test_match_on_line_is_unchanged(self):
        mset, gt = make_two_view(26, 32)
        clamped = clamp_to_epipolar(mset, gt)
        assert np.max(np.abs(clamped.matches0 - mset.matches0)) < 1e-9
        assert np.max(np.abs(clamped.matches1 - mset.matches1)) < 1e-9

    def test_residual_zero_after_clamp(self):
        mset, gt = make_two_view(27, 32, noise=NoiseModel(gaussian_sigma=2.0))
        pose = perturb_pose(gt, 1.0, np.random.default_rng(3))
        clamped = clamp_to_epipolar(mset, pose)
        for a, m in zip(clamped.anchors0, clamped.matches0):
            line = epipolar_line(a, pose, K, K)
            assert np.linalg.norm(point_line_error(m, line)) < 1e-12
        inv = pose.inverse()
        for a, m in zip(clamped.anchors1, clamped.matches1):
            line = epipolar_line(a, inv, K, K)
            assert np.linalg.norm(point_line_error(m, line)) < 1e-12

    def test_idempotent(self):
        mset, gt = make_two_view(28, 32, noise=NoiseModel(gaussian_sigma=2.0))
        pose = perturb_pose(gt, 1.0, np.random.default_rng(4))
        once = clamp_to_epipolar(mset, pose)
        twice = clamp_to_epipolar(once, pose)
        assert np.max(np.abs(once.matches0 - twice.matches0)) < 1e-9
        assert np.max(np.abs(once.matches1 - twice.matches1)) < 1e-9

    def test_clamped_set_is_scored_with_its_own_rows(self):
        mset, gt = make_two_view(28, 32, noise=NoiseModel(gaussian_sigma=2.0))
        pose = perturb_pose(gt, 1.0, np.random.default_rng(4))
        assert sed_cost(pose, mset) > 1.0  # builds the row table of mset
        assert sed_cost(pose, clamp_to_epipolar(mset, pose)) < 1e-20

    def test_match_on_a_degenerate_line_keeps_its_bits(self):
        mset, gt = make_two_view(26, 32)
        # The image of camera 1's center in frame 0 has a degenerate line.
        e = K.matrix() @ (-gt.rotation.T @ gt.translation_dir)
        anchors, matches = mset.anchors0.copy(), mset.matches0.copy()
        anchors[0], matches[0] = e[:2] / e[2], (-0.0, 5.0)
        mset = replace(mset, anchors0=anchors, matches0=matches)
        assert twoview._evaluate(gt, mset)[1].n_degenerate == 1
        clamped = clamp_to_epipolar(mset, gt)
        assert clamped.matches0[0].tobytes() == np.array([-0.0, 5.0]).tobytes()

    def test_clamped_matches_are_contiguous_rows_and_read_only(self):
        mset, gt = make_two_view(28, 32, noise=NoiseModel(gaussian_sigma=2.0))
        clamped = clamp_to_epipolar(mset, perturb_pose(gt, 1.0, np.random.default_rng(4)))
        for m, ref in ((clamped.matches0, mset.matches0), (clamped.matches1, mset.matches1)):
            assert m.shape == ref.shape and m.dtype == ref.dtype and m.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                m[0] = 0.0

    def test_row_table_is_cached_and_read_only(self):
        mset, _ = make_two_view(28, 32)
        rows = mset._rows
        assert mset._rows is rows
        arrays = (*rows[0], *rows[1], *rows[2:])
        assert len(arrays) == 6
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def _assert_jacobian_equals_einsum_oracle(pose, mset):
    res, jac = sed_jacobian(pose, mset)
    ref_res, ref_jac = sed_jacobian_einsum(pose, mset)
    assert np.array_equal(res, ref_res) and jac.shape == ref_jac.shape
    scale = np.linalg.norm(ref_jac, axis=(1, 2))
    assert np.all(np.linalg.norm(jac - ref_jac, axis=(1, 2)) <= 1e-12 * scale)


@st.composite
def _scored_set(draw):
    """A pose and a set with random calibrations, zero weights, possibly empty
    directions, and optionally one anchor placed on its frame's epipole."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cams = [Intrinsics(*rng.uniform(100, 600, 2), *rng.uniform(200, 300, 2)) for _ in range(2)]
    t = rng.normal(size=3)
    pose = RelativePose(so3_exp(rng.normal(size=3)), t / np.linalg.norm(t))
    sides = []
    for n in (draw(st.integers(0, 6)), draw(st.integers(0, 6))):
        live = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        sides.append([rng.uniform(0, 512, (n, 2)), rng.uniform(0, 512, (n, 2)),
                      rng.uniform(0.05, 1.0, n) * np.array(live, dtype=float)])
    on_epipole = draw(st.sampled_from([None, 0, 1]))
    if on_epipole is not None and len(sides[on_epipole][0]):
        p = pose if on_epipole == 0 else pose.inverse()
        # Image of the other camera's center, whose epipolar line is degenerate.
        e = cams[on_epipole].matrix() @ (-p.rotation.T @ p.translation_dir)
        sides[on_epipole][0][0] = e[:2] / e[2]
    return pose, AnchorMatchSet(*sides[0], *sides[1], *cams, SIZE, SIZE)


@settings(max_examples=200)
@given(case=_scored_set())
def test_residual_rows_equal_scalar_oracle(case):
    pose, mset = case
    expected, n_degenerate = [], 0
    for p, anchors, matches, weights, ka, kb in (
            (pose, mset.anchors0, mset.matches0, mset.weights0, mset.intrinsics0, mset.intrinsics1),
            (pose.inverse(), mset.anchors1, mset.matches1, mset.weights1, mset.intrinsics1,
             mset.intrinsics0)):
        for a, m, w in zip(anchors, matches, weights):
            line = epipolar_line(a, p, ka, kb)
            if is_degenerate_line(line):
                n_degenerate += 1
            else:
                expected.append(np.sqrt(w) * point_line_error(m, line))
    expected = np.array(expected).reshape(-1, 2)
    res, jac = sed_jacobian(pose, mset)
    assert res.shape == expected.shape and jac.shape == (len(expected), 2, 6)
    scale = np.maximum(1.0, np.linalg.norm(expected, axis=1, keepdims=True))
    assert np.all(np.abs(res - expected) <= 1e-12 * scale)
    assert lm_refine_sed(pose, mset, max_iters=0).n_degenerate == n_degenerate
    _assert_jacobian_equals_einsum_oracle(pose, mset)


def test_jacobian_equals_einsum_oracle_on_criterion_1_configs():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        _assert_jacobian_equals_einsum_oracle(*random_config(rng))


def _assert_normal_equations_from_jacobian_rows(pose, mset):
    # Measured on the 1,000 criterion-1 configs and 3,000 _scored_set cases:
    # JᵀJ within 3.3e-16 of its norm, Jᵀr within 5.3e-16 of the sum of its
    # terms' magnitudes.
    res, jac = sed_jacobian(pose, mset)
    j, r = jac.reshape(-1, 6), res.reshape(-1)
    h, g = twoview._normal_equations(pose, twoview._evaluate(pose, mset)[1], mset)
    assert np.linalg.norm(h - j.T @ j) <= 1e-12 * np.linalg.norm(j.T @ j)
    assert np.all(np.abs(g - j.T @ r) <= 1e-12 * (np.abs(j).T @ np.abs(r)))


def test_normal_equations_equal_jacobian_rows_on_criterion_1_configs():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        _assert_normal_equations_from_jacobian_rows(*random_config(rng))


@settings(max_examples=200)
@given(case=_scored_set())
def test_normal_equations_skip_degenerate_and_zero_weight_rows(case):
    # A set whose rows are all degenerate or weightless gives exact zeros.
    _assert_normal_equations_from_jacobian_rows(*case)


@settings(max_examples=200)
@given(case=_scored_set(), n_random=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_chirality_equals_one_candidate_at_a_time(case, n_random, seed):
    pose, mset = case
    rng = np.random.default_rng(seed)
    cands = decompose_essential(essential_from_pose(pose))
    for _ in range(n_random):
        t = rng.normal(size=3)
        cands.append(RelativePose(so3_exp(rng.normal(size=3)), t / np.linalg.norm(t)))
    batched = twoview.front_depths(cands, mset)
    expected = []
    for k, cand in enumerate(cands):
        single = twoview.front_depths(cand, mset)
        for many, one in zip(batched, single):
            assert np.array_equal(many[k], one)
        _, front0, _, front1 = single
        expected.append(float(np.sum(mset.weights0[front0])) + float(np.sum(mset.weights1[front1])))
    assert chirality_scores(cands, mset).tolist() == expected


class TestSolveTwoView:
    def test_noise_free_accuracy(self):
        for seed in range(10):
            mset, gt = make_two_view(100 + seed, 56)
            report = solve_two_view(mset)
            err = pose_error(report.pose, gt)
            assert err.rot_deg < 0.01
            assert err.trans_deg < 0.05
            assert report.clamped is not None

    def test_insufficient_matches(self):
        mset, _ = make_two_view(29, 32)
        starved = AnchorMatchSet(mset.anchors0[:4], mset.matches0[:4], mset.weights0[:4],
                                 mset.anchors1[:3], mset.matches1[:3], mset.weights1[:3],
                                 K, K, SIZE, SIZE)
        with pytest.raises(InsufficientMatchesError):
            solve_two_view(starved)

    @pytest.mark.parametrize("size", [(np.inf, 512.0), (512.0, np.nan), (0.0, 512.0),
                                      (512.0, -5.0)])
    def test_image_size_must_be_finite_and_positive(self, size):
        mset, _ = make_two_view(31, 32)
        with pytest.raises(ValueError, match="image size must be finite and positive"):
            AnchorMatchSet(mset.anchors0, mset.matches0, mset.weights0, mset.anchors1,
                           mset.matches1, mset.weights1, K, K, SIZE, size)

    def test_stage_label_on_degenerate_geometry(self):
        gx, gy = np.meshgrid(np.linspace(-0.8, 0.8, 4), np.linspace(-0.8, 0.8, 4))
        pts = np.stack([gx.ravel(), gy.ravel(), np.full(16, 2.0)], axis=1)
        rot = so3_exp(np.radians(4.0) * np.array([1.0, 0.0, 0.0]))
        km = K.matrix()
        p1 = pts @ km.T
        u1 = p1[:, :2] / p1[:, 2:3]
        p2 = (pts @ rot.T) @ km.T
        u2 = p2[:, :2] / p2[:, 2:3]
        mset = AnchorMatchSet(u1[:8], u2[:8], np.ones(8), u2[8:], u1[8:], np.ones(8),
                              K, K, SIZE, SIZE)
        with pytest.raises(RankDeficiencyError) as exc_info:
            solve_two_view(mset)
        assert exc_info.value.stage == "eight_point"

    def test_preconditioning_beats_random_poses(self):
        rng = np.random.default_rng(31)
        for seed in range(100):
            mset, gt = make_two_view(200 + seed, 32)
            pose, _ = preconditioned_pose(mset)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            t = rng.normal(size=3)
            random_pose = RelativePose(so3_exp(rng.uniform(0, np.pi) * axis),
                                       t / np.linalg.norm(t))
            assert sed_cost(pose, mset) <= sed_cost(random_pose, mset)

    def test_zero_weight_matches_have_no_influence(self):
        mset, gt = make_two_view(32, 40)
        rng = np.random.default_rng(5)
        # corrupt four matches but give them zero weight
        m0 = mset.matches0.copy()
        w0 = mset.weights0.copy()
        m0[:4] = rng.uniform(0, 512, size=(4, 2))
        w0[:4] = 0.0
        with_dead = AnchorMatchSet(mset.anchors0, m0, w0,
                                   mset.anchors1, mset.matches1, mset.weights1,
                                   K, K, SIZE, SIZE)
        without = AnchorMatchSet(mset.anchors0[4:], mset.matches0[4:], mset.weights0[4:],
                                 mset.anchors1, mset.matches1, mset.weights1,
                                 K, K, SIZE, SIZE)
        pose_a = solve_two_view(with_dead).pose
        pose_b = solve_two_view(without).pose
        rot = np.degrees(rotation_angle(pose_a.rotation.T @ pose_b.rotation))
        cross = np.linalg.norm(np.cross(pose_a.translation_dir, pose_b.translation_dir))
        assert rot < 1e-9
        assert np.degrees(np.arcsin(min(cross, 1.0))) < 1e-9


def _assert_same_fields(built, checked):
    """Every field of ``built`` bit-equal to that of ``checked``, arrays read-only on both."""
    assert type(built) is type(checked)
    for f in fields(checked):
        a, b = getattr(built, f.name), getattr(checked, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
            assert not a.flags.writeable and not b.flags.writeable, f.name
        else:
            assert a == b, f.name


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(8, 40),
       xi=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
def test_unchecked_builds_equal_checked_ones(seed, n, xi):
    mset, gt = make_two_view(seed, n, noise=NoiseModel(gaussian_sigma=1.0, outlier_fraction=0.2))
    xi = np.array(xi)
    # Derived values as a retraction, an inverse and a negation produce them.
    rot = so3_exp(xi[:3]) @ gt.rotation
    t = so3_exp(xi[3:]) @ gt.translation_dir
    for r, d in ((rot, t / np.linalg.norm(t)), (rot, -t / np.linalg.norm(t)), (gt.rotation, t)):
        _assert_same_fields(_derived_pose(r, d), RelativePose(r, d))
        pose = _derived_pose(r, d)
        inv_t = -pose.rotation.T @ pose.translation_dir
        _assert_same_fields(pose.inverse(),
                            RelativePose(pose.rotation.T, inv_t / np.linalg.norm(inv_t)))

    pose = _derived_pose(rot, t)
    *_, good, err = twoview._epipolar(pose.rotation, pose.translation_dir, mset)
    matches = np.concatenate([mset.matches0, mset.matches1])
    new = np.where(good[:, None], matches - err.T, matches)
    _assert_same_fields(clamp_to_epipolar(mset, pose),
                        mset.with_matches(*np.split(new, [len(mset.anchors0)])))


# Largest differences over twoview-96 inputs (make_two_view seeds 0-299 under
# the criterion-4 noise model): 1.98e-6 deg in rotation, 3.72e-6 deg in
# translation direction, the arccos floor of pose_error's translation angle,
# and 3.82e-14 relative in final cost. Iteration counts may differ.
@settings(max_examples=60)
@given(seed=st.integers(0, 299))
def test_swapping_the_frames_inverts_the_pose(seed):
    mset, _ = make_two_view(seed, 96, noise=NoiseModel(gaussian_sigma=0.5, outlier_fraction=0.3,
                                                       outlier_weight=0.01))
    report = solve_two_view(mset)
    swapped = solve_two_view(swap_frames(mset))
    err = pose_error(swapped.pose, report.pose.inverse())
    assert err.rot_deg < 1e-5 and err.trans_deg < 1e-5
    assert abs(swapped.final_cost - report.final_cost) <= 1e-13 * report.final_cost
