import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import associate_all_pairs

from sedslam.errors import AssociationError
from sedslam.geom import RelativePose, Se3Pose, Sim3Transform, so3_exp
from sedslam.metrics import associate_timestamps, ate_rmse, pose_auc, pose_error
from sedslam.sim3 import Keyframe, Trajectory


def quat_mul(p, q):
    px, py, pz, pw = p
    qx, qy, qz, qw = q
    return np.array([
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
        pw * qw - px * qx - py * qy - pz * qz,
    ])


def quat_from_matrix_davenport(r):
    """Quaternion via the dominant eigenvector of the Davenport matrix;
    independent of the library's conversion path."""
    k = np.array([
        [r[0, 0] - r[1, 1] - r[2, 2], r[1, 0] + r[0, 1], r[2, 0] + r[0, 2], r[1, 2] - r[2, 1]],
        [r[1, 0] + r[0, 1], r[1, 1] - r[0, 0] - r[2, 2], r[2, 1] + r[1, 2], r[2, 0] - r[0, 2]],
        [r[2, 0] + r[0, 2], r[2, 1] + r[1, 2], r[2, 2] - r[0, 0] - r[1, 1], r[0, 1] - r[1, 0]],
        [r[1, 2] - r[2, 1], r[2, 0] - r[0, 2], r[0, 1] - r[1, 0], r[0, 0] + r[1, 1] + r[2, 2]],
    ]) / 3.0
    vals, vecs = np.linalg.eigh(k)
    q = vecs[:, -1]
    return -q if q[3] < 0 else q


def random_pose(rng, min_angle=0.2):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    t = rng.normal(size=3)
    return RelativePose(so3_exp(rng.uniform(min_angle, 2.5) * axis), t / np.linalg.norm(t))


def line_trajectory(n=20, t0=0.0, seed=0, dt=0.1):
    rng = np.random.default_rng(seed)
    kfs = []
    for i in range(n):
        pose = Se3Pose(so3_exp(0.05 * rng.normal(size=3)),
                       np.array([0.3 * i, 0.1 * np.sin(i), 0.05 * i]))
        kfs.append(Keyframe(t0 + dt * i, pose, np.ones(2)))
    return Trajectory(tuple(kfs))


def transform_trajectory(traj, s):
    return Trajectory(tuple(
        Keyframe(k.timestamp, s.transform_pose(k.pose), s.scale * k.depths)
        for k in traj.keyframes))


class TestPoseError:
    def test_identity(self):
        rng = np.random.default_rng(0)
        pose = random_pose(rng)
        err = pose_error(pose, pose)
        assert err.rot_deg == 0.0 or err.rot_deg < 1e-5
        assert err.trans_deg == 0.0 or err.trans_deg < 1e-5

    def test_negated_translation_is_antipodal(self):
        rng = np.random.default_rng(1)
        pose = random_pose(rng)
        flipped = RelativePose(pose.rotation, -pose.translation_dir)
        assert pose_error(flipped, pose).trans_deg == pytest.approx(180.0)

    def test_matches_quaternion_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = random_pose(rng)
            b = random_pose(rng)
            err = pose_error(a, b)
            qa = quat_from_matrix_davenport(a.rotation)
            qb = quat_from_matrix_davenport(b.rotation)
            qa_conj = np.array([-qa[0], -qa[1], -qa[2], qa[3]])
            q_rel = quat_mul(qa_conj, qb)
            rot_ref = np.degrees(2.0 * np.arctan2(np.linalg.norm(q_rel[:3]), abs(q_rel[3])))
            trans_ref = np.degrees(np.arctan2(
                np.linalg.norm(np.cross(a.translation_dir, b.translation_dir)),
                np.dot(a.translation_dir, b.translation_dir)))
            assert abs(err.rot_deg - rot_ref) < 1e-9
            assert abs(err.trans_deg - trans_ref) < 1e-9

    def test_symmetric_under_joint_inversion(self):
        # Rotation error is invariant under inverting both poses for any
        # inputs; the translation angle (a plain direction dot product) is
        # preserved whenever the two rotations agree, since both directions
        # then move by the same rotation.
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_pose(rng)
            b = random_pose(rng)
            e1 = pose_error(a, b)
            e2 = pose_error(a.inverse(), b.inverse())
            assert abs(e1.rot_deg - e2.rot_deg) < 1e-9
            swapped = pose_error(b, a)
            assert abs(e1.rot_deg - swapped.rot_deg) < 1e-9
            assert abs(e1.trans_deg - swapped.trans_deg) < 1e-9
        for _ in range(20):
            a = random_pose(rng)
            t = rng.normal(size=3)
            b = RelativePose(a.rotation, t / np.linalg.norm(t))
            e1 = pose_error(a, b)
            e2 = pose_error(a.inverse(), b.inverse())
            assert abs(e1.trans_deg - e2.trans_deg) < 1e-6


class TestPoseAuc:
    def test_perfect_single_pair(self):
        assert pose_auc([0.0], 5.0) == pytest.approx(100.0)

    def test_total_miss(self):
        assert pose_auc([5.0], 5.0) == pytest.approx(0.0)
        assert pose_auc([11.0], 5.0) == pytest.approx(0.0)

    def test_half_threshold_is_fifty_percent(self):
        assert pose_auc([2.5], 5.0) == pytest.approx(50.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(4)
        errors = rng.uniform(0.0, 30.0, size=40)
        aucs = [pose_auc(errors, tau) for tau in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0)]
        assert all(b >= a - 1e-12 for a, b in zip(aucs, aucs[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pose_auc([], 5.0)


class TestAteRmse:
    def test_identity_is_zero(self):
        traj = line_trajectory()
        assert ate_rmse(traj, traj, mode="se3") < 1e-12

    def test_sim3_gauge_is_absorbed(self):
        traj = line_trajectory()
        rng = np.random.default_rng(5)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        s = Sim3Transform(1.7, so3_exp(0.8 * axis), rng.normal(size=3))
        moved = transform_trajectory(traj, s)
        assert ate_rmse(moved, traj, mode="sim3") < 1e-9

    def test_se3_mode_does_not_absorb_scale(self):
        traj = line_trajectory()
        s = Sim3Transform(2.0, np.eye(3), np.zeros(3))
        moved = transform_trajectory(traj, s)
        assert ate_rmse(moved, traj, mode="se3") > 0.1

    def test_gaussian_noise_matches_sigma_sqrt3(self):
        sigma = 0.05
        rng = np.random.default_rng(6)
        n = 1000
        kfs_gt, kfs_est = [], []
        for i in range(n):
            pos = np.array([0.01 * i, np.sin(0.01 * i), 0.3])
            kfs_gt.append(Keyframe(0.1 * i, Se3Pose(np.eye(3), pos), np.ones(1)))
            kfs_est.append(Keyframe(0.1 * i, Se3Pose(np.eye(3), pos + rng.normal(0, sigma, 3)),
                                    np.ones(1)))
        gt = Trajectory(tuple(kfs_gt))
        est = Trajectory(tuple(kfs_est))
        rmse = ate_rmse(est, gt, mode="sim3")
        assert abs(rmse - sigma * np.sqrt(3.0)) < 0.1 * sigma * np.sqrt(3.0)

    def test_sim3_never_worse_than_se3(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            traj = line_trajectory(seed=seed)
            noisy = Trajectory(tuple(
                Keyframe(k.timestamp,
                         Se3Pose(k.pose.rotation, k.pose.translation + rng.normal(0, 0.1, 3)),
                         k.depths)
                for k in traj.keyframes))
            assert ate_rmse(noisy, traj, "sim3") <= ate_rmse(noisy, traj, "se3") + 1e-12

    def test_too_few_pairs(self):
        a = line_trajectory(n=5, t0=0.0)
        b = line_trajectory(n=5, t0=100.0)
        with pytest.raises(AssociationError):
            ate_rmse(a, b)

    def test_association_window(self):
        matches = associate_timestamps([0.0, 1.0, 2.0], [0.015, 1.5, 2.019])
        assert matches == [(0, 0), (2, 2)]

    def test_association_window_survives_rounding_of_its_edges(self):
        # abs(a - b) equals max_dt here, but a - max_dt rounds above b.
        a, b, max_dt = 0.007805487040095847, 0.001573615593235422, 0.0062318714468604245
        assert abs(a - b) <= max_dt
        assert associate_timestamps([a], [b], max_dt) == [(0, 0)]


# Stamps on a 1/64 s grid subtract exactly, so differences tie and can equal
# the window; a 1e-14 s jitter puts some just outside it, and the Unix-time
# origin makes the stamps large against the window.
_STAMPS = st.lists(st.integers(0, 40), max_size=25)


@settings(max_examples=300)
@given(ticks_a=_STAMPS, ticks_b=_STAMPS,
       origin=st.sampled_from([0.0, -3.0, 1.6e9]),
       window=st.sampled_from([0, 1, 2, 3]),
       jitter=st.lists(st.sampled_from([0.0, 1e-14, -1e-14, 1e-7, 0.001]),
                       min_size=25, max_size=25))
@example(ticks_a=[3, 1, 2], ticks_b=[2, 0, 4], origin=0.0, window=1, jitter=[0.0] * 25)
def test_association_equals_all_pairs(ticks_a, ticks_b, origin, window, jitter):
    ts_a = origin + np.array(ticks_a) / 64.0
    ts_b = origin + np.array(ticks_b) / 64.0 + np.array(jitter[:len(ticks_b)])
    max_dt = window / 64.0
    assert associate_timestamps(ts_a, ts_b, max_dt) == associate_all_pairs(ts_a, ts_b, max_dt)
