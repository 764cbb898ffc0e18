import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (DegenerateLineError, ParallelRaysError, epipolar_line, is_degenerate_line,
                     point_line_error, rotation_from_quat_scalar, rotation_rejection, triangulate)

from sedslam.errors import BehindCameraError
from sedslam.geom import (
    Intrinsics,
    RelativePose,
    Se3Pose,
    Sim3Transform,
    backproject,
    essential_from_pose,
    fundamental_from_essential,
    project,
    quat_from_rotation,
    rotation_from_quat,
    skew,
    so3_exp,
    so3_log,
)

K_IDENT = Intrinsics(1.0, 1.0, 0.0, 0.0)


class TestSo3:
    def test_exp_zero_is_identity(self):
        assert np.allclose(so3_exp([0.0, 0.0, 0.0]), np.eye(3))

    def test_exp_quarter_turn_maps_x_to_y(self):
        r = so3_exp([0.0, 0.0, np.pi / 2.0])
        assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            xi = rng.uniform(0.0, np.pi - 1e-3) * axis
            assert np.linalg.norm(so3_log(so3_exp(xi)) - xi) < 1e-9

    def test_small_angle_branch(self):
        xi = np.array([3e-9, -2e-9, 1e-9])
        assert np.linalg.norm(so3_log(so3_exp(xi)) - xi) < 1e-15

    def test_near_pi(self):
        axis = np.array([1.0, 2.0, -0.5])
        axis /= np.linalg.norm(axis)
        xi = (np.pi - 1e-4) * axis
        assert np.linalg.norm(so3_log(so3_exp(xi)) - xi) < 1e-9


class TestSkew:
    def test_unit_x(self):
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(skew([1.0, 0.0, 0.0]), expected)

    def test_zero(self):
        assert np.array_equal(skew([0.0, 0.0, 0.0]), np.zeros((3, 3)))

    def test_cross_product_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v, w = rng.normal(size=3), rng.normal(size=3)
            assert np.linalg.norm(skew(v) @ w - np.cross(v, w)) < 1e-12


class TestEssential:
    def test_identity_rotation(self):
        e = essential_from_pose(RelativePose(np.eye(3), [1.0, 0.0, 0.0]))
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.allclose(e, expected, atol=1e-15)

    def test_singular_values(self, hand_scene):
        sv = np.linalg.svd(essential_from_pose(hand_scene.pose), compute_uv=False)
        assert abs(sv[0] - sv[1]) < 1e-9
        assert sv[2] < 1e-9

    def test_epipolar_constraint_on_synthetic_matches(self, hand_scene):
        f = fundamental_from_essential(essential_from_pose(hand_scene.pose),
                                       hand_scene.k, hand_scene.k)
        a = np.concatenate([hand_scene.pixels1, np.ones((len(hand_scene.points), 1))], axis=1)
        m = np.concatenate([hand_scene.pixels2, np.ones((len(hand_scene.points), 1))], axis=1)
        viol = np.abs(np.einsum("ni,ij,nj->n", m, f, a))
        assert viol.max() < 1e-9

    def test_negating_t_flips_sign_only(self, hand_scene):
        pose = hand_scene.pose
        flipped = RelativePose(pose.rotation, -pose.translation_dir)
        assert np.allclose(essential_from_pose(flipped), -essential_from_pose(pose))


class TestFundamental:
    def test_identity_calibration(self, hand_scene):
        e = essential_from_pose(hand_scene.pose)
        assert np.allclose(fundamental_from_essential(e, K_IDENT, K_IDENT), e)

    def test_linearity_in_e(self, hand_scene):
        e = essential_from_pose(hand_scene.pose)
        f = fundamental_from_essential(e, hand_scene.k, hand_scene.k)
        f3 = fundamental_from_essential(3.0 * e, hand_scene.k, hand_scene.k)
        assert np.allclose(f3, 3.0 * f)

    def test_pixel_epipolar_constraint(self, hand_scene):
        # covered in pixel coordinates with the real intrinsics
        f = fundamental_from_essential(essential_from_pose(hand_scene.pose),
                                       hand_scene.k, hand_scene.k)
        for a, m in zip(hand_scene.pixels1[:10], hand_scene.pixels2[:10]):
            val = np.array([m[0], m[1], 1.0]) @ f @ np.array([a[0], a[1], 1.0])
            assert abs(val) < 1e-9


class TestEpipolarLine:
    def test_pure_x_translation(self):
        pose = RelativePose(np.eye(3), [1.0, 0.0, 0.0])
        line = epipolar_line([0.3, 0.2], pose, K_IDENT, K_IDENT)
        assert np.allclose(line, [0.0, -1.0, 0.2], atol=1e-15)

    def test_match_lies_on_line(self, hand_scene):
        for a, m in zip(hand_scene.pixels1[:20], hand_scene.pixels2[:20]):
            line = epipolar_line(a, hand_scene.pose, hand_scene.k, hand_scene.k)
            err = point_line_error(m, line)
            assert np.linalg.norm(err) < 1e-9

    def test_epipole_is_degenerate(self):
        # Backward motion along the optical axis puts the epipole of image 1
        # at the principal point; its epipolar line collapses to zero.
        pose = RelativePose(np.eye(3), [0.0, 0.0, -1.0])
        line = epipolar_line([0.0, 0.0], pose, K_IDENT, K_IDENT)
        assert is_degenerate_line(line)


class TestPointLineError:
    def test_zero_on_line(self):
        assert np.allclose(point_line_error([0.4, 0.2], [0.0, -1.0, 0.2]), [0.0, 0.0])

    def test_hand_case(self):
        assert np.allclose(point_line_error([0.5, 0.5], [0.0, -1.0, 0.2]), [0.0, 0.3])

    def test_norm_is_point_line_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            line = rng.normal(size=3)
            m = rng.normal(size=2)
            err = point_line_error(m, line)
            dist = abs(line[0] * m[0] + line[1] * m[1] + line[2]) / np.hypot(line[0], line[1])
            assert abs(np.linalg.norm(err) - dist) < 1e-12

    @pytest.mark.parametrize("c", [-2.0, 0.5, 10.0])
    def test_invariant_to_line_scaling(self, c):
        rng = np.random.default_rng(4)
        for _ in range(50):
            line = rng.normal(size=3)
            m = rng.normal(size=2)
            assert np.allclose(point_line_error(m, c * line), point_line_error(m, line),
                               atol=1e-12)

    def test_degenerate_line_raises(self):
        with pytest.raises(DegenerateLineError):
            point_line_error([0.1, 0.2], [0.0, 0.0, 1.0])


class TestProjection:
    def test_optical_axis(self):
        assert np.allclose(project(np.array([0.0, 0.0, 1.0]), K_IDENT), [0.0, 0.0])

    def test_backproject_inverts_project(self):
        rng = np.random.default_rng(5)
        k = Intrinsics(300.0, 280.0, 320.0, 240.0)
        for _ in range(100):
            p = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 5)])
            rec = backproject(project(p, k), p[2], k)
            assert np.linalg.norm(rec - p) < 1e-12

    def test_pinhole_formula(self):
        rng = np.random.default_rng(6)
        k = Intrinsics(450.0, 430.0, 310.0, 255.0)
        for _ in range(100):
            p = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.3, 8)])
            u = project(p, k)
            assert abs(u[0] - (k.fx * p[0] / p[2] + k.cx)) < 1e-12
            assert abs(u[1] - (k.fy * p[1] / p[2] + k.cy)) < 1e-12

    def test_behind_camera_raises(self):
        with pytest.raises(BehindCameraError):
            project(np.array([0.0, 0.0, -1.0]), K_IDENT)

    def test_nonpositive_depth_raises(self):
        with pytest.raises(ValueError):
            backproject([0.0, 0.0], 0.0, K_IDENT)


class TestTriangulate:
    def test_hand_stereo(self):
        # Point at (0,0,2) in frame 1; pose translation (-1,0,0) puts the
        # second camera center at +x, so the match is at (-0.5, 0).
        pose = RelativePose(np.eye(3), [-1.0, 0.0, 0.0])
        depth = triangulate(pose, [0.0, 0.0], [-0.5, 0.0], K_IDENT, K_IDENT)
        assert abs(depth - 2.0) < 1e-12

    def test_recovers_ground_truth_depth(self, hand_scene):
        for p, a, m in zip(hand_scene.points[:30], hand_scene.pixels1[:30],
                           hand_scene.pixels2[:30]):
            d = triangulate(hand_scene.pose, a, m, hand_scene.k, hand_scene.k)
            assert abs(d - p[2] / hand_scene.baseline) < 1e-9

    def test_zero_parallax_raises(self):
        pose = RelativePose(np.eye(3), [0.0, 0.0, 1.0])
        with pytest.raises(ParallelRaysError):
            triangulate(pose, [0.3, 0.1], [0.3, 0.1], K_IDENT, K_IDENT)


class TestPoseTypes:
    def test_rotation_validation(self):
        with pytest.raises(ValueError):
            RelativePose(np.eye(3) * 2.0, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            RelativePose(np.diag([1.0, 1.0, -1.0]), [1.0, 0.0, 0.0])

    def test_translation_must_be_unit(self):
        with pytest.raises(ValueError):
            RelativePose(np.eye(3), [2.0, 0.0, 0.0])

    def test_relative_pose_inverse_round_trip(self, hand_scene):
        pose = hand_scene.pose
        inv = pose.inverse()
        assert np.max(np.abs(inv.rotation @ pose.rotation - np.eye(3))) < 1e-9
        back = inv.rotation @ pose.translation_dir + inv.translation_dir
        assert np.linalg.norm(back) < 1e-9

    def test_se3_group_axioms(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = Se3Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
            b = Se3Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
            round_trip = a.compose(a.inverse())
            assert np.max(np.abs(round_trip.rotation - np.eye(3))) < 1e-9
            assert np.linalg.norm(round_trip.translation) < 1e-9
            p = rng.normal(size=3)
            assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)

    def test_sim3_scale_positive(self):
        with pytest.raises(ValueError):
            Sim3Transform(-1.0, np.eye(3), np.zeros(3))

    def test_sim3_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = Sim3Transform(rng.uniform(0.2, 5.0), so3_exp(rng.normal(size=3)),
                              rng.normal(size=3))
            eye = s.compose(s.inverse())
            assert abs(eye.scale - 1.0) < 1e-9
            assert np.max(np.abs(eye.rotation - np.eye(3))) < 1e-9
            assert np.linalg.norm(eye.translation) < 1e-9
            p = rng.normal(size=3)
            assert np.allclose(s.inverse().apply(s.apply(p)), p, atol=1e-9)

    def test_quaternion_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            r = so3_exp(rng.normal(size=3))
            assert np.max(np.abs(rotation_from_quat(quat_from_rotation(r)) - r)) < 1e-12


    def test_batched_quaternions_equal_one_at_a_time(self):
        rng = np.random.default_rng(10)
        q = rng.normal(size=(2, 5, 4))
        rot = rotation_from_quat(q)
        assert rot.shape == (2, 5, 3, 3)
        for idx in np.ndindex(2, 5):
            assert np.array_equal(rot[idx], rotation_from_quat_scalar(q[idx]))
            assert np.array_equal(rotation_from_quat(q[idx]), rot[idx])


# Rotations perturbed entrywise by up to 0.5e-9 or 2e-9, about the
# tolerance of the check; some rows negated to make det -1.
@settings(max_examples=300)
@given(w=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       noise=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
       eps=st.sampled_from([0.5e-9, 2e-9]), flip=st.booleans())
def test_rotation_check_equals_numpy_form(w, noise, eps, flip):
    rot = so3_exp(w) + eps * np.reshape(noise, (3, 3))
    if flip:
        rot[0] = -rot[0]
    try:
        Se3Pose(rot, np.zeros(3))
        rejection = None
    except ValueError as exc:
        rejection = str(exc)
    assert rejection == rotation_rejection(rot)


@pytest.mark.parametrize("eps, expected", [
    (0.0, None), (0.4e-9, None), (0.6e-9, "rotation matrix is not orthonormal"),
    (2e-9, "rotation matrix is not orthonormal")])
def test_rotation_check_tolerance(eps, expected):
    # A diagonal entry of 1 + eps puts 2 eps + eps² on the diagonal of R Rᵀ - I.
    rot = np.eye(3)
    rot[1, 1] += eps
    assert rotation_rejection(rot) == expected
    if expected is None:
        Se3Pose(rot, np.zeros(3))
    else:
        with pytest.raises(ValueError, match=expected):
            Se3Pose(rot, np.zeros(3))


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("build, field", [
        (Se3Pose, "rotation"),
        (Se3Pose, "translation"),
        (lambda rot, t: Sim3Transform(1.0, rot, t), "rotation"),
        (lambda rot, t: Sim3Transform(1.0, rot, t), "translation"),
        (RelativePose, "rotation"),
    ], ids=["se3-rotation", "se3-translation", "sim3-rotation", "sim3-translation",
            "relative-rotation"])
    def test_rejected_at_construction(self, build, field, bad):
        rot, t = np.eye(3), np.array([1.0, 0.0, 0.0])
        {"rotation": rot, "translation": t}[field].flat[-1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build(rot, t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    def test_intrinsics_rejected_at_construction(self, field, bad):
        values = {"fx": 256.0, "fy": 256.0, "cx": 256.0, "cy": 256.0, field: bad}
        with pytest.raises(ValueError, match="intrinsics must be finite"):
            Intrinsics(**values)
