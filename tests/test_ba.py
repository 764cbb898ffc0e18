import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import assemble_rows, reprojection_residual

from sedslam import ba
from sedslam.ba import Edge, FactorGraph, ba_cost, ba_solve, extrapolate_pose, reproject_matches
from sedslam.geom import Intrinsics, Se3Pose, rotation_angle, so3_exp, so3_log
from sedslam.synth import make_ba_graph


def naive_residual(graph, edge_index, k):
    """Homogeneous 4x4 matrix evaluation, independent of the library path."""
    edge = graph.edges[edge_index]
    ki = graph.intrinsics[edge.i]
    kj = graph.intrinsics[edge.j]
    a = graph.anchors[edge.i][k]
    d = graph.depths[edge.i][k]
    p = np.array([(a[0] - ki.cx) / ki.fx * d, (a[1] - ki.cy) / ki.fy * d, d, 1.0])
    mi = np.eye(4)
    mi[:3, :3] = graph.poses[edge.i].rotation
    mi[:3, 3] = graph.poses[edge.i].translation
    mj = np.eye(4)
    mj[:3, :3] = graph.poses[edge.j].rotation
    mj[:3, 3] = graph.poses[edge.j].translation
    q = (np.linalg.inv(mj) @ mi @ p)[:3]
    proj = np.array([kj.fx * q[0] / q[2] + kj.cx, kj.fy * q[1] / q[2] + kj.cy])
    return proj - edge.matches[k]


def weighted_residuals(graph):
    """sqrt(w) * residual of every (edge, anchor), from the scalar oracle."""
    return np.concatenate([np.sqrt(e.weights[k]) * reprojection_residual(graph, n, k)
                           for n, e in enumerate(graph.edges) for k in range(len(e.matches))])


def with_pose_step(graph, frame, xi):
    """The graph with frame's pose left-multiplied by exp(xi), xi = (omega, v)."""
    rot = so3_exp(xi[:3])
    poses = list(graph.poses)
    poses[frame] = Se3Pose(rot @ poses[frame].rotation, rot @ poses[frame].translation + xi[3:])
    return FactorGraph(poses, graph.intrinsics, graph.anchors, graph.depths, graph.edges)


def with_inverse_depth_step(graph, frame, k, step):
    depths = [d.copy() for d in graph.depths]
    depths[frame][k] = 1.0 / (1.0 / depths[frame][k] + step)
    return FactorGraph(graph.poses, graph.intrinsics, graph.anchors, depths, graph.edges)


class TestReprojectionResidual:
    def test_zero_at_ground_truth(self):
        graph, _, _ = make_ba_graph(0)
        for e in range(len(graph.edges)):
            for k in range(4):
                assert np.linalg.norm(reprojection_residual(graph, e, k)) < 1e-9

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            Edge(2, 2, np.zeros((3, 2)), np.ones(3))

    def test_matches_naive_evaluation(self):
        graph, _, _ = make_ba_graph(1, pose_perturb_deg=3.0, pose_perturb_rel=0.05,
                                    depth_perturb_rel=0.1)
        for e in range(0, len(graph.edges), 3):
            for k in range(0, len(graph.edges[e].matches), 5):
                fast = reprojection_residual(graph, e, k)
                slow = naive_residual(graph, e, k)
                assert np.linalg.norm(fast - slow) < 1e-12


class TestBaSolve:
    def test_recovers_perturbed_graph(self):
        graph, gt_poses, _ = make_ba_graph(2, n_frames=4, n_anchors=50,
                                           pose_perturb_deg=2.0, pose_perturb_rel=0.02,
                                           depth_perturb_rel=0.05)
        report = ba_solve(graph)
        assert report.converged
        assert report.final_rmse < 1e-6
        for pose, gt in zip(graph.poses, gt_poses):
            assert np.degrees(rotation_angle(pose.rotation.T @ gt.rotation)) < 0.01

    def test_already_optimal_graph_keeps_poses(self):
        graph, gt_poses, gt_depths = make_ba_graph(3)
        report = ba_solve(graph)
        assert report.converged
        assert report.iterations == 1
        for pose, gt in zip(graph.poses, gt_poses):
            assert np.max(np.abs(pose.rotation - gt.rotation)) == 0.0
            assert np.max(np.abs(pose.translation - gt.translation)) == 0.0


    def test_cost_trace_strictly_decreasing(self):
        graph, _, _ = make_ba_graph(4, pose_perturb_deg=3.0, pose_perturb_rel=0.03,
                                    depth_perturb_rel=0.08)
        report = ba_solve(graph)
        trace = np.array(report.cost_trace)
        assert np.all(np.diff(trace) < 0.0)

    def test_pixel_noise_rmse_near_noise_level(self):
        sigma = 0.5
        rmses = []
        for seed in range(100):
            graph, _, _ = make_ba_graph(100 + seed, n_frames=3, n_anchors=24,
                                        match_sigma=sigma, pose_perturb_deg=1.0,
                                        pose_perturb_rel=0.01, depth_perturb_rel=0.03)
            report = ba_solve(graph)
            assert np.isfinite(report.final_rmse)
            assert report.final_rmse <= report.initial_rmse
            rmses.append(report.final_rmse)
        med = float(np.median(rmses))
        assert sigma / 2.0 < med < sigma * 2.0

    def test_linearizes_only_at_accepted_points(self, monkeypatch):
        assemble = ba._assemble
        calls = []
        monkeypatch.setattr(ba, "_assemble", lambda *args: calls.append(1) or assemble(*args))
        # Reject the first step outright, so that the solve is certain to
        # iterate once without linearizing.
        retract, retracts = ba._retract, []

        def reject_first(*args):
            retracts.append(1)
            return None if len(retracts) == 1 else retract(*args)

        monkeypatch.setattr(ba, "_retract", reject_first)
        graph, _, _ = make_ba_graph(2, n_frames=4, n_anchors=40, match_sigma=0.5,
                                    pose_perturb_deg=3.0, pose_perturb_rel=0.03,
                                    depth_perturb_rel=0.1)
        report = ba_solve(graph)
        accepted = len(report.cost_trace) - 1
        assert len(calls) <= 1 + accepted
        assert len(calls) < report.iterations

    def test_graph_without_edges_converges_at_once(self):
        graph, _, _ = make_ba_graph(15, pose_perturb_deg=2.0, depth_perturb_rel=0.05)
        graph.edges = []
        report = ba_solve(graph)
        assert report.converged
        assert report.iterations == 1

    def test_frame_without_anchors_converges(self):
        graph, _, _ = make_ba_graph(16, n_frames=4, n_anchors=60, pose_perturb_deg=2.0,
                                    pose_perturb_rel=0.02, depth_perturb_rel=0.05)
        graph.anchors[2], graph.depths[2] = np.zeros((0, 2)), np.zeros(0)
        graph.edges = [Edge(e.i, e.j, np.zeros((0, 2)), np.zeros(0)) if e.i == 2 else e
                       for e in graph.edges]
        report = ba_solve(graph)
        assert report.converged
        assert report.final_rmse < 1e-6

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_same_final_cost_as_row_by_row_assembly(self, seed, monkeypatch):
        def solve(graph):
            ba_solve(graph)
            return ba_cost(graph)

        def graph():
            return make_ba_graph(seed, n_frames=5, n_anchors=60, match_sigma=0.5,
                                 pose_perturb_deg=1.0, pose_perturb_rel=0.01,
                                 depth_perturb_rel=0.05)[0]

        fast = solve(graph())
        monkeypatch.setattr(ba, "_assemble", assemble_rows)
        assert solve(graph()) == pytest.approx(fast, rel=1e-9)

    def test_too_few_frames_or_anchors(self):
        graph, _, _ = make_ba_graph(5)
        with pytest.raises(ValueError):
            ba_solve(FactorGraph(graph.poses[:1], graph.intrinsics[:1], graph.anchors[:1],
                                 graph.depths[:1], []))


class TestAssemble:
    def test_gradient_and_diagonals_match_finite_differences(self):
        graph, _, _ = make_ba_graph(13, n_frames=3, n_anchors=12, match_sigma=0.5,
                                    pose_perturb_deg=2.0, pose_perturb_rel=0.02,
                                    depth_perturb_rel=0.05)
        # Unequal focal lengths per frame, so that a swapped fx/fy or an owner
        # camera in place of the target camera shows.
        cams = [Intrinsics(240.0 + 10 * f, 270.0 - 5 * f, 250.0 + f, 262.0 - f) for f in range(3)]
        graph = FactorGraph(graph.poses, cams, graph.anchors, graph.depths, graph.edges)
        h_pp, _, h_dd, g_p, g_d = ba._assemble(ba._observations(graph), *ba._state(graph))
        r0 = weighted_residuals(graph)
        h = 1e-6

        def column(plus, minus):
            return (weighted_residuals(plus) - weighted_residuals(minus)) / (2.0 * h)

        pose_cols = [column(with_pose_step(graph, f, h * np.eye(6)[c]),
                            with_pose_step(graph, f, -h * np.eye(6)[c]))
                     for f in range(1, graph.n_frames) for c in range(6)]
        depth_cols = [column(with_inverse_depth_step(graph, f, k, h),
                             with_inverse_depth_step(graph, f, k, -h))
                      for f in range(graph.n_frames) for k in range(len(graph.depths[f]))]
        for cols, grad, diag in ((pose_cols, g_p, np.diag(h_pp)), (depth_cols, g_d, h_dd)):
            jac = np.array(cols)
            fd_grad, fd_diag = jac @ r0, np.sum(jac * jac, axis=1)
            assert np.max(np.abs(grad - fd_grad)) < 1e-6 * np.max(np.abs(fd_grad))
            assert np.max(np.abs(diag - fd_diag)) < 1e-6 * np.max(fd_diag)

    def test_cost_with_duplicate_edge_and_edge_into_frame_0(self):
        graph, _, _ = make_ba_graph(14, n_frames=3, n_anchors=12, match_sigma=1.0,
                                    pose_perturb_deg=2.0, depth_perturb_rel=0.05)
        into_0 = next(e for e in graph.edges if e.j == 0)
        rng = np.random.default_rng(15)
        graph.edges.append(Edge(into_0.i, 0, into_0.matches + rng.normal(0.0, 2.0, (4, 2)),
                                rng.uniform(0.1, 1.0, 4)))
        expected = sum(e.weights[k] * np.sum(reprojection_residual(graph, n, k) ** 2)
                       for n, e in enumerate(graph.edges) for k in range(len(e.matches)))
        assert ba_cost(graph) == pytest.approx(expected, rel=1e-12)


@st.composite
def _assembly_graphs(draw):
    """Graphs and points that stress the per-edge sums of the assembly.

    Anchor counts differ per frame and one frame other than 0 has none, so
    its edges have no rows. The edges repeat a pair, include one into frame
    0, and the points carry zero weights and rows behind the target camera.
    """
    n_frames = draw(st.integers(3, 5))
    empty = draw(st.integers(1, n_frames - 1))
    counts = draw(st.lists(st.integers(1, 7), min_size=n_frames, max_size=n_frames))
    counts[empty] = 0
    frames = st.integers(0, n_frames - 1)
    pairs = draw(st.lists(st.tuples(frames, frames).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=8))
    owner = next(f for f in range(1, n_frames) if f != empty)
    pairs += [pairs[0], (owner, 0), (empty, owner)]
    zero_weight = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    cams = [Intrinsics(*rng.uniform(200.0, 300.0, 4)) for _ in range(n_frames)]
    poses = [Se3Pose(so3_exp(rng.normal(0.0, 0.6, 3)), rng.normal(0.0, 1.0, 3))
             for _ in range(n_frames)]
    anchors = [rng.uniform(0.0, 512.0, (n, 2)) for n in counts]
    depths = [rng.uniform(0.5, 5.0, n) for n in counts]
    edges = [Edge(i, j, rng.uniform(0.0, 512.0, (counts[i], 2)),
                  rng.uniform(0.1, 2.0, counts[i]) * (rng.uniform(size=counts[i]) >= zero_weight))
             for i, j in pairs]
    return FactorGraph(poses, cams, anchors, depths, edges)


@settings(max_examples=150)
@given(graph=_assembly_graphs())
def test_assembly_equals_row_by_row_oracle(graph):
    obs, x = ba._observations(graph), ba._state(graph)
    for fast, rows in zip(ba._assemble(obs, *x), assemble_rows(obs, *x)):
        assert fast.shape == rows.shape
        assert np.max(np.abs(fast - rows), initial=0.0) <= 1e-12 * np.max(np.abs(rows), initial=0.0)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["matches", "weights", "anchors", "depths"])
    def test_rejected_at_construction(self, field, bad):
        graph, _, _ = make_ba_graph(12, n_frames=3, n_anchors=24)
        edge = graph.edges[0]
        matches, weights = edge.matches.copy(), edge.weights.copy()
        anchors = [a.copy() for a in graph.anchors]
        depths = [d.copy() for d in graph.depths]
        target = {"matches": matches, "weights": weights, "anchors": anchors[0], "depths": depths[0]}
        target[field].flat[0] = bad
        with pytest.raises(ValueError, match=field):
            edges = [Edge(edge.i, edge.j, matches, weights)] + graph.edges[1:]
            FactorGraph(graph.poses, graph.intrinsics, anchors, depths, edges)


class TestGaugeInvariance:
    def test_common_rigid_transform_keeps_cost(self):
        graph, _, _ = make_ba_graph(6, pose_perturb_deg=2.0, depth_perturb_rel=0.05)
        base = ba_cost(graph)
        w = Se3Pose(so3_exp([0.2, -0.4, 0.7]), np.array([3.0, -1.0, 2.0]))
        moved = FactorGraph([w.compose(p) for p in graph.poses], graph.intrinsics,
                            graph.anchors, graph.depths, graph.edges)
        assert abs(ba_cost(moved) - base) < 1e-9 * (1.0 + base)

    def test_global_rescale_keeps_cost(self):
        graph, _, _ = make_ba_graph(7, pose_perturb_deg=2.0, depth_perturb_rel=0.05)
        base = ba_cost(graph)
        for c in (0.5, 2.0, 7.3):
            scaled = FactorGraph(
                [Se3Pose(p.rotation, c * p.translation) for p in graph.poses],
                graph.intrinsics, graph.anchors,
                [c * d for d in graph.depths], graph.edges)
            assert abs(ba_cost(scaled) - base) < 1e-9 * (1.0 + base)

    def test_zero_weight_edge_has_no_influence(self):
        def build(extra_edge):
            graph, _, _ = make_ba_graph(8, n_frames=3, n_anchors=24,
                                        pose_perturb_deg=2.0, depth_perturb_rel=0.05)
            if extra_edge:
                n = len(graph.anchors[0])
                rng = np.random.default_rng(99)
                graph.edges.append(Edge(0, 1, rng.uniform(0, 512, (n, 2)), np.zeros(n)))
            return graph

        g_plain = build(False)
        g_dead = build(True)
        ba_solve(g_plain)
        ba_solve(g_dead)
        for a, b in zip(g_plain.poses, g_dead.poses):
            # so3_log resolves angles below the arccos quantization floor
            angle = np.linalg.norm(so3_log(a.rotation.T @ b.rotation))
            assert np.degrees(angle) < 1e-9
            assert np.linalg.norm(a.translation - b.translation) < 1e-9


class TestExtrapolate:
    def test_zero_velocity(self):
        pose = Se3Pose(so3_exp([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        pred = extrapolate_pose([pose, pose])
        assert np.max(np.abs(pred.rotation - pose.rotation)) < 1e-12
        assert np.linalg.norm(pred.translation - pose.translation) < 1e-12

    def test_constant_velocity_is_exact(self):
        step = Se3Pose(so3_exp([0.05, -0.02, 0.1]), np.array([0.3, 0.1, -0.2]))
        g0 = Se3Pose(so3_exp([0.4, 0.0, -0.3]), np.array([1.0, -1.0, 0.5]))
        g1 = step.compose(g0)
        g2 = step.compose(g1)
        pred = extrapolate_pose([g0, g1])
        assert np.max(np.abs(pred.rotation - g2.rotation)) < 1e-9
        assert np.linalg.norm(pred.translation - g2.translation) < 1e-9

    def test_constant_acceleration_error_grows_with_step(self):
        accel = 2.0
        errors = []
        for h in (0.1, 0.2):
            poses = [Se3Pose(np.eye(3), np.array([0.5 * accel * (k * h) ** 2, 0.0, 0.0]))
                     for k in range(3)]
            pred = extrapolate_pose(poses[:2])
            err = np.linalg.norm(pred.translation - poses[2].translation)
            errors.append(err)
            assert np.isfinite(err)
            assert err == pytest.approx(accel * h * h, rel=1e-9)
        assert errors[1] > errors[0]

    def test_needs_two_poses(self):
        with pytest.raises(ValueError):
            extrapolate_pose([Se3Pose.identity()])


class TestReprojectMatches:
    def test_residuals_zero_after_reset(self):
        graph, _, _ = make_ba_graph(9, match_sigma=1.0, pose_perturb_deg=2.0)
        reproject_matches(graph)
        for e in range(len(graph.edges)):
            for k in range(0, len(graph.edges[e].matches), 7):
                assert np.linalg.norm(reprojection_residual(graph, e, k)) < 1e-12

    def test_idempotent(self):
        graph, _, _ = make_ba_graph(10, match_sigma=1.0)
        reproject_matches(graph)
        first = [e.matches.copy() for e in graph.edges]
        reproject_matches(graph)
        for a, e in zip(first, graph.edges):
            assert np.max(np.abs(a - e.matches)) == 0.0

    def test_behind_camera_anchor_keeps_its_match(self):
        # Camera 1 sits 3 units ahead of camera 0 on its optical axis: anchor 0,
        # at depth 1, lies behind camera 1 and the others in front of it.
        k = Intrinsics(256.0, 256.0, 256.0, 256.0)
        anchors = np.array([[256.0, 256.0], [200.0, 240.0], [300.0, 280.0], [260.0, 220.0]])
        graph = FactorGraph([Se3Pose.identity(), Se3Pose(np.eye(3), [0.0, 0.0, 3.0])], [k, k],
                            [anchors, np.zeros((0, 2))], [[1.0, 5.0, 5.5, 6.0], []],
                            [Edge(0, 1, np.full((4, 2), 100.0), np.ones(4))])
        assert reproject_matches(graph) == 1
        assert np.array_equal(graph.edges[0].matches[0], [100.0, 100.0])
        for a in range(1, 4):
            assert np.linalg.norm(reprojection_residual(graph, 0, a)) < 1e-12

    def test_noise_free_matches_unchanged(self):
        graph, _, _ = make_ba_graph(11)
        before = [e.matches.copy() for e in graph.edges]
        reproject_matches(graph)
        for a, e in zip(before, graph.edges):
            assert np.max(np.abs(a - e.matches)) < 1e-9
