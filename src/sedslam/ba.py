"""Reprojection-error bundle adjustment over global poses and anchor depths.

Minimizes

    sum_{(i,j) in F} sum_{k in K(i)} w_kj * || proj[G_j^-1 G_i unproj(a_k, d_k)] - m_kj ||^2

with Levenberg-Marquardt over local se(3) pose updates and inverse depths.
The gauge is fixed by freezing the first pose and renormalizing the mean
log-depth (an exact cost-invariant transformation) after every accepted
step; depths are eliminated first through a Schur complement since they are
scalar blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCameraError
from .geom import Intrinsics, Se3Pose, backproject, project, so3_exp
from .lm import levenberg_marquardt


@dataclass
class Edge:
    """Observation of frame i's anchors in frame j."""

    i: int
    j: int
    matches: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError(f"self edge ({self.i}, {self.j}) is not allowed")
        self.matches = np.array(self.matches, dtype=float).reshape(-1, 2)
        self.weights = np.array(self.weights, dtype=float).reshape(-1)
        if len(self.weights) != len(self.matches):
            raise ValueError("one weight per match required")
        if not np.all(np.isfinite(self.matches)):
            raise ValueError("matches must be finite")
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0.0)):
            raise ValueError("weights must be finite and non-negative")


@dataclass
class FactorGraph:
    """Frames with poses, per-frame anchors with depths, and match edges.

    Poses are world-from-camera. The graph is mutable and owned by one solve
    at a time; :func:`ba_solve` updates poses and depths in place.
    """

    poses: list[Se3Pose]
    intrinsics: list[Intrinsics]
    anchors: list[np.ndarray]
    depths: list[np.ndarray]
    edges: list[Edge]

    def __post_init__(self):
        n = len(self.poses)
        if not (len(self.intrinsics) == len(self.anchors) == len(self.depths) == n):
            raise ValueError("per-frame lists must have equal length")
        self.anchors = [np.array(a, dtype=float).reshape(-1, 2) for a in self.anchors]
        self.depths = [np.array(d, dtype=float).reshape(-1) for d in self.depths]
        for a, d in zip(self.anchors, self.depths):
            if len(a) != len(d):
                raise ValueError("one depth per anchor required")
            if not np.all(np.isfinite(a)):
                raise ValueError("anchors must be finite")
            if not np.all(np.isfinite(d) & (d > 0.0)):
                raise ValueError("depths must be finite and strictly positive")
        for e in self.edges:
            if not (0 <= e.i < n and 0 <= e.j < n):
                raise ValueError(f"edge ({e.i}, {e.j}) references a missing frame")
            if len(e.matches) != len(self.anchors[e.i]):
                raise ValueError("edge must carry one match per owner-frame anchor")

    @property
    def n_frames(self) -> int:
        return len(self.poses)

    @property
    def n_anchors(self) -> int:
        return int(sum(len(a) for a in self.anchors))


@dataclass
class BaReport:
    iterations: int
    initial_rmse: float
    final_rmse: float
    converged: bool
    cost_trace: tuple[float, ...] = field(default=(), repr=False)
    n_behind: int = 0


def reprojection_residual(graph: FactorGraph, edge_index: int, k: int) -> np.ndarray:
    """Pixel residual of anchor k of one edge: proj[G_j^-1 G_i unproj(a_k, d_k)] - m_kj."""
    edge = graph.edges[edge_index]
    p = backproject(graph.anchors[edge.i][k], graph.depths[edge.i][k], graph.intrinsics[edge.i])
    q = graph.poses[edge.j].inverse().apply(graph.poses[edge.i].apply(p))
    if q[2] <= 0.0:
        raise BehindCameraError(f"anchor {k} of edge {edge_index} reprojects behind camera {edge.j}")
    return project(q, graph.intrinsics[edge.j]) - edge.matches[k]


def _project_edge(graph, edge, poses, depths):
    """Pinhole projection of edge i's anchors into camera j.

    Returns (rays, y, q, z, ok, pixels): calibrated anchor rays, world and
    camera-j points, the divisor depth (1 behind the camera), the in-front
    mask and the pixels.
    """
    ki, kj = graph.intrinsics[edge.i], graph.intrinsics[edge.j]
    a = graph.anchors[edge.i]
    rays = np.concatenate([a, np.ones((len(a), 1))], axis=1) @ ki.inv_matrix().T
    p = rays * depths[edge.i][:, None]
    gi, gj = poses[edge.i], poses[edge.j]
    y = p @ gi.rotation.T + gi.translation            # world points
    q = (y - gj.translation) @ gj.rotation            # camera-j points
    ok = q[:, 2] > 0.0
    z = np.where(ok, q[:, 2], 1.0)
    pixels = np.stack([kj.fx * q[:, 0] / z + kj.cx, kj.fy * q[:, 1] / z + kj.cy], axis=1)
    return rays, y, q, z, ok, pixels


def _evaluate(graph, poses, depths):
    """Cost plus (rmse, behind-camera count); behind-camera terms get weight zero."""
    res, wts, behind = [], [], 0
    for edge in graph.edges:
        *_, ok, pixels = _project_edge(graph, edge, poses, depths)
        behind += int(np.sum(~ok))
        w = edge.weights * ok
        res.append(np.sqrt(w)[:, None] * (pixels - edge.matches))
        wts.append(w)
    res = np.concatenate(res)
    cost = float(np.sum(res * res))
    wsum = float(np.sum(np.concatenate(wts)))
    rmse = float(np.sqrt(cost / (2.0 * wsum))) if wsum > 0.0 else 0.0
    return cost, (rmse, behind)


def ba_cost(graph: FactorGraph) -> float:
    """Total weighted squared reprojection error of the graph."""
    return _evaluate(graph, graph.poses, graph.depths)[0]


def _assemble(graph, poses, depths, anchor_offsets):
    """Undamped normal equations (h_pp, h_pd, h_dd, g_p, g_d).

    Pose parameters are (omega, v) of a left-multiplied update with frame 0
    frozen; depth parameters are inverse depths, whose block h_dd is
    diagonal.
    """
    n_pose = 6 * (graph.n_frames - 1)
    n_depth = graph.n_anchors
    h_pp = np.zeros((n_pose, n_pose))
    h_pd = np.zeros((n_pose, n_depth))
    h_dd = np.zeros(n_depth)
    g_p = np.zeros(n_pose)
    g_d = np.zeros(n_depth)

    for edge in graph.edges:
        rays, y, q, z, ok, pixels = _project_edge(graph, edge, poses, depths)
        kj = graph.intrinsics[edge.j]
        gi, gj = poses[edge.i], poses[edge.j]
        r = pixels - edge.matches
        sw = np.sqrt(edge.weights * ok)
        n = len(rays)
        inv_z = 1.0 / z
        dpi = np.zeros((n, 2, 3))
        dpi[:, 0, 0] = kj.fx * inv_z
        dpi[:, 0, 2] = -kj.fx * q[:, 0] * inv_z * inv_z
        dpi[:, 1, 1] = kj.fy * inv_z
        dpi[:, 1, 2] = -kj.fy * q[:, 1] * inv_z * inv_z

        rjt = gj.rotation.T
        # d q / d xi_i = [-Rjᵀ [y]x | Rjᵀ], d q / d xi_j is its negative.
        y_skew = np.zeros((n, 3, 3))
        y_skew[:, 0, 1] = -y[:, 2]
        y_skew[:, 0, 2] = y[:, 1]
        y_skew[:, 1, 0] = y[:, 2]
        y_skew[:, 1, 2] = -y[:, 0]
        y_skew[:, 2, 0] = -y[:, 1]
        y_skew[:, 2, 1] = y[:, 0]
        dq_xi = np.empty((n, 3, 6))
        dq_xi[:, :, :3] = -np.einsum("ab,nbc->nac", rjt, y_skew)
        dq_xi[:, :, 3:] = np.broadcast_to(rjt, (n, 3, 3))

        # d q / d rho for inverse depth rho = 1/d: -Rjᵀ Ri u d^2.
        d2 = depths[edge.i] ** 2
        dq_rho = -(rays @ (rjt @ gi.rotation).T) * d2[:, None]

        j_i = np.einsum("nij,njp->nip", dpi, dq_xi) * sw[:, None, None]
        j_d = np.einsum("nij,nj->ni", dpi, dq_rho) * sw[:, None]
        rw = r * sw[:, None]

        blocks = []
        if edge.i > 0:
            blocks.append((edge.i, j_i))
        if edge.j > 0:
            blocks.append((edge.j, -j_i))
        d_idx = anchor_offsets[edge.i] + np.arange(n)

        for fa, ja in blocks:
            sa = slice(6 * (fa - 1), 6 * fa)
            ja_flat = ja.reshape(-1, 6)
            g_p[sa] += ja_flat.T @ rw.reshape(-1)
            for fb, jb in blocks:
                sb = slice(6 * (fb - 1), 6 * fb)
                h_pp[sa, sb] += ja_flat.T @ jb.reshape(-1, 6)
            h_pd_block = np.einsum("nip,ni->np", ja, j_d)
            h_pd[sa, d_idx] += h_pd_block.T
        h_dd[d_idx] += np.sum(j_d * j_d, axis=1)
        g_d[d_idx] += np.sum(j_d * rw, axis=1)

    return h_pp, h_pd, h_dd, g_p, g_d


def _damped_schur_solve(system, lam):
    """Damped step (pose steps, then inverse-depth steps) with the diagonal
    depth block eliminated through its Schur complement; None when the
    reduced camera system fails to factor."""
    h_pp, h_pd, h_dd, g_p, g_d = system
    b_p = -g_p
    b_d = -g_d
    inv_dd = 1.0 / (h_dd + lam)
    schur = h_pp + lam * np.eye(len(g_p)) - (h_pd * inv_dd) @ h_pd.T
    rhs = b_p - h_pd @ (inv_dd * b_d)
    try:
        pose_step = np.linalg.solve(schur, rhs)
    except np.linalg.LinAlgError:
        return None
    depth_step = inv_dd * (b_d - h_pd.T @ pose_step)
    return np.concatenate([pose_step, depth_step])


def _retract(x, step, anchor_offsets, target_mean_log_depth):
    """Apply a damped step to (poses, depths), then restore the gauge.

    Returns None when an inverse depth turns non-positive. The gauge
    transform rescales all depths by c and moves every translation to
    c*t + (1-c)*t_0, which restores the mean log-depth, leaves the
    reprojection cost unchanged and keeps the first (frozen) pose fixed.
    """
    poses, depths = x
    n_pose = 6 * (len(poses) - 1)
    pose_step = step[:n_pose].reshape(-1, 6)
    depth_step = step[n_pose:]
    new_poses = [poses[0]]
    for old, xi in zip(poses[1:], pose_step):
        rot = so3_exp(xi[:3])
        new_poses.append(Se3Pose(rot @ old.rotation, rot @ old.translation + xi[3:]))
    new_depths = []
    for d, offset in zip(depths, anchor_offsets):
        rho_new = 1.0 / d + depth_step[offset:offset + len(d)]
        if np.any(rho_new <= 0.0):
            return None
        new_depths.append(1.0 / rho_new)

    c = float(np.exp(target_mean_log_depth - np.mean(np.log(np.concatenate(new_depths)))))
    if abs(c - 1.0) < 1e-15:
        return new_poses, new_depths
    t0 = new_poses[0].translation
    return ([new_poses[0]] + [Se3Pose(p.rotation, c * p.translation + (1.0 - c) * t0)
                              for p in new_poses[1:]],
            [c * d for d in new_depths])


def ba_solve(graph: FactorGraph) -> BaReport:
    """Bundle adjustment; mutates the graph's poses and depths in place."""
    if graph.n_frames < 2:
        raise ValueError("bundle adjustment needs at least 2 frames")
    if graph.n_anchors < 6:
        raise ValueError("bundle adjustment needs at least 6 anchors")
    anchor_offsets = np.concatenate([[0], np.cumsum([len(a) for a in graph.anchors])])[:-1]
    target_mld = float(np.mean(np.log(np.concatenate(graph.depths))))

    result = levenberg_marquardt(
        (graph.poses, graph.depths),
        lambda x: _evaluate(graph, *x),
        lambda x: _assemble(graph, *x, anchor_offsets),
        _damped_schur_solve,
        lambda x, step: _retract(x, step, anchor_offsets, target_mld))
    graph.poses, graph.depths = result.x
    initial_rmse, _ = result.initial_info
    final_rmse, behind = result.info
    return BaReport(iterations=result.iterations, initial_rmse=initial_rmse,
                    final_rmse=final_rmse, converged=result.converged,
                    cost_trace=result.cost_trace, n_behind=behind)


def extrapolate_pose(history) -> Se3Pose:
    """Linear-motion prediction: apply the latest relative motion once more."""
    if len(history) < 2:
        raise ValueError("pose extrapolation needs at least 2 poses")
    prev, last = history[-2], history[-1]
    return last.compose(prev.inverse().compose(last))


def reproject_matches(graph: FactorGraph) -> int:
    """Reset every edge's matches to the reprojection of its anchors.

    After the reset all residuals are exactly zero, making the operation
    idempotent. Returns the number of behind-camera anchors, whose matches
    are left unchanged.
    """
    flagged = 0
    for edge in graph.edges:
        *_, ok, pixels = _project_edge(graph, edge, graph.poses, graph.depths)
        flagged += int(np.sum(~ok))
        edge.matches = np.where(ok[:, None], pixels, edge.matches)
    return flagged
