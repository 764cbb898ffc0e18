"""Reprojection-error bundle adjustment over global poses and anchor depths.

Minimizes

    sum_{(i,j) in F} sum_{k in K(i)} w_kj * || proj[G_j^-1 G_i unproj(a_k, d_k)] - m_kj ||^2

with Levenberg-Marquardt over local se(3) pose updates and inverse depths.
The gauge is fixed by freezing the first pose and renormalizing the mean
log-depth (an exact cost-invariant transformation) after every accepted
step; depths are eliminated first through a Schur complement since they are
scalar blocks. The scatter layout is built once per solve, and each edge's
pose blocks are summed over its rows first (Agarwal et al., ECCV 2010).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geom import Intrinsics, Se3Pose, calibrated_rays, so3_exp
from .lm import Termination, levenberg_marquardt


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
class BaReport(Termination):
    iterations: int
    initial_rmse: float
    final_rmse: float
    reason: str
    cost_trace: tuple[float, ...] = field(default=(), repr=False)
    n_behind: int = 0


class _Observations(NamedTuple):
    """One row per (edge, owner anchor), in edge order, and the scatter layout."""

    i: np.ndarray  # owner frame
    j: np.ndarray  # target frame
    d: np.ndarray  # row of the anchor in the flat depth vector
    matches: np.ndarray
    weights: np.ndarray
    owner: np.ndarray  # owner frame of every anchor, in depth-vector order
    rays: np.ndarray  # calibrated rays K^-1 (a, 1) of every anchor, in the same order
    cams: np.ndarray  # target camera (fx, fy, cx, cy)
    starts: np.ndarray  # first row of every edge that has rows
    pp: np.ndarray  # flat h_pp positions, (4, 6, 6, edge): (i,i), (j,j), (i,j), (j,i)
    gp: np.ndarray  # flat g_p positions, (2, 6, edge): frames i, j
    pd: np.ndarray  # flat h_pd positions, (2, 6, row): frames i, j


def _observations(graph) -> _Observations:
    """The observation table of ``graph``, rows in edge order."""
    offsets = np.cumsum([0] + [len(a) for a in graph.anchors])
    rays = np.concatenate([calibrated_rays(a, k) for a, k in zip(graph.anchors, graph.intrinsics)])
    cams = np.array([(k.fx, k.fy, k.cx, k.cy) for k in graph.intrinsics])
    counts = np.array([len(e.matches) for e in graph.edges], dtype=int)
    edge_i, edge_j = np.array([(e.i, e.j) for e in graph.edges], dtype=int).reshape(-1, 2).T
    i, j = np.repeat(edge_i, counts), np.repeat(edge_j, counts)
    first = np.cumsum(counts) - counts
    d = offsets[i] + np.arange(len(i)) - np.repeat(first, counts)
    matches = np.concatenate([e.matches for e in graph.edges] + [np.zeros((0, 2))])
    weights = np.concatenate([e.weights for e in graph.edges] + [np.zeros(0)])
    # An edge without rows has no segment to sum, so it is left out.
    has_rows, col, n_pose = counts > 0, np.arange(6)[:, None], 6 * graph.n_frames
    own, tgt = 6 * edge_i[has_rows] + col, 6 * edge_j[has_rows] + col
    rows, cols = np.stack([own, tgt, own, tgt]), np.stack([own, tgt, tgt, own])
    pd = np.stack([6 * i + col, 6 * j + col]) * len(rays) + d
    owner = np.repeat(np.arange(graph.n_frames), np.diff(offsets))
    return _Observations(i, j, d, matches, weights, owner, rays, cams[j], first[has_rows],
                         (rows[:, :, None] * n_pose + cols[:, None]).ravel(),
                         np.stack([own, tgt]).ravel(), pd.ravel())


def _state(graph):
    """((rotations, translations), depths) as stacked and flat arrays."""
    return ((np.stack([p.rotation for p in graph.poses]),
             np.stack([p.translation for p in graph.poses])),
            np.concatenate(graph.depths))


def _project(obs, poses, depths):
    """Pinhole projection of every observation.

    Returns (y, q, z, ok, pixels): world and target-camera points, the
    divisor depth (1 behind the camera), the in-front mask and the pixels.
    Each anchor's world point is computed once and gathered for its rows.
    """
    rot, trans = poses
    world = np.einsum("nab,nb->na", rot[obs.owner], obs.rays * depths[:, None]) + trans[obs.owner]
    y = world[obs.d]
    q = np.einsum("nba,nb->na", rot[obs.j], y - trans[obs.j])
    ok = q[:, 2] > 0.0
    z = np.where(ok, q[:, 2], 1.0)
    pixels = obs.cams[:, :2] * q[:, :2] / z[:, None] + obs.cams[:, 2:]
    return y, q, z, ok, pixels


def _evaluate(obs, poses, depths):
    """Cost plus ((rmse, behind-camera count), projection); behind-camera
    terms get weight zero. The :func:`_project` tuple is passed on to
    :func:`_assemble` when the point is linearized."""
    proj = _project(obs, poses, depths)
    *_, ok, pixels = proj
    w = obs.weights * ok
    res = np.sqrt(w)[:, None] * (pixels - obs.matches)
    cost = float(np.sum(res * res))
    wsum = float(np.sum(w))
    rmse = float(np.sqrt(cost / (2.0 * wsum))) if wsum > 0.0 else 0.0
    return cost, ((rmse, int(np.sum(~ok))), proj)


def ba_cost(graph: FactorGraph) -> float:
    """Total weighted squared reprojection error of the graph."""
    return _evaluate(_observations(graph), *_state(graph))[0]


def _assemble(obs, poses, depths, proj):
    """Undamped normal equations (h_pp, h_pd, h_dd, g_p, g_d), given the
    :func:`_project` tuple of the same point.

    Pose parameters are (omega, v) of a left-multiplied update with frame 0
    frozen; depth parameters are inverse depths, whose block h_dd is
    diagonal. Each edge's pose blocks JᵀJ and Jᵀr are summed over its rows
    before the scatter. Terms cover all frames, then frame 0 is sliced off.
    """
    rot, trans = poses
    y, q, z, ok, pixels = proj
    sw = np.sqrt(obs.weights * ok)
    # Chain rule through the world point y: d pixel / d y = dpi Rjᵀ, where dpi has
    # diagonal f / z and last column -f q / z², f = (fx, fy); d y / d xi_i = [-[y]x | I]
    # and d y / d rho = -(y - t_i) d for rho = 1/d. The target pose gets minus the owner's.
    f = np.ascontiguousarray(obs.cams[:, :2].T)
    dpi_xy, dpi_z = f / z, -f * np.ascontiguousarray(q[:, :2].T) / (z * z)
    r_j = rot.transpose(1, 2, 0)[:, :, obs.j]
    # Parameter-major, so products run along rows: pose 0-5, inverse depth 6, residual 7.
    jac = np.empty((8, 2, len(z)))
    jac[3:6] = (dpi_xy * r_j[:, :2] + dpi_z * r_j[:, 2:]) * sw
    jac[0] = y[:, 1] * jac[5] - y[:, 2] * jac[4]
    jac[1] = y[:, 2] * jac[3] - y[:, 0] * jac[5]
    jac[2] = y[:, 0] * jac[4] - y[:, 1] * jac[3]
    jac[6] = np.einsum("ban,nb->an", jac[3:6], (trans[obs.i] - y) * depths[obs.d, None])
    jac[7] = (pixels - obs.matches).T * sw
    n_pose, n_depth = 6 * len(rot), len(depths)
    prod = np.einsum("pan,qan->pqn", jac[:7], jac)
    edge = np.add.reduceat(prod[:6], obs.starts, axis=2)
    jj, jr, jd = edge[:, :6], edge[:, 7], prod[:6, 6]
    h_pp = np.bincount(obs.pp, np.stack([jj, jj, -jj, -jj]).ravel(), n_pose * n_pose)
    h_pd = np.bincount(obs.pd, np.stack([jd, -jd]).ravel(), n_pose * n_depth).reshape(n_pose, -1)
    g_p = np.bincount(obs.gp, np.stack([jr, -jr]).ravel(), n_pose)
    h_dd = np.bincount(obs.d, prod[6, 6], n_depth)
    g_d = np.bincount(obs.d, prod[6, 7], n_depth)
    blocks = h_pp.reshape(n_pose, -1)[6:, 6:], h_pd[6:], h_dd, g_p[6:], g_d
    return tuple(b.astype(float, copy=False) for b in blocks)  # bincount of no rows is int64


def _damped_schur_solve(system, lam):
    """Damped step (pose steps, then inverse-depth steps) with the diagonal
    depth block eliminated through its Schur complement; None when the
    reduced camera system fails to factor."""
    h_pp, h_pd, h_dd, g_p, g_d = system
    inv_dd = 1.0 / (h_dd + lam)
    schur = h_pp + lam * np.eye(len(g_p)) - (h_pd * inv_dd) @ h_pd.T
    rhs = h_pd @ (inv_dd * g_d) - g_p
    try:
        pose_step = np.linalg.solve(schur, rhs)
    except np.linalg.LinAlgError:
        return None
    depth_step = -inv_dd * (g_d + h_pd.T @ pose_step)
    return np.concatenate([pose_step, depth_step])


def _retract(x, step, target_mean_log_depth):
    """Apply a damped step to (poses, depths), then restore the gauge.

    Returns None when an inverse depth turns non-positive. The gauge
    transform rescales all depths by c and moves every translation to
    c*t + (1-c)*t_0, which restores the mean log-depth, leaves the
    reprojection cost unchanged and keeps the first (frozen) pose fixed.
    """
    (rot, trans), depths = x
    n_pose = 6 * (len(rot) - 1)
    rho = 1.0 / depths + step[n_pose:]
    if np.any(rho <= 0.0):
        return None
    xi = np.concatenate([np.zeros(6), step[:n_pose]]).reshape(-1, 6)
    d_rot = so3_exp(xi[:, :3])
    new_rot = d_rot @ rot
    new_trans = np.einsum("fab,fb->fa", d_rot, trans) + xi[:, 3:]
    new_depths = 1.0 / rho

    c = float(np.exp(target_mean_log_depth - np.mean(np.log(new_depths))))
    if abs(c - 1.0) >= 1e-15:
        new_trans[1:] = c * new_trans[1:] + (1.0 - c) * new_trans[0]
        new_depths = c * new_depths
    return (new_rot, new_trans), new_depths


def ba_solve(graph: FactorGraph) -> BaReport:
    """Bundle adjustment; mutates the graph's poses and depths in place."""
    if graph.n_frames < 2:
        raise ValueError("bundle adjustment needs at least 2 frames")
    if graph.n_anchors < 6:
        raise ValueError("bundle adjustment needs at least 6 anchors")
    obs = _observations(graph)
    x0 = _state(graph)
    target_mld = float(np.mean(np.log(x0[1])))

    result = levenberg_marquardt(
        x0,
        lambda x: _evaluate(obs, *x),
        lambda x, info: _assemble(obs, *x, info[1]),
        _damped_schur_solve,
        lambda x, step: _retract(x, step, target_mld))
    (rot, trans), depths = result.x
    graph.poses = [Se3Pose(r, t) for r, t in zip(rot, trans)]
    graph.depths = np.split(depths, np.cumsum([len(a) for a in graph.anchors])[:-1])
    (initial_rmse, _), _ = result.initial_info
    (final_rmse, behind), _ = result.info
    return BaReport(iterations=result.iterations, initial_rmse=initial_rmse,
                    final_rmse=final_rmse, reason=result.reason,
                    cost_trace=result.cost_trace, n_behind=behind)

