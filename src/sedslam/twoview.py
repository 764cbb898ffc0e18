"""Two-view relative pose from weighted bi-directional anchor/match sets.

The pipeline preconditions the pose with a weighted 8-point solve of the
homogeneous least squares ``argmin_F ||diag(w) M vec(F)||^2, ||F|| = 1``,
extracts the four pose candidates from the essential matrix, picks one by
chirality, then refines rotation and translation direction with a
Levenberg-Marquardt solver on the symmetric epipolar distance (SED)

    E_ij = sum_k w_kj * ||err(m_kj, l_kj)||^2,    minimized over (xi_R, xi_t)

summed over both directions, where ``l_kj`` is the epipolar line of anchor
``a_k`` under the pose ``(exp(xi_R) R, exp(xi_t) t)``. Finally the matches
are clamped onto their epipolar lines.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AmbiguityError,
    InsufficientMatchesError,
    RankDeficiencyError,
    SedSlamError,
)
from .geom import (
    LINE_EPS,
    Intrinsics,
    RelativePose,
    calibrated_rays,
    essential_from_fundamental,
    skew,
    so3_exp,
    triangulate_batch,
    vee,
)
from .lm import levenberg_marquardt

# Numerical-rank cutoff (relative to the largest singular value) below which
# the 8-point design matrix is declared degenerate.
_RANK_TOL = 1e-9


def _as_points(a, name) -> np.ndarray:
    a = np.array(a, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    a.flags.writeable = False
    return a


def _as_size(size) -> tuple[float, float]:
    width, height = float(size[0]), float(size[1])
    if not (0.0 < width < math.inf and 0.0 < height < math.inf):
        raise ValueError("image size must be finite and positive")
    return width, height


@dataclass(frozen=True, eq=False)
class AnchorMatchSet:
    """Bi-directional anchor points, matches and confidence weights.

    Frame-0 anchors have their matches in frame 1 and vice versa. Weights
    live in [0, 1]; only strictly positive weights count toward solvability.
    ``size0``/``size1`` are the (width, height) image bounds, finite and
    positive, used by the [-1, 1] normalization of the 8-point stage.
    """

    anchors0: np.ndarray
    matches0: np.ndarray
    weights0: np.ndarray
    anchors1: np.ndarray
    matches1: np.ndarray
    weights1: np.ndarray
    intrinsics0: Intrinsics
    intrinsics1: Intrinsics
    size0: tuple[float, float]
    size1: tuple[float, float]

    def __post_init__(self):
        for name in ("anchors0", "matches0", "anchors1", "matches1"):
            object.__setattr__(self, name, _as_points(getattr(self, name), name))
        for name, n in (("weights0", len(self.anchors0)), ("weights1", len(self.anchors1))):
            w = np.array(getattr(self, name), dtype=float).reshape(-1)
            if w.shape[0] != n:
                raise ValueError(f"{name} must have one entry per anchor")
            if np.any(~np.isfinite(w)) or np.any(w < 0.0) or np.any(w > 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
            w.flags.writeable = False
            object.__setattr__(self, name, w)
        if self.matches0.shape != self.anchors0.shape or self.matches1.shape != self.anchors1.shape:
            raise ValueError("every anchor needs exactly one match")
        object.__setattr__(self, "size0", _as_size(self.size0))
        object.__setattr__(self, "size1", _as_size(self.size1))

    @property
    def n_total(self) -> int:
        return len(self.anchors0) + len(self.anchors1)

    @property
    def n_usable(self) -> int:
        return int(np.sum(self.weights0 > 0.0) + np.sum(self.weights1 > 0.0))

    def with_matches(self, matches0, matches1) -> "AnchorMatchSet":
        return replace(self, matches0=matches0, matches1=matches1)


@dataclass
class SedSolveReport:
    """Outcome of a two-view solve."""

    pose: RelativePose
    iterations: int
    initial_cost: float
    final_cost: float
    converged: bool
    candidate_index: int | None = None
    n_degenerate: int = 0
    clamped: "AnchorMatchSet | None" = field(default=None, repr=False)


def normalize_transform(width: float, height: float) -> np.ndarray:
    """Affine map taking pixel (0,0) to (-1,-1) and (W,H) to (1,1)."""
    return np.array([[2.0 / width, 0.0, -1.0], [0.0, 2.0 / height, -1.0], [0.0, 0.0, 1.0]])


def apply_homography(h, points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    ph = np.concatenate([points, np.ones((*points.shape[:-1], 1))], axis=-1) @ h.T
    return ph[..., :2] / ph[..., 2:3]


def normalize_points(mset: AnchorMatchSet):
    """Map all coordinates to [-1, 1] via the image bounds.

    Returns the normalized set plus the two 3x3 normalizing transforms
    (frame 0 and frame 1); the transforms round-trip exactly up to float
    rounding, and de-normalization of an estimated F is ``T1ᵀ F_norm T0``.
    """
    t0 = normalize_transform(*mset.size0)
    t1 = normalize_transform(*mset.size1)
    normalized = replace(
        mset,
        anchors0=apply_homography(t0, mset.anchors0),
        matches0=apply_homography(t1, mset.matches0),
        anchors1=apply_homography(t1, mset.anchors1),
        matches1=apply_homography(t0, mset.matches1),
    )
    return normalized, t0, t1


def _design_rows(p0, p1):
    # Row-major vec of p̄1 p̄0ᵀ so that row . vec(F) = p̄1ᵀ F p̄0.
    x0, y0 = p0[:, 0], p0[:, 1]
    x1, y1 = p1[:, 0], p1[:, 1]
    one = np.ones_like(x0)
    return np.stack([x1 * x0, x1 * y0, x1, y1 * x0, y1 * y0, y1, x0, y0, one], axis=1)


def weighted_eight_point(mset: AnchorMatchSet) -> np.ndarray:
    """Weighted 8-point estimate of the fundamental matrix.

    Solves the homogeneous least squares over all positive-weight pairs,
    projects the result to rank 2 and returns it with unit Frobenius norm,
    in the coordinate units the set is expressed in.
    """
    rows = np.concatenate([
        _design_rows(mset.anchors0, mset.matches0),
        _design_rows(mset.matches1, mset.anchors1),
    ])
    w = np.concatenate([mset.weights0, mset.weights1])
    usable = w > 0.0
    if int(np.sum(usable)) < 8:
        raise InsufficientMatchesError(
            f"need at least 8 positive-weight matches, have {int(np.sum(usable))}")
    m = rows[usable] * w[usable, None]
    _, sv, vt = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * _RANK_TOL))
    if rank < 8:
        raise RankDeficiencyError(
            f"design matrix has numerical rank {rank} < 8 (degenerate geometry)")
    f = vt[-1].reshape(3, 3)
    u, s, vt2 = np.linalg.svd(f)
    f = (u * np.array([s[0], s[1], 0.0])) @ vt2
    return f / np.linalg.norm(f)


_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
_Z = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def decompose_essential(e) -> list[RelativePose]:
    """Four pose candidates [(t,R1), (t,R2), (-t,R1), (-t,R2)] of an
    essential matrix, via its SVD and the W/Z factor matrices."""
    u, _, vt = np.linalg.svd(np.asarray(e, dtype=float))
    r1 = u @ _W @ vt
    if np.linalg.det(r1) < 0.0:
        r1 = -r1
    r2 = u @ _W.T @ vt
    if np.linalg.det(r2) < 0.0:
        r2 = -r2
    t = vee(u @ _Z @ u.T)
    t = t / np.linalg.norm(t)
    return [RelativePose(r1, t), RelativePose(r2, t),
            RelativePose(r1, -t), RelativePose(r2, -t)]


def _direction(mset: AnchorMatchSet, forward: bool):
    """(anchors, matches, weights, anchor-frame K, match-frame K) of one
    direction: frame-0 anchors matched in frame 1, or the reverse."""
    if forward:
        return mset.anchors0, mset.matches0, mset.weights0, mset.intrinsics0, mset.intrinsics1
    return mset.anchors1, mset.matches1, mset.weights1, mset.intrinsics1, mset.intrinsics0


def front_depths(pose: RelativePose, mset: AnchorMatchSet):
    """Unit-baseline depths of every anchor and masks of those in front.

    Frame-0 anchors are triangulated with ``pose`` and frame-1 anchors with
    its inverse, so each depth is expressed in its anchor's own camera. An
    anchor is in front when its rays subtend at least ``MIN_RAY_ANGLE`` and
    the midpoint lies in front of both cameras. Returns (depths0, front0,
    depths1, front1); a direction without anchors gives empty arrays.
    """
    out = []
    for p, forward in ((pose, True), (pose.inverse(), False)):
        anchors, matches, _, ka, kb = _direction(mset, forward)
        d1, d2, valid = triangulate_batch(p, anchors, matches, ka, kb)
        out += [d1, valid & (d1 > 0.0) & (d2 > 0.0)]
    return tuple(out)


def chirality_scores(candidates, mset: AnchorMatchSet) -> np.ndarray:
    """Weighted count of matches triangulating in front of both cameras."""
    scores = np.zeros(len(candidates))
    for idx, cand in enumerate(candidates):
        _, front0, _, front1 = front_depths(cand, mset)
        scores[idx] = float(np.sum(mset.weights0[front0])) + float(np.sum(mset.weights1[front1]))
    return scores


def select_by_chirality(candidates, mset: AnchorMatchSet):
    """Candidate with the most (weighted) in-front triangulations.

    Returns (pose, candidate_index). Raises :class:`AmbiguityError` when the
    best score is tied, including the no-evidence case of all-zero support.
    """
    scores = chirality_scores(candidates, mset)
    best = int(np.argmax(scores))
    if np.sum(scores == scores[best]) > 1:
        raise AmbiguityError(
            f"chirality test is ambiguous (support {scores.tolist()})")
    return candidates[best], best


_GEN = [skew(e) for e in np.eye(3)]  # so(3) generators


def _epipolar(rot, t, mset: AnchorMatchSet, forward: bool):
    """Epipolar lines of one direction's anchors and the errors of its matches.

    The forward direction scores frame-0 anchors against their frame-1
    matches with E = [t]x R; the reverse direction uses E = Rᵀ [t]x, which
    generates the same lines as the inverse pose up to an overall sign the
    error function is invariant to. Returns (rays, kb_invt, weights, lines,
    d, zeta, matches, good, err): calibrated anchor rays, the match frame's
    K^-T, the weights, the lines, l_x^2 + l_y^2 (1 on degenerate lines),
    l . [m; 1], the matches, the non-degenerate mask and the error vectors.
    """
    anchors, matches, w, ka, kb = _direction(mset, forward)
    e = skew(t) @ rot if forward else rot.T @ skew(t)
    kb_invt = kb.inv_matrix().T
    rays = calibrated_rays(anchors, ka)
    lines = rays @ (kb_invt @ e).T
    lx, ly, lz = lines[:, 0], lines[:, 1], lines[:, 2]
    d = lx * lx + ly * ly
    good = d > LINE_EPS
    d = np.where(good, d, 1.0)
    zeta = lx * matches[:, 0] + ly * matches[:, 1] + lz
    err = (zeta / d)[:, None] * lines[:, :2]
    return rays, kb_invt, w, lines, d, zeta, matches, good, err


def _direction_terms(rot, t, mset: AnchorMatchSet, forward: bool, with_jacobian: bool):
    """Residuals (and Jacobians) of one SED direction.

    Jacobians are taken w.r.t. the forward update (xi_R, xi_t) at identity
    in both directions.
    """
    x, kb_invt, w, lines, d, zeta, matches, good, err = _epipolar(rot, t, mset, forward)
    n_skipped = int(np.sum(~good))
    sw = np.sqrt(w)
    res = (sw[:, None] * err)[good]
    if not with_jacobian:
        return res, None, n_skipped

    # d err / d l, rows of shape (2, 3).
    lx, ly = lines[:, 0], lines[:, 1]
    mx, my = matches[:, 0], matches[:, 1]
    inv_d = 1.0 / d
    inv_d2 = inv_d * inv_d
    j_l = np.empty((len(x), 2, 3))
    j_l[:, 0, 0] = -2.0 * lx * lx * zeta * inv_d2 + lx * mx * inv_d + zeta * inv_d
    j_l[:, 0, 1] = -2.0 * lx * ly * zeta * inv_d2 + lx * my * inv_d
    j_l[:, 0, 2] = lx * inv_d
    j_l[:, 1, 0] = -2.0 * ly * lx * zeta * inv_d2 + ly * mx * inv_d
    j_l[:, 1, 1] = -2.0 * ly * ly * zeta * inv_d2 + ly * my * inv_d + zeta * inv_d
    j_l[:, 1, 2] = ly * inv_d

    # d E / d xi for the six local parameters (rotation first, then t).
    tx = skew(t)
    d_e = np.empty((6, 3, 3))
    for p in range(3):
        gen = _GEN[p]
        gt_vec = skew(gen @ t)
        if forward:
            d_e[p] = tx @ gen @ rot
            d_e[3 + p] = gt_vec @ rot
        else:
            d_e[p] = -rot.T @ gen @ tx
            d_e[3 + p] = rot.T @ gt_vec
    b = kb_invt @ d_e  # (6, 3, 3) premultiplied by the calibration
    d_lines = np.einsum("pij,nj->nip", b, x)
    jac = np.einsum("nij,njp->nip", j_l, d_lines)
    jac = (sw[:, None, None] * jac)[good]
    return res, jac, n_skipped


def _sed_terms(pose: RelativePose, mset: AnchorMatchSet, with_jacobian: bool = False):
    rot, t = pose.rotation, pose.translation_dir
    r0, j0, s0 = _direction_terms(rot, t, mset, True, with_jacobian)
    r1, j1, s1 = _direction_terms(rot, t, mset, False, with_jacobian)
    res = np.concatenate([r0, r1])
    jac = np.concatenate([j0, j1]) if with_jacobian else None
    return res, jac, s0 + s1


def _evaluate(pose: RelativePose, mset: AnchorMatchSet):
    res, _, n_degenerate = _sed_terms(pose, mset)
    return float(np.sum(res * res)), n_degenerate


def sed_cost(pose: RelativePose, mset: AnchorMatchSet) -> float:
    """Symmetric epipolar distance: weighted squared point-to-line errors
    over both directions; degenerate-line terms are skipped."""
    return _evaluate(pose, mset)[0]


def sed_jacobian(pose: RelativePose, mset: AnchorMatchSet):
    """Per-residual 2x6 Jacobian blocks w.r.t. (xi_R, xi_t) at identity.

    Returns (residuals (m, 2), jacobians (m, 2, 6)) with the sqrt-weight of
    each term folded in, frame-0 direction first.
    """
    res, jac, _ = _sed_terms(pose, mset, with_jacobian=True)
    return res, jac


def _normal_equations(pose: RelativePose, mset: AnchorMatchSet):
    res, jac = sed_jacobian(pose, mset)
    j = jac.reshape(-1, 6)
    return j.T @ j, j.T @ res.reshape(-1)


def _damped_solve(system, lam):
    h, g = system
    try:
        return np.linalg.solve(h + lam * np.eye(6), -g)
    except np.linalg.LinAlgError:
        return None


def _retract(pose: RelativePose, xi) -> RelativePose:
    rot = so3_exp(xi[:3]) @ pose.rotation
    t = so3_exp(xi[3:]) @ pose.translation_dir
    return RelativePose(rot, t / np.linalg.norm(t))


def lm_refine_sed(init: RelativePose, mset: AnchorMatchSet,
                  max_iters: int = 50) -> SedSolveReport:
    """Levenberg-Marquardt refinement of the SED objective.

    Updates are applied as ``(exp(xi_R) R, exp(xi_t) t)``. The
    rotation-about-t gauge direction of ``xi_t`` is absorbed by the additive
    damping. ``n_degenerate`` counts the terms skipped at the final pose.
    """
    result = levenberg_marquardt(init, lambda pose: _evaluate(pose, mset),
                                 lambda pose: _normal_equations(pose, mset),
                                 _damped_solve, _retract, max_iters)
    return SedSolveReport(pose=result.x, iterations=result.iterations,
                          initial_cost=result.cost_trace[0], final_cost=result.cost,
                          converged=result.converged, n_degenerate=result.info)


def clamp_to_epipolar(mset: AnchorMatchSet, pose: RelativePose) -> AnchorMatchSet:
    """Project every match onto its epipolar line; anchors stay untouched.

    Matches on degenerate lines are left unchanged. Clamping is a projection
    and therefore idempotent.
    """
    new_matches = []
    for forward in (True, False):
        *_, matches, good, err = _epipolar(pose.rotation, pose.translation_dir, mset, forward)
        new_matches.append(np.where(good[:, None], matches - err, matches))
    return mset.with_matches(*new_matches)


@contextlib.contextmanager
def _staged(stage):
    """Tag a :class:`SedSlamError` raised inside with ``stage`` unless it has one."""
    try:
        yield
    except SedSlamError as exc:
        if exc.stage is None:
            exc.stage = stage
        raise


def solve_two_view(mset: AnchorMatchSet, max_iters: int = 50) -> SedSolveReport:
    """Full two-view pipeline.

    normalize -> weighted 8-point -> uncalibrate to E -> decompose ->
    chirality -> LM refinement of the SED -> clamp matches. Errors raised by
    a sub-stage carry that stage's name.
    """
    if mset.n_usable < 8:
        raise InsufficientMatchesError(
            f"insufficient matches: need at least 8 usable, have {mset.n_usable}")
    with _staged("normalize"):
        normalized, t0, t1 = normalize_points(mset)
    with _staged("eight_point"):
        f_norm = weighted_eight_point(normalized)
    with _staged("uncalibrate"):
        f_pix = t1.T @ f_norm @ t0
        e = essential_from_fundamental(f_pix, mset.intrinsics0, mset.intrinsics1)
    with _staged("decompose"):
        candidates = decompose_essential(e)
    with _staged("chirality"):
        pose0, cand_idx = select_by_chirality(candidates, mset)
    with _staged("refine"):
        report = lm_refine_sed(pose0, mset, max_iters)
    with _staged("clamp"):
        report.clamped = clamp_to_epipolar(mset, report.pose)
    report.candidate_index = cand_idx
    return report
