"""Two-view relative pose from weighted bi-directional anchor/match sets.

The pipeline runs in stages. ``eight_point`` solves the weighted homogeneous
least squares ``argmin_F ||diag(w) M vec(F)||^2, ||F|| = 1`` on points mapped
to [-1, 1] and returns the pixel F; ``decompose`` extracts the four pose
candidates from its essential matrix; ``chirality`` picks one; ``refine``
moves rotation and translation direction by a Levenberg-Marquardt solver on
the symmetric epipolar distance (SED)

    E_ij = sum_k w_kj * ||err(m_kj, l_kj)||^2,    minimized over (xi_R, xi_t)

summed over both directions, where ``l_kj`` is the epipolar line of anchor
``a_k`` under the pose ``(exp(xi_R) R, exp(xi_t) t)``. Finally ``clamp`` moves
the matches onto their epipolar lines. Inside the solve the row table, lines,
errors and Jacobians are component-major, one length-n row per component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    AmbiguityError,
    InsufficientMatchesError,
    RankDeficiencyError,
    _staged,
)
from .geom import (
    LINE_EPS,
    Intrinsics,
    RelativePose,
    _derived_pose,
    _finite_svd,
    _norm,
    _unchecked,
    calibrated_rays,
    essential_from_fundamental,
    skew,
    so3_exp,
    triangulate_batch,
    vee,
)
from .lm import Termination, levenberg_marquardt

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

    @cached_property
    def _rows(self):
        """Read-only SED row table, built on first use and stored component-major: per
        direction (frame-0 anchors first) the anchor rays (3, n_dir) and match-frame
        K^-T, then all matches (2, n), a row of x and a row of y, and sqrt weights (n,)."""
        rows = ((np.ascontiguousarray(calibrated_rays(self.anchors0, self.intrinsics0).T),
                 np.ascontiguousarray(calibrated_rays(self.anchors1, self.intrinsics1).T)),
                (self.intrinsics1.inv_matrix().T, self.intrinsics0.inv_matrix().T),
                np.ascontiguousarray(np.concatenate([self.matches0, self.matches1]).T),
                np.sqrt(np.concatenate([self.weights0, self.weights1])))
        for a in (*rows[0], *rows[1], *rows[2:]):
            a.flags.writeable = False
        return rows


@dataclass
class SedSolveReport(Termination):
    """Outcome of a two-view solve; ``reason`` is why LM stopped."""

    pose: RelativePose
    iterations: int
    initial_cost: float
    final_cost: float
    reason: str
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


def _derived_set(mset: AnchorMatchSet, **points) -> AnchorMatchSet:
    """``replace(mset, **points)`` of points derived from the checked ``mset``, unchecked."""
    return _unchecked(AnchorMatchSet, *(points.get(name, getattr(mset, name))
                                        for name in AnchorMatchSet.__dataclass_fields__))


def _design_rows(p0, p1):
    # Row-major vec of p̄1 p̄0ᵀ so that row . vec(F) = p̄1ᵀ F p̄0.
    x0, y0 = p0[:, 0], p0[:, 1]
    x1, y1 = p1[:, 0], p1[:, 1]
    one = np.ones_like(x0)
    return np.stack([x1 * x0, x1 * y0, x1, y1 * x0, y1 * y0, y1, x0, y0, one], axis=1)


def weighted_eight_point(mset: AnchorMatchSet) -> np.ndarray:
    """Weighted 8-point estimate of the pixel fundamental matrix ``T1ᵀ F T0``.

    ``T0``/``T1`` map each frame's points to [-1, 1] by its image bounds; there
    ``F`` solves the homogeneous least squares over all positive-weight pairs,
    projected to rank 2 with unit Frobenius norm.
    """
    t0, t1 = normalize_transform(*mset.size0), normalize_transform(*mset.size1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused at the SVD
        rows = _design_rows(np.concatenate([apply_homography(t0, mset.anchors0),
                                            apply_homography(t0, mset.matches1)]),
                            np.concatenate([apply_homography(t1, mset.matches0),
                                            apply_homography(t1, mset.anchors1)]))
    w = np.concatenate([mset.weights0, mset.weights1])
    usable = w > 0.0
    if int(np.sum(usable)) < 8:
        raise InsufficientMatchesError(
            f"need at least 8 positive-weight matches, have {int(np.sum(usable))}")
    m = rows[usable] * w[usable, None]
    _, sv, vt = _finite_svd(m, "weighted design matrix", full_matrices=False)
    rank = int(np.sum(sv > sv[0] * _RANK_TOL))
    if rank < 8:
        raise RankDeficiencyError(
            f"design matrix has numerical rank {rank} < 8 (degenerate geometry)")
    f = vt[-1].reshape(3, 3)
    u, s, vt2 = np.linalg.svd(f)
    f = (u * np.array([s[0], s[1], 0.0])) @ vt2
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused at E's SVD
        return t1.T @ (f / np.linalg.norm(f)) @ t0


_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
_Z = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def decompose_essential(e) -> list[RelativePose]:
    """Four pose candidates [(t,R1), (t,R2), (-t,R1), (-t,R2)] of an
    essential matrix, via its SVD and the W/Z factor matrices."""
    u, _, vt = _finite_svd(np.asarray(e, dtype=float), "essential matrix")
    r1, r2 = (-r if np.linalg.det(r) < 0.0 else r for r in (u @ _W @ vt, u @ _W.T @ vt))
    t = vee(u @ _Z @ u.T)
    t = t / _norm(t)
    return [_derived_pose(r1, t), _derived_pose(r2, t),
            _derived_pose(r1, -t), _derived_pose(r2, -t)]


def front_depths(pose, mset: AnchorMatchSet):
    """Unit-baseline depths of every anchor and masks of those in front.

    Frame-0 anchors are triangulated with ``pose`` and frame-1 anchors with
    its inverse, so each depth is expressed in its anchor's own camera. An
    anchor is in front when its rays subtend at least ``MIN_RAY_ANGLE`` and
    the midpoint lies in front of both cameras. Returns (depths0, front0,
    depths1, front1); a direction without anchors gives empty arrays.
    ``pose`` may also be a sequence of P candidates, triangulated in one
    pass per direction, which adds a leading axis of length P to each array.
    A candidate whose rotation is bit-equal to an earlier one's and whose
    translation is that one's exact negation is not triangulated: every
    operation of the triangulation and of the inverse is odd in t, so its
    depths are the earlier candidate's negated (up to the sign of an exact
    zero, which no mask sees) and its ray mask is the same.
    """
    if isinstance(pose, RelativePose):
        return tuple(a[0] for a in front_depths([pose], mset))
    unique, src, sign, index = [], [], [], {}
    for p in pose:
        rot = p.rotation.tobytes()
        twin = index.get((rot, (-p.translation_dir).tobytes()))
        if twin is None:
            index[rot, p.translation_dir.tobytes()] = len(unique)
            unique.append(p)
        src.append(len(unique) - 1 if twin is None else twin)
        sign.append(1.0 if twin is None else -1.0)
    sign = np.array(sign)[:, None]
    out = []
    k0, k1 = mset.intrinsics0, mset.intrinsics1
    for args in ((unique, mset.anchors0, mset.matches0, k0, k1),
                 ([p.inverse() for p in unique], mset.anchors1, mset.matches1, k1, k0)):
        d1, d2, valid = triangulate_batch(*args)
        d1, d2 = sign * d1[src], sign * d2[src]
        out += [d1, valid[src] & (d1 > 0.0) & (d2 > 0.0)]
    return tuple(out)


def chirality_scores(candidates, mset: AnchorMatchSet) -> np.ndarray:
    """Weighted count of matches triangulating in front of both cameras; a
    candidate negating an earlier one's t reuses its :func:`front_depths`."""
    _, front0, _, front1 = front_depths(candidates, mset)
    return np.array([float(np.sum(mset.weights0[f0])) + float(np.sum(mset.weights1[f1]))
                     for f0, f1 in zip(front0, front1)])


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


_GEN = skew(np.eye(3))  # so(3) generators


def _epipolar(rot, t, mset: AnchorMatchSet):
    """Epipolar lines of the anchors and errors of the matches of every row.

    Frame-0 anchors use E = [t]x R and frame-1 anchors E = Rᵀ [t]x, the
    inverse pose's E up to a sign the error function is invariant to.
    Returns (lines, d, zeta, good, err): the lines (3, n), l_x^2 + l_y^2,
    l . [m; 1], the non-degenerate mask and the errors (2, n). A degenerate
    line is taken as zero, with d = 1, so its zeta and error are zero.
    """
    rays, k_invt, m_xy, _ = mset._rows
    tx = skew(t)
    lines = np.concatenate([k @ e @ x for x, k, e in zip(rays, k_invt, (tx @ rot, rot.T @ tx))],
                           axis=1)
    d = lines[0] * lines[0] + lines[1] * lines[1]
    good = d > LINE_EPS
    lines = np.where(good, lines, 0.0)
    d = np.where(good, d, 1.0)
    zeta = lines[0] * m_xy[0] + lines[1] * m_xy[1] + lines[2]
    return lines, d, zeta, good, zeta / d * lines[:2]


class _SedTerms(NamedTuple):
    """What :func:`_evaluate` computed at a pose: the number of degenerate
    rows, the :func:`_epipolar` arrays of every row and the residuals (m, 2)
    of the non-degenerate rows, frame-0 anchors first."""

    n_degenerate: int
    epipolar: tuple
    residuals: np.ndarray


def _evaluate(pose: RelativePose, mset: AnchorMatchSet):
    """SED cost at ``pose`` and the :class:`_SedTerms` it was summed from."""
    epi = _epipolar(pose.rotation, pose.translation_dir, mset)
    *_, good, err = epi
    res = (mset._rows[3] * err)[:, good].T.copy()
    return float(np.sum(res * res)), _SedTerms(len(good) - int(np.count_nonzero(good)), epi, res)


def _jacobian(pose: RelativePose, mset: AnchorMatchSet, epi):
    """Jacobians (6, 2 n_dir) per direction, frame-0 anchors first, of every
    row's residuals w.r.t. the forward update (xi_R, xi_t) at identity, from
    the epipolar arrays at ``pose``; columns run over (residual, row), and
    the rows of degenerate lines are zero."""
    rot, t = pose.rotation, pose.translation_dir
    rays, k_invt, m_xy, sw = mset._rows
    lines, d, zeta, _, _ = epi

    # sqrt(w) d err / d l as (3, 2, n), indexed (l component, residual, row):
    # with c = zeta / d and v = ((m - 2 c l_xy) / d, 1 / d), d err / d l is the
    # rank-one l_xy vᵀ plus c on the diagonal of its (2, 2) block.
    c = zeta / d
    j_l = (np.concatenate([(m_xy - 2.0 * c * lines[:2]) / d, (1.0 / d)[None]])[:, None]
           * (sw * lines[:2]))
    j_l[(0, 1), (0, 1)] += sw * c

    # K^-T d E / d xi of both directions, rotation first, then t: [t]x G R and
    # -Rᵀ G [t]x for the rotation generators G, [G t]x R and Rᵀ [G t]x for t.
    # Flattened, each direction's six matrices form a 6 x 9 matrix D, and since
    # l = K^-T E x a row's Jacobian is D (d err / d l ⊗ x): one product per direction.
    tx, gt = skew(t), skew(_GEN @ t)
    d_mat = (k_invt[0] @ np.concatenate([tx @ _GEN, gt]) @ rot,
             k_invt[1] @ rot.T @ np.concatenate([-_GEN @ tx, gt]))
    n0 = len(mset.anchors0)
    return [dm.reshape(6, 9) @ (jl[:, None] * x[:, None]).reshape(9, -1)
            for dm, jl, x in zip(d_mat, (j_l[:, :, :n0], j_l[:, :, n0:]), rays)]


def sed_cost(pose: RelativePose, mset: AnchorMatchSet) -> float:
    """Symmetric epipolar distance: weighted squared point-to-line errors
    over both directions; degenerate-line terms are skipped."""
    return _evaluate(pose, mset)[0]


def sed_jacobian(pose: RelativePose, mset: AnchorMatchSet):
    """Per-residual 2x6 Jacobian blocks w.r.t. (xi_R, xi_t) at identity.

    Returns (residuals (m, 2), jacobians (m, 2, 6)) with the sqrt-weight of
    each term folded in, frame-0 direction first.
    """
    terms = _evaluate(pose, mset)[1]
    jac = np.concatenate([j.reshape(6, 2, -1) for j in _jacobian(pose, mset, terms.epipolar)],
                         axis=2)
    return terms.residuals, jac[:, :, terms.epipolar[3]].transpose(2, 1, 0)


def _normal_equations(pose: RelativePose, terms: _SedTerms, mset: AnchorMatchSet):
    """JᵀJ and Jᵀr summed over both directions; degenerate rows are zero in J and r."""
    res, n0 = mset._rows[3] * terms.epipolar[4], len(mset.anchors0)
    blocks = list(zip(_jacobian(pose, mset, terms.epipolar), (res[:, :n0], res[:, n0:])))
    return sum(j @ j.T for j, _ in blocks), sum(j @ r.ravel() for j, r in blocks)


def _damped_solve(system, lam):
    h, g = system
    try:
        return np.linalg.solve(h + lam * np.eye(6), -g)
    except np.linalg.LinAlgError:
        return None


def _retract(pose: RelativePose, xi) -> RelativePose:
    d_rot, d_t = so3_exp(xi.reshape(2, 3))
    t = d_t @ pose.translation_dir
    return _derived_pose(d_rot @ pose.rotation, t / _norm(t))


def lm_refine_sed(init: RelativePose, mset: AnchorMatchSet,
                  max_iters: int = 50) -> SedSolveReport:
    """Levenberg-Marquardt refinement of the SED objective.

    Updates are applied as ``(exp(xi_R) R, exp(xi_t) t)``. The
    rotation-about-t gauge direction of ``xi_t`` is absorbed by the additive
    damping. ``n_degenerate`` counts the terms skipped at the final pose.
    """
    result = levenberg_marquardt(init, lambda pose: _evaluate(pose, mset),
                                 lambda pose, terms: _normal_equations(pose, terms, mset),
                                 _damped_solve, _retract, max_iters)
    return SedSolveReport(pose=result.x, iterations=result.iterations,
                          initial_cost=result.cost_trace[0], final_cost=result.cost,
                          reason=result.reason, n_degenerate=result.info.n_degenerate)


def clamp_to_epipolar(mset: AnchorMatchSet, pose: RelativePose) -> AnchorMatchSet:
    """Project every match onto its epipolar line; anchors stay untouched.

    Matches on degenerate lines are left unchanged. Clamping is a projection
    and therefore idempotent.
    """
    err = _epipolar(pose.rotation, pose.translation_dir, mset)[4]
    new = (mset._rows[2] - err).T.copy()  # m - (+0) == m on degenerate lines
    return _derived_set(mset, matches0=new[:len(mset.anchors0)], matches1=new[len(mset.anchors0):])


def solve_two_view(mset: AnchorMatchSet, max_iters: int = 50) -> SedSolveReport:
    """Full two-view pipeline, stage by stage: ``eight_point`` (pixel F),
    ``decompose`` (E and its four poses), ``chirality``, ``refine`` (LM on the
    SED) and ``clamp`` (matches onto their lines). Errors raised by a stage
    carry its name.
    """
    if mset.n_usable < 8:
        raise InsufficientMatchesError(
            f"insufficient matches: need at least 8 usable, have {mset.n_usable}")
    with _staged("eight_point"):
        f = weighted_eight_point(mset)
    with _staged("decompose"):
        candidates = decompose_essential(
            essential_from_fundamental(f, mset.intrinsics0, mset.intrinsics1))
    with _staged("chirality"):
        pose0, cand_idx = select_by_chirality(candidates, mset)
    with _staged("refine"):
        report = lm_refine_sed(pose0, mset, max_iters)
    with _staged("clamp"):
        report.clamped = clamp_to_epipolar(mset, report.pose)
    report.candidate_index = cand_idx
    return report
