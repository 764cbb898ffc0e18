"""Evaluation measures: angular pose errors, pose-error AUC, and ATE RMSE
after a global 7-DOF (or 6-DOF) alignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssociationError, SedSlamError
from .geom import RelativePose, _finite_svd, rotation_angle
from .sim3 import Trajectory

ASSOCIATION_WINDOW = 0.020  # seconds


@dataclass(frozen=True)
class PoseError:
    """Geodesic rotation angle and translation-direction angle, degrees."""

    rot_deg: float
    trans_deg: float

    @property
    def max_deg(self) -> float:
        return max(self.rot_deg, self.trans_deg)


def pose_error(est: RelativePose, gt: RelativePose) -> PoseError:
    rot = np.degrees(rotation_angle(est.rotation.T @ gt.rotation))
    cos_t = np.clip(np.dot(est.translation_dir, gt.translation_dir), -1.0, 1.0)
    return PoseError(float(rot), float(np.degrees(np.arccos(cos_t))))


def pose_auc(errors, threshold: float) -> float:
    """Area under the accuracy-vs-threshold curve on [0, threshold], percent.

    Exact integral of the empirical CDF of the errors, normalized by the
    threshold: a single error at threshold/2 scores 50%, an infinite one 0%.
    """
    errors = np.asarray(errors, dtype=float).reshape(-1)
    if errors.size == 0:
        raise ValueError("error list must be non-empty")
    if not 0.0 < threshold < np.inf:
        raise ValueError(f"threshold must be finite and positive, got {threshold}")
    if not np.all(errors >= 0.0):  # NaN fails the comparison too
        raise ValueError("errors must be non-negative and not NaN")
    return float(np.mean(np.clip(threshold - errors, 0.0, threshold)) / threshold * 100.0)


def umeyama_alignment(src, dst, with_scale: bool = True):
    """Closed-form similarity (s, R, t) minimizing ||dst - (s R src + t)||^2;
    an overflowed covariance or variance raises :class:`SedSlamError`."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused at the SVD
        mu_s = src.mean(axis=0)
        mu_d = dst.mean(axis=0)
        xs = src - mu_s
        xd = dst - mu_d
        cov = xd.T @ xs / len(src)
    u, d, vt = _finite_svd(cov, "cross-covariance", "align")
    s_fix = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        s_fix[2, 2] = -1.0
    rot = u @ s_fix @ vt
    if with_scale:
        with np.errstate(over="ignore"):
            var_s = np.mean(np.sum(xs * xs, axis=1))
        if not np.isfinite(var_s):
            raise SedSlamError("source variance is not finite", "align")
        scale = float(np.trace(np.diag(d) @ s_fix) / var_s) if var_s > 0.0 else 1.0
    else:
        scale = 1.0
    t = mu_d - scale * (rot @ mu_s)
    return scale, rot, t


def associate_timestamps(ts_a, ts_b, max_dt: float = ASSOCIATION_WINDOW):
    """Greedy mutual nearest-neighbor association within a time window.

    Pairs with ``abs(a - b) <= max_dt`` are taken in order of (dt, i, j),
    each stamp at most once, and returned sorted by (i, j). Candidates come
    from a ``searchsorted`` window over the sorted ``ts_b``, widened by a few
    ulps of the stamps so that rounding of ``a ± max_dt`` loses none, so the
    cost grows with the pairs inside the window rather than with n·m.
    """
    ts_a = np.asarray(ts_a, dtype=float).reshape(-1)
    ts_b = np.asarray(ts_b, dtype=float).reshape(-1)
    order_b = np.argsort(ts_b, kind="stable")
    sorted_b = ts_b[order_b]
    reach = max_dt * (1.0 + 1e-12) + 1e-15 * np.abs(ts_a)
    start = np.searchsorted(sorted_b, ts_a - reach, side="left")
    lengths = np.maximum(np.searchsorted(sorted_b, ts_a + reach, side="right") - start, 0)
    i = np.repeat(np.arange(len(ts_a)), lengths)
    j = order_b[np.arange(len(i)) + np.repeat(start - (np.cumsum(lengths) - lengths), lengths)]
    dt = np.abs(ts_a[i] - ts_b[j])
    keep = dt <= max_dt
    i, j, dt = i[keep], j[keep], dt[keep]
    order = np.lexsort((j, i, dt))
    used_a, used_b, matches = set(), set(), []
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if a in used_a or b in used_b:
            continue
        used_a.add(a)
        used_b.add(b)
        matches.append((a, b))
    matches.sort()
    return matches


def ate_rmse(est: Trajectory, gt: Trajectory, mode: str = "sim3",
             max_dt: float = ASSOCIATION_WINDOW) -> float:
    """RMSE of position residuals after global trajectory alignment.

    ``mode`` selects the alignment group: "sim3" estimates scale, rotation
    and translation (7 DOF), "se3" fixes scale to 1. A non-finite RMSE
    raises :class:`SedSlamError` at stage "rmse".
    """
    if mode not in ("sim3", "se3"):
        raise ValueError(f"unknown alignment mode {mode!r}")
    matches = associate_timestamps(est.timestamps, gt.timestamps, max_dt)
    if len(matches) < 3:
        raise AssociationError(
            f"only {len(matches)} associated pose pairs (need at least 3)")
    i, j = np.array(matches).T
    p_est = est.translations[i]
    p_gt = gt.translations[j]
    scale, rot, t = umeyama_alignment(p_est, p_gt, with_scale=(mode == "sim3"))
    with np.errstate(over="ignore", invalid="ignore"):
        residual = p_gt - (scale * (p_est @ rot.T) + t)
        rmse = float(np.sqrt(np.mean(np.sum(residual * residual, axis=1))))
    if not np.isfinite(rmse):
        raise SedSlamError(f"RMSE is {rmse}", "rmse")
    return rmse
