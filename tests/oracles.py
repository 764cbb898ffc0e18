"""Reference implementations that the tests compare the library against.

Each is the direct, quadratic form of a rule that the library computes a
faster way, written in the same floating-point arithmetic so that results
must be equal, not merely close.
"""

import numpy as np

from sedslam.sim3 import ScaleEstimate


def brute_force_scale(map_depths, tri_depths, ratio_bound=1.05):
    """Score every candidate ``s = d_k / d'_k`` against every pair."""
    d = np.asarray(map_depths, dtype=float).reshape(-1)
    dp = np.asarray(tri_depths, dtype=float).reshape(-1)
    candidates = d / dp
    ratios = d[None, :] / (candidates[:, None] * dp[None, :])
    counts = np.sum((ratios > 1.0 / ratio_bound) & (ratios < ratio_bound), axis=1)
    best_count = int(counts.max())
    best = float(np.min(candidates[counts == best_count]))
    return ScaleEstimate(best, best_count, best_count / d.size)


def associate_all_pairs(ts_a, ts_b, max_dt):
    """Greedy mutual nearest-neighbor association over all n·m pairs."""
    ts_a = np.asarray(ts_a, dtype=float)
    ts_b = np.asarray(ts_b, dtype=float)
    pairs = [(abs(a - b), i, j) for i, a in enumerate(ts_a) for j, b in enumerate(ts_b)
             if abs(a - b) <= max_dt]
    pairs.sort()
    used_a, used_b, matches = set(), set(), []
    for _, i, j in pairs:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        matches.append((i, j))
    matches.sort()
    return matches
