import numpy as np
import pytest

from sedslam import ba, lm, twoview
from sedslam.synth import NoiseModel, make_ba_graph, make_two_view, perturb_pose


def quadratic(offset=0.0):
    """Cost |x - (1, -2)|^2 + offset as (evaluate, linearize, solve, retract).

    ``evaluate``'s extras are the point as a list, so a test can tell which
    point the extras that ``linearize`` receives were computed at."""
    target = np.array([1.0, -2.0])

    def solve(system, lam):
        h, g = system
        return np.linalg.solve(h + lam * np.eye(2), -g)

    return (lambda x: (float(np.sum((x - target) ** 2)) + offset, x.tolist()),
            lambda x, info: (np.eye(2), x - target),
            solve,
            lambda x, step: x + step)


@pytest.mark.parametrize("failing", ["solve", "retract"])
def test_failed_steps_stop_once_damping_passes_lambda_max(failing):
    evaluate, linearize, solve, retract = quadratic()
    if failing == "solve":
        solve = lambda system, lam: None  # noqa: E731
    else:
        retract = lambda x, step: None  # noqa: E731
    linearized = []

    def counting(x, info):
        linearized.append(x)
        return linearize(x, info)

    result = lm.levenberg_marquardt(np.zeros(2), evaluate, counting, solve, retract,
                                    max_iters=50)
    rejections, lam = 1, lm.LAMBDA_INIT * 4.0
    while lam <= lm.LAMBDA_MAX:
        rejections, lam = rejections + 1, lam * 4.0
    assert result.reason == "damping" and not result.converged
    assert result.iterations == rejections < 50
    assert len(linearized) == 1
    assert result.cost_trace == (5.0,)
    assert np.array_equal(result.x, np.zeros(2))


def test_negative_max_iters_rejected():
    with pytest.raises(ValueError, match="max_iters"):
        lm.levenberg_marquardt(np.zeros(2), *quadratic(), max_iters=-1)


@pytest.mark.parametrize("x0, offset, max_iters, reason, iterations", [
    # Started at the minimum, the first step is zero.
    ((1.0, -2.0), 0.0, 50, "step", 1),
    # Each step shrinks the error about 1e4-fold; the third lowers a cost of
    # about 1e-16 by less than the absolute floor COST_TOL.
    ((0.0, 0.0), 0.0, 50, "cost", 3),
    # Near a cost of 1e8 the second decrease, about 5e-8, is below
    # COST_TOL * cost; an absolute test would run on until the step test.
    ((0.0, 0.0), 1e8, 50, "cost", 2),
    ((0.0, 0.0), 0.0, 2, "max_iters", 2),
    ((0.0, 0.0), 0.0, 0, "max_iters", 0),
])
def test_each_reason_is_reached(x0, offset, max_iters, reason, iterations):
    result = lm.levenberg_marquardt(np.array(x0), *quadratic(offset), max_iters=max_iters)
    assert (result.reason, result.iterations) == (reason, iterations)
    assert result.converged == (reason in ("step", "cost"))


def test_linearizes_only_at_accepted_points():
    # The first retraction fails, so the first step is rejected for certain.
    evaluate, linearize, solve, retract = quadratic()
    linearized, retracted = [], []

    def recording(x, info):
        linearized.append((x, info))
        return linearize(x, info)

    def first_fails(x, step):
        retracted.append(x)
        return None if len(retracted) == 1 else retract(x, step)

    result = lm.levenberg_marquardt(np.zeros(2), evaluate, recording, solve, first_fails)
    assert result.reason == "cost"
    assert len(linearized) == result.iterations - 1
    assert [evaluate(x)[0] for x, _ in linearized] == list(result.cost_trace[:-1])
    assert [info for _, info in linearized] == [x.tolist() for x, _ in linearized]


@pytest.mark.parametrize("solver", ["twoview", "ba"])
def test_non_finite_step_is_rejected(solver, monkeypatch):
    # A NaN two-view pose has no finite SED term, so its cost reads 0, and a
    # NaN BA pose gives a NaN cost; LM must reject the step before retracting.
    module, name = ((twoview, "_damped_solve") if solver == "twoview"
                    else (ba, "_damped_schur_solve"))
    real, lams = getattr(module, name), []

    def nan_once(system, lam):
        lams.append(lam)
        step = real(system, lam)
        if len(lams) == 1:
            step[0] = np.nan  # the first rotation entry: finite depths stay finite
        return step

    monkeypatch.setattr(module, name, nan_once)
    if solver == "twoview":
        mset, gt = make_two_view(3, 32, noise=NoiseModel(gaussian_sigma=0.5))
        report = twoview.lm_refine_sed(perturb_pose(gt, 3.0, np.random.default_rng(3)), mset)
        start, cost = report.initial_cost, report.final_cost
        x = (report.pose.rotation, report.pose.translation_dir)
    else:
        graph, _, _ = make_ba_graph(3, n_frames=4, n_anchors=40, match_sigma=0.5)
        report = ba.ba_solve(graph)
        start, cost = report.cost_trace[0], report.cost_trace[-1]
        x = [p.rotation for p in graph.poses] + [p.translation for p in graph.poses] + graph.depths
    assert lams[1] == 4.0 * lams[0]  # the NaN step counted as rejected
    assert all(np.all(np.isfinite(a)) for a in x)
    assert np.isfinite(cost) and cost <= start
