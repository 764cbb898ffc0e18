import numpy as np
import pytest

from sedslam import lm


def quadratic():
    """Cost |x - (1, -2)|^2 as (evaluate, linearize, solve, retract)."""
    target = np.array([1.0, -2.0])

    def solve(system, lam):
        h, g = system
        return np.linalg.solve(h + lam * np.eye(2), -g)

    return (lambda x: (float(np.sum((x - target) ** 2)), None),
            lambda x: (np.eye(2), x - target),
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

    def counting(x):
        linearized.append(x)
        return linearize(x)

    result = lm.levenberg_marquardt(np.zeros(2), evaluate, counting, solve, retract,
                                    max_iters=50)
    rejections, lam = 1, lm.LAMBDA_INIT * 4.0
    while lam <= lm.LAMBDA_MAX:
        rejections, lam = rejections + 1, lam * 4.0
    assert not result.converged
    assert result.iterations == rejections < 50
    assert len(linearized) == 1
    assert result.cost_trace == (5.0,)
    assert np.array_equal(result.x, np.zeros(2))


def test_negative_max_iters_rejected():
    with pytest.raises(ValueError, match="max_iters"):
        lm.levenberg_marquardt(np.zeros(2), *quadratic(), max_iters=-1)
