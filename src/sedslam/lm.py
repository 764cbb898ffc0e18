"""Levenberg-Marquardt driver shared by the two-view and bundle-adjustment solvers.

The damping schedule follows Madsen, Nielsen & Tingleff, "Methods for
Non-Linear Least Squares Problems" (2004): a step is accepted only when it
lowers the cost, which halves the damping λ; any other outcome only
multiplies λ by four. The normal equations therefore depend on the point
alone: they are built at the start point and after each accepted step, from
the extras ``evaluate`` returned there, and a rejected step re-solves the
same system with the new damping.

It stops on the first of four tests and reports which as ``reason``: a step
shorter than ``STEP_TOL`` ("step"), an accepted decrease below ``COST_TOL *
max(1, cost)`` ("cost"), both converged; damping above ``LAMBDA_MAX``
("damping") or the iteration cap ("max_iters"). The decrease test is
relative, as their step test ‖h‖ ≤ ε₂(‖x‖ + ε₂) is (§3.2): an absolute
one cannot fire once the cost's rounding step exceeds it. A non-finite step
is rejected: its NaN point's cost may read as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .geom import _norm

LAMBDA_INIT = 1e-4
LAMBDA_MIN = 1e-10
LAMBDA_MAX = 1e6
STEP_TOL = 1e-10
COST_TOL = 1e-12


class Termination:
    """Mixin for results with a ``reason``: converged when a convergence test
    fired, not on damping overflow or the iteration cap."""

    @property
    def converged(self) -> bool:
        return self.reason in ("step", "cost")


@dataclass
class LmResult(Termination):
    """Final point and cost, the ``evaluate`` extras at the start and final
    points, the accepted costs (initial cost first), iterations run and the
    reason the loop stopped."""

    x: Any
    cost: float
    info: Any
    initial_info: Any
    cost_trace: tuple[float, ...]
    iterations: int
    reason: str


def levenberg_marquardt(x0, evaluate, linearize, solve, retract, max_iters: int = 50) -> LmResult:
    """Minimize a least-squares cost from ``x0``.

    * ``evaluate(x) -> (cost, info)``: the cost at ``x`` plus whatever the
      caller needs at that point.
    * ``linearize(x, info) -> system``: the undamped normal equations at
      ``x``, given the ``info`` that ``evaluate(x)`` returned, so work done
      for the cost is not repeated.
    * ``solve(system, lam) -> step``: the damped step as a flat array, or
      None when the damped system fails to factor.
    * ``retract(x, step) -> x``: the updated point, or None when the step
      leaves the domain.

    A failed factorization, a non-finite step and a step out of the domain
    count as rejected steps. Every iteration, including a rejected one,
    counts toward ``max_iters``.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be non-negative, got {max_iters}")
    x = x0
    cost, info = evaluate(x)
    initial_info = info
    trace = [cost]
    lam = LAMBDA_INIT
    system = None
    reason = "max_iters"
    iterations = 0

    while iterations < max_iters:
        iterations += 1
        if system is None:
            system = linearize(x, info)
        step = solve(system, lam)
        size = math.nan if step is None else _norm(step)
        if size < STEP_TOL:
            reason = "step"
            break
        candidate = retract(x, step) if math.isfinite(size) else None
        new_cost, new_info = (math.inf, None) if candidate is None else evaluate(candidate)
        if new_cost < cost:
            decrease = cost - new_cost
            x, cost, info = candidate, new_cost, new_info
            trace.append(cost)
            system = None
            lam = max(lam * 0.5, LAMBDA_MIN)
            if decrease < COST_TOL * max(1.0, cost):
                reason = "cost"
                break
        else:
            lam *= 4.0
            if lam > LAMBDA_MAX:
                reason = "damping"
                break

    return LmResult(x=x, cost=cost, info=info, initial_info=initial_info,
                    cost_trace=tuple(trace), iterations=iterations, reason=reason)
