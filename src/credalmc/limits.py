"""Long-run behaviour of stationary upper transition operators.

Under regularity the iterates T^n h flatten to a constant gamble whose
level is the invariant upper expectation of h; `limit_upper` detects
this through the oscillation max - min of the iterate.  Non-regular
operators are still non-expansive in the supremum norm, so their
iterates settle into a periodic limit cycle, found by `detect_cycle`.
The iterations read raw arrays; only `limit_upper` steps through `apply`.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .states import DEFAULT_TOL, Gamble, MassFunction, _check_space, frozen
from .transition import UpperTransitionOperator

DEFAULT_MAX_ITER = 10**6


class ConvergenceError(RuntimeError):
    """An iteration ceiling was reached before the stop criterion."""


class NotRegularError(ValueError):
    """The operator is not regular: `is_regular` found no n up to the
    Wielandt bound, which proves it."""


def _check_stop(tol: float, max_iter: int) -> None:
    """Refuse the stop rule of an iteration unless tol is positive (not
    NaN) and max_iter non-negative."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")


@frozen
class LimitReport:
    value: float
    iterations: int
    residual: float


@frozen
class CycleReport:
    period: int
    representative: Gamble
    residual: float
    iterations: int


def limit_upper(
    op: UpperTransitionOperator,
    h: Gamble,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LimitReport:
    """Invariant upper expectation of h for a regular stationary operator.

    Iterates h <- T h until the oscillation max(h) - min(h) drops to tol.
    The reported value is max(h) at stop, so with residual r the true
    limit lies within [value - r, value]: truncation stays conservative
    for an upper expectation.
    """
    _check_stop(tol, max_iter)
    for it in range(max_iter + 1):  # iterate `it` is T^it h
        if it:
            h = op.apply(h)
        top = float(np.maximum.reduce(h.values))
        residual = top - float(np.minimum.reduce(h.values))
        if residual <= tol:
            return LimitReport(top, it, residual)
    raise ConvergenceError(
        f"oscillation still {residual:.3e} after {max_iter} iterations; "
        "the operator may not be regular - try detect_cycle"
    )


def contamination_limit(
    precise: UpperTransitionOperator,
    epsilon: float,
    h: Gamble,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Closed-form invariant upper expectation of a contamination model.

    Evaluates eps * sum_k (1 - eps)^k max T^k h over the K terms needed
    for the geometric tail bound (1 - eps)^K * max|h| to drop to tol.
    K is computed up front; past max_iter terms this raises
    ConvergenceError instead of running.  The closed form holds only for
    a precise base, so `precise` must have all-Linear rows.
    """
    if not precise.is_precise():
        raise ValueError("contamination_limit needs all-Linear rows")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    _check_stop(tol, max_iter)
    _check_space(precise, h)
    bound = float(np.abs(h.values).max())
    terms = 1
    if bound > tol:
        terms = max(1, math.ceil(math.log(tol / bound) / math.log1p(-epsilon)))
    if terms > max_iter:
        raise ConvergenceError(
            f"contamination series needs {terms} terms for tol {tol:.1e} "
            f"at epsilon {epsilon:.1e}, more than max_iter={max_iter}"
        )
    total = 0.0
    weight = epsilon
    g = h.values[:, None]
    for _ in range(terms):
        total += weight * float(g.max())
        g = precise.apply_many(g)
        weight *= 1.0 - epsilon
    return total


def contamination_evolve(
    initial,
    precise: UpperTransitionOperator,
    epsilon: float,
    h: Gamble,
    n: int,
) -> float:
    """Upper expectation of h(X(n+1)) under a contamination chain.

    (1 - eps)^n * upper_1(T^n h) + eps * sum_{k<n} (1 - eps)^k max T^k h,
    which holds only for a precise base: `precise` must have all-Linear rows.
    """
    if not precise.is_precise():
        raise ValueError("contamination_evolve needs all-Linear rows")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_space(precise, h)
    _check_space(initial, h)
    total = 0.0
    g = h.values[:, None]
    for k in range(n):
        total += epsilon * (1.0 - epsilon) ** k * float(g.max())
        g = precise.apply_many(g)
    return (1.0 - epsilon) ** n * float(initial.upper_many(g)[0]) + total


def precise_stationary(
    op: UpperTransitionOperator,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MassFunction:
    """Stationary distribution of a regular precise operator.

    Power-iterates the adjoint mass update m(y) <- sum_x m(x) q(y|x)
    from the uniform start until the sup-norm change drops to tol.
    Serves as the independent classical oracle for the limit machinery.
    """
    if not op.is_precise():
        raise ValueError("precise_stationary needs all-Linear rows")
    _check_stop(tol, max_iter)
    if op.is_regular() is None:
        raise NotRegularError(
            "operator is not regular within the Wielandt bound"
        )
    q = np.array([row.mass.weights for row in op.rows])
    m = np.full(len(op.space), 1.0 / len(op.space))
    for _ in range(max_iter + 1):  # tests the start and max_iter updates
        nxt = m @ q
        if np.abs(nxt - m).max() <= tol:
            return MassFunction(op.space, nxt)
        m = nxt
    raise ConvergenceError("stationary iteration did not converge")


def detect_cycle(
    op: UpperTransitionOperator,
    h: Gamble,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CycleReport:
    """Find the periodic limit cycle of the iterates T^n h.

    Searches the last 2P + 1 iterates, P = 2|X|^2, for the smallest
    period p <= P whose p-periodicity is sustained over a full extra
    period (2p + 1 iterates matching pairwise at lag p).  The
    representative is the earliest iterate of the verified cycle and
    `iterations` its index in the iterate sequence.  The window is
    heuristic: no bound on periods of upper operators is known.
    """
    _check_stop(tol, max_iter)
    max_period = 2 * len(op.space) ** 2
    history = deque([h.values], maxlen=2 * max_period + 1)
    for it in range(max_iter):  # history[-1] is iterate `it`
        for p in range(1, min(max_period, (len(history) - 1) // 2) + 1):
            if all(
                np.abs(history[-1 - j] - history[-1 - j - p]).max() <= tol
                for j in range(p + 1)
            ):
                rep = history[-1 - 2 * p]
                return CycleReport(
                    period=p,
                    representative=Gamble(op.space, rep),
                    residual=float(np.abs(history[-1 - p] - rep).max()),
                    iterations=it - 2 * p,
                )
        history.append(op.apply_many(history[-1][:, None])[:, 0])
    raise ConvergenceError(
        f"no cycle of period <= {max_period} found in {max_iter} iterations; "
        "the search window may be too small"
    )
