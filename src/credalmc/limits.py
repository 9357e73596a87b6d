"""Long-run behaviour of stationary upper transition operators.

Under regularity the iterates T^n h flatten to a constant gamble whose
level is the invariant upper expectation of h; `limit_upper` detects
this through the oscillation max - min of the iterate.  Non-regular
operators are still non-expansive in the supremum norm, so their
iterates settle into a periodic limit cycle, found by `detect_cycle`.
Both are views of one driver, which steps through `apply`.
"""

from __future__ import annotations

import math

import numpy as np

from .states import (
    DEFAULT_TOL,
    Gamble,
    MassFunction,
    _check_integer,
    _check_space,
    _is_real,
    frozen,
)
from .transition import UpperTransitionOperator

DEFAULT_MAX_ITER = 10**6


class ConvergenceError(RuntimeError):
    """An iteration ceiling was reached before the stop criterion."""


class NotRegularError(ValueError):
    """The operator is not regular: `is_regular` found no n up to the
    Wielandt bound, which proves it."""


def _check_stop(tol: float, max_iter: int) -> None:
    """Refuse a tol that is not a positive number and a max_iter not an integer >= 0."""
    if not _is_real(tol) or not tol > 0:
        raise ValueError(f"tol must be a positive number, got {tol!r}")
    _check_integer(max_iter, "max_iter", 0)


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


def _iterate(
    op: UpperTransitionOperator, h: Gamble, tol: float, lag_tol: float, max_iter: int
) -> tuple[CycleReport, float]:
    """Step h <- T h, one `apply` per iteration, up to the first of the
    iterates 0 to max_iter that is flat or within lag_tol of Brent's
    checkpoint: iterate 0, then the iterate 2, 4, 8, ... steps after the
    last.  Returns the stop and the oscillation of the last iterate."""
    _check_stop(tol, max_iter)
    start, power = -1, 1  # iterate 0 becomes the first checkpoint
    for it in range(max_iter + 1):  # h is T^it of the input
        if it:
            h = op.apply(h)
        top = float(np.maximum.reduce(h.values))
        bottom = float(np.minimum.reduce(h.values))
        if top - bottom <= tol:
            return CycleReport(1, h, top - bottom, it), top - bottom
        # A gap <= lag_tol needs the max and the min within lag_tol too.
        if it and abs(top - mark_top) <= lag_tol and abs(bottom - mark_bot) <= lag_tol:
            gap = float(np.abs(h.values - mark.values).max())
            if gap <= lag_tol:
                return CycleReport(it - start, mark, gap, start), top - bottom
        if it - start == power:
            start, power, mark, mark_top, mark_bot = it, 2 * power, h, top, bottom
    raise ConvergenceError(
        f"oscillation still {top - bottom:.3e} after {max_iter} iterations; no cycle"
    )


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
    for an upper expectation.  An exact repeat of an iterate above tol
    proves, as T is a function of the bits, that it never converges.
    """
    stop, residual = _iterate(op, h, tol, 0.0, max_iter)
    if residual > tol:
        raise ConvergenceError(
            f"oscillation still {residual:.3e} after {stop.iterations + stop.period} "
            f"iterations: the iterates cycle with period {stop.period} and have no "
            "limit (the library function credalmc.detect_cycle finds the cycle)"
        )
    return LimitReport(float(stop.representative.values.max()), stop.iterations, residual)


def _check_contamination(name: str, precise: UpperTransitionOperator, epsilon: float):
    """Refuse a base operator that is not precise, or epsilon not a number in (0, 1)."""
    if not precise.is_precise():
        raise ValueError(f"{name} needs all-Linear rows")
    if not _is_real(epsilon) or not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")


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
    _check_contamination("contamination_limit", precise, epsilon)
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
    initial, precise: UpperTransitionOperator, epsilon: float, h: Gamble, n: int
) -> float:
    """Upper expectation of h(X(n+1)) under a contamination chain.

    (1 - eps)^n * upper_1(T^n h) + eps * sum_{k<n} (1 - eps)^k max T^k h,
    which holds only for a precise base: `precise` must have all-Linear rows.
    """
    _check_contamination("contamination_evolve", precise, epsilon)
    n = _check_integer(n, "n", 0)
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
        raise NotRegularError("operator is not regular within the Wielandt bound")
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

    Stops at the first iterate within tol of Brent's checkpoint r, held
    for 2, 4, 8, ... steps.  One lag check suffices: T is non-expansive
    in the supremum norm, so ||T^p r - r|| <= tol makes every later
    iterate p-periodic within tol.  p is r's first return within tol:
    the period of the tolerance cycle at r, minimal for r, which can
    exceed the period of the limit when the iterates of a regular
    operator alternate while they converge (a lag-2 return within tol
    can come before any iterate is flat).  `iterations` is r's index,
    which need not be the first on the cycle.  A flat iterate has
    period 1 and its oscillation as residual.
    No period bound is known for upper operators: max_iter bounds the search.
    """
    return _iterate(op, h, tol, tol, max_iter)[0]
