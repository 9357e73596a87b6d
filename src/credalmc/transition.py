"""Upper transition operators: one credal model per source state.

The constructor builds the operator's row-block plan with
`credal._plan`: the rows grouped by credal family, in order of each
family's first row, and each family's parameters packed once.  Every
step on an (s, k) gamble array is then one `credal._step` through the
plan.  It fills an (s, k) output the caller gives, in which each family
writes its rows as one contiguous block, in one call per family present
(and per column chunk, which `_step` makes when k exceeds
`credal.CHUNK_CELLS // s**2`).  `apply_many` checks its raw columns by
`states._gamble_array` and steps into a fresh output; the engine's own
loops call `_step` on `_plan` directly, unchecked.  The
column maximum of the gambles is computed once per step, and only if a
family present reads it.  Every step also hands the families one
C-contiguous transpose of the gambles, whose rows the matrix products
read, one gemv per row; it is a copy unless the gambles are one
contiguous column, as in `apply`.  One `take` writes the rows to the
output in state order; it is skipped, and the families write the output
directly, when the blocks already are in state order, as on every
single-family operator.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .credal import Contamination, CredalModel, Linear, ProbInterval, _plan, _step
from .states import DimensionMismatch, Gamble, MassFunction, StateSpace
from .states import _check_numbers, _check_space, _gamble_array, frozen


@frozen
class UpperTransitionOperator:
    """The map h -> (x -> upper expectation of h under the row model at x)."""

    space: StateSpace
    rows: tuple[CredalModel, ...]

    def __init__(self, space: StateSpace, rows: Sequence[CredalModel]):
        rows = tuple(rows)
        if len(rows) != len(space):
            raise DimensionMismatch(
                f"need one row model per state: {len(rows)} != {len(space)}"
            )
        for r in rows:
            if r.space != space:
                raise DimensionMismatch("row model on a different state space")
        vars(self).update(space=space, rows=rows, _plan=_plan(rows))

    @classmethod
    def from_matrix(cls, space: StateSpace, matrix) -> "UpperTransitionOperator":
        """Precise operator from a row-stochastic matrix, read row by row."""
        return cls(space, [Linear(MassFunction(space, w)) for w in matrix])

    @classmethod
    def contamination_of(
        cls, space: StateSpace, matrix, epsilon: float
    ) -> "UpperTransitionOperator":
        """Epsilon-contamination of each row of a precise matrix, read row
        by row."""
        return cls(space, [Contamination(MassFunction(space, b), epsilon) for b in matrix])

    @classmethod
    def from_interval_matrices(
        cls, space: StateSpace, lower, upper
    ) -> "UpperTransitionOperator":
        """Probability-interval rows from lower/upper Markov matrices."""
        _check_numbers([lower, upper], "interval bounds")
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape:
            raise DimensionMismatch(
                f"interval lower {lower.shape} and upper {upper.shape} differ in shape"
            )
        return cls(
            space, [ProbInterval(space, lo, up) for lo, up in zip(lower, upper)]
        )

    def is_precise(self) -> bool:
        return all(isinstance(r, Linear) for r in self.rows)

    @functools.cached_property
    def _mass_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) one-step tables: entry [x, y] bounds P(x -> y)."""
        s = len(self.space)
        eye = np.eye(s)
        both = self.apply_many(np.concatenate([-eye, eye], axis=1))
        return -both[:, :s], both[:, s:]

    def apply_many(self, H) -> np.ndarray:
        """Apply the operator to each column of a raw (s, k) array."""
        return _step(self._plan, _gamble_array(self.space, H, columns=True))

    def apply(self, h: Gamble) -> Gamble:
        _check_space(self, h)
        # h passed `_gamble_array` when it was built, so it is not checked again.
        return Gamble(self.space, _step(self._plan, h.values[:, None])[:, 0])

    def apply_lower(self, h: Gamble) -> Gamble:
        return -self.apply(-h)

    def wielandt_bound(self) -> int:
        """(s - 1)**2 + 1, Wielandt's bound on the primitivity index of an
        s x s boolean matrix, which no regular operator exceeds."""
        return (len(self.space) - 1) ** 2 + 1

    def is_regular(self) -> int | None:
        """Smallest n with min over x of T^n I_{y}(x) > 0 for all y, or
        None if T is not regular.  T^n I_{y}(x) > 0 exactly when entry
        [x, y] of the n-th boolean power of U, the support of the cached
        one-step upper table T I_{y}(x), is true, as T g(x) > 0 for g >= 0
        exactly when g(y) > 0 at some y with T I_{y}(x) > 0: n is decided
        exactly.  The search stops at `wielandt_bound()`, which no regular
        operator exceeds, so None proves that T is not regular."""
        power = U = self._mass_bounds[1] > 0
        for n in range(1, self.wielandt_bound() + 1):
            if power.all():
                return n
            power = power @ U
        return None
