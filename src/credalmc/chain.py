"""Backwards recursion for imprecise Markov chains.

`marginal_upper_table` bounds a batch of gambles at every time in
horizon - 1 steps.  Every other expectation query runs one recursion,
`_fold`, on a stack of raw arrays: marginal and conditional queries
fold a gamble on X, so their cost is linear in the number of time
steps, and joint queries fold the dense table over X^N one time axis
per step, for desk-scale horizons.  `joint_upper_many` folds several
path gambles in one stack, one `credal._step` per step for all.
Path masses need no fold: `path_mass_bounds` broadcasts the initial
model's singleton bounds against each step operator's cached one-step
lower and upper probability tables, giving every path of a length at
once, and refuses more than PATH_GUARD paths.
`Gamble`, `PathGamble` and the raw columns of `marginal_upper_table`
are checked only at the boundary, by `states._gamble_array`: the folds
and sweeps step their own arrays through `credal._step`, unchecked.

Time indices are 1-based: X(1) is the initial state and a chain with
horizon N has N - 1 transition steps.  Times, like the horizon, follow
`states._check_integer`: an int or numpy integer in the query's range;
a bool or a float, even 3.0, is refused.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .credal import CredalModel, SizeGuardError, _step
from .states import DimensionMismatch, Gamble, StateSpace, frozen
from .states import _check_integer, _check_space, _gamble_array
from .transition import UpperTransitionOperator

#: Refuse to tabulate more initial paths than this in `path_mass_bounds`.
PATH_GUARD = 2**12


@frozen
class PathGamble:
    """A real-valued map on length-N state sequences.

    `values` is a dense array of shape (|X|,) * N indexed positionally.
    Which times the table varies along is read from `values` where a
    query needs it (`ImpreciseMarkovChain.markov_invariance_gap`).
    """

    space: StateSpace
    horizon: int
    values: np.ndarray

    def __init__(self, space: StateSpace, horizon: int, values):
        horizon = _check_integer(horizon, "horizon", 1)
        values = _gamble_array(space, values, horizon, "path gamble values")
        vars(self).update(space=space, horizon=horizon, values=values)

    @classmethod
    def from_gamble(cls, h: Gamble, time: int, horizon: int) -> "PathGamble":
        """Lift a gamble on X to a path gamble depending only on `time`."""
        horizon = _check_integer(horizon, "horizon", 1)
        time = _check_integer(time, "time", 1, horizon)
        shape = [1] * horizon
        shape[time - 1] = len(h.space)
        table = np.broadcast_to(
            h.values.reshape(shape), (len(h.space),) * horizon
        )
        return cls(h.space, horizon, table)

    @classmethod
    def path_indicator(
        cls, space: StateSpace, horizon: int, path: Sequence[str]
    ) -> "PathGamble":
        """Indicator of a single length-N path."""
        horizon = _check_integer(horizon, "horizon", 1)
        if len(path) != horizon:
            raise ValueError("path length must equal the horizon")
        table = np.zeros((len(space),) * horizon)
        table[tuple(space.index(x) for x in path)] = 1.0
        return cls(space, horizon, table)

    def __neg__(self) -> "PathGamble":
        # -f of checked values is finite: marked read-only, not checked.
        neg = object.__new__(PathGamble)
        vars(neg).update(space=self.space, horizon=self.horizon, values=-self.values)
        neg.values.setflags(write=False)
        return neg


@frozen
class ImpreciseMarkovChain:
    """Initial credal model plus transition operator(s) and a horizon.

    `transitions` is stored as given: one `UpperTransitionOperator` for a
    stationary chain, or a tuple of horizon - 1 operators, one per step.
    """

    space: StateSpace
    initial: CredalModel
    transitions: "UpperTransitionOperator | tuple[UpperTransitionOperator, ...]"
    horizon: int

    def __init__(
        self,
        initial: CredalModel,
        transitions,
        horizon: int,
    ):
        horizon = _check_integer(horizon, "horizon", 1)
        space = initial.space
        if isinstance(transitions, UpperTransitionOperator):
            ops = (transitions,)
        else:
            transitions = ops = tuple(transitions)
            if len(ops) != horizon - 1:
                raise ValueError(
                    f"per-step chain needs {horizon - 1} operators, got {len(ops)}"
                )
        for op in ops:
            if op.space != space:
                raise DimensionMismatch("operator on a different state space")
        vars(self).update(
            space=space, initial=initial, transitions=transitions, horizon=horizon
        )

    @property
    def stationary(self) -> bool:
        return isinstance(self.transitions, UpperTransitionOperator)

    def operator_at(self, k: int) -> UpperTransitionOperator:
        """The operator governing the step from time k to k + 1."""
        k = _check_integer(k, "step index", 1, self.horizon - 1)
        return self.transitions if self.stationary else self.transitions[k - 1]

    def _fold(self, tables: np.ndarray, top: int, down_to: int) -> np.ndarray:
        """Fold a (b,) + (|X|,) * d stack of raw tables over X(top - d + 1),
        ..., X(top) back to time `down_to`.  A step applies the operator to
        the slice of every (table, history) along the last axis, in one
        `_step` on its plan for the whole stack, and keeps the row of that
        history's last state; a table over one time has no history, so the
        step is T h, transposed back to shape (b, |X|)."""
        s = len(self.space)
        for k in range(top - 1, down_to - 1, -1):
            vals = _step(self.operator_at(k)._plan, tables.reshape(-1, s).T)
            if tables.ndim == 2:
                tables = vals.T
            else:
                vals = vals.reshape((s,) + tables.shape[:-1])
                tables = np.diagonal(vals, 0, 0, -1)
        return tables

    def _path_table(self, f: PathGamble) -> np.ndarray:
        _check_space(self, f)
        if f.horizon != self.horizon:
            raise DimensionMismatch(
                f"path gamble horizon {f.horizon} != chain horizon {self.horizon}"
            )
        return f.values

    # ------------------------------------------------------------------
    # Marginal and conditional queries (gamble-sized, linear in n).

    def marginal_upper(self, n: int, h: Gamble) -> float:
        """Upper expectation of h(X(n)): fold h back to time 1, then close
        with the initial model."""
        n = _check_integer(n, "time", 1, self.horizon)
        _check_space(self, h)
        return float(self.initial.upper_many(self._fold(h.values[None], n, 1).T)[0])

    def marginal_lower(self, n: int, h: Gamble) -> float:
        return -self.marginal_upper(n, -h)

    def marginal_upper_table(self, H) -> np.ndarray:
        """The (horizon, k) upper expectations of the k columns of a raw
        (s, k) array H at X(1), ..., X(horizon); row n - 1 has the bits of
        `marginal_upper(n, .)`.  A stationary chain steps H forward in
        place through one (horizon, s, k) table; a per-step chain tiles H
        into one (s, horizon * k) table, block n - 1 for X(n), and sweeps
        back from the horizon, step n overwriting blocks n to horizon - 1
        in place, one `_step` per step.  One `upper_many` on the initial
        model closes every column."""
        H = _gamble_array(self.space, H, columns=True)
        if self.stationary:
            table = np.empty((self.horizon, *H.shape))
            table[0] = H
            plan = self.transitions._plan
            for block, following in zip(table, table[1:]):
                _step(plan, block, following)
            table = table.transpose(1, 0, 2).reshape(len(H), -1)
        else:
            table, k = np.tile(H, self.horizon), H.shape[1]
            for n in range(self.horizon - 1, 0, -1):
                table[:, n * k :] = _step(self.transitions[n - 1]._plan, table[:, n * k :])
        return self.initial.upper_many(table).reshape(self.horizon, -1)

    def conditional_upper(self, ell: int, x_ell: str, n: int, h: Gamble) -> float:
        """Upper expectation of h(X(n)) given X(ell) = x_ell, ell < n."""
        n = _check_integer(n, "time", 2, self.horizon)
        ell = _check_integer(ell, "time", 1, n - 1)
        _check_space(self, h)
        return float(self._fold(h.values[None], n, ell)[0, self.space.index(x_ell)])

    def conditional_lower(self, ell: int, x_ell: str, n: int, h: Gamble) -> float:
        return -self.conditional_upper(ell, x_ell, n, -h)

    # ------------------------------------------------------------------
    # Joint queries over path gambles.

    def joint_upper_many(self, fs: Sequence[PathGamble]) -> np.ndarray:
        """Upper expectations of path gambles over all compatible trees.

        The gambles are folded together: each step is one `_step` for
        all of them, and one `upper_many` call on the initial model
        closes the fold.  The kernels are column-exact, so entry j has
        the bits of `joint_upper(fs[j])`."""
        tables = [self._path_table(f) for f in fs]
        if not tables:
            raise ValueError("joint_upper_many needs at least one path gamble")
        return self.initial.upper_many(self._fold(np.stack(tables), self.horizon, 1).T)

    def joint_upper(self, f: PathGamble) -> float:
        """Upper expectation of a path gamble over all compatible trees."""
        return float(self.joint_upper_many([f])[0])

    def joint_lower(self, f: PathGamble) -> float:
        return -self.joint_upper(-f)

    def joint_upper_given(self, prefix: Sequence[str], f: PathGamble) -> float:
        """Upper expectation of f conditional on the history X(1:n) = prefix."""
        n = _check_integer(len(prefix), "prefix length", 1, self.horizon)
        idx = tuple(self.space.index(x) for x in prefix)
        return float(self._fold(self._path_table(f)[None], self.horizon, n)[(0, *idx)])

    def joint_lower_given(self, prefix: Sequence[str], f: PathGamble) -> float:
        return -self.joint_upper_given(prefix, -f)

    def markov_invariance_gap(self, n: int, f: PathGamble) -> float:
        """Largest history dependence of the conditional upper expectation.

        f must be {n, ..., N}-measurable: its table may vary only along
        times n, ..., N, and a table that varies along an earlier time is
        refused.  The value given (history, x_n) must then not depend on
        the history; returns the max over x_n of the spread across all
        histories (0.0 when n == 1).
        """
        n = _check_integer(n, "time", 1, self.horizon)
        table = self._path_table(f)
        for k in range(1, n):
            if np.ptp(table, axis=k - 1).max() > 0:
                raise ValueError(f"path gamble varies along time {k} < n = {n}")
        table = self._fold(table[None], self.horizon, n)
        return float(np.ptp(table.reshape(-1, len(self.space)), axis=0).max())

    # ------------------------------------------------------------------
    # Chapman-Kolmogorov path mass bounds.

    def path_mass_bounds(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Tight (lower, upper) masses of every initial path of `length`.

        Two arrays of shape (|X|,) * length indexed by state position:
        upper[x_1, ..., x_m] = upper_1({x_1}) * prod_k U_k[x_k, x_{k+1}],
        multiplied left to right, with U_k the step operator's cached
        one-step upper table; the lower table uses the lower ones.
        Refuses more than PATH_GUARD paths.
        """
        s, length = len(self.space), _check_integer(length, "path length", 1, self.horizon)
        if s**length > PATH_GUARD:
            raise SizeGuardError(f"{s}^{length} paths exceed the guard of {PATH_GUARD}")
        eye = np.eye(s)
        singletons = self.initial.upper_many(np.concatenate([-eye, eye], axis=1))
        lo, up = -singletons[:s], singletons[s:]
        for k in range(1, length):
            lower, upper = self.operator_at(k)._mass_bounds
            lo, up = lo[..., None] * lower, up[..., None] * upper
        return lo, up
