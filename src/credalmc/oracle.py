"""Brute-force ground truth for the backwards-recursion engine.

Enumerates every compatible precise probability tree whose local models
are drawn from the vertex lists of the chain's credal models, computes
each tree's exact expectation by a sum-product over all paths, and takes
the min/max.  Deliberately independent of the recursion it validates:
nothing here applies an upper transition operator.

Choices at different situations are independent (the row credal set
depends only on the last state, but the chosen mass function may differ
per situation), so compatible trees are generally not Markov; the max
over situation-independent (Markov) choices is computed separately on
request so any gap is observable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import ImpreciseMarkovChain, PathGamble
from .credal import SizeGuardError
from .states import MassFunction

#: Refuse enumerations with more assignments than this.
ASSIGNMENT_GUARD = 2**40


@dataclass(frozen=True)
class TreeAssignment:
    """One compatible tree: a mass function chosen at every situation.

    `situation_choices` maps each non-terminal situation x_{1:k} (a tuple
    of state indices, k >= 1) to the chosen conditional mass function.
    """

    initial_choice: MassFunction
    situation_choices: dict[tuple[int, ...], MassFunction]


def _situations(chain: ImpreciseMarkovChain, horizon: int):
    """Non-terminal situations beyond the root, in lexicographic order."""
    s = len(chain.space)
    for k in range(1, horizon):
        for idx in np.ndindex(*(s,) * k):
            yield idx


def count_assignments(chain: ImpreciseMarkovChain, horizon: int) -> int:
    """Number of extreme-point tree assignments up to the given horizon."""
    if not 1 <= horizon <= chain.horizon:
        raise ValueError("horizon out of range")
    total = len(chain.initial.vertices())
    for idx in _situations(chain, horizon):
        k = len(idx)
        total *= len(chain.operator_at(k).rows[idx[-1]].vertices())
        if total > ASSIGNMENT_GUARD:
            raise SizeGuardError(
                f"more than {ASSIGNMENT_GUARD} tree assignments"
            )
    return total


def path_probabilities(
    chain: ImpreciseMarkovChain, assignment: TreeAssignment, horizon: int
) -> np.ndarray:
    """Joint probability of every length-`horizon` path in one tree."""
    s = len(chain.space)
    table = np.array(assignment.initial_choice.weights)
    for k in range(1, horizon):
        nxt = np.empty(table.shape + (s,))
        for idx in np.ndindex(*table.shape):
            try:
                q = assignment.situation_choices[idx]
            except KeyError:
                raise ValueError(f"assignment misses situation {idx}") from None
            nxt[idx] = table[idx] * q.weights
        table = nxt
    return table


def tree_expectation(
    chain: ImpreciseMarkovChain, assignment: TreeAssignment, f: PathGamble
) -> float:
    """Exact expectation of f in one compatible tree (sum over all paths)."""
    return float(
        np.sum(path_probabilities(chain, assignment, f.horizon) * f.values)
    )


def tree_expectation_given(
    chain: ImpreciseMarkovChain,
    assignment: TreeAssignment,
    prefix: tuple[int, ...],
    f: PathGamble,
) -> float:
    """Exact conditional expectation of f given the history `prefix`."""
    n = len(prefix)
    if n == f.horizon:
        return float(f.values[prefix])
    s = len(chain.space)
    table = np.ones(())
    shape: tuple[int, ...] = ()
    for k in range(n, f.horizon):
        nxt = np.empty(shape + (s,))
        for idx in np.ndindex(*shape):
            q = assignment.situation_choices[prefix + idx]
            nxt[idx] = table[idx] * q.weights
        table = nxt
        shape = shape + (s,)
    tail = f.values[prefix]
    return float(np.sum(table * tail))


def _assignments(chain: ImpreciseMarkovChain, horizon: int, markov_only: bool):
    count_assignments(chain, horizon)  # size guard
    sits = list(_situations(chain, horizon))
    if markov_only:
        # One vertex choice per (time, last state), reused at every history.
        keys = sorted({(len(idx), idx[-1]) for idx in sits})
        options = [
            chain.operator_at(k).rows[x].vertices() for (k, x) in keys
        ]
        for init in chain.initial.vertices():
            for picks in itertools.product(*options):
                by_key = dict(zip(keys, picks))
                yield TreeAssignment(
                    init,
                    {idx: by_key[(len(idx), idx[-1])] for idx in sits},
                )
    else:
        options = [
            chain.operator_at(len(idx)).rows[idx[-1]].vertices() for idx in sits
        ]
        for init in chain.initial.vertices():
            for picks in itertools.product(*options):
                yield TreeAssignment(init, dict(zip(sits, picks)))


def envelope(
    chain: ImpreciseMarkovChain,
    f: PathGamble,
    markov_only: bool = False,
) -> tuple[float, float]:
    """Tight (lower, upper) bounds on E(f) over all compatible trees.

    With markov_only=True the enumeration is restricted to trees whose
    choice depends only on (time, last state).
    """
    lo = np.inf
    up = -np.inf
    for a in _assignments(chain, f.horizon, markov_only):
        v = tree_expectation(chain, a, f)
        lo = min(lo, v)
        up = max(up, v)
    return float(lo), float(up)


def envelope_many(
    chain: ImpreciseMarkovChain,
    fs: Sequence[PathGamble],
    markov_only: bool = False,
) -> list[tuple[float, float]]:
    """Envelopes of several path gambles in one pass over the assignments.

    Each tree's path-probability tensor is computed once and reused for
    every gamble, so the cost is one enumeration rather than len(fs).
    """
    if not fs:
        return []
    horizon = fs[0].horizon
    for f in fs:
        if f.horizon != horizon:
            raise ValueError("all path gambles must share one horizon")
    lo = np.full(len(fs), np.inf)
    up = np.full(len(fs), -np.inf)
    for a in _assignments(chain, horizon, markov_only):
        probs = path_probabilities(chain, a, horizon)
        for i, f in enumerate(fs):
            v = float(np.sum(probs * f.values))
            lo[i] = min(lo[i], v)
            up[i] = max(up[i], v)
    return [(float(l), float(u)) for l, u in zip(lo, up)]


def path_mass_envelope(
    chain: ImpreciseMarkovChain, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (lower, upper) envelope of all length-N path masses.

    The expectation of a path indicator is the corresponding entry of
    the path-probability tensor, so one pass covers every path at once.
    """
    s = len(chain.space)
    lo = np.full((s,) * horizon, np.inf)
    up = np.full((s,) * horizon, -np.inf)
    for a in _assignments(chain, horizon, markov_only=False):
        probs = path_probabilities(chain, a, horizon)
        np.minimum(lo, probs, out=lo)
        np.maximum(up, probs, out=up)
    return lo, up


def envelope_given(
    chain: ImpreciseMarkovChain,
    prefix: Sequence[str],
    f: PathGamble,
    markov_only: bool = False,
) -> tuple[float, float]:
    """Conditional envelope of E(f | x_{1:n}) over all compatible trees."""
    idx = tuple(chain.space.index(x) for x in prefix)
    lo = np.inf
    up = -np.inf
    for a in _assignments(chain, f.horizon, markov_only):
        v = tree_expectation_given(chain, a, idx, f)
        lo = min(lo, v)
        up = max(up, v)
    return float(lo), float(up)
