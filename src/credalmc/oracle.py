"""Brute-force ground truth for the backwards-recursion engine.

Enumerates every compatible precise probability tree whose local models
are drawn from the vertex lists of the chain's credal models, and takes
the min/max of each gamble's exact expectation over them.  There is one
sum-product, `path_probabilities`, which gives one tree's probability of
every path (optionally conditional on a history), and one enumeration,
`envelope`, which contracts that tensor with any number of path gambles
per tree and bounds its entries, the path masses, with no indicator
table.  Deliberately independent of the recursion it validates: nothing
here applies an upper transition operator or a credal kernel.

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

#: Refuse enumerations with more assignments than this; at about 20k trees/s
#: (one core of a Xeon server) the guard is about a minute of enumeration.
ASSIGNMENT_GUARD = 2**20


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
    """Number of extreme-point tree assignments up to the given horizon.

    The s^(k-1) situations of length k ending in x share one row model, so
    count per (time, state): |V(k, x)| to that power, capped at a power
    that takes any two-vertex row past the guard."""
    if not 1 <= horizon <= chain.horizon:
        raise ValueError("horizon out of range")
    cap = ASSIGNMENT_GUARD.bit_length()
    total = len(chain.initial.vertices())
    histories = 1  # situations of length k ending in one state, capped
    for k in range(1, horizon):
        for row in chain.operator_at(k).rows:
            total *= len(row.vertices()) ** histories
            if total > ASSIGNMENT_GUARD:
                raise SizeGuardError(f"more than {ASSIGNMENT_GUARD} tree assignments")
        histories = min(histories * len(chain.space), cap)
    return total


def path_probabilities(
    chain: ImpreciseMarkovChain,
    assignment: TreeAssignment,
    horizon: int,
    prefix: tuple[int, ...] = (),
) -> np.ndarray:
    """Probability of every path continuing `prefix` up to `horizon` in one tree.

    With an empty prefix this is the joint law of X(1:horizon), a tensor
    of shape (|X|,) * horizon.  Given a history `prefix` of n state
    indices it is the law of X(n+1:horizon) conditional on X(1:n) =
    prefix, of shape (|X|,) * (horizon - n); a full-length prefix gives
    the 0-d tensor 1.
    """
    s = len(chain.space)
    if prefix:
        table = np.ones(())
    else:
        table = np.array(assignment.initial_choice.weights)
    for _ in range(len(prefix) + table.ndim, horizon):
        try:
            weights = [
                assignment.situation_choices[prefix + idx].weights
                for idx in np.ndindex(*table.shape)
            ]
        except KeyError as exc:
            raise ValueError(f"assignment misses situation {exc.args[0]}") from None
        table = table[..., None] * np.reshape(weights, table.shape + (s,))
    return table


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
    fs: Sequence[PathGamble],
    prefix: Sequence[str] = (),
    markov_only: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tight bounds (lo, up) on E(f | X(1:n) = prefix) for each f in fs, and
    (mass_lo, mass_up), shaped (|X|,) * (horizon - n), on each continuation.

    One pass over the trees serves all of them: each tree's path-probability
    tensor is contracted with every f and joins the same running min/max.
    markov_only=True enumerates only trees choosing by (time, last state).
    """
    if not fs:
        raise ValueError("envelope needs at least one path gamble")
    horizon = fs[0].horizon
    if any(f.horizon != horizon for f in fs):
        raise ValueError("all path gambles must share one horizon")
    idx = tuple(chain.space.index(x) for x in prefix)
    m, shape = len(fs), fs[0].values[idx].shape
    tails = np.stack([f.values[idx] for f in fs]).reshape(m, -1)
    lo = np.full(m + tails.shape[1], np.inf)
    up = -lo
    for a in _assignments(chain, horizon, markov_only):
        probs = path_probabilities(chain, a, horizon, idx).reshape(-1)
        v = np.concatenate([(probs * tails).sum(axis=1), probs])
        np.minimum(lo, v, out=lo)
        np.maximum(up, v, out=up)
    return lo[:m], up[:m], lo[m:].reshape(shape), up[m:].reshape(shape)
