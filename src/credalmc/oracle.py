"""Brute-force ground truth for the backwards-recursion engine.

Enumerates every compatible precise probability tree whose local models
are drawn from the vertex lists of the chain's credal models, and takes
the min/max of each gamble's exact expectation over them.  Each model
caches its vertex list as a read-only (v, |X|) weight array
(`CredalModel._vertex_array`), which the size guard and the enumeration
share, so repeated calls on one chain enumerate no vertex twice.  Trees
are numbered by mixed-radix indices, one digit per situation with two
or more vertices: the initial
vertex is the most significant digit and the last situation the fastest,
which is `itertools.product` order.  `envelope` walks those numbers in
blocks: one `np.unravel_index` gives a block's digits, one `take` per
time gathers its weights, and one sum-product, `_sum_product`,
multiplies them left to right into every tree's probability of every
path (optionally conditional on a history).
Those tensors are contracted with any number of path gambles, and their
entries, the path masses, are bounded with no indicator table.
`path_probabilities` is the same sum-product for one `TreeAssignment`.
Deliberately independent of the recursion it validates: nothing here
applies an upper transition operator or a credal kernel; it uses only
the models' vertex arrays and numpy.

Choices at different situations are independent (the row credal set
depends only on the last state, but the chosen mass function may differ
per situation), so compatible trees are generally not Markov; the max
over situation-independent (Markov) choices is computed separately on
request so any gap is observable.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .chain import ImpreciseMarkovChain, PathGamble
from .credal import SizeGuardError
from .states import MassFunction, _check_integer, _check_space, frozen

#: Refuse enumerations with more assignments than this; in blocks, a
#: guard-sized enumeration (839,808 trees on two states at horizon 4, three
#: gambles) takes about 0.7 s on one core of a 2 vCPU Xeon.
ASSIGNMENT_GUARD = 2**20

#: A block holds as many trees as keep its (trees, gambles + 1, paths)
#: intermediates near this many float64 cells (512 KB); at least one tree.
#: Larger blocks were no faster on a guard-sized enumeration, and 2**20
#: cells raised its peak RSS from 36 MB to 61 MB.
BLOCK_CELLS = 2**16


@frozen
class TreeAssignment:
    """One compatible tree: a mass function chosen at every situation.

    `situation_choices` maps each non-terminal situation x_{1:k} (a tuple
    of state indices, k >= 1) to the chosen conditional mass function.
    """

    initial_choice: MassFunction
    situation_choices: dict[tuple[int, ...], MassFunction]


def _vertex_weights(chain: ImpreciseMarkovChain, horizon: int):
    """The vertex weights of every situation's model up to `horizon`,
    refused past the guard, and the number of tree assignments.

    Level 0 holds the initial model's (v, |X|) array, level k in
    [1, horizon) one such array per state: the model of every situation
    of length k ending in that state.  Those s^(k-1) situations share one
    row model, so the count is per (time, state): |V(k, x)| to that
    power, capped at a power that takes any two-vertex row past the guard.
    """
    horizon = _check_integer(horizon, "horizon", 1, chain.horizon)
    cap = ASSIGNMENT_GUARD.bit_length()
    levels = [[chain.initial._vertex_array]]
    total = len(levels[0][0])
    histories = 1  # situations of length k ending in one state, capped
    for k in range(1, horizon):
        levels.append([])
        for row in chain.operator_at(k).rows:
            levels[k].append(row._vertex_array)
            total *= len(levels[k][-1]) ** histories
            if total > ASSIGNMENT_GUARD:
                raise SizeGuardError(f"more than {ASSIGNMENT_GUARD} tree assignments")
        histories = min(histories * len(chain.space), cap)
    return levels, total


def count_assignments(chain: ImpreciseMarkovChain, horizon: int) -> int:
    """Number of extreme-point tree assignments up to the given horizon."""
    return _vertex_weights(chain, horizon)[1]


def _sum_product(table: np.ndarray, steps: Sequence[np.ndarray]) -> np.ndarray:
    """Probability of every path in each of a block of T trees.

    `table` is the (T,) tensor of ones; `steps` holds, per time, the
    (T, n, |X|) weights the trees choose at that time's n situations, in
    C order.  Returns a (T,) + (|X|,) * len(steps) tensor.
    """
    for w in steps:
        table = table[..., None] * w.reshape(table.shape + w.shape[-1:])
    return table


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
    s, n = len(chain.space), len(prefix)
    horizon = _check_integer(horizon, "horizon", max(n, 1), chain.horizon)
    choices = {(): assignment.initial_choice, **assignment.situation_choices}
    try:
        steps = [
            np.array([[choices[prefix + i].weights for i in np.ndindex(*(s,) * (k - n))]])
            for k in range(n, horizon)
        ]
    except KeyError as exc:
        raise ValueError(f"assignment misses situation {exc.args[0]}") from None
    return _sum_product(np.ones(1), steps)[0, ...]


def _numbering(levels, s: int, prefix: tuple[int, ...], markov_only: bool):
    """Mixed-radix numbering of the trees continuing `prefix`.

    Returns the radices, most significant first, and per time k in
    [len(prefix), horizon) the gather for its situations x_{1:k}, in C
    order: the level's stacked vertex weights, each situation's first row
    in that stack and the digit that picks its vertex (-1, a zero digit,
    for a single vertex).  Situations off the prefix never change a path
    probability, so they take no digit.  markov_only=True gives one digit
    per (time, last state) instead of one per situation.  Vertex counts
    are per state, so everything but the stacked weights is built from
    Python lists.
    """
    n, radices, gathers = len(prefix), [], []
    for k in range(n, len(levels)):
        counts = [len(w) for w in levels[k]]
        if k == 0:
            last = [0]  # the root: the initial model
        elif k == n:
            last = [prefix[-1]]
        else:
            last = list(range(s)) * s ** (k - n - 1)
        digit, owner = [], {}
        for i, x in enumerate(last):
            key = x if markov_only else i
            if key not in owner:
                owner[key] = len(radices) if counts[x] > 1 else -1
                if counts[x] > 1:
                    radices.append(counts[x])
            digit.append(owner[key])
        offsets = list(itertools.accumulate(counts, initial=0))
        rows = np.array([offsets[x] for x in last])
        gathers.append((np.concatenate(levels[k]), rows, np.array(digit)))
    return radices, gathers


def envelope(
    chain: ImpreciseMarkovChain,
    fs: Sequence[PathGamble],
    prefix: Sequence[str] = (),
    markov_only: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tight bounds (lo, up) on E(f | X(1:n) = prefix) for each f in fs, and
    (mass_lo, mass_up), shaped (|X|,) * (horizon - n), on each continuation.

    One pass over the trees serves all of them: each block of trees'
    path-probability tensors is contracted with every f and joins the same
    running min/max.  markov_only=True enumerates only trees choosing by
    (time, last state).
    """
    if not fs:
        raise ValueError("envelope needs at least one path gamble")
    for f in fs:
        _check_space(chain, f)
    horizon = fs[0].horizon
    if any(f.horizon != horizon for f in fs):
        raise ValueError("all path gambles must share one horizon")
    _check_integer(len(prefix), "prefix length", 0, horizon)
    idx = tuple(chain.space.index(x) for x in prefix)
    levels, _ = _vertex_weights(chain, horizon)  # size guard
    radices, gathers = _numbering(levels, len(chain.space), idx, markov_only)
    m, shape = len(fs), fs[0].values[idx].shape
    tails = np.stack([f.values[idx] for f in fs]).reshape(m, -1)
    lo = np.full(m + tails.shape[1], np.inf)
    up = -lo
    total = math.prod(radices)
    block = max(1, BLOCK_CELLS // ((m + 1) * tails.shape[1]))
    for first in range(0, total, block):
        trees = np.arange(first, min(first + block, total))
        # The trailing radix-1 digit is always 0: digit -1 of single-vertex
        # situations reads it.
        digits = np.stack(np.unravel_index(trees, radices + [1]))
        steps = [stack.take(rows + digits[digit].T, axis=0) for stack, rows, digit in gathers]
        probs = _sum_product(np.ones(len(trees)), steps).reshape(len(trees), -1)
        v = np.concatenate([(probs[:, None, :] * tails).sum(axis=2), probs], axis=1)
        np.minimum(lo, v.min(axis=0), out=lo)
        np.maximum(up, v.max(axis=0), out=up)
    return lo[:m], up[:m], lo[m:].reshape(shape), up[m:].reshape(shape)
