"""The engine against an exact reference recursion (`exact_reference`).

(a) The marginal table of every bundled stationary scenario, for +-I_x at
    every state x at horizon 60, lies within the rounding bound
    n * (s + 2) * eps * max|h| of the exact values at time n: one step
    of any kernel rounds by at most (s + 2) * eps * max|g|, and an upper
    transition operator is non-expansive in the supremum norm, so the
    errors of the n - 1 steps and the initial model's closing add up.
(b) Interval rows on at most `credal.GREEDY_STATES` states step as one
    block of greedy allocations; on interval sets with a constraint
    binding within 1e-13 to 1e-9, that block stays within 4 eps * max|h|
    of the exact greedy allocation, where a block of `_vertex_array`
    points does not.
"""

from fractions import Fraction

import numpy as np
import pytest

from credalmc import ImpreciseMarkovChain, StateSpace, UpperTransitionOperator
from credalmc import credal
from credalmc.cli import load_bundled
from exact_reference import marginal_upper_table, upper
from helpers import near_degenerate_interval

EPS = np.finfo(float).eps

STATIONARY = (
    "example_5_1",
    "example_5_2",
    "example_5_3",
    "example_5_3_n2",
    "example_5_3_precise",
    "example_5_4",
    "stationary_mixed8",
)


@pytest.mark.parametrize("name", STATIONARY)
def test_marginal_table_lies_within_the_rounding_bound(name):
    bundled = load_bundled(name)
    assert bundled.stationary
    chain = ImpreciseMarkovChain(bundled.initial, bundled.transitions, 60)
    s = len(chain.space)
    H = np.concatenate([np.eye(s), -np.eye(s)], axis=1)
    got = chain.marginal_upper_table(H)
    exact = marginal_upper_table(chain, H)
    for n, (row, want) in enumerate(zip(got, exact), start=1):
        bound = Fraction(n * (s + 2)) * Fraction(EPS)
        worst = max(abs(Fraction(float(g)) - w) for g, w in zip(row, want))
        assert worst <= bound, (n, float(worst))


def _greedy_errors(plan, rows, H):
    """max |step - exact| / (eps * max|h|) over the rows and columns of H."""
    got = credal._step(plan, H)
    return max(
        abs(Fraction(float(got[x, j])) - upper(row, H[:, j]))
        / Fraction(EPS * np.abs(H[:, j]).max())
        for x, row in enumerate(rows)
        for j in range(H.shape[1])
    )


def test_lowered_interval_rows_stay_within_a_few_ulp_of_the_exact_greedy():
    rng = np.random.default_rng(39)
    greedy, vertex = [], []
    for _ in range(150):
        s = int(rng.integers(2, 5))
        space = StateSpace("abcd"[:s])
        rows = [near_degenerate_interval(rng, space) for _ in range(s)]
        op = UpperTransitionOperator(space, rows)
        (kernel, _, _), = op._plan[0]
        assert kernel is credal.VertexSet.kernel
        H = np.stack(
            [
                rng.uniform(-1.0, 1.0, size=s),
                rng.choice([-0.5, 1.0], size=s),  # ties
                (np.arange(s) == rng.integers(s)).astype(float),
            ],
            axis=1,
        )
        greedy.append(_greedy_errors(op._plan, rows, H))
        points = credal._point_block([r._vertex_array for r in rows])
        vertex_plan = ((credal.VertexSet.kernel, points, slice(0, s)),), None, False
        vertex.append(_greedy_errors(vertex_plan, rows, H))
    assert max(greedy) <= 4
    # The same check refuses a block of `vertices()` points: their
    # tolerances (feasibility within MASS_TOL, renormalized masses,
    # VERTEX_DEDUP_TOL) move the maximum by far more than a few ulp.
    assert max(vertex) > 4
