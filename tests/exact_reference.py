"""An exact reference recursion for the marginal bounds of stationary chains.

Every row functional is computed in exact rational arithmetic from the
`fractions.Fraction` values of the model's stored float parameters, so a
difference from the engine is the rounding of its kernels alone, not of
the scenario's decimals.  Each family has its closed form:

- linear: sum of m(x) h(x);
- vacuous: max h;
- vertex set: the maximum over its points of sum p(x) h(x);
- contamination: (1 - eps) * sum base(x) h(x) + eps * max h;
- belief function: sum over focal elements F of m(F) * max over F of h;
- probability intervals: the greedy allocation, which starts from the
  lower bounds and hands the slack 1 - sum(lower) to the states in
  decreasing order of h, each up to its upper bound.

A vector of exact values is held as integer numerators over one common
denominator, so the sums, products and maxima are integer operations,
with no `gcd` per operation, and a result is reduced to a `Fraction`
only where it is compared.  The module reads the models' stored
parameters only: it calls no `_plan`, `_step`, kernel, `upper` or
operator method, so it checks the engine's arithmetic independently of
it, as the tree oracle does.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from credalmc import (
    BeliefFunction,
    Contamination,
    Linear,
    ProbInterval,
    Vacuous,
    VertexSet,
)


def exact(values) -> tuple[list[int], int]:
    """The exact values of a float array, flattened, as integer numerators
    over one common denominator."""
    values = [Fraction(v) for v in np.ravel(np.asarray(values, dtype=float)).tolist()]
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _dot(w: list[int], g: list[int]) -> int:
    return sum(a * b for a, b in zip(w, g))


def functional(model):
    """The model's exact upper expectation as a function of (g, d), a
    gamble g / d with integer numerators g, returning (numerator,
    denominator)."""
    s = len(model.space)
    if isinstance(model, Linear):
        m, dm = exact(model.mass.weights)
        return lambda g, d: (_dot(m, g), dm * d)
    if isinstance(model, Vacuous):
        return lambda g, d: (max(g), d)
    if isinstance(model, VertexSet):
        P, dp = exact([p.weights for p in model.points])
        points = [P[i : i + s] for i in range(0, len(P), s)]
        return lambda g, d: (max(_dot(p, g) for p in points), dp * d)
    if isinstance(model, Contamination):
        base, db = exact(model.base.weights)
        eps, de = model.epsilon.as_integer_ratio()
        # (1 - eps) * base.g + eps * max g over the denominator de * db * d.
        return lambda g, d: ((de - eps) * _dot(base, g) + eps * db * max(g), de * db * d)
    if isinstance(model, BeliefFunction):
        masses, dm = exact([w for _, w in model.focal])
        focal = [(ev.positions.tolist(), m) for (ev, _), m in zip(model.focal, masses)]
        return lambda g, d: (sum(m * max(g[x] for x in members) for members, m in focal), dm * d)
    if isinstance(model, ProbInterval):
        bounds, db = exact([model.lower_mass, model.upper_mass])
        lower, upper = bounds[:s], bounds[s:]

        def greedy(g, d):
            slack, total = db - sum(lower), _dot(lower, g)
            for x in sorted(range(s), key=g.__getitem__, reverse=True):
                give = min(upper[x] - lower[x], slack)
                total += give * g[x]
                slack -= give
            return total, db * d

        return greedy
    raise TypeError(f"no exact form for {type(model).__name__}")


def upper(model, h) -> Fraction:
    """The model's exact upper expectation of the float array h."""
    return Fraction(*functional(model)(*exact(h)))


def _common(values: list[tuple[int, int]]) -> tuple[list[int], int]:
    """(numerator, denominator) pairs as numerators over their lcm."""
    d = math.lcm(*(b for _, b in values))
    return [a * (d // b) for a, b in values], d


def marginal_upper_table(chain, H) -> list[list[Fraction]]:
    """The exact (horizon, k) upper expectations of the columns of the
    (s, k) array H at X(1), ..., X(horizon) of a stationary chain: row
    n - 1 closes T^(n - 1) h with the initial model, each step applying
    every row model's exact functional."""
    rows = [functional(row) for row in chain.transitions.rows]
    initial = functional(chain.initial)
    columns = [exact(h) for h in np.asarray(H, dtype=float).T]
    table = [[Fraction(*initial(*g)) for g in columns]]
    for _ in range(chain.horizon - 1):
        columns = [_common([row(*g) for row in rows]) for g in columns]
        table.append([Fraction(*initial(*g)) for g in columns])
    return table
