"""Seeded random generators for models, gambles and small chains."""

from __future__ import annotations

import itertools

import numpy as np

from credalmc import (
    BeliefFunction,
    Contamination,
    Event,
    Gamble,
    ImpreciseMarkovChain,
    Linear,
    MassFunction,
    ProbInterval,
    StateSpace,
    UpperTransitionOperator,
    Vacuous,
    VertexSet,
    count_assignments,
    credal,
)

FAMILIES = ("linear", "vacuous", "vertices", "contamination", "belief", "interval")


def random_mass(rng: np.random.Generator, space: StateSpace) -> MassFunction:
    return MassFunction(space, rng.dirichlet(np.ones(len(space))))


def random_gamble(rng: np.random.Generator, space: StateSpace) -> Gamble:
    return Gamble(space, rng.uniform(-1.0, 1.0, size=len(space)))


def random_prob_interval(rng: np.random.Generator, space: StateSpace) -> ProbInterval:
    n = len(space)
    m = rng.dirichlet(np.ones(n))
    delta = rng.uniform(0.0, 0.3, size=n)
    lo = np.clip(m - delta, 0.0, 1.0)
    up = np.clip(m + delta, 0.0, 1.0)
    # One reachability-repair pass (standard interval tightening); the
    # result still contains m, so the set stays nonempty.
    lo2 = np.maximum(lo, 1.0 - (up.sum() - up))
    up2 = np.minimum(up, 1.0 - (lo.sum() - lo))
    return ProbInterval(space, lo2, up2)


def random_belief(rng: np.random.Generator, space: StateSpace) -> BeliefFunction:
    labels = list(space.labels)
    subsets = [
        s
        for r in range(1, len(labels) + 1)
        for s in itertools.combinations(labels, r)
    ]
    k = int(rng.integers(1, min(3, len(subsets)) + 1))
    picks = rng.choice(len(subsets), size=k, replace=False)
    masses = rng.dirichlet(np.ones(k))
    focal = [
        (Event(space, subsets[int(i)]), float(w)) for i, w in zip(picks, masses)
    ]
    return BeliefFunction(space, focal)


def random_focal_belief(
    rng: np.random.Generator, space: StateSpace, n_focal: int
) -> BeliefFunction:
    """A belief function with n_focal random focal elements, drawn
    without listing every subset, so usable on wide spaces."""
    focal = []
    for w in rng.dirichlet(np.ones(n_focal)):
        size = int(rng.integers(1, len(space) + 1))
        members = rng.choice(space.labels, size=size, replace=False)
        focal.append((Event(space, members.tolist()), float(w)))
    return BeliefFunction(space, focal)


def extreme_focal_belief(
    rng: np.random.Generator, space: StateSpace, n_focal: int
) -> BeliefFunction:
    """A belief function on n_focal focal elements, in shuffled order:
    the full space, singletons, and random subsets."""
    labels = space.labels
    sets = [labels] + [[x] for x in rng.choice(labels, size=n_focal // 2)]
    while len(sets) < n_focal:
        size = int(rng.integers(1, len(labels) + 1))
        sets.append(rng.choice(labels, size=size, replace=False))
    order, masses = rng.permutation(n_focal), rng.dirichlet(np.ones(n_focal))
    return BeliefFunction(space, [(Event(space, sets[i]), float(w)) for i, w in zip(order, masses)])


def sized_focal_belief(rng: np.random.Generator, space: StateSpace, sizes) -> BeliefFunction:
    """A belief function whose focal elements have the given sizes, with
    random members and masses."""
    masses = rng.dirichlet(np.ones(len(sizes)))
    focal = [
        (Event(space, rng.choice(space.labels, size=int(n), replace=False).tolist()), float(w))
        for n, w in zip(sizes, masses)
    ]
    return BeliefFunction(space, focal)


#: Row kinds of the kernel contract tests: the six families, vertex-set
#: rows that all have four vertices, and belief rows whose focal elements
#: include the full space and singletons, are all proper subsets, or are
#: all the full space.
ROW_KINDS = FAMILIES + ("vertices4", "belief_extremes", "belief_proper", "belief_whole")


def random_row(rng: np.random.Generator, space: StateSpace, kind: str, n_focal: int):
    """A model of one of ROW_KINDS; belief rows get n_focal focal elements."""
    if kind == "belief":
        return random_focal_belief(rng, space, n_focal)
    if kind == "belief_extremes":
        return extreme_focal_belief(rng, space, n_focal)
    if kind == "belief_proper":
        return sized_focal_belief(rng, space, rng.integers(1, len(space), size=n_focal))
    if kind == "belief_whole":
        return sized_focal_belief(rng, space, [len(space)] * n_focal)
    if kind == "vertices4":
        return VertexSet(space, [random_mass(rng, space) for _ in range(4)])
    return random_model(rng, space, kind)


def random_model(rng: np.random.Generator, space: StateSpace, family: str):
    if family == "linear":
        return Linear(random_mass(rng, space))
    if family == "vacuous":
        return Vacuous(space)
    if family == "vertices":
        k = int(rng.integers(1, 4))
        return VertexSet(space, [random_mass(rng, space) for _ in range(k)])
    if family == "contamination":
        return Contamination(random_mass(rng, space), float(rng.uniform(0.05, 0.95)))
    if family == "belief":
        return random_belief(rng, space)
    if family == "interval":
        return random_prob_interval(rng, space)
    raise ValueError(family)


def run_kernel(cls, params, H: np.ndarray, m: int) -> np.ndarray:
    """`cls.kernel` on m stacked models, run through `credal._step` as a
    one-block plan and written into a fresh (m, k) block.

    The block starts as NaN, so a cell the kernel leaves unwritten shows."""
    plan = ((cls.kernel, params, slice(0, m)),), None, cls.reads_max
    return credal._step(plan, H, np.full((m, H.shape[1]), np.nan))


def planned_class(row):
    """The class whose kernel steps `row` in the plan of an operator on
    two or more states: `credal._Greedy` for an interval row on at most
    `credal.GREEDY_STATES` states whose lower bounds sum to at most one,
    else the row's own class."""
    if (
        type(row) is ProbInterval
        and len(row.space) <= credal.GREEDY_STATES
        and row.lower_mass.sum() <= 1.0
    ):
        return credal._Greedy
    return type(row)


def random_any_model(rng: np.random.Generator, space: StateSpace):
    return random_model(rng, space, str(rng.choice(FAMILIES)))


def random_small_chain(
    rng: np.random.Generator,
    max_states: int = 3,
    max_horizon: int = 3,
    max_vertices: int = 3,
    max_assignments: int = 1200,
    stationary: bool = True,
) -> ImpreciseMarkovChain:
    """A random chain small enough for the tree oracle.

    Mixes all model families; rejects draws whose models exceed the
    vertex cap or whose tree enumeration exceeds the assignment cap.
    A non-stationary chain draws its own operator for every step.
    """
    for _ in range(200):
        n_states = int(rng.integers(2, max_states + 1))
        space = StateSpace(["a", "b", "c", "d"][:n_states])
        horizon = int(rng.integers(2, max_horizon + 1))

        def draw():
            for _ in range(30):
                m = random_any_model(rng, space)
                if len(m.vertices()) <= max_vertices:
                    return m
            return Linear(random_mass(rng, space))

        def op():
            return UpperTransitionOperator(space, [draw() for _ in range(n_states)])

        initial = draw()
        transitions = op() if stationary else [op() for _ in range(horizon - 1)]
        chain = ImpreciseMarkovChain(initial, transitions, horizon)
        try:
            if count_assignments(chain, horizon) <= max_assignments:
                return chain
        except Exception:
            continue
    raise RuntimeError("could not draw a small chain within the caps")


def six_family_chain(seed: int, horizon: int, stationary: bool = True, s: int = 6):
    """A chain on s >= 6 states whose operator rows cycle through all six
    families."""
    rng = np.random.default_rng(seed)
    space = StateSpace([chr(ord("a") + i) for i in range(s)])

    def model(family):
        if family == "belief" and s > 6:  # random_model lists every subset
            return random_focal_belief(rng, space, 9)
        return random_model(rng, space, family)

    def op():
        families = np.resize(rng.permutation(FAMILIES), s)
        return UpperTransitionOperator(space, [model(f) for f in families])

    initial = model(str(rng.choice(FAMILIES)))
    transitions = op() if stationary else [op() for _ in range(horizon - 1)]
    return ImpreciseMarkovChain(initial, transitions, horizon)


def near_degenerate_interval(rng: np.random.Generator, space: StateSpace) -> ProbInterval:
    """Interval bounds around a random mass function m, one constraint
    binding within 1e-13 to 1e-9: the lower bounds summing just below one,
    the upper bounds just above or just below one, or one bound just
    reachable or just out of reach; the lower bounds sum to at most one."""
    s = len(space)
    while True:
        m = rng.dirichlet(np.ones(s))
        near = 10.0 ** rng.uniform(-13, -9, size=s)
        lo = np.clip(m - rng.uniform(0.0, 0.3, size=s), 0.0, 1.0)
        up = np.clip(m + rng.uniform(0.0, 0.3, size=s), 0.0, 1.0)
        kind, x, sign = rng.integers(5), rng.integers(s), rng.choice([-1.0, 1.0])
        if kind == 0:
            lo = m - near / s
        elif kind == 1:
            up = m + near / s
        elif kind == 2:
            up = m - near / s
            lo = np.minimum(lo, up)
        elif kind == 3:
            lo[x] = 1.0 - (up.sum() - up[x]) + sign * near[0]
        else:
            up[x] = 1.0 - (lo.sum() - lo[x]) + sign * near[0]
        try:
            row = ProbInterval(space, lo, up)
        except ValueError:  # out of [0, 1] or past MASS_TOL: draw again
            continue
        if row.lower_mass.sum() <= 1.0:
            return row
