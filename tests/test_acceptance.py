"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS line (visible with `pytest -s` or `-v`)
and enforces both the numeric tolerance and the wall-time budget of its
criterion.
"""

import time

import numpy as np
import pytest

from credalmc import (
    Gamble,
    ImpreciseMarkovChain,
    Linear,
    MassFunction,
    PathGamble,
    ProbInterval,
    StateSpace,
    UpperTransitionOperator,
    Vacuous,
    contamination_evolve,
    contamination_limit,
    detect_cycle,
    envelope,
    limit_upper,
    precise_stationary,
)
from credalmc import chain as chain_module
from helpers import (
    random_gamble,
    random_any_model,
    random_prob_interval,
    random_small_chain,
)

AB = StateSpace(["a", "b"])
ABC = StateSpace(["a", "b", "c"])

EX54_LOWER = np.array([[9, 9, 162], [144, 18, 18], [9, 162, 9]]) / 200.0
EX54_UPPER = np.array([[19, 19, 172], [154, 28, 28], [19, 172, 19]]) / 200.0


def _pass(num: int, desc: str, elapsed: float, limit: float) -> None:
    print(f"PASS criterion {num:2d}: {desc} [{elapsed:.2f}s < {limit:g}s]")
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def suite():
    rng = np.random.default_rng(2024)
    return [random_small_chain(rng, max_assignments=800) for _ in range(200)]


def test_criterion_1_classical_perron_frobenius():
    t0 = time.perf_counter()
    op = UpperTransitionOperator.from_matrix(AB, [[0.135, 0.865], [0.865, 0.135]])
    pi = precise_stationary(op, tol=1e-12)
    assert np.abs(pi.weights - 0.5).max() <= 1e-9
    _pass(1, "classical stationary distribution is (0.5, 0.5)", time.perf_counter() - t0, 1.0)


def test_criterion_2_contaminated_cycle_limit():
    t0 = time.perf_counter()
    op = UpperTransitionOperator.contamination_of(AB, [[0.0, 1.0], [1.0, 0.0]], 0.1)
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = random_gamble(rng, AB)
        got = limit_upper(op, h, tol=1e-11).value
        assert abs(got - h.values.max()) <= 1e-9
    _pass(2, "contaminated-cycle limit equals max h", time.perf_counter() - t0, 1.0)


def test_criterion_3_random_walk_limit_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for eps in (0.1, 0.5):
        op = UpperTransitionOperator.contamination_of(
            AB, [[0.5, 0.5], [0.5, 0.5]], eps
        )
        for _ in range(20):
            h = random_gamble(rng, AB)
            want = eps * h.values.max() + (1 - eps) * (h.values[0] + h.values[1]) / 2
            got = limit_upper(op, h, tol=1e-11).value
            assert abs(got - want) <= 1e-9
    _pass(3, "contaminated random-walk limit formula", time.perf_counter() - t0, 1.0)


def test_criterion_4_example_5_3_limit():
    t0 = time.perf_counter()
    want = 0.5 + 0.05 / 0.37  # 0.635135135...
    op = UpperTransitionOperator.contamination_of(AB, [[0.15, 0.85], [0.85, 0.15]], 0.1)
    got = limit_upper(op, AB.indicator(["a"]), tol=1e-10).value
    assert abs(got - want) <= 1e-6
    precise = UpperTransitionOperator.from_matrix(AB, [[0.15, 0.85], [0.85, 0.15]])
    series = contamination_limit(precise, 0.1, AB.indicator(["a"]), tol=1e-9)
    assert abs(series - want) <= 1e-6
    assert abs(series - got) <= 1e-6
    _pass(4, "two-state contamination limit is 0.635135...", time.perf_counter() - t0, 1.0)


def test_criterion_5_oracle_equivalence(suite):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    assert len(suite) >= 200
    for chain in suite:
        s = len(chain.space)
        N = chain.horizon
        f = PathGamble(chain.space, N, rng.uniform(-1, 1, size=(s,) * N))
        paths = [
            [chain.space.labels[i] for i in idx] for idx in np.ndindex(*(s,) * N)
        ]
        fs = [f] + [PathGamble.path_indicator(chain.space, N, p) for p in paths]
        lo, up, mass_lo, mass_up = envelope(chain, fs)
        for g, g_lo, g_up in zip(fs, lo, up):
            assert abs(chain.joint_upper(g) - g_up) <= 1e-10
            assert abs(chain.joint_lower(g) - g_lo) <= 1e-10
        p_lo, p_up = chain.path_mass_bounds(N)
        for idx in np.ndindex(*(s,) * N):
            assert abs(p_up[idx] - mass_up[idx]) <= 1e-10
            assert abs(p_lo[idx] - mass_lo[idx]) <= 1e-10
    _pass(5, "engine matches tree-oracle envelope on 200 chains", time.perf_counter() - t0, 60.0)


def test_criterion_6_markov_property(suite):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for chain in suite:
        s = len(chain.space)
        N = chain.horizon
        for n in range(2, N + 1):
            tail = rng.uniform(-1, 1, size=(s,) * (N - n + 1))
            full = np.broadcast_to(
                tail.reshape((1,) * (n - 1) + tail.shape), (s,) * N
            )
            f = PathGamble(chain.space, N, full)
            assert chain.markov_invariance_gap(n, f) <= 1e-12
    _pass(6, "conditional values are history-independent", time.perf_counter() - t0, 30.0)


def test_criterion_7_chapman_kolmogorov(suite):
    t0 = time.perf_counter()
    for chain in suite:
        s = len(chain.space)
        N = chain.horizon
        lo, up = chain.path_mass_bounds(N)
        for idx in np.ndindex(*(s,) * N):
            path = [chain.space.labels[i] for i in idx]
            f = PathGamble.path_indicator(chain.space, N, path)
            assert abs(up[idx] - chain.joint_upper(f)) <= 1e-12
            assert abs(lo[idx] - chain.joint_lower(f)) <= 1e-12
    _pass(7, "path-mass products equal joint bounds", time.perf_counter() - t0, 30.0)


def test_criterion_8_closed_form_vs_recursion():
    t0 = time.perf_counter()
    initial = ProbInterval(AB, [0.6, 0.1], [0.9, 0.4])
    precise = UpperTransitionOperator.from_matrix(AB, [[0.15, 0.85], [0.85, 0.15]])
    op = UpperTransitionOperator.contamination_of(AB, [[0.15, 0.85], [0.85, 0.15]], 0.1)
    chain = ImpreciseMarkovChain(initial, op, 51)
    ind = AB.indicator(["a"])
    assert abs(chain.marginal_upper(2, ind) - 0.487) <= 1e-12
    assert abs(chain.marginal_lower(2, ind) - 0.198) <= 1e-12
    rng = np.random.default_rng(5)
    for h in [ind, random_gamble(rng, AB), random_gamble(rng, AB)]:
        for n in range(0, 51):
            closed = contamination_evolve(initial, precise, 0.1, h, n)
            assert abs(closed - chain.marginal_upper(n + 1, h)) <= 1e-12
    _pass(8, "contamination closed form equals recursion to n=50", time.perf_counter() - t0, 1.0)


def test_criterion_9_initial_condition_independence():
    t0 = time.perf_counter()
    op = UpperTransitionOperator.from_interval_matrices(ABC, EX54_LOWER, EX54_UPPER)
    n_reg = op.is_regular()
    assert n_reg is not None and n_reg <= 9
    initials = [
        Vacuous(ABC),
        Linear(MassFunction.degenerate(ABC, "a")),
        ProbInterval(ABC, [0.1, 0.1, 0.1], [0.7, 0.7, 0.7]),
    ]
    bounds = []
    for init in initials:
        chain = ImpreciseMarkovChain(init, op, 60)
        bounds.append(
            {
                x: (
                    chain.marginal_lower(60, ABC.indicator([x])),
                    chain.marginal_upper(60, ABC.indicator([x])),
                )
                for x in ABC
            }
        )
    for other in bounds[1:]:
        for x in ABC:
            assert abs(bounds[0][x][0] - other[x][0]) <= 1e-8
            assert abs(bounds[0][x][1] - other[x][1]) <= 1e-8
    _pass(9, "n=60 singleton bounds are initial-independent", time.perf_counter() - t0, 5.0)


def test_criterion_10_coherence_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    cases = 0
    for _ in range(250):
        space = AB if rng.random() < 0.5 else ABC
        model = random_any_model(rng, space)
        g = random_gamble(rng, space)
        h = random_gamble(rng, space)
        # conjugacy
        assert abs(model.lower(h) + model.upper(-h)) <= 1e-14
        # sublinearity and positive homogeneity
        g_plus_h = Gamble(space, g.values + h.values)
        assert model.upper(g_plus_h) <= model.upper(g) + model.upper(h) + 1e-12
        lam = float(rng.uniform(0, 3))
        assert abs(model.upper(Gamble(space, lam * h.values)) - lam * model.upper(h)) <= 1e-12
        cases += 3
        # operator-level properties
        op = UpperTransitionOperator(
            space, [random_any_model(rng, space) for _ in space.labels]
        )
        c = float(rng.uniform(-5, 5))
        constant = Gamble(space, np.full(len(space), c))
        assert np.abs(op.apply(constant).values - c).max() <= 1e-12
        low = Gamble(space, np.minimum(g.values, h.values))
        assert np.all(op.apply(low).values <= op.apply(g).values + 1e-12)
        moved = np.abs(op.apply(g).values - op.apply(h).values).max()
        assert moved <= np.abs(g.values - h.values).max() + 1e-12
        cases += 3
    # 2-alternation, exhaustive over event pairs for up to four states
    import itertools

    for n in (2, 3, 4):
        space = StateSpace(["a", "b", "c", "d"][:n])
        for _ in range(12):
            m = random_prob_interval(rng, space)
            subsets = [
                frozenset(sub)
                for r in range(n + 1)
                for sub in itertools.combinations(space.labels, r)
            ]
            for A, B in itertools.product(subsets, repeat=2):
                lhs = m.event_upper(A | B) + m.event_upper(A & B)
                assert lhs <= m.event_upper(A) + m.event_upper(B) + 1e-12
                cases += 1
    assert cases >= 1000
    _pass(10, f"coherence properties hold on {cases} cases", time.perf_counter() - t0, 30.0)


def test_criterion_11_cycle_detection(suite):
    t0 = time.perf_counter()
    cycle = UpperTransitionOperator.from_matrix(AB, [[0.0, 1.0], [1.0, 0.0]])
    rep = detect_cycle(cycle, AB.indicator(["a"]), tol=1e-12)
    assert rep.period == 2
    assert list(rep.representative.values) == [1.0, 0.0]
    checked = 0
    for chain in suite:
        if checked >= 25:
            break
        op = chain.operator_at(1)
        if op.is_regular() is None:
            continue
        h = chain.space.indicator([chain.space.labels[0]])
        assert detect_cycle(op, h, tol=1e-9).period == 1
        checked += 1
    assert checked >= 10
    _pass(11, f"2-cycle has period 2; {checked} regular operators have period 1", time.perf_counter() - t0, 5.0)


def test_criterion_12_linear_time_marginals(monkeypatch):
    op = UpperTransitionOperator.from_interval_matrices(ABC, EX54_LOWER, EX54_UPPER)
    chain = ImpreciseMarkovChain(Vacuous(ABC), op, 40001)
    h = ABC.indicator(["a"])
    chain.marginal_upper(200, h)  # warm-up

    def timed(n):
        t0 = time.perf_counter()
        chain.marginal_upper(n, h)
        return time.perf_counter() - t0

    # Best of seven, the sizes interleaved so that a slow spell of a
    # shared host weighs on both.  At n = 20,000 a window lasts about
    # 0.1 s on a 2 vCPU Xeon, long enough that one slow spell of the
    # host does not decide the ratio.
    pairs = [(timed(20000), timed(40000)) for _ in range(7)]
    t_20k, t_40k = (min(col) for col in zip(*pairs))
    # The exact count: one operator step per backward step.
    calls = []
    inner = chain_module._step

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(chain_module, "_step", counted)
    for n in (20000, 40000):
        calls.clear()
        chain.marginal_upper(n, h)
        assert len(calls) == n - 1
    assert t_20k < 5.0, f"n=20000 took {t_20k:.2f}s"
    assert t_40k <= 2.5 * t_20k, f"scaling {t_40k / t_20k:.2f}x exceeds 2.5x"
    _pass(12, f"n=20000 in {t_20k:.2f}s, doubling costs {t_40k / t_20k:.2f}x", t_20k, 5.0)
