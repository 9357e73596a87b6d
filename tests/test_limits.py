import numpy as np
import pytest

from credalmc import (
    BeliefFunction,
    Contamination,
    ConvergenceError,
    CredalValidationError,
    DimensionMismatch,
    Event,
    Gamble,
    ImpreciseMarkovChain,
    Linear,
    MassFunction,
    NotRegularError,
    ProbInterval,
    StateSpace,
    UpperTransitionOperator,
    Vacuous,
    contamination_evolve,
    contamination_limit,
    detect_cycle,
    expectation,
    limit_upper,
    precise_stationary,
)
from credalmc.cli import load_bundled, parse_gamble
from helpers import random_any_model, random_gamble

AB = StateSpace(["a", "b"])

EX53_LIMIT = 0.5 + 0.05 / 0.37  # geometric series: max T^k I_a = 0.5 + 0.5 * 0.7^k


def contaminated(matrix, eps):
    return UpperTransitionOperator.contamination_of(AB, matrix, eps)


def _count_applies(monkeypatch):
    calls = []
    apply = UpperTransitionOperator.apply

    def counted(self, h):
        calls.append(h)
        return apply(self, h)

    monkeypatch.setattr(UpperTransitionOperator, "apply", counted)
    return calls


class TestLimitUpper:
    def test_contaminated_cycle_gives_max(self):
        rng = np.random.default_rng(61)
        for eps in (0.1, 0.5, 0.9):
            op = contaminated([[0.0, 1.0], [1.0, 0.0]], eps)
            for _ in range(5):
                h = random_gamble(rng, AB)
                assert limit_upper(op, h, tol=1e-11).value == pytest.approx(
                    h.values.max(), abs=1e-9
                )

    def test_contaminated_random_walk(self):
        rng = np.random.default_rng(67)
        eps = 0.1
        op = contaminated([[0.5, 0.5], [0.5, 0.5]], eps)
        h = AB.indicator(["a"])
        assert limit_upper(op, h, tol=1e-11).value == pytest.approx(0.55, abs=1e-9)
        for _ in range(5):
            h = random_gamble(rng, AB)
            want = eps * h.values.max() + (1 - eps) * h.values.mean()
            assert limit_upper(op, h, tol=1e-11).value == pytest.approx(want, abs=1e-9)

    def test_example_series_value(self, ex53_op, ab):
        got = limit_upper(ex53_op, ab.indicator(["a"]), tol=1e-10)
        assert got.value == pytest.approx(EX53_LIMIT, abs=1e-6)
        assert got.residual <= 1e-10

    def test_nonconvergence_raises(self, cycle_op, ab):
        with pytest.raises(ConvergenceError):
            limit_upper(cycle_op, ab.indicator(["a"]), tol=1e-10, max_iter=100)

    def test_invariance_of_limit(self, ex53_op, ex54_op):
        rng = np.random.default_rng(71)
        for op in (ex53_op, ex54_op):
            for _ in range(5):
                h = random_gamble(rng, op.space)
                tol = 1e-10
                v1 = limit_upper(op, h, tol=tol).value
                v2 = limit_upper(op, op.apply(h), tol=tol).value
                assert abs(v1 - v2) <= 2 * tol

    def test_bounded_iterates(self, ex53_op, cycle_op):
        rng = np.random.default_rng(73)
        for op in (ex53_op, cycle_op):
            h = random_gamble(rng, AB)
            bound = np.abs(h.values).max()
            g = h
            for _ in range(50):
                g = op.apply(g)
                assert np.abs(g.values).max() <= bound + 1e-12

    @pytest.mark.parametrize("scenario", ["stationary_mixed8", "example_5_4"])
    def test_one_apply_per_iteration(self, scenario, monkeypatch):
        # The benchmark's traced run equates `transition.apply` calls with
        # `limit_upper` iterations.
        op = load_bundled(scenario).transitions
        calls = []
        apply = UpperTransitionOperator.apply

        def counted(self, h):
            calls.append(h)
            return apply(self, h)

        monkeypatch.setattr(UpperTransitionOperator, "apply", counted)
        report = limit_upper(op, parse_gamble(op.space, "a:1,b:0"))
        assert report.iterations > 0
        assert len(calls) == report.iterations

    @pytest.mark.parametrize("max_iter", [0, 1, 3])
    def test_failure_stops_after_max_iter_applies(self, cycle_op, ab, max_iter, monkeypatch):
        calls = _count_applies(monkeypatch)
        with pytest.raises(ConvergenceError) as caught:
            limit_upper(cycle_op, ab.indicator(["a"]), max_iter=max_iter)
        # Iterate 2 repeats iterate 0 bit for bit, which proves that the
        # iterates never converge, so a ceiling of 3 stops after 2 applies
        # and names the period.
        applies = min(max_iter, 2)
        assert len(calls) == applies
        # The 2-cycle keeps the oscillation of the last checked iterate at 1.
        assert str(caught.value).startswith(
            f"oscillation still 1.000e+00 after {applies} iterations"
            + (": the iterates cycle with period 2" if max_iter == 3 else ";")
        )

    @pytest.mark.parametrize(
        "perm, applies, period",
        [([0, 1], 1, 1), ([1, 2, 0], 5, 3)],
        ids=["identity", "three-cycle"],
    )
    def test_exact_repeat_raises_at_once(self, perm, applies, period, monkeypatch):
        # Brent's checkpoint is iterate 0 for 2 steps, then iterate 2 for 4:
        # the identity repeats iterate 0 at once, the 3-cycle iterate 2 at 5.
        space = StateSpace(["a", "b", "c"][: len(perm)])
        op = UpperTransitionOperator.from_matrix(space, np.eye(len(perm))[perm])
        calls = _count_applies(monkeypatch)
        with pytest.raises(ConvergenceError) as caught:
            limit_upper(op, space.indicator(["a"]))
        assert len(calls) == applies
        assert str(caught.value) == (
            f"oscillation still 1.000e+00 after {applies} iterations: the iterates "
            f"cycle with period {period} and have no limit (the library function "
            "credalmc.detect_cycle finds the cycle)"
        )


class TestContaminationLimit:
    def test_matches_iteration(self, ex53_precise_op, ex53_op, ab):
        rng = np.random.default_rng(79)
        for _ in range(5):
            h = random_gamble(rng, ab)
            tol = 1e-10
            series = contamination_limit(ex53_precise_op, 0.1, h, tol=tol)
            iterated = limit_upper(ex53_op, h, tol=tol).value
            assert abs(series - iterated) <= 2 * tol

    def test_cycle_and_walk_closed_forms(self):
        h = AB.indicator(["a"])
        cyc = UpperTransitionOperator.from_matrix(AB, [[0.0, 1.0], [1.0, 0.0]])
        walk = UpperTransitionOperator.from_matrix(AB, [[0.5, 0.5], [0.5, 0.5]])
        assert contamination_limit(cyc, 0.3, h, tol=1e-12) == pytest.approx(1.0)
        assert contamination_limit(walk, 0.1, h, tol=1e-12) == pytest.approx(0.55)

    def test_example_value(self, ex53_precise_op, ab):
        got = contamination_limit(ex53_precise_op, 0.1, ab.indicator(["a"]), tol=1e-9)
        assert got == pytest.approx(EX53_LIMIT, abs=1e-6)

    def test_tiny_epsilon_hits_iteration_cap(self, ex53_precise_op, ab):
        # About 2.3e8 terms would be needed; the count is known up front.
        with pytest.raises(ConvergenceError):
            contamination_limit(ex53_precise_op, 1e-7, ab.indicator(["a"]))

    def test_term_count_within_cap(self, ex53_precise_op, ab):
        h = ab.indicator(["a"])
        # (1 - 0.1)^K <= 1e-9 first holds at K = 197.
        got = contamination_limit(ex53_precise_op, 0.1, h, tol=1e-9, max_iter=197)
        assert got == pytest.approx(EX53_LIMIT, abs=1e-6)
        with pytest.raises(ConvergenceError):
            contamination_limit(ex53_precise_op, 0.1, h, tol=1e-9, max_iter=196)


class TestContaminationEvolve:
    def test_n_zero_is_initial_upper(self, ex53_initial, ex53_precise_op, ab):
        got = contamination_evolve(
            ex53_initial, ex53_precise_op, 0.1, ab.indicator(["a"]), 0
        )
        assert got == pytest.approx(0.9)

    def test_one_step_hand_value(self, ex53_initial, ex53_precise_op, ab):
        got = contamination_evolve(
            ex53_initial, ex53_precise_op, 0.1, ab.indicator(["a"]), 1
        )
        assert got == pytest.approx(0.487)

    def test_agrees_with_marginal_recursion(
        self, ex53_initial, ex53_precise_op, ex53_op, ab
    ):
        chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 51)
        rng = np.random.default_rng(83)
        for h in [ab.indicator(["a"]), random_gamble(rng, ab)]:
            for n in range(0, 51, 5):
                closed = contamination_evolve(ex53_initial, ex53_precise_op, 0.1, h, n)
                assert closed == pytest.approx(
                    chain.marginal_upper(n + 1, h), abs=1e-12
                )


# Outputs of the series recorded bit for bit before they moved from
# `Gamble` arithmetic onto raw columns; `==` pins every last bit.
EX53_SERIES = {
    (1.0, 0.0): (
        0.6351351350874829,
        {0: 0.9, 1: 0.487, 2: 0.74026, 5: 0.61179946507, 24: 0.6351391827346811},
    ),
    (1.0, 0.25): (
        0.7263513512917871,
        {0: 0.925, 1: 0.61525, 2: 0.805195, 5: 0.7088495988025, 24: 0.7263543870510107},
    ),
}

SIX_STATE_SERIES = (
    -0.0038723877855859823,
    {
        0: 0.10225729278569526,
        1: 0.04378931423255643,
        3: 0.0008390829058758098,
        10: -0.003872637583105718,
        40: -0.0038723878090288835,
    },
)


@pytest.mark.parametrize("values", list(EX53_SERIES))
def test_example_series_are_pinned(values, ex53_initial, ex53_precise_op, ab):
    limit, evolved = EX53_SERIES[values]
    h = Gamble(ab, values)
    assert contamination_limit(ex53_precise_op, 0.1, h) == limit
    for n, want in evolved.items():
        assert contamination_evolve(ex53_initial, ex53_precise_op, 0.1, h, n) == want


def test_series_refuse_a_gamble_on_another_space(ex53_initial, ex53_precise_op):
    xy = StateSpace(["x", "y"])
    h = Gamble(xy, [1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        contamination_limit(ex53_precise_op, 0.1, h)
    for n in (0, 2):
        with pytest.raises(DimensionMismatch):
            contamination_evolve(ex53_initial, ex53_precise_op, 0.1, h, n)


def test_series_refuse_an_imprecise_base(ex53_initial, ex53_op, ab):
    # The closed forms hold only for a precise base operator.
    h = ab.indicator(["a"])
    with pytest.raises(ValueError, match="all-Linear"):
        contamination_limit(ex53_op, 0.1, h)
    with pytest.raises(ValueError, match="all-Linear"):
        contamination_evolve(ex53_initial, ex53_op, 0.1, h, 5)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda op, h: limit_upper(op, h, tol=float("nan"), max_iter=50), ValueError),
        (lambda op, h: limit_upper(op, h, max_iter=-1), ValueError),
        (lambda op, h: contamination_limit(op, 0.1, h, tol=float("nan"), max_iter=50), ValueError),
        (lambda op, h: detect_cycle(op, h, tol=float("nan"), max_iter=50), ValueError),
        (lambda op, h: precise_stationary(op, tol=float("nan"), max_iter=50), ValueError),
        (lambda op, h: contamination_limit(op, 0.1, h, max_iter=-1), ValueError),
        (lambda op, h: detect_cycle(op, h, max_iter=-1), ValueError),
        (lambda op, h: precise_stationary(op, max_iter=-1), ValueError),
        # A bool is not a number and a float is not an iteration count.
        (lambda op, h: limit_upper(op, h, tol=True), ValueError),
        (lambda op, h: limit_upper(op, h, tol=np.True_), ValueError),
        (lambda op, h: contamination_limit(op, 0.1, h, tol=True), ValueError),
        (lambda op, h: limit_upper(op, h, max_iter=True), ValueError),
        (lambda op, h: limit_upper(op, h, max_iter=2.5), ValueError),
        (lambda op, h: limit_upper(op, h, max_iter=50.0), ValueError),
        (lambda op, h: contamination_limit(op, 0.1, h, max_iter=2.5), ValueError),
        (lambda op, h: detect_cycle(op, h, max_iter=2.5), ValueError),
        (lambda op, h: precise_stationary(op, max_iter=2.5), ValueError),
        (lambda op, h: contamination_evolve(Vacuous(AB), op, 0.1, h, True), ValueError),
        (lambda op, h: contamination_evolve(Vacuous(AB), op, 0.1, h, 2.5), ValueError),
        # Nor is a string or None a tol or an epsilon; a string epsilon is
        # refused as `Contamination` refuses it.
        (lambda op, h: limit_upper(op, h, tol="0.1"), ValueError),
        (lambda op, h: limit_upper(op, h, tol=None), ValueError),
        (lambda op, h: contamination_limit(op, "0.1", h), TypeError),
        (lambda op, h: contamination_evolve(Vacuous(AB), op, "0.1", h, 2), TypeError),
    ],
    ids=[
        "limit-tol-nan",
        "limit-max-iter-negative",
        "contamination-tol-nan",
        "cycle-tol-nan",
        "stationary-tol-nan",
        "contamination-max-iter-negative",
        "cycle-max-iter-negative",
        "stationary-max-iter-negative",
        "limit-tol-bool",
        "limit-tol-numpy-bool",
        "contamination-tol-bool",
        "limit-max-iter-bool",
        "limit-max-iter-float",
        "limit-max-iter-integral-float",
        "contamination-max-iter-float",
        "cycle-max-iter-float",
        "stationary-max-iter-float",
        "evolve-n-bool",
        "evolve-n-float",
        "limit-tol-string",
        "limit-tol-none",
        "contamination-epsilon-string",
        "evolve-epsilon-string",
    ],
)
def test_iteration_parameters_are_refused(call, error, ex53_precise_op, ab):
    with pytest.raises(error) as exc:
        call(ex53_precise_op, ab.indicator(["a"]))
    assert type(exc.value) is error


@pytest.mark.parametrize(
    "epsilon, error",
    [
        (None, TypeError),
        ("0.1", TypeError),
        ([0.1], TypeError),
        (True, TypeError),
        (0, CredalValidationError),
        (1, CredalValidationError),
        (1.5, CredalValidationError),
        (float("nan"), CredalValidationError),
    ],
    ids=["none", "string", "list", "bool", "zero", "one", "above-one", "nan"],
)
def test_one_epsilon_rule(epsilon, error, ex53_initial, ex53_precise_op, ab):
    # The closed forms refuse an epsilon as `Contamination` does.
    h = ab.indicator(["a"])
    with pytest.raises(error) as want:
        Contamination(MassFunction(ab, [0.5, 0.5]), epsilon)
    assert type(want.value) is error
    for call in (
        lambda: contamination_limit(ex53_precise_op, epsilon, h),
        lambda: contamination_evolve(ex53_initial, ex53_precise_op, epsilon, h, 2),
    ):
        with pytest.raises(error) as got:
            call()
        assert type(got.value) is error and str(got.value) == str(want.value)


def test_iteration_parameters_accept_numpy_integers(ex53_initial, ex53_precise_op, ab):
    h = ab.indicator(["a"])
    assert limit_upper(ex53_precise_op, h, max_iter=np.int64(200)) == limit_upper(
        ex53_precise_op, h, max_iter=200
    )
    assert contamination_evolve(
        ex53_initial, ex53_precise_op, 0.1, h, np.int64(3)
    ) == contamination_evolve(ex53_initial, ex53_precise_op, 0.1, h, 3)


def test_iteration_parameters_accept_numpy_floats(ex53_initial, ex53_precise_op, ab):
    h, tol, eps = ab.indicator(["a"]), np.float64(1e-10), np.float64(0.1)
    assert limit_upper(ex53_precise_op, h, tol=tol) == limit_upper(ex53_precise_op, h)
    assert contamination_limit(ex53_precise_op, eps, h, tol=tol) == contamination_limit(
        ex53_precise_op, 0.1, h
    )
    assert contamination_evolve(
        ex53_initial, ex53_precise_op, eps, h, 3
    ) == contamination_evolve(ex53_initial, ex53_precise_op, 0.1, h, 3)


def test_six_state_series_are_pinned():
    rng = np.random.default_rng(2024)
    space = StateSpace(list("abcdef"))
    op = UpperTransitionOperator.from_matrix(space, rng.dirichlet(np.ones(6), size=6))
    lo = rng.dirichlet(np.ones(6)) * 0.5
    initial = ProbInterval(space, lo, np.minimum(lo + 0.3, 1.0))
    h = Gamble(space, rng.uniform(-1, 1, 6))
    limit, evolved = SIX_STATE_SERIES
    assert contamination_limit(op, 0.2, h) == limit
    for n, want in evolved.items():
        assert contamination_evolve(initial, op, 0.2, h, n) == want


class TestPreciseStationary:
    def test_example_boundary_matrix(self):
        op = UpperTransitionOperator.from_matrix(
            AB, [[0.135, 0.865], [0.865, 0.135]]
        )
        pi = precise_stationary(op, tol=1e-12)
        assert list(pi.weights) == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_identity_not_regular(self):
        op = UpperTransitionOperator.from_matrix(AB, [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NotRegularError):
            precise_stationary(op)

    def test_stationary_start_needs_no_update(self):
        # The uniform start of a doubly stochastic chain is stationary, so
        # max_iter=0 returns it.
        q = [[0.25, 0.75], [0.75, 0.25]]
        pi = precise_stationary(UpperTransitionOperator.from_matrix(AB, q), max_iter=0)
        assert list(pi.weights) == [0.5, 0.5]

    def test_doubly_stochastic_symmetric_uniform(self):
        space = StateSpace(["a", "b", "c"])
        q = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
        pi = precise_stationary(
            UpperTransitionOperator.from_matrix(space, q), tol=1e-13
        )
        assert list(pi.weights) == pytest.approx([1 / 3] * 3, abs=1e-9)

    def test_fixed_point_and_limit_agreement(self):
        rng = np.random.default_rng(89)
        space = StateSpace(["a", "b", "c"])
        q = rng.dirichlet(np.ones(3), size=3)
        op = UpperTransitionOperator.from_matrix(space, q)
        tol = 1e-12
        pi = precise_stationary(op, tol=tol)
        assert np.abs(pi.weights @ q - pi.weights).max() <= 10 * tol
        h = random_gamble(rng, space)
        assert expectation(pi, h) == pytest.approx(
            limit_upper(op, h, tol=tol).value, abs=1e-9
        )

    def test_rejects_imprecise_rows(self, ex53_op):
        with pytest.raises(ValueError):
            precise_stationary(ex53_op)


class TestDetectCycle:
    def test_precise_two_cycle(self, cycle_op, ab):
        rep = detect_cycle(cycle_op, ab.indicator(["a"]), tol=1e-12)
        assert rep.period == 2
        assert list(rep.representative.values) == pytest.approx([1.0, 0.0])
        assert rep.residual <= 1e-12

    def test_regular_operator_period_one(self, ex53_op, ab):
        rep = detect_cycle(ex53_op, ab.indicator(["a"]), tol=1e-10)
        assert rep.period == 1
        assert np.ptp(rep.representative.values) <= 1e-8

    def test_constant_gamble_immediate(self, cycle_op, ab):
        rep = detect_cycle(cycle_op, Gamble(ab, [0.4, 0.4]), tol=1e-12)
        assert rep.period == 1
        assert rep.iterations == 0

    def test_cycle_invariant(self, cycle_op, ab):
        rng = np.random.default_rng(97)
        h = random_gamble(rng, ab)
        rep = detect_cycle(cycle_op, h, tol=1e-12)
        back = rep.representative
        for _ in range(rep.period):
            back = cycle_op.apply(back)
        assert np.abs(back.values - rep.representative.values).max() <= 1e-12

    def test_period_of_the_tolerance_cycle(self):
        # example_5_1 is regular, but its iterates of I_a alternate while
        # they converge: iterate 256 is back within tol of checkpoint 254
        # while every iterate still oscillates by more than tol, so the
        # cycle at the checkpoint has period 2 where the limit has 1.
        op = load_bundled("example_5_1").transitions
        h, tol = op.space.indicator(["a"]), 1e-12
        assert op.is_regular() is not None
        rep = detect_cycle(op, h, tol=tol)
        assert (rep.period, rep.iterations) == (2, 254)
        assert rep.residual == pytest.approx(4.5e-13, rel=0.01)
        assert np.ptp(rep.representative.values) > tol
        back = op.apply(op.apply(rep.representative))
        assert np.abs(back.values - rep.representative.values).max() <= tol
        limit = limit_upper(op, h, tol=tol)
        assert limit.iterations == 263 and limit.residual <= tol

    def test_max_iter_reached_raises(self, cycle_op, ab):
        # Iterate 2 comes back to iterate 0, the first checkpoint, so
        # max_iter=1 stops first and max_iter=2 finds the 2-cycle.
        with pytest.raises(ConvergenceError):
            detect_cycle(cycle_op, ab.indicator(["a"]), tol=1e-12, max_iter=1)
        rep = detect_cycle(cycle_op, ab.indicator(["a"]), max_iter=2)
        assert (rep.period, rep.iterations) == (2, 0)

    def test_period_beyond_any_quadratic_window(self, monkeypatch):
        # A permutation of 29 states with cycles of 5, 7, 8 and 9 has period
        # lcm = 2520 > 2 * 29**2.  The first checkpoint held for 2520 steps
        # is iterate 4094, so the cycle closes at apply 6614.
        perm, start = [], 0
        for n in (5, 7, 8, 9):
            perm += [start + (i + 1) % n for i in range(n)]
            start += n
        space = StateSpace([f"x{i}" for i in range(29)])
        op = UpperTransitionOperator.from_matrix(space, np.eye(29)[perm])
        calls = _count_applies(monkeypatch)
        rep = detect_cycle(op, Gamble(space, np.arange(29.0)), max_iter=7000)
        assert (rep.period, rep.iterations, rep.residual) == (2520, 4094, 0.0)
        assert len(calls) == 6614

    def test_non_constant_fixed_point(self):
        # Two absorbing states; the belief row at c keeps 1 - 2**-53 of its
        # mass, so the iterates drift by single ulps and never repeat bit for
        # bit, yet settle within tol of a non-constant fixed point.
        space = StateSpace(["a", "b", "c", "d"])
        eye = np.eye(4)
        op = UpperTransitionOperator(
            space,
            [
                Linear(MassFunction(space, eye[0])),
                Linear(MassFunction(space, eye[1])),
                BeliefFunction(space, [(Event(space, ["a", "b", "c"]), 1 - 2**-53)]),
                Contamination(MassFunction(space, [0.05, 0.1, 0.05, 0.8]), 0.25),
            ],
        )
        rep = detect_cycle(op, Gamble(space, [-0.6, -0.3, 0.4, -0.8]), tol=1e-12)
        assert rep.period == 1
        np.testing.assert_allclose(rep.representative.values, [-0.6, -0.3, 0.4, 0.175])
        step = op.apply(rep.representative).values
        assert 0 < np.abs(step - rep.representative.values).max() <= 1e-12


def _detect_cycle_ref(op, h, tol, max_iter):
    # Reference: every iterate kept in a list, compared with Brent's
    # checkpoints written out: iterate 2**k - 2 is held for 2**k steps.
    checkpoints = [2**k - 2 for k in range(1, max_iter.bit_length() + 2)]
    iterates = [h]
    for it in range(max_iter + 1):
        if it:
            iterates.append(op.apply(iterates[-1]))
        g = iterates[it].values
        if g.max() - g.min() <= tol:
            return 1, iterates[it], g.max() - g.min(), it
        if it:
            start = max(c for c in checkpoints if c < it)
            gap = np.abs(g - iterates[start].values).max()
            if gap <= tol:
                return it - start, iterates[start], gap, start
    return None


def test_detect_cycle_matches_per_gamble_loop():
    rng = np.random.default_rng(101)
    labels = ["a", "b", "c", "d"]
    periods, late = set(), False
    for trial in range(80):
        s = int(rng.integers(2, 5))
        space = StateSpace(labels[:s])
        shift = UpperTransitionOperator.from_matrix(space, np.eye(s)[rng.permutation(s)])
        if trial % 2:
            op = shift  # a permutation: the period is its order
        else:
            # Some rows of a random operator follow a permutation.
            rows = [
                shift.rows[x] if rng.random() < 0.5 else random_any_model(rng, space)
                for x in range(s)
            ]
            op = UpperTransitionOperator(space, rows)
        h = random_gamble(rng, space)
        want = _detect_cycle_ref(op, h, 1e-12, 500)
        if want is None:
            with pytest.raises(ConvergenceError):
                detect_cycle(op, h, tol=1e-12, max_iter=500)
            continue
        got = detect_cycle(op, h, tol=1e-12, max_iter=500)
        period, rep, residual, iterations = want
        assert (got.period, got.residual, got.iterations) == (period, residual, iterations)
        np.testing.assert_array_equal(got.representative.values, rep.values)
        # Properties that hold for any checkpoint schedule: r is iterate
        # number `iterations`, ||T^p r - r|| <= tol, and no p' < p does so.
        g = h
        for _ in range(got.iterations):
            g = op.apply(g)
        np.testing.assert_array_equal(g.values, got.representative.values)
        gaps = []
        for _ in range(got.period):
            g = op.apply(g)
            gaps.append(np.abs(g.values - got.representative.values).max())
        assert gaps[-1] <= 1e-12 < min(gaps[:-1], default=np.inf)
        periods.add(got.period)
        late |= got.period > 1 and got.iterations >= 14  # a later checkpoint
    assert {1, 2, 3} <= periods
    assert late
