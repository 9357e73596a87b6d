import re
import time

import numpy as np
import pytest

from credalmc import (
    DimensionMismatch,
    Gamble,
    ImpreciseMarkovChain,
    Linear,
    MassFunction,
    PathGamble,
    SizeGuardError,
    StateSpace,
    UpperTransitionOperator,
    count_assignments,
    envelope,
)
from helpers import random_gamble, random_small_chain, six_family_chain

AB = StateSpace(["a", "b"])


def _horizon_refusal(horizon) -> str:
    """The anchored message of the horizon rule for a refused value."""
    if isinstance(horizon, int) and not isinstance(horizon, bool):
        return f"^{re.escape(f'horizon {horizon} out of range [1, inf]')}$"
    return f"^{re.escape(f'horizon must be an integer, got {horizon!r}')}$"


class TestMarginal:
    def test_first_step_is_initial_bound(self, ex53_chain, ab):
        ind = ab.indicator(["a"])
        assert ex53_chain.marginal_upper(1, ind) == pytest.approx(0.9)
        assert ex53_chain.marginal_lower(1, ind) == pytest.approx(0.6)

    def test_second_step_hand_recursion(self, ex53_chain, ab):
        ind = ab.indicator(["a"])
        assert ex53_chain.marginal_upper(2, ind) == pytest.approx(0.487)
        assert ex53_chain.marginal_lower(2, ind) == pytest.approx(0.198)

    def test_constant_preserved(self, ex53_chain, ab):
        for n in (1, 3, 10):
            assert ex53_chain.marginal_upper(n, Gamble(ab, [2.5, 2.5])) == pytest.approx(2.5)

    def test_out_of_range(self, ex53_chain, ab):
        with pytest.raises(ValueError):
            ex53_chain.marginal_upper(0, ab.indicator(["a"]))
        with pytest.raises(ValueError):
            ex53_chain.marginal_upper(26, ab.indicator(["a"]))

    def test_lower_never_exceeds_upper(self, ex53_chain, ab):
        rng = np.random.default_rng(37)
        for n in range(1, 11):
            h = random_gamble(rng, ab)
            assert ex53_chain.marginal_lower(n, h) <= ex53_chain.marginal_upper(
                n, h
            ) + 1e-14


@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-step"])
@pytest.mark.parametrize("horizon", [1, 2, 9])
def test_marginal_upper_table_rows_are_marginal_upper(stationary, horizon):
    # Row n - 1 has the bits of `marginal_upper(n, .)` for every column,
    # on both sweeps: forward in place and backward with a growing batch.
    chain = six_family_chain(7, horizon, stationary)
    rng = np.random.default_rng(horizon)
    H = np.column_stack([rng.uniform(-1, 1, size=(6, 3)), np.eye(6)[:, 2]])
    table = chain.marginal_upper_table(H)
    assert table.shape == (horizon, 4)
    for n in range(1, horizon + 1):
        for j in range(4):
            assert table[n - 1, j] == chain.marginal_upper(n, Gamble(chain.space, H[:, j]))


@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-step"])
def test_marginal_upper_table_checks_the_shape(stationary):
    chain = six_family_chain(7, 3, stationary)
    for bad in (np.zeros((5, 2)), np.zeros(6), np.zeros((6, 2, 1))):
        with pytest.raises(DimensionMismatch):
            chain.marginal_upper_table(bad)


@pytest.mark.parametrize(
    "H",
    [[["0.5"], ["1"]], [[True], [False]], np.array([[True], [False]])],
    ids=["strings", "bools", "bool-array"],
)
def test_raw_array_entry_points_refuse_strings_and_bools(ex53_initial, ex53_op, H):
    # Read as numbers, [["0.5"], ["1"]] would step to [[0.9325], [0.6175]].
    chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 3)
    bad = re.escape(repr(np.asarray(H).flat[0].item()))
    for entry in (ex53_op.apply_many, ex53_initial.upper_many, chain.marginal_upper_table):
        with pytest.raises(TypeError, match=f"^gamble values must be numbers, got {bad}$"):
            entry(H)


def test_raw_array_entry_points_take_numeric_nested_lists(ex53_initial, ex53_op):
    chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 3)
    H = [[0.5, 1], [1, -2.0]]
    for entry in (ex53_op.apply_many, ex53_initial.upper_many, chain.marginal_upper_table):
        assert np.array_equal(entry(H), entry(np.array(H, dtype=float)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_raw_array_entry_points_refuse_non_finite_values(ex53_initial, ex53_op, ab, bad):
    # Unchecked, such a column stepped to NaN bounds under a RuntimeWarning.
    chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 3)
    with pytest.raises(ValueError) as want:
        Gamble(ab, [bad, 0.0])
    for H in ([[bad], [0.0]], np.array([[0.5, 1.0], [bad, 0.0]])):
        for entry in (ex53_op.apply_many, ex53_initial.upper_many, chain.marginal_upper_table):
            with pytest.raises(ValueError) as got:
                entry(H)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value) == "gamble values must be finite"


class TestConditional:
    def test_single_step_reduces_to_apply(self, ex53_chain, ex53_op, ab):
        h = Gamble(ab, [0.3, -0.7])
        for x, want in zip(ab, ex53_op.apply(h).values):
            assert ex53_chain.conditional_upper(2, x, 3, h) == pytest.approx(want)

    def test_two_step_hand_value(self, ex53_chain, ab):
        got = ex53_chain.conditional_upper(1, "a", 3, ab.indicator(["a"]))
        assert got == pytest.approx(0.77995)

    def test_constant(self, ex53_chain, ab):
        assert ex53_chain.conditional_upper(1, "b", 5, Gamble(ab, [-1.5, -1.5])) == pytest.approx(-1.5)

    def test_index_validation(self, ex53_chain, ab):
        with pytest.raises(ValueError):
            ex53_chain.conditional_upper(3, "a", 3, ab.indicator(["a"]))

    def test_lower_is_conjugate_of_upper(self, ex53_chain, ab):
        h = Gamble(ab, [0.7, -0.4])
        lo = ex53_chain.conditional_lower(2, "b", 6, h)
        assert lo == -ex53_chain.conditional_upper(2, "b", 6, -h)
        assert lo < ex53_chain.conditional_upper(2, "b", 6, h)

    def test_precise_chain_lower_equals_upper(self, ab):
        chain = ImpreciseMarkovChain(
            Linear(MassFunction(ab, [0.3, 0.7])),
            UpperTransitionOperator.from_matrix(ab, [[0.6, 0.4], [0.2, 0.8]]),
            3,
        )
        ind = ab.indicator(["a"])
        # P(X3 = a | X1 = a) = 0.6 * 0.6 + 0.4 * 0.2
        assert chain.conditional_lower(1, "a", 3, ind) == pytest.approx(0.44)
        assert chain.conditional_upper(1, "a", 3, ind) == pytest.approx(0.44)


class TestPathGamble:
    def test_measurability_checked(self, ex53_initial, ex53_op, ab):
        chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 2)
        table = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            chain.markov_invariance_gap(2, PathGamble(ab, 2, table))
        # Constant along time 2: {1}-measurable, so any n is accepted at 1.
        f = PathGamble(ab, 2, np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert chain.markov_invariance_gap(1, f) == 0.0
        with pytest.raises(ValueError):
            chain.markov_invariance_gap(2, f)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_refused(self, ab, bad):
        with pytest.raises(ValueError, match="finite"):
            PathGamble(ab, 2, [[bad, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize(
        ("values", "bad"),
        [
            ([["0.5", 0.0], [0.0, 0.0]], "'0.5'"),
            ([[True, 0.0], [0.0, 0.0]], "True"),
            (np.array([[True, False], [False, True]]), "True"),
        ],
    )
    def test_strings_and_bools_refused(self, ab, values, bad):
        with pytest.raises(TypeError, match=f"^path gamble values must be numbers, got {bad}$"):
            PathGamble(ab, 2, values)

    @pytest.mark.parametrize("horizon", [True, False, 1.9, 2.0, 0, -1, "2", None])
    def test_horizon_must_be_a_positive_integer(self, ab, horizon):
        with pytest.raises(ValueError, match=_horizon_refusal(horizon)):
            PathGamble(ab, horizon, np.zeros((2, 2)))

    def test_path_indicator_checks_the_horizon_first(self, ab):
        with pytest.raises(ValueError, match=_horizon_refusal(2.0)):
            PathGamble.path_indicator(ab, 2.0, ["a", "b"])

    def test_numpy_integer_horizon_accepted(self, ab):
        f = PathGamble(ab, np.int64(2), np.zeros((2, 2)))
        assert f.horizon == 2 and type(f.horizon) is int

    def test_from_gamble_round_trip(self, ab):
        h = Gamble(ab, [2.0, -1.0])
        f = PathGamble.from_gamble(h, 2, 3)
        assert f.values[0, 1, 0] == -1.0
        assert f.values[1, 1, 1] == -1.0
        assert np.ptp(f.values, axis=0).max() == 0.0
        assert np.ptp(f.values, axis=2).max() == 0.0


class TestJoint:
    def test_measurability_reduction(self, ex53_initial, ex53_op, ab):
        chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 3)
        rng = np.random.default_rng(41)
        for n in (1, 2, 3):
            h = random_gamble(rng, ab)
            f = PathGamble.from_gamble(h, n, 3)
            assert chain.joint_upper(f) == pytest.approx(
                chain.marginal_upper(n, h), abs=1e-12
            )

    def test_path_indicator_hand_value(self, ex53_initial, ex53_op, ab):
        chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 2)
        f = PathGamble.path_indicator(ab, 2, ["a", "a"])
        assert chain.joint_upper(f) == pytest.approx(0.2115)

    def test_precise_chain_matches_oracle(self, ab):
        rng = np.random.default_rng(43)
        q = rng.dirichlet(np.ones(2), size=2)
        m1 = rng.dirichlet(np.ones(2))
        chain = ImpreciseMarkovChain(
            Linear(MassFunction(ab, m1)),
            UpperTransitionOperator.from_matrix(ab, q),
            3,
        )
        f = PathGamble(ab, 3, rng.uniform(-1, 1, size=(2, 2, 2)))
        (lo,), (up,), _, _ = envelope(chain, [f])
        assert lo == pytest.approx(up, abs=1e-12)
        assert chain.joint_upper(f) == pytest.approx(up, abs=1e-12)

    @pytest.mark.parametrize("labels", [["x", "y"], ["a", "b", "c"]], ids=["xy", "abc"])
    def test_path_gamble_on_another_space_refused(self, ex53_initial, ex53_op, labels):
        # An unchecked ['x', 'y'] table would fold as if it were on the
        # chain's space, and a 3-state one would fail inside numpy.
        chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 3)
        other = StateSpace(labels)
        f = PathGamble(other, 3, np.arange(len(other) ** 3).reshape((len(other),) * 3) / 8.0)
        for query in (
            lambda: chain.joint_upper(f),
            lambda: chain.joint_lower(f),
            lambda: chain.joint_upper_many([PathGamble.path_indicator(chain.space, 3, "aab"), f]),
            lambda: chain.joint_upper_given(["a"], f),
            lambda: chain.markov_invariance_gap(1, f),
        ):
            with pytest.raises(DimensionMismatch, match="state spaces differ"):
                query()

    def test_no_path_gamble_is_refused(self, ex53_chain):
        with pytest.raises(ValueError, match="^joint_upper_many needs at least one path gamble$"):
            ex53_chain.joint_upper_many([])

    def test_horizon_mismatch(self, ex53_chain, ab):
        f = PathGamble.path_indicator(ab, 2, ["a", "a"])
        with pytest.raises(Exception):
            ex53_chain.joint_upper(f)


class TestMarkovCondition:
    def test_precise_chain_gap_zero(self, ab):
        chain = ImpreciseMarkovChain(
            Linear(MassFunction(ab, [0.3, 0.7])),
            UpperTransitionOperator.from_matrix(ab, [[0.6, 0.4], [0.2, 0.8]]),
            3,
        )
        f = PathGamble.from_gamble(ab.indicator(["a"]), 3, 3)
        assert chain.markov_invariance_gap(3, f) <= 1e-12

    def test_example_chain_final_step(self, ex53_initial, ex53_op, ab):
        chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 3)
        f = PathGamble.from_gamble(ab.indicator(["a"]), 3, 3)
        assert chain.markov_invariance_gap(3, f) <= 1e-12
        # conditional value given any history ending in a is one T-step
        assert chain.joint_upper_given(("b", "a"), f) == pytest.approx(0.235)
        assert chain.joint_upper_given(("a", "a"), f) == pytest.approx(0.235)

    def test_random_small_chains(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            chain = random_small_chain(rng)
            N = chain.horizon
            for n in range(2, N + 1):
                table = rng.uniform(-1, 1, size=(len(chain.space),) * (N - n + 1))
                shape = (1,) * (n - 1) + table.shape
                full = np.broadcast_to(
                    table.reshape(shape), (len(chain.space),) * N
                )
                f = PathGamble(chain.space, N, full)
                assert chain.markov_invariance_gap(n, f) <= 1e-12

    def test_measurability_enforced(self, ex53_initial, ex53_op, ab):
        chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 3)
        f = PathGamble.from_gamble(ab.indicator(["a"]), 1, 3)
        with pytest.raises(ValueError):
            chain.markov_invariance_gap(2, f)

    @pytest.mark.parametrize("n", [0, 4, 7])
    def test_time_out_of_range(self, ex53_initial, ex53_op, ab, n):
        chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 3)
        f = PathGamble(ab, 3, np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="out of range"):
            chain.markov_invariance_gap(n, f)


class TestPathMassBounds:
    def test_length_one(self, ex53_chain):
        lo, up = ex53_chain.path_mass_bounds(1)
        assert lo.shape == up.shape == (2,)
        assert (lo[0], up[0]) == pytest.approx((0.6, 0.9))

    def test_two_step_product(self, ex53_initial, ex53_op, ab):
        chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 2)
        lo, up = chain.path_mass_bounds(2)
        assert up[0, 0] == pytest.approx(0.2115)
        assert lo[0, 0] == pytest.approx(0.6 * 0.135)

    def test_consistency_with_joint(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            chain = random_small_chain(rng)
            space = chain.space
            for m in range(1, chain.horizon + 1):
                lo_table, up_table = chain.path_mass_bounds(m)
                for idx in np.ndindex(*(len(space),) * m):
                    lo, up = lo_table[idx], up_table[idx]
                    table = np.zeros((len(space),) * chain.horizon)
                    sl = tuple(idx) + (slice(None),) * (chain.horizon - m)
                    table[sl] = 1.0
                    f = PathGamble(space, chain.horizon, table)
                    assert up == pytest.approx(chain.joint_upper(f), abs=1e-12)
                    assert lo == pytest.approx(chain.joint_lower(f), abs=1e-12)

    def test_per_step_chain_matches_joint_and_oracle(self):
        rng = np.random.default_rng(59)
        horizons = set()
        for _ in range(10):
            chain = random_small_chain(rng, max_assignments=600, stationary=False)
            s, N = len(chain.space), chain.horizon
            horizons.add(N)
            zero = PathGamble(chain.space, N, np.zeros((s,) * N))
            _, _, mass_lo, mass_up = envelope(chain, [zero])
            lo_table, up_table = chain.path_mass_bounds(N)
            for idx in np.ndindex(*(s,) * N):
                path = [chain.space.labels[i] for i in idx]
                f = PathGamble.path_indicator(chain.space, N, path)
                lo, up = lo_table[idx], up_table[idx]
                assert up == pytest.approx(chain.joint_upper(f), abs=1e-12)
                assert lo == pytest.approx(chain.joint_lower(f), abs=1e-12)
                assert up == pytest.approx(mass_up[idx], abs=1e-12)
                assert lo == pytest.approx(mass_lo[idx], abs=1e-12)
        assert 3 in horizons  # some chains take two distinct step operators

    def test_conditional_form(self, ex53_initial, ex53_op, ab):
        chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 3)
        f = PathGamble.path_indicator(ab, 3, ["a", "a", "a"])
        up = chain.joint_upper_given(("a",), f)
        lo = chain.joint_lower_given(("a",), f)
        assert up == pytest.approx(0.235 * 0.235)
        assert lo == pytest.approx(0.135 * 0.135)

    @pytest.mark.parametrize("stationary", [True, False])
    def test_tables_equal_left_to_right_products(self, stationary):
        """Every entry is, bit for bit, the product `joint` printed before
        the tables were broadcast: initial singleton bound first, then the
        one-step entries in time order."""
        rng = np.random.default_rng(61 if stationary else 67)
        for _ in range(10):
            chain = random_small_chain(rng, stationary=stationary)
            space = chain.space
            for m in range(1, chain.horizon + 1):
                lo_table, up_table = chain.path_mass_bounds(m)
                assert lo_table.shape == up_table.shape == (len(space),) * m
                for idx in np.ndindex(*(len(space),) * m):
                    first = space.indicator([space.labels[idx[0]]])
                    lo, up = chain.initial.lower(first), chain.initial.upper(first)
                    for k in range(1, m):
                        lower, upper = chain.operator_at(k)._mass_bounds
                        up = up * upper[idx[k - 1], idx[k]]
                        lo = lo * lower[idx[k - 1], idx[k]]
                    assert up_table[idx] == up
                    assert lo_table[idx] == lo

    def test_path_guard(self, ex53_chain):
        t0 = time.perf_counter()
        with pytest.raises(SizeGuardError, match=r"2\^13 paths exceed the guard of 4096"):
            ex53_chain.path_mass_bounds(13)
        assert time.perf_counter() - t0 < 1.0
        lo, up = ex53_chain.path_mass_bounds(12)
        assert lo.shape == up.shape == (2,) * 12


def test_non_stationary_chain_accepts_per_step_operators(ab):
    op1 = UpperTransitionOperator.from_matrix(ab, [[1.0, 0.0], [0.0, 1.0]])
    op2 = UpperTransitionOperator.from_matrix(ab, [[0.0, 1.0], [1.0, 0.0]])
    chain = ImpreciseMarkovChain(
        Linear(MassFunction(ab, [1.0, 0.0])), [op1, op2], 3
    )
    ind = ab.indicator(["a"])
    assert chain.marginal_upper(2, ind) == pytest.approx(1.0)
    assert chain.marginal_upper(3, ind) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        ImpreciseMarkovChain(Linear(MassFunction(ab, [1.0, 0.0])), [op1], 3)


@pytest.mark.parametrize("horizon", [True, False, 2.9, 3.0, 0, -2, "3", None])
def test_chain_horizon_must_be_a_positive_integer(ex53_initial, ex53_op, horizon):
    # No value is truncated or read as a number: 2.9 is not 2, True not 1.
    with pytest.raises(ValueError, match=_horizon_refusal(horizon)):
        ImpreciseMarkovChain(ex53_initial, ex53_op, horizon)


def test_chain_horizon_takes_numpy_integers(ex53_initial, ex53_op):
    chain = ImpreciseMarkovChain(ex53_initial, ex53_op, np.int32(4))
    assert chain.horizon == 4 and type(chain.horizon) is int


# Each query on a horizon-3 chain, with the name and range of its index.
_TIME_QUERIES = {
    "operator_at": (lambda chain, h, t: chain.operator_at(t), "step index", 1, 2),
    "marginal_upper": (lambda chain, h, t: chain.marginal_upper(t, h), "time", 1, 3),
    "conditional_upper_ell": (
        lambda chain, h, t: chain.conditional_upper(t, "a", 3, h), "time", 1, 2
    ),
    "conditional_upper_n": (
        lambda chain, h, t: chain.conditional_upper(1, "a", t, h), "time", 2, 3
    ),
    "markov_invariance_gap": (
        lambda chain, h, t: chain.markov_invariance_gap(
            t, PathGamble(AB, 3, np.broadcast_to(np.arange(4.0).reshape(1, 2, 2), (2, 2, 2)))
        ),
        "time",
        1,
        3,
    ),
    "path_mass_bounds": (lambda chain, h, t: chain.path_mass_bounds(t), "path length", 1, 3),
    "from_gamble": (lambda chain, h, t: PathGamble.from_gamble(h, t, 3).values, "time", 1, 3),
    "count_assignments": (lambda chain, h, t: count_assignments(chain, t), "horizon", 1, 3),
}


@pytest.mark.parametrize("query", _TIME_QUERIES.values(), ids=_TIME_QUERIES.keys())
@pytest.mark.parametrize(
    "t",
    [True, 2.5, 3.0, np.int64(2), *(pytest.param(side, id=side) for side in ("below", "above"))],
    ids=repr,
)
def test_time_indices_follow_the_horizon_rule(ex53_initial, ex53_op, ab, query, t):
    # No time is truncated or read as a number: True is not 1, 3.0 not 3;
    # a numpy integer answers as the int it holds; the ints just below and
    # just above the query's range are refused with the range named.
    query, name, low, high = query
    chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 3)
    h = Gamble(ab, [0.3, -1.2])
    if isinstance(t, np.integer):
        got, want = query(chain, h, t), query(chain, h, 2)
        if isinstance(want, tuple):
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
        else:
            assert got is want or np.array_equal(got, want)
        return
    if isinstance(t, str):
        t = low - 1 if t == "below" else high + 1
        message = f"{name} {t} out of range [{low}, {high}]"
    else:
        message = f"{name} must be an integer, got {t!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        query(chain, h, t)


def test_gamble_count_does_not_grow_with_n(ex53_initial, ex53_op, ab, monkeypatch):
    """Gambles are built at the boundary only, never per backward step."""
    built = []
    init = Gamble.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 40)
    ind = ab.indicator(["a"])
    monkeypatch.setattr(Gamble, "__init__", counted)
    counts = []
    for n in (2, 40):
        built.clear()
        chain.marginal_lower(n, ind)
        chain.marginal_upper(n, ind)
        counts.append(len(built))
    assert counts[0] == counts[1]
    for length in (2, 12):
        built.clear()
        chain.path_mass_bounds(length)
        assert built == []
