import itertools
import re
import time

import numpy as np
import pytest

from credalmc import (
    CredalModel,
    DimensionMismatch,
    ImpreciseMarkovChain,
    Linear,
    MassFunction,
    PathGamble,
    SizeGuardError,
    StateSpace,
    TreeAssignment,
    UpperTransitionOperator,
    Vacuous,
    VertexSet,
    count_assignments,
    envelope,
    path_probabilities,
)
from credalmc import oracle
from credalmc.cli import load_bundled
from credalmc.oracle import ASSIGNMENT_GUARD
from helpers import random_any_model, random_mass, random_small_chain

AB = StateSpace(["a", "b"])


def _chain_with_two_vertices(horizon, ex53_initial, ex53_op):
    return ImpreciseMarkovChain(ex53_initial, ex53_op, horizon)


def _tree_expectation(chain, assignment, f):
    return float(np.sum(path_probabilities(chain, assignment, f.horizon) * f.values))


def _envelope(chain, f, **kw):
    lo, up, _, _ = envelope(chain, [f], **kw)
    return float(lo[0]), float(up[0])


class TestCountAssignments:
    def test_two_state_two_step(self, ex53_initial, ex53_op):
        chain = _chain_with_two_vertices(2, ex53_initial, ex53_op)
        assert count_assignments(chain, 2) == 8

    def test_horizon_one_counts_initial_only(self, ex53_initial, ex53_op):
        chain = _chain_with_two_vertices(3, ex53_initial, ex53_op)
        assert count_assignments(chain, 1) == 2

    def test_two_state_three_step(self, ex53_initial, ex53_op):
        chain = _chain_with_two_vertices(3, ex53_initial, ex53_op)
        assert count_assignments(chain, 3) == 128

    def test_overflow_guard(self):
        space = StateSpace([f"s{i}" for i in range(4)])
        chain = ImpreciseMarkovChain(
            Vacuous(space),
            UpperTransitionOperator(space, [Vacuous(space)] * 4),
            8,
        )
        with pytest.raises(SizeGuardError):
            count_assignments(chain, 8)

    @staticmethod
    def _per_situation(chain, horizon):
        # Reference: one factor per situation, None past the guard.
        s = len(chain.space)
        total = len(chain.initial.vertices())
        for k in range(1, horizon):
            for idx in np.ndindex(*(s,) * k):
                total *= len(chain.operator_at(k).rows[idx[-1]].vertices())
                if total > ASSIGNMENT_GUARD:
                    return None
        return total

    @pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-step"])
    def test_matches_the_per_situation_product(self, stationary):
        rng = np.random.default_rng(151 + stationary)
        outcomes = set()
        for _ in range(60):
            s = int(rng.integers(2, 5))
            space = StateSpace(["a", "b", "c", "d"][:s])
            horizon = int(rng.integers(1, 8))

            def row():
                # Mostly single-vertex rows, so that some counts stay small.
                if rng.random() < 0.8:
                    return Linear(random_mass(rng, space))
                return random_any_model(rng, space)

            def op():
                return UpperTransitionOperator(space, [row() for _ in range(s)])

            transitions = op() if stationary else [op() for _ in range(horizon - 1)]
            chain = ImpreciseMarkovChain(row(), transitions, horizon)
            for n in range(1, horizon + 1):
                want = self._per_situation(chain, n)
                outcomes.add(want is None)
                if want is None:
                    with pytest.raises(SizeGuardError, match="tree assignments"):
                        count_assignments(chain, n)
                else:
                    assert count_assignments(chain, n) == want
        assert outcomes == {True, False}

    def test_precise_chain_at_horizon_40(self):
        precise = load_bundled("example_5_3_precise")
        chain = ImpreciseMarkovChain(precise.initial, precise.transitions, 40)
        t0 = time.perf_counter()
        assert count_assignments(chain, 40) == 1
        assert time.perf_counter() - t0 < 1.0

    def test_two_vertex_rows_at_horizon_40_hit_the_guard(self, ex53_initial, ex53_op):
        chain = _chain_with_two_vertices(40, ex53_initial, ex53_op)
        t0 = time.perf_counter()
        with pytest.raises(SizeGuardError, match=f"more than {ASSIGNMENT_GUARD} tree"):
            count_assignments(chain, 40)
        assert time.perf_counter() - t0 < 1.0


class TestTreeExpectation:
    def test_hand_product(self, ex53_initial, ex53_op, ab):
        chain = _chain_with_two_vertices(2, ex53_initial, ex53_op)
        assignment = TreeAssignment(
            MassFunction(ab, [0.9, 0.1]),
            {
                (0,): MassFunction(ab, [0.235, 0.765]),
                (1,): MassFunction(ab, [0.865, 0.135]),
            },
        )
        f = PathGamble.path_indicator(ab, 2, ["a", "a"])
        assert _tree_expectation(chain, assignment, f) == pytest.approx(0.2115)

    def test_constant_path_gamble(self, ex53_initial, ex53_op, ab):
        chain = _chain_with_two_vertices(2, ex53_initial, ex53_op)
        assignment = TreeAssignment(
            MassFunction(ab, [0.6, 0.4]),
            {
                (0,): MassFunction(ab, [0.235, 0.765]),
                (1,): MassFunction(ab, [0.865, 0.135]),
            },
        )
        f = PathGamble(ab, 2, np.full((2, 2), 3.5))
        assert _tree_expectation(chain, assignment, f) == pytest.approx(3.5)

    def test_incomplete_assignment_rejected(self, ex53_initial, ex53_op, ab):
        chain = _chain_with_two_vertices(2, ex53_initial, ex53_op)
        assignment = TreeAssignment(MassFunction(ab, [0.9, 0.1]), {})
        f = PathGamble.path_indicator(ab, 2, ["a", "a"])
        with pytest.raises(ValueError):
            _tree_expectation(chain, assignment, f)

    def test_matches_the_per_situation_loop(self):
        # Reference: the loop that filled the tensor one situation at a time.
        rng = np.random.default_rng(149)
        for _ in range(10):
            chain = random_small_chain(rng, max_assignments=600)
            s, N = len(chain.space), chain.horizon

            def pick(model):
                verts = model.vertices()
                return verts[int(rng.integers(len(verts)))]

            choices = {
                idx: pick(chain.operator_at(k).rows[idx[-1]])
                for k in range(1, N)
                for idx in np.ndindex(*(s,) * k)
            }
            assignment = TreeAssignment(pick(chain.initial), choices)
            want = np.array(assignment.initial_choice.weights)
            for _ in range(1, N):
                nxt = np.empty(want.shape + (s,))
                for idx in np.ndindex(*want.shape):
                    nxt[idx] = want[idx] * choices[idx].weights
                want = nxt
            got = path_probabilities(chain, assignment, N)
            np.testing.assert_array_equal(got, want)

    def test_prefix_gives_conditional_continuation(self, ex53_initial, ex53_op, ab):
        chain = _chain_with_two_vertices(3, ex53_initial, ex53_op)
        q = {(i,): MassFunction(ab, [0.235, 0.765]) for i in range(2)}
        q.update(
            {idx: MassFunction(ab, [0.865, 0.135]) for idx in np.ndindex(2, 2)}
        )
        assignment = TreeAssignment(MassFunction(ab, [0.9, 0.1]), q)
        given_b = path_probabilities(chain, assignment, 3, prefix=(1,))
        np.testing.assert_allclose(
            given_b, np.outer([0.235, 0.765], [0.865, 0.135]), rtol=0, atol=1e-15
        )
        joint = path_probabilities(chain, assignment, 3)
        np.testing.assert_allclose(joint[1] / 0.1, given_b, rtol=0, atol=1e-15)
        assert path_probabilities(chain, assignment, 3, prefix=(1, 0, 1)) == 1.0

    @pytest.mark.parametrize(
        ("horizon", "message"),
        [
            (2.5, "horizon must be an integer, got 2.5"),
            (True, "horizon must be an integer, got True"),
            (1, "horizon 1 out of range [2, 3]"),
            (4, "horizon 4 out of range [2, 3]"),
        ],
        ids=["float", "bool", "below-prefix", "above-chain"],
    )
    def test_horizon_follows_the_integer_rule(self, ex53_initial, ex53_op, ab, horizon, message):
        # A horizon shorter than the prefix or longer than the chain's has
        # no law to give; the range runs from the prefix's length up.
        chain = _chain_with_two_vertices(3, ex53_initial, ex53_op)
        q = {idx: MassFunction(ab, [0.5, 0.5]) for k in (1, 2) for idx in np.ndindex(*(2,) * k)}
        assignment = TreeAssignment(MassFunction(ab, [0.9, 0.1]), q)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            path_probabilities(chain, assignment, horizon, prefix=(1, 0))


class TestEnvelope:
    def test_example_path_indicator(self, ex53_initial, ex53_op, ab):
        chain = _chain_with_two_vertices(2, ex53_initial, ex53_op)
        f = PathGamble.path_indicator(ab, 2, ["a", "a"])
        lo, up = _envelope(chain, f)
        assert up == pytest.approx(0.2115)
        assert up == pytest.approx(chain.joint_upper(f), abs=1e-12)

    def test_vacuous_everywhere(self, ab):
        chain = ImpreciseMarkovChain(
            Vacuous(ab), UpperTransitionOperator(ab, [Vacuous(ab)] * 2), 2
        )
        rng = np.random.default_rng(101)
        f = PathGamble(ab, 2, rng.uniform(-1, 1, size=(2, 2)))
        lo, up = _envelope(chain, f)
        assert lo == pytest.approx(f.values.min())
        assert up == pytest.approx(f.values.max())

    def test_precise_chain_degenerate_envelope(self, ab):
        chain = ImpreciseMarkovChain(
            Linear(MassFunction(ab, [0.3, 0.7])),
            UpperTransitionOperator.from_matrix(ab, [[0.6, 0.4], [0.2, 0.8]]),
            2,
        )
        f = PathGamble(ab, 2, [[1.0, -2.0], [0.5, 0.0]])
        lo, up = _envelope(chain, f)
        assert lo == pytest.approx(up, abs=1e-14)

    def test_conjugacy(self, ex53_initial, ex53_op, ab):
        chain = _chain_with_two_vertices(2, ex53_initial, ex53_op)
        rng = np.random.default_rng(103)
        f = PathGamble(ab, 2, rng.uniform(-1, 1, size=(2, 2)))
        lo, up = _envelope(chain, f)
        neg_lo, neg_up = _envelope(chain, -f)
        assert lo == pytest.approx(-neg_up, abs=1e-14)
        assert up == pytest.approx(-neg_lo, abs=1e-14)


    def test_full_length_prefix_returns_the_path_value(self, ex53_initial, ex53_op, ab):
        chain = _chain_with_two_vertices(3, ex53_initial, ex53_op)
        rng = np.random.default_rng(139)
        f = PathGamble(ab, 3, rng.uniform(-1, 1, size=(2, 2, 2)))
        lo, up, _, _ = envelope(chain, [f, -f], prefix=("b", "a", "b"))
        assert list(lo) == [f.values[1, 0, 1], -f.values[1, 0, 1]]
        assert list(up) == list(lo)

    def test_prefix_longer_than_the_horizon_rejected(self, ex53_initial, ex53_op, ab):
        chain = _chain_with_two_vertices(3, ex53_initial, ex53_op)
        f = PathGamble.path_indicator(ab, 2, ["a", "a"])
        with pytest.raises(ValueError, match=r"^prefix length 3 out of range \[0, 2\]$"):
            envelope(chain, [f], prefix=("a", "b", "a"))

    def test_empty_gamble_list_rejected(self, ex53_initial, ex53_op):
        chain = _chain_with_two_vertices(2, ex53_initial, ex53_op)
        with pytest.raises(ValueError):
            envelope(chain, [])

    def test_mixed_horizons_rejected(self, ex53_initial, ex53_op, ab):
        chain = _chain_with_two_vertices(3, ex53_initial, ex53_op)
        f2 = PathGamble.path_indicator(ab, 2, ["a", "a"])
        f3 = PathGamble.path_indicator(ab, 3, ["a", "a", "a"])
        with pytest.raises(ValueError):
            envelope(chain, [f2, f3])


class TestOracleEquivalence:
    def test_random_chains_joint(self):
        rng = np.random.default_rng(107)
        for _ in range(15):
            chain = random_small_chain(rng, max_assignments=600)
            s = len(chain.space)
            fs = [
                PathGamble(
                    chain.space,
                    chain.horizon,
                    rng.uniform(-1, 1, size=(s,) * chain.horizon),
                )
                for _ in range(2)
            ]
            for f, lo, up in zip(fs, *envelope(chain, fs)[:2]):
                assert chain.joint_upper(f) == pytest.approx(up, abs=1e-10)
                assert chain.joint_lower(f) == pytest.approx(lo, abs=1e-10)

    def test_random_chains_conditional(self):
        rng = np.random.default_rng(109)
        for _ in range(6):
            chain = random_small_chain(rng, max_assignments=200)
            s = len(chain.space)
            f = PathGamble(
                chain.space,
                chain.horizon,
                rng.uniform(-1, 1, size=(s,) * chain.horizon),
            )
            n = int(rng.integers(1, chain.horizon))
            prefix = tuple(
                chain.space.labels[i] for i in rng.integers(0, s, size=n)
            )
            lo, up = _envelope(chain, f, prefix=prefix)
            assert chain.joint_upper_given(prefix, f) == pytest.approx(up, abs=1e-10)
            assert chain.joint_lower_given(prefix, f) == pytest.approx(lo, abs=1e-10)

    def test_path_mass_envelope_matches_per_path(self, ex53_initial, ex53_op, ab):
        chain = _chain_with_two_vertices(2, ex53_initial, ex53_op)
        paths = [[ab.labels[i] for i in idx] for idx in np.ndindex(2, 2)]
        fs = [PathGamble.path_indicator(ab, 2, path) for path in paths]
        lo, up, _, _ = envelope(chain, fs)
        for f, l, u in zip(fs, lo, up):
            assert (l, u) == _envelope(chain, f)
        assert (lo[0], up[0]) == pytest.approx((0.081, 0.2115))
        # The mass tensors are the envelopes of the path indicators, bit for
        # bit, also given a history and over Markov trees only.
        chain = _chain_with_two_vertices(3, ex53_initial, ex53_op)
        for prefix in [(), ("b",)]:
            tails = [[ab.labels[i] for i in t] for t in np.ndindex(*(2,) * (3 - len(prefix)))]
            fs = [PathGamble.path_indicator(ab, 3, [*prefix, *t]) for t in tails]
            for markov_only in (False, True):
                lo, up, mass_lo, mass_up = envelope(
                    chain, fs, prefix=prefix, markov_only=markov_only
                )
                assert mass_lo.shape == mass_up.shape == (2,) * (3 - len(prefix))
                np.testing.assert_array_equal(mass_lo.ravel(), lo)
                np.testing.assert_array_equal(mass_up.ravel(), up)

    def test_interior_points_do_not_move_envelope(self, ex53_initial, ex53_op, ab):
        chain = _chain_with_two_vertices(2, ex53_initial, ex53_op)
        rng = np.random.default_rng(113)
        f = PathGamble(ab, 2, rng.uniform(-1, 1, size=(2, 2)))
        base = _envelope(chain, f)

        def pad(model):
            verts = model.vertices()
            mid = MassFunction(
                model.space, np.mean([v.weights for v in verts], axis=0)
            )
            return VertexSet(model.space, verts + [mid])

        padded = ImpreciseMarkovChain(
            pad(chain.initial),
            UpperTransitionOperator(ab, [pad(r) for r in chain.operator_at(1).rows]),
            2,
        )
        got = _envelope(padded, f)
        assert got[0] == pytest.approx(base[0], abs=1e-12)
        assert got[1] == pytest.approx(base[1], abs=1e-12)


def test_markov_restricted_envelope_is_inner():
    # The Markov (situation-independent) max can only be <= the full one.
    rng = np.random.default_rng(127)
    for _ in range(5):
        chain = random_small_chain(rng, max_assignments=300)
        s = len(chain.space)
        f = PathGamble(
            chain.space, chain.horizon, rng.uniform(-1, 1, size=(s,) * chain.horizon)
        )
        lo, up = _envelope(chain, f)
        mlo, mup = _envelope(chain, f, markov_only=True)
        assert mup <= up + 1e-12
        assert mlo >= lo - 1e-12


def _per_tree_envelope(chain, fs, prefix, markov_only):
    """Reference: one `TreeAssignment` per tree over every situation, in
    `itertools.product` order, and each tree's path tensor filled one
    situation at a time."""
    s, horizon = len(chain.space), fs[0].horizon
    idx = tuple(chain.space.index(x) for x in prefix)
    sits = [i for k in range(1, horizon) for i in np.ndindex(*(s,) * k)]
    if markov_only:
        keys = sorted({(len(i), i[-1]) for i in sits})
        options = [chain.operator_at(k).rows[x].vertices() for k, x in keys]
        trees = (
            TreeAssignment(init, {i: dict(zip(keys, picks))[len(i), i[-1]] for i in sits})
            for init in chain.initial.vertices()
            for picks in itertools.product(*options)
        )
    else:
        options = [chain.operator_at(len(i)).rows[i[-1]].vertices() for i in sits]
        trees = (
            TreeAssignment(init, dict(zip(sits, picks)))
            for init in chain.initial.vertices()
            for picks in itertools.product(*options)
        )
    tails = np.stack([f.values[idx] for f in fs]).reshape(len(fs), -1)
    lo = np.full(len(fs) + tails.shape[1], np.inf)
    up = -lo
    for a in trees:
        table = np.ones(()) if idx else np.array(a.initial_choice.weights)
        for _ in range(len(idx) + table.ndim, horizon):
            weights = [
                a.situation_choices[idx + j].weights for j in np.ndindex(*table.shape)
            ]
            table = table[..., None] * np.reshape(weights, table.shape + (s,))
        probs = table.reshape(-1)
        v = np.concatenate([(probs * tails).sum(axis=1), probs])
        np.minimum(lo, v, out=lo)
        np.maximum(up, v, out=up)
    return lo, up


@pytest.mark.parametrize("trees_per_block", [1, 7])
@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-step"])
def test_blocks_equal_the_per_tree_loop(monkeypatch, stationary, trees_per_block):
    # Block boundaries are bit-neutral: one tree per block, and blocks of
    # 7 trees that leave a shorter last block, give the reference's bits.
    rng = np.random.default_rng(157 + stationary)
    blocks = []
    inner = oracle._sum_product

    def recorded(table, steps):
        blocks[-1].append(len(table))
        return inner(table, steps)

    monkeypatch.setattr(oracle, "_sum_product", recorded)
    for _ in range(12):
        chain = random_small_chain(
            rng, max_horizon=4, max_assignments=600, stationary=stationary
        )
        s, horizon = len(chain.space), chain.horizon
        fs = [
            PathGamble(chain.space, horizon, rng.uniform(-1, 1, size=(s,) * horizon))
            for _ in range(int(rng.integers(1, 4)))
        ]
        for n in (0, int(rng.integers(1, horizon + 1))):
            prefix = tuple(chain.space.labels[i] for i in rng.integers(0, s, size=n))
            paths = s ** (horizon - n)
            monkeypatch.setattr(
                oracle, "BLOCK_CELLS", trees_per_block * (len(fs) + 1) * paths
            )
            for markov_only in (False, True):
                blocks.append([])
                lo, up, mass_lo, mass_up = envelope(chain, fs, prefix, markov_only)
                want_lo, want_up = _per_tree_envelope(chain, fs, prefix, markov_only)
                got_lo = np.concatenate([lo, mass_lo.ravel()])
                got_up = np.concatenate([up, mass_up.ravel()])
                assert np.array_equal(got_lo, want_lo)
                assert np.array_equal(got_up, want_up)
                assert all(b == trees_per_block for b in blocks[-1][:-1])
                assert 1 <= blocks[-1][-1] <= trees_per_block
    assert any(b[-1] < trees_per_block for b in blocks) == (trees_per_block > 1)


def test_envelope_calls_no_operator_or_kernel(monkeypatch):
    rng = np.random.default_rng(163)
    cases = []
    for stationary in (True, False):
        for j in range(4):
            chain = random_small_chain(rng, max_assignments=300, stationary=stationary)
            s, horizon = len(chain.space), chain.horizon
            f = PathGamble(chain.space, horizon, rng.uniform(-1, 1, size=(s,) * horizon))
            prefix = tuple(chain.space.labels[: j % 2])
            cases.append((chain, f, prefix, envelope(chain, [f], prefix)))

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the engine")

    monkeypatch.setattr(UpperTransitionOperator, "apply_many", refuse)
    monkeypatch.setattr(UpperTransitionOperator, "apply", refuse)
    monkeypatch.setattr(CredalModel, "upper_many", refuse)
    for family in [CredalModel, *CredalModel.__subclasses__()]:
        monkeypatch.setattr(family, "kernel", staticmethod(refuse))
    assert len(CredalModel.__subclasses__()) == 6
    for chain, f, prefix, want in cases:
        got = envelope(chain, [f], prefix)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        with pytest.raises(AssertionError, match="called the engine"):
            chain.joint_upper(f)


def test_repeated_envelopes_enumerate_each_model_once(monkeypatch):
    ex53 = load_bundled("example_5_3")
    chain = ImpreciseMarkovChain(ex53.initial, ex53.transitions, 3)
    models = [chain.initial, *chain.transitions.rows]
    calls = []
    for family in {type(m) for m in models}:
        inner = family.vertices

        def counted(self, _inner=inner):
            calls.append(self)
            return _inner(self)

        monkeypatch.setattr(family, "vertices", counted)
    rng = np.random.default_rng(263)
    for _ in range(5):
        f = PathGamble(chain.space, 3, rng.uniform(-1.0, 1.0, size=(2, 2, 2)))
        envelope(chain, [f])
    assert sorted(map(id, calls)) == sorted(map(id, models))
    for m in models:
        assert not m._vertex_array.flags.writeable
        assert np.array_equal(m._vertex_array, [v.weights for v in m.vertices()])


@pytest.mark.parametrize("labels", [["x", "y"], ["a", "b", "c"]], ids=["xy", "abc"])
def test_envelope_refuses_a_path_gamble_on_another_space(ex53_initial, ex53_op, labels):
    # An unchecked ['x', 'y'] table would be enumerated as if it were on
    # the chain's space, and a 3-state one would fail inside numpy.
    chain = ImpreciseMarkovChain(ex53_initial, ex53_op, 3)
    other = StateSpace(labels)
    f = PathGamble(other, 3, np.arange(len(other) ** 3).reshape((len(other),) * 3) / 8.0)
    ok = PathGamble(AB, 3, np.zeros((2, 2, 2)))
    for fs in ([f], [ok, f]):
        with pytest.raises(DimensionMismatch, match="state spaces differ"):
            envelope(chain, fs)
