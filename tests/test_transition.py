import numpy as np
import pytest

from credalmc import (
    DimensionMismatch,
    Gamble,
    ImpreciseMarkovChain,
    Linear,
    MassFunction,
    ProbInterval,
    StateSpace,
    UpperTransitionOperator,
)
from credalmc import credal, transition
from credalmc.cli import load_bundled
from credalmc.credal import CHUNK_CELLS, _step
from helpers import (
    FAMILIES,
    ROW_KINDS,
    planned_class,
    random_any_model,
    random_gamble,
    random_prob_interval,
    random_row,
    run_kernel,
    six_family_chain,
)

AB = StateSpace(["a", "b"])


def test_apply_precise_rows(ex53_precise_op, ab):
    out = ex53_precise_op.apply(ab.indicator(["a"]))
    assert list(out.values) == pytest.approx([0.15, 0.85])


def test_apply_contamination_rows(ex53_op, ab):
    out = ex53_op.apply(ab.indicator(["a"]))
    assert list(out.values) == pytest.approx([0.235, 0.865])


def test_apply_interval_rows(ex54_op, abc):
    out = ex54_op.apply(Gamble(abc, [1.0, 0.5, 0.0]))
    assert out.values[1] == pytest.approx(0.84)


def test_apply_lower_contamination(ex53_op, ab):
    out = ex53_op.apply_lower(ab.indicator(["a"]))
    assert list(out.values) == pytest.approx([0.135, 0.765])


def test_apply_lower_equals_apply_for_precise(ex53_precise_op, ab):
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = random_gamble(rng, ab)
        up = ex53_precise_op.apply(h)
        lo = ex53_precise_op.apply_lower(h)
        assert np.abs(up.values - lo.values).max() <= 1e-14


def test_apply_lower_constant(ex53_op, ab):
    c = Gamble(ab, [3.25, 3.25])
    assert list(ex53_op.apply_lower(c).values) == pytest.approx([3.25, 3.25])


def test_power_two_cycle(cycle_op, ab):
    rng = np.random.default_rng(5)
    for _ in range(5):
        h = random_gamble(rng, ab)
        assert np.abs(cycle_op.apply(cycle_op.apply(h)).values - h.values).max() <= 1e-14


def test_power_example_matrix(ex53_precise_op, ab):
    out = ex53_precise_op.apply(ex53_precise_op.apply(ab.indicator(["a"])))
    assert list(out.values) == pytest.approx(
        [0.5 + 0.5 * 0.49, 0.5 - 0.5 * 0.49]
    )


def test_regular_contamination_found_at_one(ex53_op):
    assert ex53_op.is_regular() == 1


def test_cycle_not_regular(cycle_op):
    assert cycle_op.is_regular() is None


def test_wielandt_matrix_is_found_at_the_bound():
    # Wielandt's matrix on s states is regular at exactly (s - 1)**2 + 1.
    space = StateSpace(list("abcd"))
    M = np.zeros((4, 4))
    M[[0, 1, 2], [1, 2, 3]] = 1.0
    M[3, [0, 1]] = 0.5
    op = UpperTransitionOperator.from_matrix(space, M)
    assert op.wielandt_bound() == 10
    assert op.is_regular() == 10


def test_regularity_is_decided_on_the_support():
    # The iterates' minimum T^2 I_b(b) is 1e-13: positive, so regular at 2.
    op = UpperTransitionOperator.from_matrix(AB, [[1 - 1e-13, 1e-13], [1.0, 0.0]])
    assert op.is_regular() == 2


def test_interval_operator_regular(ex54_op):
    n = ex54_op.is_regular()
    assert n is not None and n <= 9


def test_wielandt_bound():
    assert UpperTransitionOperator.from_matrix(AB, [[0.5, 0.5], [0.5, 0.5]]).wielandt_bound() == 2


def test_row_count_checked(ab):
    with pytest.raises(DimensionMismatch):
        UpperTransitionOperator(ab, [Linear(MassFunction(ab, [1.0, 0.0]))])


def _random_operators(seed=23, count=25):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        space = StateSpace(["a", "b", "c"][: rng.integers(2, 4)])
        rows = [random_any_model(rng, space) for _ in space.labels]
        ops.append(UpperTransitionOperator(space, rows))
    return ops


@pytest.mark.parametrize("op", _random_operators())
def test_nonexpansive_monotone_constant(op):
    rng = np.random.default_rng(29)
    for _ in range(5):
        g = random_gamble(rng, op.space)
        h = random_gamble(rng, op.space)
        moved = np.abs(op.apply(g).values - op.apply(h).values).max()
        assert moved <= np.abs(g.values - h.values).max() + 1e-12
        low = Gamble(op.space, np.minimum(g.values, h.values))
        assert np.all(op.apply(low).values <= op.apply(g).values + 1e-12)
        assert np.all(op.apply_lower(h).values <= op.apply(h).values + 1e-12)
    c = rng.uniform(-5, 5)
    out = op.apply(Gamble(op.space, np.full(len(op.space), c)))
    assert np.abs(out.values - c).max() <= 1e-12


def test_precise_apply_matches_matrix_product():
    rng = np.random.default_rng(31)
    for _ in range(10):
        q = rng.dirichlet(np.ones(3), size=3)
        space = StateSpace(["a", "b", "c"])
        op = UpperTransitionOperator.from_matrix(space, q)
        h = random_gamble(rng, space)
        assert np.abs(op.apply(h).values - q @ h.values).max() <= 1e-12


def _scatter(op, H):
    """One step as separate results scattered to their states:
    `out[idx] = kernel(params, H)` per planned kernel (`planned_class`),
    in fresh arrays."""
    groups = {}
    for i, row in enumerate(op.rows):
        groups.setdefault(planned_class(row), []).append(i)
    out = np.empty((len(op.rows), H.shape[1]))
    for cls, idx in groups.items():
        out[idx] = run_kernel(cls, cls.stack([op.rows[i] for i in idx]), H, len(idx))
    return out


@pytest.mark.parametrize("s", [2, 3, 8, 24, 48])
@pytest.mark.parametrize("family", ["mixed", *ROW_KINDS])
def test_row_block_plan_equals_the_scatter(family, s):
    rng = np.random.default_rng([s, len(family)])
    space = StateSpace([f"x{i}" for i in range(s)])
    for _ in range(2):
        if family == "mixed":
            # Every family appears once s >= 6, in shuffled state order.
            families = rng.permutation(np.resize(FAMILIES, s))
        else:
            families = [family] * s
        rows = [random_row(rng, space, f, 5) for f in families]
        op = UpperTransitionOperator(space, rows)
        blocks, inverse, _ = op._plan
        assert len(blocks) == len(set(families))
        if family != "mixed":
            assert inverse is None
        for k in (1, 2, 7, 64):
            H = rng.uniform(-1.0, 1.0, size=(s, k))
            H[:, -1] = np.round(H[:, -1])  # ties
            want = _scatter(op, H)
            assert np.array_equal(_step(op._plan, H), want), k
            assert np.array_equal(op.apply_many(H), want), k
        assert np.array_equal(op.apply(Gamble(space, H[:, 0])).values, want[:, 0])


def _refuse(*args):
    raise AssertionError("a plan enumerated points it must not")


@pytest.mark.parametrize("s", [2, 3, 4, 5, 48])
def test_interval_rows_are_lowered_on_at_most_four_states(s, monkeypatch):
    # Up to GREEDY_STATES states the interval rows form one block of greedy
    # allocations, built without `vertices()`; from five states on they
    # keep the family block and enumerate nothing.  Other rows keep their
    # own blocks either way.
    monkeypatch.setattr(ProbInterval, "vertices", _refuse)
    if s > credal.GREEDY_STATES:
        monkeypatch.setattr(ProbInterval, "_greedy_points", _refuse)
    rng = np.random.default_rng(s)
    space = StateSpace([f"x{i}" for i in range(s)])
    rows = [random_prob_interval(rng, space) for _ in range(s - 1)]
    rows.insert(1, random_row(rng, space, "vertices", 1))
    op = UpperTransitionOperator(space, rows)
    lowered = s <= credal.GREEDY_STATES
    kernels = [kernel for kernel, _, _ in op._plan[0]]
    interval = credal.VertexSet.kernel if lowered else ProbInterval.kernel
    assert kernels == [interval, credal.VertexSet.kernel]
    H = rng.uniform(-1.0, 1.0, size=(s, 3))
    assert np.array_equal(op.apply_many(H), _scatter(op, H))
    # A model's own one-row plan keeps the family kernel.
    (kernel, _, _), = rows[0]._plan[0]
    assert kernel is ProbInterval.kernel


def test_interval_rows_whose_lower_bounds_sum_above_one_keep_the_family_kernel():
    # Lower bounds summing to 1 + 3e-10 leave a negative slack, which the
    # interval kernel hands to the best state; no set of points has that
    # upper expectation, so the row is not lowered and keeps its bits.
    space = StateSpace(["a", "b", "c"])
    over = ProbInterval(space, [0.2, 0.3, 0.5 + 3e-10], [0.2 + 1e-10, 0.3 + 1e-10, 0.5 + 4e-10])
    assert over.lower_mass.sum() > 1.0
    rows = [random_prob_interval(np.random.default_rng(1), space), over, over]
    op = UpperTransitionOperator(space, rows)
    blocks, inverse, _ = op._plan
    assert [kernel for kernel, _, _ in blocks] == [credal.VertexSet.kernel, ProbInterval.kernel]
    assert inverse is None
    H = np.array([[1.0, -1.0], [0.0, 0.5], [-0.5, 0.0]])
    got = op.apply_many(H)
    assert np.array_equal(got[1:], run_kernel(ProbInterval, ProbInterval.stack([over] * 2), H, 2))


def test_is_regular_steps_once_on_the_indicators(monkeypatch):
    # The support U of T I_y(x) takes one step on the s indicators, not
    # the 2s columns of the cached `_mass_bounds`.
    calls = []

    def counted(plan, H, out=None):
        calls.append(H.shape)
        return _step(plan, H, out)

    op = load_bundled("example_5_4").transitions
    monkeypatch.setattr(transition, "_step", counted)
    assert op.is_regular() is not None
    assert calls == [(3, 3)]
    assert "_mass_bounds" not in vars(op)


def _chained(op, H, n):
    """[H, T H, ..., T^(n-1) H] side by side, from n - 1 chained
    `apply_many` calls."""
    blocks = [H]
    for _ in range(n - 1):
        blocks.append(op.apply_many(blocks[-1]))
    return np.concatenate(blocks, axis=1)


def _closed(chain, H):
    """The initial model's `upper_many` of the chained table, as
    (horizon, k): the reference for `marginal_upper_table`."""
    table = _chained(chain.transitions, H, chain.horizon)
    return chain.initial.upper_many(table).reshape(chain.horizon, -1)


def _sweep_cases():
    rng = np.random.default_rng(311)
    mixed = six_family_chain(5, 30, s=8)
    ex54 = load_bundled("example_5_4")
    single = ImpreciseMarkovChain(ex54.initial, ex54.transitions, 30)
    s = 200
    space = StateSpace([f"x{i}" for i in range(s)])
    op = UpperTransitionOperator(space, [random_prob_interval(rng, space) for _ in range(s)])
    wide = ImpreciseMarkovChain(random_prob_interval(rng, space), op, 3)
    return [
        pytest.param(mixed, rng.uniform(-1, 1, size=(8, 5)), id="six-family"),
        pytest.param(single, rng.uniform(-1, 1, size=(3, 4)), id="single-family"),
        pytest.param(mixed, rng.uniform(-1, 1, size=(8, 1)), id="k=1"),
        pytest.param(wide, rng.uniform(-1, 1, size=(s, 400)), id="chunked"),
    ]


# The stationary marginal sweep, `ImpreciseMarkovChain.marginal_upper_table`,
# steps through this operator's plan; its table is pinned here against
# chained `apply_many` calls closed with the initial model.
@pytest.mark.parametrize("chain, H", _sweep_cases())
def test_iterates_equal_chained_apply_many(chain, H, monkeypatch):
    # The six-family rows are out of family order, so the plan has an
    # inverse permutation; the 400 columns on 200 states exceed the
    # chunk width, so each step writes 16 chunks into its block, and the
    # close, one `upper_many` on all 1,200 columns, steps in 47 chunks.
    op, n = chain.transitions, chain.horizon
    blocks, inverse, _ = op._plan
    s, k = H.shape
    families = {type(row) for row in op.rows}
    assert (inverse is None) == (len(families) == 1)
    assert len(blocks) == len(families) in (1, 6)
    chunks = [26] * 15 + [10] if s == 200 else []
    close = [26] * 46 + [4] if s == 200 else []
    assert (k > CHUNK_CELLS // s**2) == bool(chunks)
    widths = []
    inner = credal._step

    def chunk(plan, H, out=None):  # `_step` calls itself once per chunk
        widths.append(H.shape[1])
        return inner(plan, H, out)

    with monkeypatch.context() as m:
        m.setattr(credal, "_step", chunk)
        got = chain.marginal_upper_table(H)
    # The steps call `_step` through the chain module, so only their
    # chunks are recorded; the close calls it through `upper_many`.
    assert widths == chunks * (n - 1) + [n * k] + close
    assert got.shape == (n, k)
    assert np.array_equal(got, _closed(chain, H))


_STATIONARY = [
    "example_5_1",
    "example_5_2",
    "example_5_3",
    "example_5_3_n2",
    "example_5_3_precise",
    "example_5_4",
    "stationary_mixed8",
]


@pytest.mark.parametrize("name", _STATIONARY)
def test_iterates_equal_chained_apply_many_on_the_bundled_tables(name):
    # The batches `evolve --event a` and `credal-approx` sweep: each
    # indicator and its negation, at horizon 2,000.
    bundled = load_bundled(name)
    assert isinstance(bundled.transitions, UpperTransitionOperator)
    chain = ImpreciseMarkovChain(bundled.initial, bundled.transitions, 2000)
    first, *_ = singletons = [chain.space.indicator([x]) for x in chain.space]
    for indicators in ([first], singletons):
        H = np.stack([v for ind in indicators for v in (-ind.values, ind.values)], axis=1)
        assert np.array_equal(chain.marginal_upper_table(H), _closed(chain, H))


def test_iterates_check_their_arguments(ex54_op):
    ex54 = load_bundled("example_5_4")
    at_one = ImpreciseMarkovChain(ex54.initial, ex54_op, 1)
    want = ex54.initial.upper_many(np.eye(3))[None]
    assert np.array_equal(at_one.marginal_upper_table(np.eye(3)), want)
    with pytest.raises(DimensionMismatch):
        ImpreciseMarkovChain(ex54.initial, ex54_op, 3).marginal_upper_table(np.zeros((2, 4)))
