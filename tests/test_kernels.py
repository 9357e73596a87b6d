"""Batched family kernels against independent references.

(a) `apply_many` against the per-row vertex envelope at small s, and
    the cached one-step mass tables against per-row indicator calls;
(b) the interval, belief and vertex-set kernels against a linear
    program at s = 3 and 4, and at s = 48 and 100, where vertices
    cannot be enumerated;
(c) the batched `is_regular`, joint fold and Markov-condition gap
    against unbatched per-row loops;
(d) the column-exact contract: a column's bits do not depend on the
    batch it is computed in, nor on how the batch is chunked, so a
    batched joint query prints what one fold per gamble prints.
"""

import functools
import operator

import numpy as np
import pytest

from credalmc import (
    BeliefFunction,
    DimensionMismatch,
    Event,
    Gamble,
    ImpreciseMarkovChain,
    Linear,
    PathGamble,
    ProbInterval,
    StateSpace,
    UpperTransitionOperator,
    Vacuous,
    VertexSet,
)
from credalmc import credal
from helpers import (
    FAMILIES,
    ROW_KINDS,
    planned_class,
    random_any_model,
    random_mass,
    random_model,
    random_prob_interval,
    random_row,
    run_kernel,
    six_family_chain,
)

LABELS = ["a", "b", "c", "d", "e"]


def _gamble_matrix(rng, s):
    """Columns: two random, a constant, two-level ties, an indicator, one low state."""
    cols = [
        rng.uniform(-1.0, 1.0, size=s),
        rng.uniform(-1.0, 1.0, size=s),
        np.full(s, rng.uniform(-2.0, 2.0)),
        rng.choice([0.0, 0.5], size=s),
        (np.arange(s) == rng.integers(s)).astype(float),
        np.where(np.arange(s) == 0, -1.0, 0.25),
    ]
    return np.stack(cols, axis=1)


def _envelope(model, H):
    W = np.array([v.weights for v in model.vertices()])
    return (W @ H).max(axis=0)


# ----------------------------------------------------------------------
# (a) apply_many equals the per-row vertex envelope


def _random_rows(rng, family):
    s = int(rng.integers(2, 6))
    space = StateSpace(LABELS[:s])
    if family == "mixed":
        return space, [random_any_model(rng, space) for _ in range(s)]
    return space, [random_model(rng, space, family) for _ in range(s)]


@pytest.mark.parametrize("family", FAMILIES + ("mixed",))
def test_apply_many_matches_vertex_envelope(family):
    rng = np.random.default_rng(len(family))
    for _ in range(15):
        space, rows = _random_rows(rng, family)
        s = len(space)
        op = UpperTransitionOperator(space, rows)
        H = _gamble_matrix(rng, s)
        got = op.apply_many(H)
        assert got.shape == H.shape
        for x, row in enumerate(rows):
            assert got[x] == pytest.approx(_envelope(row, H), abs=1e-12)
        # The single-gamble paths are columns of the batched result.
        lower = -op.apply_many(-H)
        for j in range(H.shape[1]):
            h = Gamble(space, H[:, j])
            assert op.apply(h).values == pytest.approx(got[:, j], abs=1e-15)
            assert op.apply_lower(h).values == pytest.approx(lower[:, j], abs=1e-15)
            assert [r.upper(h) for r in rows] == pytest.approx(got[:, j], abs=1e-15)


@pytest.mark.parametrize("family", FAMILIES + ("mixed",))
def test_mass_bounds_match_per_row_indicators(family):
    # A row that the operator's plan lowers to its greedy allocations has
    # the bits of its own greedy-point block, and lies within a few ulp of
    # the model's `upper`, which keeps the family kernel.
    rng = np.random.default_rng(len(family) + 1000)
    for _ in range(15):
        space, rows = _random_rows(rng, family)
        lower, upper = UpperTransitionOperator(space, rows)._mass_bounds
        for x, row in enumerate(rows):
            cls = planned_class(row)
            for y, ind in enumerate(np.eye(len(space))):
                H = np.stack([ind, -ind], axis=1)
                u, minus_l = run_kernel(cls, cls.stack([row]), H, 1)[0]
                assert (lower[x, y], upper[x, y]) == (-minus_l, u)
                own = row.upper_many(H)
                if cls is credal._Greedy:
                    assert np.abs([u, minus_l] - own).max() <= 4 * np.finfo(float).eps
                else:
                    assert (u, minus_l) == tuple(own)


def test_apply_many_checks_shape(ex54_op):
    with pytest.raises(DimensionMismatch):
        ex54_op.apply_many(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        ex54_op.apply_many(np.zeros((2, 4)))


@pytest.mark.parametrize("family", FAMILIES)
def test_upper_many_checks_shape(family):
    # A row too many would otherwise be read as a state, and a 1-D array
    # as one gamble column, without an error.
    space = StateSpace(LABELS[:2])
    model = random_model(np.random.default_rng(17), space, family)
    for H in (np.array([[1.0, 2.0], [3.0, 4.0], [9.0, 9.0]]), np.array([1.0, 2.0])):
        with pytest.raises(DimensionMismatch):
            model.upper_many(H)


# ----------------------------------------------------------------------
# (b) linear-programming oracle at sizes beyond vertex enumeration


def _lp_upper(c_obj, A_eq, b_eq, bounds):
    from scipy.optimize import linprog

    res = linprog(-c_obj, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def _lp_interval(m, h):
    s = len(h)
    return _lp_upper(
        h, np.ones((1, s)), [1.0], list(zip(m.lower_mass, m.upper_mass))
    )


def _lp_belief(m, h):
    # Variables a[j, x]: the share of focal mass j given to state x in F_j.
    idx = [(j, m.space.index(x)) for j, (ev, _) in enumerate(m.focal) for x in ev.members]
    A = np.zeros((len(m.focal), len(idx)))
    for col, (j, _) in enumerate(idx):
        A[j, col] = 1.0
    c = np.array([h[x] for _, x in idx])
    return _lp_upper(c, A, [w for _, w in m.focal], [(0, None)] * len(idx))


def _lp_vertices(m, h):
    # Variables: convex weights over the listed points.
    P = np.array([p.weights for p in m.points])
    k = len(P)
    return _lp_upper(P @ h, np.ones((1, k)), [1.0], [(0, None)] * k)


def _wide_interval(rng, space):
    s = len(space)
    if s <= 4:
        # Bounds drawn as below are often unreachable on so few states.
        return random_prob_interval(rng, space)
    centre = rng.dirichlet(np.ones(s))
    lo = centre * rng.uniform(0.0, 1.0, size=s)
    up = np.minimum(centre + rng.uniform(0.0, 2.0 / s, size=s), 1.0)
    return ProbInterval(space, lo, up)


def _wide_belief(rng, space):
    s = len(space)
    k = int(rng.integers(2, 6))
    focal = []
    for w in rng.dirichlet(np.ones(k)):
        members = [x for x in space.labels if rng.random() < 0.2] or [space.labels[0]]
        focal.append((Event(space, members), float(w)))
    return BeliefFunction(space, focal)


def _wide_vertices(rng, space):
    return VertexSet(space, [random_mass(rng, space) for _ in range(int(rng.integers(2, 8)))])


@pytest.mark.parametrize("s", [3, 4, 48, 100])
@pytest.mark.parametrize(
    "make,lp",
    [(_wide_interval, _lp_interval), (_wide_belief, _lp_belief), (_wide_vertices, _lp_vertices)],
    ids=["interval", "belief", "vertices"],
)
def test_kernel_matches_lp_oracle(s, make, lp):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(s)
    space = StateSpace([f"x{i}" for i in range(s)])
    rows = [make(rng, space) for _ in range(4)]
    H = rng.uniform(-1.0, 1.0, size=(s, 3))
    H[:, 2] = np.round(H[:, 2])  # heavy ties
    cls = type(rows[0])
    got = run_kernel(cls, cls.stack(rows), H, len(rows))
    for i, m in enumerate(rows):
        for j in range(H.shape[1]):
            assert got[i, j] == pytest.approx(lp(m, H[:, j]), abs=1e-9)


# ----------------------------------------------------------------------
# (c) batched queries against unbatched per-row loops


def _apply_ref(op, h):
    return Gamble(op.space, [row.upper(h) for row in op.rows])


def _is_regular_ref(op, n_max):
    iterates = [op.space.indicator([y]) for y in op.space]
    for n in range(1, n_max + 1):
        iterates = [_apply_ref(op, g) for g in iterates]
        if all(g.values.min() > 1e-12 for g in iterates):
            return n
    return None


def _fold_ref(chain, f, down_to):
    s = len(chain.space)
    table = f.values
    for k in range(chain.horizon - 1, down_to - 1, -1):
        op = chain.operator_at(k)
        new = np.empty((s,) * k)
        for idx in np.ndindex(*(s,) * k):
            new[idx] = op.rows[idx[-1]].upper(Gamble(chain.space, table[idx]))
        table = new
    return table


def _gap_ref(chain, n, f):
    if n == 1:
        return 0.0
    s = len(chain.space)
    table = _fold_ref(chain, f, n)
    gap = 0.0
    for x in range(s):
        values = [table[hist + (x,)] for hist in np.ndindex(*(s,) * (n - 1))]
        gap = max(gap, max(values) - min(values))
    return gap


def _random_chain(rng, stationary):
    s = int(rng.integers(2, 5))
    space = StateSpace(LABELS[:s])
    horizon = int(rng.integers(2, 5))

    def op():
        return UpperTransitionOperator(space, [random_any_model(rng, space) for _ in range(s)])

    transitions = op() if stationary else [op() for _ in range(horizon - 1)]
    return ImpreciseMarkovChain(random_any_model(rng, space), transitions, horizon)


def test_is_regular_matches_per_row_loop():
    rng = np.random.default_rng(211)
    verdicts = set()
    for _ in range(40):
        s = int(rng.integers(2, 6))
        space = StateSpace(LABELS[:s])
        rows = [random_any_model(rng, space) for _ in range(s)]
        # Some rows become a deterministic shift, so that some operators
        # are not regular.
        perm = rng.permutation(s)
        rows = [
            UpperTransitionOperator.from_matrix(space, np.eye(s)[perm]).rows[x]
            if rng.random() < 0.5 else row
            for x, row in enumerate(rows)
        ]
        op = UpperTransitionOperator(space, rows)
        got = op.is_regular()
        assert got == _is_regular_ref(op, op.wielandt_bound())
        verdicts.add(got is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-step"])
def test_joint_fold_matches_per_row_loop(stationary):
    rng = np.random.default_rng(223 + stationary)
    for _ in range(10):
        chain = _random_chain(rng, stationary)
        s, N = len(chain.space), chain.horizon
        f = PathGamble(chain.space, N, rng.uniform(-1.0, 1.0, size=(s,) * N))
        ref = chain.initial.upper(Gamble(chain.space, _fold_ref(chain, f, 1)))
        assert chain.joint_upper(f) == pytest.approx(ref, abs=1e-12)
        prefix = tuple(rng.choice(chain.space.labels, size=N - 1))
        idx = tuple(chain.space.index(x) for x in prefix)
        assert chain.joint_upper_given(prefix, f) == pytest.approx(
            _fold_ref(chain, f, N - 1)[idx], abs=1e-12
        )
        # Marginal and conditional queries are the same fold on a gamble.
        h = Gamble(chain.space, rng.uniform(-1.0, 1.0, size=s))
        for n in range(1, N + 1):
            lifted = PathGamble.from_gamble(h, n, N)
            assert chain.marginal_upper(n, h) == pytest.approx(
                chain.joint_upper(lifted), abs=1e-12
            )
            for ell in range(1, n):
                prefix = tuple(rng.choice(chain.space.labels, size=ell))
                assert chain.conditional_upper(ell, prefix[-1], n, h) == pytest.approx(
                    chain.joint_upper_given(prefix, lifted), abs=1e-12
                )
        # A full-length prefix folds over zero steps.
        path = tuple(rng.choice(chain.space.labels, size=N))
        idx = tuple(chain.space.index(x) for x in path)
        assert chain.joint_upper_given(path, f) == f.values[idx]


@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-step"])
def test_markov_invariance_gap_matches_per_row_loop(stationary):
    rng = np.random.default_rng(227 + stationary)
    for _ in range(10):
        chain = _random_chain(rng, stationary)
        s, N = len(chain.space), chain.horizon
        for n in range(1, N + 1):
            # The gap is defined only for tables that depend on times n..N.
            tail = rng.uniform(-1.0, 1.0, size=(s,) * (N - n + 1))
            table = np.broadcast_to(tail.reshape((1,) * (n - 1) + tail.shape), (s,) * N)
            f = PathGamble(chain.space, N, table)
            assert chain.markov_invariance_gap(n, f) == pytest.approx(
                _gap_ref(chain, n, f), abs=1e-12
            )


# ----------------------------------------------------------------------
# (d) column-exact kernels


def _contract_rows(rng, space, kind):
    """Five rows of one kind; belief rows carry nine focal elements."""
    return [random_row(rng, space, kind, 9) for _ in range(5)]


def _contract_matrix(rng, s, k):
    """k random columns, the structured ones of `_gamble_matrix` among them."""
    H = rng.uniform(-1.0, 1.0, size=(s, k))
    structured = np.concatenate([_gamble_matrix(rng, s), -np.eye(s)[:, :1]], axis=1)
    n = min(k - 1, structured.shape[1])
    H[:, 1 : 1 + n] = structured[:, :n]
    return H


def _plain_kernel(kind, rows, H):
    """Each family's formula as one whole-batch numpy expression, which
    sets the bits of a single-column call."""
    family = "belief" if kind.startswith("belief") else {"vertices4": "vertices"}.get(kind, kind)
    if family == "linear":
        return np.array([r.mass.weights for r in rows]) @ H
    if family == "vacuous":
        return np.repeat(H.max(axis=0)[None, :], len(rows), axis=0)
    if family == "vertices":
        P = np.array([p.weights for r in rows for p in r.points])
        starts = np.cumsum([0] + [len(r.points) for r in rows[:-1]])
        return np.maximum.reduceat(P @ H, starts, axis=0)
    if family == "contamination":
        B = np.array([r.base.weights for r in rows])
        eps = np.array([[r.epsilon] for r in rows])
        return (1.0 - eps) * (B @ H) + eps * H.max(axis=0)
    if family == "belief":
        masks = np.array([ev.mask() for r in rows for ev, _ in r.focal])
        w = np.array([[w] for r in rows for _, w in r.focal])
        starts = np.cumsum([0] + [len(r.focal) for r in rows[:-1]])
        focal_max = np.where(masks[:, :, None], H[None], -np.inf).max(axis=1)
        return np.add.reduceat(w * focal_max, starts, axis=0)
    L = np.array([r.lower_mass for r in rows])
    D = np.array([r.upper_mass for r in rows]) - L
    order = np.argsort(-H, axis=0)
    filled = np.minimum(np.cumsum(D[:, order], axis=1), (1.0 - L.sum(axis=1))[:, None, None])
    steps = H[order, np.arange(H.shape[1])]
    steps[:-1] -= steps[1:]
    return L @ H + (filled * steps).sum(axis=1)


@pytest.mark.parametrize("s", [2, 3, 4, 8, 24, 48])
@pytest.mark.parametrize("family", ROW_KINDS)
def test_kernels_are_column_exact(family, s):
    rng = np.random.default_rng([s, ROW_KINDS.index(family)])
    space = StateSpace([f"x{i}" for i in range(s)])
    rows = _contract_rows(rng, space, family)
    cls = type(rows[0])
    params = cls.stack(rows)
    for k in (1, 2, 7, 64):
        H = _contract_matrix(rng, s, k)
        got = run_kernel(cls, params, H, len(rows))
        assert got.shape == (len(rows), k)
        for j in range(k):
            one = run_kernel(cls, params, H[:, [j]], len(rows))
            assert np.array_equal(got[:, j], one[:, 0]), (k, j)
            # Nor does the stride of a single column, for one row or several.
            for m, p in [(len(rows), params), (1, cls.stack(rows[:1]))]:
                want = run_kernel(cls, p, H[:, [j]], m)
                assert np.array_equal(run_kernel(cls, p, H[:, j : j + 1], m), want)
                assert np.array_equal(run_kernel(cls, p, H[:, j][:, None], m), want)
            assert np.array_equal(one, _plain_kernel(family, rows, H[:, [j]]))
        # The memory layout of the batch does not matter either.
        assert np.array_equal(run_kernel(cls, params, np.asfortranarray(H), len(rows)), got)
    # Columns of 0.0, -0.0 and -1.0: a maximum keeps whichever zero its
    # reduction meets last, so these columns may differ in a zero's sign.
    zeros = np.random.default_rng([s, ROW_KINDS.index(family), 0])
    for k in (2, 7, 64):
        Z = zeros.choice([0.0, -0.0, -1.0], size=(s, k))
        for layout in (Z, np.asfortranarray(Z)):
            got = run_kernel(cls, params, layout, len(rows))
            for j in range(k):
                one = run_kernel(cls, params, layout[:, [j]], len(rows))
                assert _same_but_zero_signs(got[:, j], one[:, 0]), (k, j)
                assert _same_but_zero_signs(one, _plain_kernel(family, rows, Z[:, [j]]))


@pytest.mark.parametrize("m", [1, 5])
def test_gemv_is_one_contiguous_product_per_column(m):
    # A one-block `Linear` plan writes rows 1 .. m of a larger array, as
    # an operator's block does, and each column has the bits of the
    # product with that column alone, whether H is a batch or a strided
    # single column.
    rng = np.random.default_rng(61 + m)
    for s in (1, 2, 3, 4, 9, 24, 48, 64):
        W = rng.uniform(0.0, 1.0, size=(m, s))
        plan = ((Linear.kernel, W, slice(1, m + 1)),), None, False
        wide = rng.uniform(-1.0, 1.0, size=(s, 130))
        for H in (wide[:, :2], wide[:, :65], wide, wide[:, 7:8], wide[:, [7]]):
            k = H.shape[1]
            block = np.zeros((m + 3, k))
            credal._step(plan, H, block)
            want = np.hstack([W @ np.ascontiguousarray(H[:, [j]]) for j in range(k)])
            assert block[1 : m + 1].tobytes() == want.tobytes(), (s, k)
            assert not block[0].any() and not block[m + 1 :].any()


def test_step_hands_every_kernel_the_contiguous_transpose():
    # Whatever the width and layout of H, and however the batch is
    # chunked, every kernel gets `Ht` as the C-contiguous (k, s) array
    # H.T of the columns it is given; for one contiguous column, or a
    # Fortran-ordered batch, that is a view of H, not a copy.
    rng = np.random.default_rng(263)
    s = 48
    space = StateSpace([f"x{i}" for i in range(s)])
    rows = [random_model(rng, space, ("linear", "interval")[i % 2]) for i in range(s)]
    seen = []

    def spy(kernel):
        def checked(params, H, out, hmax, Ht):
            assert Ht.flags.c_contiguous and Ht.shape == H.shape[::-1]
            assert Ht.tobytes() == np.ascontiguousarray(H.T).tobytes()
            seen.append((H.shape[1], np.shares_memory(Ht, H)))
            kernel(params, H, out, hmax, Ht)

        return checked

    def spied(plan):
        blocks, inverse, reads_max = plan
        return tuple((spy(f), params, out) for f, params, out in blocks), inverse, reads_max

    two_families = credal._plan(rows)
    assert len(two_families[0]) == 2 and two_families[1] is not None
    wide_k = credal.CHUNK_CELLS // s**2 + 1  # k * s**2 > CHUNK_CELLS
    wide = rng.uniform(-1.0, 1.0, size=(s, wide_k))
    cases = [
        (wide[:, 0].copy()[:, None], [(1, True)]),
        (wide[:, 7:8], [(1, False)]),
        (wide[:, :5], [(5, False)]),
        (np.asfortranarray(wide[:, :5]), [(5, True)]),
        (wide, [(wide_k - 1, False), (1, False)]),
    ]
    for plan in (two_families, rows[1]._plan):
        for H, calls in cases:
            seen.clear()
            assert credal._step(spied(plan), H).tobytes() == credal._step(plan, H).tobytes()
            assert seen == [call for call in calls for _ in plan[0]]


def _same_but_zero_signs(a, b) -> bool:
    """Whether a and b have the same bits once every -0.0 is made 0.0."""
    return (a + 0.0).tobytes() == (b + 0.0).tobytes()


@pytest.mark.parametrize("k", [1, 3])
def test_add_reduceat_adds_the_first_row_to_the_pairwise_rest(k):
    # The belief kernel's focal sums rely on this order, in 1-D (k = 1)
    # and along axis 0: a0 + (a1 + ... + an), the parenthesis summed as
    # numpy sums a contiguous 1-D array, which is left to right below
    # eight terms and pairwise from eight on.  A left-to-right sum
    # differs in the last bit on about a quarter of short segments.
    rng = np.random.default_rng(233 + k)
    for n in range(2, 20):
        for _ in range(50):
            a = rng.uniform(-1.0, 1.0, size=(n, k)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
            got = np.add.reduceat(a[:, 0], [0])[:1] if k == 1 else np.add.reduceat(a, [0], axis=0)[0]
            rest = [np.ascontiguousarray(a[1:, j]).sum() for j in range(k)]
            assert np.array_equal(got, a[0] + rest), n
            if n < 9:
                left_to_right = functools.reduce(np.add, a[2:], a[1].copy())
                assert np.array_equal(got, a[0] + left_to_right), n


def test_padded_tables_cover_each_list_and_at_most_double_the_cells():
    rng = np.random.default_rng(239)
    for _ in range(200):
        sizes = rng.choice([1, 2, 3, 6, 12, 24, 48], size=int(rng.integers(1, 30))).tolist()
        lists = [rng.choice(48, size=n, replace=False) for n in sizes]
        members = np.concatenate(lists)
        starts = np.cumsum([0] + sizes[:-1])
        tables, inverse = credal._padded_tables(members, starts, sizes)
        columns = [col for table, _ in tables for col in table.T]
        assert sum(t.size for t, _ in tables) <= 2 * sum(sizes)
        assert [block.stop - block.start for _, block in tables] == [t.shape[1] for t, _ in tables]
        if inverse is None:
            assert len(tables) == 1
        else:
            columns = [columns[i] for i in inverse]
        for col, want in zip(columns, lists, strict=True):
            assert np.array_equal(col[: len(want)], want)
            assert set(col[len(want) :]) <= {want[-1]}


@pytest.mark.parametrize("k", [1, 2, 64])
def test_whole_space_belief_row_equals_vacuous(k):
    rng = np.random.default_rng(241 + k)
    for s in (2, 8, 48):
        space = StateSpace([f"x{i}" for i in range(s)])
        whole = BeliefFunction(space, [(Event(space, space.labels), 1.0)])
        H = _contract_matrix(rng, s, k)
        want = run_kernel(Vacuous, Vacuous.stack([Vacuous(space)]), H, 1)
        assert np.array_equal(run_kernel(BeliefFunction, BeliefFunction.stack([whole]), H, 1), want)
        rows = [random_row(rng, space, "belief_extremes", 9) for _ in range(3)]
        rows[1:1] = [whole]
        rows.append(whole)
        got = run_kernel(BeliefFunction, BeliefFunction.stack(rows), H, len(rows))
        assert np.array_equal(got[[1, 4]], np.repeat(want, 2, axis=0))


def test_belief_tables_hold_only_proper_subsets():
    # Whole-space focal maxima come from hmax, so no table gathers one,
    # and a block of whole-space focal elements builds no table at all.
    rng = np.random.default_rng(251)
    for s in (2, 3, 8, 24, 48):
        space = StateSpace([f"x{i}" for i in range(s)])
        for kind in ("belief_extremes", "belief_proper", "belief_whole"):
            rows = _contract_rows(rng, space, kind)
            sizes = [len(ev.positions) for r in rows for ev, _ in r.focal]
            tables = BeliefFunction.stack(rows)[0]
            assert (tables == []) == (kind == "belief_whole")
            assert all(len(set(col)) < s for table, _ in tables for col in table.T)
            assert sum(t.size for t, _ in tables) <= 2 * sum(n for n in sizes if n < s)
            assert sum(t.shape[1] for t, _ in tables) == sum(n < s for n in sizes)


def test_chunked_calls_equal_one_call(monkeypatch):
    rng = np.random.default_rng(229)
    s, k = 8, 50
    space = StateSpace([f"x{i}" for i in range(s)])
    op = UpperTransitionOperator(space, [random_model(rng, space, FAMILIES[i % 6]) for i in range(s)])
    initial = random_prob_interval(rng, space)
    H = rng.uniform(-1.0, 1.0, size=(s, k))
    whole_op, whole_initial = op.apply_many(H), initial.upper_many(H)
    widths = []

    def kernel(params, H, out, hmax, Ht):
        widths.append(H.shape[1])
        ProbInterval.kernel(params, H, out, hmax, Ht)

    monkeypatch.setattr(credal, "CHUNK_CELLS", 3 * s**2)
    plan = ((kernel, initial._plan[0][0][1], slice(0, 1)),), None, False
    assert np.array_equal(credal._step(plan, H)[0], whole_initial)
    assert widths == [3] * 16 + [2]
    assert np.array_equal(op.apply_many(H), whole_op)
    assert np.array_equal(initial.upper_many(H), whole_initial)


def test_a_models_batch_holds_one_row_of_floats():
    # A model's plan has one row, so each chunk's output is (1, k): the
    # returned row is not a view into an (s, k) array.
    rng = np.random.default_rng(233)
    s, k = 48, 4096
    space = StateSpace([f"x{i}" for i in range(s)])
    model = random_prob_interval(rng, space)
    H = rng.uniform(-1.0, 1.0, size=(s, k))
    got = model.upper_many(H)
    owner = got
    while owner.base is not None:
        owner = owner.base
    assert owner.nbytes <= k * got.itemsize
    want = run_kernel(ProbInterval, ProbInterval.stack([model]), H, 1)[0]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("m", [1, 2, 8])
def test_interval_kernel_sums_pairwise_only_for_one_row(m, k):
    # The (k, s, m) gains keep the row axis innermost in memory, so with
    # m >= 2 stacked rows each gain sum runs left to right along a strided
    # state axis; with m = 1 that axis is contiguous and numpy sums it
    # pairwise.  Either way the order is the same for every k.
    rng = np.random.default_rng([241, m, k])
    s = 48
    space = StateSpace([f"x{i}" for i in range(s)])
    rows = [random_prob_interval(rng, space) for _ in range(m)]
    params = ProbInterval.stack(rows)
    H = rng.uniform(-1.0, 1.0, size=(s, k)) * 10.0 ** rng.integers(-6, 7, size=(s, 1))
    got = run_kernel(ProbInterval, params, H, m)
    L, Dt, slack = params
    D, slack = Dt.T, slack[:, None, None]
    pairwise, left_to_right = np.empty((m, k)), np.empty((m, k))
    for j in range(k):
        order = np.argsort(-H[:, j])
        steps = H[order, j]
        steps[:-1] -= steps[1:]
        terms = np.minimum(D[:, order].cumsum(axis=1), slack[:, :, 0]) * steps
        base = (L @ H[:, [j]])[:, 0]
        pairwise[:, j] = base + [np.ascontiguousarray(row).sum() for row in terms]
        left_to_right[:, j] = base + [functools.reduce(operator.add, row.tolist()) for row in terms]
    assert not np.array_equal(pairwise, left_to_right)
    assert np.array_equal(got, pairwise if m == 1 else left_to_right)


def _tied_columns(rng, s, k, first):
    """k columns with ties and signed zeros, cycling from kind `first`:
    values from {-1, -0.0, 0.0, 0.5, 1}, an indicator, a negated
    indicator and normals rounded to one decimal."""
    cols = []
    for j in range(k):
        kind = (first + j) % 4
        if kind == 0:
            cols.append(rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=s))
        elif kind == 3:
            cols.append(np.round(rng.normal(size=s), 1))
        else:
            indicator = (rng.random(s) < 0.4).astype(float)
            cols.append(indicator if kind == 1 else -indicator)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("s", [3, 48])
def test_interval_kernel_steps_follow_its_order_on_ties(s, m, k):
    # The kernel sorts -h in place for its steps and takes the order of
    # the gains from an argsort of the same values.  On ties the two must
    # agree with the gather of h along that order, up to the sign of a zero.
    rng = np.random.default_rng([263, s, m, k])
    space = StateSpace([f"x{i}" for i in range(s)])
    params = ProbInterval.stack([random_prob_interval(rng, space) for _ in range(m)])
    L, Dt, slack = params
    D, slack = Dt.T, slack[:, None, None]
    for first in range(8):
        H = _tied_columns(rng, s, k, first)
        got = run_kernel(ProbInterval, params, H, m)
        want = np.empty((m, k))
        for j in range(k):
            order = np.argsort(-H[:, j])
            steps = H[order, j]
            steps[:-1] -= steps[1:]
            terms = np.minimum(D[:, order].cumsum(axis=1), slack[:, :, 0]) * steps
            base = (L @ H[:, [j]])[:, 0]
            if m == 1:
                want[:, j] = base + [np.ascontiguousarray(row).sum() for row in terms]
            else:
                want[:, j] = base + [functools.reduce(operator.add, row.tolist()) for row in terms]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-step"])
@pytest.mark.parametrize("horizon", [1, 2, 4])
def test_batched_joint_query_equals_per_gamble_folds(horizon, stationary):
    # Operator rows cycle through the six families; the initial model
    # takes each family in turn.
    for j, family in enumerate(FAMILIES):
        chain = six_family_chain(251 + j, horizon, stationary)
        rng = np.random.default_rng([251, j, horizon])
        initial = random_model(rng, chain.space, family)
        chain = ImpreciseMarkovChain(initial, chain.transitions, horizon)
        shape = (len(chain.space),) * horizon
        fs = [PathGamble(chain.space, horizon, rng.uniform(-1.0, 1.0, size=shape)) for _ in range(3)]
        fs.append(PathGamble.path_indicator(chain.space, horizon, ["b"] * horizon))
        ups = chain.joint_upper_many([-f for f in fs] + fs).tolist()
        assert ups[len(fs) :] == [chain.joint_upper(f) for f in fs]
        assert [-u for u in ups[: len(fs)]] == [chain.joint_lower(f) for f in fs]
