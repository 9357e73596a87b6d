import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from credalmc import (
    DimensionMismatch,
    Event,
    Gamble,
    MassFunction,
    StateSpace,
    expectation,
)
from credalmc.states import MASS_TOL, RENORM_ULPS, _freeze

AB = StateSpace(["a", "b"])


def test_state_space_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        StateSpace(["a", "a"])
    with pytest.raises(ValueError):
        StateSpace([])


def test_expectation_uniform_indicator():
    m = MassFunction(AB, [0.5, 0.5])
    assert expectation(m, AB.indicator(["a"])) == pytest.approx(0.5)


def test_expectation_example_masses():
    m = MassFunction(AB, [0.9, 0.1])
    assert expectation(m, AB.indicator(["a"])) == pytest.approx(0.9)
    m2 = MassFunction(AB, [0.6, 0.4])
    h = Gamble(AB, [0.235, 0.865])
    assert expectation(m2, h) == pytest.approx(0.487)


def test_expectation_dimension_mismatch():
    other = StateSpace(["x", "y", "z"])
    m = MassFunction(AB, [0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        expectation(m, Gamble(other, [1, 2, 3]))


def test_indicator_and_extremes():
    ind = AB.indicator(["a"])
    assert list(ind.values) == [1.0, 0.0]
    assert list((-Gamble(AB, [0.15, 0.85])).values) == [-0.15, -0.85]


def test_gamble_rejects_nonfinite_and_wrong_shape():
    with pytest.raises(ValueError):
        Gamble(AB, [1.0, np.inf])
    with pytest.raises(DimensionMismatch):
        Gamble(AB, [1.0, 2.0, 3.0])


def test_ragged_numbers_get_the_shape_message():
    # numpy refuses a ragged nest of lists with its own "inhomogeneous
    # shape" ValueError; the rule reports it as a shape mismatch.
    with pytest.raises(DimensionMismatch, match=r"^gamble values must have shape \(2,\), got a ragged array$"):
        Gamble(AB, [[1.0], 2.0])
    with pytest.raises(DimensionMismatch, match=r"^weights must have shape \(2,\), got a ragged array$"):
        MassFunction(AB, [0.5, [0.5]])


def test_mass_function_renormalizes_within_tolerance():
    m = MassFunction(AB, [0.6 + 4e-10, 0.4])
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        MassFunction(AB, [0.7, 0.4])
    with pytest.raises(ValueError):
        MassFunction(AB, [-0.1, 1.1])


@given(
    raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8)
    .filter(lambda raw: sum(raw) > 0.01)
)
def test_mass_function_is_idempotent(raw):
    space = StateSpace([f"x{i}" for i in range(len(raw))])
    once = MassFunction(space, np.array(raw) / sum(raw)).weights
    twice = MassFunction(space, once.tolist()).weights
    assert np.array_equal(once, twice)


def _reference_mass_weights(space, weights):
    """The weights a MassFunction stored before its checks were merged
    into fewer reductions: the reference for the constructor's bits and
    for which inputs it accepts."""
    weights = np.array(weights, dtype=float)
    if weights.shape != (len(space),):
        raise DimensionMismatch(
            f"weights must have shape ({len(space)},), got {weights.shape}"
        )
    outside = np.any(weights < -MASS_TOL) or np.any(weights > 1 + MASS_TOL)
    if outside or not np.all(np.isfinite(weights)):
        raise ValueError(f"weights outside [0, 1]: {weights}")
    total = weights.sum()
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"weights sum to {total}, not 1")
    weights = np.clip(weights, 0.0, None)
    if abs(weights.sum() - 1.0) > RENORM_ULPS * len(space) * np.finfo(float).eps:
        weights = weights / weights.sum()
    return _freeze(weights)


def _outcome(make):
    """The stored bytes of make(), or the type and message it raised."""
    try:
        return make().tobytes()
    except (ValueError, DimensionMismatch) as exc:
        return type(exc), str(exc)


def _boundary_weights():
    t, nan, inf = MASS_TOL, np.nan, np.inf
    cases = [
        [-t, 1.0 + t], [-t, 1.0], [1.0 + t, -t], [0.5, 0.5 + t], [0.5, 0.5 - t],
        [0.5 + t, 0.5 + t], [0.5, 0.5 + 2 * t], [-1.5 * t, 1.0], [1.0 + 1.5 * t, 0.0],
        [-0.0, 1.0], [0.0, 1.0], [1.0, -0.0], [-t / 2, 1.0 + t / 2], [0.0, 0.0],
        [nan, 1.0], [0.5, nan], [nan, nan], [inf, 0.0], [-inf, 1.0], [0.5, inf],
        [inf, -inf], [nan, inf], [0.5, 0.5, 0.0], [1.0],
    ]
    rng = np.random.default_rng(41)
    for n in (2, 3, 8, 24):
        for _ in range(150):
            w = rng.dirichlet(np.ones(n))
            w[rng.random(n) < 0.3] = 0.0
            if not w.any():
                w[0] = 1.0
            w /= w.sum()
            w += rng.choice([-2, -1, -0.5, 0, 0, 0.5, 1, 2], size=n) * t * rng.random()
            cases.append(w.tolist())
    return cases


def test_mass_function_matches_reference_checks():
    for weights in _boundary_weights():
        space = AB if len(weights) == 2 else StateSpace([f"x{i}" for i in range(len(weights))])
        got = _outcome(lambda: MassFunction(space, weights).weights)
        assert got == _outcome(lambda: _reference_mass_weights(space, weights)), weights


def test_mass_function_boundaries():
    t = MASS_TOL
    assert np.array_equal(MassFunction(AB, [-t, 1.0 + t]).weights, [0.0, 1.0])
    assert not np.signbit(MassFunction(AB, [-0.0, 1.0]).weights).any()
    # A non-finite weight is outside [0, 1] too.
    for bad in ([-1.5 * t, 1.0], [1.0 + 1.5 * t, 0.0], [np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0]):
        with pytest.raises(ValueError, match="outside"):
            MassFunction(AB, bad)
    with pytest.raises(ValueError, match="sum to"):
        MassFunction(AB, [0.5, 0.5 + 2 * t])
    MassFunction(AB, [0.5, 0.5 + 0.9 * t])


@pytest.mark.parametrize(
    ("weights", "bad"),
    [
        ([True, False], "True"),
        ([0.5, True], "True"),
        ([np.True_, 0.0], "np.True_"),
        (np.array([True, False]), "True"),
        (["0.5", "0.5"], "'0.5'"),
        ((0.5, "0.5"), "'0.5'"),
        (np.array(["1", "0"]), "'1'"),
        (np.array([0.5, "0.5"], dtype=object), "'0.5'"),
    ],
)
def test_mass_function_refuses_strings_and_bools(weights, bad):
    # np.array(..., dtype=float) would read each as numbers.
    with pytest.raises(TypeError, match=f"^weights must be numbers, got {bad}$"):
        MassFunction(AB, weights)


@pytest.mark.parametrize(
    "weights",
    [[1, 0], np.array([1, 0]), np.array([0.5, 0.5], dtype=np.float32), [np.int64(1), np.float64(0.0)]],
)
def test_mass_function_takes_ints_and_numpy_numbers(weights):
    assert np.array_equal(MassFunction(AB, weights).weights, np.asarray(weights, dtype=float))


@pytest.mark.parametrize(
    ("values", "bad"),
    [
        (["0.5", True], "'0.5'"),
        ([0.5, True], "True"),
        ([np.True_, 0.0], "np.True_"),
        (np.array([True, False]), "True"),
        (np.array(["1", "0"]), "'1'"),
    ],
)
def test_gamble_refuses_strings_and_bools(values, bad):
    with pytest.raises(TypeError, match=f"^gamble values must be numbers, got {bad}$"):
        Gamble(AB, values)


@pytest.mark.parametrize(
    "values", [[1, 0], np.array([1, 0]), np.array([0.5, -2.0], dtype=np.float32), [np.int64(1), 0.5]]
)
def test_gamble_takes_ints_and_numpy_numbers(values):
    assert np.array_equal(Gamble(AB, values).values, np.asarray(values, dtype=float))


def test_event_membership_checked():
    with pytest.raises(KeyError, match=r"\['y', 'z'\]"):
        Event(AB, ["z", "a", "y"])


def test_event_positions_are_sorted_state_positions():
    space = StateSpace(["c", "a", "d", "b"])
    ev = Event(space, ["b", "c", "a"])
    assert ev.positions.tolist() == [0, 1, 3]
    assert not ev.positions.flags.writeable
    assert ev.mask().tolist() == [True, True, False, True]
    assert ev == Event(space, {"a", "b", "c"}) and hash(ev) == hash(Event(space, "abc"))


def test_values_are_immutable():
    g = Gamble(AB, [1.0, 2.0])
    with pytest.raises(ValueError):
        g.values[0] = 3.0


finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


@given(
    w=st.floats(min_value=0.01, max_value=0.99),
    g=st.tuples(finite, finite),
    h=st.tuples(finite, finite),
    alpha=finite,
    beta=finite,
)
def test_expectation_is_linear(w, g, h, alpha, beta):
    m = MassFunction(AB, [w, 1 - w])
    gg, hh = Gamble(AB, g), Gamble(AB, h)
    lhs = expectation(m, Gamble(AB, alpha * gg.values + beta * hh.values))
    rhs = alpha * expectation(m, gg) + beta * expectation(m, hh)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(w=st.floats(min_value=0.0, max_value=1.0), h=st.tuples(finite, finite))
def test_expectation_within_extremes(w, h):
    m = MassFunction(AB, [w, 1 - w])
    hh = Gamble(AB, h)
    assert min(h) - 1e-12 <= expectation(m, hh) <= max(h) + 1e-12


@given(w=st.floats(min_value=0.0, max_value=1.0))
def test_expectation_of_full_indicator_is_one(w):
    m = MassFunction(AB, [w, 1 - w])
    assert expectation(m, AB.indicator(AB.labels)) == pytest.approx(1.0)
