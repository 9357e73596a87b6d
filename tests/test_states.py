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
    assert Gamble(AB, [0.15, 0.85]).max() == pytest.approx(0.85)
    assert Gamble(AB, [1, 0]).sup_dist(Gamble(AB, [0, 1])) == pytest.approx(1.0)


def test_gamble_algebra():
    g = Gamble(AB, [1.0, 2.0])
    h = Gamble(AB, [0.5, -1.0])
    assert list((g + h).values) == [1.5, 1.0]
    assert list((g - h).values) == [0.5, 3.0]
    assert list((2.0 * g).values) == [2.0, 4.0]
    assert list(g.pointwise_max(h).values) == [1.0, 2.0]
    assert list(g.pointwise_min(h).values) == [0.5, -1.0]


def test_gamble_rejects_nonfinite_and_wrong_shape():
    with pytest.raises(ValueError):
        Gamble(AB, [1.0, np.inf])
    with pytest.raises(DimensionMismatch):
        Gamble(AB, [1.0, 2.0, 3.0])


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


def test_event_membership_checked():
    with pytest.raises(KeyError):
        Event(AB, ["z"])
    assert set(Event(AB, ["a"]).complement().members) == {"b"}


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
    lhs = expectation(m, alpha * gg + beta * hh)
    rhs = alpha * expectation(m, gg) + beta * expectation(m, hh)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(w=st.floats(min_value=0.0, max_value=1.0), h=st.tuples(finite, finite))
def test_expectation_within_extremes(w, h):
    m = MassFunction(AB, [w, 1 - w])
    hh = Gamble(AB, h)
    assert hh.min() - 1e-12 <= expectation(m, hh) <= hh.max() + 1e-12


@given(w=st.floats(min_value=0.0, max_value=1.0))
def test_expectation_of_full_indicator_is_one(w):
    m = MassFunction(AB, [w, 1 - w])
    assert expectation(m, AB.indicator(AB.labels)) == pytest.approx(1.0)
