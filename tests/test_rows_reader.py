"""Operators read from JSON carry the plan `credal._plan` builds from their rows.

A `rows` operator is read family by family, and the `matrix` and
`contamination` operators through the families' array constructors;
each comes out of the reader with its row-block plan built from the
validated arrays.  That plan must equal, array for array, the one built
lazily from the row objects, and the rows must equal the models built
one row at a time.
"""

import json

import numpy as np
import pytest

from credalmc import Linear, MassFunction, StateSpace, UpperTransitionOperator, credal
from credalmc.cli import (
    _MODELS,
    bundled_scenario_path,
    model_from_json,
    scenario_from_json,
    scenario_to_json,
)
from helpers import six_family_chain

BUNDLED = sorted(p.stem for p in bundled_scenario_path("x").parent.glob("*.json"))


def _operators(doc: dict):
    """(operator JSON, operator read from it) pairs of a scenario document."""
    chain = scenario_from_json(doc)
    docs = doc["transition"] if isinstance(doc["transition"], list) else [doc["transition"]]
    ops = chain.transitions if not chain.stationary else (chain.transitions,)
    return list(zip(docs, ops))


def _assert_same(got, want, where="plan"):
    """Equal structure; arrays equal in dtype, shape, C-contiguity and bits."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.flags.c_contiguous == want.flags.c_contiguous, where
        assert got.tobytes() == want.tobytes(), where
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


def _check_operator(space: StateSpace, obj: dict, op: UpperTransitionOperator):
    if obj["type"] in ("rows", "matrix", "contamination"):
        assert "_plan" in vars(op)  # built at load, not on first use
    _assert_same(op._plan, credal._plan(op.rows))
    if obj["type"] == "rows":
        by_row = [model_from_json(space, r, "row") for r in obj["rows"]]
        assert list(op.rows) == by_row
        assert list(map(hash, op.rows)) == list(map(hash, by_row))
    # The validated arrays are the parameters: a Linear row's weights are
    # a row of its block's parameter array.
    for kernel, params, _ in op._plan[0]:
        if kernel is Linear.kernel:
            linear = [r for r in op.rows if isinstance(r, Linear)]
            assert all(np.shares_memory(r.mass.weights, params) for r in linear)


def _check_scenario(doc: dict):
    space = StateSpace(doc["states"])
    for obj, op in _operators(doc):
        _check_operator(space, obj, op)
    text = json.dumps(scenario_to_json(scenario_from_json(doc)))
    assert json.dumps(scenario_to_json(scenario_from_json(json.loads(text)))) == text


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_operators_carry_the_plan_of_their_rows(name):
    _check_scenario(json.loads(bundled_scenario_path(name).read_text()))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_step_six_family_chain_carries_the_plans_of_its_rows(seed):
    # Nine states: the six families cycle, three of them twice, in a
    # shuffled order, so most blocks are out of state order.
    chain = six_family_chain(seed, horizon=5, stationary=False, s=9)
    doc = json.loads(json.dumps(scenario_to_json(chain)))
    for obj in doc["transition"]:
        assert {r["type"] for r in obj["rows"]} == set(_MODELS)
    _check_scenario(doc)
    read = scenario_from_json(doc)
    assert [op.rows for op in read.transitions] == [op.rows for op in chain.transitions]
    assert json.dumps(scenario_to_json(read)) == json.dumps(scenario_to_json(chain))


def test_array_constructors_equal_the_row_constructors():
    rng = np.random.default_rng(5)
    space = StateSpace(list("abcd"))
    M = rng.dirichlet(np.ones(4), size=4)
    M[0] = [0.5, 0.5, 0.0, -0.0]  # clipped, -0.0 stored as 0.0
    op = UpperTransitionOperator.from_matrix(space, M)
    assert op.rows == tuple(Linear(MassFunction(space, w)) for w in M)
    _assert_same(op._plan, credal._plan(op.rows))
    op = UpperTransitionOperator.contamination_of(space, M, 0.25)
    _assert_same(op._plan, credal._plan(op.rows))
    assert [(r.base.weights.tobytes(), r.epsilon) for r in op.rows] == [
        (MassFunction(space, w).weights.tobytes(), 0.25) for w in M
    ]
