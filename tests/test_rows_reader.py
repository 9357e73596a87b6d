"""Every operator carries the plan `credal._plan` builds from its rows.

The operator constructor builds the plan, so an operator read from JSON
(`rows`, `matrix`, `contamination` or `interval`) or built from Python
row objects has it before its first step.  A `rows` operator is read one
row at a time, each row by its family's reader, which calls the row
constructor; its rows must equal the models read one row at a time, and
a one-row read raises what the row constructor raises.  Both matrix
constructors, `from_matrix` and `contamination_of`, read row by row, so
they raise what their row loop raises.
"""

import json

import numpy as np
import pytest

from credalmc import (
    BeliefFunction,
    Contamination,
    Event,
    Linear,
    MassFunction,
    ProbInterval,
    StateSpace,
    UpperTransitionOperator,
    VertexSet,
    credal,
)
from credalmc.cli import (
    _MODELS,
    _parse,
    bundled_scenario_path,
    model_from_json,
    scenario_from_json,
    scenario_to_json,
)
from helpers import FAMILIES, random_model, six_family_chain

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
    assert "_plan" in vars(op)  # built at load, not on first use
    _assert_same(op._plan, credal._plan(op.rows))
    if obj["type"] == "rows":
        by_row = [model_from_json(space, r, "row") for r in obj["rows"]]
        assert list(op.rows) == by_row
        assert list(map(hash, op.rows)) == list(map(hash, by_row))


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


def test_operators_built_from_row_objects_carry_their_plan():
    rng = np.random.default_rng(7)
    space = StateSpace(list("abcdef"))
    op = UpperTransitionOperator(space, [random_model(rng, space, f) for f in FAMILIES])
    assert "_plan" in vars(op)
    _assert_same(op._plan, credal._plan(op.rows))


#: The row constructors each family's reader calls, one row at a time.
_ROW_CONSTRUCTORS = {
    "linear": lambda sp, o: Linear(MassFunction(sp, o["mass"])),
    "vertices": lambda sp, o: VertexSet(sp, [MassFunction(sp, p) for p in o["points"]]),
    "contamination": lambda sp, o: Contamination(MassFunction(sp, o["base"]), o["epsilon"]),
    "belief": lambda sp, o: BeliefFunction(
        sp, [(Event(sp, f["members"]), f["mass"]) for f in o["focal"]]
    ),
    "prob_interval": lambda sp, o: ProbInterval(sp, o["lower"], o["upper"]),
}

_MALFORMED = [
    {"type": "linear", "mass": [[0.5], [0.5, 0.5]]},
    {"type": "linear", "mass": "ab"},
    {"type": "linear", "mass": 0.5},
    {"type": "linear", "mass": None},
    {"type": "linear", "mass": ["x", 0.5]},
    {"type": "linear", "mass": [0.5, 0.5, 0.0]},
    {"type": "linear"},
    {"type": "vertices", "points": [[0.5, 0.5], [1.0]]},
    {"type": "vertices", "points": [[0.5, 0.5], [0.5, [0.5]]]},
    {"type": "vertices", "points": "ab"},
    {"type": "vertices", "points": "0.5"},
    {"type": "vertices", "points": 5},
    {"type": "vertices", "points": None},
    {"type": "vertices", "points": {"a": 1}},
    {"type": "vertices", "points": [0.5, 0.5]},
    {"type": "vertices", "points": []},
    {"type": "vertices", "points": [[0.5, 0.5], [0.7, 0.7]]},
    {"type": "contamination", "base": [[0.5], [0.5, 0.5]], "epsilon": 0.5},
    {"type": "contamination", "base": [0.7, 0.7], "epsilon": 1.5},
    {"type": "contamination", "base": [0.5, 0.5], "epsilon": [0.1]},
    {"type": "contamination", "base": [0.5, 0.5]},
    # Strings and bools where numbers are stored.
    {"type": "linear", "mass": [True, False]},
    {"type": "linear", "mass": [True, 0.5]},
    {"type": "linear", "mass": ["0.5", "0.5"]},
    {"type": "linear", "mass": "0.5"},
    {"type": "vertices", "points": [[0.5, 0.5], [False, True]]},
    {"type": "contamination", "base": [0.5, 0.5], "epsilon": "0.1"},
    {"type": "contamination", "base": [0.5, 0.5], "epsilon": False},
    {"type": "contamination", "base": [0.5, "0.5"], "epsilon": 0.1},
    {"type": "belief", "focal": [{"members": ["a"], "mass": "0.5"}, {"members": ["b"], "mass": 0.5}]},
    {"type": "belief", "focal": [{"members": ["a", "b"], "mass": True}]},
    {"type": "prob_interval", "lower": ["0.6", "0.1"], "upper": [0.9, 0.4]},
    {"type": "prob_interval", "lower": [0.0, 0.0], "upper": [True, True]},
]


@pytest.mark.parametrize("obj", _MALFORMED, ids=lambda o: json.dumps(o))
def test_one_row_reads_raise_what_the_row_constructor_raises(obj):
    space = StateSpace(["a", "b"])

    def error(read):
        with pytest.raises(ValueError) as info:
            _parse("row", obj, read)
        return type(info.value), getattr(info.value, "code", None), str(info.value)

    want = error(lambda o: _ROW_CONSTRUCTORS[o["type"]](space, o))
    assert error(lambda o: model_from_json(space, o, "row")) == want


#: (array constructor, the row loop it stands for) pairs.
_ARRAY_CONSTRUCTORS = {
    "from_matrix": (
        UpperTransitionOperator.from_matrix,
        lambda sp, M: [Linear(MassFunction(sp, w)) for w in M],
    ),
    "contamination_of": (
        lambda sp, M: UpperTransitionOperator.contamination_of(sp, M, 0.25),
        lambda sp, M: [Contamination(MassFunction(sp, b), 0.25) for b in M],
    ),
}


@pytest.mark.parametrize(
    "matrix", [[[0.7, 0.7], ["x", 0.5]], [[0.7, 0.7], [1.0]], [[0.5, 0.5], [0.5, 0.5, 0.0]], "ab"]
)
def test_array_constructors_raise_what_the_row_loop_raises(matrix):
    space = StateSpace(["a", "b"])
    for name, (build, row_loop) in _ARRAY_CONSTRUCTORS.items():
        with pytest.raises((ValueError, TypeError)) as want:
            row_loop(space, matrix)
        with pytest.raises(type(want.value)) as got:
            build(space, matrix)
        assert str(got.value) == str(want.value), name


def test_interval_matrices_refuse_what_the_row_constructor_refuses():
    # np.asarray(..., dtype=float) would turn the mixed row into floats.
    space = StateSpace(["a", "b"])
    lower, upper = [[0.4, 0.4], [True, 0.4]], [[0.6, 0.6]] * 2
    with pytest.raises(TypeError) as want:
        ProbInterval(space, lower[1], upper[1])
    with pytest.raises(TypeError) as got:
        UpperTransitionOperator.from_interval_matrices(space, lower, upper)
    assert str(got.value) == str(want.value) == "interval bounds must be numbers, got True"
