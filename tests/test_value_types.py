"""The contract of the package's immutable value types (`states.frozen`)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import credalmc
from credalmc import (
    BeliefFunction,
    Contamination,
    CycleReport,
    Event,
    Gamble,
    ImpreciseMarkovChain,
    LimitReport,
    Linear,
    MassFunction,
    PathGamble,
    ProbInterval,
    StateSpace,
    TreeAssignment,
    UpperTransitionOperator,
    Vacuous,
    VertexSet,
)


def _ab(labels="ab"):
    # A fresh space per instance, so equal instances share no field object.
    return StateSpace(list(labels))


def _mass(w=0.3, labels="ab"):
    return MassFunction(_ab(labels), [w, 1.0 - w])


def _op(p=0.15):
    return UpperTransitionOperator.from_matrix(_ab(), [[p, 1 - p], [1 - p, p]])


#: class -> (fields in order, make(variant)): variants 0 and 1 build equal
#: instances (1 with -0.0 where a field can hold it), variant 2 another one.
CASES = {
    StateSpace: (["labels"], lambda v: _ab("ac" if v == 2 else "ab")),
    Gamble: (["space", "values"], lambda v: Gamble(_ab(), [1.0, [0.0, -0.0, 2.0][v]])),
    Event: (["space", "members"], lambda v: Event(_ab(), ["b"] if v == 2 else ["a"])),
    MassFunction: (["space", "weights"], lambda v: _mass(0.4 if v == 2 else 0.3)),
    Linear: (["mass"], lambda v: Linear(_mass(0.4 if v == 2 else 0.3))),
    Vacuous: (["space"], lambda v: Vacuous(_ab("ac" if v == 2 else "ab"))),
    VertexSet: (
        ["space", "points"],
        lambda v: VertexSet(_ab(), [_mass(0.3), _mass(0.5 if v == 2 else 0.6)]),
    ),
    Contamination: (["base", "epsilon"], lambda v: Contamination(_mass(), [0.1, 0.1, 0.2][v])),
    BeliefFunction: (
        ["space", "focal"],
        lambda v: BeliefFunction(
            _ab(), [(Event(_ab(), "a"), 0.5), (Event(_ab(), "b" if v == 2 else "ab"), 0.5)]
        ),
    ),
    ProbInterval: (
        ["space", "lower_mass", "upper_mass"],
        lambda v: ProbInterval(_ab(), [0.6, 0.1], [0.9, 0.4])
        if v == 2
        else ProbInterval(_ab(), [0.6, [0.0, -0.0][v]], [1.0, 0.4]),
    ),
    UpperTransitionOperator: (["space", "rows"], lambda v: _op(0.25 if v == 2 else 0.15)),
    PathGamble: (
        ["space", "horizon", "values"],
        lambda v: PathGamble(_ab(), 2, [[1.0, [0.0, -0.0, 3.0][v]], [2.0, 0.5]]),
    ),
    ImpreciseMarkovChain: (
        ["space", "initial", "transitions", "horizon"],
        lambda v: ImpreciseMarkovChain(Vacuous(_ab()), _op(), 4 if v == 2 else 3),
    ),
    LimitReport: (
        ["value", "iterations", "residual"],
        lambda v: LimitReport(0.5, 7 if v == 2 else 3, [0.0, -0.0, 0.0][v]),
    ),
    CycleReport: (
        ["period", "representative", "residual", "iterations"],
        lambda v: CycleReport(
            period=2,
            representative=Gamble(_ab(), [1.0, [0.0, -0.0, 1.0][v]]),
            residual=0.0,
            iterations=4,
        ),
    ),
    TreeAssignment: (
        ["initial_choice", "situation_choices"],
        lambda v: TreeAssignment(_mass(), {(0,): _mass(0.9 if v == 2 else 0.8)}),
    ),
}


def test_every_value_type_is_covered():
    frozen = {
        obj
        for obj in vars(credalmc).values()
        if isinstance(obj, type) and obj.__setattr__ is credalmc.states._refuse
    }
    assert frozen == set(CASES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    fields, make = CASES[cls]
    a, b, c = make(0), make(1), make(2)
    assert type(a) is type(b) is type(c) is cls
    # `==` never raises, on equal, unequal and foreign operands.
    assert a == a and a == b and b == a and not (a != b)
    assert a != c and c != a and not (a == c)
    assert a != object() and not (a == None)  # noqa: E711
    if cls is TreeAssignment:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(c, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.other = 1
    assert a == b
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__name__}({shown})"


def test_field_wise_init_checks_its_arguments():
    assert LimitReport(0.5, iterations=3, residual=0.0) == LimitReport(0.5, 3, 0.0)
    for args, kwargs in [((0.5, 3), {}), ((0.5, 3, 0.0, 1), {}), ((0.5, 3), {"value": 0.5}),
                         ((0.5, 3), {"residual": 0.0, "other": 1})]:
        with pytest.raises(TypeError):
            LimitReport(*args, **kwargs)


def test_importing_the_cli_leaves_out_dataclasses():
    src = Path(credalmc.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    code = "import sys, credalmc.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
