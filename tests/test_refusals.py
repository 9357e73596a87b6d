"""Refusals of bad arguments, one case each, with their exact messages."""

import re

import pytest

from credalmc import (
    BeliefFunction,
    ConvergenceError,
    CredalValidationError,
    DimensionMismatch,
    Event,
    ImpreciseMarkovChain,
    MassFunction,
    PathGamble,
    ProbInterval,
    StateSpace,
    UpperTransitionOperator,
    Vacuous,
    VertexSet,
    precise_stationary,
)

AB = StateSpace(["a", "b"])
XY = StateSpace(["x", "y"])
PRECISE = UpperTransitionOperator.from_matrix(AB, [[0.9, 0.1], [0.2, 0.8]])
CHAIN = ImpreciseMarkovChain(Vacuous(AB), PRECISE, 2)


# (call, error type, code or None, message)
REFUSALS = {
    "path-gamble-shape": (
        lambda: PathGamble(AB, 2, [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]),
        DimensionMismatch,
        None,
        "path gamble values must have shape (2, 2), got (2, 3)",
    ),
    "path-indicator-length": (
        lambda: PathGamble.path_indicator(AB, 2, ["a"]),
        ValueError,
        None,
        "path length must equal the horizon",
    ),
    "chain-operator-space": (
        lambda: ImpreciseMarkovChain(
            Vacuous(AB), UpperTransitionOperator.from_matrix(XY, [[1.0, 0.0], [0.0, 1.0]]), 2
        ),
        DimensionMismatch,
        None,
        "operator on a different state space",
    ),
    "joint-given-empty-prefix": (
        lambda: CHAIN.joint_upper_given([], PathGamble.path_indicator(AB, 2, "ab")),
        ValueError,
        None,
        "prefix length 0 out of range [1, 2]",
    ),
    "joint-given-long-prefix": (
        lambda: CHAIN.joint_upper_given("aba", PathGamble.path_indicator(AB, 2, "ab")),
        ValueError,
        None,
        "prefix length 3 out of range [1, 2]",
    ),
    "vertex-space": (
        lambda: VertexSet(AB, [MassFunction(AB, [1.0, 0.0]), MassFunction(XY, [0.5, 0.5])]),
        CredalValidationError,
        "space-mismatch",
        "vertex defined on a different space",
    ),
    "belief-no-focal-element": (
        lambda: BeliefFunction(AB, []),
        CredalValidationError,
        "empty-credal-set",
        "belief function needs at least one focal element",
    ),
    "belief-focal-space": (
        lambda: BeliefFunction(AB, [(Event(XY, ["x"]), 1.0)]),
        CredalValidationError,
        "space-mismatch",
        "focal element on a different space",
    ),
    "interval-bound-length": (
        lambda: ProbInterval(AB, [0.1, 0.2, 0.3], [0.5, 0.6, 0.7]),
        DimensionMismatch,
        None,
        "interval bounds must have shape (2,), got (3,)",
    ),
    "operator-row-space": (
        lambda: UpperTransitionOperator(AB, [Vacuous(AB), Vacuous(XY)]),
        DimensionMismatch,
        None,
        "row model on a different state space",
    ),
    "stationary-max-iter": (
        # The uniform start is not stationary, and max_iter=0 allows no update.
        lambda: precise_stationary(PRECISE, max_iter=0),
        ConvergenceError,
        None,
        "stationary iteration did not converge",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusal(name):
    call, error, code, message = REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        call()
    assert type(exc.value) is error
    assert getattr(exc.value, "code", None) == code
