"""Tight lower/upper expectation bounds for imprecise Markov chains."""

from .states import (
    DimensionMismatch,
    Event,
    Gamble,
    MassFunction,
    StateSpace,
    expectation,
)
from .credal import (
    BeliefFunction,
    Contamination,
    CredalModel,
    CredalValidationError,
    Linear,
    ProbInterval,
    Vacuous,
    VertexSet,
)
from .transition import UpperTransitionOperator
from .chain import ImpreciseMarkovChain, PathGamble
from .limits import (
    ConvergenceError,
    CycleReport,
    LimitReport,
    NotRegularError,
    contamination_evolve,
    contamination_limit,
    detect_cycle,
    limit_upper,
    precise_stationary,
)
from .oracle import (
    SizeGuardError,
    TreeAssignment,
    count_assignments,
    envelope,
    path_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "BeliefFunction",
    "Contamination",
    "ConvergenceError",
    "CredalModel",
    "CredalValidationError",
    "CycleReport",
    "DimensionMismatch",
    "Event",
    "Gamble",
    "ImpreciseMarkovChain",
    "LimitReport",
    "Linear",
    "MassFunction",
    "NotRegularError",
    "PathGamble",
    "ProbInterval",
    "SizeGuardError",
    "StateSpace",
    "TreeAssignment",
    "UpperTransitionOperator",
    "Vacuous",
    "VertexSet",
    "contamination_evolve",
    "contamination_limit",
    "count_assignments",
    "detect_cycle",
    "envelope",
    "expectation",
    "path_probabilities",
    "limit_upper",
    "precise_stationary",
]
