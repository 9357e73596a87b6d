"""Finite state spaces, gambles, mass functions and precise expectation.

Everything in this module is immutable after construction; arrays are
frozen so values can be shared freely between threads.  The types
validate input; the engine computes on their positional arrays.  The
package's numeric tolerances are all defined here, and so are its
argument rules, each written once: `_state_array` for numbers on the
states (numbers by `_check_numbers`, which refuses strings and bools, a
float array, the expected shape), which mass weights and interval
matrices pass; `_gamble_array`, the gamble rule, which adds that every
value is finite and which `Gamble`, `chain.PathGamble`, interval bounds
and the raw (s, k) columns of `upper_many`, `apply_many` and
`marginal_upper_table` pass (a gamble the engine computes from checked
ones, `-h`, `-f` or `apply`'s T h, skips it); `_check_integer`, for
integer arguments in a range; and `_is_real`, the test for a real number.

The package's value types are declared with `frozen`, a class decorator
that installs the same already-compiled methods on every class instead
of generating code per class.  A class's fields are its own annotated
attributes, in order; an attribute its `__init__` sets without an
annotation (`Event.positions`, derived from `members`) is not a field.
The decorator gives a field-wise `__init__` to a class that defines
none, `__setattr__` and `__delattr__` that raise `AttributeError`, the
repr ``Name(field=value, ...)``, and `==` and `hash` over the fields:
instances of one class are equal when every field is, arrays compared
element for element (so -0.0 equals 0.0 and `==` never raises), and
arrays hash from the bytes of `a + 0.0`, which maps -0.0 to 0.0.  A
field holding an unhashable value, such as a dict, makes the instance
unhashable.  Every constructor, that `__init__` included, writes its
attributes with one `vars(self).update(...)`.
"""

from __future__ import annotations

import functools
import math
from numbers import Real
from typing import Iterable

import numpy as np

#: Tolerance on nonnegativity and normalization of mass functions.
#: Inputs within this tolerance are clipped at zero and renormalized at
#: construction; anything further off is rejected.
MASS_TOL = 1e-9

#: Clipped weights summing to one within RENORM_ULPS * |X| ulps are kept
#: as given, so construction is idempotent and round trips are exact.
RENORM_ULPS = 2

_EPS = float(np.finfo(float).eps)

#: Coordinatewise tolerance used when removing duplicate vertices.
VERTEX_DEDUP_TOL = 1e-12

#: Slack on a single focal mass or interval bound (sums use MASS_TOL).
BOUND_SLACK = 1e-12

#: Stop criterion of the long-run iterations in `limits`: the
#: oscillation (or sup-norm change, or geometric tail) they stop below.
DEFAULT_TOL = 1e-10


class DimensionMismatch(ValueError):
    """Operands are defined on different state spaces."""


def _init(self, *args, **kwargs):
    """Field-wise `__init__` of a `frozen` class that defines none."""
    names = self._fields
    values = dict(zip(names, args), **kwargs)
    if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
        raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
    vars(self).update(values)


def _refuse(self, name, *value):
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is frozen")


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    if other is self:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    for name in self._fields:
        a, b = getattr(self, name), getattr(other, name)
        if isinstance(a, np.ndarray):
            if not np.array_equal(a, b):
                return False
        elif a != b:
            return False
    return True


def _hash(self) -> int:
    values = (getattr(self, name) for name in self._fields)
    return hash(tuple((a + 0.0).tobytes() if isinstance(a, np.ndarray) else a for a in values))


def frozen(cls):
    """Make `cls` an immutable value type over its own annotated fields
    (see the module docstring)."""
    cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
    if "__init__" not in cls.__dict__:
        cls.__init__ = _init
    cls.__setattr__ = cls.__delattr__ = _refuse
    cls.__repr__, cls.__eq__, cls.__hash__ = _repr, _eq, _hash
    return cls


#: Element types of a plain list of numbers, which `_check_numbers`
#: accepts without looking at each element.
_PLAIN = frozenset({float, int})


def _check_numbers(values, what: str) -> None:
    """Raise TypeError("<what> must be numbers, got <value>") at the first
    string or bool in `values`, a number or a nest of lists, tuples and
    arrays, which `float()` and `np.array(..., dtype=float)` would read
    as a number: "0.5" as 0.5, True as 1.0, and [True, 0.5] as [1.0, 0.5]."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "fiu":
            return
        values = values.tolist()
    if isinstance(values, (str, bool, np.bool_)):
        raise TypeError(f"{what} must be numbers, got {values!r}")
    if isinstance(values, (list, tuple)) and not _PLAIN.issuperset(map(type, values)):
        for v in values:
            _check_numbers(v, what)


def _is_real(value) -> bool:
    """Whether `value` is a real number (a numpy float too), not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_integer(value, name: str, low, high=math.inf) -> int:
    """`value` as an int if it is an int or numpy integer in [low, high];
    a bool, a float (even 3.0) or a non-number, and an int out of range,
    raise ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} {value} out of range [{low}, {high}]")
    return int(value)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@frozen
class StateSpace:
    """An ordered finite set of distinct state labels.

    The ordering is fixed at construction and shared by every gamble and
    mass function over this space; all arrays are positional.
    """

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if len(labels) == 0:
            raise ValueError("state space must contain at least one state")
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")
        vars(self).update(labels=labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    @functools.cached_property
    def _positions(self) -> dict[str, int]:
        """label -> position, built on first use."""
        return {x: i for i, x in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise KeyError(f"unknown state {label!r}") from None

    def indicator(self, members: Iterable[str]) -> "Gamble":
        """The 0/1 gamble of the event given by `members`."""
        return Event(self, frozenset(members)).indicator()


def _check_space(a, b) -> None:
    if a.space != b.space:
        raise DimensionMismatch(
            f"state spaces differ: {a.space.labels} vs {b.space.labels}"
        )


def _state_array(space: StateSpace, values, axes=1, what="gamble values", columns=False):
    """`values` as a float array of shape (|space|,) * axes (plus an axis
    of k columns if `columns`), or raise: TypeError at a string or bool,
    DimensionMismatch for any other shape, a ragged nest of lists too.
    Columns are read in place if they are a float array; anything else is
    a fresh copy."""
    _check_numbers(values, what)
    expect = f"({len(space)}, k)" if columns else (len(space),) * axes
    try:
        a = np.array(values, dtype=float, copy=None if columns else True)
    except ValueError:  # numpy's "inhomogeneous shape": numbers are checked
        raise DimensionMismatch(f"{what} must have shape {expect}, got a ragged array") from None
    if a.shape[:axes] != (len(space),) * axes or a.ndim != axes + columns:
        raise DimensionMismatch(f"{what} must have shape {expect}, got {a.shape}")
    return a


def _gamble_array(space: StateSpace, values, axes=1, what="gamble values", columns=False):
    """`_state_array`, then ValueError at NaN or inf; a value type's copy
    is marked read-only."""
    a = _state_array(space, values, axes, what, columns)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    if not columns:
        a.setflags(write=False)
    return a


@frozen
class Gamble:
    """A real-valued map on the state space, stored positionally.

    Values must be finite numbers (not strings or bools)."""

    space: StateSpace
    values: np.ndarray

    def __init__(self, space: StateSpace, values):
        vars(self).update(space=space, values=_gamble_array(space, values))

    @classmethod
    def _computed(cls, space: StateSpace, values: np.ndarray) -> "Gamble":
        """A gamble on a float array of shape (|space|,) that the engine
        computed from checked gambles, so finite: marked read-only, not
        checked again."""
        values.setflags(write=False)
        self = object.__new__(cls)
        vars(self).update(space=space, values=values)
        return self

    def __neg__(self) -> "Gamble":
        return Gamble._computed(self.space, -self.values)


@frozen
class Event:
    """A subset of the state space.

    `positions` holds the members' state positions in increasing order;
    it is derived from `members`, so not a field.
    """

    space: StateSpace
    members: frozenset[str]

    def __init__(self, space: StateSpace, members: Iterable[str]):
        members = frozenset(members)
        position = space._positions
        try:
            positions = np.fromiter(map(position.__getitem__, members), np.intp, len(members))
        except KeyError:
            unknown = sorted(x for x in members if x not in position)
            raise KeyError(f"unknown states in event: {unknown}") from None
        positions.sort()
        positions.setflags(write=False)
        vars(self).update(space=space, members=members, positions=positions)

    def indicator(self) -> Gamble:
        return Gamble(self.space, self.mask().astype(float))

    def mask(self) -> np.ndarray:
        mask = np.zeros(len(self.space), dtype=bool)
        mask[self.positions] = True
        return mask


@frozen
class MassFunction:
    """A probability mass function on the state space.

    Weights pass `_state_array`, must lie in [0, 1] and sum to one
    within MASS_TOL; they are clipped and, unless they sum to one up to
    rounding, renormalized.
    """

    space: StateSpace
    weights: np.ndarray

    def __init__(self, space: StateSpace, weights):
        weights = _state_array(space, weights, what="weights")
        # A NaN weight makes both NaN, an infinite one makes one infinite,
        # and either fails the range test.
        lo, hi = weights.min(), weights.max()
        if not -MASS_TOL <= lo <= hi <= 1 + MASS_TOL:
            raise ValueError(f"weights outside [0, 1]: {weights}")
        total = weights.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        weights = _normalized(weights, len(space), lo, total)
        weights.setflags(write=False)
        vars(self).update(space=space, weights=weights)

    @classmethod
    def degenerate(cls, space: StateSpace, label: str) -> "MassFunction":
        w = np.zeros(len(space))
        w[space.index(label)] = 1.0
        return cls(space, w)


def _normalized(weights: np.ndarray, n: int, lo: float, total: float) -> np.ndarray:
    """Accepted masses on a space of n states, whose minimum and sum the
    caller has computed as `lo` and `total`, as they are stored: clipped
    at zero (which also turns -0.0 into 0.0) and, unless they then sum to
    one within RENORM_ULPS * n ulps, divided by their sum."""
    if lo <= 0.0:
        weights = np.clip(weights, 0.0, None)
        total = weights.sum()
    if abs(total - 1.0) > RENORM_ULPS * n * _EPS:
        weights = weights / total
    return weights


def expectation(m: MassFunction, h: Gamble) -> float:
    """Linear expectation of the gamble h under the mass function m."""
    _check_space(m, h)
    return float(np.dot(m.weights, h.values))
