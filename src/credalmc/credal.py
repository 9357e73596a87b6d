"""Credal-set models and their upper/lower expectation functionals.

Six representations of a closed convex set of mass functions are
supported: a singleton (Linear), the full simplex (Vacuous), an explicit
vertex list (VertexSet), an epsilon-contamination of a precise mass
function (Contamination), a belief function given by focal elements
(BeliefFunction), and per-state probability intervals (ProbInterval).

Each family has one numeric kernel on raw arrays: `stack(rows)` packs
the parameters of m models of that family, and
`kernel(params, H, out, hmax, Ht)` writes the upper expectations of the
k columns of a gamble matrix H of shape (s, k) under each of them into
the (m, k) block `out`.  `_plan(rows)` builds every row-block plan: one
stacked block per family, in order of each family's first row, and the
permutation back to row order.  An operator builds the plan of its rows
at construction, a model the plan of its one row on first use.  `_step`
is the one step loop: it runs one step through a plan into an output
the caller gives (or a fresh one), sharing two views of H that it computes
once: `hmax`, the column maximum `H.max(axis=0)`, for the families that
read it (`reads_max`: Vacuous, Contamination and BeliefFunction; the
others get None), and `Ht`, `H.T` as a C-contiguous (k, s) array, which
every family with a matrix product reads (ProbInterval also sorts it);
it is a view, not a copy, when H is one contiguous column.

Every kernel is column-exact: column j of its block has the same bits,
except the sign of a zero, whatever the other columns and the batch
width k, so a batched query prints what one fold per gamble prints (the
CLI prints every zero unsigned).  Every matrix product is
`np.matvec(W, Ht, out=out.T)`: one BLAS gemv per contiguous row j of
`Ht`, k = 1 included, written into column j of `out` through the
strided view `out.T`, so a column's bits depend neither on the batch
nor on its stride in H (a plain `W @ H` over k > 1 columns is one
gemm, whose blocking reorders the sums; a row's bits also change with
the shape of W, so no two families, nor padded rows, share one
product).  `ProbInterval` gathers the gains of its m rows as a
C-contiguous (k, s, m) array, the row axis innermost, and sums them
along the state axis: with one row (a model's own `upper`, or an
interval initial model) that axis is contiguous and numpy sums it
pairwise, with m >= 2 stacked rows it is strided and the sum runs left
to right.  Either order holds for every k.  `np.add.reduceat` sums a
segment a0, a1, ..., an as a0 + (a1 + ... + an), in every column and
for every k, the parenthesis being numpy's sum of a contiguous 1-D
array: left to right for a segment of fewer than nine rows, pairwise
from nine on.
Maxima are exact in any order but for the sign of a zero: of 0.0 and
-0.0, a maximum keeps the one its reduction meets last, and `hmax`, a
padded table and `reduceat` meet them in orders that depend on the
layout of H.  So a padded table that repeats a member, or a reshape,
gives the bits of `np.maximum.reduceat` up to that sign.
`BeliefFunction` gathers its proper focal subsets from padded tables and
takes every whole-space focal maximum from `hmax`.  `_step` splits wide
batches into column chunks, each written into its columns of the
output, which column-exactness makes bit-neutral.

Every model also exposes `lower(h)` (the conjugate of `upper`) and
`vertices()` (a finite spanning set containing all extreme points),
which the tree oracle reads through `_vertex_array`, a read-only
weight array cached on the model.
Validation happens at construction and is never silently repaired; an
inconsistent credal set invalidates every downstream bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .states import (
    BOUND_SLACK,
    MASS_TOL,
    VERTEX_DEDUP_TOL,
    Event,
    Gamble,
    MassFunction,
    StateSpace,
    _check_numbers,
    _check_space,
    _freeze,
    _gamble_array,
    _is_real,
    _normalized,
    frozen,
)

#: Refuse vertex enumerations over more candidate points than this.
VERTEX_GUARD = 2**16

#: A kernel call on s states sees at most CHUNK_CELLS // s**2 columns, so
#: a (k, s, m) intermediate of m <= s rows stays under 8 MB of floats.
CHUNK_CELLS = 2**20


class CredalValidationError(ValueError):
    """A credal model failed validation; `code` names the failure."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class SizeGuardError(RuntimeError):
    """An enumeration would exceed its size guard."""


class CredalModel:
    """Base class for the credal-set representations."""

    space: StateSpace

    #: Whether `kernel` reads the column maximum `hmax`.
    reads_max = False

    @classmethod
    def stack(cls, rows: Sequence["CredalModel"]):
        """Parameters of `rows`, all of this family, packed for `kernel`."""
        raise NotImplementedError

    @staticmethod
    def kernel(params, H: np.ndarray, out: np.ndarray, hmax, Ht) -> None:
        """Write the upper expectations of the columns of H (s, k) under
        each of the m stacked models into the (m, k) array `out`.

        `hmax` is `H.max(axis=0)` if the family `reads_max`, else None;
        `Ht` is always `np.ascontiguousarray(H.T)`, the (k, s) transpose."""
        raise NotImplementedError

    @functools.cached_property
    def _plan(self):
        """This model as a row-block plan of one block of one row."""
        return _plan((self,))

    @functools.cached_property
    def _vertex_array(self) -> np.ndarray:
        """`vertices()` as a read-only (v, |X|) weight array, built once."""
        W = np.array([v.weights for v in self.vertices()])
        W.setflags(write=False)
        return W

    def upper_many(self, H: np.ndarray) -> np.ndarray:
        """Upper expectations of the k columns of a raw (s, k) array."""
        return _step(self._plan, _gamble_array(self.space, H, columns=True))[0]

    def upper(self, h: Gamble) -> float:
        """Maximum linear expectation of h over the credal set."""
        _check_space(self, h)
        return float(_step(self._plan, h.values[:, None])[0, 0])

    def lower(self, h: Gamble) -> float:
        """Conjugate lower expectation: lower(h) = -upper(-h)."""
        return -self.upper(-h)

    def vertices(self) -> list[MassFunction]:
        raise NotImplementedError


def _vertex_list(space: StateSpace, W: np.ndarray) -> list[MassFunction]:
    """The rows of the (c, s) candidate array W, each built by the
    `MassFunction` constructor, in order, without each one whose stored
    weights lie within VERTEX_DEDUP_TOL of an earlier kept one's.  A row
    whose bits repeat an earlier row's is built once: it stores the same
    weights, so it would be dropped."""
    masses = [MassFunction(space, w) for w in {w.tobytes(): w for w in W}.values()]
    W = np.array([m.weights for m in masses])
    kept: list[int] = []
    for i, w in enumerate(W):
        if not kept or np.abs(W[kept] - w).max(axis=1).min() > VERTEX_DEDUP_TOL:
            kept.append(i)
    return [masses[i] for i in kept]


def _plan(rows: Sequence[CredalModel]):
    """The row-block plan (blocks, inverse, reads_max) of `rows`: one
    (kernel, stacked parameters, output row slice) block per family, in
    order of each family's first row, the slices tiling the rows in turn;
    `inverse` takes block order back to row order (None for the
    identity); `reads_max` says whether a kernel reads hmax."""
    groups: dict[type, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(type(row), []).append(i)
    blocks, order = [], []
    for cls, idx in groups.items():
        out_rows = slice(len(order), len(order) + len(idx))
        blocks.append((cls.kernel, cls.stack([rows[i] for i in idx]), out_rows))
        order += idx
    inverse = None if order == list(range(len(order))) else np.argsort(order)
    return tuple(blocks), inverse, any(cls.reads_max for cls in groups)


def _step(plan, H: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One step on the (s, k) array H through a row-block plan (blocks,
    inverse, reads_max), written into the caller's (rows, k) array `out`,
    or into a fresh one if None, and returned; `rows` is where the last
    block's slice stops (1 for a model's one-row plan).  Each (kernel,
    params, rows) block writes its rows, `hmax` is computed once if
    `reads_max`, and one contiguous `H.T` is shared.  Unless
    `inverse` is None, the blocks fill a scratch array and one `take`
    writes it to `out` in state order.  Batches wider than
    CHUNK_CELLS // s**2 columns step in chunks of that width, each into
    its columns of `out`."""
    blocks, inverse, reads_max = plan
    s, k = H.shape
    if out is None:
        out = np.empty((blocks[-1][2].stop, k))
    if k > 1 and k * s * s > CHUNK_CELLS:  # k > max(1, CHUNK_CELLS // s**2)
        width = max(1, CHUNK_CELLS // s**2)
        for j in range(0, k, width):
            _step(plan, H[:, j : j + width], out[:, j : j + width])
        return out
    stacked = out if inverse is None else np.empty(out.shape)
    hmax = np.maximum.reduce(H, axis=0) if reads_max else None
    Ht = np.ascontiguousarray(H.T)
    for kernel, params, rows in blocks:
        kernel(params, H, stacked[rows], hmax, Ht)
    if inverse is not None:
        # mode="raise" would buffer `out` in one more copy.
        stacked.take(inverse, axis=0, out=out, mode="clip")
    return out


def _starts(sizes: Sequence[int]) -> np.ndarray:
    """Offsets of consecutive blocks of the given sizes, for reduceat."""
    return np.array([0, *itertools.accumulate(sizes[:-1])], dtype=np.intp)


def _padded_tables(members: np.ndarray, starts: np.ndarray, sizes: list[int]):
    """The member lists `members[starts[i]:starts[i] + sizes[i]]` as
    padded position tables, for one `max(axis=0)` per table.

    Lists are taken widest first, and each table holds as many as keep
    its padded cells within twice their members, so padding at most
    doubles the gathered cells.  A table has shape (width, n): column j
    is a list, padded to the table's width by repeating its last member,
    and the lists of a table keep their order.  Returns the (table,
    slice) pairs, the slices tiling the tables' n columns in turn, and
    the permutation that takes the stacked results back to list order,
    or None when that is the identity (one table)."""
    order = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
    tables, placed = [], []
    i = 0
    while i < len(order):
        width, cells, j = sizes[order[i]], 0, i
        while j < len(order) and (j - i + 1) * width <= 2 * (cells + sizes[order[j]]):
            cells += sizes[order[j]]
            j += 1
        lists = sorted(order[i:j])
        first = starts[lists]
        last = first + np.array([sizes[n] for n in lists]) - 1
        table = members[np.minimum(first + np.arange(width)[:, None], last)]
        tables.append((table, slice(i, j)))
        placed += lists
        i = j
    inverse = None if len(tables) == 1 else np.argsort(placed)
    return tables, inverse


def _guard(count: int, what: str) -> None:
    if count > VERTEX_GUARD:
        raise SizeGuardError(
            f"{what} would enumerate {count} candidate vertices "
            f"(guard {VERTEX_GUARD})"
        )


@frozen
class Linear(CredalModel):
    """The singleton credal set {m}; upper and lower coincide."""

    mass: MassFunction

    @property
    def space(self) -> StateSpace:
        return self.mass.space

    @classmethod
    def stack(cls, rows):
        return np.array([r.mass.weights for r in rows])

    @staticmethod
    def kernel(W, H, out, hmax, Ht):
        np.matvec(W, Ht, out=out.T)

    def vertices(self) -> list[MassFunction]:
        return [self.mass]


@frozen
class Vacuous(CredalModel):
    """The full simplex; upper(h) = max h, lower(h) = min h."""

    space: StateSpace

    reads_max = True

    @classmethod
    def stack(cls, rows):
        return None

    @staticmethod
    def kernel(params, H, out, hmax, Ht):
        out[...] = hmax

    def vertices(self) -> list[MassFunction]:
        return [MassFunction.degenerate(self.space, x) for x in self.space]


@frozen
class VertexSet(CredalModel):
    """The convex hull of an explicit, nonempty list of mass functions."""

    space: StateSpace
    points: tuple[MassFunction, ...]

    def __init__(self, space: StateSpace, points: Sequence[MassFunction]):
        points = tuple(points)
        if not points:
            raise CredalValidationError(
                "empty-credal-set", "vertex list must be nonempty"
            )
        for p in points:
            if p.space != space:
                raise CredalValidationError(
                    "space-mismatch", "vertex defined on a different space"
                )
        vars(self).update(space=space, points=points)

    @classmethod
    def stack(cls, rows):
        counts = [len(r.points) for r in rows]
        width = counts[0] if len(set(counts)) == 1 else None
        return np.array([p.weights for r in rows for p in r.points]), _starts(counts), width

    @staticmethod
    def kernel(params, H, out, hmax, Ht):
        # `width` is the vertex count when every row has the same; the
        # products of row i are then rows i * width ... of `products`.
        # On one column `reduceat` is the cheaper of the two.
        P, starts, width = params
        k = H.shape[1]
        products = np.empty((len(P), k))
        np.matvec(P, Ht, out=products.T)
        if k > 1 and width is not None:
            np.maximum.reduce(products.reshape(len(out), width, k), axis=1, out=out)
        else:
            np.maximum.reduceat(products, starts, axis=0, out=out)

    def vertices(self) -> list[MassFunction]:
        return list(self.points)


def _check_epsilon(epsilon) -> float:
    """`epsilon` as a float if it is a real number in (0, 1), the one epsilon
    rule: TypeError for a non-number (a bool too), else CredalValidationError."""
    if not _is_real(epsilon):
        raise TypeError(f"contamination epsilon must be a number, got {epsilon!r}")
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise CredalValidationError(
            "epsilon-out-of-range", f"contamination epsilon must lie in (0, 1), got {epsilon}"
        )
    return epsilon


@frozen
class Contamination(CredalModel):
    """Epsilon-contamination of a precise mass function.

    upper(h) = (1 - eps) * E_base(h) + eps * max h, for eps in (0, 1).
    """

    base: MassFunction
    epsilon: float

    reads_max = True

    def __init__(self, base: MassFunction, epsilon: float):
        vars(self).update(base=base, epsilon=_check_epsilon(epsilon))

    @property
    def space(self) -> StateSpace:
        return self.base.space

    @classmethod
    def stack(cls, rows):
        eps = np.array([[r.epsilon] for r in rows])
        return np.array([r.base.weights for r in rows]), 1.0 - eps, eps

    @staticmethod
    def kernel(params, H, out, hmax, Ht):
        B, keep, eps = params
        np.matvec(B, Ht, out=out.T)
        out *= keep
        out += eps * hmax

    def vertices(self) -> list[MassFunction]:
        # Row x mixes the base with the point mass on state x.
        deltas = np.eye(len(self.space))
        W = (1.0 - self.epsilon) * self.base.weights + self.epsilon * deltas
        return _vertex_list(self.space, W)


@frozen
class BeliefFunction(CredalModel):
    """A convex mixture of vacuous models on focal elements.

    upper(h) = sum_j m(F_j) * max over F_j of h; each focal element F_j
    is nonempty.  The masses m(F_j) must each be at least -BOUND_SLACK
    and sum to one within MASS_TOL; they are stored as `MassFunction`
    stores weights on the same space: clipped at zero and, unless they
    then sum to one up to rounding, renormalized.
    """

    space: StateSpace
    focal: tuple[tuple[Event, float], ...]

    reads_max = True

    def __init__(self, space: StateSpace, focal: Sequence[tuple[Event, float]]):
        focal = tuple(focal)
        _check_numbers([w for _, w in focal], "focal masses")
        focal = tuple((ev, float(w)) for ev, w in focal)
        if not focal:
            raise CredalValidationError(
                "empty-credal-set", "belief function needs at least one focal element"
            )
        for ev, w in focal:
            if ev.space != space:
                raise CredalValidationError(
                    "space-mismatch", "focal element on a different space"
                )
            if not ev.members:
                raise CredalValidationError(
                    "empty-credal-set", "focal elements must be nonempty"
                )
            if not math.isfinite(w):
                raise CredalValidationError("non-finite", f"focal mass {w}")
            if w < -BOUND_SLACK:
                raise CredalValidationError(
                    "mass-sum-violation", f"negative focal mass {w}"
                )
        total = sum(w for _, w in focal)
        if abs(total - 1.0) > MASS_TOL:
            raise CredalValidationError(
                "mass-sum-violation", f"focal masses sum to {total}, not 1"
            )
        masses = [w for _, w in focal]
        masses = _normalized(np.array(masses), len(space), min(masses), total)
        focal = tuple(zip([ev for ev, _ in focal], masses.tolist()))
        vars(self).update(space=space, focal=focal)

    @classmethod
    def stack(cls, rows):
        positions = [ev.positions for r in rows for ev, _ in r.focal]
        sizes = [len(p) for p in positions]
        # A step gathers the n proper subsets from padded tables into
        # rows 0 .. n - 1 of its focal maxima and, if some focal element
        # is the whole space, puts hmax in row n; `inverse` takes those
        # rows to focal order.
        whole_size = len(rows[0].space)
        proper = [i for i, size in enumerate(sizes) if size < whole_size]
        tables, table_rows = _padded_tables(
            np.concatenate(positions), _starts(sizes)[proper], [sizes[i] for i in proper]
        )
        whole = len(proper) < len(sizes)
        inverse = np.full(len(sizes), len(proper))
        inverse[proper] = np.arange(len(proper)) if table_rows is None else table_rows
        if not whole and table_rows is None:
            inverse = None
        w = np.array([[w] for r in rows for _, w in r.focal])
        starts = _starts([len(r.focal) for r in rows])
        return tables, len(proper), whole, inverse, w, starts

    @staticmethod
    def kernel(params, H, out, hmax, Ht):
        # Focal maxima, weighted, then summed per row.  The proper subsets
        # are gathered from padded tables, whose maxima over whole
        # (focal, k) slabs cost far less than `np.maximum.reduceat` over
        # many short segments; each whole-space maximum is hmax.
        tables, n, whole, inverse, w, starts = params
        focal_max = np.empty((n + whole, H.shape[1]))
        for table, block in tables:
            np.maximum.reduce(H.take(table, axis=0), axis=0, out=focal_max[block])
        if whole:
            focal_max[n] = hmax
        if inverse is not None:
            focal_max = focal_max.take(inverse, axis=0)
        focal_max *= w
        np.add.reduceat(focal_max, starts, axis=0, out=out)

    def vertices(self) -> list[MassFunction]:
        # One selection assigns each focal element's mass wholly to one of
        # its members; selections span the credal set (some may be
        # non-extreme interior points, which is harmless for max/min).
        # Members are tried in label order, the last focal element's
        # fastest, and masses add up in focal order.
        index = self.space.index
        choices = [[index(x) for x in sorted(ev.members)] for ev, _ in self.focal]
        _guard(math.prod(len(c) for c in choices), "BeliefFunction.vertices")
        picks = np.array(list(itertools.product(*choices)), dtype=np.intp)
        W = np.zeros((len(picks), len(self.space)))
        selection = np.arange(len(picks))
        for j, (_, mass) in enumerate(self.focal):
            W[selection, picks[:, j]] += mass
        return _vertex_list(self.space, W)


@frozen
class ProbInterval(CredalModel):
    """A credal set cut from the simplex by per-state mass bounds.

    The upper expectation is the greedy allocation of de Campos, Huete
    and Moral (1994): start from the lower bounds and hand the slack
    1 - sum(lower) to the states in decreasing order of h, each up to
    its upper bound.  Bounds outside [0, 1] by at most BOUND_SLACK are
    accepted and stored clipped to [0, 1]; validation reads them as
    given.
    """

    space: StateSpace
    lower_mass: np.ndarray
    upper_mass: np.ndarray

    def __init__(self, space: StateSpace, lower_mass, upper_mass):
        _check_numbers([lower_mass, upper_mass], "interval bounds")
        lo = _freeze(lower_mass)
        up = _freeze(upper_mass)
        n = len(space)
        if lo.shape != (n,) or up.shape != (n,):
            raise CredalValidationError(
                "space-mismatch", "bound arrays must have one entry per state"
            )
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
            raise CredalValidationError(
                "non-finite", "interval bounds must be finite"
            )
        if np.max([-lo, up - 1.0, lo - up]) > BOUND_SLACK:
            raise CredalValidationError(
                "empty-credal-set",
                "need 0 <= lower <= upper <= 1 for every state",
            )
        lo_sum, up_sum = lo.sum(), up.sum()
        if lo_sum > 1 + MASS_TOL or up_sum < 1 - MASS_TOL:
            raise CredalValidationError(
                "empty-credal-set",
                f"sum of lower bounds {lo_sum} and upper bounds {up_sum} "
                "leave no mass function in the set",
            )
        # Reachability: every bound must be attained by some member.
        unreachable = (lo + (up_sum - up) < 1 - MASS_TOL) | (up + (lo_sum - lo) > 1 + MASS_TOL)
        if unreachable.any():
            raise CredalValidationError(
                "non-reachable-bounds",
                f"bounds for state {space.labels[unreachable.argmax()]!r} cannot be attained",
            )
        vars(self).update(
            space=space,
            lower_mass=_freeze(np.clip(lo, 0.0, 1.0)),
            upper_mass=_freeze(np.clip(up, 0.0, 1.0)),
        )

    def event_upper(self, members) -> float:
        """Upper probability of an event: min of the two interval cuts."""
        if not isinstance(members, Event):
            members = Event(self.space, members)
        _check_space(self, members)
        mask = members.mask()
        return float(
            min(self.upper_mass[mask].sum(), 1.0 - self.lower_mass[~mask].sum())
        )

    @classmethod
    def stack(cls, rows):
        L = np.array([r.lower_mass for r in rows])
        Dt = (np.array([r.upper_mass for r in rows]) - L).T.copy()
        slack = 1.0 - L.sum(axis=1)
        return L, Dt, slack

    @staticmethod
    def kernel(params, H, out, hmax, Ht):
        L, Dt, slack = params
        # Sort each column once, by decreasing h; every row hands out its
        # slack along that order.  The j best states together receive
        # F_j = min(sum of their upper - lower, slack), so summing by
        # parts the gain over L @ H is sum_j F_j * (h_(j) - h_(j+1)),
        # with h_(s+1) = 0.  The (k, s, m) gains, gathered from the
        # (s, m) widths `Dt` and summed in place, keep the row axis
        # innermost, so the state axis is contiguous, and each sum
        # pairwise, only for m = 1; with m >= 2 rows each sum runs left
        # to right.  Neither order depends on k or the other columns.
        order = (-Ht).argsort(axis=1)
        gain = Dt.take(order, axis=0)
        np.add.accumulate(gain, axis=1, out=gain)
        np.minimum(gain, slack, out=gain)
        steps = Ht[np.arange(len(Ht))[:, None], order]
        steps[:, :-1] -= steps[:, 1:]
        gain *= steps[:, :, None]
        np.matvec(L, Ht, out=out.T)
        out += np.add.reduce(gain, axis=1).T

    def vertices(self) -> list[MassFunction]:
        # Every vertex of an interval polytope on the simplex has at most
        # one coordinate strictly between its bounds; enumerate bound
        # patterns with one free coordinate forced by normalization.
        # Candidates come free coordinate by free coordinate, the bound
        # patterns of the others in binary counting order (the first
        # other coordinate most significant, 1 = upper bound).
        n = len(self.space)
        _guard(n * 2 ** (n - 1), "ProbInterval.vertices")
        lo, up = self.lower_mass, self.upper_mass
        bits = ((np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 2, -1, -1)) & 1) == 1
        free = np.arange(n)
        # rest[f]: the states other than f, in order.  bounds[f, p]:
        # pattern p's bounds on rest[f], C-contiguous, so each row sums
        # pairwise, as one candidate's 1-D sum does.
        rest = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
        bounds = np.where(bits, up[rest][:, None, :], lo[rest][:, None, :])
        w = 1.0 - bounds.sum(axis=2)
        lo_f, up_f = lo[:, None], up[:, None]
        feasible = (lo_f - MASS_TOL <= w) & (w <= up_f + MASS_TOL)
        # Candidate W[f, p] puts bounds[f, p] on rest[f] and w[f, p],
        # clipped to min(max(w, lo), up), on f; on a tie np.clip can
        # differ only in the sign of a zero, which the mass function's
        # clipping makes +0.
        W = np.empty((n, len(bits), n))
        W[free[:, None, None], np.arange(len(bits))[:, None], rest[:, None, :]] = bounds
        W[free, :, free] = np.clip(w, lo_f, up_f)
        return _vertex_list(self.space, W[feasible])
