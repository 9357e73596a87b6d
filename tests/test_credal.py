import itertools

import numpy as np
import pytest

from credalmc import (
    BeliefFunction,
    Contamination,
    CredalValidationError,
    DimensionMismatch,
    Event,
    Gamble,
    Linear,
    MassFunction,
    ProbInterval,
    SizeGuardError,
    StateSpace,
    Vacuous,
    VertexSet,
    expectation,
)
from credalmc import credal
from credalmc.states import MASS_TOL, VERTEX_DEDUP_TOL
from helpers import FAMILIES, random_gamble, random_model, run_kernel

AB = StateSpace(["a", "b"])
ABC = StateSpace(["a", "b", "c"])

# Row b of the three-state interval transition model (values in 1/200ths).
ROW_B = ProbInterval(ABC, np.array([144, 18, 18]) / 200, np.array([154, 28, 28]) / 200)
ROW_A = ProbInterval(ABC, np.array([9, 9, 162]) / 200, np.array([19, 19, 172]) / 200)


class TestValidation:
    def test_valid_interval(self):
        m = ProbInterval(AB, [0.6, 0.1], [0.9, 0.4])
        assert list(m.lower_mass) == [0.6, 0.1]
        assert list(m.upper_mass) == [0.9, 0.4]
        assert not m.lower_mass.flags.writeable

    def test_empty_interval(self):
        with pytest.raises(CredalValidationError) as exc:
            ProbInterval(AB, [0.6, 0.6], [0.9, 0.9])
        assert exc.value.code == "empty-credal-set"

    @pytest.mark.parametrize(
        ("lower", "upper"),
        [([0.6, 0.1], [0.5, 0.9]), ([-0.1, 0.1], [0.9, 0.4]), ([0.6, 0.1], [1.2, 0.4])],
        ids=["lower-above-upper", "lower-negative", "upper-above-one"],
    )
    def test_interval_bounds_out_of_order_or_range(self, lower, upper):
        with pytest.raises(CredalValidationError, match="0 <= lower <= upper <= 1") as exc:
            ProbInterval(AB, lower, upper)
        assert exc.value.code == "empty-credal-set"

    def test_non_reachable_bounds(self):
        # m(a) can never reach 0.05: the other mass tops out at 0.5.
        with pytest.raises(CredalValidationError) as exc:
            ProbInterval(AB, [0.05, 0.3], [0.9, 0.5])
        assert exc.value.code == "non-reachable-bounds"

    def test_non_reachable_bounds_name_the_first_failing_state(self):
        # a is reachable; m(b) can never reach 0.9: a and c hold at least 0.2.
        with pytest.raises(CredalValidationError, match="state 'b' cannot") as exc:
            ProbInterval(ABC, [0.1, 0.0, 0.1], [0.5, 0.9, 0.5])
        assert exc.value.code == "non-reachable-bounds"

    def test_belief_mass_sum(self):
        with pytest.raises(CredalValidationError) as exc:
            BeliefFunction(AB, [(Event(AB, ["a"]), 0.5), (Event(AB, ["b"]), 0.4)])
        assert exc.value.code == "mass-sum-violation"

    def test_belief_negative_focal_mass(self):
        focal = [(Event(AB, ["a"]), -0.2), (Event(AB, ["b"]), 1.2)]
        with pytest.raises(CredalValidationError, match="negative focal mass") as exc:
            BeliefFunction(AB, focal)
        assert exc.value.code == "mass-sum-violation"

    @pytest.mark.parametrize(
        ("members", "masses"),
        [([["a"], ["b"]], [0.5, 0.5000000009]), ([["a"], ["a", "b"]], [-1e-13, 1.0000000000001])],
        ids=["sum-above-one", "negative-mass"],
    )
    def test_belief_masses_are_stored_as_mass_functions_store_weights(self, members, masses):
        # Clipped at zero and renormalized, bit for bit as MassFunction
        # stores the same numbers on the same space.
        bf = BeliefFunction(AB, [(Event(AB, m), w) for m, w in zip(members, masses)])
        stored = [w for _, w in bf.focal]
        assert stored == MassFunction(AB, masses).weights.tolist()
        assert min(stored) >= 0.0 and sum(stored) == pytest.approx(1.0, abs=1e-15)
        assert bf.upper(AB.indicator(["a", "b"])) == pytest.approx(1.0, abs=1e-15)
        assert bf.lower(AB.indicator(["a"])) >= 0.0

    def test_belief_masses_that_sum_to_one_are_kept(self):
        focal = [(Event(AB, ["a"]), 0.1), (Event(AB, ["b"]), 0.2), (Event(AB, ["a", "b"]), 0.7)]
        assert BeliefFunction(AB, focal).focal == tuple(focal)

    def test_interval_bounds_are_stored_clipped_to_the_unit_interval(self):
        m = ProbInterval(AB, [-1e-13, 0.2], [0.8, 1.0 + 1e-13])
        assert m.lower_mass.tolist() == [0.0, 0.2]
        assert m.upper_mass.tolist() == [0.8, 1.0]
        assert not m.lower_mass.flags.writeable and not m.upper_mass.flags.writeable
        assert m.lower(AB.indicator(["a"])) == 0.0

    def test_belief_empty_focal(self):
        with pytest.raises(CredalValidationError) as exc:
            BeliefFunction(AB, [(Event(AB, []), 1.0)])
        assert exc.value.code == "empty-credal-set"

    def test_epsilon_out_of_range(self):
        base = MassFunction(AB, [0.5, 0.5])
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(CredalValidationError) as exc:
                Contamination(base, eps)
            assert exc.value.code == "epsilon-out-of-range"

    def test_epsilon_must_be_a_real_number(self):
        base = MassFunction(AB, [0.5, 0.5])
        for eps in (None, [0.1], "0.1", True, np.bool_(True), np.array(0.1)):
            with pytest.raises(TypeError, match=r"^contamination epsilon must be a number, got "):
                Contamination(base, eps)
        for eps in (np.float64(0.25), np.float32(0.25), 0.25):
            assert Contamination(base, eps).epsilon == 0.25

    def test_empty_vertex_set(self):
        with pytest.raises(CredalValidationError) as exc:
            VertexSet(AB, [])
        assert exc.value.code == "empty-credal-set"


NAN = float("nan")

# One constructor per family with a non-finite parameter; Vacuous has no
# numeric parameter to reject.
NON_FINITE = {
    "linear": lambda: Linear(MassFunction(AB, [NAN, 1.0])),
    "vertices": lambda: VertexSet(
        AB, [MassFunction(AB, [0.5, 0.5]), MassFunction(AB, [NAN, 0.5])]
    ),
    "contamination-base": lambda: Contamination(MassFunction(AB, [1.0, NAN]), 0.1),
    "contamination-epsilon": lambda: Contamination(MassFunction(AB, [0.5, 0.5]), NAN),
    "belief": lambda: BeliefFunction(
        AB, [(Event(AB, ["a"]), NAN), (Event(AB, ["a", "b"]), 1.0)]
    ),
    "interval-lower": lambda: ProbInterval(AB, [NAN, 0.1], [0.9, 0.4]),
    "interval-upper": lambda: ProbInterval(AB, [0.6, 0.1], [0.9, float("inf")]),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_non_finite_parameters_rejected(name):
    with pytest.raises(ValueError):
        NON_FINITE[name]()


class TestVertexGuard:
    def test_interval_guard_before_enumeration(self):
        # 20 * 2^19 bound patterns; the guard must fire without enumerating.
        space = StateSpace([f"x{i}" for i in range(20)])
        m = ProbInterval(space, np.zeros(20), np.full(20, 0.1))
        with pytest.raises(SizeGuardError):
            m.vertices()

    def test_belief_guard_before_enumeration(self):
        space = StateSpace([f"x{i}" for i in range(40)])
        halves = [Event(space, space.labels[:20]), Event(space, space.labels[20:])]
        focal = [(halves[j % 2], 0.25) for j in range(4)]
        with pytest.raises(SizeGuardError):
            BeliefFunction(space, focal).vertices()

    def test_small_models_still_enumerate(self):
        space = StateSpace([f"x{i}" for i in range(8)])
        m = ProbInterval(space, np.zeros(8), np.full(8, 0.5))
        assert len(m.vertices()) > 0


class TestUpperLower:
    def test_vacuous_is_max(self):
        h = Gamble(AB, [0.3, -1.2])
        v = Vacuous(AB)
        assert v.upper(h) == pytest.approx(0.3)
        assert v.lower(h) == pytest.approx(-1.2)

    def test_linear_is_expectation(self):
        m = MassFunction(AB, [0.7, 0.3])
        h = Gamble(AB, [1.0, -1.0])
        assert Linear(m).upper(h) == pytest.approx(expectation(m, h))
        assert Linear(m).lower(h) == pytest.approx(expectation(m, h))

    def test_interval_row_b(self):
        h = Gamble(ABC, [1.0, 0.5, 0.0])
        assert ROW_B.upper(h) == pytest.approx(0.84)

    def test_belief_split(self):
        bf = BeliefFunction(
            AB, [(Event(AB, ["a"]), 0.5), (Event(AB, ["a", "b"]), 0.5)]
        )
        assert bf.upper(AB.indicator(["b"])) == pytest.approx(0.5)

    def test_interval_lower_of_indicator(self):
        m = ProbInterval(AB, [0.6, 0.1], [0.9, 0.4])
        assert m.lower(AB.indicator(["a"])) == pytest.approx(0.6)
        assert m.upper(AB.indicator(["a"])) == pytest.approx(0.9)

    def test_contamination_mixture(self):
        c = Contamination(MassFunction(AB, [0.15, 0.85]), 0.1)
        assert c.upper(AB.indicator(["a"])) == pytest.approx(0.235)
        assert c.lower(AB.indicator(["a"])) == pytest.approx(0.135)


class TestEventUpper:
    def test_row_a_singleton(self):
        assert ROW_A.event_upper({"a"}) == pytest.approx(0.095)

    def test_boundary(self):
        assert ROW_A.event_upper(set(ABC.labels)) == pytest.approx(1.0)
        assert ROW_A.event_upper(set()) == pytest.approx(0.0)

    def test_row_b_pair(self):
        assert ROW_B.event_upper({"a", "b"}) == pytest.approx(0.91)

    def test_unknown_labels_refused(self):
        for members in ({"zz"}, {"a", "zz"}):
            with pytest.raises(KeyError, match="zz"):
                ROW_A.event_upper(members)

    @pytest.mark.parametrize(
        "labels", [["x", "y"], ["a", "b", "c"], ["x", "y", "z"]], ids=["xy", "abc", "xyz"]
    )
    def test_event_on_another_space_refused(self, labels):
        # An unchecked event would be read by position: ['x', 'y'] as
        # ['a', 'b'], and a 3-state mask would fail inside numpy.
        interval = ProbInterval(StateSpace(["a", "b"]), [0.3, 0.2], [0.8, 0.7])
        event = Event(StateSpace(labels), labels[1:])
        with pytest.raises(DimensionMismatch, match="state spaces differ"):
            interval.event_upper(event)


class TestIntervalUpper:
    def test_indicator_reduces_to_event_upper(self):
        for members in ({"a"}, {"b", "c"}, {"a", "c"}):
            assert ROW_B.upper(Event(ABC, members).indicator()) == pytest.approx(
                ROW_B.event_upper(members)
            )

    def test_constant_gamble(self):
        assert ROW_B.upper(Gamble(ABC, [0.7] * 3)) == pytest.approx(0.7)

    def test_row_b_worked_value(self):
        # Slack 0.1 goes to a (up to 0.77), then b; for the lower value
        # it goes to c (up to 0.14), then b.
        h = Gamble(ABC, [1.0, 0.5, 0.0])
        assert ROW_B.upper(h) == pytest.approx(0.84)
        assert ROW_B.lower(h) == pytest.approx(0.79)


class TestVertices:
    def test_interval_one_free_coordinate(self):
        m = ProbInterval(AB, [0.6, 0.1], [0.9, 0.4])
        got = sorted(tuple(np.round(v.weights, 12)) for v in m.vertices())
        assert got == [(0.6, 0.4), (0.9, 0.1)]

    def test_contamination_vertices(self):
        c = Contamination(MassFunction(AB, [0.15, 0.85]), 0.1)
        got = sorted(tuple(np.round(v.weights, 12)) for v in c.vertices())
        assert got == [(0.135, 0.865), (0.235, 0.765)]

    def test_interval_three_state(self):
        m = ProbInterval(ABC, [0.1, 0.1, 0.1], [0.8, 0.8, 0.8])
        got = sorted(tuple(np.round(v.weights, 12)) for v in m.vertices())
        assert got == [(0.1, 0.1, 0.8), (0.1, 0.8, 0.1), (0.8, 0.1, 0.1)]

    def test_vacuous_vertices_are_degenerate(self):
        vs = Vacuous(ABC).vertices()
        assert sorted(tuple(v.weights) for v in vs) == [
            (0.0, 0.0, 1.0),
            (0.0, 1.0, 0.0),
            (1.0, 0.0, 0.0),
        ]


# ----------------------------------------------------------------------
# Properties across all model families (seeded random sweep)


def _models(seed=7, per_family=30):
    rng = np.random.default_rng(seed)
    out = []
    for family in FAMILIES:
        for _ in range(per_family):
            space = AB if rng.random() < 0.5 else ABC
            out.append(random_model(rng, space, family))
    return out


MODELS = _models()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_conjugacy_and_coherence(model):
    rng = np.random.default_rng(hash(type(model).__name__) % 2**32)
    for _ in range(5):
        h = random_gamble(rng, model.space)
        up, lo = model.upper(h), model.lower(h)
        assert lo == pytest.approx(-model.upper(-h), abs=1e-14)
        assert h.values.min() - 1e-12 <= lo <= up <= h.values.max() + 1e-12


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_sublinearity_and_homogeneity(model):
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = random_gamble(rng, model.space)
        h = random_gamble(rng, model.space)
        g_plus_h = Gamble(model.space, g.values + h.values)
        assert model.upper(g_plus_h) <= model.upper(g) + model.upper(h) + 1e-12
        lam = rng.uniform(0.0, 3.0)
        lam_h = Gamble(model.space, lam * h.values)
        assert model.upper(lam_h) == pytest.approx(lam * model.upper(h), abs=1e-12)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_vertex_envelope_matches_upper(model):
    rng = np.random.default_rng(13)
    verts = model.vertices()
    for _ in range(5):
        h = random_gamble(rng, model.space)
        env = max(expectation(v, h) for v in verts)
        assert model.upper(h) == pytest.approx(env, abs=1e-10)


def test_interval_event_upper_is_two_alternating():
    rng = np.random.default_rng(17)
    from helpers import random_prob_interval

    for n in (2, 3, 4):
        space = StateSpace(["a", "b", "c", "d"][:n])
        for _ in range(20):
            m = random_prob_interval(rng, space)
            subsets = [
                frozenset(s)
                for r in range(n + 1)
                for s in itertools.combinations(space.labels, r)
            ]
            for A, B in itertools.product(subsets, repeat=2):
                lhs = m.event_upper(A | B) + m.event_upper(A & B)
                rhs = m.event_upper(A) + m.event_upper(B)
                assert lhs <= rhs + 1e-12


def test_kernel_equals_vertex_envelope_on_intervals():
    # One stacked kernel call over 20 interval rows and 5 gambles.
    rng = np.random.default_rng(19)
    from helpers import random_prob_interval

    for n in (2, 3, 4):
        space = StateSpace(["a", "b", "c", "d"][:n])
        rows = [random_prob_interval(rng, space) for _ in range(20)]
        H = rng.uniform(-1.0, 1.0, size=(n, 5))
        got = run_kernel(ProbInterval, ProbInterval.stack(rows), H, len(rows))
        for i, m in enumerate(rows):
            W = np.array([v.weights for v in m.vertices()])
            assert got[i] == pytest.approx((W @ H).max(axis=0), abs=1e-10)


# ----------------------------------------------------------------------
# Vertex lists against the one-candidate-at-a-time enumeration


def _reference_dedup(masses):
    out = []
    for m in masses:
        if not any(
            np.abs(m.weights - kept.weights).max() <= VERTEX_DEDUP_TOL for kept in out
        ):
            out.append(m)
    return out


def _reference_interval_vertices(m):
    n = len(m.space)
    lo, up = m.lower_mass, m.upper_mass
    out = []
    for free in range(n):
        rest = [i for i in range(n) if i != free]
        for pattern in itertools.product((0, 1), repeat=n - 1):
            w = np.empty(n)
            for i, bit in zip(rest, pattern):
                w[i] = up[i] if bit else lo[i]
            w[free] = 1.0 - w[rest].sum()
            if lo[free] - MASS_TOL <= w[free] <= up[free] + MASS_TOL:
                w[free] = min(max(w[free], lo[free]), up[free])
                out.append(MassFunction(m.space, w))
    return _reference_dedup(out)


def _reference_contamination_vertices(m):
    out = []
    for x in m.space:
        delta = MassFunction.degenerate(m.space, x)
        out.append(
            MassFunction(m.space, (1.0 - m.epsilon) * m.base.weights + m.epsilon * delta.weights)
        )
    return _reference_dedup(out)


def _reference_belief_vertices(m):
    choices = [sorted(ev.members) for ev, _ in m.focal]
    out = []
    for picks in itertools.product(*choices):
        w = np.zeros(len(m.space))
        for (ev, mass), pick in zip(m.focal, picks):
            w[m.space.index(pick)] += mass
        out.append(MassFunction(m.space, w))
    return _reference_dedup(out)


def _vertex_models():
    """Interval, contamination and belief models with ties, degenerate
    bounds and near-duplicate vertices, on spaces whose label order is
    not their position order."""
    rng = np.random.default_rng(47)
    models = []

    def interval(space, lo, up):
        # One reachability-repair pass, as in helpers.random_prob_interval.
        lo, up = np.maximum(lo, 1.0 - (up.sum() - up)), np.minimum(up, 1.0 - (lo.sum() - lo))
        models.append(ProbInterval(space, lo, up))

    for n in range(1, 10):
        space = StateSpace([f"s{i}" for i in rng.permutation(n)])
        for _ in range(6):
            p = rng.dirichlet(np.ones(n))
            # Coarse bounds around p tie many candidates.
            scale = 10.0 ** int(rng.integers(1, 4))
            lo = np.floor(p * rng.uniform(0.0, 1.0, n) * scale) / scale
            up = np.minimum(np.ceil((p + rng.uniform(0.0, 0.4, n)) * 10) / 10, 1.0)
            fixed = rng.random(n) < 0.3
            lo[fixed] = up[fixed] = p[fixed]
            interval(space, lo, up)
        interval(space, np.full(n, 0.1 / n), np.full(n, min(1.0, 2.0 / n)))
        interval(space, np.zeros(n), np.ones(n))
        for base in (rng.dirichlet(np.ones(n)), np.full(n, 1.0 / n), np.eye(n)[0]):
            models.append(Contamination(MassFunction(space, base), float(rng.uniform(0.01, 0.99))))
        models.append(Contamination(MassFunction(space, np.eye(n)[-1]), 1e-13))
        singles = [Event(space, [x]) for x in space.labels[:3]]
        focal = [Event(space, space.labels), *singles, Event(space, space.labels[::2])]
        models.append(BeliefFunction(space, zip(focal, rng.dirichlet(np.ones(len(focal))))))
        models.append(BeliefFunction(space, [(focal[0], 0.5), (focal[0], 0.5 - 1e-13), (focal[1], 1e-13)]))
    # Near-duplicate candidates: bounds a hair apart; a signed zero; a
    # lower bound a hair above its upper bound.
    interval(ABC, np.array([0.2, 0.3, 0.3 - 1e-13]), np.array([0.4, 0.5, 0.5 - 1e-13]))
    models.append(ProbInterval(ABC, [-0.0, 0.25, 0.25], [-0.0, 0.75, 0.75]))
    models.append(ProbInterval(ABC, [0.2 + 1e-13, 0.1, 0.1], [0.2, 0.7, 0.7]))
    return models


@pytest.mark.parametrize("model", _vertex_models(), ids=lambda m: type(m).__name__)
def test_vertex_lists_equal_the_reference_enumeration(model):
    reference = {
        ProbInterval: _reference_interval_vertices,
        Contamination: _reference_contamination_vertices,
        BeliefFunction: _reference_belief_vertices,
    }[type(model)]
    want = reference(model)
    got = model.vertices()
    assert [v.weights.tobytes() for v in got] == [v.weights.tobytes() for v in want]
    assert all(v.space is model.space and not v.weights.flags.writeable for v in got)


def test_repeated_candidates_are_built_once(monkeypatch):
    # ROW_B's nine feasible bound patterns hold three distinct rows, and
    # each distinct row is one vertex.
    calls = []

    def counting(space, w):
        calls.append(w.tobytes())
        return MassFunction(space, w)

    monkeypatch.setattr(credal, "MassFunction", counting)
    vertices = ROW_B.vertices()
    assert len(calls) == len(set(calls)) == len(vertices) == 3
