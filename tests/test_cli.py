import argparse
import csv
import io
import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest

from credalmc import (
    Contamination,
    CredalValidationError,
    ImpreciseMarkovChain,
    ProbInterval,
    StateSpace,
    UpperTransitionOperator,
    oracle,
)
from credalmc import chain as chain_module
from credalmc.cli import (
    EMIT_BLOCK,
    ScenarioError,
    _column,
    _emit,
    bundled_scenario_path,
    cmd_credal_approx,
    cmd_evolve,
    load_bundled,
    load_scenario,
    main,
    model_to_json,
    parse_gamble,
    scenario_from_json,
    scenario_to_json,
)
from helpers import random_gamble, six_family_chain


def test_bundled_example_5_3_shape():
    sc = load_bundled("example_5_3")
    assert sc.space.labels == ("a", "b")
    assert isinstance(sc.initial, ProbInterval)
    assert list(sc.initial.lower_mass) == [0.6, 0.1]
    assert list(sc.initial.upper_mass) == [0.9, 0.4]
    rows = sc.transitions.rows
    assert all(isinstance(r, Contamination) for r in rows)
    assert list(rows[0].base.weights) == [0.15, 0.85]


def test_bundled_example_5_4_matrices():
    sc = load_bundled("example_5_4")
    rows = sc.transitions.rows
    assert list(rows[1].lower_mass) == pytest.approx([0.72, 0.09, 0.09])
    assert list(rows[1].upper_mass) == pytest.approx([0.77, 0.14, 0.14])


def test_unknown_model_type_is_schema_error(tmp_path):
    doc = {
        "states": ["a", "b"],
        "initial": {"type": "frobnitz"},
        "transition": {"type": "matrix", "matrix": [[0.5, 0.5], [0.5, 0.5]]},
        "horizon": 2,
    }
    with pytest.raises(ScenarioError) as exc:
        scenario_from_json(doc)
    assert exc.value.code == "schema-error"
    assert "initial" in str(exc.value)


def test_credal_validation_surfaced():
    doc = {
        "states": ["a", "b"],
        "initial": {"type": "prob_interval", "lower": [0.6, 0.6], "upper": [0.9, 0.9]},
        "transition": {"type": "matrix", "matrix": [[0.5, 0.5], [0.5, 0.5]]},
        "horizon": 2,
    }
    with pytest.raises(CredalValidationError) as exc:
        scenario_from_json(doc)
    assert exc.value.code == "empty-credal-set"


def test_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(p))
    assert exc.value.code == "parse-error"


def test_round_trip_preserves_queries():
    chain = load_bundled("example_5_3")
    doc = scenario_to_json(chain)
    chain2 = scenario_from_json(json.loads(json.dumps(doc)))
    rng = np.random.default_rng(131)
    for _ in range(10):
        h = random_gamble(rng, chain.space)
        n = int(rng.integers(1, chain.horizon + 1))
        assert chain.marginal_upper(n, h) == pytest.approx(
            chain2.marginal_upper(n, h), abs=1e-12
        )


def test_round_trip_all_bundled():
    for name in (
        "example_5_1",
        "example_5_2",
        "example_5_3",
        "example_5_3_n2",
        "example_5_3_precise",
        "example_5_4",
    ):
        sc = load_bundled(name)
        sc2 = scenario_from_json(scenario_to_json(sc))
        rng = np.random.default_rng(137)
        h = random_gamble(rng, sc.space)
        assert sc.marginal_upper(sc.horizon, h) == pytest.approx(
            sc2.marginal_upper(sc.horizon, h), abs=1e-12
        )


# One row per model family under `rows`, then every operator shorthand.
EVERY_TAG_DOC = {
    "states": ["a", "b", "c"],
    "initial": {"type": "linear", "mass": [0.5, 0.3, 0.2]},
    "transition": [
        {
            "type": "rows",
            "rows": [
                {"type": "linear", "mass": [0.2, 0.5, 0.3]},
                {"type": "vacuous"},
                {"type": "vertices", "points": [[0.6, 0.4, 0.0], [0.1, 0.1, 0.8]]},
            ],
        },
        {
            "type": "rows",
            "rows": [
                {"type": "contamination", "base": [0.7, 0.2, 0.1], "epsilon": 0.2},
                {
                    "type": "belief",
                    "focal": [
                        {"members": ["a"], "mass": 0.5},
                        {"members": ["b", "c"], "mass": 0.3},
                        {"members": ["a", "b", "c"], "mass": 0.2},
                    ],
                },
                {
                    "type": "prob_interval",
                    "lower": [0.1, 0.2, 0.3],
                    "upper": [0.4, 0.5, 0.6],
                },
            ],
        },
        {
            "type": "matrix",
            "matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
        },
        {
            "type": "contamination",
            "matrix": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
            "epsilon": 0.1,
        },
        {
            "type": "interval",
            "lower": [[0.1, 0.2, 0.3], [0.3, 0.3, 0.1], [0.0, 0.0, 0.5]],
            "upper": [[0.4, 0.5, 0.6], [0.5, 0.5, 0.3], [0.5, 0.5, 1.0]],
        },
    ],
    "horizon": 6,
    "queries": [{"command": "evolve", "event": "a"}],
}


def test_round_trip_every_tag():
    chain = scenario_from_json(EVERY_TAG_DOC)
    doc = scenario_to_json(chain)
    chain2 = scenario_from_json(json.loads(json.dumps(doc)))
    assert scenario_to_json(chain2) == doc
    assert "queries" in EVERY_TAG_DOC and "queries" not in doc  # read, not kept
    tags = [row["type"] for op in doc["transition"] for row in op["rows"]]
    assert tags == [
        "linear", "vacuous", "vertices", "contamination", "belief", "prob_interval",
        *["linear"] * 3, *["contamination"] * 3, *["prob_interval"] * 3,
    ]
    for x in chain.space:
        ind = chain.space.indicator([x])
        for n in range(1, chain.horizon + 1):
            assert chain2.marginal_lower(n, ind) == chain.marginal_lower(n, ind)
            assert chain2.marginal_upper(n, ind) == chain.marginal_upper(n, ind)
    with pytest.raises(TypeError):
        model_to_json(object())


def test_parse_gamble_defaults_to_zero():
    sc = load_bundled("example_5_3")
    g = parse_gamble(sc.space, "a:1")
    assert list(g.values) == [1.0, 0.0]
    with pytest.raises(ScenarioError):
        parse_gamble(sc.space, "z:1")


def test_parse_gamble_refuses_duplicates_and_empty_text():
    space = load_bundled("example_5_3").space
    with pytest.raises(ScenarioError, match="duplicate gamble entry"):
        parse_gamble(space, "a:1, a:2")
    for text in ("", " ", ",", " , "):
        with pytest.raises(ScenarioError, match="no label:value entry"):
            parse_gamble(space, text)
    assert list(parse_gamble(space, "a:0").values) == [0.0, 0.0]
    assert list(parse_gamble(space, "b:2,").values) == [0.0, 2.0]


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_evolve_first_row(capsys):
    path = str(bundled_scenario_path("example_5_3"))
    code, out, _ = _run(capsys, "evolve", path, "--event", "a")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,lower,upper"
    assert lines[1] == "1,0.6,0.9"
    assert lines[2].startswith("2,0.198,0.487")


def test_limit_command_value(capsys):
    path = str(bundled_scenario_path("example_5_3"))
    code, out, _ = _run(capsys, "limit", path, "--gamble", "a:1,b:0")
    assert code == 0
    value = float(out.splitlines()[1].split(",")[0])
    assert value == pytest.approx(0.5 + 0.05 / 0.37, abs=1e-6)


def test_limit_on_a_cycle_exits_3_at_the_repeat(capsys, tmp_path):
    # Iterate 2 repeats iterate 0, so `limit` stops there, not at --max-iter.
    doc = {
        "states": ["a", "b"],
        "initial": {"type": "vacuous"},
        "transition": {"type": "matrix", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
        "horizon": 2,
    }
    p = tmp_path / "cycle.json"
    p.write_text(json.dumps(doc))
    assert _run(capsys, "limit", str(p), "--gamble", "a:1") == (
        3,
        "",
        "error:ConvergenceError: oscillation still 1.000e+00 after 2 iterations: "
        "the iterates cycle with period 2 and have no limit (the library function "
        "credalmc.detect_cycle finds the cycle)\n",
    )


def test_regularity_command(capsys):
    path = str(bundled_scenario_path("example_5_4"))
    code, out, _ = _run(capsys, "regularity", path)
    assert code == 0
    verdict, n = out.splitlines()[1].split(",")
    assert verdict == "found" and int(n) <= 9


def test_regularity_not_found(capsys, tmp_path):
    doc = {
        "states": ["a", "b"],
        "initial": {"type": "vacuous"},
        "transition": {"type": "matrix", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
        "horizon": 3,
    }
    p = tmp_path / "cycle.json"
    p.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "regularity", str(p))
    assert code == 0
    assert out.splitlines()[1] == "not_found,2"


def test_regularity_finds_the_wielandt_matrix_at_the_bound(capsys, tmp_path):
    # Wielandt's matrix on 4 states is regular at exactly (4 - 1)**2 + 1.
    doc = {
        "states": ["a", "b", "c", "d"],
        "initial": {"type": "vacuous"},
        "transition": {
            "type": "matrix",
            "matrix": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0.5, 0.5, 0, 0]],
        },
        "horizon": 3,
    }
    p = tmp_path / "wielandt.json"
    p.write_text(json.dumps(doc))
    assert _run(capsys, "regularity", str(p)) == (0, "verdict,n\nfound,10\n", "")


def test_regularity_refuses_an_n_max_flag(capsys):
    path = str(bundled_scenario_path("example_5_4"))
    with pytest.raises(SystemExit) as caught:
        main(["regularity", path, "--n-max", "5"])
    assert caught.value.code == 2
    assert "unrecognized arguments: --n-max 5" in capsys.readouterr().err


def test_regularity_counts_a_tiny_positive_mass(capsys, tmp_path):
    # T^2 I_b(b) = 1e-13 is positive, so the chain is regular at n = 2.
    doc = {
        "states": ["a", "b"],
        "initial": {"type": "vacuous"},
        "transition": {"type": "matrix", "matrix": [[1 - 1e-13, 1e-13], [1.0, 0.0]]},
        "horizon": 3,
    }
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(doc))
    assert _run(capsys, "regularity", str(p)) == (0, "verdict,n\nfound,2\n", "")


def test_joint_command(capsys):
    path = str(bundled_scenario_path("example_5_3_n2"))
    code, out, _ = _run(capsys, "joint", path)
    assert code == 0
    rows = dict(
        (line.split(",")[0], line.split(",")[1:]) for line in out.splitlines()[1:]
    )
    lo, up = map(float, rows["a>a"])
    assert up == pytest.approx(0.2115)
    assert lo == pytest.approx(0.081)


def test_credal_approx_command(capsys):
    path = str(bundled_scenario_path("example_5_3"))
    code, out, _ = _run(capsys, "credal-approx", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,state,lower,upper"
    assert lines[1] == "1,a,0.6,0.9"
    assert len(lines) == 1 + 25 * 2


def test_verify_command_small_gaps(capsys):
    path = str(bundled_scenario_path("example_5_3_n2"))
    code, out, _ = _run(capsys, "verify", path)
    assert code == 0
    for line in out.splitlines()[1:]:
        gap = float(line.split(",")[-1])
        assert gap <= 1e-10


VERIFY_N2_SEED0 = [
    "a>a,0.081,0.2115,0.081,0.2115",
    "a>b,0.459,0.7785,0.459,0.7785",
    "b>a,0.0765,0.346,0.0765,0.346",
    "b>b,0.0135,0.094,0.0135,0.094",
    "random[0],-0.588590605639,-0.35153423561,-0.588590605639,-0.35153423561",
    "random[1],0.565829412813,0.745886714006,0.565829412813,0.745886714006",
    "random[2],0.511515945785,0.729225241131,0.511515945785,0.729225241131",
]


def test_verify_golden_rows(capsys):
    path = str(bundled_scenario_path("example_5_3_n2"))
    code, out, _ = _run(capsys, "verify", path, "--seed", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "query,engine_lower,engine_upper,oracle_lower,oracle_upper,gap"
    # The gap column is round-off noise, so only its size is pinned.
    assert [line.rsplit(",", 1)[0] for line in lines[1:]] == VERIFY_N2_SEED0
    assert all(float(line.rsplit(",", 1)[1]) <= 1e-10 for line in lines[1:])


def test_verify_enumerates_the_trees_once(capsys, monkeypatch):
    trees = []
    inner = oracle._sum_product

    def counted(table, steps):
        trees.append(len(table))  # one block of trees
        return inner(table, steps)

    monkeypatch.setattr(oracle, "_sum_product", counted)
    path = str(bundled_scenario_path("example_5_3_n2"))
    code, _, _ = _run(capsys, "verify", path)
    assert code == 0
    chain = load_bundled("example_5_3_n2")
    assert sum(trees) == oracle.count_assignments(chain, 2)


def test_verify_folds_only_the_random_gambles(capsys, monkeypatch, tmp_path):
    shapes, steps, lengths = [], [], []
    apply_many = UpperTransitionOperator.apply_many
    step = chain_module._step
    path_mass_bounds = ImpreciseMarkovChain.path_mass_bounds

    def counted_apply(self, H):
        shapes.append(H.shape)
        return apply_many(self, H)

    def counted_step(plan, H, out=None):
        steps.append(H.shape)
        return step(plan, H, out)

    def counted_masses(self, length):
        lengths.append(length)
        return path_mass_bounds(self, length)

    monkeypatch.setattr(UpperTransitionOperator, "apply_many", counted_apply)
    monkeypatch.setattr(chain_module, "_step", counted_step)
    monkeypatch.setattr(ImpreciseMarkovChain, "path_mass_bounds", counted_masses)
    doc = json.loads(bundled_scenario_path("example_5_3").read_text())
    doc["horizon"] = 3
    h3 = tmp_path / "example_5_3_h3.json"
    h3.write_text(json.dumps(doc))
    for path, horizon in [(bundled_scenario_path("example_5_3_n2"), 2), (h3, 3)]:
        code, _, _ = _run(capsys, "verify", str(path))
        assert code == 0
        # Path rows read the tables `joint` prints, built in one call from
        # the operator's one-step tables (one `apply_many` on the s = 2
        # indicators and their negations).  The three random gambles and
        # their negations fold in one batch: H - 1 steps, the first on
        # all 6 * 2^(H - 1) (gamble, history) slices.
        assert shapes == [(2, 4)]
        assert steps == [(2, 6 * 2**k) for k in range(horizon - 1, 0, -1)]
        assert lengths == [horizon]
        shapes.clear()
        steps.clear()
        lengths.clear()


def test_joint_builds_the_path_tables_once(capsys, monkeypatch):
    calls = []
    inner = ImpreciseMarkovChain.path_mass_bounds

    def counted(self, *args):
        calls.append(args)
        return inner(self, *args)

    monkeypatch.setattr(ImpreciseMarkovChain, "path_mass_bounds", counted)
    code, out, _ = _run(capsys, "joint", str(bundled_scenario_path("example_5_3_n2")))
    assert code == 0
    assert len(out.splitlines()) == 1 + 2**2
    assert calls == [(2,)]


def test_verify_at_the_path_guard_holds_no_path_table(capsys, tmp_path):
    doc = json.loads(bundled_scenario_path("example_5_3_precise").read_text())
    doc["horizon"] = 12  # 4096 paths, the path guard; one tree
    p = tmp_path / "precise_h12.json"
    p.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, out, _ = _run(capsys, "verify", str(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(out.splitlines()) == 1 + 2**12 + 3
    # One 4096 x 4096 float table is 128 MiB.
    assert peak < 32 * 2**20


@pytest.mark.parametrize("argv", [("evolve", "--event", "a"), ("credal-approx",)])
def test_zero_bounds_print_without_sign(capsys, argv):
    path = str(bundled_scenario_path("example_5_1"))
    code, out, _ = _run(capsys, argv[0], path, *argv[1:])
    assert code == 0
    cells = [cell for line in out.splitlines()[1:] for cell in line.split(",")]
    assert "0" in cells and "-0" not in cells


VACUOUS = {"type": "vacuous"}


def _two_state(tmp_path, initial, row_a, row_b):
    """A two-state scenario at horizon 2 with transition rows a and b."""
    doc = {
        "states": ["a", "b"],
        "initial": initial,
        "transition": {"type": "rows", "rows": [row_a, row_b]},
        "horizon": 2,
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _belief(*focal):
    return {"type": "belief", "focal": [{"members": m, "mass": w} for m, w in focal]}


HALVES_ABOVE_ONE = _belief((["a"], 0.5), (["b"], 0.5000000009))


def test_belief_masses_within_tolerance_of_one_print_one(capsys, tmp_path):
    path = _two_state(tmp_path, HALVES_ABOVE_ONE, HALVES_ABOVE_ONE, VACUOUS)
    code, out, _ = _run(capsys, "evolve", path, "--event", "a,b")
    assert code == 0
    assert out.splitlines()[1:] == ["1,1,1", "2,1,1"]


def test_belief_row_verifies_against_the_oracle_without_a_gap(capsys, tmp_path):
    linear = {"type": "linear", "mass": [0.3, 0.7]}
    path = _two_state(tmp_path, VACUOUS, HALVES_ABOVE_ONE, linear)
    code, out, _ = _run(capsys, "verify", path)
    assert code == 0
    gaps = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    assert gaps[:4] == ["0"] * 4  # the four paths
    assert all(float(gap) <= 1e-15 for gap in gaps[4:])


@pytest.mark.parametrize(
    "model",
    [
        _belief((["a"], -1e-13), (["a", "b"], 1.0000000000001)),
        {"type": "prob_interval", "lower": [-1e-13, 0.2], "upper": [0.8, 1.0]},
    ],
    ids=["belief", "interval"],
)
def test_masses_a_hair_below_zero_print_no_negative_bound(capsys, tmp_path, model):
    path = _two_state(tmp_path, model, model, VACUOUS)
    code, out, _ = _run(capsys, "evolve", path, "--event", "a")
    assert code == 0
    lines = out.splitlines()[1:]
    assert [line.split(",")[1] for line in lines] == ["0", "0"]
    assert not any(cell.startswith("-") for line in lines for cell in line.split(","))


@pytest.mark.parametrize(
    "argv",
    [
        ("joint", "example_5_3"),
        ("joint", "example_5_4"),
        ("verify", "example_5_3_precise"),
    ],
    ids=["joint-2^25", "joint-3^60", "verify-2^25"],
)
def test_path_enumeration_guard_exits_3(capsys, argv):
    command, name = argv
    t0 = time.perf_counter()
    code, out, err = _run(capsys, command, str(bundled_scenario_path(name)))
    assert time.perf_counter() - t0 < 5.0
    assert code == 3
    assert out == ""
    assert err.startswith("error:SizeGuardError:")


def test_verify_tree_guard_exits_3_quickly(capsys, tmp_path):
    doc = json.loads(bundled_scenario_path("example_5_4").read_text())
    doc["horizon"] = 3  # 3,188,646 trees: past oracle.ASSIGNMENT_GUARD
    p = tmp_path / "ex54_h3.json"
    p.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code, out, err = _run(capsys, "verify", str(p))
    assert time.perf_counter() - t0 < 5.0
    assert code == 3
    assert out == ""
    assert err.startswith("error:SizeGuardError:")


def test_byte_stable_output(capsys):
    path = str(bundled_scenario_path("example_5_3"))
    _, out1, _ = _run(capsys, "evolve", path, "--event", "a")
    _, out2, _ = _run(capsys, "evolve", path, "--event", "a")
    assert out1 == out2


def _emit_reference(header, rows) -> str:
    """The emitter `_emit` replaced: `csv.writer` over one `.12g` or
    `str` call per cell."""

    def fmt(v):
        if isinstance(v, float):
            return f"{v + 0.0:.12g}"
        return str(v)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


_LABELS = [
    "a,b", 'q"x', "two\nlines", "cr\rhere", " lead", "trail ", "", "ünï ✓ 状态",
    "plain", ',"\r\n', "%s %d %%", '"',
]
_FLOATS = [
    -0.0, 5e-324, 1e16, 0.1 + 0.2, np.float64(-2.5), -1e-300, 1.0, float("inf"),
    -float("inf"), float("nan"), np.float64(-0.0), 123456789012.5,
]
_INTS = [0, -3, np.int64(7), 10**13, np.int64(-(10**13)), True, 10**30, 42, 1, 2, 3, 4]


def test_integer_columns_print_with_d_and_bools_and_strings_with_str():
    # Integers skip `str`, the join and the CSV scan; a bool is an int to
    # Python, but `%d` would print True as 1, so bools keep `str`.
    assert _column(np.arange(3)) == ("%d", [0, 1, 2])
    assert _column(np.array([7], dtype=np.uint8)) == ("%d", [7])
    assert _column([12, -3, 10**30]) == ("%d", [12, -3, 10**30])
    assert _column(np.array([True, False])) == ("%s", ["True", "False"])
    assert _column([True]) == ("%s", ["True"])
    assert _column([1, True, np.int64(2)]) == ("%s", ["1", "True", "2"])
    assert _column(["found"]) == ("%s", ["found"])
    assert _column(["a,b", "c"]) == ("%s", ['"a,b"', "c"])


@pytest.mark.parametrize("arrays", [False, True], ids=["lists", "arrays"])
def test_emit_writes_what_csv_writer_writes(arrays):
    header = ["path,x", 'q"', "n", "value", "label "]
    columns = [_LABELS, _LABELS[::-1], _INTS, _FLOATS, list(range(len(_LABELS)))]
    if arrays:
        columns = [
            columns[0],
            np.array(columns[1]),
            np.array([0, -3, 7, 10**13, -(10**13), 1] * 2),
            np.array(_FLOATS),
            np.arange(len(_LABELS)),
        ]
    rows = [list(row) for row in zip(*columns)]
    out = io.StringIO()
    _emit(header, columns, out)
    assert out.getvalue() == _emit_reference(header, rows)
    # An empty table prints its header alone.
    out = io.StringIO()
    _emit(header, [[] for _ in header], out)
    assert out.getvalue() == _emit_reference(header, [])


def test_emit_spans_row_blocks():
    rng = np.random.default_rng(257)
    n = 2 * EMIT_BLOCK + 5
    labels = [f"p{i}" if i % 7 else f"p,{i}" for i in range(n)]
    # Each block decides its own quoting: these columns hold a CSV special
    # only in the first block and only in the last one.
    first = [f"f{i}" for i in range(n)]
    first[3] = 'q"x'
    last = [f"l{i}" for i in range(n)]
    last[-1] = "two\nlines"
    values = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.integers(-20, 20, size=n)
    values[::11] = -0.0
    header = ["path", "first", "last", "n", "lower", "upper"]
    columns = [labels, first, last, np.arange(n), values, -values]
    out = io.StringIO()
    _emit(header, columns, out)
    floats = values.tolist(), (-values).tolist()
    rows = [list(row) for row in zip(labels, first, last, range(n), *floats)]
    assert out.getvalue() == _emit_reference(header, rows)


@pytest.mark.parametrize("arrays", [False, True], ids=["lists", "arrays"])
@pytest.mark.parametrize("lengths", [(1030, 1024), (1024, 1030)])
def test_emit_refuses_columns_of_unequal_length(arrays, lengths):
    # The lengths first differ in the second block, after one block is written.
    columns = [np.arange(m) if arrays else list(range(m)) for m in lengths]
    with pytest.raises(ValueError):
        _emit(["a", "b"], columns, io.StringIO())


def test_emit_holds_one_block_at_a_time():
    doc = json.loads(bundled_scenario_path("example_5_4").read_text())
    chain = scenario_from_json({**doc, "horizon": 50_000})
    header, columns = cmd_credal_approx(chain, argparse.Namespace())

    class Null:
        def write(self, text):
            pass

    tracemalloc.start()
    try:
        _emit(header, columns, Null())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 150,000 rows of four cells: one list of every cell would hold 4.8 MB
    # of pointers alone.
    assert peak < 2 * 2**20


@pytest.mark.parametrize("command", ["joint", "credal-approx", "verify"])
def test_labels_with_csv_specials_round_trip(capsys, tmp_path, command):
    labels = ["a,b", 'q"x']
    p = tmp_path / "specials.json"
    p.write_text(json.dumps({**_VALID_DOC, "states": labels}))
    code, out, _ = _run(capsys, command, str(p))
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    paths = [">".join(path) for path in itertools.product(labels, repeat=3)]
    if command == "credal-approx":
        assert [row[1] for row in rows] == labels * 3
    elif command == "joint":
        assert [row[0] for row in rows] == paths
    else:
        assert [row[0] for row in rows] == paths + [f"random[{j}]" for j in range(3)]
        assert all(float(row[-1]) <= 1e-9 for row in rows)


def test_cli_error_paths(capsys, tmp_path):
    code, _, err = _run(capsys, "evolve", str(tmp_path / "missing.json"))
    assert code != 0 and err.startswith("error:")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"states": ["a", "a"]}))
    code, _, err = _run(capsys, "evolve", str(bad), "--event", "a")
    assert code != 0 and "error:schema-error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("evolve", "example_5_3", "--event", "zz"),
        ("evolve", "example_5_3", "--event", "a,,b"),
        ("joint", "example_5_3_n2", "--length", "4"),
        ("joint", "example_5_3_n2", "--length", "0"),
        ("limit", "example_5_3", "--gamble", "a:1", "--tol", "0"),
        ("limit", "example_5_3", "--gamble", "a:1", "--tol", "-1"),
        ("limit", "example_5_3", "--gamble", "a:nan"),
        ("limit", "example_5_3", "--gamble", "a:inf"),
        ("limit", "example_5_3", "--gamble", "a:1", "--max-iter", "-1"),
        ("evolve", "example_5_3"),
        ("limit", "example_5_3"),
        ("limit", "example_5_3", "--gamble", "a:1,a:2"),
        ("limit", "example_5_3", "--gamble", " "),
        ("limit", "example_5_3", "--gamble", ","),
    ],
    ids=[
        "unknown-event",
        "empty-event-label",
        "length-above-horizon",
        "length-zero",
        "tol-zero",
        "tol-negative",
        "gamble-nan",
        "gamble-inf",
        "max-iter-negative",
        "evolve-without-event",
        "limit-without-gamble",
        "gamble-duplicate-label",
        "gamble-blank",
        "gamble-only-comma",
    ],
)
def test_cli_input_errors_exit_2(capsys, argv):
    command, name, *flags = argv
    code, out, err = _run(capsys, command, str(bundled_scenario_path(name)), *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error:schema-error:")


def test_joint_length_defaults_to_horizon(capsys):
    path = str(bundled_scenario_path("example_5_3_n2"))
    _, full, _ = _run(capsys, "joint", path)
    _, explicit, _ = _run(capsys, "joint", path, "--length", "2")
    assert full == explicit
    assert len(full.splitlines()) == 1 + 4


_VALID_DOC = {
    "states": ["a", "b"],
    "initial": {"type": "vacuous"},
    "transition": {"type": "matrix", "matrix": [[0.5, 0.5], [0.5, 0.5]]},
    "horizon": 3,
}


@pytest.mark.parametrize(
    ("patch", "where"),
    [
        ({"initial": {"type": "belief", "focal": 5}}, "initial"),
        ({"initial": {"type": "belief", "focal": [5]}}, "initial"),
        ({"initial": {"type": "vertices", "points": 5}}, "initial"),
        ({"transition": {"type": "rows", "rows": 5}}, "transition"),
        ({"states": 5}, "scenario"),
        ({"queries": 5}, "scenario"),
        ({"horizon": True}, "scenario"),
        ({"states": "ab"}, "scenario"),
        ({"queries": "xy"}, "scenario"),
        ({"transition": [_VALID_DOC["transition"]]}, "scenario"),
        (
            {"initial": {"type": "belief", "focal": [{"members": "ab", "mass": 1.0}]}},
            "initial",
        ),
        ({"initial": 5}, "initial"),
        ({"states": [1, 2]}, "scenario"),
        ({"states": ["a", None]}, "scenario"),
        ({"states": ["a", "a>a"]}, "scenario"),
        (
            {"transition": {"type": "interval", "lower": [[0.4, 0.4]] * 2, "upper": [[0.6, 0.6]] * 3}},
            "transition",
        ),
        (
            {"transition": {"type": "interval", "lower": [[0.4, 0.4]] * 3, "upper": [[0.6, 0.6]] * 2}},
            "transition",
        ),
    ],
    ids=["focal-int", "focal-entry-int", "points-int", "rows-int", "states-int",
         "queries-int", "horizon-bool", "states-str", "queries-str",
         "transition-list-length", "members-str", "initial-int", "states-int-labels",
         "states-null-label", "states-path-separator", "interval-upper-longer",
         "interval-lower-longer"],
)
def test_malformed_scenario_exits_2(capsys, tmp_path, patch, where):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**_VALID_DOC, **patch}))
    code, out, err = _run(capsys, "evolve", str(p), "--event", "a")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error:schema-error: {where}: ")


def _linear(mass):
    return {"type": "linear", "mass": mass}


def _vertices(*points):
    return {"type": "vertices", "points": list(points)}


def _contamination(base, epsilon):
    return {"type": "contamination", "base": base, "epsilon": epsilon}


_ROWS_ABC_OK = {"type": "rows", "rows": [_linear([0.2, 0.3, 0.5])] * 3}


@pytest.mark.parametrize(
    ("patch", "err"),
    [
        (
            {"transition": {"type": "rows", "rows": [_linear([0.5, 0.5]), _linear([0.7, 0.7])]}},
            "error:schema-error: transition.rows[1]: weights sum to 1.4, not 1\n",
        ),
        (
            {"transition": {"type": "rows", "rows": [_linear([0.5, 0.5]), _linear([0.2, 0.3, 0.5])]}},
            "error:schema-error: transition.rows[1]: weights must have shape (2,), got (3,)\n",
        ),
        (
            {"transition": {"type": "rows", "rows": [_vertices([0.5, 0.5]), _vertices([0.5, 0.5], [float("nan"), 0.5])]}},
            "error:schema-error: transition.rows[1]: weights outside [0, 1]: [nan 0.5]\n",
        ),
        (
            {"transition": {"type": "rows", "rows": [_linear([0.5, 0.5]), {"type": "linear", "base": [0.5, 0.5]}]}},
            "error:schema-error: transition.rows[1]: missing or unknown 'mass'\n",
        ),
        (
            {"transition": {"type": "rows", "rows": [_contamination([0.5, 0.5], 0.1), _contamination([0.5, 0.5], 1.5)]}},
            "error:epsilon-out-of-range: transition.rows[1]: contamination epsilon must lie in (0, 1), "
            "got 1.5\n",
        ),
        (
            {"transition": {"type": "rows", "rows": [_vertices([0.5, 0.5]), _vertices()]}},
            "error:empty-credal-set: transition.rows[1]: vertex list must be nonempty\n",
        ),
        (
            {"transition": {"type": "matrix", "matrix": [[0.5, 0.5], [0.7, 0.7]]}},
            "error:schema-error: transition: weights sum to 1.4, not 1\n",
        ),
        (
            {
                "states": ["a", "b", "c"],
                "transition": [
                    _ROWS_ABC_OK,
                    {"type": "rows", "rows": [_linear([0.2, 0.3, 0.5])] * 2 + [_linear([0.7, 0.7, 0.0])]},
                ],
            },
            "error:schema-error: transition[1].rows[2]: weights sum to 1.4, not 1\n",
        ),
        # Rows in two families: the error of the first bad row wins.
        (
            {"transition": {"type": "rows", "rows": [_vertices([0.5, 0.6]), _linear([0.7, 0.7])]}},
            "error:schema-error: transition.rows[0]: weights sum to 1.1, not 1\n",
        ),
        (
            {"transition": {"type": "rows", "rows": [_vertices([[0.5], [0.5]]), _linear([0.5, 0.5])]}},
            "error:schema-error: transition.rows[0]: weights must have shape (2,), got (2, 1)\n",
        ),
        (
            {"transition": {"type": "rows", "rows": [_contamination([0.5, 0.5], None), _linear([0.5, 0.5])]}},
            "error:schema-error: transition.rows[0]: contamination epsilon must be a number, "
            "got None\n",
        ),
        (
            {"transition": {"type": "rows", "rows": [_linear([0.5, 0.5]), 5]}},
            "error:schema-error: transition.rows[1]: expected an object, got int\n",
        ),
        (
            {"transition": {"type": "rows", "rows": [_linear([0.5, 0.5])]}},
            "error:schema-error: transition: need one row model per state: 1 != 2\n",
        ),
        # A contamination operator checks row 0's base before its epsilon.
        (
            {"transition": {"type": "contamination", "matrix": [[0.5, 0.5], [0.7, 0.7]], "epsilon": 1.5}},
            "error:epsilon-out-of-range: transition: contamination epsilon must lie in (0, 1), got 1.5\n",
        ),
        (
            {"transition": {"type": "contamination", "matrix": [[0.7, 0.7], [0.5, 0.5]], "epsilon": None}},
            "error:schema-error: transition: weights sum to 1.4, not 1\n",
        ),
        (
            {"transition": {"type": "contamination", "matrix": [[0.5, 0.5], [0.7, 0.7]], "epsilon": 0.5}},
            "error:schema-error: transition: weights sum to 1.4, not 1\n",
        ),
        (
            {"transition": {"type": "contamination", "matrix": [[0.5, 0.5], [0.7, 0.7]], "epsilon": [0.1]}},
            "error:schema-error: transition: contamination epsilon must be a number, got [0.1]\n",
        ),
        (
            {"transition": {"type": "matrix", "matrix": 5}},
            "error:schema-error: transition: 'int' object is not iterable\n",
        ),
        (
            {"transition": {"type": "matrix", "matrix": [0.5, 0.5]}},
            "error:schema-error: transition: weights must have shape (2,), got ()\n",
        ),
        (
            {"transition": {"type": "matrix", "matrix": []}},
            "error:schema-error: transition: need one row model per state: 0 != 2\n",
        ),
        (
            {"transition": {"type": "matrix", "matrix": [[0.5, 0.5]] * 3}},
            "error:schema-error: transition: need one row model per state: 3 != 2\n",
        ),
        # A string or a bool where a number is stored is refused, not
        # parsed ("0.5" -> 0.5) or coerced (True -> 1.0).
        (
            {"transition": {"type": "contamination", "matrix": [[0.5, 0.5]] * 2, "epsilon": "0.1"}},
            "error:schema-error: transition: contamination epsilon must be a number, got '0.1'\n",
        ),
        (
            {"transition": {"type": "rows", "rows": [_linear([0.5, 0.5]), _contamination([0.5, 0.5], True)]}},
            "error:schema-error: transition.rows[1]: contamination epsilon must be a number, "
            "got True\n",
        ),
        (
            {"initial": {"type": "belief", "focal": [{"members": ["a"], "mass": "0.5"},
                                                     {"members": ["b"], "mass": 0.5}]}},
            "error:schema-error: initial: focal masses must be numbers, got '0.5'\n",
        ),
        (
            {"initial": {"type": "prob_interval", "lower": ["0.6", "0.1"], "upper": [0.9, 0.4]}},
            "error:schema-error: initial: interval bounds must be numbers, got '0.6'\n",
        ),
        (
            {"transition": {"type": "interval", "lower": [[0.4, 0.4]] * 2, "upper": [[0.6, 0.6], [0.6, "0.6"]]}},
            "error:schema-error: transition: interval bounds must be numbers, got '0.6'\n",
        ),
        (
            {"transition": {"type": "matrix", "matrix": [[0.5, 0.5], ["0.5", "0.5"]]}},
            "error:schema-error: transition: weights must be numbers, got '0.5'\n",
        ),
        (
            {"initial": _linear([True, False])},
            "error:schema-error: initial: weights must be numbers, got True\n",
        ),
        (
            {"transition": {"type": "rows", "rows": [_linear([0.5, 0.5]), _vertices([0.5, 0.5], [True, 0.0])]}},
            "error:schema-error: transition.rows[1]: weights must be numbers, got True\n",
        ),
    ],
    ids=["linear-sum", "linear-width", "vertices-nan", "linear-missing-mass",
         "contamination-epsilon", "vertices-empty", "matrix-row", "per-step-row",
         "two-families", "vertices-nested", "epsilon-null", "row-not-object",
         "rows-too-few", "contamination-operator-epsilon",
         "contamination-operator-base-first", "contamination-operator-row",
         "contamination-operator-epsilon-list",
         "matrix-scalar", "matrix-vector", "matrix-empty", "matrix-too-long",
         "epsilon-string", "epsilon-bool", "focal-mass-string", "interval-bound-string",
         "interval-operator-string", "matrix-row-strings", "mass-bools", "vertex-mixed-bool"],
)
def test_malformed_row_prints_the_row_by_row_error(capsys, tmp_path, patch, err):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**_VALID_DOC, **patch}))
    assert _run(capsys, "evolve", str(p), "--event", "a") == (2, "", err)


#: One malformed number array each: json.dumps writes NaN and inf as the
#: literals NaN and Infinity, which json.load reads back.
_BAD_NUMBERS = {
    "length": [0.5, 0.5, 0.0],
    "nan": [float("nan"), 0.5],
    "infinity": [float("inf"), 0.5],
    "string": ["0.5", 0.5],
    "ragged": [0.5, [0.5]],
}

_BAD_MODELS = {
    "linear": _linear,
    "vertices": lambda bad: _vertices([0.5, 0.5], bad),
    "contamination": lambda bad: _contamination(bad, 0.1),
    "interval-lower": lambda bad: {"type": "prob_interval", "lower": bad, "upper": [0.9, 0.9]},
    "interval-upper": lambda bad: {"type": "prob_interval", "lower": [0.1, 0.1], "upper": bad},
}


def _bad_number_cases():
    # Each case: the patch, the path its error names, and the message that
    # ends its error when it is certain (the rule's shape message for a
    # ragged nest of lists), else None.
    for kind, bad in _BAD_NUMBERS.items():
        for name, model in _BAD_MODELS.items():
            what = "interval bounds" if name.startswith("interval") else "weights"
            end = f"{what} must have shape (2,), got a ragged array" if kind == "ragged" else None
            rows = {"type": "rows", "rows": [_linear([0.5, 0.5]), model(bad)]}
            yield pytest.param({"transition": rows}, "transition.rows[1]", end, id=f"{name}-row-{kind}")
            yield pytest.param({"initial": model(bad)}, "initial", end, id=f"{name}-initial-{kind}")
        for side, other in (("lower", "upper"), ("upper", "lower")):
            op = {"type": "interval", side: [bad, bad], other: [[0.4, 0.6]] * 2}
            end = "interval bounds must have shape (2, 2), got a ragged array" if kind == "ragged" else None
            yield pytest.param({"transition": op}, "transition", end, id=f"interval-{side}-matrix-{kind}")
    for side, other in (("lower", "upper"), ("upper", "lower")):
        op = {"type": "interval", side: [[0.4, 0.6], [0.5, 0.5, 0.0]], other: [[0.4, 0.6]] * 2}
        end = "interval bounds must have shape (2, 2), got a ragged array"
        yield pytest.param({"transition": op}, "transition", end, id=f"interval-{side}-matrix-ragged-rows")


@pytest.mark.parametrize(("patch", "where", "end"), list(_bad_number_cases()))
def test_malformed_numbers_are_schema_errors_at_their_path(capsys, tmp_path, patch, where, end):
    # One rule reads every number array on the states: a wrong length, a
    # NaN or Infinity literal, a string and a ragged nest of lists all
    # exit 2 as schema errors that name the array's path; a ragged array
    # gets the rule's shape message, not numpy's.
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**_VALID_DOC, **patch}))
    code, out, err = _run(capsys, "evolve", str(p), "--event", "a")
    assert (code, out) == (2, "")
    assert err.startswith(f"error:schema-error: {where}: "), err
    if end is not None:
        assert err == f"error:schema-error: {where}: {end}\n"


def test_verify_refuses_a_negative_seed(capsys):
    path = str(bundled_scenario_path("example_5_3_n2"))
    code, out, err = _run(capsys, "verify", path, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error:schema-error: --seed must be >= 0, got -1\n"


def test_scenario_must_be_an_object(capsys, tmp_path):
    p = tmp_path / "list.json"
    p.write_text(json.dumps([_VALID_DOC]))
    code, out, err = _run(capsys, "evolve", str(p), "--event", "a")
    assert (code, out) == (2, "")
    assert err == "error:schema-error: scenario: expected an object, got list\n"


@pytest.mark.parametrize(
    "argv", [("limit", "--gamble", "a:1"), ("regularity",)], ids=["limit", "regularity"]
)
def test_stationary_commands_refuse_a_per_step_chain(capsys, tmp_path, argv):
    p = tmp_path / "per_step.json"
    p.write_text(json.dumps({**_VALID_DOC, "transition": [_VALID_DOC["transition"]] * 2}))
    code, out, err = _run(capsys, argv[0], str(p), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error:schema-error: this command needs a stationary")


# ----------------------------------------------------------------------
# The marginal plan behind `evolve` and `credal-approx`.


def _per_n_rows(chain, indicators, times=None):
    """[n, lower, upper] from one backward fold per n and indicator."""
    times = range(1, chain.horizon + 1) if times is None else times
    return [
        [n, chain.marginal_lower(n, ind), chain.marginal_upper(n, ind)]
        for n in times
        for ind in indicators
    ]


def _rows(table):
    """A command's columns as rows of Python numbers and strings."""
    _, columns = table
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return [list(row) for row in zip(*columns)]


def _approx_rows(chain):
    rows = _rows(cmd_credal_approx(chain, argparse.Namespace()))
    return [[n, lo, up] for n, _, lo, up in rows]


@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-step"])
@pytest.mark.parametrize("horizon", [1, 2, 9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_marginal_rows_equal_the_per_n_folds(seed, horizon, stationary):
    chain = six_family_chain(seed, horizon, stationary)
    event = ["a", "c", "f"]
    rows = _rows(cmd_evolve(chain, argparse.Namespace(event=",".join(event))))
    assert rows == _per_n_rows(chain, [chain.space.indicator(event)])
    singletons = [chain.space.indicator([x]) for x in chain.space]
    assert _approx_rows(chain) == _per_n_rows(chain, singletons)


@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-step"])
def test_marginal_rows_equal_the_per_n_folds_on_24_states(stationary):
    # From eight states on, numpy sums pairwise, so a sum that ran along
    # a strided axis of the batch would round unlike the one-column fold.
    chain = six_family_chain(4, 12, stationary, s=24)
    event = ["a", "d", "h", "m", "q", "x"]
    rows = _rows(cmd_evolve(chain, argparse.Namespace(event=",".join(event))))
    assert rows == _per_n_rows(chain, [chain.space.indicator(event)])
    singletons = [chain.space.indicator([x]) for x in chain.space]
    assert _approx_rows(chain) == _per_n_rows(chain, singletons)


def test_credal_approx_at_horizon_600_equals_the_per_n_folds():
    ex54 = load_bundled("example_5_4")
    chain = ImpreciseMarkovChain(ex54.initial, ex54.transitions, 600)
    rows = _approx_rows(chain)
    assert len(rows) == 3 * 600
    # The full per-n reference costs O(H^2) folds (about 23 s); a fold up
    # to n replays the sweep's first n - 1 steps, so sampled times,
    # the last ones included, check the table bit for bit.
    times = [1, 2, 3, *range(50, 600, 97), 598, 599, 600]
    singletons = [chain.space.indicator([x]) for x in chain.space]
    sampled = [row for row in rows if row[0] in times]
    assert sampled == _per_n_rows(chain, singletons, times)


def _count_apply_many(monkeypatch):
    calls = []
    inner = UpperTransitionOperator.apply_many

    def counted(self, *args):
        calls.append(1)
        return inner(self, *args)

    monkeypatch.setattr(UpperTransitionOperator, "apply_many", counted)
    return calls


@pytest.mark.parametrize("horizon", [1, 2, 7, 40])
def test_stationary_marginals_apply_the_operator_once_per_column_and_step(
    monkeypatch, horizon
):
    # Every column is advanced once per step, all columns in one `_step`
    # that writes into the sweep's table; no `apply_many` call is made.
    ex54 = load_bundled("example_5_4")
    chain = ImpreciseMarkovChain(ex54.initial, ex54.transitions, horizon)
    calls = _count_apply_many(monkeypatch)
    steps = []
    inner = chain_module._step

    def counted(plan, H, out=None):
        steps.append((H.shape, None if out is None else out.shape))
        return inner(plan, H, out)

    monkeypatch.setattr(chain_module, "_step", counted)
    cmd_evolve(chain, argparse.Namespace(event="a"))
    assert steps == [((3, 2), (3, 2))] * (horizon - 1)
    steps.clear()
    cmd_credal_approx(chain, argparse.Namespace())
    assert steps == [((3, 6), (3, 6))] * (horizon - 1)
    assert calls == []


@pytest.mark.parametrize("horizon", [1, 2, 7])
def test_per_step_marginals_fold_back_from_every_time(monkeypatch, horizon):
    # The folds from every time share each step operator: one `_step`
    # per step, and no `apply_many` call.
    chain = six_family_chain(3, horizon, stationary=False)
    calls = _count_apply_many(monkeypatch)
    steps = []
    inner = chain_module._step

    def counted(plan, H, out=None):
        steps.append(1)
        return inner(plan, H, out)

    monkeypatch.setattr(chain_module, "_step", counted)
    cmd_evolve(chain, argparse.Namespace(event="a"))
    assert len(steps) == horizon - 1
    steps.clear()
    cmd_credal_approx(chain, argparse.Namespace())
    assert len(steps) == horizon - 1
    assert calls == []
