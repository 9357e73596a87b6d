"""Scenario files, command dispatch and CSV emission.

Scenario schema (JSON)::

    {
      "states": ["a", "b"],
      "initial": <model>,
      "transition": <operator> | [<operator>, ...],   # list: one per step
      "horizon": 25
    }

An optional `queries` list is accepted and ignored.  The loaders return
an `ImpreciseMarkovChain`; `scenario_to_json` writes one back.

Credal models::

    {"type": "linear", "mass": [0.9, 0.1]}
    {"type": "vacuous"}
    {"type": "vertices", "points": [[0.6, 0.4], [0.9, 0.1]]}
    {"type": "contamination", "base": [0.15, 0.85], "epsilon": 0.1}
    {"type": "belief", "focal": [{"members": ["a"], "mass": 0.5}, ...]}
    {"type": "prob_interval", "lower": [0.6, 0.1], "upper": [0.9, 0.4]}

Transition operators::

    {"type": "rows", "rows": [<model>, ...]}                  # one per state
    {"type": "matrix", "matrix": [[...], ...]}                # precise
    {"type": "contamination", "matrix": [[...], ...], "epsilon": 0.1}
    {"type": "interval", "lower": [[...], ...], "upper": [[...], ...]}

Each model tag has one reader, which calls the family's row constructor
on one object.  A `rows` operator is read one row at a time through
those readers.  Every error names its path and keeps its code, as in
``error:empty-credal-set: transition[1].rows[2]: ...``.

`evolve` and `credal-approx` print the chain's `marginal_upper_table`;
only `_single_operator` and `scenario_to_json` read its transitions.

All commands print CSV with a header row on stdout; numbers carry 12
significant digits, making output byte-stable across runs.  A command
returns its table as columns; `_emit` writes each block of EMIT_BLOCK
rows from its own column slices with one %-format call, quoting labels
as `csv.writer` does.  Exit code is 0 on success; failures print
``error:<code>: message`` on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from importlib import resources
from typing import Sequence

import numpy as np

from . import oracle
from .chain import ImpreciseMarkovChain, PathGamble
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
from .limits import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ConvergenceError,
    NotRegularError,
    limit_upper,
)
from .states import Event, Gamble, MassFunction, StateSpace
from .transition import UpperTransitionOperator

class ScenarioError(CredalValidationError):
    """A scenario file failed to parse or validate; `code` names the failure."""


# ----------------------------------------------------------------------
# Deserialization


def _parse(where: str, obj, read):
    """`read(obj)` for a JSON object, with every error prefixed by `where`.

    A credal validation error keeps its code; a missing field or unknown
    tag (KeyError), a bad value (ValueError) or a wrong type (TypeError)
    is a ``schema-error``.  A scenario error, which an inner reader has
    prefixed already, passes through.
    """
    if not isinstance(obj, dict):
        raise ScenarioError(
            "schema-error", f"{where}: expected an object, got {type(obj).__name__}"
        )
    try:
        return read(obj)
    except ScenarioError:
        raise
    except CredalValidationError as exc:
        raise ScenarioError(exc.code, f"{where}: {exc}") from exc
    except KeyError as exc:
        message = f"{where}: missing or unknown {exc}"
        raise ScenarioError("schema-error", message) from exc
    except (ValueError, TypeError) as exc:
        raise ScenarioError("schema-error", f"{where}: {exc}") from exc


def _list(obj: dict, key: str) -> list:
    """`obj[key]` if it is a JSON array; a string would iterate as letters."""
    value = obj[key]
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a list, got {type(value).__name__}")
    return value


#: JSON tag -> (class, read(space, obj) -> model, write(model) -> fields).
_MODELS = {
    "linear": (
        Linear,
        lambda sp, o: Linear(MassFunction(sp, o["mass"])),
        lambda m: {"mass": list(m.mass.weights)},
    ),
    "vacuous": (Vacuous, lambda sp, o: Vacuous(sp), lambda m: {}),
    "vertices": (
        VertexSet,
        lambda sp, o: VertexSet(sp, [MassFunction(sp, p) for p in o["points"]]),
        lambda m: {"points": [list(p.weights) for p in m.points]},
    ),
    "contamination": (
        Contamination,
        lambda sp, o: Contamination(MassFunction(sp, o["base"]), o["epsilon"]),
        lambda m: {"base": list(m.base.weights), "epsilon": m.epsilon},
    ),
    "belief": (
        BeliefFunction,
        lambda sp, o: BeliefFunction(
            sp, [(Event(sp, _list(f, "members")), f["mass"]) for f in o["focal"]]
        ),
        lambda m: {
            "focal": [{"members": sorted(ev.members), "mass": w} for ev, w in m.focal]
        },
    ),
    "prob_interval": (
        ProbInterval,
        lambda sp, o: ProbInterval(sp, o["lower"], o["upper"]),
        lambda m: {"lower": list(m.lower_mass), "upper": list(m.upper_mass)},
    ),
}
_MODEL_TAGS = {cls: tag for tag, (cls, _, _) in _MODELS.items()}


def _read_rows(space: StateSpace, obj: dict, where: str) -> UpperTransitionOperator:
    """A `rows` operator, read row by row, so an error names its row."""
    rows = [model_from_json(space, r, f"{where}.rows[{i}]") for i, r in enumerate(obj["rows"])]
    return UpperTransitionOperator(space, rows)


#: JSON tag -> read(space, obj, where) -> operator.
_OPERATORS = {
    "rows": _read_rows,
    "matrix": lambda sp, o, where: UpperTransitionOperator.from_matrix(sp, o["matrix"]),
    "contamination": lambda sp, o, where: UpperTransitionOperator.contamination_of(
        sp, o["matrix"], o["epsilon"]
    ),
    "interval": lambda sp, o, where: UpperTransitionOperator.from_interval_matrices(
        sp, o["lower"], o["upper"]
    ),
}


def model_from_json(space: StateSpace, obj: dict, where: str) -> CredalModel:
    return _parse(where, obj, lambda o: _MODELS[o["type"]][1](space, o))


def operator_from_json(
    space: StateSpace, obj: dict, where: str
) -> UpperTransitionOperator:
    return _parse(where, obj, lambda o: _OPERATORS[o["type"]](space, o, where))


def _read_scenario(doc: dict) -> ImpreciseMarkovChain:
    space = StateSpace(_list(doc, "states"))
    if not all(isinstance(x, str) for x in space.labels):
        raise TypeError(f"state labels must be strings, got {list(space.labels)!r}")
    if any(">" in x for x in space.labels):
        # `_path_labels` joins labels with '>'; it must stay a separator.
        raise ValueError(f"state labels must not contain '>', got {list(space.labels)!r}")
    initial = model_from_json(space, doc["initial"], "initial")
    trans_doc = doc["transition"]
    if isinstance(trans_doc, list):
        transitions = [
            operator_from_json(space, t, f"transition[{i}]")
            for i, t in enumerate(trans_doc)
        ]
    else:
        transitions = operator_from_json(space, trans_doc, "transition")
    if "queries" in doc:
        _list(doc, "queries")  # checked for shape; nothing reads it
    return ImpreciseMarkovChain(initial, transitions, doc["horizon"])


def scenario_from_json(doc: dict) -> ImpreciseMarkovChain:
    return _parse("scenario", doc, _read_scenario)


def load_scenario(path: str) -> ImpreciseMarkovChain:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError("io-error", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError("parse-error", f"{path}: {exc}") from exc
    return scenario_from_json(doc)


def bundled_scenario_path(name: str):
    """Filesystem path of a scenario shipped with the package."""
    return resources.files("credalmc").joinpath("scenarios", f"{name}.json")


def load_bundled(name: str) -> ImpreciseMarkovChain:
    path = bundled_scenario_path(name)
    return scenario_from_json(json.loads(path.read_text()))


# ----------------------------------------------------------------------
# Serialization (round-trips through scenario_from_json)


def model_to_json(model: CredalModel) -> dict:
    tag = _MODEL_TAGS.get(type(model))
    if tag is None:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return {"type": tag, **_MODELS[tag][2](model)}


def operator_to_json(op: UpperTransitionOperator) -> dict:
    return {"type": "rows", "rows": [model_to_json(r) for r in op.rows]}


def scenario_to_json(chain: ImpreciseMarkovChain) -> dict:
    if chain.stationary:
        trans = operator_to_json(chain.transitions)
    else:
        trans = [operator_to_json(op) for op in chain.transitions]
    return {
        "states": list(chain.space.labels),
        "initial": model_to_json(chain.initial),
        "transition": trans,
        "horizon": chain.horizon,
    }


# ----------------------------------------------------------------------
# Commands


#: A command's result: the CSV header and one sequence of cells per
#: column.  The cells of a column share one type: floats (a numpy float
#: array or a list of floats) print as `.12g`, integers (a numpy integer
#: array or a list of ints) as `%d`, other cells through `str`.
Table = tuple[list[str], list[Sequence]]

#: Rows written per %-format call.
EMIT_BLOCK = 1024

def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes it as one of several fields of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _column(cells) -> tuple[str, list]:
    """The %-format spec of a column and its cells, ready for that spec."""
    if len(cells) and isinstance(cells[0], float):
        # A zero built as -upper(-h) prints as 0.
        return "%.12g", (np.asarray(cells, dtype=float) + 0.0).tolist()
    if isinstance(cells, np.ndarray):
        if cells.dtype.kind in "iu":
            return "%d", cells.tolist()
        cells = cells.tolist()
    elif len(cells) and all(type(c) is int for c in cells):  # no bool: it prints True
        return "%d", cells
    cells = list(map(str, cells))
    # `csv.writer` may quote a field holding any of these; which of them it
    # quotes varies across Python versions, so such cells are left to csv.
    text = "".join(cells)
    if any(c in text for c in ',"\n\r'):
        cells = list(map(_csv_field, cells))
    return "%s", cells


def _emit(header: list[str], columns: list[Sequence], out) -> None:
    """Write a table of two or more columns as CSV, byte for byte as
    `csv.writer` writes the cells formatted by the `Table` rules, each
    block of rows from its own column slices; unequal lengths raise ValueError."""
    out.write(",".join(_column(header)[1]) + "\n")
    for first in range(0, max(map(len, columns)), EMIT_BLOCK):
        specs, cells = zip(*(_column(c[first : first + EMIT_BLOCK]) for c in columns))
        block = tuple(itertools.chain.from_iterable(zip(*cells, strict=True)))
        out.write((",".join(specs) + "\n") * (len(block) // len(columns)) % block)


def _single_operator(chain: ImpreciseMarkovChain) -> UpperTransitionOperator:
    if chain.stationary:
        return chain.transitions
    raise ScenarioError(
        "schema-error", "this command needs a stationary (single) transition"
    )


def parse_gamble(space: StateSpace, text: str) -> Gamble:
    """Parse `label:value` pairs; unspecified labels default to 0.

    Refuses a text with no entry and a label given twice."""
    vals = np.zeros(len(space))
    seen = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        label, _, num = part.partition(":")
        try:
            i = space.index(label.strip())
            vals[i] = float(num)
        except (KeyError, ValueError) as exc:
            raise ScenarioError("schema-error", f"bad gamble entry {part!r}") from exc
        if i in seen:
            raise ScenarioError("schema-error", f"duplicate gamble entry {part!r}")
        seen.add(i)
    if not seen:
        raise ScenarioError("schema-error", f"no label:value entry in {text!r}")
    if not np.all(np.isfinite(vals)):
        raise ScenarioError("schema-error", f"gamble values must be finite: {text!r}")
    return Gamble(space, vals)


def _marginal_columns(chain: ImpreciseMarkovChain, indicators: list[Gamble]):
    """Columns n, lower, upper for n = 1..horizon and each indicator, n-major.

    Each indicator h and its negation -h are columns of one
    `marginal_upper_table`; lower is minus the upper expectation of -h.
    """
    base = np.stack([v for ind in indicators for v in (-ind.values, ind.values)], axis=1)
    ups = chain.marginal_upper_table(base).reshape(-1, 2)
    times = np.repeat(np.arange(1, chain.horizon + 1), len(indicators))
    return [times, -ups[:, 0], ups[:, 1]]


def cmd_evolve(chain: ImpreciseMarkovChain, args) -> Table:
    if not args.event:
        raise ScenarioError("schema-error", "evolve needs --event")
    try:
        ind = chain.space.indicator([s.strip() for s in args.event.split(",")])
    except KeyError as exc:
        raise ScenarioError("schema-error", f"bad --event: {exc.args[0]}") from exc
    return ["n", "lower", "upper"], _marginal_columns(chain, [ind])


def cmd_limit(chain: ImpreciseMarkovChain, args) -> Table:
    if not args.gamble:
        raise ScenarioError("schema-error", "limit needs --gamble")
    if not args.tol > 0:
        raise ScenarioError("schema-error", f"--tol must be positive, got {args.tol}")
    if args.max_iter < 0:
        raise ScenarioError(
            "schema-error", f"--max-iter must be >= 0, got {args.max_iter}"
        )
    op = _single_operator(chain)
    h = parse_gamble(chain.space, args.gamble)
    report = limit_upper(op, h, tol=args.tol, max_iter=args.max_iter)
    return (
        ["value", "iterations", "residual"],
        [[report.value], [report.iterations], [report.residual]],
    )


def cmd_regularity(chain: ImpreciseMarkovChain, args) -> Table:
    op = _single_operator(chain)
    n = op.is_regular()
    if n is None:
        return ["verdict", "n"], [["not_found"], [op.wielandt_bound()]]
    return ["verdict", "n"], [["found"], [n]]


def _path_labels(chain: ImpreciseMarkovChain, length: int) -> list[str]:
    """The paths of `length`, in `itertools.product` order over the labels:
    the C order of `ravel` on a (|X|,) * length table."""
    return list(map(">".join, itertools.product(chain.space.labels, repeat=length)))


def cmd_joint(chain: ImpreciseMarkovChain, args) -> Table:
    length = chain.horizon if args.length is None else args.length
    if not 1 <= length <= chain.horizon:
        raise ScenarioError(
            "schema-error", f"--length must lie in [1, {chain.horizon}], got {length}"
        )
    lo, up = chain.path_mass_bounds(length)
    return ["path", "lower", "upper"], [_path_labels(chain, length), lo.ravel(), up.ravel()]


def cmd_credal_approx(chain: ImpreciseMarkovChain, args) -> Table:
    indicators = [chain.space.indicator([x]) for x in chain.space]
    times, lower, upper = _marginal_columns(chain, indicators)
    states = list(chain.space.labels) * chain.horizon
    return ["n", "state", "lower", "upper"], [times, states, lower, upper]


def cmd_verify(chain: ImpreciseMarkovChain, args) -> Table:
    if args.seed < 0:
        raise ScenarioError("schema-error", f"--seed must be >= 0, got {args.seed}")
    # The path tables come first: their size guard also bounds the draws.
    masses = chain.path_mass_bounds(chain.horizon)
    rng = np.random.default_rng(args.seed)
    draws = rng.uniform(-1.0, 1.0, size=(3,) + (len(chain.space),) * chain.horizon)
    fs = [PathGamble(chain.space, chain.horizon, values) for values in draws]
    o_lo, o_up, mass_lo, mass_up = oracle.envelope(chain, fs)
    # Path rows check the tables `joint` prints; random rows check the
    # fold, which takes every gamble and its negation in one batch.
    ups = chain.joint_upper_many([-f for f in fs] + fs)
    m = len(fs)
    e_lo = np.concatenate([masses[0].ravel(), -ups[:m]])
    e_up = np.concatenate([masses[1].ravel(), ups[m:]])
    x_lo = np.concatenate([mass_lo.ravel(), o_lo])
    x_up = np.concatenate([mass_up.ravel(), o_up])
    gap = np.maximum(abs(e_lo - x_lo), abs(e_up - x_up))
    queries = _path_labels(chain, chain.horizon) + [f"random[{j}]" for j in range(m)]
    return (
        ["query", "engine_lower", "engine_upper", "oracle_lower", "oracle_upper", "gap"],
        [queries, e_lo, e_up, x_lo, x_up, gap],
    )


COMMANDS = {
    "evolve": cmd_evolve,
    "limit": cmd_limit,
    "regularity": cmd_regularity,
    "joint": cmd_joint,
    "credal-approx": cmd_credal_approx,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credal-mc",
        description="Tight expectation bounds for imprecise Markov chains",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--event", help="comma-separated state labels")
    parser.add_argument("--gamble", help="label:value pairs, e.g. a:1,b:0")
    parser.add_argument("--length", type=int, help="path length for `joint`")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    parser.add_argument("--seed", type=int, default=0)
    return parser


def run(command: str, chain: ImpreciseMarkovChain, args, out=None) -> None:
    header, columns = COMMANDS[command](chain, args)
    _emit(header, columns, out if out is not None else sys.stdout)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run(args.command, load_scenario(args.scenario), args)
    except CredalValidationError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NotRegularError, oracle.SizeGuardError) as exc:
        name = type(exc).__name__
        print(f"error:{name}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
