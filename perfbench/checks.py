"""Output checks for `credal-mc` query results.

`check_output` validates one query's CSV against the invariants every
correct answer satisfies; `compare_reference` compares it cell by cell
with a CSV recorded from an earlier commit.  Both return a list of
problems, empty when the output passes.
"""

from __future__ import annotations

import csv
import io
import itertools

#: Slack on lower <= upper and on [0, 1] membership; CSV values carry
#: 12 significant digits.
ORDER_TOL = 1e-9
#: Largest engine/oracle gap `verify` may report.
VERIFY_GAP_TOL = 1e-9
#: Largest difference from a reference value.
REFERENCE_TOL = 1e-9

HEADERS = {
    "evolve": ["n", "lower", "upper"],
    "credal-approx": ["n", "state", "lower", "upper"],
    "limit": ["value", "iterations", "residual"],
    "regularity": ["verdict", "n"],
    "joint": ["path", "lower", "upper"],
    "verify": [
        "query",
        "engine_lower",
        "engine_upper",
        "oracle_lower",
        "oracle_upper",
        "gap",
    ],
}


def is_bound_column(name: str) -> bool:
    """Columns that carry a bound value, for the bounds_per_s count."""
    return name in ("lower", "upper", "value") or name.startswith(("engine_", "oracle_"))


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def count_bounds(header: list[str], rows: list[list[str]]) -> int:
    return sum(is_bound_column(c) for c in header) * len(rows)


def expected_rows(command: str, states: int, horizon: int, flags: dict) -> int:
    if command == "evolve":
        return horizon
    if command == "credal-approx":
        return horizon * states
    if command in ("limit", "regularity"):
        return 1
    if command == "joint":
        return states ** int(flags.get("--length") or horizon)
    if command == "verify":
        return states**horizon + 3
    raise ValueError(command)


def _in_unit(x: float) -> bool:
    return -ORDER_TOL <= x <= 1.0 + ORDER_TOL


def _ordered(lo: float, up: float) -> bool:
    return lo <= up + ORDER_TOL


def check_output(
    command: str,
    text: str,
    *,
    states: int,
    horizon: int,
    flags: dict,
    gamble: list[float] | None = None,
) -> list[str]:
    """Invariant checks on one query's CSV output.

    `flags` maps the query's CLI flags to their values; `gamble` holds
    the values of the `limit` gamble, whose limit lies between their
    minimum and maximum.
    """
    header, rows = parse_csv(text)
    if header != HEADERS[command]:
        return [f"header {header} != {HEADERS[command]}"]
    want = expected_rows(command, states, horizon, flags)
    if len(rows) != want:
        return [f"{len(rows)} rows, expected {want}"]
    if any(len(r) != len(header) for r in rows):
        return ["ragged row"]
    problems: list[str] = []
    try:
        if command in ("evolve", "credal-approx", "joint"):
            for r in rows:
                lo, up = float(r[-2]), float(r[-1])
                if not (_ordered(lo, up) and _in_unit(lo) and _in_unit(up)):
                    problems.append(f"row {r}: bounds not ordered in [0, 1]")
        elif command == "limit":
            value, iterations, residual = float(rows[0][0]), int(rows[0][1]), float(rows[0][2])
            tol = float(flags.get("--tol", 1e-10))
            if not 0.0 <= residual <= tol:
                problems.append(f"residual {residual} outside [0, {tol}]")
            if iterations < 0:
                problems.append(f"negative iteration count {iterations}")
            if gamble is not None and not (
                min(gamble) - ORDER_TOL <= value <= max(gamble) + ORDER_TOL
            ):
                problems.append(f"limit {value} outside the gamble's range")
        elif command == "regularity":
            verdict, n = rows[0][0], int(rows[0][1])
            if verdict not in ("found", "not_found") or n < 1:
                problems.append(f"bad regularity row {rows[0]}")
        elif command == "verify":
            for r in rows:
                e_lo, e_up, o_lo, o_up, gap = (float(x) for x in r[1:])
                if not (_ordered(e_lo, e_up) and _ordered(o_lo, o_up)):
                    problems.append(f"row {r}: bounds not ordered")
                if not gap <= VERIFY_GAP_TOL:
                    problems.append(f"row {r}: gap {gap} > {VERIFY_GAP_TOL}")
                if not r[0].startswith("random[") and not all(
                    _in_unit(x) for x in (e_lo, e_up, o_lo, o_up)
                ):
                    problems.append(f"row {r}: path mass outside [0, 1]")
    except ValueError as exc:
        problems.append(f"unparsable value: {exc}")
    return problems


def compare_reference(text: str, reference: str) -> list[str]:
    """Cell-by-cell comparison; numeric cells may differ by REFERENCE_TOL."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return ["shape differs from the reference"]
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, a, b in itertools.zip_longest(header, row, ref):
            if a == b:
                continue
            try:
                close = abs(float(a) - float(b)) <= REFERENCE_TOL
            except (TypeError, ValueError):
                close = False
            if not close:
                return [f"row {i} column {col}: {a!r} != reference {b!r}"]
    return []
