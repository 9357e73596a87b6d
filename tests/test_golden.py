"""Replay recorded `credal-mc` runs on the bundled scenarios.

`golden/cli_replay.json` holds the exit code, stdout and stderr of eight
commands on each of the eight bundled scenarios.  Every byte must match,
except `verify`'s `gap` column: it is round-off noise, so only its size
is pinned, as in `test_verify_golden_rows`.

Re-record (only for an intended change of output, named in CHANGES.md)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from credalmc.cli import bundled_scenario_path, main

FIXTURE = Path(__file__).parent / "golden" / "cli_replay.json"

SCENARIOS = (
    "example_5_1",
    "example_5_2",
    "example_5_3",
    "example_5_3_n2",
    "example_5_3_precise",
    "example_5_4",
    "per_step_mixed8",
    "stationary_mixed8",
)
COMMANDS = (
    ("evolve", "--event", "a"),
    ("limit", "--gamble", "a:1,b:0"),
    ("regularity",),
    ("credal-approx",),
    ("joint", "--length", "6"),
    ("joint",),
    ("verify", "--seed", "0"),
    ("verify", "--seed", "7"),
)
GAP_TOL = 1e-10


def _invoke(scenario: str, command: tuple[str, ...]) -> dict:
    argv = [command[0], str(bundled_scenario_path(scenario)), *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _record() -> list[dict]:
    return [
        {"scenario": name, "command": list(command), **_invoke(name, command)}
        for name in SCENARIOS
        for command in COMMANDS
    ]


def _cases():
    runs = json.loads(FIXTURE.read_text())
    return [
        pytest.param(run, id=f"{run['scenario']}:{' '.join(run['command'])}")
        for run in runs
    ]


@pytest.mark.parametrize("run", _cases())
def test_cli_replay(run):
    got = _invoke(run["scenario"], tuple(run["command"]))
    assert got["code"] == run["code"]
    assert got["stderr"] == run["stderr"]
    if run["command"][0] != "verify" or run["code"] != 0:
        assert got["stdout"] == run["stdout"]
        return
    got_lines = got["stdout"].splitlines()
    want_lines = run["stdout"].splitlines()
    assert got_lines[0] == want_lines[0]
    assert [line.rsplit(",", 1)[0] for line in got_lines[1:]] == [
        line.rsplit(",", 1)[0] for line in want_lines[1:]
    ]
    assert all(float(line.rsplit(",", 1)[1]) <= GAP_TOL for line in got_lines[1:])
    assert got["stdout"].endswith("\n")


def test_fixture_covers_every_scenario_and_command():
    runs = json.loads(FIXTURE.read_text())
    assert [(r["scenario"], tuple(r["command"])) for r in runs] == [
        (name, command) for name in SCENARIOS for command in COMMANDS
    ]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_record(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
