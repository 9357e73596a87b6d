#!/usr/bin/env python3
"""Benchmark of the `credal-mc` commands on seeded workloads.

Run from the root of a credalmc checkout:

    python3 perfbench/run.py --workload path_space --seed 1 --seconds 20 --trace 0

The workload's scenario files and query list are generated from the
seed (see workloads.py) into perfbench/out/inputs/.  The queries run
in-process through `credalmc.cli.build_parser` and `credalmc.cli.run`
with stdout captured, in passes over the whole query list, until
`--seconds` have been measured; every output is checked.  Every query
runs under a wall-clock cap; one that raises, overruns or fails its
check counts as failed.

With `--trace 0` the last stdout line reports the end-to-end metrics
(medians over passes).  Query times are scaled to reference machine
speed by a probe timed around each query (see probe.py); the unscaled
throughput is printed and recorded too.  With `--trace 1` untraced and traced passes
alternate: the last line reports the per-layer metrics of the traced
passes and their overhead over the untraced ones, and the spans are
written to perfbench/out/spans/.  Each run also writes a record with its
environment, raw timings and every metric to perfbench/out/records/.
`--workload all` runs every workload in its own process and prints one
table.  Exit status is 0 when a result was printed, nonzero otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import checks
import tracing
import workloads
from probe import probe, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

#: Seed whose outputs are compared with the recorded reference CSVs.
DEFAULT_SEED = 0
#: Wall-clock cap on one query.
QUERY_CAP_S = 30.0
#: No query starts later than this after the run began, so a run that
#: hangs still ends well inside its 180 s limit.
RUN_DEADLINE_S = 140.0

E2E_UNITS = {
    "setup_s": "s",
    "bounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import credalmc.cli as cli\n"
    "for path in sys.argv[2:]:\n"
    "    cli.load_scenario(path)\n"
    "print(repr(time.perf_counter() - t0))\n"
)


class QueryTimeout(BaseException):
    """Raised by SIGALRM inside a query that overran its cap.

    A BaseException, so that no `except Exception` in the code under
    test can swallow it.
    """


def import_cli():
    """Import credalmc.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "credalmc" / "__init__.py").is_file():
        raise SystemExit(f"error: no credalmc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import credalmc.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: credalmc was imported from {cli.__file__}, not {SRC}")
    return cli


# ----------------------------------------------------------------------
# Running queries


@dataclass
class QueryResult:
    qid: str
    command: str
    seconds: float
    probe_s: float
    bounds: int
    problems: list[str]

    @property
    def scaled_s(self) -> float:
        return scaled(self.seconds, self.probe_s)


@dataclass
class PassResult:
    wall: float
    queries: list[QueryResult] = field(default_factory=list)

    @property
    def bounds(self) -> int:
        return sum(q.bounds for q in self.queries if not q.problems)


class Runner:
    """Runs passes over one workload's queries and checks every output."""

    def __init__(self, cli, workload, reference: dict | None, started: float):
        self.cli = cli
        self.w = workload
        self.reference = reference
        self.reference_inputs_match = (
            reference is not None and reference["inputs_sha256"] == workload.inputs_digest()
        )
        self.deadline = started + RUN_DEADLINE_S
        parser = cli.build_parser()
        self.args = {
            q.qid: parser.parse_args(q.argv(workload.scenarios[q.scenario]))
            for q in workload.queries
        }
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._armed:
            raise QueryTimeout

    def run_pass(self, tracer=None) -> PassResult:
        t0 = time.perf_counter()
        scenarios = {k: self.cli.load_scenario(str(p)) for k, p in self.w.scenarios.items()}
        result = PassResult(0.0)
        for q in self.w.queries:
            result.queries.append(self._run_query(q, scenarios[q.scenario], tracer))
        result.wall = time.perf_counter() - t0
        return result

    def _run_query(self, q, scenario, tracer) -> QueryResult:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return QueryResult(q.qid, q.command, 0.0, 1.0, 0, ["not started: run deadline passed"])
        cap = min(QUERY_CAP_S, remaining)
        if tracer is not None:
            tracer.begin_query(q.qid)
        out = io.StringIO()
        problems: list[str] = []
        probe_before = probe()
        signal.setitimer(signal.ITIMER_REAL, cap)
        t0 = time.perf_counter()
        try:
            self._armed = True
            self.cli.run(q.command, scenario, self.args[q.qid], out=out)
            self._armed = False
        except QueryTimeout:
            problems.append(f"exceeded the {cap:g} s cap")
        except Exception as exc:  # a failing query is counted, not fatal
            problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            seconds = time.perf_counter() - t0
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        probe_s = (probe_before + probe()) / 2
        bounds = 0
        if not problems:
            text = out.getvalue()
            problems = self._check(q, text)
            header, rows = checks.parse_csv(text)
            bounds = checks.count_bounds(header, rows)
        return QueryResult(q.qid, q.command, seconds, probe_s, bounds, problems)

    def _check(self, q, text: str) -> list[str]:
        flags = dict(zip(q.flags[::2], q.flags[1::2]))
        size = self.w.sizes[q.scenario]
        gamble = None
        if q.command == "limit":
            gamble = [float(part.rpartition(":")[2]) for part in flags["--gamble"].split(",")]
        problems = checks.check_output(
            q.command,
            text,
            states=size["states"],
            horizon=size["horizon"],
            flags=flags,
            gamble=gamble,
        )
        if self.reference_inputs_match:
            problems += checks.compare_reference(text, self.reference["outputs"][q.qid])
        elif self.reference is not None:
            problems.append("inputs differ from those the reference was recorded on")
        return problems


def load_reference(workload) -> dict | None:
    """The recorded outputs this run must reproduce, if any apply.

    At DEFAULT_SEED they always apply; at another seed only when the
    generated inputs happen to equal the recorded ones.
    """
    path = REFERENCE / f"{workload.name}.json"
    if not path.is_file():
        if workload.seed == DEFAULT_SEED:
            raise SystemExit(f"error: missing reference {path}")
        return None
    ref = json.loads(path.read_text())
    if workload.seed == DEFAULT_SEED or ref["inputs_sha256"] == workload.inputs_digest():
        return ref
    return None


# ----------------------------------------------------------------------
# Measurements


def setup_sample(paths: list[Path]) -> float:
    """Seconds to import credalmc and load every scenario in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, paths)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: setup run failed:\n{proc.stderr}")
    return float(proc.stdout)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            match = re.search(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
        if match:
            cpu = match.group(1).strip()
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "credalmc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# One workload


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    cli = import_cli()
    w = workloads.generate(name, seed, OUT / "inputs" / f"{name}-seed{seed}", cli)
    paths = list(w.scenarios.values())
    runner = Runner(cli, w, load_reference(w), started)

    passes = [runner.run_pass()]  # warm-up: checked, not timed
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict] = []
    setup: list[float] = []
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    # Set-up samples or traced passes alternate with the untraced passes,
    # so that slow drift in machine speed hits both alike.
    while True:
        cycle = time.perf_counter()
        untraced.append(runner.run_pass())
        if trace:
            mark = tracer.snapshot()
            with tracer.installed():
                traced.append(runner.run_pass(tracer))
            layers.append(tracer.metrics(mark))
        else:
            setup.append(setup_sample(paths))
        now = time.perf_counter()
        # Stop before the next cycle would overrun the measured time.
        if (now - t0) + (now - cycle) > seconds or now - started > RUN_DEADLINE_S:
            break
    passes += untraced + traced

    attempted = sum(len(p.queries) for p in passes)
    failures = [
        {"pass": i, "query": q.qid, "problems": q.problems[:5]}
        for i, p in enumerate(passes)
        for q in p.queries
        if q.problems
    ]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "sizes": w.sizes,
        "queries": [q.qid for q in w.queries],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "failed_frac": len(failures) / attempted,
        "passes": [
            {
                "wall": p.wall,
                "query_s": {q.qid: q.seconds for q in p.queries},
                "probe_s": {q.qid: q.probe_s for q in p.queries},
            }
            for p in untraced
        ],
    }
    if not trace:
        # Per-query medians over the untraced passes, at reference speed.
        query_s = [
            statistics.median(p.queries[i].scaled_s for p in untraced)
            for i in range(len(w.queries))
        ]
        raw_query_s = [
            statistics.median(p.queries[i].seconds for p in untraced)
            for i in range(len(w.queries))
        ]
        bounds = statistics.median(p.bounds for p in untraced)
        record["end_to_end"] = {
            "setup_s": statistics.median(setup),
            "bounds_per_s": bounds / sum(query_s) if bounds else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }
        record["bounds_per_s_unscaled"] = bounds / sum(raw_query_s) if bounds else 0.0
        record["probe_s"] = statistics.median(q.probe_s for p in untraced for q in p.queries)
        record["command_s"] = {
            metric: sum(s for q, s in zip(w.queries, query_s) if q.command == command)
            for command, metric in workloads.COMMAND_METRICS.items()
            if any(q.command == command for q in w.queries)
        }
        record["setup_samples"] = setup
    else:
        units = tracing.metric_units()
        per_layer = {
            key: statistics.median(layer[key] for layer in layers)
            for key in units
            if key != "trace.overhead_frac"
        }
        per_layer["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced)
            / statistics.median(p.wall for p in untraced)
            - 1.0
        )
        spans = OUT / "spans" / f"{name}-seed{seed}.npz"
        tracer.save(spans)
        record["per_layer"] = per_layer
        record["per_layer_passes"] = layers
        record["traced_walls"] = [p.wall for p in traced]
        record["spans_file"] = str(spans.relative_to(ROOT))
    path = OUT / "records" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["record_file"] = str(path.relative_to(ROOT))
    return record


def print_human(record: dict) -> None:
    env = record["environment"]
    print(
        f"# workload={record['workload']} seed={record['seed']} "
        f"passes={len(record['passes'])} queries/pass={len(record['queries'])} "
        f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
        f"cpu={env['cpu_model']!r} commit={env['git_commit']}"
    )
    walls = [p["wall"] for p in record["passes"]]
    q1, med, q3 = quartiles(walls)
    print(f"  pass wall          median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(walls)}")
    rows = [(k, v, E2E_UNITS[k]) for k, v in record.get("end_to_end", {}).items()]
    rows += [(k, v, "s") for k, v in record.get("command_s", {}).items()]
    rows.append(("failed_frac", record["failed_frac"], "ratio"))
    if "probe_s" in record:
        rows.append(("bounds_per_s_unscaled", record["bounds_per_s_unscaled"], "1/s"))
        rows.append(("probe_s", record["probe_s"], "s"))
    for key, value, unit in rows:
        print(f"  {key:<22} {value:.6g} {unit}")
    for key, value in record.get("per_layer", {}).items():
        print(f"  {key:<46} {value:.6g}")
    for failure in record["failures"][:10]:
        print(f"  FAILED pass {failure['pass']} {failure['query']}: {failure['problems'][0]}")
    print(f"  record: {record['record_file']}")


def result_line(record: dict) -> str:
    if record["trace"]:
        units = tracing.metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in record["end_to_end"].items()}
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# Every workload


def run_all(args) -> int:
    """Run each workload in a fresh process and print one metric table."""
    records = []
    for name in workloads.NAMES:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        path = OUT / "records" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        records.append(json.loads(path.read_text()))
    metrics = list(E2E_UNITS.items())
    metrics += [(m, "s") for m in workloads.COMMAND_METRICS.values()]
    metrics.append(("failed_frac", "ratio"))
    if args.trace:
        metrics = list(tracing.metric_units().items())
    print(f"{'metric':<46} {'unit':<6}" + "".join(f"{r['workload']:>14}" for r in records))
    for metric, unit in metrics:
        cells = []
        for r in records:
            value = {
                **r.get("end_to_end", {}),
                **r.get("command_s", {}),
                "failed_frac": r["failed_frac"],
                **r.get("per_layer", {}),
            }.get(metric)
            cells.append(f"{value:>14.6g}" if value is not None else f"{'-':>14}")
        print(f"{metric:<46} {unit:<6}" + "".join(cells))
    return 0 if all(r["failed"] == 0 for r in records) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_human(record)
    print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
