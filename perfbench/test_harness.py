"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks
import run
import tracing
import workloads


def test_self_time_of_nested_spans():
    # root [0, 10] has children [1, 3] and [4, 8]; the second has a
    # child [5, 6].  A second root [12, 13] has no children.
    start = [0.0, 1.0, 4.0, 5.0, 12.0]
    end = [10.0, 3.0, 8.0, 6.0, 13.0]
    parent = [-1, 0, 0, 2, -1]
    np.testing.assert_allclose(
        tracing.self_times(start, end, parent), [4.0, 2.0, 3.0, 1.0, 1.0]
    )


def test_tracer_restores_every_boundary():
    cli = run.import_cli()
    import credalmc
    from credalmc import credal, states

    def boundaries():
        return (
            cli.run,
            cli.limit_upper,
            credalmc.limit_upper,
            states.Gamble.__init__,
            credal.ProbInterval.upper,
            credal.Linear.vertices,
        )

    before = boundaries()
    tracer = tracing.Tracer()
    mark = tracer.snapshot()
    with tracer.installed():
        assert cli.limit_upper is credalmc.limit_upper is not before[1]
        sc = cli.load_bundled("example_5_3")
        cli.limit_upper(sc.transitions, sc.space.indicator(["a"]))
    assert boundaries() == before
    m = tracer.metrics(mark)
    assert m["limits.limit_upper.calls"] == 1
    assert m["limits.limit_upper.iterations"] > 0
    assert m["transition.apply.calls"] == m["limits.limit_upper.iterations"]
    assert m["states.Gamble.calls"] > 0


@pytest.mark.parametrize("name", ["wide_states", "path_space"])
def test_traced_call_counts_repeat_for_a_seed(name):
    first = run.run_workload(name, 3, 0.01, trace=True)
    second = run.run_workload(name, 3, 0.01, trace=True)
    assert first["failed"] == second["failed"] == 0
    calls = [
        {k: v for k, v in r["per_layer"].items() if k.endswith((".calls", ".iterations"))}
        for r in (first, second)
    ]
    assert calls[0] == calls[1]
    assert sum(calls[0].values()) > 0


def test_benchmark_json_lists_every_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)


def test_generator_is_seeded(tmp_path):
    cli = run.import_cli()
    a = workloads.generate("per_step", 1, tmp_path / "a", cli)
    b = workloads.generate("per_step", 1, tmp_path / "b", cli)
    c = workloads.generate("per_step", 2, tmp_path / "c", cli)
    assert a.inputs_digest() == b.inputs_digest() != c.inputs_digest()
    assert a.sizes == c.sizes


def test_checks_reject_wrong_outputs():
    kw = dict(states=2, horizon=2, flags={})
    assert checks.check_output("evolve", "n,lower,upper\n1,0.2,0.4\n2,0.1,0.3\n", **kw) == []
    assert checks.check_output("evolve", "n,lower,upper\n1,0.5,0.4\n2,0.1,0.3\n", **kw)
    assert checks.check_output("evolve", "n,lower,upper\n1,0.2,1.5\n2,0.1,0.3\n", **kw)
    assert checks.check_output("evolve", "n,lower,upper\n1,0.2,0.4\n", **kw)
    verify = "query,engine_lower,engine_upper,oracle_lower,oracle_upper,gap\n"
    rows = "".join(f"p{i},0.1,0.2,0.1,0.2,0\n" for i in range(4))
    rnd = "".join(f"random[{j}],-0.5,0.5,-0.5,0.5,0\n" for j in range(3))
    assert checks.check_output("verify", verify + rows + rnd, **kw) == []
    assert checks.check_output("verify", verify + rows + rnd.replace(",0\n", ",1e-6\n", 1), **kw)
    limit = "value,iterations,residual\n0.5,10,1e-11\n"
    assert checks.check_output("limit", limit, **kw, gamble=[0.0, 1.0]) == []
    assert checks.check_output("limit", limit, **kw, gamble=[0.6, 1.0])
    assert checks.check_output("limit", limit.replace("1e-11", "1e-3"), **kw)
    ref = "n,lower,upper\n1,0.2,0.4\n"
    assert checks.compare_reference("n,lower,upper\n1,0.2000000000001,0.4\n", ref) == []
    assert checks.compare_reference("n,lower,upper\n1,0.2001,0.4\n", ref)
    assert checks.compare_reference("n,lower,upper\n1,nan,0.4\n", ref)


def test_overrunning_query_is_stopped_and_counted(monkeypatch, tmp_path):
    cli = run.import_cli()

    class Hanging:
        build_parser = staticmethod(cli.build_parser)
        load_scenario = staticmethod(cli.load_scenario)

        @staticmethod
        def run(*args, **kwargs):
            while True:
                pass

    monkeypatch.setattr(run, "QUERY_CAP_S", 0.2)
    w = workloads.generate("wide_states", 1, tmp_path, cli)
    runner = run.Runner(Hanging, w, None, started=run.time.perf_counter())
    result = runner.run_pass()
    assert [q.problems for q in result.queries] == [["exceeded the 0.2 s cap"]] * len(w.queries)
    assert all(0.2 <= q.seconds < 1.0 for q in result.queries)
