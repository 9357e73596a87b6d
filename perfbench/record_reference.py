#!/usr/bin/env python3
"""Record the reference outputs of every workload at the default seed.

    python3 perfbench/record_reference.py

Writes perfbench/reference/<workload>.json: the digest of the generated
inputs and the CSV output of every query.  run.py compares its outputs
with these at the default seed, so re-record only on purpose, from a
commit whose outputs are known to be right.
"""

from __future__ import annotations

import io
import json
import sys

from run import DEFAULT_SEED, OUT, REFERENCE, import_cli

import workloads


def main() -> int:
    cli = import_cli()
    parser = cli.build_parser()
    REFERENCE.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        w = workloads.generate(name, DEFAULT_SEED, OUT / "inputs" / f"{name}-seed{DEFAULT_SEED}", cli)
        outputs = {}
        for q in w.queries:
            path = w.scenarios[q.scenario]
            out = io.StringIO()
            cli.run(q.command, cli.load_scenario(str(path)), parser.parse_args(q.argv(path)), out=out)
            outputs[q.qid] = out.getvalue()
        doc = {"inputs_sha256": w.inputs_digest(), "outputs": outputs}
        (REFERENCE / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{name}: {len(outputs)} queries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
