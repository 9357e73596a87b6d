"""Seeded workload generator for the credalmc benchmark.

A workload is a set of scenario JSON files plus an ordered list of
`credal-mc` queries against them.  `generate` writes both into a
directory; credalmc itself only ever sees the generated files.  The same
(workload, seed) always yields byte-identical files.

Sizes are fixed per workload and only the numbers inside the models
depend on the seed, so the work per query (row evaluations, Choquet
levels, tree assignments) does not change from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("long_horizon", "wide_states", "path_space", "per_step")

COMMAND_METRICS = {
    "evolve": "evolve_s",
    "credal-approx": "credal_approx_s",
    "limit": "limit_s",
    "regularity": "regularity_s",
    "joint": "joint_s",
    "verify": "verify_s",
}


@dataclass(frozen=True)
class Query:
    qid: str
    command: str
    scenario: str
    flags: tuple[str, ...] = ()

    def argv(self, scenario_path: Path) -> list[str]:
        return [self.command, str(scenario_path), *self.flags]


@dataclass
class Workload:
    name: str
    seed: int
    directory: Path
    scenarios: dict[str, Path] = field(default_factory=dict)
    queries: list[Query] = field(default_factory=list)
    sizes: dict = field(default_factory=dict)

    def add_scenario(self, key: str, doc: dict) -> None:
        path = self.directory / f"{key}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        self.scenarios[key] = path
        self.sizes[key] = {
            "states": len(doc["states"]),
            "horizon": doc["horizon"],
            "operators": len(doc["transition"])
            if isinstance(doc["transition"], list)
            else 1,
        }

    def add_query(self, command: str, scenario: str, *flags: str, tag: str = "") -> None:
        qid = f"{command}:{scenario}" + (f":{tag}" if tag else "")
        self.queries.append(Query(qid, command, scenario, tuple(flags)))

    def inputs_digest(self) -> str:
        """Digest of every generated file and the query list."""
        h = hashlib.sha256()
        for key in sorted(self.scenarios):
            h.update(key.encode())
            h.update(self.scenarios[key].read_bytes())
        for q in self.queries:
            h.update(json.dumps([q.qid, q.command, q.scenario, list(q.flags)]).encode())
        return h.hexdigest()


# ----------------------------------------------------------------------
# Seeded credal models, as scenario JSON


def _labels(s: int) -> list[str]:
    return [f"s{i:02d}" for i in range(s)]


def _mass(rng: np.random.Generator, s: int) -> list[float]:
    return rng.dirichlet(np.ones(s)).tolist()


def _model(rng: np.random.Generator, labels: list[str], family: str) -> dict:
    s = len(labels)
    if family == "linear":
        return {"type": "linear", "mass": _mass(rng, s)}
    if family == "vacuous":
        return {"type": "vacuous"}
    if family == "vertices":
        return {"type": "vertices", "points": [_mass(rng, s) for _ in range(4)]}
    if family == "contamination":
        return {
            "type": "contamination",
            "base": _mass(rng, s),
            "epsilon": float(rng.uniform(0.05, 0.3)),
        }
    if family == "belief":
        # Focal elements are cyclic blocks of consecutive states.  Rows
        # cycle through the six families, so a block of six or more
        # states reaches a fixed share of vacuous rows; with random
        # subsets that share, and with it the number of `limit`
        # iterations, varied by +-12% from seed to seed.  The full-space
        # block makes every row reach every state.
        sizes = (6, 12, s)
        masses = rng.dirichlet(np.ones(len(sizes)))
        focal = []
        for size, m in zip(sizes, masses):
            start = int(rng.integers(s))
            members = sorted(labels[(start + j) % s] for j in range(size))
            focal.append({"members": members, "mass": float(m)})
        return {"type": "belief", "focal": focal}
    if family == "interval":
        p = rng.dirichlet(np.ones(s))
        delta = rng.uniform(0.1, 0.5, size=s)
        lo = p * (1.0 - delta)
        up = p * (1.0 + delta)
        # Tighten to reachable bounds; the result still contains p.
        lo, up = (
            np.maximum(lo, 1.0 - (up.sum() - up)),
            np.minimum(up, 1.0 - (lo.sum() - lo)),
        )
        return {"type": "prob_interval", "lower": lo.tolist(), "upper": up.tolist()}
    raise ValueError(family)


ALL_FAMILIES = ("linear", "vacuous", "vertices", "contamination", "belief", "interval")
NON_INTERVAL = ALL_FAMILIES[:5]


def _gamble_text(rng: np.random.Generator, labels: list[str]) -> str:
    values = rng.uniform(0.0, 1.0, size=len(labels)).round(6)
    return ",".join(f"{x}:{v!r}" for x, v in zip(labels, values.tolist()))


def _event_text(rng: np.random.Generator, labels: list[str], size: int) -> str:
    return ",".join(sorted(rng.choice(labels, size=size, replace=False).tolist()))


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=n)]


# ----------------------------------------------------------------------
# Workloads


def _bundled(cli, name: str, horizon: int | None = None) -> dict:
    doc = json.loads(cli.bundled_scenario_path(name).read_text())
    if horizon is not None:
        doc["horizon"] = horizon
    return doc


def _long_horizon(w: Workload, rng: np.random.Generator, cli) -> None:
    """Long horizons on 2-3 states.

    The marginal plan costs O(H^2) operator applications at tiny s, so
    per-call overhead in `chain` and `transition` dominates and the row
    kernels are cheap.  The bundled examples are fixed, so the seed does
    not change this workload.
    """
    for key, name, horizon in (
        ("ex54_h60", "example_5_4", 60),
        ("ex53_h120", "example_5_3", 120),
        ("ex53p_h120", "example_5_3_precise", 120),
    ):
        w.add_scenario(key, _bundled(cli, name, horizon))
        w.add_query("evolve", key, "--event", "a")
        w.add_query("credal-approx", key)


def _wide_states(w: Workload, rng: np.random.Generator, cli) -> None:
    """One wide stationary operator.

    The O(s^2)-per-row Choquet integral of ProbInterval rows dominates
    `limit` and `regularity`; the horizon is too short for query-plan
    changes to matter.
    """
    s = 48
    labels = _labels(s)
    rows = [_model(rng, labels, ALL_FAMILIES[i % 6]) for i in range(s)]
    w.add_scenario(
        "wide48",
        {
            "states": labels,
            "initial": {"type": "vacuous"},
            "transition": {"type": "rows", "rows": rows},
            "horizon": 4,
        },
    )
    for j in range(3):
        w.add_query("limit", "wide48", "--gamble", _gamble_text(rng, labels), tag=f"g{j}")
    w.add_query("regularity", "wide48")
    for j in range(3):
        w.add_query("evolve", "wide48", "--event", _event_text(rng, labels, s // 4), tag=f"e{j}")


def _path_space(w: Workload, rng: np.random.Generator, cli) -> None:
    """Short horizons over the whole path space.

    The only workload that runs the tree oracle, the joint fold and
    `path_mass_bounds`.
    """
    w.add_scenario("ex53_h3", _bundled(cli, "example_5_3", 3))
    for j, seed in enumerate(_seeds(rng, 5)):
        w.add_query("verify", "ex53_h3", "--seed", str(seed), tag=f"r{j}")
    w.add_scenario("ex54_h2", _bundled(cli, "example_5_4", 2))
    w.add_query("verify", "ex54_h2", "--seed", str(_seeds(rng, 1)[0]))
    # 3 states, horizon 3: 2 * (2 * 1 * 2)^4 = 512 tree assignments.
    labels = ["a", "b", "c"]
    m = float(rng.uniform(0.2, 0.8))
    w.add_scenario(
        "mixed3_h3",
        {
            "states": labels,
            "initial": {"type": "vertices", "points": [_mass(rng, 3) for _ in range(2)]},
            "transition": {
                "type": "rows",
                "rows": [
                    {
                        "type": "belief",
                        "focal": [
                            {"members": ["a"], "mass": m},
                            {"members": ["b", "c"], "mass": 1.0 - m},
                        ],
                    },
                    _model(rng, labels, "linear"),
                    {"type": "vertices", "points": [_mass(rng, 3) for _ in range(2)]},
                ],
            },
            "horizon": 3,
        },
    )
    w.add_query("verify", "mixed3_h3", "--seed", str(_seeds(rng, 1)[0]))
    w.add_scenario("ex54", _bundled(cli, "example_5_4"))
    w.add_query("joint", "ex54", "--length", "6")
    w.add_scenario("ex53", _bundled(cli, "example_5_3"))
    w.add_query("joint", "ex53", "--length", "10")


def _per_step(w: Workload, rng: np.random.Generator, cli) -> None:
    """A non-stationary chain of distinct operators.

    Only here do the non-ProbInterval kernels and the per-step branch of
    `operator_at` do most of the work; a stationary-only plan cannot
    apply, so such a change must show no change here.
    """
    s, horizon = 24, 48
    labels = _labels(s)
    ops = [
        {
            "type": "rows",
            "rows": [_model(rng, labels, NON_INTERVAL[(i + k) % 5]) for i in range(s)],
        }
        for k in range(horizon - 1)
    ]
    w.add_scenario(
        "step24",
        {
            "states": labels,
            "initial": _model(rng, labels, "contamination"),
            "transition": ops,
            "horizon": horizon,
        },
    )
    for j in range(4):
        w.add_query("evolve", "step24", "--event", _event_text(rng, labels, s // 4), tag=f"e{j}")


_GENERATORS = {
    "long_horizon": _long_horizon,
    "wide_states": _wide_states,
    "path_space": _path_space,
    "per_step": _per_step,
}


def generate(name: str, seed: int, directory: Path, cli) -> Workload:
    """Write the scenarios of workload `name` for `seed` into `directory`.

    `cli` is the `credalmc.cli` module, used only to locate the bundled
    example scenarios.
    """
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    directory.mkdir(parents=True, exist_ok=True)
    w = Workload(name, seed, directory)
    _GENERATORS[name](w, np.random.default_rng([seed, NAMES.index(name)]), cli)
    (directory / "queries.json").write_text(
        json.dumps([q.__dict__ | {"flags": list(q.flags)} for q in w.queries], indent=1)
        + "\n"
    )
    return w
