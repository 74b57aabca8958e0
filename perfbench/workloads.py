"""The benchmark's workloads: which simulation runs make up one round.

A workload is a fixed list of runs (algorithm x config seed). Every config
is a diff against a spykersim preset; the overrides are listed here and in
README.md. The config seeds are derived from the benchmark's ``--seed``, so
the same seed always builds the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from spykersim.config import ExperimentConfig, from_dict
from spykersim.suites import variant

# desk-synth re-tasked from 2 classes x 20 dims to 10 classes x 256 dims.
# With 2 classes a random initial model already scores anywhere between 0.2
# and 0.8, and the simulated time to a fixed accuracy spread by 33-47% of
# its median across seeds (120 seeds measured); on this task the spread of
# one spyker run is about 5%, so the simulated metric stays inside its bound.
SYNTH_TASK = {
    "preset": "desk-synth",
    "n_classes": 10,
    "input_dim": 256,
    "separation": 5.0,
    "eval_interval_ms": 50.0,
    "hyper": {"eta_init": 0.3, "eta_server": 0.01},
}

EIGHT_SERVERS = ("Hongkong", "Hongkong", "Paris", "Paris", "Sydney", "Sydney", "California", "California")

FIVE_ALGORITHMS = ("spyker", "sync-spyker", "fedavg", "fedasync", "hierfavg")


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict
    algorithms: tuple[str, ...]
    seeds_per_round: int
    target_accuracy: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "synth-geo-5alg",
            {**SYNTH_TASK, "horizon_ms": 4000.0},
            FIVE_ALGORITHMS,
            1,
            0.75,
        ),
        # A 50 ms evaluation interval gives the time to accuracy a 2.5%
        # resolution at the ~2 s it takes to reach 0.80.
        Workload(
            "mnist-mlp-spyker",
            {"preset": "desk-mnist", "horizon_ms": 3500.0, "eval_interval_ms": 50.0},
            ("spyker",),
            1,
            0.80,
        ),
        # Two servers per aws4 region. Shards hold ~37 samples, so a batch of
        # 64 makes one mini-batch per update. One spyker run's time to accuracy
        # spreads by ~12% across seeds here, so a round averages three seeds.
        Workload(
            "synth-8srv-gossip",
            {
                **SYNTH_TASK,
                "hyper": {**SYNTH_TASK["hyper"], "batch_size": 64},
                "horizon_ms": 6000.0,
                "n_servers": 8,
                "n_clients": 80,
                "server_locations": EIGHT_SERVERS,
            },
            ("spyker",),
            3,
            0.75,
        ),
    )
}


@dataclass(frozen=True)
class Run:
    label: str
    cfg: ExperimentConfig


def make_runs(name: str, seed: int, horizon_ms: float | None = None) -> list[Run]:
    """The runs of one round of ``name`` for benchmark seed ``seed``.

    ``horizon_ms`` shortens every run; the benchmark's tests use it for a
    quick smoke.
    """
    w = WORKLOADS[name]
    k = w.seeds_per_round
    runs = []
    for s in range(seed * k, seed * k + k):
        raw = {**w.base, "seed": s}
        if horizon_ms is not None:
            raw["horizon_ms"] = horizon_ms
        base = from_dict(raw)
        for alg in w.algorithms:
            cfg = base if alg == base.algorithm else variant(base, alg)
            runs.append(Run(f"{alg}-s{s}", cfg))
    return runs
