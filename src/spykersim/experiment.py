"""Experiment assembly and execution.

Turns a config into a wired topology (servers, clients, link model, seeds),
runs it under a periodic evaluation hook, and emits the standard per-run
artifacts: manifest.json, timeseries.csv, summary.json, trace-hash.txt,
model-hash.txt.

The event loop runs on the calling thread, with BLAS pinned to one thread
for the run, beside the run's workers (``workers.py``).

All randomness is derived from the master seed through named seed tags, so a
client's data order and training delay depend only on (master seed, client
index) and stay fixed when the algorithm or topology changes around it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .blas import numpy_simd, one_blas_thread
from .config import DATA_ROOT_ENV, SPYKER_MERGE, ExperimentConfig, config_hash, to_dict
from .data import (
    Dataset,
    PartitionSpec,
    load_idx,
    partition_noniid,
    shard_rows,
    synthetic_dataset,
    train_test_split,
)
from .errors import ConfigError
from .messages import Token
from .models import TinyModel, init_model
from .protocols import (
    FedAsyncServer,
    FedAvgServer,
    HierCloud,
    HierEdgeServer,
    SpykerServer,
    SyncSpykerServer,
    TrainingClient,
)
from .simulation import (
    AWS4_LATENCY_MS,
    LinkModel,
    RunManifest,
    Simulator,
    uniform_latency_ms,
)
from .workers import run_workers

# Seed tags; one namespace per purpose keeps streams independent.
_DATA, _SPLIT, _PARTITION, _MODEL, _RING, _SELECT = 11, 12, 13, 14, 15, 16
_CLIENT_SHUFFLE, _CLIENT_DELAY, _SUBSAMPLE = 17, 18, 19

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def derive_seed(master: int, tag: int, extra: int = 0) -> int:
    return int(np.random.SeedSequence([master, tag, extra]).generate_state(1)[0])


def _stratified_subsample(data: Dataset, n: int, seed: int, name: str) -> Dataset:
    if n >= data.n_samples:
        return data
    rng = np.random.default_rng(seed)
    take: list[np.ndarray] = []
    for c in range(data.n_classes):
        members = np.flatnonzero(data.labels == c)
        k = max(1, int(round(n * len(members) / data.n_samples)))
        take.append(rng.permutation(members)[:k])
    idx = np.sort(np.concatenate(take))
    return data.subset(idx, name)


@dataclass
class _Task:
    """The last seeded task drawn in this process: its test set, the train
    set's labels and name, and the shards that the last build cut from the
    train set.  It holds no array that the built run does not hold."""

    key: tuple
    test: Dataset
    labels: np.ndarray
    name: str
    spec: PartitionSpec | None = None
    shards: list[Dataset] | None = None


_task: _Task | None = None


def load_task(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Train/test pair for the configured dataset.

    The image task reads IDX files from the directory named by the data-root
    environment variable, on every call; when it is unset, a seeded synthetic
    stand-in with the same shape is used so runs never require a download.

    A seeded task is drawn once per process while its key (dataset, seed,
    n_samples, input_dim, n_classes, separation, test_fraction) repeats: the
    next call returns the same test set and rebuilds the train set from the
    last build's shards, which the process entry then lets go.
    """
    global _task
    root = os.environ.get(DATA_ROOT_ENV)
    if cfg.dataset == "mnist" and root:
        _task = None
        train = load_idx(os.path.join(root, MNIST_FILES[0]), os.path.join(root, MNIST_FILES[1]))
        test = load_idx(os.path.join(root, MNIST_FILES[2]), os.path.join(root, MNIST_FILES[3]))
        for part, data in (("train", train), ("t10k", test)):
            if data.dim != cfg.input_dim:
                raise ConfigError(
                    f"{part} set at {root} has dim {data.dim}, config expects "
                    f"input_dim={cfg.input_dim}"
                )
            # A test set may lack the top label; a train set must hold them all.
            too_few = part == "train" and data.n_classes < cfg.n_classes
            if data.n_classes > cfg.n_classes or too_few:
                raise ConfigError(
                    f"{part} set at {root} has {data.n_classes} classes, config expects "
                    f"n_classes={cfg.n_classes}"
                )
        sub_seed = derive_seed(cfg.seed, _SUBSAMPLE)
        train = _stratified_subsample(train, cfg.n_samples, sub_seed, "mnist-train")
        test = _stratified_subsample(test, 2000, sub_seed + 1, "mnist-test")
        return train, test

    key = (cfg.dataset, cfg.seed, cfg.n_samples, cfg.input_dim, cfg.n_classes,
           cfg.separation, cfg.test_fraction)
    if _task is not None and _task.key == key and _task.shards is not None:
        X = np.empty((len(_task.labels), cfg.input_dim), dtype=np.float32)
        for rows, shard in zip(shard_rows(_task.labels, cfg.n_classes, _task.spec), _task.shards):
            X[rows] = shard.features
        _task.shards = None
        return Dataset(X, _task.labels, cfg.n_classes, _task.name, rows_checked=True), _task.test
    pool = synthetic_dataset(
        derive_seed(cfg.seed, _DATA),
        cfg.n_samples,
        cfg.input_dim,
        cfg.n_classes,
        cfg.separation,
        name="synthetic" if cfg.dataset == "synthetic" else "image-surrogate",
    )
    train, test = train_test_split(pool, cfg.test_fraction, derive_seed(cfg.seed, _SPLIT))
    _task = _Task(key, test, train.labels, train.name)
    return train, test


@dataclass
class BuiltExperiment:
    cfg: ExperimentConfig
    sim: Simulator
    servers: list
    cloud: object | None
    clients: list
    template: TinyModel
    test: Dataset
    manifest: RunManifest

    def total_updates(self) -> int:
        return sum(s.updates_absorbed for s in self.servers)

    def client_update_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for s in self.servers:
            out.update(s.u)
        return out

    def eval_model(self) -> TinyModel:
        if self.cfg.algorithm not in SPYKER_MERGE:
            return (self.cloud if self.cloud is not None else self.servers[0]).model
        stack = np.stack([s.model.params for s in self.servers])
        ages = np.array([s.age for s in self.servers])
        if self.cfg.eval_target == "mean" or ages.sum() <= 0:
            weights = np.full(len(self.servers), 1.0 / len(self.servers))
        else:
            weights = ages / ages.sum()
        return self.template.with_params(weights @ stack)


def build_experiment(cfg: ExperimentConfig) -> BuiltExperiment:
    cfg.validate()
    hp = cfg.resolved_hyper()
    seed = cfg.seed

    train, test = load_task(cfg)
    spec = PartitionSpec(cfg.n_clients, cfg.labels_per_client, derive_seed(seed, _PARTITION))
    shards = partition_noniid(train, spec)
    # Keep the shards when the train set is the entry's, not read from IDX files.
    if _task is not None and _task.labels is train.labels:
        _task.spec, _task.shards = spec, shards
    template = init_model(
        cfg.model_kind,
        train.dim,
        train.n_classes,
        cfg.hidden_dim,
        np.random.default_rng(derive_seed(seed, _MODEL)),
    )

    latency = AWS4_LATENCY_MS if cfg.latency == "aws4" else uniform_latency_ms()
    sim = Simulator(LinkModel(latency, bandwidth_bps=cfg.bandwidth_bps))

    n = cfg.n_servers
    server_ids = list(range(n))
    counts = cfg.resolved_client_counts()
    homes: list[int] = []
    for s, c in enumerate(counts):
        homes.extend([s] * c)
    client_ids = [n + i for i in range(cfg.n_clients)]
    by_server = {
        s: [client_ids[i] for i in range(cfg.n_clients) if homes[i] == s] for s in server_ids
    }
    sizes = {client_ids[i]: shards[i].n_samples for i in range(cfg.n_clients)}
    locs = cfg.resolved_client_locations()

    ring_rng = np.random.default_rng(derive_seed(seed, _RING))
    ring = [server_ids[i] for i in ring_rng.permutation(n)]
    successor = {ring[k]: ring[(k + 1) % n] for k in range(n)}

    agg_fast = cfg.compute.agg_fast_ms
    agg_slow = cfg.compute.agg_slow_ms
    servers: list = []
    cloud = None
    if cfg.algorithm == "spyker":
        for sid in server_ids:
            servers.append(
                SpykerServer(
                    sid,
                    cfg.server_locations[sid],
                    server_ids,
                    template,
                    successor[sid],
                    by_server[sid],
                    hp,
                    agg_fast,
                    token=Token(0, (0.0,) * n) if sid == ring[0] else None,
                )
            )
    elif cfg.algorithm == "sync-spyker":
        for sid in server_ids:
            servers.append(
                SyncSpykerServer(
                    sid,
                    cfg.server_locations[sid],
                    server_ids,
                    template,
                    by_server[sid],
                    hp,
                    agg_fast,
                    cfg.resolved_sync_period(),
                )
            )
    elif cfg.algorithm == "fedavg":
        servers.append(
            FedAvgServer(
                0,
                cfg.server_locations[0],
                template,
                client_ids,
                sizes,
                hp.eta_init,
                agg_slow,
                selection_fraction=cfg.selection_fraction,
                seed=derive_seed(seed, _SELECT),
            )
        )
    elif cfg.algorithm == "fedasync":
        servers.append(
            FedAsyncServer(
                0,
                cfg.server_locations[0],
                template,
                client_ids,
                sizes,
                hp.eta_init,
                hp.alpha_fedasync,
                agg_fast,
            )
        )
    else:  # hierfavg
        cloud_id = n + cfg.n_clients
        for sid in server_ids:
            servers.append(
                HierEdgeServer(
                    sid,
                    cfg.server_locations[sid],
                    template,
                    by_server[sid],
                    {cid: sizes[cid] for cid in by_server[sid]},
                    hp.eta_init,
                    agg_slow,
                    cloud_id,
                    cfg.cloud_period,
                )
            )
        cloud = HierCloud(cloud_id, cfg.server_locations[0], template, server_ids, agg_slow)

    for node in servers:
        sim.add_node(node)
    if cloud is not None:
        sim.add_node(cloud)

    node_seeds: dict[str, int] = {}
    clients = []
    for i, cid in enumerate(client_ids):
        shuffle_seed = derive_seed(seed, _CLIENT_SHUFFLE, i)
        delay_rng = np.random.default_rng(derive_seed(seed, _CLIENT_DELAY, i))
        delay = cfg.compute.sample_training_ms(delay_rng)
        client = TrainingClient(
            cid,
            locs[i],
            homes[i],
            shards[i],
            template,
            hp.local_epochs,
            hp.batch_size,
            delay,
            shuffle_seed,
        )
        sim.add_node(client)
        clients.append(client)
        node_seeds[f"client-{cid}"] = shuffle_seed

    for node in servers:
        node.bootstrap(sim)

    manifest = RunManifest(
        master_seed=seed,
        node_seeds=node_seeds,
        ring_order=tuple(ring),
        config_hash=config_hash(cfg),
        code_version=__version__,
    )
    return BuiltExperiment(cfg, sim, servers, cloud, clients, template, test, manifest)


@dataclass
class RunResult:
    cfg: ExperimentConfig
    manifest: RunManifest
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    trace_hash: str = ""
    built: BuiltExperiment | None = None
    model_hash: str = ""


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> RunResult:
    with one_blas_thread() as blas:
        built = build_experiment(cfg)
        built.manifest = replace(
            built.manifest,
            blas_library=blas.library,
            blas_threads=blas.threads,
            blas_pinned=blas.pinned,
            numpy_simd=numpy_simd(),
        )
        with run_workers(built) as evaluator:
            rows, model_hash = _run_rows(built, evaluator)

    sim = built.sim
    accs = [r["accuracy"] for r in rows]
    client_updates = built.client_update_counts()
    summary = {
        "algorithm": cfg.algorithm,
        "preset": cfg.preset,
        "seed": cfg.seed,
        "stop_reason": sim.stop_reason,
        "sim_time_ms": sim.now,
        "events": sim.events_processed,
        "updates": built.total_updates(),
        "updates_received": sum(client_updates.values()),
        "final_accuracy": accs[-1],
        "best_accuracy": max(accs),
        "reached_target": bool(
            cfg.target_accuracy is not None and max(accs) >= cfg.target_accuracy
        ),
        "time_to_85_ms": time_to_accuracy(rows, 0.85),
        "time_to_90_ms": time_to_accuracy(rows, 0.90),
        "time_to_95_ms": time_to_accuracy(rows, 0.95),
        "updates_to_85": updates_to_accuracy(rows, 0.85),
        "updates_to_90": updates_to_accuracy(rows, 0.90),
        "updates_to_95": updates_to_accuracy(rows, 0.95),
        "bytes_by_class": dict(sim.bytes_by_class),
        "total_bytes": sim.total_bytes,
        "client_updates": {str(k): v for k, v in sorted(client_updates.items())},
        "age_clamps": {
            str(s.node_id): s.age_clamps for s in built.servers if cfg.algorithm in SPYKER_MERGE
        },
        "config_hash": built.manifest.config_hash,
        "config": to_dict(cfg),
    }
    result = RunResult(cfg, built.manifest, rows, summary, sim.trace_hash(), built, model_hash)
    if out_dir is not None:
        write_run(result, out_dir)
    return result


def _run_rows(built: BuiltExperiment, evaluator: Callable[[], Future]) -> tuple[list[dict], str]:
    """Run the simulation; one row per evaluation, accuracies resolved, and
    the model hash: the SHA-256 over every row's model digest, in order."""
    cfg, sim = built.cfg, built.sim
    rows: list[dict] = []
    scores: list[Future] = []

    def snapshot(sim: Simulator) -> bool:
        scores.append(evaluator())
        updates = built.total_updates()
        row = {"sim_time_ms": sim.now, "updates": updates, "accuracy": None}
        row["bytes_server_server"] = sim.bytes_by_class["server-server"]
        row["bytes_server_client"] = sim.bytes_by_class["server-client"]
        for s in built.servers:
            row[f"queue_{s.node_id}"] = sim.queue_length(s.node_id)
        rows.append(row)
        # Only the stop decision waits for the worker.
        if cfg.target_accuracy is not None and scores[-1].result()[0] >= cfg.target_accuracy:
            return True
        if cfg.max_updates is not None and updates >= cfg.max_updates:
            return True
        return False

    stopped_at_start = snapshot(sim)
    if not stopped_at_start:
        sim.run(
            horizon_ms=cfg.horizon_ms,
            eval_interval_ms=cfg.eval_interval_ms,
            eval_hook=snapshot,
        )
        if rows[-1]["sim_time_ms"] < sim.now:
            snapshot(sim)
    else:
        sim.stop_reason = "target"
    model_hash = hashlib.sha256()
    for row, score in zip(rows, scores):
        row["accuracy"], digest = score.result()
        model_hash.update(digest)
    return rows, model_hash.hexdigest()


# -- run artifacts ------------------------------------------------------------


def write_run(result: RunResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        f.write(result.manifest.to_json())
    columns = list(result.rows[0])
    with open(os.path.join(out_dir, "timeseries.csv"), "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=columns)
        w.writeheader()
        w.writerows(result.rows)
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(result.summary, f, sort_keys=True, indent=2)
        f.write("\n")
    with open(os.path.join(out_dir, "trace-hash.txt"), "w") as f:
        f.write(result.trace_hash + "\n")
    with open(os.path.join(out_dir, "model-hash.txt"), "w") as f:
        f.write(result.model_hash + "\n")


def read_summary(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def time_to_accuracy(rows: list[dict], target: float) -> float | None:
    for r in rows:
        if r["accuracy"] >= target:
            return float(r["sim_time_ms"])
    return None


def updates_to_accuracy(rows: list[dict], target: float) -> int | None:
    for r in rows:
        if r["accuracy"] >= target:
            return int(r["updates"])
    return None
