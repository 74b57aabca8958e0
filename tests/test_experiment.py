"""Topology wiring, artifact round-trips, and determinism of full runs."""

import csv
import dataclasses
import gc
import json
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

import spykersim.experiment as experiment
import spykersim.models as models
from spykersim.cli import main
from spykersim.config import (
    ALGORITHMS,
    DATA_ROOT_ENV,
    LOCATIONS,
    SINGLE_SERVER,
    ExperimentConfig,
    from_dict,
)
from spykersim.data import Dataset, load_idx
from spykersim.errors import ConfigError
from spykersim.hyperparams import HyperParams
from spykersim.experiment import (
    build_experiment,
    load_task,
    run_experiment,
    time_to_accuracy,
    updates_to_accuracy,
)
from spykersim.messages import Token
from spykersim.simulation import ComputeProfile
from spykersim.suites import UNREACHED, median_over_seeds, variant


def tiny(algorithm="spyker", **overrides):
    raw = {
        "algorithm": algorithm,
        "n_servers": 4,
        "n_clients": 8,
        "n_samples": 400,
        "input_dim": 6,
        "separation": 3.0,
        "horizon_ms": 3000.0,
        "eval_interval_ms": 500.0,
        "hyper": {"batch_size": 8},
    }
    if algorithm in SINGLE_SERVER:
        raw["n_servers"] = 1
    raw.update(overrides)
    return from_dict(raw)


# -- topology -----------------------------------------------------------------


def test_spyker_topology_layout():
    built = build_experiment(tiny())
    assert [s.node_id for s in built.servers] == [0, 1, 2, 3]
    assert [c.node_id for c in built.clients] == list(range(4, 12))
    assert built.cloud is None
    # Two clients per server, block-assigned and colocated with their home.
    for i, c in enumerate(built.clients):
        assert c.home_server == i // 2
        assert c.location == built.servers[c.home_server].location
    ring = built.manifest.ring_order
    assert sorted(ring) == [0, 1, 2, 3]
    holders = [s.node_id for s in built.servers if s.token is not None]
    assert holders == [ring[0]]
    assert built.servers[ring[0]].token == Token(0, (0.0, 0.0, 0.0, 0.0))


def test_single_server_clients_spread_over_locations():
    built = build_experiment(tiny("fedasync"))
    assert len(built.servers) == 1
    seen = [c.location for c in built.clients]
    assert seen == [LOCATIONS[i % 4] for i in range(8)]


def test_hier_topology_has_a_cloud():
    built = build_experiment(tiny("hierfavg"))
    assert built.cloud is not None
    assert built.cloud.node_id == 4 + 8
    assert built.cloud.location == built.servers[0].location


def test_unbalanced_counts_follow_config():
    built = build_experiment(tiny(client_counts=[5, 1, 1, 1]))
    homes = [c.home_server for c in built.clients]
    assert homes == [0, 0, 0, 0, 0, 1, 2, 3]


def test_client_streams_stable_across_algorithms():
    # The same master seed must give every client the same delay and data
    # order no matter which protocol sits on the server side.
    builds = [build_experiment(tiny(alg)) for alg in ("spyker", "fedavg", "hierfavg")]
    delays = [[c.training_delay_ms for c in b.clients] for b in builds]
    assert delays[0] == delays[1] == delays[2]
    seeds = [list(b.manifest.node_seeds.values()) for b in builds]
    assert seeds[0] == seeds[1] == seeds[2]


def test_model_template_shared_across_servers():
    built = build_experiment(tiny())
    for s in built.servers:
        np.testing.assert_array_equal(s.model.params, built.template.params)


# -- eval model ---------------------------------------------------------------


def test_eval_model_age_weights_server_params():
    built = build_experiment(tiny())
    dim = built.template.params.size
    for i, s in enumerate(built.servers):
        s.model = built.template.with_params(np.full(dim, float(i)))
        s.age = float(i)
    want = (0 * 0 + 1 * 1 + 2 * 2 + 3 * 3) / 6.0
    np.testing.assert_allclose(built.eval_model().params, np.full(dim, want))


def test_eval_model_uniform_when_ages_zero_or_mean_requested():
    for overrides in ({}, {"eval_target": "mean"}):
        built = build_experiment(tiny(**overrides))
        dim = built.template.params.size
        for i, s in enumerate(built.servers):
            s.model = built.template.with_params(np.full(dim, float(i)))
            s.age = float(i) if overrides else 0.0
        np.testing.assert_allclose(built.eval_model().params, np.full(dim, 1.5))


# -- running and artifacts ----------------------------------------------------


def test_run_rows_and_summary_shape():
    res = run_experiment(tiny())
    assert res.rows[0]["sim_time_ms"] == 0.0
    for col in ("updates", "accuracy", "bytes_server_server", "bytes_server_client",
                "queue_0", "queue_3"):
        assert col in res.rows[0]
    times = [r["sim_time_ms"] for r in res.rows]
    assert times == sorted(times)
    upd = [r["updates"] for r in res.rows]
    assert all(b >= a for a, b in zip(upd, upd[1:]))
    assert res.summary["updates"] == res.rows[-1]["updates"]
    assert res.summary["stop_reason"] == "horizon"
    assert res.summary["events"] > 0
    assert set(res.summary["client_updates"]) == {str(c) for c in range(4, 12)}
    assert len(res.trace_hash) == 64


@pytest.mark.parametrize("algorithm", ["spyker", "sync-spyker", "fedavg"])
def test_summary_counts_age_clamps_per_spyker_server(algorithm):
    res = run_experiment(tiny(algorithm))
    clamps = res.summary["age_clamps"]
    if algorithm == "fedavg":
        assert clamps == {}
    else:
        assert clamps == {str(s.node_id): s.age_clamps for s in res.built.servers}
        assert all(type(v) is int and v >= 0 for v in clamps.values())


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_summary_counts_updates_merged_and_received(algorithm):
    # The 3300 ms horizon cuts a FedAvg round and a HierFAVG edge round, whose
    # received updates are not merged yet.
    summary = run_experiment(tiny(algorithm, horizon_ms=3300.0)).summary
    assert summary["updates_received"] == sum(summary["client_updates"].values())
    if algorithm in ("fedavg", "hierfavg"):
        assert summary["updates"] < summary["updates_received"]
    else:
        assert summary["updates"] == summary["updates_received"]


def test_target_stop_before_first_event():
    # Any positive target below the untrained accuracy stops at the t=0 eval.
    res = run_experiment(tiny(target_accuracy=0.01))
    assert res.summary["stop_reason"] == "target"
    assert len(res.rows) == 1


def test_max_updates_stops_early():
    res = run_experiment(tiny(max_updates=5))
    assert res.summary["stop_reason"] == "target"
    assert res.summary["updates"] >= 5
    assert res.summary["sim_time_ms"] < 3000.0


def test_write_and_read_round_trip(tmp_path):
    out = tmp_path / "run"
    res = run_experiment(tiny(), str(out))
    for name in ("manifest.json", "timeseries.csv", "summary.json", "trace-hash.txt"):
        assert (out / name).exists()
    rows = res.rows
    with open(out / "timeseries.csv", newline="") as f:
        ts = list(csv.DictReader(f))
    assert len(ts) == len(rows)
    assert float(ts[3]["accuracy"]) == rows[3]["accuracy"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_accuracy"] == res.summary["final_accuracy"]
    assert (out / "trace-hash.txt").read_text().strip() == res.trace_hash
    assert (out / "manifest.json").read_text() == res.manifest.to_json()


def test_manifest_json_round_trip():
    m = build_experiment(tiny()).manifest
    fields = dataclasses.asdict(m)
    assert json.loads(m.to_json()) == {**fields, "ring_order": list(m.ring_order)}


def test_identical_configs_are_bitwise_identical(tmp_path):
    cfg = tiny()
    a = run_experiment(cfg, str(tmp_path / "a"))
    b = run_experiment(cfg, str(tmp_path / "b"))
    assert a.trace_hash == b.trace_hash
    assert a.rows == b.rows
    for name in ("manifest.json", "timeseries.csv", "summary.json", "trace-hash.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_changes_the_trace():
    a = run_experiment(tiny(seed=0))
    b = run_experiment(tiny(seed=1))
    assert a.trace_hash != b.trace_hash


SCHEDULE_PRESETS = {
    "desk-synth": {"horizon_ms": 1500.0},
    "desk-mnist": {"n_samples": 3000, "horizon_ms": 1000.0, "eval_interval_ms": 250.0},
}


def schedule(res) -> dict:
    """Everything a run's event schedule decides; only accuracy is left out."""
    keep = ("total_bytes", "bytes_by_class", "client_updates", "age_clamps", "events")
    return {
        "trace_hash": res.trace_hash,
        **{key: res.summary[key] for key in keep},
        "rows": [{k: v for k, v in row.items() if k != "accuracy"} for row in res.rows],
    }


def params(res) -> list[bytes]:
    return [s.model.params.tobytes() for s in res.built.servers]


@pytest.mark.parametrize(
    "preset, algorithm", [(p, a) for p in SCHEDULE_PRESETS for a in ALGORITHMS]
)
def test_schedule_does_not_depend_on_model_values(monkeypatch, preset, algorithm):
    """Clients that send back the dispatched model untrained give the same
    event schedule, bytes and update counts as clients that train."""
    cfg = variant(from_dict({"preset": preset, "seed": 3, **SCHEDULE_PRESETS[preset]}), algorithm)
    trained = run_experiment(cfg)
    # Set before the run, so the forked child and the training thread train this way too.
    monkeypatch.setattr(models, "local_training", lambda m, *args: m)
    untrained = run_experiment(cfg)
    assert untrained.summary["updates"] > 0
    assert params(untrained) != params(trained)
    assert schedule(untrained) == schedule(trained)


@pytest.mark.parametrize(
    "preset, overrides",
    [
        ("desk-synth", {"horizon_ms": 6000.0, "eval_interval_ms": 400.0}),
        ("desk-mnist", {"n_samples": 3000, "horizon_ms": 1000.0, "eval_interval_ms": 300.0}),
    ],
)
def test_summary_states_the_resolution_of_its_times_to_accuracy(tmp_path, preset, overrides):
    """Accuracy is read only at evaluations, so every time_to_* is a
    multiple of the evaluation interval; the summary says so, with or
    without a mark."""
    cfg = from_dict({"preset": preset, "seed": 3, **overrides})
    run_experiment(cfg, str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    step = summary["time_to_resolution_ms"]
    assert step == cfg.eval_interval_ms
    marks = [summary[f"time_to_{p}_ms"] for p in (85, 90, 95)]
    assert None in marks
    for t in marks:
        assert t is None or t % step == 0 or t == summary["sim_time_ms"]
    with open(tmp_path / "timeseries.csv", newline="") as f:
        assert "time_to_resolution_ms" not in next(csv.reader(f))


# -- dataset plumbing ---------------------------------------------------------


def test_image_task_falls_back_to_surrogate(monkeypatch):
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    cfg = tiny(dataset="mnist", input_dim=12, n_classes=3, n_samples=300)
    train, test = load_task(cfg)
    assert train.dim == 12 and test.dim == 12
    assert train.n_classes == 3
    assert train.n_samples + test.n_samples == 300


def test_data_sets_are_held_once_in_float32(monkeypatch):
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    cfg = from_dict({"preset": "desk-mnist"})
    built = build_experiment(cfg)
    train, _ = load_task(cfg)
    for client in built.clients:
        assert client._X.dtype == np.float32 and not client._X.flags.writeable
    assert sum(c._X.nbytes for c in built.clients) == train.features.nbytes
    assert train.features.nbytes == train.n_samples * 784 * 4
    assert built.test.features.dtype == np.float32
    assert not hasattr(Dataset, "features64")


def write_idx(tmp_path, n, rows, cols, n_classes, seed=0):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = (np.arange(n) % n_classes).astype(np.uint8)
    img = struct.pack(">IIII", 0x803, n, rows, cols) + pixels.tobytes()
    lab = struct.pack(">II", 0x801, n) + labels.tobytes()
    return pixels, labels, img, lab


def test_image_task_reads_idx_files(tmp_path, monkeypatch):
    pixels, labels, img, lab = write_idx(tmp_path, 30, 2, 2, 3)
    _, _, img_t, lab_t = write_idx(tmp_path, 12, 2, 2, 3, seed=1)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(img)
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(lab)
    (tmp_path / "t10k-images-idx3-ubyte").write_bytes(img_t)
    (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(lab_t)
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))

    cfg = tiny(dataset="mnist", input_dim=4, n_classes=3, n_samples=30)
    train, test = load_task(cfg)
    assert train.n_samples == 30 and test.n_samples == 12
    np.testing.assert_allclose(train.features, pixels.reshape(30, 4) / 255.0, atol=1e-7)
    np.testing.assert_array_equal(train.labels, labels)

    with pytest.raises(ConfigError):
        load_task(tiny(dataset="mnist", input_dim=9, n_classes=3))


def test_idx_subsampling_keeps_all_classes(tmp_path, monkeypatch):
    _, _, img, lab = write_idx(tmp_path, 60, 2, 2, 3)
    _, _, img_t, lab_t = write_idx(tmp_path, 12, 2, 2, 3, seed=1)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(img)
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(lab)
    (tmp_path / "t10k-images-idx3-ubyte").write_bytes(img_t)
    (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(lab_t)
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))

    train, _ = load_task(tiny(dataset="mnist", input_dim=4, n_classes=3, n_samples=15))
    assert train.n_samples <= 16
    assert set(np.unique(train.labels)) == {0, 1, 2}


def write_idx_dir(tmp_path, train, test):
    """Write the four MNIST files; ``train`` and ``test`` are each
    (n, rows, cols, n_classes)."""
    for prefix, (n, rows, cols, n_classes), seed in (("train", train, 0), ("t10k", test, 1)):
        _, _, img, lab = write_idx(tmp_path, n, rows, cols, n_classes, seed=seed)
        (tmp_path / f"{prefix}-images-idx3-ubyte").write_bytes(img)
        (tmp_path / f"{prefix}-labels-idx1-ubyte").write_bytes(lab)


@pytest.mark.parametrize("classes", [2, 4])
def test_idx_train_set_with_another_class_count_names_it(tmp_path, monkeypatch, classes):
    # With 4 classes, the run would build a 4-class model against the config.
    write_idx_dir(tmp_path, (30, 2, 2, classes), (12, 2, 2, classes))
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    expected = rf"train set at .* has {classes} classes, config expects n_classes=3"
    with pytest.raises(ConfigError, match=expected):
        load_task(tiny(dataset="mnist", input_dim=4, n_classes=3, n_samples=30))


def test_idx_test_set_of_another_size_is_a_config_error(tmp_path, monkeypatch):
    write_idx_dir(tmp_path, (30, 2, 2, 3), (12, 3, 3, 3))
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    with pytest.raises(ConfigError, match=r"t10k set at .* has dim 9, config expects input_dim=4"):
        load_task(tiny(dataset="mnist", input_dim=4, n_classes=3, n_samples=30))
    # The CLI reports it with the configuration exit code, before any run.
    overrides = ["dataset=mnist", "input_dim=4", "n_classes=3", "n_samples=30", "n_clients=8",
                 "horizon_ms=500", "hyper.batch_size=8"]
    argv = ["run", "--out-dir", str(tmp_path / "out")]
    for o in overrides:
        argv += ["--override", o]
    assert main(argv) == 1


def test_idx_rows_are_picked_before_they_are_widened(tmp_path, monkeypatch):
    """The kept rows equal those picked from fully widened files, at less
    than half the traced peak memory."""
    write_idx_dir(tmp_path, (6000, 28, 28, 10), (2500, 28, 28, 10))
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    cfg = tiny(dataset="mnist", input_dim=784, n_classes=10, n_samples=600)
    paths = [str(tmp_path / name) for name in experiment.MNIST_FILES]
    seed = experiment.derive_seed(cfg.seed, experiment._SUBSAMPLE)

    def subsample(data, n, seed):
        # The stratified pick, on a set that is already widened.
        rng = np.random.default_rng(seed)
        take = []
        for c in range(data.n_classes):
            members = np.flatnonzero(data.labels == c)
            k = max(1, int(round(n * len(members) / data.n_samples)))
            take.append(rng.permutation(members)[:k])
        return data.subset(np.sort(np.concatenate(take)))

    def widened_first():
        train, test = load_idx(*paths[:2]), load_idx(*paths[2:])
        return subsample(train, 600, seed), subsample(test, 2000, seed + 1)

    def traced(load):
        tracemalloc.start()
        try:
            return load(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    want, want_peak = traced(widened_first)
    got, got_peak = traced(lambda: load_task(cfg))
    for a, b in zip(got, want):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.n_classes == b.n_classes == 10
    assert [d.n_samples for d in got] == [600, 2000]
    assert got_peak < want_peak / 2


# -- the process's last seeded task --------------------------------------------

ARTIFACTS = ("trace-hash.txt", "model-hash.txt", "timeseries.csv", "summary.json", "manifest.json")


def data_bytes(built) -> tuple:
    """Every client's shard and the test set, as bytes."""
    shards = [(c._X.tobytes(), c._y.tobytes()) for c in built.clients]
    return shards, built.test.features.tobytes(), built.test.labels.tobytes()


def forget_task():
    experiment._task = None


def test_reused_task_equals_cold_build(tmp_path, monkeypatch):
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    draws = []
    draw = experiment.synthetic_dataset
    monkeypatch.setattr(experiment, "synthetic_dataset", lambda *a, **k: draws.append(a) or draw(*a, **k))
    base = tiny(n_samples=800, horizon_ms=1000.0)
    # The five algorithms of one seed, two more client counts on it, another
    # seed, and back.
    cfgs = [variant(base, alg) for alg in ALGORITHMS]
    cfgs += [dataclasses.replace(base, n_clients=n) for n in (40, 80)]
    cfgs += [dataclasses.replace(base, seed=1), base]

    def run_all(cold: bool) -> list:
        out = []
        for i, cfg in enumerate(cfgs):
            if cold:
                forget_task()
            run_dir = tmp_path / ("cold" if cold else "warm") / str(i)
            res = run_experiment(cfg, str(run_dir))
            out.append((data_bytes(res.built), [(run_dir / n).read_bytes() for n in ARTIFACTS]))
        return out

    forget_task()
    warm = run_all(cold=False)
    # Seed 0 is drawn once for its first seven runs, then seed 1, then seed 0.
    assert len(draws) == 3
    assert run_all(cold=True) == warm
    assert len(draws) == 3 + len(cfgs)


# One valid value per config field, other than the value in ``tiny()``.
CHANGED = {
    "algorithm": "sync-spyker",
    "preset": "desk-synth",
    "n_servers": 2,
    "n_clients": 12,
    "client_counts": (5, 1, 1, 1),
    "server_locations": LOCATIONS[::-1],
    "client_locations": LOCATIONS * 2,
    "latency": "uniform",
    "bandwidth_bps": 1e6,
    "dataset": "mnist",
    "n_samples": 500,
    "input_dim": 7,
    "n_classes": 3,
    "separation": 2.0,
    "test_fraction": 0.3,
    "labels_per_client": 1,
    "model_kind": models.MLP,
    "hidden_dim": 5,
    "hyper": HyperParams(batch_size=4),
    "compute": ComputeProfile(training_mean_ms=90.0),
    "seed": 1,
    "horizon_ms": 1000.0,
    "target_accuracy": 0.9,
    "max_updates": 5,
    "eval_interval_ms": 250.0,
    "eval_target": "mean",
    "sync_period": 50.0,
    "cloud_period": 3,
    "selection_fraction": 0.5,
}


def test_every_config_field_gives_a_warm_build_equal_to_a_cold_one(monkeypatch):
    # A field that load_task reads and the entry's key leaves out would hand
    # the warm build the base config's data.
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    assert set(CHANGED) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    base = tiny()
    for name, value in CHANGED.items():
        cfg = dataclasses.replace(base, **{name: value})
        if name == "model_kind":  # an MLP needs a hidden layer
            cfg = dataclasses.replace(cfg, hidden_dim=5)
        cfg.validate()
        build_experiment(base)
        warm = data_bytes(build_experiment(cfg))
        forget_task()
        assert data_bytes(build_experiment(cfg)) == warm, name


def float_arrays(obj) -> list:
    """The float arrays reachable from ``obj``."""
    out, stack, seen = [], [obj], set()
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, type):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            if o.dtype.kind == "f":
                out.append(o)
        else:
            stack.extend(gc.get_referents(o))
    return out


def test_task_entry_holds_only_arrays_of_the_built_run(monkeypatch):
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    calls, trains = [], []
    partition = experiment.partition_noniid

    def counted(train, spec):
        # While the new shards are cut, the entry holds the test set alone,
        # on a hit as on a miss.
        assert len(float_arrays(experiment._task)) == 1
        calls.append(spec)
        trains.append(weakref.ref(train.features))
        return partition(train, spec)

    monkeypatch.setattr(experiment, "partition_noniid", counted)
    forget_task()
    cfg = tiny(horizon_ms=500.0)
    first = run_experiment(cfg)
    shards = [weakref.ref(c._X) for c in first.built.clients]
    for n_clients in (8, 12):  # a hit, then a hit with another partition
        built = build_experiment(dataclasses.replace(cfg, n_clients=n_clients))
        assert built.test is first.built.test
        held = {id(c._X) for c in built.clients} | {id(built.test.features)}
        entry = float_arrays(experiment._task)
        assert entry and {id(a) for a in entry} <= held
        assert trains[-1]() is None  # the rebuilt train set is gone
    assert len(calls) == 3 and calls[1].n_clients == 8 and calls[2].n_clients == 12
    # The first run's shards live only as long as its result.
    assert all(ref() is not None for ref in shards)
    del first
    gc.collect()
    assert all(ref() is None for ref in shards)


def test_idx_files_are_read_on_every_build(tmp_path, monkeypatch):
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    cfg = tiny(dataset="mnist", input_dim=4, n_classes=3, n_samples=30)
    for seed in (1, 2):
        write_idx_dir(tmp_path, (30, 2, 2, 3), (12, 2, 2, 3))
        pixels, _, img, lab = write_idx(tmp_path, 12, 2, 2, 3, seed=seed)
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(img)
        built = build_experiment(cfg)
        np.testing.assert_allclose(built.test.features, pixels.reshape(12, 4) / 255.0, atol=1e-7)
        assert experiment._task is None


# -- curve helpers ------------------------------------------------------------


def test_threshold_helpers():
    rows = [
        {"sim_time_ms": 0.0, "accuracy": 0.2, "updates": 0},
        {"sim_time_ms": 500.0, "accuracy": 0.82, "updates": 40},
        {"sim_time_ms": 1000.0, "accuracy": 0.91, "updates": 90},
    ]
    assert time_to_accuracy(rows, 0.8) == 500.0
    assert updates_to_accuracy(rows, 0.8) == 40
    assert time_to_accuracy(rows, 0.9) == 1000.0
    assert time_to_accuracy(rows, 0.99) is None
    assert updates_to_accuracy(rows, 0.99) is None


def test_median_over_seeds():
    per_seed = [
        {"t": 300.0, "n": 7, "miss": None, "ratio": UNREACHED, "never": None,
         "off": UNREACHED, "name": "spyker", "stop": "target", "curve": [1, 2],
         "same": [1], "ok": True, "cell": {"x": 1}, "partial": 1},
        {"t": None, "n": 9, "miss": None, "ratio": 1.5, "never": None,
         "off": UNREACHED, "name": "spyker", "stop": "horizon", "curve": [1, 3],
         "same": [1], "ok": False, "cell": {"x": 3}},
        {"t": 100.0, "n": 8, "miss": 4.0, "ratio": UNREACHED, "never": None,
         "off": UNREACHED, "name": "spyker", "stop": "target", "curve": [1, 2],
         "same": [1], "ok": True, "cell": {"x": 2}, "partial": 1},
    ]
    # None counts as +inf and an infinite median is written back as its
    # marker. Agreeing leaves are kept; "stop", "curve" and "ok" disagree and
    # "partial" is missing from one seed, so those four are dropped.
    assert median_over_seeds(per_seed) == {
        "t": 300.0,
        "n": 8,
        "miss": None,
        "ratio": UNREACHED,
        "never": None,
        "off": UNREACHED,
        "name": "spyker",
        "same": [1],
        "cell": {"x": 2},
    }
    # An even count takes the mean of the middle pair, as statistics.median.
    assert median_over_seeds([{"v": 1}, {"v": 2}]) == {"v": 1.5}
    assert median_over_seeds([{"v": 1.0}, {"v": None}]) == {"v": None}
