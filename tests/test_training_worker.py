"""MLP clients training on the run's worker thread: the same runs as inline
training, trainings posted when a client's service starts, updates resolved
when a server reads them, errors that name the client, and no thread or
posted job left behind."""

import gc
import hashlib
import math
import multiprocessing
import os
import re
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

import spykersim.experiment as experiment
import spykersim.models as models
import spykersim.protocols.spyker as spyker
import spykersim.workers as workers
from spykersim.config import ALGORITHMS, from_dict
from spykersim.errors import NumericsError
from spykersim.experiment import build_experiment, run_experiment
from spykersim.messages import ClientUpdate, ModelDispatch, payload_bytes
from spykersim.protocols.clients import TrainingClient, train_inline
from spykersim.suites import variant

ARTIFACTS = ("trace-hash.txt", "model-hash.txt", "timeseries.csv", "summary.json")


def small_mnist(algorithm: str = "spyker", **extra):
    cfg = from_dict(
        {"preset": "desk-mnist", "seed": 3, "n_samples": 3000, "horizon_ms": 1000.0,
         "eval_interval_ms": 250.0, **extra}
    )
    return variant(cfg, algorithm)


def final_params_sha(res) -> str:
    h = hashlib.sha256()
    nodes = res.built.servers + ([res.built.cloud] if res.built.cloud is not None else [])
    for node in nodes:
        h.update(np.ascontiguousarray(node.model.params, dtype="<f8").tobytes())
    return h.hexdigest()


def artifacts(res, out: Path) -> dict:
    got = {name: (out / name).read_bytes() for name in ARTIFACTS}
    got["params"] = final_params_sha(res)
    return got


def count_seed_sequences(monkeypatch):
    """Count every ``SeedSequence`` built through ``np.random.SeedSequence``
    or ``np.random.default_rng``, in this process and in any process it
    forks, which inherits the patch and the shared count."""
    made = multiprocessing.get_context("fork").Value("q", 0)
    real_class, real_rng = np.random.SeedSequence, np.random.default_rng

    class Counted(real_class):
        def __init__(self, *args, **kwargs):
            with made.get_lock():
                made.value += 1
            super().__init__(*args, **kwargs)

    def counted_rng(seed=None):
        if not isinstance(seed, (np.random.BitGenerator, np.random.Generator, ISeedSequence)):
            seed = Counted(seed)
        return real_rng(seed)

    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    return made


def seed_sequences_of_a_run(monkeypatch, cfg, out) -> tuple[int, int, object]:
    """The seed sequences built during the build and after it, and the run."""
    made = count_seed_sequences(monkeypatch)
    at_build = []
    build = experiment.build_experiment

    def counted_build(c):
        built = build(c)
        at_build.append(made.value)
        made.value = 0
        return built

    monkeypatch.setattr(experiment, "build_experiment", counted_build)
    res = run_experiment(cfg, str(out))
    return at_build[0], made.value, res


def train_names() -> set[str]:
    return {t.name for t in threading.enumerate() if t.name.startswith("spykersim-train")}


class Outbox:
    """Stands in for the simulator: keeps what a client sends, and its size."""

    now = 0.0
    horizon = math.inf

    def __init__(self):
        self.sent = []
        self.nbytes = []

    def send(self, src, dst, msg):
        self.sent.append(msg)
        self.nbytes.append(payload_bytes(msg))


def serve(client, sim, msg):
    """Run one service of ``msg`` from the client's home server: its start,
    which posts the training, then its end, which sends the update."""
    client.service_ms(sim, msg, client.home_server)
    client.handle(sim, client.home_server, msg)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_worker_runs_equal_inline_runs(monkeypatch, tmp_path, algorithm):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    cfg = small_mnist(algorithm)
    seen = []
    handle = TrainingClient.handle

    def watched(self, sim, src, msg):
        seen.append(self.trainer is not train_inline)
        return handle(self, sim, src, msg)

    monkeypatch.setattr(TrainingClient, "handle", watched)
    threaded = run_experiment(cfg, str(tmp_path / "worker"))
    assert seen and all(seen)
    seen.clear()
    with monkeypatch.context() as m:
        # All work stays on the loop.
        m.setattr(workers, "_start_worker", workers._OnLoop)
        inline = run_experiment(cfg, str(tmp_path / "inline"))
    assert seen and not any(seen)
    assert threaded.summary["updates"] > 0
    assert artifacts(threaded, tmp_path / "worker") == artifacts(inline, tmp_path / "inline")


def test_sending_a_pending_update_does_not_train(monkeypatch):
    built = build_experiment(small_mnist())
    client = built.clients[0]
    ran = []
    train = models.local_training

    def counted(*args):
        ran.append(threading.current_thread())
        return train(*args)

    monkeypatch.setattr(models, "local_training", counted)
    outbox = Outbox()
    hold = threading.Event()
    with ThreadPoolExecutor(max_workers=1) as trainer:
        blocker = trainer.submit(hold.wait, 10)
        client.trainer = partial(workers._Training, trainer)
        try:
            serve(client, outbox, ModelDispatch(built.template.params, 0.0, 0.3))
            update = outbox.sent[-1]
            # The worker is busy, so the job is still queued: nothing trained.
            assert ran == []
            # The reader cancels the queued job and runs it on its own thread.
            params = update.params
            assert ran == [threading.current_thread()]
        finally:
            hold.set()
            client.trainer = train_inline
        assert blocker.result() is True
    assert outbox.nbytes == [payload_bytes(ClientUpdate(params, 0.0))]
    # The same dispatch trained inline gives the same bytes.
    client._round = 0
    serve(client, outbox, ModelDispatch(built.template.params, 0.0, 0.3))
    assert outbox.sent[-1].params.tobytes() == params.tobytes()


def test_dispatched_and_trained_params_are_read_only():
    built = build_experiment(small_mnist())
    client = built.clients[0]
    outbox = Outbox()
    dispatch = ModelDispatch(built.template.params.copy(), 0.0, 0.3)
    with ThreadPoolExecutor(max_workers=1) as trainer:
        client.trainer = partial(workers._Training, trainer)
        serve(client, outbox, dispatch)
        with pytest.raises(ValueError, match="read-only"):
            dispatch.params[0] = 1.0
        trained = outbox.sent[0].params
    with pytest.raises(ValueError, match="read-only"):
        trained[0] = 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_names_the_client(monkeypatch):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    cfg = small_mnist(hyper={"eta_init": 1e308})
    with pytest.raises(NumericsError) as err:
        run_experiment(cfg)
    assert threading.active_count() == before
    msg = str(err.value)
    found = re.search(
        r"client (\d+) \(home server (\d+)\) trained dispatch round (\d+) at lr 1e\+308 .* "
        r"first non-finite component (\d+)$",
        msg,
    )
    assert found, msg
    client, home = int(found[1]), int(found[2])
    built = build_experiment(cfg)
    assert {c.node_id: c.home_server for c in built.clients}[client] == home
    assert int(found[4]) == err.value.index
    assert isinstance(err.value.__cause__, NumericsError)


def test_threads_end_with_the_run(monkeypatch):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    run_experiment(small_mnist())
    assert threading.active_count() == before and not train_names()

    calls = []
    merge = spyker.spyker_client_merge

    def failing(*args):
        calls.append(1)
        if len(calls) == 20:
            raise RuntimeError("merge failed on the event loop")
        return merge(*args)

    monkeypatch.setattr(spyker, "spyker_client_merge", failing)
    with pytest.raises(RuntimeError, match="merge failed on the event loop"):
        run_experiment(small_mnist())
    assert threading.active_count() == before and not train_names()


def test_logistic_regression_starts_no_training_thread(monkeypatch):
    names = set()
    trainers = set()
    pids = []
    handle = TrainingClient.handle
    fork = os.fork

    def watched(self, sim, src, msg):
        names.update(train_names())
        trainers.add(self.trainer.func.__qualname__)
        return handle(self, sim, src, msg)

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(TrainingClient, "handle", watched)
    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    cfg = from_dict({"preset": "desk-synth", "seed": 3, "horizon_ms": 1000.0})
    assert cfg.model_kind == models.LOGREG
    assert run_experiment(cfg).summary["updates"] > 0
    assert names == set()
    # Every dispatch went to one forked training process, which is reaped.
    assert trainers == {"TrainingProcess.submit"} and len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


# Each kind of run and the trainer its clients get.
TRAINERS = {"process": "TrainingProcess.submit", "thread": "_Training", "inline": "train_inline"}


def posting_run(monkeypatch, kind):
    """Run a small experiment whose clients train in the forked process, on
    the training thread or inline; return the run's clients and every
    trainer call as (client id, sim time, dispatch round, weakref to the
    returned job)."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    if kind == "process":
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork")
        cfg = from_dict({"preset": "desk-synth", "seed": 3, "horizon_ms": 1000.0})
    else:
        cfg = small_mnist()
    start = workers._OnLoop if kind == "inline" else workers._start_worker
    posts, clients = [], []

    def recording(sim, client, trainer):
        def record(train, params, lr, dispatch):
            job = trainer(train, params, lr, dispatch)
            posts.append((client.node_id, sim.now, dispatch, weakref.ref(job)))
            return job

        return record

    def started(built):
        worker = start(built)
        for client in built.clients:
            trainer = client.trainer
            assert getattr(trainer, "func", trainer).__qualname__ == TRAINERS[kind]
            client.trainer = recording(built.sim, client, trainer)
        clients.extend(built.clients)
        return worker

    monkeypatch.setattr(workers, "_start_worker", started)
    return cfg, posts, clients


@pytest.mark.parametrize("kind", TRAINERS)
def test_training_is_posted_when_the_service_starts(monkeypatch, kind):
    cfg, posts, clients = posting_run(monkeypatch, kind)
    handled = []
    handle = TrainingClient.handle

    def watched(self, sim, src, msg):
        handled.append((self.node_id, sim.now))
        return handle(self, sim, src, msg)

    monkeypatch.setattr(TrainingClient, "handle", watched)
    res = run_experiment(cfg)
    assert res.summary["updates"] > 0
    by_client = {c.node_id: c for c in clients}
    for cid, client in by_client.items():
        mine = [p for p in posts if p[0] == cid]
        ends = [t for c, t in handled if c == cid]
        assert [p[2] for p in mine] == list(range(len(mine)))
        # At most the service in progress at the horizon is never handled.
        assert len(ends) <= len(mine) <= len(ends) + 1
        service = client.training_delay_ms * client.epochs
        for (_, posted_at, _, _), end in zip(mine, ends):
            assert posted_at + service == end
    assert len(posts) > len(clients)


def test_no_training_is_posted_past_the_horizon(monkeypatch):
    """A service that ends exactly at the horizon is handled, so its
    training is posted; none that ends after it is."""
    cfg, posts, clients = posting_run(monkeypatch, "inline")
    handled = []
    handle = TrainingClient.handle

    def watched(self, sim, src, msg):
        handled.append((self.node_id, sim.now))
        return handle(self, sim, src, msg)

    monkeypatch.setattr(TrainingClient, "handle", watched)
    run_experiment(cfg)
    # A run cut at the last service end of a longer run has the same
    # schedule up to that time.
    last = max(handled, key=lambda h: h[1])
    handled.clear(), posts.clear(), clients.clear()
    res = run_experiment(replace(cfg, horizon_ms=last[1]))
    assert res.summary["sim_time_ms"] == last[1] and last in handled
    assert sorted(cid for cid, *_ in posts) == sorted(cid for cid, _ in handled)


@pytest.mark.parametrize("kind", TRAINERS)
def test_no_posted_job_outlives_its_run(monkeypatch, kind):
    # The clients stay referenced here, so a client must not keep its last
    # job either; only reference counting frees objects, so a reference
    # cycle through a job would keep it alive too.
    cfg, posts, clients = posting_run(monkeypatch, kind)
    collecting = gc.isenabled()
    gc.disable()
    try:
        run_experiment(cfg)
        alive = sum(ref() is not None for *_, ref in posts)
    finally:
        if collecting:
            gc.enable()
    assert posts and alive == 0
    assert all(c.training is None for c in clients)


def test_a_finished_job_releases_its_dispatched_params():
    built = build_experiment(small_mnist())
    client = built.clients[0]
    params = built.template.params.copy()
    dispatched = weakref.ref(params)
    with ThreadPoolExecutor(max_workers=1) as pool:
        training = workers._Training(pool, client._train, params, 0.3, 0)
        del params
        training.future.result(timeout=60)
    # Finished but not read: the job still holds its result, not its input.
    assert training.job is None and dispatched() is None
    assert not training.result().flags.writeable


def test_no_seed_sequence_is_built_after_the_build_of_a_threaded_run(monkeypatch, tmp_path):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    at_build, after, res = seed_sequences_of_a_run(monkeypatch, small_mnist(), tmp_path)
    assert res.summary["updates"] > 0
    # The count sees the build's own seed sequences.
    assert at_build > 0
    assert after == 0
