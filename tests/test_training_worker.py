"""MLP clients training on the run's worker thread: the same runs as inline
training, updates resolved when a server reads them, errors that name the
client, and no thread left behind."""

import hashlib
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import spykersim.experiment as experiment
import spykersim.models as models
import spykersim.protocols.spyker as spyker
from spykersim.config import ALGORITHMS, from_dict
from spykersim.errors import NumericsError
from spykersim.experiment import build_experiment, run_experiment
from spykersim.messages import ClientUpdate, ModelDispatch, payload_bytes
from spykersim.protocols.clients import TrainingClient
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


def train_names() -> set[str]:
    return {t.name for t in threading.enumerate() if t.name.startswith("spykersim-train")}


class Outbox:
    """Stands in for the simulator: keeps what a client sends, and its size."""

    def __init__(self):
        self.sent = []
        self.nbytes = []

    def send(self, src, dst, msg):
        self.sent.append(msg)
        self.nbytes.append(payload_bytes(msg))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_worker_runs_equal_inline_runs(monkeypatch, tmp_path, algorithm):
    cfg = small_mnist(algorithm)
    seen = []
    handle = TrainingClient.handle

    def watched(self, sim, src, msg):
        seen.append(self.trainer is not None)
        return handle(self, sim, src, msg)

    monkeypatch.setattr(TrainingClient, "handle", watched)
    threaded = run_experiment(cfg, str(tmp_path / "worker"))
    assert seen and all(seen)
    seen.clear()
    with monkeypatch.context() as m:
        m.setattr(experiment, "_training_worker", lambda built: None)
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
        client.trainer = trainer
        try:
            client.handle(outbox, client.home_server, ModelDispatch(built.template.params, 0.0, 0.3))
            update = outbox.sent[-1]
            # The worker is busy, so the job is still queued: nothing trained.
            assert ran == []
            # The reader cancels the queued job and runs it on its own thread.
            params = update.params
            assert ran == [threading.current_thread()]
        finally:
            hold.set()
            client.trainer = None
        assert blocker.result() is True
    assert outbox.nbytes == [payload_bytes(ClientUpdate(params, 0.0))]
    # The same dispatch trained inline gives the same bytes.
    client._round = 0
    client.handle(outbox, client.home_server, ModelDispatch(built.template.params, 0.0, 0.3))
    assert outbox.sent[-1].params.tobytes() == params.tobytes()


def test_dispatched_and_trained_params_are_read_only():
    built = build_experiment(small_mnist())
    client = built.clients[0]
    outbox = Outbox()
    dispatch = ModelDispatch(built.template.params.copy(), 0.0, 0.3)
    with ThreadPoolExecutor(max_workers=1) as trainer:
        client.trainer = trainer
        client.handle(outbox, client.home_server, dispatch)
        with pytest.raises(ValueError, match="read-only"):
            dispatch.params[0] = 1.0
        trained = outbox.sent[0].params
    with pytest.raises(ValueError, match="read-only"):
        trained[0] = 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_names_the_client():
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
        trainers.add(type(self.trainer).__name__)
        return handle(self, sim, src, msg)

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(TrainingClient, "handle", watched)
    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    cfg = from_dict({"preset": "desk-synth", "seed": 3, "horizon_ms": 1000.0})
    assert cfg.model_kind == models.LOGREG
    assert run_experiment(cfg).summary["updates"] > 0
    assert names == set()
    # Every dispatch went to one forked training process, which is reaped.
    assert trainers == {"_Slot"} and len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)
