"""Logistic-regression clients training in the run's forked process: the
same runs as inline training, each job run once with its own lr and
dispatch round, errors that name the client, and no process left behind."""

import fcntl
import multiprocessing
import os
import re
import signal
import struct
import termios
import threading
import time
from functools import partial

import numpy as np
import pytest

import spykersim.models as models
import spykersim.protocols.spyker as spyker
import spykersim.workers as workers
from spykersim.config import ALGORITHMS, from_dict
from spykersim.errors import NumericsError
from spykersim.experiment import build_experiment, run_experiment
from spykersim.messages import ModelDispatch
from spykersim.suites import variant
from spykersim.workers import DONE, RUNNING, TrainingProcess
from test_training_worker import Outbox, artifacts, serve

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or workers._usable_cpus() < 2,
    reason="logistic-regression runs train inline without fork or a second CPU",
)


def small_synth(algorithm: str = "spyker", **extra):
    cfg = from_dict({"preset": "desk-synth", "seed": 3, "horizon_ms": 1500.0, **extra})
    return variant(cfg, algorithm)


class Forks(list):
    """The pids of every process forked while a test runs; ``threads[k]``
    names the threads that were alive at fork k."""

    def __init__(self):
        super().__init__()
        self.threads = []


@pytest.fixture
def forks(monkeypatch):
    pids = Forks()
    fork = os.fork

    def recorded():
        alive = [t.name for t in threading.enumerate()]
        pid = fork()
        if pid:
            pids.append(pid)
            pids.threads.append(alive)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


RUN_THREADS = ("spykersim-eval", "spykersim-train")


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def inline_run(monkeypatch, cfg, out):
    with monkeypatch.context() as m:
        m.setattr(workers, "_start_worker", workers._Threads)
        return run_experiment(cfg, str(out))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_process_runs_equal_inline_runs(monkeypatch, tmp_path, forks, algorithm):
    cfg = small_synth(algorithm)
    forked = run_experiment(cfg, str(tmp_path / "process"))
    assert len(forks) == 1
    # A fork copies only the calling thread, so the run's threads start after it.
    assert not [name for name in forks.threads[0] if name.startswith(RUN_THREADS)]
    inline = inline_run(monkeypatch, cfg, tmp_path / "inline")
    assert len(forks) == 1
    assert forked.summary["updates"] > 0
    assert artifacts(forked, tmp_path / "process") == artifacts(inline, tmp_path / "inline")
    assert_reaped(forks)


@pytest.mark.parametrize("reason", ["one CPU", "another thread"])
def test_trains_inline_with_one_cpu_or_another_thread(monkeypatch, tmp_path, forks, reason):
    cfg = small_synth()
    forked = run_experiment(cfg, str(tmp_path / "process"))
    assert len(forks) == 1
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    if reason == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        other.start()
    try:
        inline = run_experiment(cfg, str(tmp_path / "inline"))
    finally:
        release.set()
        if other.is_alive():
            other.join(30)
    assert not other.is_alive()
    assert len(forks) == 1
    assert artifacts(forked, tmp_path / "process") == artifacts(inline, tmp_path / "inline")


def test_jobs_read_in_any_order_equal_inline_training(forks):
    """Rounds of jobs for every client, read back in a shuffled order while
    the child works through them, each give the inline bytes."""
    built = build_experiment(small_synth(n_clients=24))
    clients = built.clients
    rng = np.random.default_rng(5)
    params = [built.template.params + rng.normal(0.0, 0.1, built.template.dim) for _ in range(3)]
    expected = {
        (k, c.node_id): c._train(params[k], 0.1 * (k + 1), k).tobytes()
        for k in range(3)
        for c in clients
    }
    proc = TrainingProcess(clients)
    deadline = time.monotonic() + 60
    try:
        for i, c in enumerate(clients):
            c.trainer = partial(proc.submit, i)
        for k in range(3):
            outbox = Outbox()
            for c in clients:
                serve(c, outbox, ModelDispatch(params[k], float(k), 0.1 * (k + 1)))
            order = rng.permutation(len(clients))
            for j, idx in enumerate(order):
                if j % 4 == 0:
                    time.sleep(0.0005)
                got = outbox.sent[idx].params
                assert got.tobytes() == expected[(k, clients[idx].node_id)]
            assert time.monotonic() < deadline
    finally:
        proc.close()
    assert_reaped(forks)


HOLD_LR = 0.0123


def wait_for_state(proc, slot, state):
    deadline = time.monotonic() + 30
    while proc._state[slot] != state:
        assert time.monotonic() < deadline, f"slot {slot} never reached state {state}"
        time.sleep(0.001)


def test_a_stale_request_trains_the_current_job(monkeypatch, forks):
    """The loop runs client 1's first job itself while the child is busy;
    the client is dispatched again before the child reads the first
    request, which must then train the second job, with its own lr and
    dispatch round."""
    built = build_experiment(small_synth())
    gate = multiprocessing.get_context("fork").Event()
    loop_lrs = []
    train = models.local_training

    def held(m, X, y, lr, *rest):
        if lr == HOLD_LR:
            gate.wait(30)
        loop_lrs.append(lr)
        return train(m, X, y, lr, *rest)

    monkeypatch.setattr(models, "local_training", held)
    busy, client = built.clients[0], built.clients[1]
    first = built.template.params
    second = first + 0.5
    # The reference: client 1's second job trained inline.
    expected = client._train(second, 0.2, 1)
    loop_lrs.clear()

    proc = TrainingProcess(built.clients)
    try:
        busy.trainer, client.trainer = partial(proc.submit, 0), partial(proc.submit, 1)
        outbox = Outbox()
        serve(busy, outbox, ModelDispatch(first, 0.0, HOLD_LR))
        wait_for_state(proc, 0, RUNNING)
        serve(client, outbox, ModelDispatch(first, 0.0, 0.3))
        assert outbox.sent[-1].params is not None  # queued, so the loop runs it
        assert loop_lrs == [0.3]
        serve(client, outbox, ModelDispatch(second, 1.0, 0.2))
        gate.set()
        # The child reads the first job's request and trains the second.
        wait_for_state(proc, 1, DONE)
        got = outbox.sent[-1].params
        assert loop_lrs == [0.3]
        assert got.tobytes() == expected.tobytes()
        assert not got.flags.writeable
        assert outbox.sent[0].params is not None
    finally:
        gate.set()
        proc.close()
    assert_reaped(forks)


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipe size cannot be set")
def test_a_full_done_pipe_loses_no_wake_up(monkeypatch, forks):
    """The child finishes more jobs than the run's shrunken done pipe holds
    while the loop never sleeps, so later wake-ups find the pipe full; the
    loop then waits for a running job and gets the inline bytes."""
    built = build_experiment(small_synth())
    clients, params = built.clients, built.template.params
    gate = multiprocessing.get_context("fork").Event()
    loop = os.getpid()
    train = models.local_training

    def held(m, X, y, lr, *rest):
        if lr == HOLD_LR and os.getpid() != loop:
            gate.wait(30)
        return train(m, X, y, lr, *rest)

    monkeypatch.setattr(models, "local_training", held)
    proc = TrainingProcess(clients)
    sleeps = []
    sleep = proc._sleep

    def counted():
        sleeps.append(1)
        sleep()

    proc._sleep = counted
    # A lost wake-up would block the loop for good; killing the child ends
    # its wait with the dead-child error instead.
    watchdog = threading.Timer(60, os.kill, (proc.pid, signal.SIGKILL))
    opener = threading.Timer(0.2, gate.set)
    watchdog.start()
    try:
        size = fcntl.fcntl(proc._done_r, fcntl.F_SETPIPE_SZ, 4096)
        rounds = size // len(clients) + 1
        for i, c in enumerate(clients):
            c.trainer = partial(proc.submit, i)
        outbox = Outbox()
        for _ in range(rounds):
            for c in clients:
                serve(c, outbox, ModelDispatch(params, 0.0, 0.1))
            for i in range(len(clients)):
                wait_for_state(proc, i, DONE)
        assert not sleeps
        unread = fcntl.ioctl(proc._done_r, termios.FIONREAD, struct.pack("i", 0))
        assert struct.unpack("i", unread)[0] == size < rounds * len(clients)

        first = clients[0]
        expected = first._train(params, HOLD_LR, first._round)
        serve(first, outbox, ModelDispatch(params, 0.0, HOLD_LR))
        wait_for_state(proc, 0, RUNNING)
        opener.start()
        got = outbox.sent[-1].params
        assert sleeps
        assert got.tobytes() == expected.tobytes()
    finally:
        gate.set()
        watchdog.cancel()
        proc.close()
        # A thread still alive would make the next run train inline.
        for timer in (watchdog, opener):
            if timer.is_alive():
                timer.join(30)
    assert not watchdog.is_alive() and not opener.is_alive()
    assert_reaped(forks)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_names_the_client(forks):
    cfg = small_synth(hyper={"eta_init": 1e308})
    with pytest.raises(NumericsError) as err:
        run_experiment(cfg)
    assert len(forks) == 1
    assert_reaped(forks)
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


def test_no_process_outlives_its_run(monkeypatch, forks):
    run_experiment(small_synth())
    assert len(forks) == 1
    assert_reaped(forks)

    calls = []
    merge = spyker.spyker_client_merge

    def failing(*args):
        calls.append(1)
        if len(calls) == 20:
            raise RuntimeError("merge failed on the event loop")
        return merge(*args)

    with monkeypatch.context() as m:
        m.setattr(spyker, "spyker_client_merge", failing)
        with pytest.raises(RuntimeError, match="merge failed on the event loop"):
            run_experiment(small_synth())
    assert len(forks) == 2
    assert_reaped(forks)


def test_a_killed_child_fails_the_run(monkeypatch, forks):
    calls = []
    merge = spyker.spyker_client_merge

    def killing(*args):
        calls.append(1)
        if len(calls) == 20:
            os.kill(forks[-1], signal.SIGKILL)
        return merge(*args)

    monkeypatch.setattr(spyker, "spyker_client_merge", killing)
    with pytest.raises(RuntimeError) as err:
        run_experiment(small_synth(horizon_ms=3000.0))
    assert str(err.value).startswith(f"training process {forks[0]} "), str(err.value)
    assert len(forks) == 1 and len(calls) >= 20
    assert_reaped(forks)
