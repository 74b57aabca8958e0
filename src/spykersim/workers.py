"""A run's workers, which ``run_workers(built)`` starts and stops.

The event loop runs on the calling thread.  Each run owns up to two
workers: a thread that scores the evaluations (``_Evaluator``), and a
training worker that every client gets as its ``trainer``, called when
its simulated training starts, so the worker runs a whole training delay
ahead of the loop.  An MLP training is mostly BLAS calls that release the
interpreter lock, so MLP runs train on one thread (``_Training``).  A
logistic-regression training is mostly Python, which a thread would run
under the loop's lock, so it goes to one forked process
(``TrainingProcess``) where ``os.fork`` exists, the process may use two
CPUs and no other thread runs (a fork copies only the calling thread, so
a lock another thread holds would stay locked in the child); otherwise it
stays inline.  The training worker starts first, so the fork comes after
the build and before any run thread, and the child holds the run's
clients, shards, seeds and BLAS pin (and any monkeypatch) as they are.  A
reader runs a job the worker has not started, so a server never waits
behind trainings that are not due yet.  Worker threads read only arrays
that no one writes, the process runs the same training on the same
inputs as the loop, and the loop waits wherever it needs a result, so
every artifact is the same as with all work on one thread.  On every exit
both workers stop, dropping each client's posted training (up to one per
client, for a service the horizon cut short), and every client gets
``train_inline`` back.

In the process, each client owns one slot of an anonymous shared
``mmap``: the dispatched parameters, which the child overwrites with the
trained ones, and a record of the job's lr, dispatch round and state.
Client i's trainer, ``partial(proc.submit, i)``, fills the slot and writes
i to a request pipe; a slot is reused only after its job has been
resolved.  A process-shared lock gives each job to exactly one side: the
child claims a job still queued and reads its lr and round under the
lock, so a request whose job the loop has already run trains the slot's
current job; a reader whose job the child is running meanwhile runs the
oldest job the child has not started.  A finished job is copied out
read-only; one that failed in the child is run again by its reader, which
raises the same error as inline training.  After every job the child
writes one byte to a done pipe, on which a waiting reader blocks; a byte
that finds the pipe full is dropped, since the bytes already there wake
the reader.  Both sides spin for about 2 ms before they block, because
right after a sleep a ~100 µs job takes about twice as long on a
virtualised host.
"""

from __future__ import annotations

import gc
import hashlib
import mmap
import multiprocessing
import os
import select
import signal
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .config import SPYKER_MERGE
from .models import MLP, predict_into
from .protocols.clients import train_inline

if TYPE_CHECKING:
    from .experiment import BuiltExperiment

IDLE, QUEUED, RUNNING, DONE, FAILED = range(5)
SPIN_S = 0.002
# A lock held longer than this is checked for a dead holder.
LOCK_CHECK_S = 0.5

perf = time.perf_counter


@contextmanager
def run_workers(built: BuiltExperiment) -> Iterator[_Evaluator]:
    """Start the run's training worker, then its evaluator, and yield the
    evaluator; stop both and reset every client's trainer on every exit."""
    stop_training = _training_worker(built)
    try:
        evaluator = _Evaluator(built)
        try:
            yield evaluator
        finally:
            evaluator.close()
    finally:
        if stop_training is not None:
            stop_training()
        # A posted training refers back to its client through ``_train``;
        # dropping it frees the run without waiting for a garbage collection.
        for client in built.clients:
            client.trainer, client.training = train_inline, None


def _training_worker(built: BuiltExperiment) -> Callable[[], None] | None:
    """Start the run's training worker and give it to every client; return
    the function that stops it, or None when training stays inline."""
    if built.template.kind == MLP:
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="spykersim-train")
        for client in built.clients:
            client.trainer = partial(_Training, pool)
        return partial(pool.shutdown, wait=True, cancel_futures=True)
    if not hasattr(os, "fork") or _usable_cpus() < 2 or threading.active_count() > 1:
        return None
    proc = TrainingProcess(built.clients)
    for i, client in enumerate(built.clients):
        client.trainer = partial(proc.submit, i)
    return proc.close


class _Training:
    """One dispatch's training job on the run's training thread.

    ``result()`` waits for the thread when the job has started; a job still
    queued is cancelled and run by the caller, so a server never waits
    behind trainings that are not due yet.  Whichever side runs the job
    drops it first, so a finished job no longer holds the dispatched
    parameters while its update waits to be read.
    """

    __slots__ = ("job", "future", "__weakref__")

    def __init__(self, pool: Executor, train, params: np.ndarray, lr: float, dispatch: int):
        self.job = partial(train, params, lr, dispatch)
        self.future = pool.submit(self._run)

    def _run(self) -> np.ndarray:
        job, self.job = self.job, None
        return job()

    def result(self) -> np.ndarray:
        if self.future.cancel():
            return self._run()
        return self.future.result()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Evaluator:
    """Scores a run's eval model on one worker thread, skipping repeats.

    A call snapshots the eval model's inputs by reference: the global or
    cloud parameters, or every spyker server's parameters and age.  Servers
    replace their parameter arrays and never write them, so a snapshot with
    the same arrays and ages scores the same model, and the previous
    result is reused.  Otherwise the worker scores it with the float64
    operations of ``BuiltExperiment.eval_model`` and ``data.evaluate``, in
    the same order, into buffers allocated once, and takes the SHA-256 of
    the model's ``<f8`` bytes.  A call returns a Future of (accuracy,
    digest); calls on an unchanged snapshot share one.
    """

    def __init__(self, built: BuiltExperiment):
        self.built = built
        cfg, template, test = built.cfg, built.template, built.test
        self.pooled = cfg.algorithm in SPYKER_MERGE
        self.uniform = cfg.eval_target == "mean"
        self.X = test.features64
        self.labels = test.labels
        n = test.n_samples
        if self.pooled:
            self.stack = np.empty((len(built.servers), template.dim))
            self.mean = np.empty(template.dim)
        self.logits = np.empty((n, template.n_classes))
        self.hidden = np.empty((n, template.hidden_dim)) if template.kind == MLP else None
        self.pred = np.empty(n, dtype=np.intp)
        self.hits = np.empty(n, dtype=bool)
        self._last: tuple | None = None
        self._scored: Future | None = None
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="spykersim-eval")

    def __call__(self) -> Future:
        built = self.built
        if self.pooled:
            params = tuple(s.model.params for s in built.servers)
            ages = tuple(s.age for s in built.servers)
        else:
            node = built.cloud if built.cloud is not None else built.servers[0]
            params, ages = (node.model.params,), ()
        last = self._last
        if last is None or ages != last[1] or any(a is not b for a, b in zip(params, last[0])):
            self._last = (params, ages)
            self._scored = self._pool.submit(self._score, params, ages)
        return self._scored

    def _score(self, params: tuple, ages: tuple) -> tuple[float, bytes]:
        if self.pooled:
            stack = np.stack(params, out=self.stack)
            a = np.array(ages)
            if self.uniform or a.sum() <= 0:
                weights = np.full(len(params), 1.0 / len(params))
            else:
                weights = a / a.sum()
            flat = np.matmul(weights, stack, out=self.mean)
        else:
            flat = params[0]
        model = self.built.template.with_params(flat)
        pred = predict_into(model, self.X, self.logits, self.hidden, self.pred)
        acc = float(np.mean(np.equal(pred, self.labels, out=self.hits)))
        return acc, hashlib.sha256(np.ascontiguousarray(flat, dtype="<f8")).digest()

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


class TrainingProcess:
    """One forked trainer for a run's clients; ``partial(submit, i)`` is
    client i's ``trainer``.  ``close()`` kills and reaps the child and drops
    every job it has not finished."""

    def __init__(self, clients: list):
        n, dim = len(clients), clients[0].template.dim
        self._mm = mmap.mmap(-1, 8 * (3 * n + n * dim))
        words = memoryview(self._mm)
        # [state x n] [dispatch round x n] [lr x n] [params x n x dim]
        self._state = words[: 8 * n].cast("q")
        self._round = words[8 * n : 8 * 2 * n].cast("q")
        self._lr = words[8 * 2 * n : 8 * 3 * n].cast("d")
        self._params = np.ndarray((n, dim), np.float64, self._mm, 8 * 3 * n)
        words.release()
        self._lock = multiprocessing.get_context("fork").Lock()
        self._requests = [np.int32(i).tobytes() for i in range(n)]
        self._jobs: list[_Job | None] = [None] * n
        self._queue: deque[_Job] = deque()
        self._closed = False
        self._status: int | None = None
        req_r, self._req_w = os.pipe()
        self._done_r, done_w = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (req_r, self._req_w, self._done_r, done_w):
                os.close(fd)
            self._unmap()
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self._req_w)
                os.close(self._done_r)
                self._serve(clients, req_r, done_w)
                code = 0
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(done_w)

    # -- the child ------------------------------------------------------------

    def _serve(self, clients: list, req_r: int, done_w: int) -> None:
        """Run requested jobs until the request pipe reaches EOF."""
        # Inherited objects are never collected here, so a collection does
        # not copy the parent's heap page by page.
        gc.freeze()
        parent = os.getppid()
        os.set_blocking(req_r, False)
        os.set_blocking(done_w, False)
        idle_since = perf()
        while True:
            try:
                data = os.read(req_r, 4096)
            except BlockingIOError:
                if perf() - idle_since > SPIN_S:
                    select.select([req_r], [], [])
                continue
            if not data:
                return
            for i in np.frombuffer(data, np.int32).tolist():
                self._run_in_child(clients[i], i, done_w, parent)
            idle_since = perf()

    def _run_in_child(self, client, i: int, done_w: int, parent: int) -> None:
        self._acquire_in_child(parent)
        try:
            if self._state[i] != QUEUED:
                return
            self._state[i] = RUNNING
            lr, dispatch = self._lr[i], self._round[i]
        finally:
            self._lock.release()
        try:
            trained = client._train(self._params[i], lr, dispatch)
        except Exception:
            outcome = FAILED
        else:
            self._params[i] = trained
            outcome = DONE
        self._acquire_in_child(parent)
        self._state[i] = outcome
        self._lock.release()
        try:
            os.write(done_w, b"\0")
        except BlockingIOError:
            pass  # a full pipe already holds wake-ups

    def _acquire_in_child(self, parent: int) -> None:
        while not self._lock.acquire(timeout=LOCK_CHECK_S):
            if os.getppid() != parent:
                os._exit(1)

    # -- the loop -------------------------------------------------------------

    def submit(self, i: int, train, params: np.ndarray, lr: float, dispatch: int) -> "_Job":
        """Post client i's job ``train(params, lr, dispatch)``, where ``train``
        is that client's ``_train``; the child runs its own copy of the same
        client."""
        prev = self._jobs[i]
        if prev is not None:
            # The slot may still hold an unread result; take it before reuse.
            self._resolve(prev)
        np.copyto(self._params[i], params)
        self._acquire()
        self._lr[i] = lr
        self._round[i] = dispatch
        self._state[i] = QUEUED
        self._lock.release()
        job = self._jobs[i] = _Job(self, i, train, lr, dispatch)
        queue = self._queue
        while queue and queue[0].done:
            queue.popleft()
        queue.append(job)
        if len(queue) > 2 * len(self._jobs):
            self._queue = deque(j for j in queue if not j.done)
        try:
            os.write(self._req_w, self._requests[i])
        except BrokenPipeError as err:
            raise self._died("took no more jobs") from err
        return job

    def _resolve(self, job: "_Job") -> None:
        """Give ``job`` its result: run it here if the child has not started
        it, or collect the child's."""
        if self._closed:
            raise RuntimeError(
                f"the training in slot {job.slot} was dropped when its run ended"
            )
        if self._claim(job.slot):
            self._run(job)
        else:
            self._collect(job)

    def _claim(self, i: int) -> bool:
        """Take slot i's job from the child if it has not started."""
        self._acquire()
        queued = self._state[i] == QUEUED
        if queued:
            self._state[i] = IDLE
        self._lock.release()
        return queued

    def _run(self, job: "_Job") -> None:
        """Run a job on the loop, from its slot, keeping its result or error."""
        try:
            trained = job.train(self._params[job.slot], job.lr, job.dispatch)
        except Exception as err:
            self._finish(job, None, err)
        else:
            self._finish(job, trained, None)

    def _collect(self, job: "_Job") -> None:
        """Wait for the child's result; meanwhile run the oldest jobs it has
        not started, then spin, then sleep until it is done."""
        i, state = job.slot, self._state
        spin_until = perf() + SPIN_S
        while state[i] == RUNNING:
            if self._help():
                spin_until = perf() + SPIN_S
            elif perf() > spin_until:
                self._sleep()
        self._acquire()
        outcome = state[i]
        state[i] = IDLE
        self._lock.release()
        if outcome == DONE:
            trained = self._params[i].copy()
            trained.setflags(write=False)
            self._finish(job, trained, None)
        else:
            # It failed in the child: its slot still holds the input, and
            # running it again here raises the same error as inline.
            self._run(job)

    def _finish(self, job: "_Job", value, error) -> None:
        job.value, job.error, job.done, job.train = value, error, True, None
        self._jobs[job.slot] = None

    def _help(self) -> bool:
        queue = self._queue
        while queue:
            job = queue.popleft()
            if not job.done and self._claim(job.slot):
                self._run(job)
                return True
        return False

    def _sleep(self) -> None:
        if not os.read(self._done_r, 4096):
            raise self._died("died while training")

    def _acquire(self) -> None:
        while not self._lock.acquire(timeout=LOCK_CHECK_S):
            if self._reap(os.WNOHANG):
                raise self._died("died holding the job lock")

    def _reap(self, flags: int = 0) -> bool:
        """Collect the child's exit status if it has exited."""
        if self._status is None:
            try:
                pid, status = os.waitpid(self.pid, flags)
            except ChildProcessError:
                pid, status = self.pid, 0
            if pid == 0:
                return False
            self._status = status
        return True

    def _died(self, what: str) -> RuntimeError:
        self._reap()
        return RuntimeError(
            f"training process {self.pid} {what}: exit code "
            f"{os.waitstatus_to_exitcode(self._status)}"
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._status is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._reap()
        os.close(self._req_w)
        os.close(self._done_r)
        # Jobs keep a reference to this object; drop theirs to the mapping.
        self._jobs = []
        self._queue = deque()
        self._unmap()

    def _unmap(self) -> None:
        for view in (self._state, self._round, self._lr):
            view.release()
        self._params = None
        self._mm.close()


class _Job:
    """A posted job; ``result()`` returns the trained, read-only parameters
    or raises the training's error."""

    __slots__ = (
        "proc", "slot", "train", "lr", "dispatch", "done", "value", "error", "__weakref__"
    )

    def __init__(self, proc: TrainingProcess, slot: int, train, lr: float, dispatch: int):
        self.proc = proc
        self.slot = slot
        self.train = train
        self.lr = lr
        self.dispatch = dispatch
        self.done = False
        self.value = self.error = None

    def result(self) -> np.ndarray:
        if not self.done:
            self.proc._resolve(self)
        if self.error is not None:
            raise self.error
        return self.value
