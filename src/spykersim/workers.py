"""A run's worker, which ``run_workers(built)`` starts and stops.

The event loop runs on the calling thread.  Each run starts one worker,
which ``_start_worker`` alone chooses: it gives every client its
``trainer``, called when the client's simulated training starts;
``score(fill)`` scores an evaluation, whose ``fill(buf)`` writes the
eval model's parameters into a buffer of the worker's; and ``close()``
stops it.  The run's ``_Evaluator`` passes each new eval model to
``score``.  Work leaves the loop only when a second CPU can take it.
With one usable CPU, a run of either model kind trains and scores on the
loop (``_OnLoop``): its clients keep ``train_inline``, and no thread or
process starts.  Otherwise an MLP training, mostly BLAS calls that
release the interpreter lock, runs on one thread and each scoring on
another (``_Threads``).  A logistic-regression training is mostly
Python, which a thread would run under the loop's lock, so it goes to
one forked process (``TrainingProcess``), which scores the run's
evaluations too.  Where ``os.fork`` is missing or another thread runs,
that run stays on the loop as well: a fork copies only the calling
thread, so a lock another thread holds would stay locked in the child.
A thread or process runs a whole training delay ahead of the loop.  The
worker starts before any run thread, so the fork comes after the build,
and the child holds the run's clients, shards, seeds, test set, scoring
buffers and BLAS pin (and any monkeypatch) as they are.  A reader runs a
job the worker has not started, so a server never waits behind trainings
that are not due yet.  Worker threads read only arrays that no one
writes, each buffer is written by one thread only, the process runs the
same training and scoring on the same inputs as the loop, and the loop
waits wherever it needs a result, so every artifact is the same as with
all work on one thread.  On every exit the worker stops, dropping each
client's posted training (one cut short by a target stop or an error),
and every client gets ``train_inline`` back.

In the process, each client owns one slot of an anonymous shared
``mmap``: the dispatched parameters, which the child overwrites with the
trained ones, and a record of the job's lr, dispatch round and state.
Client i's trainer, ``partial(proc.submit, i)``, fills the slot and writes
i to a request pipe.  A ring of ``EVAL_SLOTS`` more slots holds
evaluations: the loop writes the eval model's parameters into the next
one, and the child writes back its accuracy and digest.  Requests of both
kinds share the pipe, first in, first out, and a slot is reused only
after its job has been resolved.  A process-shared lock gives each job to
exactly one side: the child claims a job still queued and reads its
record under the lock, so a request whose job the loop has already run
runs the slot's current job; a reader whose job the child is running
meanwhile runs the oldest job the child has not started.  A finished job
is copied out, trained parameters read-only; one that failed in the child
is run again by its reader, which raises the same error as on the loop.
After every job the child writes one byte to a done pipe, on which a
waiting reader blocks; a byte that finds the pipe full is dropped, since
the bytes already there wake the reader.  Both sides spin for about 2 ms
before they block, because right after a sleep a ~100 µs job takes about
twice as long on a virtualised host.
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
# Evaluations in flight in a forked run; a slot is reused once its score is read.
EVAL_SLOTS = 8
# A lock held longer than this is checked for a dead holder.
LOCK_CHECK_S = 0.5
# The scorer's float64 block of test rows: 334 rows of 784 features, 1024
# of 256.  Smaller blocks take more BLAS calls per score, and more of them
# fall under OpenBLAS's small-matrix size (see ``predict_into``).
SCORE_BLOCK_BYTES = 2 << 20

perf = time.perf_counter


@contextmanager
def run_workers(built: BuiltExperiment) -> Iterator[_Evaluator]:
    """Start the run's worker and yield the evaluator that scores through
    it; stop the worker and reset every client's trainer on every exit."""
    worker = _start_worker(built)
    try:
        yield _Evaluator(built, worker.score)
    finally:
        worker.close()
        # A posted training refers back to its client through ``_train``;
        # dropping it frees the run without waiting for a garbage collection.
        for client in built.clients:
            client.trainer, client.training = train_inline, None


def _start_worker(built: BuiltExperiment) -> _OnLoop | _Threads | TrainingProcess:
    """Start the run's worker, which gives every client its trainer.  Work
    leaves the loop only when a second CPU can take it."""
    if _usable_cpus() < 2:
        return _OnLoop(built)
    if built.template.kind == MLP:
        return _Threads(built)
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return _OnLoop(built)
    proc = TrainingProcess(built.clients, _Scorer(built))
    for i, client in enumerate(built.clients):
        client.trainer = partial(proc.submit, i)
    return proc


class _OnLoop:
    """All of a run's work on the event loop: clients keep ``train_inline``,
    and ``score(fill)`` scores at the call and returns a finished ``Future``."""

    def __init__(self, built: BuiltExperiment):
        self._scorer = _Scorer(built)
        self._buf = np.empty(built.template.dim)

    def score(self, fill: Callable[[np.ndarray], np.ndarray]) -> Future:
        scored = Future()
        scored.set_result(self._score(fill))
        return scored

    def _score(self, fill: Callable[[np.ndarray], np.ndarray]) -> tuple[float, bytes]:
        return self._scorer(fill(self._buf))

    def close(self) -> None:
        pass


class _Threads(_OnLoop):
    """A run's training thread, to which every client posts its trainings as
    ``_Training`` jobs, and its scoring thread.

    ``score(fill)`` posts ``fill(buf)`` and the scoring of ``buf`` to the
    scoring thread, the only one that writes ``buf``.  ``close()`` stops the
    scoring thread, then the training thread, dropping every job that has
    not started."""

    def __init__(self, built: BuiltExperiment):
        super().__init__(built)
        self._eval = ThreadPoolExecutor(max_workers=1, thread_name_prefix="spykersim-eval")
        self._train = ThreadPoolExecutor(max_workers=1, thread_name_prefix="spykersim-train")
        for client in built.clients:
            client.trainer = partial(_Training, self._train)

    def score(self, fill: Callable[[np.ndarray], np.ndarray]) -> Future:
        return self._eval.submit(self._score, fill)

    def close(self) -> None:
        for pool in (self._eval, self._train):
            pool.shutdown(wait=True, cancel_futures=True)


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


class _Scorer:
    """A model's test accuracy and the SHA-256 of its ``<f8`` bytes, from
    the float64 operations of ``data.evaluate`` into buffers allocated once.

    The test set stays float32; ``predict_into`` widens it into a float64
    buffer of at most ``SCORE_BLOCK_BYTES``, one block of rows at a time.
    A test set that fits in one block is widened into it once, at the first
    score, so in the process that scores, and multiplied from it after.
    """

    def __init__(self, built: BuiltExperiment):
        template, test = built.template, built.test
        self.template = template
        self.X = test.features
        self.labels = test.labels
        n = test.n_samples
        rows = max(1, SCORE_BLOCK_BYTES // (8 * template.input_dim))
        self.xbuf = np.empty((min(n, rows), template.input_dim))
        self.logits = np.empty((n, template.n_classes))
        self.hidden = np.empty((n, template.hidden_dim)) if template.kind == MLP else None
        self.pred = np.empty(n, dtype=np.intp)
        self.hits = np.empty(n, dtype=bool)

    def __call__(self, flat: np.ndarray) -> tuple[float, bytes]:
        if self.xbuf is not None and len(self.xbuf) == len(self.X):
            np.copyto(self.xbuf, self.X)
            self.X, self.xbuf = self.xbuf, None
        model = self.template.with_params(flat)
        pred = predict_into(model, self.X, self.xbuf, self.logits, self.hidden, self.pred)
        acc = float(np.mean(np.equal(pred, self.labels, out=self.hits)))
        return acc, hashlib.sha256(np.ascontiguousarray(flat, dtype="<f8")).digest()


class _Evaluator:
    """Scores a run's eval model through the run's worker, skipping repeats.

    A call snapshots the eval model's inputs by reference: the global or
    cloud parameters, or every spyker server's parameters and age.  Servers
    replace their parameter arrays and never write them, so a snapshot with
    the same arrays and ages scores the same model, and the previous
    result is reused.  Otherwise ``score(fill)`` hands the model to the
    run's worker, which scores it at the call on the loop or posts it to
    its thread or process; there ``fill(buf)`` builds it with the float64
    operations of ``BuiltExperiment.eval_model``, in the same order, and a
    ``_Scorer`` scores it.  A call returns the (accuracy, digest), finished
    or pending, behind a ``result()`` method; calls on an unchanged
    snapshot share one.
    """

    def __init__(self, built: BuiltExperiment, score: Callable[[Callable], object]):
        self.built = built
        self.score = score
        self.pooled = built.cfg.algorithm in SPYKER_MERGE
        self.uniform = built.cfg.eval_target == "mean"
        if self.pooled:
            self.stack = np.empty((len(built.servers), built.template.dim))
        self._last: tuple | None = None
        self._scored = None

    def __call__(self):
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
            self._scored = self.score(partial(self._model_into, params, ages))
        return self._scored

    def _model_into(self, params: tuple, ages: tuple, out: np.ndarray) -> np.ndarray:
        """Write the eval model's parameters into ``out``."""
        if not self.pooled:
            np.copyto(out, params[0])
            return out
        stack = np.stack(params, out=self.stack)
        a = np.array(ages)
        if self.uniform or a.sum() <= 0:
            weights = np.full(len(params), 1.0 / len(params))
        else:
            weights = a / a.sum()
        return np.matmul(weights, stack, out=out)


class TrainingProcess:
    """One forked worker for a run's clients and its evaluations;
    ``partial(submit, i)`` is client i's ``trainer``, and ``score(fill)``
    posts an evaluation to be scored by ``scorer``.  ``close()`` kills and
    reaps the child and drops every job it has not finished."""

    def __init__(self, clients: list, scorer: Callable[[np.ndarray], tuple] | None = None):
        n, dim = len(clients), clients[0].template.dim
        m = n + EVAL_SLOTS
        head = 8 * (3 * m + 5 * EVAL_SLOTS)
        self._mm = mmap.mmap(-1, head + 8 * m * dim)
        words = memoryview(self._mm)
        # [state x m] [dispatch round x m] [lr x m] [accuracy x E] [digest x E x 32 B]
        # [params x m x dim], where m counts the n clients' slots and then the
        # E eval slots; an eval slot's parameters are the model to score.
        self._state = words[: 8 * m].cast("q")
        self._round = words[8 * m : 8 * 2 * m].cast("q")
        self._lr = words[8 * 2 * m : 8 * 3 * m].cast("d")
        self._acc = words[8 * 3 * m : 8 * (3 * m + EVAL_SLOTS)].cast("d")
        self._digest = words[8 * (3 * m + EVAL_SLOTS) : head]
        self._params = np.ndarray((m, dim), np.float64, self._mm, head)
        words.release()
        self._n = n
        self._scorer = scorer
        self._next_eval = 0
        self._lock = multiprocessing.get_context("fork").Lock()
        self._requests = [np.int32(i).tobytes() for i in range(m)]
        self._jobs: list[_Job | None] = [None] * m
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
                self._run_in_child(clients, i, done_w, parent)
            idle_since = perf()

    def _run_in_child(self, clients: list, i: int, done_w: int, parent: int) -> None:
        self._acquire_in_child(parent)
        try:
            if self._state[i] != QUEUED:
                return
            self._state[i] = RUNNING
            lr, dispatch = self._lr[i], self._round[i]
        finally:
            self._lock.release()
        try:
            if i < self._n:
                self._params[i] = clients[i]._train(self._params[i], lr, dispatch)
            else:
                k = i - self._n
                self._acc[k], self._digest[32 * k : 32 * k + 32] = self._scorer(self._params[i])
        except Exception:
            outcome = FAILED
        else:
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
        np.copyto(self._free(i), params)
        self._acquire()
        self._lr[i] = lr
        self._round[i] = dispatch
        self._state[i] = QUEUED
        self._lock.release()
        return self._post(_Job(self, i, partial(train, lr=lr, dispatch=dispatch)))

    def score(self, fill: Callable[[np.ndarray], object]) -> "_Job":
        """Post an evaluation: ``fill(slot)`` writes the model's parameters
        into the next eval slot, which the child scores with its own copy of
        the scorer."""
        i = self._n + self._next_eval
        self._next_eval = (self._next_eval + 1) % EVAL_SLOTS
        fill(self._free(i))
        self._acquire()
        self._state[i] = QUEUED
        self._lock.release()
        return self._post(_Job(self, i, self._scorer))

    def _free(self, i: int) -> np.ndarray:
        """Slot i's parameters, once the slot's last job has its result."""
        prev = self._jobs[i]
        if prev is not None:
            self._resolve(prev)
        return self._params[i]

    def _post(self, job: "_Job") -> "_Job":
        self._jobs[job.slot] = job
        queue = self._queue
        while queue and queue[0].done:
            queue.popleft()
        queue.append(job)
        if len(queue) > 2 * len(self._jobs):
            self._queue = deque(j for j in queue if not j.done)
        try:
            os.write(self._req_w, self._requests[job.slot])
        except BrokenPipeError as err:
            raise self._died("took no more jobs") from err
        return job

    def _resolve(self, job: "_Job") -> None:
        """Give ``job`` its result: run it here if the child has not started
        it, or collect the child's."""
        if self._closed:
            raise RuntimeError(
                f"the job in slot {job.slot} was dropped when its run ended"
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
            value = job.work(self._params[job.slot])
        except Exception as err:
            self._finish(job, None, err)
        else:
            self._finish(job, value, None)

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
        if outcome != DONE:
            # It failed in the child: its slot still holds the input, and
            # running it again here raises the same error as on the loop.
            self._run(job)
        elif i < self._n:
            trained = self._params[i].copy()
            trained.setflags(write=False)
            self._finish(job, trained, None)
        else:
            k = i - self._n
            self._finish(job, (self._acc[k], self._digest[32 * k : 32 * k + 32].tobytes()), None)

    def _finish(self, job: "_Job", value, error) -> None:
        job.value, job.error, job.done, job.work = value, error, True, None
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
        for view in (self._state, self._round, self._lr, self._acc, self._digest):
            view.release()
        self._params = None
        self._mm.close()


class _Job:
    """A posted job; ``result()`` returns its value (the trained, read-only
    parameters, or an evaluation's accuracy and digest) or raises its error.
    ``work(slot)`` computes the value from the job's slot on the loop."""

    __slots__ = ("proc", "slot", "work", "done", "value", "error", "__weakref__")

    def __init__(self, proc: TrainingProcess, slot: int, work: Callable[[np.ndarray], object]):
        self.proc = proc
        self.slot = slot
        self.work = work
        self.done = False
        self.value = self.error = None

    def result(self):
        if not self.done:
            self.proc._resolve(self)
        if self.error is not None:
            raise self.error
        return self.value
