"""A forked worker process that trains clients beside the event loop.

``TrainingProcess(clients)`` forks once per run, after the run is built,
so the child holds the same clients, shards, seeds and BLAS pin as the
loop (and any monkeypatch in place).  Each client owns one slot of an
anonymous shared ``mmap``: the dispatched parameters, which the child
overwrites with the trained ones, and a record of the job's lr, dispatch
round and state.  Client i's trainer is ``partial(proc.submit, i)``: it
posts a job by filling the slot and writing the slot index to a request
pipe.  A client posts when its simulated training starts and sends the
pending job with its update when that training ends, so the child has the
client's whole training delay to run it; a slot is reused only after its
previous job has been resolved.

A process-shared lock decides who runs each job, so every job runs exactly
once.  The child claims a job that is still queued and reads its lr and
dispatch round from the record under the lock, so a request whose job the
loop has already run trains the slot's current job, never the old one; it
writes the result into the slot and marks it done.  A reader whose job is
still queued runs it itself; one whose job the child is running meanwhile
runs the oldest job the child has not started; a finished job is copied
out read-only.  Both sides run the same ``TrainingClient._train`` on the
same inputs, so a result does not depend on who ran it or when.  A job
that fails in the child is run again by its reader, which raises the same
error as inline training.

After every job the child writes one byte to a done pipe, and a reader
waiting for the child blocks on that pipe; a byte that finds the pipe
full is dropped, since the bytes already there wake the reader, which then
checks its job's state again.  Both sides spin for about 2 ms before they
block, because right after a sleep a ~100 µs job takes about twice as long
on a virtualised host.
"""

from __future__ import annotations

import gc
import mmap
import multiprocessing
import os
import select
import signal
import time
from collections import deque

import numpy as np

IDLE, QUEUED, RUNNING, DONE, FAILED = range(5)
SPIN_S = 0.002
# A lock held longer than this is checked for a dead holder.
LOCK_CHECK_S = 0.5

perf = time.perf_counter


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
