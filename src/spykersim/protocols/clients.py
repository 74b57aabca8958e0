"""The client node shared by every training scheme.

A client idles until its home server dispatches a model, spends its fixed
training delay (sampled once at topology build) times the epoch count in
"service", then returns the trained parameters echoing the dispatched age.

The training itself runs inline, or, when the run gives the client a
``trainer`` (a worker thread in MLP runs, a slot of the run's forked
``TrainingProcess`` in logistic-regression runs), on that worker: the
update is sent at once with the training pending and is resolved when the
home server reads its parameters; a training the worker has not started is
run by the reader.  A job reads only the dispatched parameters, which are
read-only, the client's fixed shard and a generator seeded from (client
seed, dispatch round), and each job runs exactly once, so its result does
not depend on which thread or process runs it, or when.
"""

from __future__ import annotations

from concurrent.futures import Executor
from functools import partial

import numpy as np

from .. import models
from ..data import Dataset
from ..errors import NumericsError, ProtocolViolation
from ..messages import ClientUpdate, ModelDispatch
from ..models import TinyModel
from ..simulation import CLIENT, Node, Simulator


class _Training:
    """One dispatch's training job, submitted to the run's training worker.

    ``result()`` waits for the worker when the job has started; a job still
    queued is cancelled and run by the caller, so a server never waits
    behind trainings that are not due yet.
    """

    __slots__ = ("job", "future")

    def __init__(self, trainer: Executor, job: partial):
        self.job = job
        self.future = trainer.submit(job)

    def result(self) -> np.ndarray:
        if self.future.cancel():
            return self.job()
        return self.future.result()


class TrainingClient(Node):
    kind = CLIENT

    def __init__(
        self,
        node_id: int,
        location: str,
        home_server: int,
        shard: Dataset,
        template: TinyModel,
        epochs: int,
        batch_size: int,
        training_delay_ms: float,
        seed: int,
    ):
        self.node_id = node_id
        self.location = location
        self.home_server = home_server
        self.template = template
        self.epochs = epochs
        self.batch_size = batch_size
        self.training_delay_ms = training_delay_ms
        self.seed = seed
        self.data_size = shard.n_samples
        self._X = shard.features64
        self._y = shard.labels
        self._round = 0
        # An Executor, or this client's slot of a TrainingProcess.
        self.trainer = None

    def service_ms(self, sim: Simulator, msg, src: int) -> float:
        return self.training_delay_ms * self.epochs

    def handle(self, sim: Simulator, src: int, msg) -> None:
        if src != self.home_server:
            raise ProtocolViolation(
                f"client {self.node_id} contacted by non-home server {src}"
            )
        if not isinstance(msg, ModelDispatch):
            raise ProtocolViolation(f"client cannot handle {type(msg).__name__}")
        dispatch = self._round
        self._round += 1
        params = msg.params
        # The job may read these on another thread while the server moves
        # on; a write into them now raises instead of racing it.
        params.setflags(write=False)
        if self.trainer is None:
            trained = self._train(params, msg.lr, dispatch)
        elif isinstance(self.trainer, Executor):
            trained = _Training(self.trainer, partial(self._train, params, msg.lr, dispatch))
        else:
            trained = self.trainer.submit(self._train, params, msg.lr, dispatch)
        sim.send(self.node_id, self.home_server, ClientUpdate(trained, msg.age, len(params)))

    def _train(self, params: np.ndarray, lr: float, dispatch: int) -> np.ndarray:
        # One generator per dispatch keeps shuffles replayable by an
        # out-of-simulator reference implementation.
        rng = np.random.default_rng([self.seed, dispatch])
        try:
            trained = models.local_training(
                self.template.with_params(params),
                self._X,
                self._y,
                lr,
                self.epochs,
                self.batch_size,
                rng,
            )
        except NumericsError as err:
            raise NumericsError(
                f"client {self.node_id} (home server {self.home_server}) trained dispatch "
                f"round {dispatch} at lr {lr} into a non-finite model: first non-finite "
                f"component {err.index}",
                index=err.index,
            ) from err
        trained.params.setflags(write=False)
        return trained.params
