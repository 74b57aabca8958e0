"""The client node shared by every training scheme.

A client idles until its home server dispatches a model, spends its fixed
training delay (sampled once at topology build) times the epoch count in
"service", then returns the trained parameters echoing the dispatched age.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from ..errors import NumericsError, ProtocolViolation
from ..messages import ClientUpdate, ModelDispatch
from ..models import TinyModel, local_training
from ..simulation import CLIENT, Node, Simulator


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

    def service_ms(self, sim: Simulator, msg, src: int) -> float:
        return self.training_delay_ms * self.epochs

    def handle(self, sim: Simulator, src: int, msg) -> None:
        if src != self.home_server:
            raise ProtocolViolation(
                f"client {self.node_id} contacted by non-home server {src}"
            )
        if not isinstance(msg, ModelDispatch):
            raise ProtocolViolation(f"client cannot handle {type(msg).__name__}")
        # One generator per dispatch keeps shuffles replayable by an
        # out-of-simulator reference implementation.
        dispatch = self._round
        rng = np.random.default_rng([self.seed, dispatch])
        self._round += 1
        try:
            trained = local_training(
                self.template.with_params(msg.params),
                self._X,
                self._y,
                msg.lr,
                self.epochs,
                self.batch_size,
                rng,
            )
        except NumericsError as err:
            raise NumericsError(
                f"client {self.node_id} (home server {self.home_server}) trained dispatch "
                f"round {dispatch} at lr {msg.lr} into a non-finite model: first non-finite "
                f"component {err.index}",
                index=err.index,
            ) from err
        sim.send(self.node_id, self.home_server, ClientUpdate(trained.params, msg.age))
