"""The client node shared by every training scheme.

A client idles until its home server dispatches a model, spends its fixed
training delay (sampled once at topology build) times the epoch count in
"service", then returns the trained parameters echoing the dispatched age.

The training is posted when the service starts, through the client's
``trainer``, called as ``trainer(train, params, lr, dispatch)``, and the
update sent when the service ends carries what it returned: the trained
parameters from the default, ``train_inline``, or a pending job from the
run's training worker (``workers.py``), resolved when the home server
reads the update's parameters.  A service that ends past the simulator's
horizon is never handled, so its training is not posted.  A job reads
only the read-only dispatched parameters, the client's fixed shard and a
generator seeded from (client seed, dispatch round), so its result does
not depend on which thread or process runs it, or when.
"""

from __future__ import annotations

import numpy as np

from .. import models
from ..data import Dataset
from ..errors import NumericsError, ProtocolViolation
from ..messages import ClientUpdate, ModelDispatch
from ..models import TinyModel
from ..simulation import CLIENT, Node, Simulator


def train_inline(train, params: np.ndarray, lr: float, dispatch: int) -> np.ndarray:
    """The default trainer: run the job now, on the calling thread."""
    return train(params, lr, dispatch)


def uint32_words(n: int) -> list[int]:
    """The 32-bit words, least significant first, into which numpy's
    ``SeedSequence`` splits the entropy integer ``n``."""
    if n < 0:
        raise ValueError(f"a seed must be non-negative, got {n}")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


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
        self._seed_words = uint32_words(seed)
        self.data_size = shard.n_samples
        # The shard's read-only float32 rows, widened batch by batch in training.
        self._X = shard.features
        self._y = shard.labels
        self._round = 0
        self.trainer = train_inline
        # The training posted at the current service's start, sent by handle.
        self.training = None

    def service_ms(self, sim: Simulator, msg, src: int) -> float:
        if src != self.home_server:
            raise ProtocolViolation(
                f"client {self.node_id} contacted by non-home server {src}"
            )
        if type(msg) is not ModelDispatch:
            raise ProtocolViolation(f"client cannot handle {type(msg).__name__}")
        dispatch = self._round
        self._round += 1
        params = msg.params
        # The job may read these on another thread while the server moves
        # on; a write into them now raises instead of racing it.
        params.setflags(write=False)
        delay = self.training_delay_ms * self.epochs
        if sim.now + delay <= sim.horizon:
            self.training = self.trainer(self._train, params, msg.lr, dispatch)
        return delay

    def handle(self, sim: Simulator, src: int, msg) -> None:
        trained, self.training = self.training, None
        if trained is None:
            raise ProtocolViolation(
                f"client {self.node_id} handled {type(msg).__name__} from server {src} "
                "with no training started"
            )
        sim.send(self.node_id, self.home_server, ClientUpdate(trained, msg.age, len(msg.params)))

    def _train(self, params: np.ndarray, lr: float, dispatch: int) -> np.ndarray:
        # One generator per dispatch keeps shuffles replayable by an
        # out-of-simulator reference implementation: it draws the stream of
        # np.random.default_rng([seed, dispatch]), which seeds from the
        # 32-bit words of both numbers, but is seeded from an array of them,
        # which numpy reads faster than a list of Python ints.
        entropy = np.array(self._seed_words + uint32_words(dispatch), dtype=np.uint32)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
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
