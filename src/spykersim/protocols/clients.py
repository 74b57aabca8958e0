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

That generator draws the stream of ``np.random.default_rng([seed,
dispatch])``.  Its PCG64 state is a row of the client's table of states,
which ``build_experiment`` hashes for every client and every round that
can train within the horizon in one ``seed_states`` call; a round past the
table extends it with the same function, so no ``SeedSequence`` is built
per training.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool size,
# hash constants and multipliers, mix multipliers and shift.  The constants
# advance in Python ints and reach the arrays as np.uint32 scalars, so every
# product and difference wraps modulo 2**32 under numpy 1's value-based
# casting and numpy 2's NEP 50 promotion alike.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK = 0xFFFFFFFF
# Rounds that a table extension fills at least; a round further past the
# table than twice its length plus this is hashed alone.
_GROW_ROWS = 64


def seed_states(entropy: np.ndarray, n_words: int, dtype=np.uint32) -> np.ndarray:
    """Row r is ``SeedSequence(entropy[r]).generate_state(n_words, dtype)``.

    ``entropy`` is a (rows, k) array of 32-bit words, each row the words of
    one seed sequence; numpy's steps run on whole columns: the entropy is
    mixed into a pool of four words (words past the pool mixed in after),
    and the pool hashed into ``n_words`` words of ``dtype``.
    """
    wide = np.dtype(dtype) == np.uint64
    if not wide and np.dtype(dtype) != np.uint32:
        raise ValueError(f"seed states are uint32 or uint64, not {np.dtype(dtype)}")
    entropy = np.asarray(entropy, dtype=np.uint32)
    rows, k = entropy.shape
    if k < _POOL_SIZE:
        # numpy hashes a 0 for each pool word that the entropy lacks.
        entropy = np.hstack((entropy, np.zeros((rows, _POOL_SIZE - k), np.uint32)))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK
        value *= np.uint32(hash_const)
        value ^= value >> _XSHIFT
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        result ^= result >> _XSHIFT
        return result

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    out = np.empty((rows, 2 * n_words if wide else n_words), np.uint32)
    hash_const = _INIT_B
    for i in range(out.shape[1]):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK
        value *= np.uint32(hash_const)
        value ^= value >> _XSHIFT
        out[:, i] = value
    if wide:
        # Pairs of words, low word first, as numpy reads them on any host.
        out = out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return out


def dispatch_states(seed_words: np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """Row r: the PCG64 state, 4 ``uint64``, of ``default_rng([seed,
    rounds[r]])``, where row r of ``seed_words`` (or its only row) holds the
    seed's 32-bit words and every round is below 2**32."""
    entropy = np.empty((len(rounds), seed_words.shape[1] + 1), np.uint32)
    entropy[:, :-1] = seed_words
    entropy[:, -1] = rounds
    return seed_states(entropy, 4, np.uint64)


def dispatch_tables(seeds: np.ndarray, rounds: np.ndarray) -> list[np.ndarray]:
    """For client i, the states of ``default_rng([seeds[i], r])`` for r in
    range(rounds[i]): one view each of one table, hashed in one pass.
    Every seed is one 32-bit word."""
    ends = np.cumsum(rounds)
    index = np.arange(ends[-1]) - np.repeat(ends - rounds, rounds)
    states = dispatch_states(np.repeat(seeds, rounds)[:, None], index)
    return np.split(states, ends[:-1])


class HashedState(ISeedSequence):
    """A seed sequence whose state is already hashed: ``PCG64(HashedState(
    row))`` is seeded as ``PCG64(SeedSequence(words))`` would be, where
    ``row`` is ``seed_states`` of ``words`` with 4 ``uint64`` words."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.state


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
        states: np.ndarray | None = None,
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
        # Row r: the PCG64 state of dispatch round r's generator.
        self._states = np.empty((0, 4), np.uint64) if states is None else states
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
            raise ProtocolViolation(
                f"client {self.node_id} cannot handle {type(msg).__name__} from server {src}"
            )
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

    def _state(self, dispatch: int) -> np.ndarray:
        """The PCG64 state of ``np.random.default_rng([seed, dispatch])``.

        A round past the table extends it to at least twice its length.
        Two threads may extend it at once: each fills the same rows, and
        each reads its own copy.
        """
        states = self._states
        if dispatch < len(states):
            return states[dispatch]
        n = len(states)
        if dispatch > 2 * n + _GROW_ROWS:
            # Far past the table, as a direct call may ask: hashed alone,
            # not with every round before it.
            words = np.array([self._seed_words + uint32_words(dispatch)], np.uint32)
            return seed_states(words, 4, np.uint64)[0]
        rounds = np.arange(n, max(2 * n, n + _GROW_ROWS, dispatch + 1))
        more = dispatch_states(np.array([self._seed_words]), rounds)
        self._states = states = np.concatenate((states, more))
        return states[dispatch]

    def _train(self, params: np.ndarray, lr: float, dispatch: int) -> np.ndarray:
        # One generator per dispatch keeps shuffles replayable by an
        # out-of-simulator reference implementation: it draws the stream of
        # np.random.default_rng([seed, dispatch]).
        rng = np.random.Generator(np.random.PCG64(HashedState(self._state(dispatch))))
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
