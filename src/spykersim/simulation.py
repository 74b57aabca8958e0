"""Deterministic discrete-event engine with a latency/bandwidth link model.

Events are processed in (time, seq) order with seq assigned at scheduling
time, so identical inputs replay identical traces.  Each node owns a FIFO
ingress queue; a message is serviced for node.service_ms(...) milliseconds
before node.handle(...) runs, except for message types the node declares
instant, which are handled at delivery even while a service is in progress.

Directed links apply the configured latency matrix plus a size-dependent
transfer time, and deliveries per directed pair are clamped to be
non-decreasing (FIFO links).  Self-addressed sends deliver immediately with
zero cost; they exist so nodes can re-enqueue buffered work in order.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError
from .messages import TokenPass, describe, payload_bytes

SERVER = "server"
CLIENT = "client"

DELIVER = "deliver"
SERVICE = "service-done"
EVAL = "eval"

LOCATIONS = ("Hongkong", "Paris", "Sydney", "California")

# Inter-region round-trip delays in milliseconds, row = source, column =
# destination.  Asymmetric entries are preserved as measured.
AWS4_LATENCY_MS = np.array(
    [
        [1.41, 194.90, 132.28, 155.13],
        [197.91, 0.90, 278.83, 142.25],
        [132.06, 280.11, 2.56, 138.47],
        [154.96, 142.79, 138.57, 2.14],
    ]
)


def uniform_latency_ms(value: float | None = None) -> np.ndarray:
    """A flat matrix; the default value is the mean of the measured matrix."""
    if value is None:
        value = float(AWS4_LATENCY_MS.mean())
    return np.full((len(LOCATIONS), len(LOCATIONS)), value)


@dataclass
class LinkModel:
    """Latency matrix + shared per-link bandwidth + FIFO delivery state."""

    latency_ms: np.ndarray
    locations: tuple[str, ...] = LOCATIONS
    bandwidth_bps: float = 100e6
    last_delivery: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.asarray(self.latency_ms, dtype=np.float64)
        n = len(self.locations)
        if m.shape != (n, n):
            raise ConfigError(f"latency matrix must be {n}x{n}, got {m.shape}")
        if np.any(m < 0) or not np.all(np.isfinite(m)):
            raise ConfigError("latency entries must be finite and non-negative")
        self.latency_ms = m
        self._index = {loc: i for i, loc in enumerate(self.locations)}

    def latency_between(self, src_loc: str, dst_loc: str) -> float:
        try:
            return float(self.latency_ms[self._index[src_loc], self._index[dst_loc]])
        except KeyError as e:
            raise ConfigError(f"unknown location {e.args[0]!r}") from None

    def transfer_ms(self, nbytes: int) -> float:
        return nbytes * 8.0 / self.bandwidth_bps * 1000.0


@dataclass(frozen=True)
class ComputeProfile:
    """Fixed per-procedure delays plus the per-client training-delay Gaussian."""

    training_mean_ms: float = 150.0
    training_std_ms: float = 7.5
    agg_fast_ms: float = 2.0
    agg_slow_ms: float = 15.0

    def sample_training_ms(self, rng: np.random.Generator) -> float:
        # Resample until positive rather than truncating at zero.
        while True:
            v = rng.normal(self.training_mean_ms, self.training_std_ms)
            if v > 0:
                return float(v)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay a run bit for bit."""

    master_seed: int
    node_seeds: dict
    ring_order: tuple
    config_hash: str
    code_version: str

    def to_json(self) -> str:
        d = asdict(self)
        d["ring_order"] = list(self.ring_order)
        return json.dumps(d, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "RunManifest":
        d = json.loads(text)
        d["ring_order"] = tuple(d["ring_order"])
        d["node_seeds"] = {k: int(v) for k, v in d["node_seeds"].items()}
        return RunManifest(**d)


class Node:
    """Base class for simulated nodes; subclasses fill in behavior."""

    node_id: int
    location: str
    kind: str = "node"

    def instant(self, msg) -> bool:
        """True for message types handled at delivery, bypassing the queue."""
        return False

    def service_ms(self, sim: "Simulator", msg, src: int) -> float:
        return 0.0

    def handle(self, sim: "Simulator", src: int, msg) -> None:
        raise NotImplementedError

    def bootstrap(self, sim: "Simulator") -> None:
        """Called once at t=0 to emit initial messages."""


@dataclass(frozen=True)
class EventRecord:
    time: float
    seq: int
    kind: str
    src: int
    dst: int
    info: str
    sent_at: float = -1.0
    link_latency_ms: float = 0.0

    def line(self) -> str:
        return f"{self.time:.9f}|{self.seq}|{self.kind}|{self.src}|{self.dst}|{self.info}"


class Simulator:
    """Single-threaded deterministic event loop over a set of nodes."""

    def __init__(self, link: LinkModel, on_event=None):
        self.link = link
        self.on_event = on_event
        self.nodes: dict[int, Node] = {}
        self.now = 0.0
        self.events_processed = 0
        self.stop_reason = "quiescent"
        self.tokens_in_flight = 0
        self.bytes_by_class = {"server-server": 0, "server-client": 0}
        self._heap: list = []
        self._seq = 0
        self._queues: dict[int, deque] = {}
        self._busy: dict[int, bool] = {}
        self._pending_real = 0
        self._hasher = hashlib.sha256()

    # -- topology ---------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.node_id in self.nodes:
            raise ConfigError(f"duplicate node id {node.node_id}")
        if node.location not in self.link._index:
            raise ConfigError(f"node {node.node_id} at unknown location {node.location!r}")
        self.nodes[node.node_id] = node
        self._queues[node.node_id] = deque()
        self._busy[node.node_id] = False

    # -- scheduling -------------------------------------------------------

    def _push(self, time: float, kind: str, data, sent_at: float = -1.0, lat: float = 0.0):
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, data, sent_at, lat))
        if kind != EVAL:
            self._pending_real += 1

    def send(self, src: int, dst: int, msg) -> None:
        if dst not in self.nodes or src not in self.nodes:
            raise ConfigError(f"send between unknown nodes {src}->{dst}")
        if isinstance(msg, TokenPass):
            self.tokens_in_flight += 1
        if src == dst:
            self._push(self.now, DELIVER, (src, dst, msg), sent_at=self.now)
            return
        nbytes = payload_bytes(msg)
        lat = self.link.latency_between(self.nodes[src].location, self.nodes[dst].location)
        raw = self.now + lat + self.link.transfer_ms(nbytes)
        key = (src, dst)
        at = max(raw, self.link.last_delivery.get(key, 0.0))
        self.link.last_delivery[key] = at
        if self.nodes[src].kind == SERVER and self.nodes[dst].kind == SERVER:
            self.bytes_by_class["server-server"] += nbytes
        else:
            self.bytes_by_class["server-client"] += nbytes
        self._push(at, DELIVER, (src, dst, msg), sent_at=self.now, lat=lat)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_class.values())

    def queue_length(self, node_id: int) -> int:
        """Messages waiting at a node, excluding the one in service."""
        return len(self._queues[node_id])

    def trace_hash(self) -> str:
        return self._hasher.hexdigest()

    # -- event loop -------------------------------------------------------

    def _start_service(self, dst: int) -> None:
        node = self.nodes[dst]
        src, msg = self._queues[dst].popleft()
        self._busy[dst] = True
        svc = node.service_ms(self, msg, src)
        self._push(self.now + svc, SERVICE, (src, dst, msg))

    def run(
        self,
        *,
        horizon_ms: float | None = None,
        eval_interval_ms: float | None = None,
        eval_hook=None,
    ) -> None:
        if eval_interval_ms is not None and eval_interval_ms <= 0:
            raise ConfigError("eval interval must be positive")
        if eval_interval_ms and self._pending_real > 0:
            self._push(eval_interval_ms, EVAL, None)

        stopped = False
        while self._heap and not stopped:
            if horizon_ms is not None and self._heap[0][0] > horizon_ms:
                self.now = horizon_ms
                self.stop_reason = "horizon"
                break
            time, seq, kind, data, sent_at, lat = heapq.heappop(self._heap)
            if kind != EVAL:
                self._pending_real -= 1
            self.now = time

            if kind == EVAL:
                record = EventRecord(time, seq, EVAL, -1, -1, "eval")
                if eval_hook is not None and eval_hook(self):
                    self.stop_reason = "target"
                    stopped = True
                elif self._pending_real > 0:
                    self._push(time + eval_interval_ms, EVAL, None)
            elif kind == DELIVER:
                src, dst, msg = data
                record = EventRecord(time, seq, DELIVER, src, dst, describe(msg), sent_at, lat)
                if isinstance(msg, TokenPass):
                    self.tokens_in_flight -= 1
                node = self.nodes[dst]
                if node.instant(msg):
                    node.handle(self, src, msg)
                else:
                    self._queues[dst].append((src, msg))
                    if not self._busy[dst]:
                        self._start_service(dst)
            else:
                src, dst, msg = data
                record = EventRecord(time, seq, SERVICE, src, dst, describe(msg))
                node = self.nodes[dst]
                node.handle(self, src, msg)
                if self._queues[dst]:
                    self._start_service(dst)
                else:
                    self._busy[dst] = False

            self.events_processed += 1
            self._hasher.update(record.line().encode())
            self._hasher.update(b"\n")
            if self.on_event is not None:
                self.on_event(self, record)
