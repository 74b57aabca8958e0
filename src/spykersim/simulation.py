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
import math
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

# Trace lines joined into one SHA-256 update.
TRACE_CHUNK = 512

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
    """Latency matrix + shared per-link bandwidth; it holds no run state, so
    runs can share one."""

    latency_ms: np.ndarray
    bandwidth_bps: float = 100e6

    def __post_init__(self):
        m = np.asarray(self.latency_ms, dtype=np.float64)
        n = len(LOCATIONS)
        if m.shape != (n, n):
            raise ConfigError(f"latency matrix must be {n}x{n}, got {m.shape}")
        if np.any(m < 0) or not np.all(np.isfinite(m)):
            raise ConfigError("latency entries must be finite and non-negative")
        self.latency_ms = m
        self._index = {loc: i for i, loc in enumerate(LOCATIONS)}

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
    # The BLAS library, its thread count in the run (None when it cannot be
    # read) and whether the one-thread pin took effect; parameters repeat
    # across thread settings only when it did.
    blas_library: str = ""
    blas_threads: int | None = None
    blas_pinned: bool = False
    # numpy's SIMD dispatch targets, each with whether it is active in the
    # run's process (``blas.numpy_simd``); like the BLAS kernels, they can
    # change the model's bytes but never the schedule.
    numpy_simd: dict = field(default_factory=dict)

    def to_json(self) -> str:
        d = asdict(self)
        d["ring_order"] = list(self.ring_order)
        return json.dumps(d, sort_keys=True, indent=2) + "\n"


class Node:
    """Base class for simulated nodes; subclasses fill in behavior."""

    node_id: int
    location: str
    kind: str = "node"

    def instant(self, msg) -> bool:
        """True for message types handled at delivery, bypassing the queue."""
        return False

    def service_ms(self, sim: "Simulator", msg, src: int) -> float:
        """The service time of ``msg``; called once per queued message, when
        its service starts, so a node may start host work for it here."""
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
        # No event after this time is processed; set by run.
        self.horizon = math.inf
        self.events_processed = 0
        self.stop_reason = "quiescent"
        self.tokens_in_flight = 0
        self.bytes_by_class = {"server-server": 0, "server-client": 0}
        self._heap: list = []
        self._seq = 0
        self._queues: dict[int, deque] = {}
        self._busy: dict[int, bool] = {}
        self._routes: dict[tuple[int, int], tuple[float, str]] = {}
        # Each directed link's latest delivery time; links deliver in FIFO order.
        self._last_delivery: dict[tuple[int, int], float] = {}
        # The last message sent, its trace description and, once it leaves
        # its node, its wire size and transfer time: a message sent to
        # several peers in a row is described and sized once.
        self._sent = None
        self._sent_info = ""
        self._sent_wire: tuple[int, float] | None = None
        self._hasher = hashlib.sha256()
        # Trace lines not hashed yet; hashed a chunk at a time.
        self._trace_lines: list[str] = []
        self._ran = False

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

    def _route(self, src: int, dst: int) -> tuple[float, str]:
        """(latency, byte class) of the directed link src -> dst."""
        if dst not in self.nodes or src not in self.nodes:
            raise ConfigError(f"send between unknown nodes {src}->{dst}")
        a, b = self.nodes[src], self.nodes[dst]
        both = a.kind == SERVER and b.kind == SERVER
        return (
            self.link.latency_between(a.location, b.location),
            "server-server" if both else "server-client",
        )

    def send(self, src: int, dst: int, msg) -> None:
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            # A node's location and kind are fixed once added, so the first
            # send on a link settles its route for the rest of the run.
            route = self._routes[key] = self._route(src, dst)
        if type(msg) is TokenPass:
            self.tokens_in_flight += 1
        if msg is not self._sent:
            self._sent, self._sent_info, self._sent_wire = msg, describe(msg), None
        now = self.now
        if src == dst:
            self._push(now, DELIVER, (src, dst, msg, self._sent_info), sent_at=now)
            return
        wire = self._sent_wire
        if wire is None:
            nbytes = payload_bytes(msg)
            wire = self._sent_wire = (nbytes, self.link.transfer_ms(nbytes))
        nbytes, transfer = wire
        lat, byte_class = route
        at = now + lat + transfer
        last_delivery = self._last_delivery
        last = last_delivery.get(key, 0.0)
        if last > at:
            at = last
        last_delivery[key] = at
        self.bytes_by_class[byte_class] += nbytes
        self._push(at, DELIVER, (src, dst, msg, self._sent_info), sent_at=now, lat=lat)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_class.values())

    def queue_length(self, node_id: int) -> int:
        """Messages waiting at a node, excluding the one in service."""
        return len(self._queues[node_id])

    def trace_hash(self) -> str:
        """SHA-256 of every processed event's ``EventRecord.line() + "\\n"``."""
        self._flush_trace()
        return self._hasher.hexdigest()

    def _flush_trace(self) -> None:
        lines = self._trace_lines
        if lines:
            self._hasher.update("".join(lines).encode())
            lines.clear()

    # -- event loop -------------------------------------------------------

    def _start_service(self, dst: int) -> None:
        node = self.nodes[dst]
        src, msg, info = self._queues[dst].popleft()
        self._busy[dst] = True
        svc = node.service_ms(self, msg, src)
        self._push(self.now + svc, SERVICE, (src, dst, msg, info))

    def run(
        self,
        *,
        horizon_ms: float | None = None,
        eval_interval_ms: float | None = None,
        eval_hook=None,
    ) -> None:
        if self._ran:
            raise RuntimeError("a simulator runs once; build a new one for another run")
        if eval_interval_ms is not None and eval_interval_ms <= 0:
            raise ConfigError("eval interval must be positive")
        self._ran = True
        # Only run() pushes evaluations, so the heap holds real events only
        # here and, once the evaluation is popped, at every evaluation.
        if eval_interval_ms and self._heap:
            self._push(eval_interval_ms, EVAL, None)

        # The heap, queue and busy containers are never rebound, so locals
        # stay valid while handlers push through send() and _start_service().
        heap, pop = self._heap, heapq.heappop
        nodes, queues, busy = self.nodes, self._queues, self._busy
        lines = self._trace_lines
        self.horizon = horizon = math.inf if horizon_ms is None else horizon_ms
        while heap:
            if heap[0][0] > horizon:
                self.now = horizon_ms
                self.stop_reason = "horizon"
                break
            time, seq, kind, data, sent_at, lat = pop(heap)
            self.now = time
            stopped = False
            if kind == DELIVER:
                src, dst, msg, info = data
                if type(msg) is TokenPass:
                    self.tokens_in_flight -= 1
                node = nodes[dst]
                if node.instant(msg):
                    node.handle(self, src, msg)
                else:
                    queues[dst].append((src, msg, info))
                    if not busy[dst]:
                        self._start_service(dst)
            elif kind == SERVICE:
                src, dst, msg, info = data
                nodes[dst].handle(self, src, msg)
                if queues[dst]:
                    self._start_service(dst)
                else:
                    busy[dst] = False
            else:
                src = dst = -1
                info = EVAL
                if eval_hook is not None and eval_hook(self):
                    self.stop_reason = "target"
                    stopped = True
                elif heap:
                    self._push(time + eval_interval_ms, EVAL, None)

            self.events_processed += 1
            # The lines of EventRecord.line(), hashed a chunk at a time, so
            # the hash is that of the whole stream; records are built only
            # for a hook.
            lines.append(f"{time:.9f}|{seq}|{kind}|{src}|{dst}|{info}\n")
            if len(lines) >= TRACE_CHUNK:
                self._flush_trace()
            if self.on_event is not None:
                self.on_event(self, EventRecord(time, seq, kind, src, dst, info, sent_at, lat))
            if stopped:
                break
