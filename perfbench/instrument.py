"""Wrappers the benchmark installs around spykersim's public functions.

Nothing under ``src/`` is edited: a function is wrapped by replacing every
module attribute in the ``spykersim`` package that is bound to it (so
``from .aggregation import server_merge`` in a protocol module is covered),
and a method by replacing the class attribute. ``patched`` restores every
original when its block ends.

Three sets of wrappers exist:

- ``Stopwatch``: two timers (``build_experiment`` and ``Simulator.run``),
  one call each per run, plus calibration slices during long runs, for the
  untraced metrics;
- ``Probe``: records sends, deliveries, token counts, queue lengths, server
  service time, client shards and FedAvg rounds for the output checks;
- ``Tracer``: a span around every call into each layer, kept in memory.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import calibration
import spykersim.aggregation as aggregation
import spykersim.data as data
import spykersim.experiment as experiment
import spykersim.messages as messages
import spykersim.models as models
import spykersim.protocols as protocols
from spykersim.simulation import SERVER, EventRecord, Simulator

perf = time.perf_counter


def bindings(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) in the spykersim package bound to ``fn``."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "spykersim" or mod is None:
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                out.append((mod, attr))
    return out


@contextmanager
def patched(replacements):
    """Apply (owner, attribute, new value) triples; undo them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def rebind(fn, wrapper) -> list:
    """Replacements that put ``wrapper`` wherever ``fn`` is bound."""
    return [(owner, attr, wrapper) for owner, attr in bindings(fn)]


# -- untraced timing -------------------------------------------------------------


class Stopwatch:
    """Host seconds inside ``build_experiment`` and ``Simulator.run``.

    A long run outlasts the host's speed changes, so at an evaluation at
    least ``SLICE_EVERY_S`` after the last slice the stopwatch times one
    calibration slice; the slice's time is paused out of the run's times.
    """

    SLICE_EVERY_S = 0.5

    def __init__(self):
        self.take()

    def take(self) -> dict:
        """This run's times and calibration slices; starts the next run afresh."""
        out = getattr(self, "_now", None)
        self._now = {"setup_s": 0.0, "sim_s": 0.0, "paused_s": 0.0, "slices": []}
        return out

    def patches(self) -> list:
        build = experiment.build_experiment
        run = Simulator.run

        def timed_build(cfg):
            t0 = perf()
            try:
                return build(cfg)
            finally:
                self._now["setup_s"] += perf() - t0

        def timed_run(sim, **kw):
            if kw.get("eval_hook") is not None:
                kw["eval_hook"] = self._calibrating(kw["eval_hook"])
            t0 = self._last_slice = perf()
            try:
                return run(sim, **kw)
            finally:
                self._now["sim_s"] += perf() - t0

        return [(experiment, "build_experiment", timed_build), (Simulator, "run", timed_run)]

    def _calibrating(self, hook):
        def calibrating_hook(sim):
            t0 = perf()
            if t0 - self._last_slice >= self.SLICE_EVERY_S:
                self._now["slices"].append(calibration.slice_s())
                self._last_slice = perf()
                self._now["paused_s"] += self._last_slice - t0
            return hook(sim)

        return calibrating_hook


# -- probe for the output checks -------------------------------------------------------


def _sizes(msg) -> tuple[int, int]:
    params = getattr(msg, "params", None)
    token = getattr(msg, "token", None)
    return (len(params) if params is not None else 0, len(token.ages) if token is not None else 0)


class Probe:
    """Captures what the checks need from one run. Host time is not measured."""

    def __init__(self, fedavg_rounds: int = 0):
        self.fedavg_rounds = fedavg_rounds
        self.reset()

    def reset(self):
        self.sends: list = []
        self.deliveries: list = []
        self.token_counts: set = set()
        self.peak_queue = 0
        self.server_service_ms = 0.0
        self.server_model_exchanges = 0
        self.shards: list = []
        self.fedavg_params: list = []
        self._token_nodes: list = []

    def patches(self, capture_fedavg: bool) -> list:
        build = experiment.build_experiment
        send = Simulator.send
        partition = data.partition_noniid

        def probed_build(cfg):
            built = build(cfg)
            self._token_nodes = [n for n in built.servers if hasattr(n, "token")]
            built.sim.on_event = self._on_event
            return built

        def probed_send(sim, src, dst, msg):
            kind = type(msg).__name__
            self.sends.append((src, dst, kind, *_sizes(msg), sim.now))
            nodes = sim.nodes
            if (
                src != dst
                and nodes[src].kind == SERVER
                and nodes[dst].kind == SERVER
                and hasattr(msg, "params")
            ):
                self.server_model_exchanges += 1
            return send(sim, src, dst, msg)

        def probed_partition(train, spec):
            shards = partition(train, spec)
            self.shards = [(s.features.astype("float64"), s.labels) for s in shards]
            return shards

        out = [
            (experiment, "build_experiment", probed_build),
            (Simulator, "send", probed_send),
            *rebind(partition, probed_partition),
        ]
        for cls in _server_classes():
            out.append((cls, "service_ms", self._service_wrapper(cls.service_ms)))
        if capture_fedavg:
            agg = aggregation.fedavg_aggregate

            def probed_aggregate(updates):
                result = agg(updates)
                if len(self.fedavg_params) < self.fedavg_rounds:
                    self.fedavg_params.append(result.copy())
                return result

            out += rebind(agg, probed_aggregate)
        return out

    def _service_wrapper(self, fn):
        def probed_service(node, sim, msg, src):
            ms = fn(node, sim, msg, src)
            self.server_service_ms += ms
            return ms

        return probed_service

    def _on_event(self, sim, record):
        if record.kind == "deliver":
            self.deliveries.append((record.src, record.dst, record.info.split("(")[0], record.sent_at))
            self.peak_queue = max(self.peak_queue, sim.queue_length(record.dst))
        if self._token_nodes:
            held = sum(1 for n in self._token_nodes if n.token is not None)
            self.token_counts.add(held + sim.tokens_in_flight)


def _server_classes() -> list:
    return [
        cls
        for cls in vars(protocols).values()
        if isinstance(cls, type) and getattr(cls, "kind", None) == SERVER
    ]


def _node_classes() -> list:
    return [cls for cls in vars(protocols).values() if isinstance(cls, type) and hasattr(cls, "handle")]


# -- tracer ----------------------------------------------------------------------------

# Public functions wrapped in the traced run, by the layer they belong to.
TRACED_FUNCTIONS = {
    "models.local_training": models.local_training,
    "aggregation.spyker_client_merge": aggregation.spyker_client_merge,
    "aggregation.server_merge": aggregation.server_merge,
    "aggregation.fedavg_aggregate": aggregation.fedavg_aggregate,
    "aggregation.fedasync_merge": aggregation.fedasync_merge,
    "data.evaluate": data.evaluate,
    "data.synthetic_dataset": data.synthetic_dataset,
    "data.partition_noniid": data.partition_noniid,
    "messages.payload_bytes": messages.payload_bytes,
    "messages.describe": messages.describe,
    "experiment.build_experiment": experiment.build_experiment,
    "experiment.write_run": experiment.write_run,
}


class Tracer:
    """In-memory spans: name, start, end, parent span and operation.

    Per-name totals, self time (duration minus the time covered by child
    spans) and call counts are kept for every span; the spans themselves are
    kept up to ``max_spans`` and written out by the caller.
    """

    def __init__(self, max_spans: int = 250_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.samples = 0
        self.operation = 0
        self.recording = True
        self.dropped = 0
        self._stack: list = []
        self._next = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def wrap(self, name: str, fn):
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                self.total[name] += d
                self.self_time[name] += d - frame[0]
                self.calls[name] += 1
                parent = -1
                if stack:
                    stack[-1][0] += d
                    parent = stack[-1][1]
                if self.recording:
                    if len(self.span_id) < self.max_spans:
                        self.span_id.append(sid)
                        self.span_name.append(nid)
                        self.span_parent.append(parent)
                        self.span_op.append(self.operation)
                        self.span_start.append(t0)
                        self.span_end.append(t1)
                    else:
                        self.dropped += 1

        return traced

    def patches(self) -> list:
        out = []
        for name, fn in TRACED_FUNCTIONS.items():
            wrapper = self.wrap(name, fn)
            if name == "models.local_training":
                wrapper = self._count_samples(wrapper)
            out += rebind(fn, wrapper)
        for cls in _node_classes():
            layer = "protocols.client_handle" if cls.kind != SERVER else "protocols.server_handle"
            out.append((cls, "handle", self.wrap(layer, cls.handle)))
        out.append((EventRecord, "line", self.wrap("simulation.trace_line", EventRecord.line)))
        run = self.wrap("simulation.run", Simulator.run)
        wrap = self.wrap

        def traced_run(sim, **kw):
            if kw.get("eval_hook") is not None:
                kw["eval_hook"] = wrap("experiment.eval_hook", kw["eval_hook"])
            return run(sim, **kw)

        out.append((Simulator, "run", traced_run))
        return out

    def _count_samples(self, traced):
        def counted(m, X, y, lr, epochs, batch_size, rng):
            self.samples += len(y) * epochs
            return traced(m, X, y, lr, epochs, batch_size, rng)

        return counted

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            span=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            operation=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            dropped=np.array(self.dropped),
        )
