"""Event engine: ordering, FIFO links, queues, byte accounting, determinism."""

import hashlib

import numpy as np
import pytest

from spykersim import simulation as sm
from spykersim.errors import ConfigError
from spykersim.messages import AgeBroadcast, ClientUpdate, Token, TokenPass, payload_bytes


class Sink(sm.Node):
    """Swallows everything after a fixed service time; records arrivals."""

    kind = sm.SERVER

    def __init__(self, node_id, location, service=0.0, instant_types=()):
        self.node_id = node_id
        self.location = location
        self._service = service
        self._instant = tuple(instant_types)
        self.seen = []

    def instant(self, msg):
        return isinstance(msg, self._instant)

    def service_ms(self, sim, msg, src):
        return self._service

    def handle(self, sim, src, msg):
        self.seen.append((sim.now, src, msg))


class Pinger(sm.Node):
    """Sends a burst of messages to a target at bootstrap."""

    kind = sm.CLIENT

    def __init__(self, node_id, location, target, burst):
        self.node_id = node_id
        self.location = location
        self.target = target
        self.burst = burst

    def handle(self, sim, src, msg):
        pass

    def bootstrap(self, sim):
        for m in self.burst:
            sim.send(self.node_id, self.target, m)


def update(dim=10, age=0.0):
    return ClientUpdate(np.zeros(dim), age)


def make_sim(**kw):
    return sm.Simulator(sm.LinkModel(sm.AWS4_LATENCY_MS), **kw)


class TestLinkModel:
    def test_matrix_values_preserved(self):
        link = sm.LinkModel(sm.AWS4_LATENCY_MS)
        assert link.latency_between("Paris", "Sydney") == 278.83
        assert link.latency_between("Hongkong", "Hongkong") == 1.41
        assert link.latency_between("Hongkong", "Paris") == 194.90
        assert link.latency_between("Paris", "Hongkong") == 197.91
        assert link.latency_between("California", "California") == 2.14

    def test_uniform_matrix_mean_of_measured(self):
        u = sm.uniform_latency_ms()
        assert u[0, 0] == pytest.approx(130.954375, abs=1e-9)
        assert np.all(u == u[0, 0])

    def test_transfer_time_1mb(self):
        link = sm.LinkModel(sm.AWS4_LATENCY_MS)
        assert link.transfer_ms(1_000_000) == pytest.approx(80.0, abs=1e-9)

    def test_bad_matrix_rejected(self):
        with pytest.raises(ConfigError):
            sm.LinkModel(np.zeros((2, 2)))
        bad = sm.AWS4_LATENCY_MS.copy()
        bad[0, 0] = -1
        with pytest.raises(ConfigError):
            sm.LinkModel(bad)

    def test_unknown_location_rejected(self):
        link = sm.LinkModel(sm.AWS4_LATENCY_MS)
        with pytest.raises(ConfigError):
            link.latency_between("Paris", "Atlantis")


class TestSendDeliver:
    def test_latency_plus_transfer(self):
        sim = make_sim()
        a = Sink(0, "Paris")
        b = Sink(1, "Sydney")
        sim.add_node(a)
        sim.add_node(b)
        msg = update(dim=100)  # 464 bytes -> 0.03712 ms at 100 Mbps
        sim.send(0, 1, msg)
        sim.run()
        t, src, got = b.seen[0]
        assert src == 0 and got is msg
        assert t == pytest.approx(278.83 + 464 * 8e-5, abs=1e-9)

    def test_fifo_clamp_prevents_overtake(self):
        sim = make_sim()
        sim.add_node(Sink(0, "Paris"))
        b = Sink(1, "Sydney")
        sim.add_node(b)
        sim.send(0, 1, update(dim=200_000))  # large, slow transfer
        sim.send(0, 1, AgeBroadcast(1.0))  # small, would overtake unclamped
        sim.run()
        kinds = [type(m).__name__ for _, _, m in b.seen]
        assert kinds == ["ClientUpdate", "AgeBroadcast"]
        assert b.seen[0][0] <= b.seen[1][0]

    def test_same_time_processed_in_send_order(self):
        sim = make_sim()
        sim.add_node(Sink(0, "Paris"))
        b = Sink(1, "Paris")
        sim.add_node(b)
        for i in range(5):
            sim.send(0, 1, AgeBroadcast(float(i)))
        sim.run()
        assert [m.age for _, _, m in b.seen] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_self_send_is_free_and_immediate(self):
        sim = make_sim()
        a = Sink(0, "Paris")
        sim.add_node(a)
        sim.send(0, 0, update())
        sim.run()
        assert a.seen[0][0] == 0.0
        assert sim.total_bytes == 0

    def test_unknown_node_rejected(self):
        sim = make_sim()
        sim.add_node(Sink(0, "Paris"))
        with pytest.raises(ConfigError):
            sim.send(0, 99, update())

    def test_duplicate_node_rejected(self):
        sim = make_sim()
        sim.add_node(Sink(0, "Paris"))
        with pytest.raises(ConfigError):
            sim.add_node(Sink(0, "Sydney"))

    def test_clock_sanity_probe(self):
        sim = None
        violations = []

        def probe(s, rec):
            if rec.kind == sm.DELIVER and rec.sent_at >= 0:
                if rec.time + 1e-12 < rec.sent_at + rec.link_latency_ms:
                    violations.append(rec)

        sim = sm.Simulator(sm.LinkModel(sm.AWS4_LATENCY_MS), on_event=probe)
        sim.add_node(Pinger(0, "California", 1, [update() for _ in range(20)]))
        sim.add_node(Sink(1, "Hongkong", service=2.0))
        for n in sim.nodes.values():
            n.bootstrap(sim)
        sim.run()
        assert not violations


class TestQueueing:
    def test_burst_queue_peak(self):
        sim = make_sim()
        k = 7
        sim.add_node(Pinger(0, "Paris", 1, [update() for _ in range(k)]))
        srv = Sink(1, "Paris", service=2.0)
        sim.add_node(srv)
        peaks = []

        sim.on_event = lambda s, rec: peaks.append(s.queue_length(1))
        for n in sim.nodes.values():
            n.bootstrap(sim)
        sim.run()
        assert max(peaks) == k - 1
        assert len(srv.seen) == k
        # Services are 2 ms apart.
        times = [t for t, _, _ in srv.seen]
        assert np.allclose(np.diff(times), 2.0)

    def test_instant_message_bypasses_busy_server(self):
        sim = make_sim()
        tok = TokenPass(Token(1, (0.0, 0.0)))
        sim.add_node(Pinger(0, "Paris", 1, [update(), update(), tok]))
        srv = Sink(1, "Paris", service=50.0, instant_types=(TokenPass,))
        sim.add_node(srv)
        for n in sim.nodes.values():
            n.bootstrap(sim)
        sim.run()
        kinds = [type(m).__name__ for _, _, m in srv.seen]
        # Token is handled on arrival, before the queued updates finish service.
        assert kinds[0] == "TokenPass"

    def test_token_inflight_accounting(self):
        sim = make_sim()
        tok = TokenPass(Token(1, (0.0,)))
        sim.add_node(Pinger(0, "Paris", 1, [tok]))
        sim.add_node(Sink(1, "Sydney", instant_types=(TokenPass,)))
        for n in sim.nodes.values():
            n.bootstrap(sim)
        assert sim.tokens_in_flight == 1
        sim.run()
        assert sim.tokens_in_flight == 0


class TestByteAccounting:
    def test_conservation_and_classes(self):
        sim = make_sim()
        client = Pinger(0, "Paris", 1, [update(dim=10)])
        srv = Sink(1, "Paris")
        srv2 = Sink(2, "Sydney")
        sim.add_node(client)
        sim.add_node(srv)
        sim.add_node(srv2)
        client.bootstrap(sim)
        sim.send(1, 2, AgeBroadcast(0.0))
        sim.run()
        assert sim.bytes_by_class["server-client"] == payload_bytes(update(dim=10))
        assert sim.bytes_by_class["server-server"] == payload_bytes(AgeBroadcast(0.0))
        assert sim.total_bytes == sum(sim.bytes_by_class.values())

    def test_fifo_clamp_does_not_double_count(self):
        sim = make_sim()
        sim.add_node(Sink(0, "Paris"))
        sim.add_node(Sink(1, "Sydney"))
        msgs = [update(dim=1000) for _ in range(3)]
        for m in msgs:
            sim.send(0, 1, m)
        sim.run()
        assert sim.total_bytes == sum(payload_bytes(m) for m in msgs)


class TestRunLoop:
    def test_empty_system_stops_immediately(self):
        sim = make_sim()
        sim.run(horizon_ms=1000.0)
        assert sim.events_processed == 0
        assert sim.stop_reason == "quiescent"

    def test_horizon_stop(self):
        sim = make_sim()
        sim.add_node(Pinger(0, "Paris", 1, [update()]))
        sim.add_node(Sink(1, "Sydney"))
        for n in sim.nodes.values():
            n.bootstrap(sim)
        sim.run(horizon_ms=10.0)  # delivery needs ~279 ms
        assert sim.stop_reason == "horizon"
        assert sim.now == 10.0
        assert sim.events_processed == 0

    def test_eval_hook_fires_on_interval_and_stops_on_target(self):
        sim = make_sim()
        sim.add_node(Pinger(0, "Paris", 1, [update() for _ in range(50)]))
        sim.add_node(Sink(1, "Paris", service=100.0))
        for n in sim.nodes.values():
            n.bootstrap(sim)
        hook_times = []

        def hook(s):
            hook_times.append(s.now)
            return len(hook_times) >= 3

        sim.run(eval_interval_ms=50.0, eval_hook=hook)
        assert hook_times == [50.0, 100.0, 150.0]
        assert sim.stop_reason == "target"

    def test_eval_stops_rescheduling_when_quiescent(self):
        sim = make_sim()
        sim.add_node(Pinger(0, "Paris", 1, [update()]))
        sim.add_node(Sink(1, "Paris"))
        for n in sim.nodes.values():
            n.bootstrap(sim)
        hook_times = []
        sim.run(eval_interval_ms=5.0, eval_hook=lambda s: hook_times.append(s.now))
        assert sim.stop_reason == "quiescent"
        assert len(hook_times) <= 2

    def test_a_simulator_runs_once(self):
        """A second run would start a second evaluation chain at the absolute
        time ``eval_interval_ms``, behind the clock; it raises instead, and
        changes nothing."""
        sim = make_sim()
        sim.add_node(Pinger(0, "Paris", 1, [update() for _ in range(50)]))
        sim.add_node(Sink(1, "Paris", service=100.0))
        for n in sim.nodes.values():
            n.bootstrap(sim)
        hook_times = []

        def hook(s):
            hook_times.append(s.now)

        with pytest.raises(ConfigError):
            sim.run(horizon_ms=1000.0, eval_interval_ms=0.0, eval_hook=hook)
        sim.run(horizon_ms=1000.0, eval_interval_ms=250.0, eval_hook=hook)
        assert hook_times == [250.0, 500.0, 750.0, 1000.0]
        state = (sim.now, sim.stop_reason, sim.events_processed, sim.trace_hash())
        queued = list(sim._heap)
        with pytest.raises(RuntimeError, match="runs once"):
            sim.run(horizon_ms=2000.0, eval_interval_ms=250.0, eval_hook=hook)
        assert (sim.now, sim.stop_reason, sim.events_processed, sim.trace_hash()) == state
        assert sim._heap == queued
        assert hook_times == [250.0, 500.0, 750.0, 1000.0]

    def test_trace_hash_deterministic(self):
        def build():
            sim = make_sim()
            sim.add_node(Pinger(0, "Paris", 1, [update(dim=50) for _ in range(10)]))
            sim.add_node(Sink(1, "Sydney", service=2.0))
            for n in sim.nodes.values():
                n.bootstrap(sim)
            sim.run()
            return sim.trace_hash()

        assert build() == build()
        assert len(build()) == 64

    def test_trace_hash_sensitive_to_behavior(self):
        def build(service):
            sim = make_sim()
            sim.add_node(Pinger(0, "Paris", 1, [update(dim=50) for _ in range(4)]))
            sim.add_node(Sink(1, "Sydney", service=service))
            for n in sim.nodes.values():
                n.bootstrap(sim)
            sim.run()
            return sim.trace_hash()

        assert build(2.0) != build(3.0)


    def test_trace_hash_mid_run_and_after_a_target_stop(self):
        """The hash is fed a chunk of lines at a time; read from an eval hook
        or after the stop, it is the SHA-256 of every line so far."""
        sim = make_sim()
        sim.add_node(Pinger(0, "Paris", 1, [update() for _ in range(3 * sm.TRACE_CHUNK)]))
        sim.add_node(Sink(1, "Paris", service=0.25))
        for n in sim.nodes.values():
            n.bootstrap(sim)
        lines = []
        sim.on_event = lambda s, record: lines.append(record.line() + "\n")

        def so_far():
            return hashlib.sha256("".join(lines).encode()).hexdigest()

        checked = []

        def hook(s):
            assert s.trace_hash() == so_far()
            checked.append(len(lines))
            return len(checked) == 7

        sim.run(eval_interval_ms=50.0, eval_hook=hook)
        assert sim.stop_reason == "target"
        assert sim.trace_hash() == so_far()
        assert sim.events_processed == len(lines) > 2 * sm.TRACE_CHUNK
        # The hook read the hash with part of a chunk not hashed yet.
        assert any(n % sm.TRACE_CHUNK for n in checked) and len(set(checked)) == 7


class TestComputeProfile:
    def test_sample_positive_and_deterministic(self):
        prof = sm.ComputeProfile(training_mean_ms=1.0, training_std_ms=5.0)
        a = [prof.sample_training_ms(np.random.default_rng(3)) for _ in range(4)]
        b = [prof.sample_training_ms(np.random.default_rng(3)) for _ in range(4)]
        assert a == b
        draws = [prof.sample_training_ms(np.random.default_rng(i)) for i in range(200)]
        assert min(draws) > 0

    def test_defaults(self):
        prof = sm.ComputeProfile()
        assert prof.agg_fast_ms == 2.0
        assert prof.agg_slow_ms == 15.0
        assert prof.training_mean_ms == 150.0


class TestRunManifest:
    def test_json_roundtrip(self):
        m = sm.RunManifest(
            master_seed=7,
            node_seeds={"server-0": 12, "client-3": 99},
            ring_order=(2, 0, 1, 3),
            config_hash="ab" * 32,
            code_version="0.1.0",
        )
        back = sm.RunManifest.from_json(m.to_json())
        assert back == m
