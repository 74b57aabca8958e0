"""Invariants of both spyker variants over random topologies."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spykersim.config import LOCATIONS, from_dict
from spykersim.experiment import build_experiment
from spykersim.messages import payload_bytes
from spykersim.simulation import SERVER, Simulator


@st.composite
def topologies(draw):
    n = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return from_dict(
        {
            "preset": "desk-synth",
            "algorithm": draw(st.sampled_from(["spyker", "sync-spyker"])),
            "sync_period": draw(st.sampled_from([2.0, 5.0, 20.0])),
            "n_servers": n,
            "n_clients": sum(counts),
            "client_counts": counts,
            "server_locations": draw(st.lists(st.sampled_from(LOCATIONS), min_size=n, max_size=n)),
            "latency": draw(st.sampled_from(["aws4", "uniform"])),
            "seed": draw(st.integers(0, 2**16)),
            "n_samples": 400,
            "input_dim": 6,
            "separation": 3.0,
            "horizon_ms": 3000.0,
            "hyper": {"batch_size": 8},
        }
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(topologies())
def test_spyker_invariants_on_random_topologies(cfg):
    """One token after every event (spyker), bytes recounted over every
    send, finite server models, and no quiescent stop before the horizon."""
    recount = {"server-server": 0, "server-client": 0}
    send = Simulator.send

    def counted_send(sim, src, dst, msg):
        if src != dst:
            both = sim.nodes[src].kind == SERVER and sim.nodes[dst].kind == SERVER
            recount["server-server" if both else "server-client"] += payload_bytes(msg)
        return send(sim, src, dst, msg)

    token_counts = set()

    def count_tokens(sim, record):
        held = sum(s.token is not None for s in built.servers)
        token_counts.add(held + sim.tokens_in_flight)

    with mock.patch.object(Simulator, "send", counted_send):
        built = build_experiment(cfg)
        sim = built.sim
        if cfg.algorithm == "spyker":
            sim.on_event = count_tokens
        sim.run(horizon_ms=cfg.horizon_ms)

    assert token_counts == ({1} if cfg.algorithm == "spyker" else set())
    assert sim.bytes_by_class == recount
    assert all(np.isfinite(s.model.params).all() for s in built.servers)
    assert sim.stop_reason == "horizon"
