"""Invariants of all five algorithms over random topologies."""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spykersim import protocols
from spykersim.config import ALGORITHMS, LOCATIONS, SINGLE_SERVER, from_dict
from spykersim.experiment import build_experiment
from spykersim.messages import ClientUpdate, payload_bytes
from spykersim.protocols.fedavg import FedAvgServer
from spykersim.simulation import SERVER, Simulator


@st.composite
def topologies(draw, algorithm):
    single = algorithm in SINGLE_SERVER
    n = 1 if single else draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(1, 8 if single else 4), min_size=n, max_size=n))
    return from_dict(
        {
            "preset": "desk-synth",
            "algorithm": algorithm,
            "sync_period": draw(st.sampled_from([2.0, 5.0, 20.0])),
            "selection_fraction": draw(st.sampled_from([0.5, 1.0])),
            "cloud_period": draw(st.integers(1, 4)),
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


# Every node class that defines its own ``handle``.
NODE_CLASSES = [
    cls for cls in vars(protocols).values() if isinstance(cls, type) and "handle" in vars(cls)
]


def collecting(server) -> int:
    """The updates a FedAvg server or edge holds for a round it has not
    averaged yet; a closed round's updates stay held until the next
    dispatch, but are absorbed."""
    held = len(getattr(server, "_pending", ()))
    return held if held < len(getattr(server, "_selected", ())) else 0


def check_counts(built):
    """Updates absorbed match the per-client counts, each client has at
    most one dispatch in service or in flight, and every edge is at most one
    cloud period ahead of the cloud."""
    for s in built.servers:
        assert s.updates_absorbed + collecting(s) == sum(s.u.values())
    u = built.client_update_counts()
    for c in built.clients:
        assert u[c.node_id] <= c._round <= u[c.node_id] + 1
    if built.cloud is not None:
        for edge in built.servers:
            assert edge.round // edge.cloud_period - built.cloud.cloud_rounds in (0, 1)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_invariants_on_random_topologies(algorithm, data):
    """One token after every event (spyker), bytes recounted over every
    send, update counts after every event, FedAvg updates only from the
    round's selected clients, each update's parameters read once, by its
    home server, finite server models, and no quiescent stop before the
    horizon."""
    cfg = data.draw(topologies(algorithm))
    recount = {"server-server": 0, "server-client": 0}
    send = Simulator.send
    # Each update sent, by (client, server); each update read, by the nodes
    # whose handle read its parameters.
    sent, reads, handling = {}, {}, []

    def counted_send(sim, src, dst, msg):
        if src != dst:
            both = sim.nodes[src].kind == SERVER and sim.nodes[dst].kind == SERVER
            recount["server-server" if both else "server-client"] += payload_bytes(msg)
        if type(msg) is ClientUpdate:
            sent[msg] = (src, dst)
        return send(sim, src, dst, msg)

    original = {cls: cls.handle for cls in NODE_CLASSES}
    params = ClientUpdate.params

    def selected_only(server, sim, src, msg):
        if isinstance(msg, ClientUpdate):
            assert src in server._selected
        return original[FedAvgServer](server, sim, src, msg)

    def tracked(handle):
        def tracked_handle(node, sim, src, msg):
            handling.append(node.node_id)
            try:
                return handle(node, sim, src, msg)
            finally:
                handling.pop()

        return tracked_handle

    def read(update):
        reads.setdefault(update, []).append(handling[-1] if handling else None)
        return params.fget(update)

    token_counts = set()

    def after_event(sim, record):
        if cfg.algorithm == "spyker":
            held = sum(s.token is not None for s in built.servers)
            token_counts.add(held + sim.tokens_in_flight)
        check_counts(built)

    with ExitStack() as patches:
        patches.enter_context(mock.patch.object(Simulator, "send", counted_send))
        patches.enter_context(mock.patch.object(ClientUpdate, "params", property(read)))
        for cls in NODE_CLASSES:
            handle = selected_only if cls is FedAvgServer else original[cls]
            patches.enter_context(mock.patch.object(cls, "handle", tracked(handle)))
        built = build_experiment(cfg)
        sim = built.sim
        sim.on_event = after_event
        sim.run(horizon_ms=cfg.horizon_ms)

    assert token_counts == ({1} if cfg.algorithm == "spyker" else set())
    assert sim.bytes_by_class == recount
    home = {c.node_id: c.home_server for c in built.clients}
    for update, readers in reads.items():
        client, server = sent[update]
        assert readers == [server] == [home[client]]
    # Every update a server counted was read; the rest are still in flight,
    # queued or, in a synchronous exchange, buffered.
    assert len(reads) == sum(sum(s.u.values()) for s in built.servers)
    nodes = built.servers + ([built.cloud] if built.cloud is not None else [])
    assert all(np.isfinite(s.model.params).all() for s in nodes)
    assert sim.stop_reason == "horizon"
