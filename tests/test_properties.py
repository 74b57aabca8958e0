"""Invariants of all five algorithms over random topologies, and equal
runs on every trainer path."""

import os
import threading
from contextlib import ExitStack
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spykersim.workers as workers
from spykersim import protocols
from spykersim.config import ALGORITHMS, LOCATIONS, SINGLE_SERVER, from_dict
from spykersim.experiment import build_experiment, run_experiment
from spykersim.messages import AgeBroadcast, ClientUpdate, payload_bytes
from spykersim.models import LOGREG, MLP
from spykersim.protocols.fedavg import FedAvgServer
from spykersim.protocols.spyker import SpykerServer
from spykersim.simulation import SERVER, Simulator


@st.composite
def topologies(draw, algorithm, horizon_ms=3000.0, **extra):
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
            "horizon_ms": horizon_ms,
            "hyper": {"batch_size": 8},
            **extra,
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
    """One token after every event, each age gossip at least 1 above the
    sender's last and a token passed only by its holder with that bid
    (spyker), bytes recounted over every send, update counts after every
    event, FedAvg updates only from the round's selected clients, each
    update's parameters read once, by its home server, finite server models,
    and no quiescent stop before the horizon."""
    cfg = data.draw(topologies(algorithm))
    recount = {"server-server": 0, "server-client": 0}
    send = Simulator.send
    # Each update sent, by (client, server); each update read, by the nodes
    # whose handle read its parameters.
    sent, reads, handling = {}, {}, []
    # Each server's last age gossip; one message goes to every peer.
    gossip = {}

    def counted_send(sim, src, dst, msg):
        if src != dst:
            both = sim.nodes[src].kind == SERVER and sim.nodes[dst].kind == SERVER
            recount["server-server" if both else "server-client"] += payload_bytes(msg)
        if type(msg) is ClientUpdate:
            sent[msg] = (src, dst)
        elif type(msg) is AgeBroadcast and gossip.get(src) is not msg:
            if src in gossip:
                assert msg.age >= gossip[src].age + 1.0
            gossip[src] = msg
        return send(sim, src, dst, msg)

    maybe_pass_token = SpykerServer._maybe_pass_token
    token_checks = []

    def holder_only(server, sim, bid):
        assert server.token is not None and server.token.bid == bid
        token_checks.append(bid)
        return maybe_pass_token(server, sim, bid)

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
        patches.enter_context(mock.patch.object(SpykerServer, "_maybe_pass_token", holder_only))
        for cls in NODE_CLASSES:
            handle = selected_only if cls is FedAvgServer else original[cls]
            patches.enter_context(mock.patch.object(cls, "handle", tracked(handle)))
        built = build_experiment(cfg)
        sim = built.sim
        sim.on_event = after_event
        sim.run(horizon_ms=cfg.horizon_ms)

    assert token_counts == ({1} if cfg.algorithm == "spyker" else set())
    if cfg.algorithm == "spyker" and cfg.n_servers > 1:
        assert gossip and token_checks
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


def forked(built):
    """The forked training process, for any model kind."""
    proc = workers.TrainingProcess(built.clients, workers._Scorer(built))
    for i, client in enumerate(built.clients):
        client.trainer = partial(proc.submit, i)
    return proc


# Each trainer path as a ``_start_worker``: the run's forked process, a
# training thread, and all work on the loop.
TRAINER_PATHS = {
    "fork": forked,
    "thread": workers._TrainingThread,
    "inline": workers._OnLoop,
}


@st.composite
def trainer_configs(draw):
    model = draw(
        st.sampled_from([{"model_kind": LOGREG}, {"model_kind": MLP, "hidden_dim": 3}])
    )
    return draw(topologies(draw(st.sampled_from(ALGORITHMS)), horizon_ms=1500.0, **model))


@pytest.mark.parametrize("path", ["fork", "thread"])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(cfg=trainer_configs())
def test_every_trainer_path_gives_the_same_run(path, cfg):
    """Forked and threaded training give the same trace, model, rows and
    summary as inline training, for both model kinds."""
    if path == "fork":
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork")
        # A fork copies only the calling thread, so the forked run comes
        # first, before any run thread, and only when no other thread is alive.
        others = [t.name for t in threading.enumerate() if t is not threading.current_thread()]
        if others:
            pytest.skip(f"other threads alive: {others}")
    results = []
    for start in (TRAINER_PATHS[path], TRAINER_PATHS["inline"]):
        with mock.patch.object(workers, "_start_worker", start):
            res = run_experiment(cfg)
        results.append((res.trace_hash, res.model_hash, res.rows, res.summary))
    assert results[1][3]["updates"] > 0
    assert results[0] == results[1]
