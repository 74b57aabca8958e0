"""Round semantics, staleness accounting, and hierarchy behavior of the baselines."""

from collections import Counter

import numpy as np
import pytest

from spykersim.aggregation import fedasync_merge, fedavg_aggregate
from spykersim.data import PartitionSpec, evaluate, partition_noniid, synthetic_dataset, train_test_split
from spykersim.errors import NumericsError, ProtocolViolation
from spykersim.messages import ClientUpdate, EdgeReport, ModelDispatch, payload_bytes
from spykersim.models import LOGREG, init_model, local_training
from spykersim.protocols import FedAsyncServer, FedAvgServer, HierCloud, HierEdgeServer, TrainingClient
from spykersim.simulation import (
    DELIVER,
    LOCATIONS,
    SERVICE,
    LinkModel,
    Node,
    Simulator,
    uniform_latency_ms,
)

SERVER_ID = 0
EPOCHS = 1
BATCH = 8


def make_task(n_clients, seed=0):
    pool = synthetic_dataset(seed, 44 * n_clients, dim=6, n_classes=2, separation=3.0)
    train, test = train_test_split(pool, 0.25, seed)
    shards = partition_noniid(train, PartitionSpec(n_clients, 2, seed))
    template = init_model(LOGREG, train.dim, train.n_classes, rng=np.random.default_rng(seed + 1))
    return shards, template, test


def add_clients(sim, shards, template, home, delays, first_id, seed=0, location=None):
    clients = []
    for i, shard in enumerate(shards):
        c = TrainingClient(
            first_id + i,
            location or LOCATIONS[i % len(LOCATIONS)],
            home,
            shard,
            template,
            epochs=EPOCHS,
            batch_size=BATCH,
            training_delay_ms=delays[i],
            seed=seed + 100 + i,
        )
        sim.add_node(c)
        clients.append(c)
    return clients


def build_fedavg(n_clients=3, seed=0, lr=0.1, selection=1.0, delays=None, latency=None):
    shards, template, test = make_task(n_clients, seed)
    delays = delays or [100.0 + 20.0 * i for i in range(n_clients)]
    sim = Simulator(LinkModel(latency if latency is not None else uniform_latency_ms(10.0)))
    server = FedAvgServer(
        SERVER_ID,
        LOCATIONS[0],
        template,
        list(range(1, n_clients + 1)),
        {1 + i: shards[i].n_samples for i in range(n_clients)},
        lr,
        agg_ms=15.0,
        selection_fraction=selection,
        seed=seed,
    )
    sim.add_node(server)
    clients = add_clients(sim, shards, template, SERVER_ID, delays, first_id=1, seed=seed)
    server.bootstrap(sim)
    return sim, server, clients, shards, template, test


def build_fedasync(n_clients=3, seed=0, lr=0.1, alpha=0.5, delays=None):
    shards, template, test = make_task(n_clients, seed)
    delays = delays or [100.0 + 35.0 * i for i in range(n_clients)]
    sim = Simulator(LinkModel(uniform_latency_ms(10.0)))
    server = FedAsyncServer(
        SERVER_ID,
        LOCATIONS[0],
        template,
        list(range(1, n_clients + 1)),
        {1 + i: shards[i].n_samples for i in range(n_clients)},
        lr,
        alpha,
        agg_ms=2.0,
    )
    sim.add_node(server)
    clients = add_clients(sim, shards, template, SERVER_ID, delays, first_id=1, seed=seed)
    server.bootstrap(sim)
    return sim, server, clients, shards, template, test


def run_until_round(sim, server, rounds, horizon=300_000.0):
    sim.run(
        horizon_ms=horizon,
        eval_interval_ms=1.0,
        eval_hook=lambda s: server.round >= rounds,
    )
    assert sim.stop_reason == "target"


# -- synchronous rounds -------------------------------------------------------


def test_fedavg_matches_offline_replay():
    rounds = 4
    sim, server, clients, shards, template, _ = build_fedavg(n_clients=3, seed=3)
    run_until_round(sim, server, rounds)

    w = template.params
    for r in range(rounds):
        outs = []
        for i, shard in enumerate(shards):
            rng = np.random.default_rng([clients[i].seed, r])
            X = np.asarray(shard.features, dtype=np.float64)
            m = local_training(template.with_params(w), X, shard.labels, 0.1, EPOCHS, BATCH, rng)
            outs.append((m.params, shard.n_samples))
        w = fedavg_aggregate(outs)
    assert np.array_equal(server.model.params, w)


def test_fedavg_round_timing_and_aggregation_charge():
    delays = [100.0, 130.0]
    sim, server, _, _, template, _ = build_fedavg(n_clients=2, delays=delays)
    upd_times = []
    dispatch_times = []

    def probe(sim, record):
        if record.kind == SERVICE and record.dst == SERVER_ID:
            upd_times.append(record.time)
        if record.kind == DELIVER and record.info.startswith("ModelDispatch"):
            dispatch_times.append(record.time)

    sim.on_event = probe
    sim.run(horizon_ms=200.0)
    assert server.round == 1

    lat = 10.0
    tr = sim.link.transfer_ms(payload_bytes(ModelDispatch(template.params, 0.0, 0.1)))
    first = lat + tr + delays[0] + lat + tr
    second = lat + tr + delays[1] + lat + tr
    # Collection is free, the slowest client's update carries the 15 ms
    # aggregation, and the next round goes out immediately afterwards.
    assert upd_times == pytest.approx([first, second + 15.0], rel=1e-12)
    assert dispatch_times[:2] == pytest.approx([lat + tr, lat + tr], rel=1e-12)
    assert dispatch_times[2:4] == pytest.approx([second + 15.0 + lat + tr] * 2, rel=1e-12)


def test_fedavg_full_participation_keeps_counts_even():
    sim, server, _, _, _, _ = build_fedavg(n_clients=4)
    sim.run(horizon_ms=5_000)
    counts = sorted(server.u.values())
    assert counts[-1] - counts[0] <= 1
    assert server.round >= 3


@pytest.mark.parametrize("kind", ["fedavg", "hier-edge"])
def test_fedavg_duplicate_update_rejected(kind):
    if kind == "fedavg":
        sim, server, clients, _, _, _ = build_fedavg(n_clients=3)
    else:
        sim, edges, _, clients, _, _, _ = build_hier(n_edges=1, clients_per=3)
        server = edges[0]
    upd = ClientUpdate(server.model.params, 0.0)
    server.handle(sim, clients[0].node_id, upd)
    with pytest.raises(ProtocolViolation):
        server.handle(sim, clients[0].node_id, upd)


@pytest.mark.parametrize("kind", ["fedavg", "hier-edge"])
def test_fedavg_non_finite_average_names_its_cause(kind):
    if kind == "fedavg":
        sim, server, clients, shards, _, _ = build_fedavg(n_clients=3)
    else:
        sim, edges, _, clients, shards, _, _ = build_hier(n_edges=1, clients_per=3)
        server = edges[0]
    *good, last = clients
    for c in good:
        server.handle(sim, c.node_id, ClientUpdate(server.model.params, 0.0))
    with pytest.raises(NumericsError) as err:
        server.handle(sim, last.node_id, ClientUpdate(np.full(server.model.dim, np.inf), 0.0))
    share = last.data_size / sum(s.n_samples for s in shards)
    msg = str(err.value)
    for part in (f"server {server.node_id} averaged round 0", f"client {last.node_id}",
                 f"d_k/d = {share}"):
        assert part in msg


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_fedasync_non_finite_merge_names_its_cause():
    sim, server, clients, shards, _, _ = build_fedasync(n_clients=3)
    c = clients[1]
    # Sent 1e308, returned -1e308: the client's progress overflows.
    server._params_sent[c.node_id] = np.full(server.model.dim, 1e308)
    with pytest.raises(NumericsError) as err:
        server.handle(sim, c.node_id, ClientUpdate(np.full(server.model.dim, -1e308), 0.0))
    share = c.data_size / sum(s.n_samples for s in shards)
    msg = str(err.value)
    for part in (f"server {server.node_id} merged client {c.node_id}", "staleness 0.0",
                 f"d_k/d = {share}"):
        assert part in msg


def test_fedavg_partial_selection():
    sim, server, _, _, _, _ = build_fedavg(n_clients=4, selection=0.5)
    dispatched = Counter()

    def probe(sim, record):
        if record.kind == DELIVER and record.info.startswith("ModelDispatch"):
            dispatched[record.dst] += 1

    sim.on_event = probe
    sim.run(horizon_ms=10_000)
    assert server.round >= 5
    assert len(server._selected) == 2
    assert sum(server.u.values()) == 2 * server.round + len(server._pending)
    # Across enough seeded rounds every client takes part at least once.
    assert all(server.u[cid] > 0 for cid in server.u)


# -- asynchronous single server -------------------------------------------------


def test_fedasync_matches_offline_replay():
    sim, server, clients, shards, template, _ = build_fedasync(n_clients=3, seed=5)
    order = []

    def probe(sim, record):
        if record.kind == SERVICE and record.dst == SERVER_ID:
            order.append(record.src)

    sim.on_event = probe
    sim.run(horizon_ms=2_500)
    assert len(order) >= 6

    # Replay the absorbed sequence: every dispatch is tagged with the global
    # version at send time, so staleness is the version delta at return.
    w = template.params
    version = 0
    sent_w = {c.node_id: template.params for c in clients}
    sent_v = {c.node_id: 0 for c in clients}
    rounds = {c.node_id: 0 for c in clients}
    shard_of = {clients[i].node_id: shards[i] for i in range(len(clients))}
    total = sum(s.n_samples for s in shards)
    for cid in order:
        shard = shard_of[cid]
        rng = np.random.default_rng([clients[cid - 1].seed, rounds[cid]])
        X = np.asarray(shard.features, dtype=np.float64)
        m = local_training(
            template.with_params(sent_w[cid]), X, shard.labels, 0.1, EPOCHS, BATCH, rng
        )
        rounds[cid] += 1
        tau = float(version - sent_v[cid])
        w = fedasync_merge(w, sent_w[cid], m.params, tau, shard.n_samples, total, 0.5)
        version += 1
        sent_w[cid] = w
        sent_v[cid] = version
    assert version == server.version
    assert np.array_equal(server.model.params, w)


def test_fedasync_burst_builds_a_queue():
    n = 8
    sim, server, _, _, _, _ = build_fedasync(n_clients=n, delays=[100.0] * n)
    max_queue = 0

    def probe(sim, record):
        nonlocal max_queue
        max_queue = max(max_queue, sim.queue_length(SERVER_ID))

    sim.on_event = probe
    sim.run(horizon_ms=400)
    assert max_queue == n - 1


def test_fedasync_version_counts_every_update():
    sim, server, _, _, _, _ = build_fedasync(n_clients=3)
    sim.run(horizon_ms=5_000)
    assert server.version == server.updates_absorbed == sum(server.u.values())
    assert server.version > 10


def test_fedasync_learns():
    sim, server, _, _, _, test = build_fedasync(n_clients=4)
    sim.run(horizon_ms=20_000)
    assert evaluate(server.model, test) > 0.8


# -- hierarchy ------------------------------------------------------------------


class _StubEdge(Node):
    kind = "server"

    def __init__(self, node_id, location):
        self.node_id = node_id
        self.location = location
        self.received = []

    def handle(self, sim, src, msg):
        self.received.append(msg)


def test_cloud_takes_data_weighted_mean():
    sim = Simulator(LinkModel(uniform_latency_ms(10.0)))
    template = init_model(LOGREG, 4, 2, rng=np.random.default_rng(0))
    cloud = HierCloud(50, LOCATIONS[0], template, [10, 11], agg_ms=15.0)
    sim.add_node(cloud)
    for eid in (10, 11):
        sim.add_node(_StubEdge(eid, LOCATIONS[1]))
    a = np.zeros(template.dim)
    b = np.ones(template.dim)
    cloud.handle(sim, 10, EdgeReport(a, 1))
    cloud.handle(sim, 11, EdgeReport(b, 3))
    assert np.allclose(cloud.model.params, 0.75 * b)
    assert cloud.cloud_rounds == 1


def test_cloud_non_finite_average_names_its_cause():
    sim = Simulator(LinkModel(uniform_latency_ms(10.0)))
    template = init_model(LOGREG, 4, 2, rng=np.random.default_rng(0))
    cloud = HierCloud(50, LOCATIONS[0], template, [10, 11], agg_ms=15.0)
    sim.add_node(cloud)
    cloud.handle(sim, 10, EdgeReport(np.zeros(template.dim), 1))
    with pytest.raises(NumericsError) as err:
        cloud.handle(sim, 11, EdgeReport(np.full(template.dim, np.nan), 3))
    msg = str(err.value)
    for part in ("cloud 50 averaged cloud round 0", "edge 11", "d_k/d = 0.75"):
        assert part in msg


def build_hier(n_edges=2, clients_per=2, cloud_period=3, seed=0, lr=0.1):
    n_clients = n_edges * clients_per
    shards, template, test = make_task(n_clients, seed)
    sim = Simulator(LinkModel(uniform_latency_ms(10.0)))
    cloud_id = 99
    edges = []
    all_clients = []
    for e in range(n_edges):
        cids = list(range(1 + e * clients_per, 1 + (e + 1) * clients_per))
        edge = HierEdgeServer(
            SERVER_ID + 10 * e if e else SERVER_ID,
            LOCATIONS[e % len(LOCATIONS)],
            template,
            cids,
            {cid: shards[cid - 1].n_samples for cid in cids},
            lr,
            agg_ms=15.0,
            cloud_id=cloud_id,
            cloud_period=cloud_period,
        )
        sim.add_node(edge)
        edges.append(edge)
        sub = [shards[cid - 1] for cid in cids]
        delays = [100.0 + 10.0 * cid for cid in cids]
        all_clients += add_clients(
            sim, sub, template, edge.node_id, delays, first_id=cids[0], seed=seed
        )
    cloud = HierCloud(cloud_id, LOCATIONS[0], template, [e.node_id for e in edges], 15.0)
    sim.add_node(cloud)
    for edge in edges:
        edge.bootstrap(sim)
    return sim, edges, cloud, all_clients, shards, template, test


def test_edges_report_every_period_and_pause():
    sim, edges, cloud, _, _, _, _ = build_hier(cloud_period=3)
    reports = Counter()

    def probe(sim, record):
        if record.kind == DELIVER and record.info == "EdgeReport":
            reports[record.src] += 1

    sim.on_event = probe
    sim.run(horizon_ms=8_000)
    assert cloud.cloud_rounds >= 2
    for edge in edges:
        assert reports[edge.node_id] >= cloud.cloud_rounds
        assert edge.updates_absorbed == edge.round * len(edge.client_ids)
        # Edges never race ahead: they stall at a report until the cloud
        # answers, so round counts stay within one period of each other.
        assert abs(edges[0].round - edge.round) <= 3


def test_single_edge_period_one_tracks_flat_averaging():
    rounds = 3
    seed = 7
    sim_h, edges, cloud, _, _, _, _ = build_hier(
        n_edges=1, clients_per=3, cloud_period=1, seed=seed
    )
    edge = edges[0]
    sim_h.run(
        horizon_ms=300_000,
        eval_interval_ms=1.0,
        eval_hook=lambda s: cloud.cloud_rounds >= rounds,
    )
    sim_f, server, _, _, _, _ = build_fedavg(n_clients=3, seed=seed)
    run_until_round(sim_f, server, rounds)
    assert edge.round == server.round == rounds
    assert np.array_equal(edge.model.params, server.model.params)
    assert np.array_equal(cloud.model.params, server.model.params)


def test_hier_learns():
    sim, edges, cloud, _, _, _, test = build_hier(n_edges=2, clients_per=3, cloud_period=2)
    sim.run(horizon_ms=25_000)
    assert cloud.cloud_rounds >= 3
    assert evaluate(cloud.model, test) > 0.8
