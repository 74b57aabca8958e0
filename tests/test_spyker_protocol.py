"""End-to-end checks of the token-coordinated protocol and its synchronous variant."""

from collections import Counter, defaultdict

import numpy as np
import pytest

from spykersim.data import PartitionSpec, evaluate, partition_noniid, synthetic_dataset, train_test_split
from spykersim.errors import NumericsError, ProtocolViolation
from spykersim.hyperparams import HyperParams
from spykersim.messages import (
    AgeBroadcast,
    ClientUpdate,
    ModelBroadcast,
    ModelDispatch,
    Token,
    TokenPass,
)
from spykersim.models import LOGREG, init_model
from spykersim.protocols import SpykerServer, SyncSpykerServer, TrainingClient
from spykersim.simulation import (
    AWS4_LATENCY_MS,
    DELIVER,
    LOCATIONS,
    SERVICE,
    LinkModel,
    Simulator,
)


def build(
    n_servers=4,
    clients_per=2,
    seed=0,
    hp=None,
    variant="spyker",
    sync_period=6.0,
    delays=None,
    agg_ms=2.0,
):
    """A small geo-distributed topology over a fresh synthetic task.

    Servers get ids 0..n-1 on the measured latency matrix, clients are
    colocated with their home server, and the token starts at server 0.
    """
    hp = hp or HyperParams(h_inter=3.0, h_intra=40.0)
    n_clients = n_servers * clients_per
    pool = synthetic_dataset(seed, 44 * n_clients, dim=6, n_classes=2, separation=3.0)
    train, test = train_test_split(pool, 0.25, seed)
    shards = partition_noniid(train, PartitionSpec(n_clients, 2, seed))
    template = init_model(LOGREG, train.dim, train.n_classes, rng=np.random.default_rng(seed + 1))

    sim = Simulator(LinkModel(AWS4_LATENCY_MS))
    server_ids = list(range(n_servers))
    servers = []
    for s in server_ids:
        cids = [n_servers + s * clients_per + j for j in range(clients_per)]
        loc = LOCATIONS[s % len(LOCATIONS)]
        if variant == "spyker":
            node = SpykerServer(
                s, loc, server_ids, template, (s + 1) % n_servers, cids, hp, agg_ms,
                token=Token(0, (0.0,) * n_servers) if s == 0 else None,
            )
        else:
            node = SyncSpykerServer(s, loc, server_ids, template, cids, hp, agg_ms, sync_period)
        sim.add_node(node)
        servers.append(node)

    delay_rng = np.random.default_rng(seed + 2)
    clients = []
    for i in range(n_clients):
        home = i // clients_per
        delay = delays[i] if delays else float(delay_rng.uniform(100.0, 200.0))
        c = TrainingClient(
            n_servers + i,
            LOCATIONS[home % len(LOCATIONS)],
            home,
            shards[i],
            template,
            epochs=1,
            batch_size=8,
            training_delay_ms=delay,
            seed=seed + 100 + i,
        )
        sim.add_node(c)
        clients.append(c)

    for node in servers:
        node.bootstrap(sim)
    return sim, servers, clients, test


# -- token safety -------------------------------------------------------------


@pytest.mark.parametrize("n_servers", [1, 2, 3, 4])
def test_exactly_one_token_at_every_event(n_servers):
    sim, servers, _, _ = build(n_servers=n_servers)

    def probe(sim, record):
        holders = sum(1 for s in servers if s.token is not None)
        assert holders + sim.tokens_in_flight == 1

    sim.on_event = probe
    sim.run(horizon_ms=20_000)
    assert sim.events_processed > 300
    assert sum(len(s.did_broadcast) for s in servers) >= 2


def test_one_broadcast_per_server_per_bid():
    horizon = 30_000.0
    sim, servers, _, _ = build()
    deliveries = Counter()
    first_seen = {}

    def probe(sim, record):
        if record.kind == DELIVER and record.info.startswith("ModelBroadcast"):
            bid = int(record.info.split("bid=")[1].split(",")[0])
            deliveries[(record.src, bid)] += 1
            first_seen.setdefault((record.src, bid), record.time)

    sim.on_event = probe
    sim.run(horizon_ms=horizon)
    assert deliveries
    # One send to each of the n-1 peers, and never a second broadcast for
    # the same bid from the same server.  All peers are messaged at the same
    # instant, so only pairs cut off by the horizon may show fewer arrivals.
    settled = 0
    for pair, count in deliveries.items():
        assert count <= len(servers) - 1
        if first_seen[pair] <= horizon - 400.0:
            assert count == len(servers) - 1
            settled += 1
    assert settled >= 4


def test_token_passes_only_after_counting_all_models():
    sim, servers, _, _ = build()
    passes = Counter()

    def probe(sim, record):
        if record.kind == DELIVER and record.info.startswith("TokenPass"):
            passes[record.src] += 1

    sim.on_event = probe
    sim.run(horizon_ms=30_000)
    n = len(servers)
    total = 0
    for s in servers:
        assert all(v <= n for v in s.cnt.values())
        completed = sum(1 for v in s.cnt.values() if v == n)
        assert passes[s.node_id] == completed
        total += completed
    assert total >= 2


def test_token_bids_increase_by_one_per_tenure():
    sim, _, _, _ = build()
    bids = []

    def probe(sim, record):
        if record.kind == DELIVER and record.info.startswith("TokenPass"):
            bids.append(int(record.info.split("bid=")[1].rstrip(")")))

    sim.on_event = probe
    sim.run(horizon_ms=30_000)
    assert len(bids) >= 3
    assert bids == list(range(bids[0], bids[0] + len(bids)))


def test_receiving_a_second_token_is_a_violation():
    sim, servers, _, _ = build()
    holder = servers[0]
    assert holder.token is not None
    with pytest.raises(ProtocolViolation):
        holder.handle(sim, 1, TokenPass(Token(5, (0.0,) * len(servers))))


# -- age bookkeeping ----------------------------------------------------------


def test_age_gossip_merges_by_maximum():
    quiet = HyperParams(h_inter=1e6, h_intra=1e6)
    sim, servers, _, _ = build(hp=quiet)
    s = servers[0]
    s.handle(sim, 1, AgeBroadcast(5.0))
    assert s.known_ages[1] == 5.0
    s.handle(sim, 1, AgeBroadcast(3.0))
    assert s.known_ages[1] == 5.0


def test_token_carries_age_vector():
    quiet = HyperParams(h_inter=1e6, h_intra=1e6)
    sim, servers, _, _ = build(hp=quiet)
    s = servers[1]
    s.handle(sim, 0, TokenPass(Token(4, (7.0, 0.0, 1.0, 0.0))))
    assert s.token == Token(5, (7.0, 0.0, 1.0, 0.0))
    assert s.known_ages[0] == 7.0
    assert s.known_ages[2] == 1.0


def test_update_accounting_matches_trace():
    sim, servers, _, _ = build()
    serviced = Counter()

    def probe(sim, record):
        if record.kind == SERVICE and record.info.startswith("ClientUpdate"):
            serviced[record.dst] += 1

    sim.on_event = probe
    sim.run(horizon_ms=15_000)
    for s in servers:
        assert s.updates_absorbed == serviced[s.node_id] > 0
        assert sum(s.u.values()) == s.updates_absorbed


def test_unknown_client_update_rejected():
    sim, servers, clients, _ = build()
    s = servers[0]
    foreign = clients[-1]
    assert foreign.home_server != s.node_id
    with pytest.raises(ProtocolViolation):
        s.handle(sim, foreign.node_id, ClientUpdate(s.model.params, 0.0))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("variant", ["spyker", "sync"])
def test_non_finite_merge_names_its_cause(variant):
    hp = HyperParams(h_inter=1e6, h_intra=1e6, staleness_mode="literal", eta_server=1.0)
    sim, servers, clients, _ = build(hp=hp, variant=variant, sync_period=1e6)
    s = servers[0]
    s.age = 3.0
    huge = np.full(s.model.dim, 1e308)
    with pytest.raises(NumericsError) as err:
        s.handle(sim, clients[0].node_id, ClientUpdate(huge, 0.0))
    msg = str(err.value)
    for part in (f"server {s.node_id}", f"client {clients[0].node_id}", "age gap 3.0", "= 3.0"):
        assert part in msg


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("variant", ["spyker", "sync"])
def test_non_finite_server_merge_names_its_cause(variant):
    # The peer difference -1e308 - 1e308 overflows in server_merge; for the
    # sync variant the third round-1 model completes the set and starts the
    # fold, whose first pairwise merge (server 0 with server 1) overflows.
    hp = HyperParams(h_inter=1e6, h_intra=1e6)
    sim, servers, _, _ = build(hp=hp, variant=variant, sync_period=1e6)
    s = servers[0]
    s.model = s.model.with_params(np.full(s.model.dim, 1e308))
    low = np.full(s.model.dim, -1e308)
    peers = [1] if variant == "spyker" else [1, 2, 3]
    with pytest.raises(NumericsError) as err:
        for j in peers:
            s.handle(sim, j, ModelBroadcast(low, 0.0, 1))
    msg = str(err.value)
    # Equal ages give pair weight 0.5.
    for part in ("server 0 merged server 1", "ages 0.0 and 0.0", f"pair weight = {hp.eta_a * 0.5}"):
        assert part in msg
    if variant == "sync":
        assert "exchange round 1" in msg and s.syncing


def test_client_training_failure_names_the_client():
    sim, _, clients, _ = build()
    c = clients[0]
    c.handle(sim, c.home_server, ModelDispatch(c.template.params, 0.0, 0.1))
    bad = c.template.params.copy()
    bad[2] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericsError) as err:
        c.handle(sim, c.home_server, ModelDispatch(bad, 1.0, 0.25))
    msg = str(err.value)
    for part in (f"client {c.node_id}", f"home server {c.home_server}", "dispatch round 1",
                 "lr 0.25", f"component {err.value.index}"):
        assert part in msg
    assert err.value.index is not None
    assert isinstance(err.value.__cause__, NumericsError)


def test_dispatches_come_only_from_home_server():
    sim, servers, clients, _ = build()
    homes = {c.node_id: c.home_server for c in clients}
    bad = []

    def probe(sim, record):
        if record.kind == DELIVER and record.info.startswith("ModelDispatch"):
            if homes.get(record.dst) != record.src:
                bad.append(record)

    sim.on_event = probe
    sim.run(horizon_ms=10_000)
    assert not bad


def test_foreign_server_contact_rejected():
    sim, _, clients, _ = build()
    c = clients[0]
    msg = ModelDispatch(c.template.params, 0.0, 0.1)
    with pytest.raises(ProtocolViolation):
        c.handle(sim, c.home_server + 1, msg)


# -- learning-rate decay ------------------------------------------------------


def test_decay_penalizes_fast_clients():
    sim, servers, clients, _ = build(
        n_servers=2, clients_per=2, delays=[40.0, 400.0, 150.0, 150.0]
    )
    sim.run(horizon_ms=15_000)
    s = servers[0]
    fast, slow = clients[0].node_id, clients[1].node_id
    assert s.u[fast] > s.u[slow]
    assert s.eta[fast] < s.eta[slow]


def test_decay_disabled_keeps_base_rate():
    hp = HyperParams(h_inter=3.0, h_intra=40.0, decay_enabled=False)
    sim, servers, clients, _ = build(
        n_servers=2, clients_per=2, hp=hp, delays=[40.0, 400.0, 150.0, 150.0]
    )
    sim.run(horizon_ms=15_000)
    s = servers[0]
    assert s.eta[clients[0].node_id] == hp.eta_init
    assert s.eta[clients[1].node_id] == hp.eta_init


def test_training_actually_learns():
    sim, servers, _, test = build()
    base = evaluate(servers[0].model, test)
    sim.run(horizon_ms=30_000)
    final = evaluate(servers[0].model, test)
    assert final > max(base, 0.8)


# -- synchronous variant ------------------------------------------------------


def test_sync_rounds_produce_identical_models():
    sim, servers, _, _ = build(variant="sync", sync_period=6.0)
    seen = {s.node_id: 0 for s in servers}
    snaps = defaultdict(dict)

    def probe(sim, record):
        for s in servers:
            if s.syncs_completed > seen[s.node_id]:
                seen[s.node_id] = s.syncs_completed
                snaps[s.syncs_completed][s.node_id] = (s.model.params.copy(), s.age)

    sim.on_event = probe
    sim.run(horizon_ms=40_000)
    complete = [r for r, d in snaps.items() if len(d) == len(servers)]
    assert len(complete) >= 2
    for r in complete:
        params0, age0 = snaps[r][min(snaps[r])]
        for p, a in snaps[r].values():
            assert a == age0
            assert np.array_equal(p, params0)


@pytest.mark.parametrize("n_servers", [1, 3])
def test_sync_rounds_complete_on_other_sizes(n_servers):
    sim, servers, _, _ = build(variant="sync", n_servers=n_servers, sync_period=6.0)
    sim.run(horizon_ms=25_000)
    assert all(s.syncs_completed >= 1 for s in servers)
    assert len({s.syncs_completed for s in servers}) <= 2


def test_sync_buffers_then_replays_every_update():
    sim, servers, _, _ = build(variant="sync", clients_per=3, sync_period=4.0)
    direct = Counter()
    replay_in = Counter()
    replay_done = Counter()

    def probe(sim, record):
        if record.kind == SERVICE and record.info.startswith("ClientUpdate"):
            direct[record.dst] += 1
        if record.info.startswith("ReplayedUpdate"):
            if record.kind == DELIVER:
                replay_in[record.dst] += 1
            elif record.kind == SERVICE:
                replay_done[record.dst] += 1

    sim.on_event = probe
    sim.run(horizon_ms=30_000)
    assert sum(s.buffered_total for s in servers) > 0
    assert sum(s.replayed_total for s in servers) > 0
    for s in servers:
        queued_replays = replay_in[s.node_id] - replay_done[s.node_id]
        assert (
            s.updates_absorbed + len(s._buffer) + queued_replays == direct[s.node_id]
        )


def test_sync_variant_learns():
    sim, servers, _, test = build(variant="sync", sync_period=6.0)
    sim.run(horizon_ms=30_000)
    assert evaluate(servers[0].model, test) > 0.8
