"""The cheap checks and set-up each update runs equal what they replace.

- A merged or trained vector is checked for finiteness with one reduction;
  a non-finite one still raises the same ``NumericsError`` text, naming the
  server, the client and the component, and an all-finite one whose
  reduction overflows still passes.
- A client's per-dispatch generator is seeded from an array of 32-bit
  words; it draws the stream of ``np.random.default_rng([seed, dispatch])``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spykersim import models
from spykersim.aggregation import (
    client_staleness_weight,
    fedasync_staleness,
    require_finite,
    server_pair_weight,
)
from spykersim.errors import NumericsError
from spykersim.hyperparams import HyperParams
from spykersim.messages import ClientUpdate, ModelBroadcast, ModelDispatch
from spykersim.models import first_non_finite
from spykersim.protocols import TrainingClient
from spykersim import experiment, workers
from spykersim.config import from_dict
from spykersim.experiment import (
    _CLIENT_DELAY,
    _CLIENT_SHUFFLE,
    build_experiment,
    client_seeds,
    derive_seed,
    run_experiment,
)
from spykersim.protocols.clients import HashedState, seed_states, uint32_words
from spykersim.simulation import LOCATIONS

from test_baselines import build_fedasync, build_fedavg, make_task
from test_spyker_protocol import build

BAD = [np.inf, -np.inf, np.nan]
overflow_ok = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


def poisoned(v: np.ndarray, bad: float, at: int | None = None) -> np.ndarray:
    """A copy of ``v`` with ``bad`` at component ``at``, or everywhere."""
    out = v.copy()
    if at is None:
        out[:] = bad
    else:
        out[at] = bad
    return out


# -- the check itself ----------------------------------------------------------


finite_or_not = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1e200, *BAD]),
)


@overflow_ok
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(finite_or_not, min_size=1, max_size=300))
def test_first_non_finite_names_the_first_bad_entry(values):
    expected = next((i for i, x in enumerate(values) if not math.isfinite(x)), None)
    with np.errstate(invalid="ignore"):
        assert first_non_finite(np.array(values)) == expected


@overflow_ok
def test_an_all_finite_vector_whose_reduction_overflows_passes():
    v = np.full(1000, 1e200)
    v[::2] = -1e308
    assert first_non_finite(v) is None
    assert require_finite(v, lambda: "unused") is v
    v[999] = np.nan
    assert first_non_finite(v) == 999
    with pytest.raises(NumericsError, match="^named$"):
        require_finite(v, lambda: "named")


# -- each place that checks ---------------------------------------------------------


@overflow_ok
@pytest.mark.parametrize("at", [None, 0, 7])
@pytest.mark.parametrize("bad", BAD)
def test_spyker_client_merge_names_server_and_client(bad, at):
    hp = HyperParams(h_inter=1e6, h_intra=1e6)
    sim, servers, clients, _ = build(hp=hp)
    s, c = servers[0], clients[0]
    s.age = 3.0
    w = client_staleness_weight(3.0, 1.0, hp.staleness_mode)
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError) as err:
        s.handle(sim, c.node_id, ClientUpdate(poisoned(s.model.params, bad, at), 1.0))
    assert str(err.value) == (
        f"server 0 merged client {c.node_id} into a non-finite model: age gap 2.0, "
        f"coefficient eta_server x weight = {hp.eta_server * w}"
    )


@overflow_ok
@pytest.mark.parametrize("at", [None, 3])
@pytest.mark.parametrize("bad", BAD)
def test_spyker_server_merge_names_both_servers(bad, at):
    hp = HyperParams(h_inter=1e6, h_intra=1e6)
    sim, servers, _, _ = build(hp=hp)
    s = servers[0]
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError) as err:
        s.handle(sim, 2, ModelBroadcast(poisoned(s.model.params, bad, at), 0.0, 1))
    assert str(err.value) == (
        "server 0 merged server 2 into a non-finite model: ages 0.0 and 0.0, "
        f"coefficient eta_a x pair weight = {hp.eta_a * server_pair_weight(0.0, 0.0, hp.phi)}"
    )


@overflow_ok
@pytest.mark.parametrize("at", [None, 5])
@pytest.mark.parametrize("bad", BAD)
def test_fedasync_merge_names_server_and_client(bad, at):
    sim, server, clients, _, _, _ = build_fedasync(n_clients=3)
    c = clients[1]
    share = server.data_sizes[c.node_id] / server.total_data
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError) as err:
        server.handle(sim, c.node_id, ClientUpdate(poisoned(server.model.params, bad, at), 0.0))
    assert str(err.value) == (
        f"server {server.node_id} merged client {c.node_id} into a non-finite model: "
        f"staleness 0.0, coefficient s(tau) x d_k/d = "
        f"{fedasync_staleness(0.0, server.alpha) * share}"
    )


@overflow_ok
@pytest.mark.parametrize("culprit", [0, 2])
@pytest.mark.parametrize("bad", BAD)
def test_fedavg_average_names_the_first_bad_client(bad, culprit):
    sim, server, clients, _, _, _ = build_fedavg(n_clients=3)
    ids = [c.node_id for c in clients]
    good = server.model.params
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError) as err:
        for i, cid in enumerate(ids):
            p = poisoned(good, bad, 4) if i == culprit else good
            server.handle(sim, cid, ClientUpdate(p, 0.0))
    total = float(sum(server.data_sizes[c] for c in ids))
    assert str(err.value) == (
        f"server {server.node_id} averaged round 0 into a non-finite model: "
        f"client {ids[culprit]}, coefficient d_k/d = {server.data_sizes[ids[culprit]] / total}"
    )


def reference_training(m, X, y, lr, epochs, batch_size, rng):
    """The fold of ``loss_and_grad`` and ``sgd_step``, checking nothing."""
    p = m.params.copy()
    X = np.asarray(X, dtype=np.float64)
    for _ in range(epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            idx = order[start : start + batch_size]
            _, g = models.loss_and_grad(m.with_params(p), X[idx], y[idx])
            p = models.sgd_step(p, g, lr)
    return p


@pytest.mark.parametrize("at", [None, 2, 13])
@pytest.mark.parametrize("bad", BAD)
def test_training_names_client_and_component(bad, at):
    sim, _, clients, _ = build()
    c = clients[0]
    first = ModelDispatch(c.template.params, 0.0, 0.1)
    c.service_ms(sim, first, c.home_server)
    c.handle(sim, c.home_server, first)
    params = poisoned(c.template.params, bad, at)
    with np.errstate(all="ignore"):
        ref = reference_training(
            c.template.with_params(params), c._X, c._y, 0.25, c.epochs, c.batch_size,
            np.random.default_rng([c.seed, 1]),
        )
        with pytest.raises(NumericsError) as err:
            c.service_ms(sim, ModelDispatch(params, 1.0, 0.25), c.home_server)
    component = int(np.flatnonzero(~np.isfinite(ref))[0])
    assert err.value.index == component
    assert str(err.value) == (
        f"client {c.node_id} (home server {c.home_server}) trained dispatch round 1 at lr "
        f"0.25 into a non-finite model: first non-finite component {component}"
    )


@overflow_ok
def test_huge_finite_models_merge_and_train_without_error():
    hp = HyperParams(h_inter=1e6, h_intra=1e6)
    sim, servers, clients, _ = build(hp=hp)
    s, c = servers[0], clients[0]
    huge = np.full(s.model.dim, 1e200)
    s.model = s.model.with_params(huge)
    s.handle(sim, c.node_id, ClientUpdate(huge.copy(), 0.0))
    np.testing.assert_array_equal(s.model.params, huge)
    # lr 0 leaves the parameters as they are, and their gradient is finite.
    trained = c._train(huge, 0.0, 0)
    np.testing.assert_array_equal(trained, huge)


# -- the client's generator ---------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2815252342, 2**64 + 5])
@pytest.mark.parametrize("dispatch", [0, 1, 77, 2**32 - 1, 2**32])
def test_client_generator_is_default_rng_of_seed_and_dispatch(monkeypatch, seed, dispatch):
    shards, template, _ = make_task(1)
    client = TrainingClient(1, LOCATIONS[0], 0, shards[0], template, 1, 8, 100.0, seed)
    seen = []
    training = models.local_training

    def capture(m, X, y, lr, epochs, batch_size, rng):
        seen.append(rng.bit_generator.state)
        return training(m, X, y, lr, epochs, batch_size, rng)

    monkeypatch.setattr(models, "local_training", capture)
    client._train(template.params, 0.1, dispatch)
    assert seen == [np.random.default_rng([seed, dispatch]).bit_generator.state]


def test_uint32_words_rejects_negative_seeds():
    with pytest.raises(ValueError, match="non-negative"):
        uint32_words(-1)
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])


# -- seed states hashed in one pass --------------------------------------------------


def reference_states(words: list[int]) -> tuple[np.ndarray, np.ndarray]:
    seq = np.random.SeedSequence(words)
    return seq.generate_state(4, np.uint64), seq.generate_state(1, np.uint32)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**70 - 1),
    rounds=st.lists(st.integers(0, 2**33 - 1), min_size=1, max_size=5),
)
@example(seed=0, rounds=[0])
@example(seed=2**32 - 1, rounds=[2**32 - 1, 2**32, 0])
@example(seed=2**32, rounds=[2**32 - 1, 2**32])
# Five and six words: the last ones are mixed in past the pool of four.
@example(seed=2**64 + 5, rounds=[2**32, 2**33 - 1, 7])
@example(seed=2**70 - 1, rounds=[2**33 - 1])
def test_seed_states_are_those_of_seed_sequence(seed, rounds):
    by_length: dict[int, list[list[int]]] = {}
    for r in rounds:
        words = uint32_words(seed) + uint32_words(r)
        by_length.setdefault(len(words), []).append(words)
    for rows in by_length.values():
        entropy = np.array(rows, np.uint32)
        wide, narrow = seed_states(entropy, 4, np.uint64), seed_states(entropy, 1)
        assert wide.dtype == np.uint64 and narrow.dtype == np.uint32
        for words, w, n in zip(rows, wide, narrow):
            ref_wide, ref_narrow = reference_states(words)
            np.testing.assert_array_equal(w, ref_wide)
            np.testing.assert_array_equal(n, ref_narrow)


@pytest.mark.parametrize("length", [1, 3, 4, 5, 8, 13])
def test_seed_states_of_entropy_longer_or_shorter_than_the_pool(length):
    rng = np.random.default_rng(length)
    entropy = rng.integers(0, 2**32, size=(6, length), dtype=np.uint32)
    entropy[0] = 0
    entropy[1] = 2**32 - 1
    wide, narrow = seed_states(entropy, 4, np.uint64), seed_states(entropy, 1)
    for words, w, n in zip(entropy.tolist(), wide, narrow):
        ref_wide, ref_narrow = reference_states(words)
        np.testing.assert_array_equal(w, ref_wide)
        np.testing.assert_array_equal(n, ref_narrow)


def test_a_client_table_extends_past_its_rounds():
    shards, template, _ = make_task(1)
    seed = 2**32 + 9
    words = [[seed, r] for r in range(3)]
    table = np.concatenate([reference_states(w)[0][None] for w in words])
    client = TrainingClient(1, LOCATIONS[0], 0, shards[0], template, 1, 8, 100.0, seed, table)
    for r in range(200):
        np.testing.assert_array_equal(client._state(r), reference_states([seed, r])[0])
    assert len(client._states) >= 200
    # A round far past the table is hashed alone; the table stays as it is.
    far = 10**6
    np.testing.assert_array_equal(client._state(far), reference_states([seed, far])[0])
    assert len(client._states) < far


def desk_synth(**extra):
    return from_dict({"preset": "desk-synth", "seed": 3, "horizon_ms": 1500.0, **extra})


def test_client_seed_tables_hold_the_rounds_a_client_can_train(monkeypatch):
    """A table holds at most one row more than the rounds a client can
    train within the horizon, and a run at that horizon never extends it."""
    cfg = desk_synth()
    epochs = cfg.resolved_hyper().local_epochs
    tables = []

    def kept_build(c):
        built = build_experiment(c)
        tables.extend(client._states for client in built.clients)
        return built

    monkeypatch.setattr(workers, "_start_worker", workers._OnLoop)
    monkeypatch.setattr("spykersim.experiment.build_experiment", kept_build)
    res = run_experiment(cfg)
    assert res.summary["updates"] > 0
    for client, table in zip(res.built.clients, tables):
        bound = math.floor(cfg.horizon_ms / (client.training_delay_ms * epochs)) + 1
        assert 1 <= len(table) <= bound
        assert client._states is table
        assert client._round <= len(table)
        for r in (0, len(table) - 1):
            rng = np.random.Generator(np.random.PCG64(HashedState(table[r])))
            assert rng.bit_generator.state == np.random.default_rng([client.seed, r]).bit_generator.state


@pytest.mark.parametrize("master", [0, 3, 2**32 - 1, 2**40 + 3])
def test_client_seeds_and_delays_are_those_of_derive_seed(master):
    n = 12
    shuffle, delay = client_seeds(master, (_CLIENT_SHUFFLE, _CLIENT_DELAY), n)
    assert shuffle.tolist() == [derive_seed(master, _CLIENT_SHUFFLE, i) for i in range(n)]
    assert delay.tolist() == [derive_seed(master, _CLIENT_DELAY, i) for i in range(n)]
    cfg = desk_synth(seed=master)
    built = build_experiment(cfg)
    for i, client in enumerate(built.clients):
        rng = np.random.default_rng(derive_seed(master, _CLIENT_DELAY, i))
        assert client.training_delay_ms == cfg.compute.sample_training_ms(rng)
        assert built.manifest.node_seeds[f"client-{client.node_id}"] == derive_seed(
            master, _CLIENT_SHUFFLE, i
        )


def test_client_seed_tables_are_capped_for_the_whole_run():
    """Training delays of a nanosecond would ask for 1.5e9 rounds per client
    within the horizon; the tables hold a bounded share each instead."""
    cfg = desk_synth(n_clients=8, compute={"training_mean_ms": 1e-6, "training_std_ms": 0.0})
    built = build_experiment(cfg)
    cap = experiment._TABLE_ROWS // cfg.n_clients
    assert [len(c._states) for c in built.clients] == [cap] * cfg.n_clients
    client = built.clients[-1]
    np.testing.assert_array_equal(client._state(cap - 1), reference_states([client.seed, cap - 1])[0])
    np.testing.assert_array_equal(client._state(cap), reference_states([client.seed, cap])[0])
