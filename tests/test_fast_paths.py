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
from hypothesis import given, settings
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
from spykersim.protocols.clients import uint32_words
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
